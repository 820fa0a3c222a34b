//! Work-conserving FIFO resources ("servers" in queueing terms).
//!
//! The host pipeline stations of the model — a CPU, the PCI-X bus, the memory
//! bus, a wire — are single servers that process work items back-to-back.
//! Because service is FIFO and non-preemptive, a server does not need its own
//! events: admitting a job at time `t` with service time `s` analytically
//! yields start `max(t, busy_until)` and completion `start + s`. The caller
//! schedules whatever downstream event the completion triggers.
//!
//! Each server tracks cumulative busy time, so utilization over any window is
//! exact — this is how the laboratory reproduces the paper's
//! `/proc/loadavg` CPU-load observations.

use crate::time::Nanos;

/// Outcome of admitting one job to a [`FifoServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// When service began (≥ admission time).
    pub start: Nanos,
    /// When service completes.
    pub done: Nanos,
    /// How long the job waited before service began.
    pub queued_for: Nanos,
}

/// A non-preemptive, work-conserving, FIFO single server.
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    busy_until: Nanos,
    busy_total: Nanos,
}

impl FifoServer {
    /// Create an idle server.
    pub fn new() -> Self {
        FifoServer::default()
    }

    /// Admit a job arriving at `now` requiring `service` time.
    pub fn admit(&mut self, now: Nanos, service: Nanos) -> Admission {
        let start = now.max(self.busy_until);
        let done = start.saturating_add(service);
        let queued_for = start - now;
        self.busy_until = done;
        self.busy_total = self.busy_total.saturating_add(service);
        Admission {
            start,
            done,
            queued_for,
        }
    }

    /// Time at which the server next becomes idle (absent new arrivals).
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// Outstanding work as of `now` — how long a job arriving now would wait.
    pub fn backlog(&self, now: Nanos) -> Nanos {
        self.busy_until.saturating_sub(now)
    }

    /// Whether the server would start a job arriving at `now` immediately.
    pub fn idle_at(&self, now: Nanos) -> bool {
        self.busy_until <= now
    }

    /// Total service time delivered so far.
    pub fn busy_total(&self) -> Nanos {
        self.busy_total
    }

    /// Mean utilization over `[0, now]` — the model's `/proc/loadavg` analog.
    ///
    /// Counts only service actually delivered by `now` (work scheduled beyond
    /// `now` is excluded), so the value is always in `[0, 1]`.
    pub fn utilization(&self, now: Nanos) -> f64 {
        if now == Nanos::ZERO {
            return 0.0;
        }
        let delivered = self.busy_total.saturating_sub(self.backlog(now));
        delivered.as_nanos() as f64 / now.as_nanos() as f64
    }
}

/// A bank of identical FIFO servers with static or round-robin routing —
/// the model of a multi-processor host.
///
/// The 2.4-era SMP kernel the paper studies pins all NIC interrupts to a
/// single CPU; [`ServerBank::admit_pinned`] models that, while application
/// work can be spread with [`ServerBank::admit_least_loaded`].
#[derive(Debug, Clone)]
pub struct ServerBank {
    servers: Vec<FifoServer>,
}

impl ServerBank {
    /// Create `n` idle servers (n ≥ 1).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a host needs at least one CPU");
        ServerBank {
            servers: vec![FifoServer::new(); n],
        }
    }

    /// Number of servers in the bank.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the bank is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Admit to a specific server (interrupt pinning).
    pub fn admit_pinned(&mut self, idx: usize, now: Nanos, service: Nanos) -> Admission {
        self.servers[idx].admit(now, service)
    }

    /// Admit to the server that can start the job soonest.
    pub fn admit_least_loaded(&mut self, now: Nanos, service: Nanos) -> (usize, Admission) {
        let idx = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.busy_until())
            .map(|(i, _)| i)
            .expect("bank is non-empty");
        (idx, self.servers[idx].admit(now, service))
    }

    /// A specific server, for inspection.
    pub fn server(&self, idx: usize) -> &FifoServer {
        &self.servers[idx]
    }

    /// Highest per-server utilization — what `top` would show as the hot CPU.
    pub fn peak_utilization(&self, now: Nanos) -> f64 {
        self.servers
            .iter()
            .map(|s| s.utilization(now))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FifoServer::new();
        let a = s.admit(Nanos(100), Nanos(50));
        assert_eq!(a.start, Nanos(100));
        assert_eq!(a.done, Nanos(150));
        assert_eq!(a.queued_for, Nanos::ZERO);
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = FifoServer::new();
        s.admit(Nanos(0), Nanos(100));
        let a = s.admit(Nanos(10), Nanos(20));
        assert_eq!(a.start, Nanos(100));
        assert_eq!(a.done, Nanos(120));
        assert_eq!(a.queued_for, Nanos(90));
        let b = s.admit(Nanos(10), Nanos(5));
        assert_eq!(b.start, Nanos(120), "second job waits behind the first");
    }

    #[test]
    fn utilization_is_busy_fraction() {
        let mut s = FifoServer::new();
        s.admit(Nanos(0), Nanos(400));
        // At t=1000 the server has been busy 400 of 1000 ns.
        assert!((s.utilization(Nanos(1000)) - 0.4).abs() < 1e-9);
        // Utilization can never exceed 1 even with a deep backlog.
        s.admit(Nanos(0), Nanos(10_000));
        assert!(s.utilization(Nanos(1000)) <= 1.0);
    }

    #[test]
    fn idle_and_backlog() {
        let mut s = FifoServer::new();
        assert!(s.idle_at(Nanos(0)));
        s.admit(Nanos(0), Nanos(100));
        assert!(!s.idle_at(Nanos(50)));
        assert_eq!(s.backlog(Nanos(40)), Nanos(60));
        assert!(s.idle_at(Nanos(100)));
    }

    #[test]
    fn mean_wait_counts_queueing_only() {
        let mut s = FifoServer::new();
        let a = s.admit(Nanos(0), Nanos(100)); // waits 0
        let b = s.admit(Nanos(0), Nanos(100)); // waits 100
        assert_eq!((a.queued_for + b.queued_for) / 2, Nanos(50));
    }

    #[test]
    fn bank_pinned_vs_least_loaded() {
        let mut bank = ServerBank::new(2);
        bank.admit_pinned(0, Nanos(0), Nanos(1000));
        // Least-loaded routing picks CPU 1.
        let (idx, a) = bank.admit_least_loaded(Nanos(0), Nanos(10));
        assert_eq!(idx, 1);
        assert_eq!(a.start, Nanos(0));
        // Pinned routing keeps hammering CPU 0 — the SMP interrupt pathology.
        let a = bank.admit_pinned(0, Nanos(0), Nanos(10));
        assert_eq!(a.start, Nanos(1000));
        assert_eq!(bank.peak_utilization(Nanos(1000)), 1.0);
        assert_eq!(bank.server(1).busy_total(), Nanos(10));
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn empty_bank_rejected() {
        let _ = ServerBank::new(0);
    }
}
