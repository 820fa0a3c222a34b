//! Runtime invariant sanitizer for simulation runs.
//!
//! The repo's headline guarantee — byte-identical reports at any thread
//! count — only holds if every run is causally ordered and physically
//! conservative. The [`Sanitizer`] makes those properties machine-checked
//! instead of conventional:
//!
//! * **Causality** — virtual time is monotonic and no event handler may
//!   schedule work into the past. The [`Engine`](crate::Engine) reports
//!   past-scheduling here when a sanitizer is installed (and debug-asserts
//!   when one is not).
//! * **Byte conservation** — every wire byte injected by a sender must be
//!   accounted for as delivered or dropped; at the end of a fully drained
//!   run the in-flight residue must be exactly zero. The composition layer
//!   (the `tengig` core crate) feeds the ledger from its NIC → link →
//!   switch → sink hooks.
//! * **TCP sequence invariants** — checked by the TCP layer at every ACK
//!   and reported here (`snd_una ≤ snd_nxt`, cwnd/ssthresh bounds, SWS
//!   rounding; see `TcpConn::check_invariants` in `tengig-tcp`).
//! * **Obs freshness** — the lab's obs sampler skips scopes nothing
//!   changed since its last sample; under a sanitizer it re-reads them
//!   and reports any metric that moved without marking its scope.
//!
//! Violations are *recorded*, not panicked on, so a test can observe them;
//! the experiment drivers turn a non-empty violation list into a panic whose
//! message carries the scenario seed — a one-command repro (a sweep's
//! error adds the scenario index and label).
//!
//! The sanitizer is enabled by default in debug builds (so all tests run
//! under it) and opt-in via [`set_default_enabled`] in release builds.

use crate::time::Nanos;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide default for whether new simulations install a sanitizer.
///
/// Debug builds default to on — every test runs sanitized; release builds
/// default to off so measurement sweeps pay zero overhead unless asked.
static DEFAULT_ENABLED: AtomicBool = AtomicBool::new(cfg!(debug_assertions));

/// Whether new simulations install a sanitizer: on under
/// `debug_assertions`, off in release unless [`set_default_enabled`] was
/// called.
pub fn default_enabled() -> bool {
    DEFAULT_ENABLED.load(Ordering::Relaxed)
}

/// Override the process-wide sanitizer default (see [`default_enabled`]).
///
/// Used by tests to prove sanitized and unsanitized runs produce
/// byte-identical reports, and by release callers to opt in.
pub fn set_default_enabled(on: bool) {
    DEFAULT_ENABLED.store(on, Ordering::Relaxed);
}

/// The class of invariant a [`Violation`] breaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// An event was scheduled before the current virtual time.
    Causality,
    /// The byte ledger went out of balance (bytes created or leaked).
    ByteConservation,
    /// A TCP connection's sequence-space invariants failed.
    TcpInvariant,
    /// The obs sampler skipped a scope it believed unchanged, yet a
    /// metric's live value differs from its series' last point.
    ObsStale,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::Causality => "causality",
            ViolationKind::ByteConservation => "byte-conservation",
            ViolationKind::TcpInvariant => "tcp-invariant",
            ViolationKind::ObsStale => "obs-stale",
        })
    }
}

/// One recorded invariant breach.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant class failed.
    pub kind: ViolationKind,
    /// Virtual time at which the breach was detected.
    pub at: Nanos,
    /// Human-readable description of the breach.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={} [{}] {}", self.at, self.kind, self.detail)
    }
}

/// Cap on stored violations; a systemically broken model would otherwise
/// record one violation per event and balloon memory before the run ends.
const MAX_RECORDED: usize = 64;

/// Accumulates invariant breaches and the whole-run byte-conservation
/// ledger for one simulation run.
///
/// Install on an [`Engine`](crate::Engine) via
/// [`Engine::install_sanitizer`](crate::Engine::install_sanitizer) so every
/// event handler (which already holds `&mut Engine`) can reach it.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    seed: u64,
    injected: u64,
    delivered: u64,
    dropped: u64,
    total: u64,
    violations: Vec<Violation>,
}

impl Sanitizer {
    /// A fresh sanitizer for a run driven by `seed` (recorded so every
    /// report is a one-command repro).
    pub fn new(seed: u64) -> Self {
        Sanitizer {
            seed,
            injected: 0,
            delivered: 0,
            dropped: 0,
            total: 0,
            violations: Vec::new(),
        }
    }

    /// The master seed recorded at construction.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Record a violation of `kind` at virtual time `at`.
    ///
    /// Violations beyond an internal cap are counted but not stored.
    pub fn record(&mut self, kind: ViolationKind, at: Nanos, detail: String) {
        self.total += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(Violation { kind, at, detail });
        }
    }

    /// Ledger: `bytes` of wire traffic entered the network at a sender.
    pub fn inject(&mut self, bytes: u64) {
        self.injected += bytes;
    }

    /// Ledger: `bytes` of wire traffic reached a sink at time `at`.
    ///
    /// Delivering (or dropping) more than was ever injected means the model
    /// created bytes out of thin air, and is recorded immediately.
    pub fn deliver(&mut self, at: Nanos, bytes: u64) {
        self.delivered += bytes;
        self.check_balance(at);
    }

    /// Ledger: `bytes` of wire traffic were dropped (queue overflow, path
    /// loss) at time `at`.
    pub fn drop_bytes(&mut self, at: Nanos, bytes: u64) {
        self.dropped += bytes;
        self.check_balance(at);
    }

    fn check_balance(&mut self, at: Nanos) {
        if self.delivered + self.dropped > self.injected {
            let detail = format!(
                "bytes created: delivered {} + dropped {} > injected {}",
                self.delivered, self.dropped, self.injected
            );
            self.record(ViolationKind::ByteConservation, at, detail);
        }
    }

    /// Total wire bytes injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Total wire bytes delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total wire bytes dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Bytes injected but not yet delivered or dropped.
    pub fn in_flight(&self) -> u64 {
        self.injected.saturating_sub(self.delivered + self.dropped)
    }

    /// Assert the ledger is fully drained: after a run whose event calendar
    /// emptied, every injected byte must have been delivered or dropped.
    ///
    /// Only call this on full-drain runs — windowed measurements stop with
    /// frames legitimately still on the wire.
    pub fn check_drained(&mut self, at: Nanos) {
        if self.in_flight() != 0 {
            let detail = format!(
                "bytes leaked: injected {} = delivered {} + dropped {} + in-flight {}",
                self.injected,
                self.delivered,
                self.dropped,
                self.in_flight()
            );
            self.record(ViolationKind::ByteConservation, at, detail);
        }
    }

    /// Whether any violation has been recorded.
    pub fn has_violations(&self) -> bool {
        self.total > 0
    }

    /// The recorded violations (capped; see [`Sanitizer::record`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Render every recorded violation with the run's repro seed.
    pub fn report(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "sanitizer: {} violation(s) [seed=0x{:x}]",
            self.total, self.seed
        );
        for v in &self.violations {
            let _ = write!(out, "\n  {v}");
        }
        if self.total as usize > self.violations.len() {
            let _ = write!(
                out,
                "\n  ... and {} more",
                self.total as usize - self.violations.len()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ledger_is_clean() {
        let mut s = Sanitizer::new(1);
        s.inject(9000);
        s.inject(9000);
        s.drop_bytes(Nanos(10), 9000);
        s.deliver(Nanos(20), 9000);
        s.check_drained(Nanos(30));
        assert!(!s.has_violations(), "{}", s.report());
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn leaked_bytes_are_reported_with_the_seed() {
        let mut s = Sanitizer::new(0xBEEF);
        s.inject(1000);
        s.deliver(Nanos(50), 400);
        assert!(!s.has_violations(), "mid-run in-flight is legal");
        assert_eq!(s.in_flight(), 600);
        s.check_drained(Nanos(99));
        assert!(s.has_violations());
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].kind, ViolationKind::ByteConservation);
        assert_eq!(s.violations()[0].at, Nanos(99));
        let report = s.report();
        assert!(report.contains("[seed=0xbeef]"), "{report}");
        assert_eq!(s.seed(), 0xBEEF);
        assert!(report.contains("in-flight 600"), "{report}");
    }

    #[test]
    fn created_bytes_are_reported_immediately() {
        let mut s = Sanitizer::new(3);
        s.inject(100);
        s.deliver(Nanos(5), 100);
        s.deliver(Nanos(6), 1); // one byte from thin air
        assert!(s.has_violations());
        assert_eq!(s.violations()[0].kind, ViolationKind::ByteConservation);
        assert!(s.violations()[0].detail.contains("bytes created"));
    }

    #[test]
    fn violation_storage_is_capped_but_counted() {
        let mut s = Sanitizer::new(4);
        for i in 0..(MAX_RECORDED as u64 + 10) {
            s.record(ViolationKind::TcpInvariant, Nanos(i), format!("v{i}"));
        }
        assert_eq!(s.violations().len(), MAX_RECORDED);
        assert!(s.report().contains("... and 10 more"));
    }
}
