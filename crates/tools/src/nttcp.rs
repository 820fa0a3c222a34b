//! NTTCP — the paper's primary throughput tool.
//!
//! "NTTCP, a ttcp variant, measures the time required to send a set number
//! of fixed-size packets. … In our tests, NTTCP is better suited for
//! optimizing the performance between the application and the network."
//! (§3.2) "In each single-flow experiment, NTTCP transfers 32,768 packets
//! ranging in size from 128 bytes to 16 KB" (§3.3).
//!
//! The sender issues fixed-size application writes as the socket accepts
//! them; the receiver reads promptly. Throughput is payload bytes over the
//! interval from the first write to the last delivered byte.

use tengig_sim::{rate_of, Bandwidth, Nanos};

/// The transmitting side of an NTTCP run.
#[derive(Debug, Clone)]
pub struct NttcpSender {
    /// Bytes per application write ("packet" in NTTCP terms).
    pub payload: u64,
    /// Writes remaining to issue.
    remaining: u64,
    /// Time of the first write.
    started: Option<Nanos>,
    /// Writes issued so far.
    pub writes: u64,
}

impl NttcpSender {
    /// A sender that will issue `count` writes of `payload` bytes.
    pub fn new(payload: u64, count: u64) -> Self {
        NttcpSender {
            payload,
            remaining: count,
            started: None,
            writes: 0,
        }
    }

    /// Ask for the next write. `space` is the socket's free send-buffer
    /// space; NTTCP blocks (returns `None`) until a whole write fits.
    pub fn next_write(&mut self, now: Nanos, space: u64) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        if space < self.payload {
            return None;
        }
        self.remaining -= 1;
        self.writes += 1;
        if self.started.is_none() {
            self.started = Some(now);
        }
        Some(self.payload)
    }

    /// Time of the first write.
    pub fn started_at(&self) -> Option<Nanos> {
        self.started
    }

    /// Total payload bytes this run will transfer.
    pub fn total_bytes(&self) -> u64 {
        self.payload * (self.writes + self.remaining)
    }
}

/// The receiving side of an NTTCP run.
#[derive(Debug, Clone)]
pub struct NttcpReceiver {
    /// Total payload bytes expected.
    pub expected: u64,
    /// Bytes delivered so far.
    pub received: u64,
    /// Completion time.
    done_at: Option<Nanos>,
}

impl NttcpReceiver {
    /// A receiver expecting `expected` bytes.
    pub fn new(expected: u64) -> Self {
        NttcpReceiver {
            expected,
            received: 0,
            done_at: None,
        }
    }

    /// `bytes` of in-order data were delivered at `now`.
    pub fn on_delivered(&mut self, now: Nanos, bytes: u64) {
        self.received += bytes;
        if self.received >= self.expected && self.done_at.is_none() {
            self.done_at = Some(now);
        }
    }

    /// Whether the run is complete.
    pub fn is_done(&self) -> bool {
        self.done_at.is_some()
    }

    /// Completion time.
    pub fn done_at(&self) -> Option<Nanos> {
        self.done_at
    }
}

/// The result of one NTTCP run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NttcpResult {
    /// Application write size.
    pub payload: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Wall time from first write to last delivery.
    pub elapsed: Nanos,
    /// Achieved application-level throughput.
    pub throughput: Bandwidth,
    /// Sender CPU load over the run (mean utilization).
    pub tx_cpu_load: f64,
    /// Receiver CPU load over the run.
    pub rx_cpu_load: f64,
}

impl NttcpResult {
    /// Assemble a result from the two halves.
    pub fn from_run(
        sender: &NttcpSender,
        receiver: &NttcpReceiver,
        tx_cpu_load: f64,
        rx_cpu_load: f64,
    ) -> Option<NttcpResult> {
        let start = sender.started_at()?;
        let end = receiver.done_at()?;
        let elapsed = end.saturating_sub(start);
        Some(NttcpResult {
            payload: sender.payload,
            bytes: receiver.received,
            elapsed,
            throughput: rate_of(receiver.received, elapsed),
            tx_cpu_load,
            rx_cpu_load,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_issues_exact_count() {
        let mut s = NttcpSender::new(1000, 3);
        assert_eq!(s.next_write(Nanos(1), 1 << 20), Some(1000));
        assert_eq!(s.next_write(Nanos(2), 1 << 20), Some(1000));
        assert_eq!(s.next_write(Nanos(3), 1 << 20), Some(1000));
        assert_eq!(s.next_write(Nanos(4), 1 << 20), None);
        assert_eq!(s.remaining, 0);
        assert_eq!(s.started_at(), Some(Nanos(1)));
        assert_eq!(s.writes, 3);
    }

    #[test]
    fn sender_blocks_on_partial_space() {
        let mut s = NttcpSender::new(1000, 2);
        assert_eq!(s.next_write(Nanos(1), 999), None);
        assert_eq!(
            (s.writes, s.remaining),
            (0, 2),
            "a blocked write issues nothing"
        );
        assert_eq!(s.next_write(Nanos(2), 1000), Some(1000));
        assert_eq!(s.started_at(), Some(Nanos(2)));
    }

    #[test]
    fn receiver_completes_and_result_computes() {
        let mut s = NttcpSender::new(1000, 10);
        let mut r = NttcpReceiver::new(10_000);
        while s.next_write(Nanos(100), 1 << 20).is_some() {}
        r.on_delivered(Nanos(4_100), 4_000);
        assert!(!r.is_done());
        r.on_delivered(Nanos(8_100), 6_000);
        assert!(r.is_done());
        let res = NttcpResult::from_run(&s, &r, 0.5, 0.9).unwrap();
        assert_eq!(res.bytes, 10_000);
        assert_eq!(res.elapsed, Nanos(8_000));
        // 10 KB in 8 µs = 10 Gb/s.
        assert!((res.throughput.gbps() - 10.0).abs() < 0.01);
    }
}
