//! NetPipe — the paper's latency tool.
//!
//! "To estimate the end-to-end latency between a pair of 10GbE adapters, we
//! use NetPipe to obtain an averaged round-trip time over several
//! single-byte, ping-pong tests and then divide by two." (§3.2)

use tengig_sim::stats::Summary;
use tengig_sim::Nanos;

/// Which endpoint an event happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PingPongSide {
    /// The initiating side (measures RTT).
    Initiator,
    /// The echoing side.
    Echoer,
}

/// Ping-pong driver state.
#[derive(Debug, Clone)]
pub struct NetPipe {
    /// Payload per ping.
    pub payload: u64,
    /// Rounds remaining.
    remaining: u64,
    /// Time the current ping was sent.
    ping_sent: Option<Nanos>,
    /// RTT samples.
    rtts: Summary,
    /// Bytes accumulated toward the current message at each side.
    acc_initiator: u64,
    acc_echoer: u64,
}

impl NetPipe {
    /// A ping-pong of `rounds` exchanges of `payload` bytes each way.
    pub fn new(payload: u64, rounds: u64) -> Self {
        NetPipe {
            payload,
            remaining: rounds,
            ping_sent: None,
            rtts: Summary::new(),
            acc_initiator: 0,
            acc_echoer: 0,
        }
    }

    /// Should the initiator send a ping now? Returns the payload to write.
    pub fn start_ping(&mut self, now: Nanos) -> Option<u64> {
        if self.remaining == 0 || self.ping_sent.is_some() {
            return None;
        }
        self.ping_sent = Some(now);
        Some(self.payload)
    }

    /// `bytes` arrived at `side` at `now`. Returns `Some(payload)` when that
    /// side should write a message (echo, or next ping).
    pub fn on_delivered(&mut self, now: Nanos, side: PingPongSide, bytes: u64) -> Option<u64> {
        match side {
            PingPongSide::Echoer => {
                self.acc_echoer += bytes;
                if self.acc_echoer >= self.payload {
                    self.acc_echoer -= self.payload;
                    Some(self.payload) // echo back
                } else {
                    None
                }
            }
            PingPongSide::Initiator => {
                self.acc_initiator += bytes;
                if self.acc_initiator >= self.payload {
                    self.acc_initiator -= self.payload;
                    let sent = self.ping_sent.take().expect("pong without ping");
                    self.rtts.record(now.saturating_sub(sent).as_nanos() as f64);
                    self.remaining -= 1;
                    self.start_ping(now)
                } else {
                    None
                }
            }
        }
    }

    /// Whether all rounds completed.
    pub fn is_done(&self) -> bool {
        self.remaining == 0 && self.ping_sent.is_none()
    }

    /// Mean one-way latency: mean RTT / 2 — the paper's reported metric.
    pub fn one_way_latency(&self) -> Nanos {
        Nanos::from_nanos((self.rtts.mean() / 2.0).round() as u64)
    }

    /// Number of RTT samples.
    pub fn samples(&self) -> u64 {
        self.rtts.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_round_pingpong() {
        let mut np = NetPipe::new(1, 3);
        let mut now = Nanos::ZERO;
        let w = np.start_ping(now);
        assert_eq!(w, Some(1));
        assert_eq!(np.start_ping(now), None, "one ping in flight at a time");
        for _ in 0..3 {
            now += Nanos::from_micros(19);
            let echo = np.on_delivered(now, PingPongSide::Echoer, 1);
            assert_eq!(echo, Some(1));
            now += Nanos::from_micros(19);
            // The pong returning triggers the next ping (or completion).
            let _next = np.on_delivered(now, PingPongSide::Initiator, 1);
        }
        assert!(np.is_done());
        assert_eq!(np.samples(), 3);
        // RTT 38 µs → one-way 19 µs.
        assert_eq!(np.one_way_latency(), Nanos::from_micros(19));
        assert_eq!(np.rtts.stddev(), 0.0);
    }

    #[test]
    fn partial_deliveries_accumulate() {
        let mut np = NetPipe::new(1000, 1);
        np.start_ping(Nanos::ZERO);
        assert_eq!(np.on_delivered(Nanos(10), PingPongSide::Echoer, 400), None);
        assert_eq!(
            np.on_delivered(Nanos(20), PingPongSide::Echoer, 600),
            Some(1000)
        );
        assert_eq!(
            np.on_delivered(Nanos(30), PingPongSide::Initiator, 999),
            None
        );
        assert_eq!(np.on_delivered(Nanos(40), PingPongSide::Initiator, 1), None);
        assert!(np.is_done());
    }
}
