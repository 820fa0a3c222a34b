//! The Foundry FastIron 1500 switch model.
//!
//! §3.1: "we use a Foundry FastIron 1500 switch for both our indirect
//! single-flow and multi-flow tests. In the latter case, the switch
//! aggregates GbE and 10GbE streams from (or to) many hosts into a 10GbE
//! stream to (or from) a single host. The total backplane bandwidth
//! (480 Gb/s) in the switch far exceeds the needs of our tests."
//!
//! The model: store-and-forward ingress, a (non-binding) backplane server,
//! per-egress-port FIFO serializers with finite buffers, and a fixed
//! port-to-port forwarding latency calibrated to the paper's observation
//! that the switch adds ~6 µs to a small-frame one-way trip
//! (25 µs through the switch vs 19 µs back-to-back).

use tengig_sim::stats::Counter;
use tengig_sim::{Bandwidth, FifoServer, Nanos};

/// Per-port static configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortSpec {
    /// Line rate of the port.
    pub rate: Bandwidth,
    /// Egress buffer in bytes.
    pub buffer_bytes: u64,
}

/// Static switch description.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchSpec {
    /// Display name.
    pub name: &'static str,
    /// Aggregate backplane bandwidth.
    pub backplane: Bandwidth,
    /// Fixed port-to-port forwarding latency (lookup + scheduling),
    /// excluding store-and-forward serialization.
    pub forward_latency: Nanos,
    /// Ports, indexed by port id.
    pub ports: Vec<PortSpec>,
}

impl SwitchSpec {
    /// A FastIron 1500 with `n10` 10GbE ports and `n1` GbE ports
    /// (10GbE ports come first).
    pub fn fastiron_1500(n10: usize, n1: usize) -> Self {
        let mut ports = Vec::with_capacity(n10 + n1);
        for _ in 0..n10 {
            ports.push(PortSpec {
                rate: Bandwidth::from_gbps(10),
                buffer_bytes: 2 << 20,
            });
        }
        for _ in 0..n1 {
            ports.push(PortSpec {
                rate: Bandwidth::from_gbps(1),
                buffer_bytes: 1 << 20,
            });
        }
        SwitchSpec {
            name: "FastIron-1500",
            backplane: Bandwidth::from_gbps(480),
            forward_latency: Nanos::from_nanos(5_850),
            ports,
        }
    }
}

/// Runtime switch state.
#[derive(Debug)]
pub struct Switch {
    /// The static description.
    pub spec: SwitchSpec,
    backplane: FifoServer,
    egress: Vec<FifoServer>,
    /// Frames dropped per egress port.
    pub drops: Vec<Counter>,
    /// Frames forwarded per egress port.
    pub forwarded: Vec<Counter>,
}

impl Switch {
    /// Instantiate runtime state.
    pub fn new(spec: SwitchSpec) -> Self {
        let egress = spec
            .ports
            .iter()
            .map(|_| FifoServer::new("egress"))
            .collect();
        let drops = spec.ports.iter().map(|_| Counter::default()).collect();
        let forwarded = spec.ports.iter().map(|_| Counter::default()).collect();
        Switch {
            spec,
            backplane: FifoServer::new("backplane"),
            egress,
            drops,
            forwarded,
        }
    }

    /// A frame of `wire_bytes` fully received on an ingress port at `now`
    /// (store-and-forward: the caller accounts ingress serialization) wants
    /// to leave via `out_port`. Returns the time the frame has fully left
    /// the egress port, or `None` on buffer overflow.
    pub fn forward(&mut self, now: Nanos, out_port: usize, wire_bytes: u64) -> Option<Nanos> {
        let port = self.spec.ports[out_port];
        // Egress queue occupancy check (drop-tail).
        let backlog_bytes = port.rate.bytes_in(self.egress[out_port].backlog(now));
        if backlog_bytes + wire_bytes > port.buffer_bytes {
            self.drops[out_port].bump();
            return None;
        }
        // Cross the backplane (never binding in the paper's tests, but the
        // model keeps it honest).
        let bp = self
            .backplane
            .admit(now, self.spec.backplane.time_to_send(wire_bytes));
        let ready = bp.done + self.spec.forward_latency;
        // Serialize out the egress port.
        let adm = self.egress[out_port].admit(ready, port.rate.time_to_send(wire_bytes));
        self.forwarded[out_port].bump();
        Some(adm.done)
    }

    /// Total drops across all ports.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().map(|c| c.get()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adds_about_six_microseconds_for_small_frames() {
        // Paper: 19 µs back-to-back vs 25 µs through the switch — the
        // switch contributes ~6 µs for a minimum-size frame.
        let mut sw = Switch::new(SwitchSpec::fastiron_1500(2, 0));
        let t = sw.forward(Nanos::ZERO, 1, 84).unwrap();
        let us = t.as_micros_f64();
        assert!((5.5..6.5).contains(&us), "switch latency {us} µs");
    }

    #[test]
    fn egress_serialization_dominates_for_jumbo() {
        let mut sw = Switch::new(SwitchSpec::fastiron_1500(2, 0));
        let t = sw.forward(Nanos::ZERO, 1, 9038).unwrap();
        // 5.85 µs fixed + ~7.2 µs egress serialization + backplane.
        assert!((12.0..14.0).contains(&t.as_micros_f64()), "{t}");
    }

    #[test]
    fn aggregation_queues_at_the_10gbe_egress() {
        // 8 GbE senders burst into one 10GbE port: frames serialize
        // back-to-back at the egress.
        let mut sw = Switch::new(SwitchSpec::fastiron_1500(1, 8));
        let mut last = Nanos::ZERO;
        for _ in 0..8 {
            last = sw.forward(Nanos::ZERO, 0, 1538).unwrap();
        }
        // 8 frames × ~1.23 µs ≈ 9.8 µs of egress serialization after the
        // fixed latency.
        let us = last.as_micros_f64();
        assert!((15.0..17.0).contains(&us), "{us}");
        assert_eq!(sw.forwarded[0].get(), 8);
    }

    #[test]
    fn egress_overflow_drops() {
        let mut sw = Switch::new(SwitchSpec::fastiron_1500(1, 0));
        // The 10GbE egress buffer is 2 MiB; a burst of 300 jumbo frames
        // at one instant exceeds it.
        let mut dropped = 0;
        for _ in 0..300 {
            if sw.forward(Nanos::ZERO, 0, 9038).is_none() {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "expected drops");
        assert_eq!(sw.total_drops(), dropped);
        // Conservation: forwarded + dropped = offered.
        assert_eq!(sw.forwarded[0].get() + dropped, 300);
    }

    #[test]
    fn backplane_far_exceeds_test_needs() {
        let sw = Switch::new(SwitchSpec::fastiron_1500(2, 8));
        // Two 10GbE + eight GbE = 28 Gb/s max offered; backplane 480.
        let offered: u64 = sw.spec.ports.iter().map(|p| p.rate.bps()).sum();
        assert!(sw.spec.backplane.bps() > 10 * offered / 2);
    }
}
