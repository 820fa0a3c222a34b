//! Static adapter descriptions.

use tengig_sim::{Bandwidth, Nanos};

/// A network adapter's capabilities and configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicSpec {
    /// Display name.
    pub name: &'static str,
    /// Line (serialization) rate on the medium.
    pub line_rate: Bandwidth,
    /// Largest MTU the MAC supports.
    pub max_mtu: u64,
    /// Receive-interrupt coalescing delay: the period the card waits between
    /// receiving a packet and raising an interrupt, so multiple receptions
    /// share one interrupt. `ZERO` disables coalescing.
    pub rx_coalesce_delay: Nanos,
    /// Raise the interrupt immediately once this many frames are pending,
    /// even if the delay has not elapsed (absolute-timer bound).
    pub rx_coalesce_max_frames: u32,
    /// Transmit checksum computed in silicon (host CPU skips it).
    pub tx_csum_offload: bool,
    /// Receive checksum verified in silicon.
    pub rx_csum_offload: bool,
    /// TCP segmentation offload: the host sends one large (up to
    /// `tso_max_bytes`) virtual segment; the MAC cuts it into MTU-sized
    /// frames. Supported by the 82597EX; only used by newer kernels (§3.3).
    pub tso: bool,
    /// Largest virtual segment TSO accepts.
    pub tso_max_bytes: u64,
    /// Fixed adapter forwarding latency (MAC + PHY + serdes, per direction).
    pub port_latency: Nanos,
}

impl NicSpec {
    /// The Intel PRO/10GbE LR server adapter (82597EX controller), in the
    /// paper's default configuration: 5 µs coalescing delay, checksum
    /// offload on, TSO available but unused by the 2.4 kernels measured.
    pub fn intel_pro_10gbe() -> Self {
        NicSpec {
            name: "Intel-PRO/10GbE-LR",
            line_rate: Bandwidth::from_gbps(10),
            max_mtu: 16000,
            rx_coalesce_delay: Nanos::from_micros(5),
            rx_coalesce_max_frames: 32,
            tx_csum_offload: true,
            rx_csum_offload: true,
            tso: false,
            tso_max_bytes: 65_536,
            port_latency: Nanos::from_nanos(500),
        }
    }

    /// An e1000-class copper Gigabit Ethernet adapter ("our extensive
    /// experience with GbE chipsets, e.g. Intel's e1000 line and Broadcom's
    /// Tigon3, allows us to achieve near line-speed performance with a
    /// 1500-byte MTU", §3.5.4).
    pub fn e1000_gbe() -> Self {
        NicSpec {
            name: "e1000-GbE",
            line_rate: Bandwidth::from_gbps(1),
            max_mtu: 9000,
            rx_coalesce_delay: Nanos::from_micros(10),
            rx_coalesce_max_frames: 16,
            tx_csum_offload: true,
            rx_csum_offload: true,
            tso: false,
            tso_max_bytes: 65_536,
            port_latency: Nanos::from_nanos(800),
        }
    }

    /// Change the coalescing delay (`ZERO` turns coalescing off).
    pub fn with_coalescing(mut self, delay: Nanos) -> Self {
        self.rx_coalesce_delay = delay;
        self
    }

    /// Enable/disable TSO.
    pub fn with_tso(mut self, tso: bool) -> Self {
        self.tso = tso;
        self
    }

    /// Serialization time for a frame consuming `wire_bytes` byte-times.
    pub fn serialize_time(&self, wire_bytes: u64) -> Nanos {
        self.line_rate.time_to_send(wire_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intel_defaults_match_paper() {
        let nic = NicSpec::intel_pro_10gbe();
        assert_eq!(nic.rx_coalesce_delay, Nanos::from_micros(5));
        assert_eq!(nic.max_mtu, 16000);
        assert!(nic.tx_csum_offload && nic.rx_csum_offload);
        assert!(!nic.tso, "2.4 kernels in the paper do not use TSO");
    }

    #[test]
    fn serialization_at_line_rate() {
        let nic = NicSpec::intel_pro_10gbe();
        // Full 9000-MTU frame: 9038 byte-times ≈ 7.2 µs at 10 Gb/s.
        let t = nic.serialize_time(9038);
        assert!((7.2..7.3).contains(&t.as_micros_f64()), "{t}");
        // GbE is 10x slower.
        let g = NicSpec::e1000_gbe().serialize_time(9038);
        let ratio = g.as_nanos() as f64 / t.as_nanos() as f64;
        assert!((ratio - 10.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn builders() {
        let nic = NicSpec::intel_pro_10gbe()
            .with_coalescing(Nanos::ZERO)
            .with_tso(true);
        assert_eq!(nic.rx_coalesce_delay, Nanos::ZERO);
        assert!(nic.tso);
    }
}
