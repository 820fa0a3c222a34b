//! MTU/MSS arithmetic and per-frame wire overheads.

/// Ethernet II header: destination MAC (6) + source MAC (6) + EtherType (2).
pub const ETH_HEADER: u64 = 14;
/// Frame check sequence (CRC-32) appended to every frame.
pub const ETH_FCS: u64 = 4;
/// Preamble (7) + start-frame delimiter (1) + minimum inter-frame gap (12):
/// 20 byte-times consumed on the wire per frame but never seen by software.
pub const ETH_PREAMBLE_IFG: u64 = 20;
/// IPv4 header without options.
pub const IP_HEADER: u64 = 20;
/// TCP header without options.
pub const TCP_HEADER: u64 = 20;
/// TCP timestamp option as carried on every segment when RFC 1323
/// timestamps are enabled: 10 bytes of option + 2 bytes of NOP padding.
/// Linux deducts these 12 bytes from the MSS — the reason disabling
/// timestamps on the Intel-loaned hosts was worth ~10% (§3.4).
pub const TCP_TIMESTAMP_OPTION: u64 = 12;
/// Minimum Ethernet payload (frames are padded up to this).
pub const ETH_MIN_PAYLOAD: u64 = 46;

/// A maximum transfer unit, in bytes of IP packet (the Linux `ifconfig mtu`
/// meaning: IP header + TCP header + payload, excluding Ethernet framing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mtu(pub u64);

impl Mtu {
    /// Standard Ethernet MTU.
    pub const STANDARD: Mtu = Mtu(1500);
    /// Conventional jumboframe MTU.
    pub const JUMBO_9000: Mtu = Mtu(9000);
    /// The paper's tuned MTU: payload + headers of a full frame fit exactly
    /// in a single 8 KiB kernel block (§3.3 "Tuning the MTU Size").
    pub const TUNED_8160: Mtu = Mtu(8160);
    /// The largest MTU the Intel PRO/10GbE adapter supports.
    pub const MAX_INTEL_16000: Mtu = Mtu(16000);

    /// Maximum segment size: the TCP payload that fits in one MTU.
    ///
    /// `MSS = MTU − IP header − TCP header`, further reduced by the
    /// timestamp option when enabled (Linux advertises the full MSS but
    /// effectively carries 12 bytes of options per segment; we fold that in
    /// here, which is how the paper quotes "8948-byte MSS with options" for
    /// a 9000-byte MTU — 9000 − 40 − 12 = 8948).
    ///
    /// Degenerate MTUs smaller than the headers (which cannot carry any
    /// payload) clamp to an MSS of 1 byte rather than wrapping: an MSS of 0
    /// would divide-by-zero in segment-count math downstream, and a real
    /// stack refuses such MTUs at configuration time anyway.
    pub const fn mss(self, timestamps: bool) -> u64 {
        let opts = if timestamps { TCP_TIMESTAMP_OPTION } else { 0 };
        let headers = IP_HEADER + TCP_HEADER + opts;
        if self.0 <= headers + 1 {
            1
        } else {
            self.0 - headers
        }
    }

    /// The raw MTU value in bytes.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Size of the Ethernet frame carrying a full MTU, as stored in a kernel
    /// receive buffer: MTU + Ethernet header + FCS.
    pub const fn frame_bytes(self) -> u64 {
        self.0 + ETH_HEADER + ETH_FCS
    }

    /// Byte-times consumed on the wire by a frame with `ip_bytes` of IP
    /// packet: framing + preamble + IFG, with runt padding.
    pub const fn wire_bytes_for(ip_bytes: u64) -> u64 {
        let payload = if ip_bytes < ETH_MIN_PAYLOAD {
            ETH_MIN_PAYLOAD
        } else {
            ip_bytes
        };
        payload + ETH_HEADER + ETH_FCS + ETH_PREAMBLE_IFG
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mss_values() {
        // §3.5.1: "a 9-byte [9000] MTU (8948-byte MSS with options)".
        assert_eq!(Mtu::JUMBO_9000.mss(true), 8948);
        assert_eq!(Mtu::JUMBO_9000.mss(false), 8960);
        // §3.5.1 example: sender MSS 8960 vs receiver MSS 8948.
        assert_eq!(Mtu::STANDARD.mss(true), 1448);
        assert_eq!(Mtu::STANDARD.mss(false), 1460);
        assert_eq!(Mtu::TUNED_8160.mss(true), 8108);
        assert_eq!(Mtu::MAX_INTEL_16000.mss(true), 15948);
    }

    #[test]
    fn degenerate_mtus_clamp_instead_of_wrapping() {
        // MTU < 40 (or < 52 with timestamps) used to wrap around u64 (or
        // panic in debug builds); it must clamp to a 1-byte MSS instead.
        assert_eq!(Mtu(0).mss(false), 1);
        assert_eq!(Mtu(0).mss(true), 1);
        assert_eq!(Mtu(39).mss(false), 1);
        assert_eq!(Mtu(40).mss(false), 1); // exactly headers: no payload room
        assert_eq!(Mtu(41).mss(false), 1);
        assert_eq!(Mtu(42).mss(false), 2);
        assert_eq!(Mtu(51).mss(true), 1);
        assert_eq!(Mtu(52).mss(true), 1);
        assert_eq!(Mtu(54).mss(true), 2);
    }

    #[test]
    fn frame_fits_8k_block_at_8160() {
        // The whole point of the 8160 MTU: payload + TCP/IP headers +
        // Ethernet headers fit in a single 8192-byte block.
        assert!(Mtu::TUNED_8160.frame_bytes() <= 8192);
        assert!(Mtu::JUMBO_9000.frame_bytes() > 8192);
        assert!(Mtu::MAX_INTEL_16000.frame_bytes() <= 16384);
    }

    #[test]
    fn wire_bytes_includes_framing_and_pads_runts() {
        // Full standard frame: 1500 + 14 + 4 + 20 = 1538 byte-times.
        assert_eq!(Mtu::wire_bytes_for(1500), 1538);
        // A single-byte ping (41 bytes of IP) pads to the 46-byte minimum.
        assert_eq!(Mtu::wire_bytes_for(41), 46 + 14 + 4 + 20);
    }

    #[test]
    fn efficiency_grows_with_payload() {
        // Payload efficiency on the wire: payload over the byte-times of
        // its timestamped segment's frame.
        let ip = |payload: u64| payload + TCP_HEADER + TCP_TIMESTAMP_OPTION + IP_HEADER;
        let eff = |payload: u64| payload as f64 / Mtu::wire_bytes_for(ip(payload)) as f64;
        assert!(eff(8948) > eff(64));
        // Full jumbo segment is ~99% efficient on the wire.
        assert!(eff(8948) > 0.98, "{}", eff(8948));
        assert_eq!(ip(8948), 9000);
    }

    #[test]
    fn segment_overheads_with_and_without_timestamps() {
        // The timestamp option takes its bytes out of every segment.
        for mtu in [Mtu::STANDARD, Mtu::JUMBO_9000, Mtu::MAX_INTEL_16000] {
            assert_eq!(mtu.mss(false) - mtu.mss(true), TCP_TIMESTAMP_OPTION);
        }
    }
}
