//! Simulated TCP segments.

use tengig_ethernet::{IP_HEADER, TCP_HEADER, TCP_TIMESTAMP_OPTION};
use tengig_sim::Nanos;

/// Control flags (only the ones the laboratory exercises).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Acknowledgment field is valid (always true after establishment).
    pub ack: bool,
    /// Push: segment closes an application write.
    pub psh: bool,
    /// Sender has finished its stream.
    pub fin: bool,
}

/// The RFC 1323 timestamp option carried by a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timestamps {
    /// Sender's clock value at transmission.
    pub tsval: Nanos,
    /// Echo of the latest timestamp received from the peer.
    pub tsecr: Nanos,
}

/// A TCP segment as it travels through the simulated network.
///
/// Sequence/ack values are absolute 64-bit stream offsets, which cannot
/// wrap within any simulated run; sizes are byte counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Absolute stream offset of the first payload byte.
    pub seq: u64,
    /// Payload length in bytes (0 for a pure ACK).
    pub len: u64,
    /// Cumulative acknowledgment: all bytes before this offset received.
    pub ack: u64,
    /// Advertised receive window in bytes (post-scaling).
    pub wnd: u64,
    /// Control flags.
    pub flags: Flags,
    /// Timestamp option, when enabled on the connection.
    pub ts: Option<Timestamps>,
    /// True if this segment is a retransmission.
    pub retransmit: bool,
}

impl Segment {
    /// Stream offset one past the last payload byte.
    pub fn end_seq(&self) -> u64 {
        self.seq + self.len
    }

    /// Size of this segment as an IP packet (headers + options + payload).
    pub fn ip_bytes(&self) -> u64 {
        let opts = if self.ts.is_some() {
            TCP_TIMESTAMP_OPTION
        } else {
            0
        };
        IP_HEADER + TCP_HEADER + opts + self.len
    }

    /// Whether this is a pure acknowledgment (no payload, no FIN).
    pub fn is_pure_ack(&self) -> bool {
        self.len == 0 && !self.flags.fin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(seq: u64, len: u64) -> Segment {
        Segment {
            seq,
            len,
            ack: 0,
            wnd: 65535,
            flags: Flags {
                ack: true,
                ..Flags::default()
            },
            ts: None,
            retransmit: false,
        }
    }

    #[test]
    fn sizes() {
        let s = seg(0, 1448);
        assert_eq!(s.end_seq(), 1448);
        assert_eq!(s.ip_bytes(), 1488);
        let with_ts = Segment {
            ts: Some(Timestamps {
                tsval: Nanos(1),
                tsecr: Nanos(0),
            }),
            ..s
        };
        assert_eq!(
            with_ts.ip_bytes(),
            1500,
            "1448 MSS + 40 headers + 12 ts = full 1500 MTU"
        );
    }

    #[test]
    fn pure_ack_detection() {
        assert!(seg(0, 0).is_pure_ack());
        assert!(!seg(0, 1).is_pure_ack());
        let fin = Segment {
            flags: Flags {
                fin: true,
                ack: true,
                psh: false,
            },
            ..seg(0, 0)
        };
        assert!(!fin.is_pure_ack());
    }
}
