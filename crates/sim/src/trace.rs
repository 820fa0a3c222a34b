//! Packet-path probes and the per-host flight recorder — what is left of
//! the laboratory's MAGNET analog.
//!
//! MAGNET (Gardner et al., CCGrid'03) let the paper's authors trace the path
//! of individual packets through the Linux TCP stack. Here the lab's probes
//! emit [`TraceEvent`]s tagged with a [`Stage`] into each host's [`Tracer`],
//! a bounded ring of the most recent events. The rings are armed only with
//! a sanitizer, always at full detail, and a violation panics with their
//! [`FlightDump`]: the breach comes with the last events of every host.
//! A disabled tracer (the default) records nothing and costs one compare
//! per probe.

use crate::time::Nanos;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;

/// A stage of the end-to-end path a packet can be observed at.
///
/// These mirror the stations of the simulated pipeline; MAGNET's kernel
/// tracepoints map onto the TX/RX stack stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Application wrote data into the socket.
    AppWrite,
    /// TCP/IP transmit processing (segmentation, headers, checksum).
    TxStack,
    /// DMA descriptor + payload crossing the I/O bus outbound.
    TxDma,
    /// Frame serialized onto the wire.
    Wire,
    /// Frame traversed a switch.
    Switch,
    /// DMA into host memory on the receive side.
    RxDma,
    /// Interrupt raised (possibly after a coalescing delay).
    Interrupt,
    /// TCP/IP receive processing.
    RxStack,
    /// Kernel → user copy on the receive side.
    RxCopy,
    /// Application read the data.
    AppRead,
    /// Packet dropped (queue overflow, loss model, allocation failure).
    Drop,
    /// Retransmission triggered (timeout or fast retransmit).
    Retransmit,
    /// ACK generated.
    Ack,
    /// Retransmission timer fired.
    TimerRto,
    /// Delayed-ACK timer fired.
    TimerDelack,
    /// Frame dropped by the impairment layer (burst loss or link flap).
    ImpairDrop,
    /// Duplicate frame copy minted by the impairment layer.
    ImpairDup,
    /// Frame delayed by the reordering impairment.
    ImpairReorder,
    /// Corrupted frame discarded by the receiving NIC (bad FCS).
    ImpairCorrupt,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::AppWrite => "app-write",
            Stage::TxStack => "tx-stack",
            Stage::TxDma => "tx-dma",
            Stage::Wire => "wire",
            Stage::Switch => "switch",
            Stage::RxDma => "rx-dma",
            Stage::Interrupt => "interrupt",
            Stage::RxStack => "rx-stack",
            Stage::RxCopy => "rx-copy",
            Stage::AppRead => "app-read",
            Stage::Drop => "drop",
            Stage::Retransmit => "retransmit",
            Stage::Ack => "ack",
            Stage::TimerRto => "timer-rto",
            Stage::TimerDelack => "timer-delack",
            Stage::ImpairDrop => "impair-drop",
            Stage::ImpairDup => "impair-dup",
            Stage::ImpairReorder => "impair-reorder",
            Stage::ImpairCorrupt => "impair-corrupt",
        };
        f.write_str(s)
    }
}

/// One observed packet event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened.
    pub at: Nanos,
    /// Which pipeline stage observed it.
    pub stage: Stage,
    /// Packet/segment identifier (sequence number or generator index).
    pub packet: u64,
    /// Payload or frame size in bytes, when meaningful.
    pub bytes: u64,
    /// How long the stage took (service time), when meaningful.
    pub cost: Nanos,
}

/// One host's flight recorder: a ring of its most recent trace events.
/// A tracer with no capacity (the default) is off and records nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    capacity: usize,
    ring: VecDeque<TraceEvent>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer recording every event, keeping the most recent `capacity`.
    pub fn full(capacity: usize) -> Self {
        Tracer {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
        }
    }

    /// Whether the tracer records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Record an event, evicting the oldest once the ring is full.
    #[inline]
    pub fn emit(&mut self, at: Nanos, stage: Stage, packet: u64, bytes: u64, cost: Nanos) {
        if !self.is_enabled() {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(TraceEvent {
            at,
            stage,
            packet,
            bytes,
            cost,
        });
    }

    /// The recorded events, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }
}

/// A flight-recorder dump: the recent [`TraceEvent`] rings of every host,
/// captured when the sanitizer fires, rendered as text for the panic
/// message.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightDump {
    /// Per-host `(host index, recent events oldest-first)`.
    pub hosts: Vec<(usize, Vec<TraceEvent>)>,
}

impl FlightDump {
    /// Whether no host recorded any events (tracers disabled or idle).
    pub fn is_empty(&self) -> bool {
        self.hosts.iter().all(|(_, evs)| evs.is_empty())
    }

    /// Total events across all hosts.
    pub fn len(&self) -> usize {
        self.hosts.iter().map(|(_, evs)| evs.len()).sum()
    }

    /// Human-readable rendering (the form embedded in panic messages).
    pub fn text(&self) -> String {
        if self.is_empty() {
            return "== flight recorder == (no trace events recorded)\n".to_string();
        }
        let mut out = String::from("== flight recorder ==\n");
        for (host, evs) in &self.hosts {
            let _ = writeln!(out, "host {host}: last {} trace events", evs.len());
            for e in evs {
                let _ = writeln!(
                    out,
                    "  [{:>14}] {:<11} packet={:<12} bytes={:<8} cost={}",
                    e.at.as_nanos(),
                    e.stage.to_string(),
                    e.packet,
                    e.bytes,
                    e.cost
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.emit(Nanos(1), Stage::Wire, 1, 1500, Nanos(1200));
        assert_eq!(t.recent().count(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn flight_dump_renders_text() {
        let dump = FlightDump {
            hosts: vec![(
                0,
                vec![TraceEvent {
                    at: Nanos(1234),
                    stage: Stage::TxStack,
                    packet: 42,
                    bytes: 8948,
                    cost: Nanos(500),
                }],
            )],
        };
        let text = dump.text();
        assert!(text.contains("flight recorder"));
        assert!(text.contains("host 0: last 1 trace events"));
        assert!(text.contains("tx-stack"));
        assert!(text.contains("packet=42"));
        assert!(!dump.is_empty());
        assert_eq!(dump.len(), 1);
        assert!(FlightDump::default().is_empty());
        assert!(FlightDump::default().text().contains("no trace events"));
    }
}
