//! Per-host runtime state: the resource servers and cost arithmetic of one
//! machine in the laboratory.

use crate::config::HostConfig;
use std::collections::VecDeque;
use tengig_ethernet::{ETH_FCS, ETH_HEADER};
use tengig_hw::DiskModel;
use tengig_nic::Coalescer;
use tengig_sim::{FifoServer, Nanos, ServerBank};
use tengig_tcp::Segment;

/// A TCP segment sitting in a host's receive ring awaiting an interrupt.
#[derive(Debug, Clone)]
pub struct RxFrame {
    /// Flow index in the lab.
    pub flow: usize,
    /// Endpoint (0 or 1) the segment is addressed to.
    pub ep: usize,
    /// The segment.
    pub seg: Segment,
}

/// Runtime state of one host.
#[derive(Debug)]
pub struct HostRt {
    /// Full configuration (hardware + NIC + sysctls).
    pub cfg: HostConfig,
    /// CPU bank (size = usable cores under the booted kernel).
    pub cpu: ServerBank,
    /// The shared memory bus.
    pub membus: FifoServer,
    /// The PCI-X segment the NIC sits on.
    pub pci: FifoServer,
    /// Receive-interrupt coalescing state.
    pub coalescer: Coalescer,
    /// Frames DMA-complete, awaiting the interrupt.
    pub rx_pending: VecDeque<RxFrame>,
    /// Corrupted frames the NIC's MAC discarded on a bad FCS (before any
    /// DMA), i.e. the receive side of the corruption impairment.
    pub rx_crc_drops: u64,
    /// Disk bank, when this host is a storage endpoint of the
    /// disk→NIC→WAN→NIC→disk pipeline (see [`Lab::attach_disk`]).
    ///
    /// [`Lab::attach_disk`]: crate::lab::Lab::attach_disk
    pub disk: Option<DiskModel>,
}

impl HostRt {
    /// Instantiate runtime state for a configuration.
    pub fn new(cfg: HostConfig) -> Self {
        let cores = cfg.hw.cpu.usable_cores();
        HostRt {
            cfg,
            cpu: ServerBank::new(cores),
            membus: FifoServer::new(),
            pci: FifoServer::new(),
            coalescer: Coalescer::new(cfg.nic.rx_coalesce_delay, cfg.nic.rx_coalesce_max_frames),
            rx_pending: VecDeque::new(),
            rx_crc_drops: 0,
            disk: None,
        }
    }

    /// The CPU that services hardware interrupts (the 2.4 SMP kernel pins
    /// them all to CPU 0).
    pub fn irq_cpu(&self) -> usize {
        0
    }

    /// The CPU an application thread for `flow` runs on. The 2.4
    /// scheduler's wake affinity pulls a single reader onto the CPU its
    /// data (and the NIC interrupt) lives on — CPU 0 — which is exactly
    /// why the second CPU of an SMP box buys a single flow nothing while
    /// the SMP kernel's locking still taxes it. Additional concurrent
    /// flows spread across the remaining CPUs.
    pub fn app_cpu(&self, flow: usize) -> usize {
        flow % self.cpu.len()
    }

    /// Ethernet frame bytes for a segment (IP packet + header + FCS).
    pub fn frame_bytes(seg: &Segment) -> u64 {
        seg.ip_bytes() + ETH_HEADER + ETH_FCS
    }

    /// CPU cost of emitting a segment: stack traversal plus an optional
    /// software checksum. The user→skb copy is *not* here — it is paid at
    /// `write()` time (`copy_from_user` in `tcp_sendmsg`), pipelined ahead
    /// of the ACK clock; see [`HostRt::write_cpu_cost`].
    ///
    /// With TCP segmentation offload (§3.3: "TSO allows the transmitting
    /// system to use a large (64 KB) virtual MTU; the card then re-segments
    /// the payload"), one stack traversal covers a whole virtual segment,
    /// so the per-frame stack cost amortizes over the TSO batch.
    pub fn tx_cpu_cost(&self, seg: &Segment) -> Nanos {
        let cpu = &self.cfg.hw.cpu;
        if seg.is_pure_ack() {
            return cpu.stack_time(cpu.costs.tx_segment).scale(0.5);
        }
        let mut c = cpu.tx_segment_time(seg.ts.is_some());
        if self.cfg.nic.tso && seg.len > 0 {
            let batch = (self.cfg.nic.tso_max_bytes / seg.len).clamp(1, 44);
            c = c.scale(1.0 / batch as f64) + Nanos::from_nanos(200); // per-frame DMA setup
        }
        if !self.cfg.nic.tx_csum_offload {
            c += cpu.copy_time(seg.len); // checksum pass over the payload
        }
        c
    }

    /// CPU cost of receive-side stack processing for one segment
    /// (softirq; excludes the interrupt entry, which amortizes over the
    /// coalesced batch).
    pub fn rx_cpu_cost(&self, seg: &Segment) -> Nanos {
        let cpu = &self.cfg.hw.cpu;
        if seg.is_pure_ack() {
            return cpu.stack_time(cpu.costs.ack_process);
        }
        let mut c = cpu.rx_segment_time(seg.ts.is_some())
            + self.cfg.hw.alloc.alloc_cost(Self::frame_bytes(seg));
        if self.cfg.sysctls.napi {
            // §3.3: NAPI moves per-packet queueing out of the interrupt
            // context — "less time spent in an interrupt context and more
            // efficient processing of packets".
            c = c.saturating_sub(cpu.plain_time(Nanos::from_nanos(400)));
        }
        if !self.cfg.nic.rx_csum_offload {
            c += cpu.copy_time(seg.len);
        }
        c
    }

    /// CPU cost of an application read delivering `bytes` (syscall +
    /// wakeup + copy to user space).
    pub fn read_cpu_cost(&self, bytes: u64) -> Nanos {
        let cpu = &self.cfg.hw.cpu;
        cpu.plain_time(cpu.costs.syscall)
            + cpu.plain_time(cpu.costs.sched_wakeup)
            + cpu.copy_time(bytes)
    }

    /// CPU cost of an application write: syscall plus the user→skb copy of
    /// the written bytes (`copy_from_user`).
    pub fn write_cpu_cost(&self, bytes: u64) -> Nanos {
        let cpu = &self.cfg.hw.cpu;
        cpu.plain_time(cpu.costs.syscall) + cpu.copy_time(bytes)
    }

    /// Memory-bus occupancy of a copy of `bytes` between user and kernel
    /// space (the write-time `copy_from_user`, the read-time copy to
    /// user): each byte is read once and written once.
    pub fn copy_bus_time(&self, bytes: u64) -> Nanos {
        self.cfg.hw.mem.bus_time(2 * bytes)
    }

    /// Memory-bus occupancy of the NIC's DMA of one frame, in either
    /// direction (the transmit read, the receive write).
    pub fn dma_bus_time(&self, frame_bytes: u64) -> Nanos {
        self.cfg.hw.mem.bus_time(frame_bytes)
    }

    /// PCI-X occupancy for one frame.
    pub fn pci_time(&self, frame_bytes: u64) -> Nanos {
        self.cfg.hw.pci.packet_transfer_time(frame_bytes)
    }

    /// Hard-interrupt entry cost (per interrupt, not per frame).
    pub fn irq_cost(&self) -> Nanos {
        self.cfg.hw.cpu.plain_time(self.cfg.hw.cpu.costs.irq_entry)
    }

    /// Busy time delivered by the hottest CPU as of `now` — the basis of
    /// the `/proc/loadavg` figure.
    pub fn hottest_cpu_busy(&self, now: Nanos) -> Nanos {
        (0..self.cpu.len())
            .map(|i| {
                let s = self.cpu.server(i);
                s.busy_total().saturating_sub(s.backlog(now))
            })
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Total busy time ever *admitted* to the hottest CPU. Unlike
    /// [`HostRt::hottest_cpu_busy`] this is purely event-driven — it only
    /// changes when work is admitted, never as wall-of-sim time elapses —
    /// so a dormant grid shard's value is exactly frozen, which is what
    /// makes it safe to sample from a shard's observability (see
    /// [`crate::lab::grid`] on merge invariance).
    pub fn hottest_cpu_busy_total(&self) -> Nanos {
        (0..self.cpu.len())
            .map(|i| self.cpu.server(i).busy_total())
            .max()
            .unwrap_or(Nanos::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LadderRung;
    use tengig_ethernet::Mtu;
    use tengig_hw::KernelMode;
    use tengig_tcp::{Flags, Timestamps};

    fn data_seg(len: u64) -> Segment {
        Segment {
            seq: 0,
            len,
            ack: 0,
            wnd: 65535,
            flags: Flags {
                ack: true,
                psh: true,
            },
            ts: Some(Timestamps {
                tsval: Nanos(1),
                tsecr: Nanos(0),
            }),
            retransmit: false,
        }
    }

    #[test]
    fn cpu_layout_follows_kernel_mode() {
        let smp = HostRt::new(LadderRung::Stock.pe2650_config(Mtu::STANDARD));
        assert_eq!(smp.cpu.len(), 2);
        assert_eq!(smp.irq_cpu(), 0);
        // A single flow's reader shares CPU 0 with the interrupts (wake
        // affinity); a second concurrent flow lands on CPU 1.
        assert_eq!(smp.app_cpu(0), 0);
        assert_eq!(smp.app_cpu(1), 1);
        let up = HostRt::new(LadderRung::Uniprocessor.pe2650_config(Mtu::STANDARD));
        assert_eq!(up.cpu.len(), 1);
        assert_eq!(up.app_cpu(3), 0);
        assert_eq!(up.cfg.hw.cpu.kernel, KernelMode::Uniprocessor);
    }

    #[test]
    fn rx_costs_exceed_tx_costs() {
        // The paper's premise: "the inherent complexity of the TCP receive
        // path (relative to the transmit path)".
        let h = HostRt::new(LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160));
        let seg = data_seg(8108);
        assert!(h.rx_cpu_cost(&seg) > Nanos::ZERO);
        assert!(h.tx_cpu_cost(&seg) > Nanos::ZERO);
        assert!(h.rx_cpu_cost(&seg) > h.tx_cpu_cost(&seg) / 2);
    }

    #[test]
    fn ack_costs_are_small() {
        let h = HostRt::new(LadderRung::Stock.pe2650_config(Mtu::STANDARD));
        let ack = Segment {
            len: 0,
            flags: Flags {
                ack: true,
                psh: false,
            },
            ..data_seg(0)
        };
        assert!(h.rx_cpu_cost(&ack) < h.rx_cpu_cost(&data_seg(1448)));
        assert!(h.tx_cpu_cost(&ack) < h.tx_cpu_cost(&data_seg(1448)));
    }

    #[test]
    fn bus_times_scale_with_payload() {
        let h = HostRt::new(LadderRung::Stock.pe2650_config(Mtu::JUMBO_9000));
        let frame = |len| HostRt::frame_bytes(&data_seg(len));
        assert!(h.dma_bus_time(frame(8948)) > h.dma_bus_time(frame(1448)));
        assert!(h.copy_bus_time(8948) > h.copy_bus_time(1448));
    }

    #[test]
    fn frame_bytes_arithmetic() {
        let seg = data_seg(8948);
        // 8948 + 40 headers + 12 ts + 18 ethernet = 9018.
        assert_eq!(HostRt::frame_bytes(&seg), 9018);
    }
}
