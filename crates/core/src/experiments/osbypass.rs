//! The §5 projection: an OS-bypass protocol (RDMA over IP / RDDP) on the
//! same 10GbE hardware.
//!
//! "The authors' past experience with Myrinet and Quadrics leads them to
//! believe that an OS-bypass protocol, like RDMA over IP, implemented over
//! 10GbE would result in throughput approaching 8 Gb/s, end-to-end
//! latencies below 10 µs, and a CPU load approaching zero."
//!
//! The laboratory realizes the projection: direct data placement removes
//! the kernel stack traversals and both copies from the data path, an
//! onboard network processor handles the protocol, and the host's only
//! involvement is posting descriptors. What remains is the hardware: the
//! PCI-X bus (with a leaner, pipelined descriptor engine such an adapter
//! would carry) and the wire.

use crate::config::HostConfig;
use crate::experiments::b2b_lab;
use crate::lab::{self, App};
use crate::report::{Json, SweepReport};
use crate::sweep::{scenarios, SweepRunner};
use tengig_ethernet::Mtu;
use tengig_sim::Nanos;
use tengig_tools::Pktgen;

/// Per-descriptor PCI-X overhead of an RDMA-capable adapter: descriptors
/// are prefetched and completions batched, unlike the first-generation
/// 82597EX's per-packet doorbell/writeback cycle.
pub const RDMA_PKT_OVERHEAD: Nanos = Nanos::from_nanos(500);

/// Result of the OS-bypass projection.
#[derive(Debug, Clone, Copy)]
pub struct OsBypassResult {
    /// Unidirectional data throughput.
    pub gbps: f64,
    /// One-way small-message latency.
    pub latency: Nanos,
    /// Host CPU load during the transfer.
    pub cpu_load: f64,
}

/// The projected host: a WAN-class Xeon box whose adapter carries the
/// protocol engine.
fn rdma_host(mtu: Mtu) -> HostConfig {
    let mut cfg = HostConfig {
        hw: tengig_hw::HostSpec::wan_endpoint(),
        nic: tengig_nic::NicSpec::intel_pro_10gbe(),
        sysctls: tengig_tcp::Sysctls::linux24_defaults().with_mtu(mtu),
    };
    cfg.hw.pci.packet_overhead = RDMA_PKT_OVERHEAD;
    cfg.hw.pci.burst_overhead = Nanos::from_nanos(400);
    // The host never touches payload: no coalescing wait needed either —
    // completions are polled by the (tiny) user-space library.
    cfg.nic = cfg.nic.with_coalescing(Nanos::ZERO);
    cfg
}

/// Run the throughput projection: a zero-copy, kernel-bypass stream of
/// MTU-sized transfers (modeled on the pktgen path — single DMA, no
/// copies — which is exactly what direct data placement leaves).
pub fn throughput(mtu: Mtu, count: u64) -> OsBypassResult {
    throughput_seeded(mtu, count, 5)
}

/// [`throughput`] with an explicit RNG seed (used by the sweep runner's
/// per-scenario seeding).
pub fn throughput_seeded(mtu: Mtu, count: u64, seed: u64) -> OsBypassResult {
    let cfg = rdma_host(mtu);
    let payload = tengig_tcp::Datagram::max_payload(mtu.get());
    let (mut lab, mut eng) = b2b_lab(cfg, App::Pktgen(Pktgen::new(payload, count)), seed);
    crate::experiments::run_to_completion(&mut lab, &mut eng);
    let App::Pktgen(pg) = &lab.flows[0].app else {
        unreachable!()
    };
    OsBypassResult {
        gbps: pg.throughput().gbps(),
        latency: latency(mtu),
        cpu_load: lab::cpu_load(&lab, 0, 0),
    }
}

/// One-way small-message latency of the bypass path: descriptor post →
/// PCI-X → wire → PCI-X → polled completion. No syscall, no interrupt, no
/// stack, no copy.
pub fn latency(mtu: Mtu) -> Nanos {
    let cfg = rdma_host(mtu);
    let post = Nanos::from_nanos(300); // user-space descriptor write
    let poll = Nanos::from_nanos(300); // completion-queue poll hit
    let small = 64u64;
    let pci = cfg.hw.pci.packet_transfer_time(small);
    let wire = cfg.nic.serialize_time(Mtu::wire_bytes_for(small)) + Nanos::from_nanos(50);
    post + pci + wire + pci + poll
}

/// Sweep the OS-bypass projection over MTUs on the deterministic sweep
/// runner. Returns the per-point results plus the machine-readable
/// [`SweepReport`].
pub fn mtu_sweep_report(
    mtus: &[Mtu],
    count: u64,
    master_seed: u64,
    runner: SweepRunner,
) -> (Vec<OsBypassResult>, SweepReport) {
    let grid = scenarios(master_seed, mtus.iter().copied(), |m| {
        format!("mtu={}", m.get())
    });
    let results = runner
        .run(&grid, |sc| throughput_seeded(sc.input, count, sc.seed))
        .expect("osbypass sweep scenario panicked");
    let mut report = SweepReport::new("osbypass/mtu_sweep", master_seed);
    for (sc, r) in grid.iter().zip(&results) {
        report.push_row(
            sc.index,
            sc.label.clone(),
            sc.seed,
            vec![
                ("mtu".to_string(), Json::U64(sc.input.get())),
                ("gbps".to_string(), Json::F64(r.gbps)),
                (
                    "latency_us".to_string(),
                    Json::F64(r.latency.as_micros_f64()),
                ),
                ("cpu_load".to_string(), Json::F64(r.cpu_load)),
            ],
        );
    }
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tengig_sim::rate_of;

    #[test]
    fn projection_approaches_8_gbps() {
        // §5's claim, at the adapter's largest MTU.
        let r = throughput(Mtu::MAX_INTEL_16000, 3_000);
        assert!(
            r.gbps > 6.5,
            "OS-bypass throughput {} should approach 8 Gb/s",
            r.gbps
        );
        assert!(r.gbps < 10.0);
        // And it comfortably beats the best TCP number (4.11).
        assert!(r.gbps > 4.5);
    }

    #[test]
    fn latency_below_10us() {
        let l = latency(Mtu::JUMBO_9000);
        assert!(
            l < Nanos::from_micros(10),
            "OS-bypass one-way latency {} must be below 10 µs",
            l
        );
        assert!(l > Nanos::from_micros(1), "but not magic: {l}");
    }

    #[test]
    fn cpu_load_approaches_zero() {
        let r = throughput(Mtu::JUMBO_9000, 3_000);
        assert!(
            r.cpu_load < 0.2,
            "OS-bypass CPU load {} should approach zero",
            r.cpu_load
        );
    }

    #[test]
    fn bus_math_agrees_with_simulation() {
        // The sustained rate the bus-level math supports: one datagram's
        // payload per PCI-X transfer of its frame.
        let mtu = Mtu::JUMBO_9000;
        let sim = throughput(mtu, 3_000).gbps;
        let pci = rdma_host(mtu).hw.pci.packet_transfer_time(mtu.get() + 18);
        let ceiling = rate_of(tengig_tcp::Datagram::max_payload(mtu.get()), pci).gbps();
        assert!(
            (sim / ceiling - 1.0).abs() < 0.15,
            "sim {sim} vs analytic ceiling {ceiling}"
        );
    }
}
