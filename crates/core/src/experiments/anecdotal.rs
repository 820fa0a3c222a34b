//! The §3.4 anecdotal results: the Intel E7505 loaner systems and the
//! quad-processor Itanium-II aggregation.

use super::multiflow::{aggregate, Direction, MultiflowResult};
use super::throughput::nttcp_point;
use crate::config::{HostConfig, TuningStep};
use crate::report::{Json, SweepReport};
use crate::sweep::{scenarios, SweepRunner};
use tengig_hw::HostSpec;
use tengig_nic::NicSpec;
use tengig_sim::Nanos;
use tengig_tcp::Sysctls;
use tengig_tools::NttcpResult;

/// The E7505 loaners "essentially out of the box": jumbo frames and, as
/// the paper notes was *required*, TCP timestamps disabled.
pub fn e7505_config() -> HostConfig {
    HostConfig {
        hw: HostSpec::e7505(),
        nic: NicSpec::intel_pro_10gbe(),
        sysctls: Sysctls::linux24_defaults()
            .with_mtu(tengig_ethernet::Mtu::JUMBO_9000)
            .with_buffers(256 * 1024),
    }
    .tuned(TuningStep::Timestamps(false))
}

/// Back-to-back run on the E7505 loaners (paper: 4.64 Gb/s).
pub fn e7505_out_of_box(count: u64) -> NttcpResult {
    let cfg = e7505_config();
    nttcp_point(cfg, cfg.sysctls.mss(), count, 21)
}

/// The same run with timestamps enabled — "enabling timestamps reduced
/// throughput by approximately 10%" because on these faster hosts the CPU
/// is close to the binding resource.
pub fn e7505_with_timestamps(count: u64) -> NttcpResult {
    let cfg = e7505_config().tuned(TuningStep::Timestamps(true));
    nttcp_point(cfg, cfg.sysctls.mss(), count, 21)
}

/// The quad Itanium-II aggregation: GbE clients through the switch into
/// one 10GbE adapter (paper: 7.2 Gb/s unidirectional).
pub fn itanium_aggregation(peers: usize, warmup: Nanos, window: Nanos) -> MultiflowResult {
    let tengbe = HostConfig {
        hw: HostSpec::itanium2_quad(),
        nic: NicSpec::intel_pro_10gbe(),
        sysctls: Sysctls::linux24_defaults()
            .with_mtu(tengig_ethernet::Mtu::JUMBO_9000)
            .with_buffers(512 * 1024),
    };
    aggregate(tengbe, peers, Direction::IntoTenGbe, warmup, window, 99)
}

/// Sweep the E7505 anecdote as a two-point grid (timestamps off → on) on
/// the deterministic sweep runner, reporting the ~10% timestamp penalty
/// the paper describes.
pub fn e7505_sweep_report(
    count: u64,
    master_seed: u64,
    runner: SweepRunner,
) -> (Vec<tengig_tools::NttcpResult>, SweepReport) {
    let grid = scenarios(master_seed, [false, true], |&ts| {
        format!("timestamps={}", if ts { "on" } else { "off" })
    });
    let results = runner
        .run(&grid, |sc| {
            let cfg = e7505_config().tuned(TuningStep::Timestamps(sc.input));
            nttcp_point(cfg, cfg.sysctls.mss(), count, sc.seed)
        })
        .expect("e7505 sweep scenario panicked");
    let mut report = SweepReport::new("anecdotal/e7505_timestamps", master_seed);
    for (sc, r) in grid.iter().zip(&results) {
        report.push_row(
            sc.index,
            sc.label.clone(),
            sc.seed,
            vec![
                ("timestamps".to_string(), Json::Bool(sc.input)),
                ("gbps".to_string(), Json::F64(r.throughput.gbps())),
                ("rx_cpu_load".to_string(), Json::F64(r.rx_cpu_load)),
            ],
        );
    }
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LadderRung;
    use tengig_ethernet::Mtu;

    #[test]
    fn e7505_beats_tuned_pe2650() {
        // §3.4: 4.64 Gb/s out of the box vs the heavily optimized
        // PE2650's 4.11 — "better than 13%".
        let e7 = e7505_out_of_box(2_000).throughput.gbps();
        let pe = nttcp_point(
            LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160),
            8108,
            2_000,
            7,
        )
        .throughput
        .gbps();
        assert!(e7 > pe, "e7505 {e7} vs pe2650 {pe}");
        assert!((4.0..5.3).contains(&e7), "e7505 {e7}");
    }

    #[test]
    fn timestamps_cost_several_percent_on_e7505() {
        let without = e7505_out_of_box(2_000).throughput.gbps();
        let with = e7505_with_timestamps(2_000).throughput.gbps();
        let loss = 1.0 - with / without;
        assert!(loss > 0.0, "timestamps should cost something: {loss}");
        assert!(loss < 0.25, "but not this much: {loss}");
    }

    #[test]
    fn itanium_aggregates_well_past_a_pe2650() {
        let w = Nanos::from_millis(25);
        let it = itanium_aggregation(8, w, w);
        assert!(
            it.aggregate_gbps > 4.8,
            "itanium aggregate {} should clear a PE2650's ceiling",
            it.aggregate_gbps
        );
    }
}
