//! Sweep-runner integration tests: the determinism contract (byte-identical
//! reports at any thread count) and panic containment, exercised through a
//! real paper experiment (the Fig. 3/4 NTTCP payload sweep).

use tengig::experiments::throughput::{throughput_sweep_report, MASTER_SEED};
use tengig::{scenarios, Json, LadderRung, Scenario, SweepReport, SweepRunner};
use tengig_ethernet::Mtu;
use tengig_sim::{Nanos, ObsConfig, SimRng};

/// Reduced packet count: sweep shapes converge well before the paper's
/// 32,768 and the suite must stay quick.
const QUICK: u64 = 600;

/// Run the Fig. 3-style stock-TCP payload sweep on a runner with the given
/// thread count and serialize the report.
fn fig3_sweep_bytes(threads: usize) -> String {
    let cfg = LadderRung::Stock.pe2650_config(Mtu::JUMBO_9000);
    // Eight payload scenarios spanning the figure's x axis.
    let payloads = [256u64, 512, 1024, 2048, 4096, 6144, 8192, 8948];
    let (series, report, sidecar) = throughput_sweep_report(
        cfg,
        "9000MTU,stock",
        &payloads,
        QUICK,
        MASTER_SEED,
        SweepRunner::new(threads),
        None,
    );
    assert!(sidecar.is_none(), "no sidecar without obs");
    assert_eq!(series.points.len(), payloads.len());
    assert_eq!(report.rows.len(), payloads.len());
    report.to_jsonl()
}

#[test]
fn paper_sweep_is_byte_identical_across_thread_counts() {
    // The acceptance contract: ≥ 8 scenarios, threads=1 vs threads=4 →
    // byte-identical serialized SweepReports.
    let serial = fig3_sweep_bytes(1);
    let parallel = fig3_sweep_bytes(4);
    assert_eq!(serial, parallel, "sweep must not depend on thread count");

    // And the report is well-formed JSONL: header + one line per scenario.
    let lines: Vec<&str> = serial.lines().collect();
    assert_eq!(lines.len(), 9);
    assert!(lines[0].starts_with(r#"{"sweep":"9000MTU,stock","master_seed":"#));
    for (i, line) in lines[1..].iter().enumerate() {
        assert!(
            line.starts_with(&format!(r#"{{"index":{i},"#)),
            "row {i} out of order: {line}"
        );
        assert!(
            line.contains(r#""mbps":"#),
            "row {i} missing measurement: {line}"
        );
    }
}

/// The metrics side-channel obeys the same contract as the report it rides
/// alongside: byte-identical at any thread count, and the primary report's
/// bytes are untouched by enabling it. (The timelines sample
/// deterministic state, so a back-to-back sweep's sidecar is
/// legitimately seed-stable.)
#[test]
fn metrics_sidecar_is_byte_identical_across_thread_counts() {
    let cfg = LadderRung::Stock.pe2650_config(Mtu::JUMBO_9000);
    let payloads = [512u64, 1448, 8948];
    let obs = ObsConfig {
        sample_interval: Nanos::from_micros(50),
        ..ObsConfig::default()
    };
    let sweep = |threads: usize, master_seed: u64| {
        let (_, report, sidecar) = throughput_sweep_report(
            cfg,
            "obs",
            &payloads,
            QUICK,
            master_seed,
            SweepRunner::new(threads),
            Some(&obs),
        );
        let sidecar = sidecar.expect("obs on yields a sidecar");
        (report.to_jsonl(), sidecar.concatenated())
    };
    let (report_1, sidecar_1) = sweep(1, MASTER_SEED);
    let (report_4, sidecar_4) = sweep(4, MASTER_SEED);
    assert_eq!(sidecar_1, sidecar_4, "sidecar must not depend on threads");
    assert_eq!(report_1, report_4);

    // Obs on vs off: the primary report bytes are identical.
    let (_, plain, _) = throughput_sweep_report(
        cfg,
        "obs",
        &payloads,
        QUICK,
        MASTER_SEED,
        SweepRunner::new(4),
        None,
    );
    assert_eq!(plain.to_jsonl(), report_4, "obs must be a pure observer");

    // The sidecar itself is well-formed: one timelines blob per scenario,
    // each parseable back into the exact same bytes.
    let (_, _, sidecar) = throughput_sweep_report(
        cfg,
        "obs",
        &payloads,
        QUICK,
        MASTER_SEED,
        SweepRunner::new(2),
        Some(&obs),
    );
    let sidecar = sidecar.expect("obs on yields a sidecar");
    assert_eq!(sidecar.runs.len(), payloads.len());
    for (_, _, jsonl) in &sidecar.runs {
        let tl = tengig_sim::Timelines::from_jsonl(jsonl).expect("sidecar parses");
        assert_eq!(&tl.to_jsonl(), jsonl);
    }
}

#[test]
fn scenario_seeds_follow_the_master_seed_discipline() {
    let grid = scenarios(77, 0..10u64, |i| format!("s{i}"));
    for (i, sc) in grid.iter().enumerate() {
        assert_eq!(sc.seed, SimRng::scenario_seed(77, i as u64));
    }
    // A different master seed moves every scenario seed.
    let other = scenarios(78, 0..10u64, |i| format!("s{i}"));
    assert!(grid.iter().zip(&other).all(|(a, b)| a.seed != b.seed));
}

#[test]
fn runner_output_is_keyed_by_index_not_arrival_order() {
    // Scenarios with wildly uneven runtimes: late indices finish first on
    // a multi-thread pool, but the output order must not care.
    let grid = scenarios(5, (0..16u64).rev(), |i| format!("work={i}"));
    let run = |threads: usize| {
        SweepRunner::new(threads)
            .run(&grid, |sc| {
                // Busy work proportional to the input so completion order
                // differs from index order.
                let mut acc = sc.seed;
                for _ in 0..sc.input * 10_000 {
                    acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                }
                (sc.index, acc)
            })
            .expect("no panics")
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel);
    for (i, (idx, _)) in serial.iter().enumerate() {
        assert_eq!(*idx, i);
    }
}

#[test]
fn panicking_scenario_surfaces_as_error_without_deadlock() {
    let grid: Vec<Scenario<u64>> = scenarios(9, 0..12u64, |i| format!("p{i}"));
    let err = SweepRunner::new(4)
        .run(&grid, |sc| {
            if sc.input == 5 {
                panic!("scenario {} exploded", sc.input);
            }
            sc.input * 2
        })
        .expect_err("the panic must surface as an error");
    assert_eq!(err.index, 5);
    assert_eq!(err.label, "p5");
    assert!(
        err.message.contains("exploded"),
        "payload lost: {}",
        err.message
    );
    // The runner is still usable afterwards (the pool did not wedge).
    let ok = SweepRunner::new(4)
        .run(&grid, |sc| sc.input)
        .expect("clean run");
    assert_eq!(ok.len(), 12);
}

#[test]
fn report_serialization_is_deterministic_for_equal_content() {
    let build = || {
        let mut r = SweepReport::new("demo", 3);
        for i in 0..4u64 {
            r.push_row(
                i as usize,
                format!("row{i}"),
                SimRng::scenario_seed(3, i),
                vec![
                    ("value".to_string(), Json::F64(i as f64 * 0.1)),
                    ("count".to_string(), Json::U64(i)),
                ],
            );
        }
        r.to_jsonl()
    };
    assert_eq!(build(), build());
}
