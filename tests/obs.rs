//! Observability-layer integration tests: the flight recorder dumps on a
//! sanitizer violation, metrics timelines reproduce the paper's
//! cwnd-vs-time shape, enabling obs never changes a primary result, and
//! the tracer's sampling is a pure function of the scenario seed.

use std::panic::AssertUnwindSafe;

use tengig::experiments::throughput::{nttcp_point, nttcp_run};
use tengig::experiments::wan::record_timeline;
use tengig::experiments::{b2b_lab, run_to_completion};
use tengig::lab::{self, App};
use tengig::LadderRung;
use tengig_ethernet::Mtu;
use tengig_net::WanSpec;
use tengig_sim::{MetricKind, Nanos, ObsConfig, Sanitizer, Scope, ViolationKind};
use tengig_tools::{NttcpReceiver, NttcpSender};

const SEED: u64 = 42;

fn quick_obs() -> ObsConfig {
    ObsConfig {
        sample_interval: Nanos::from_micros(50),
        ring_capacity: 128,
        sample_every: 4,
    }
}

fn nttcp_app(payload: u64, count: u64) -> App {
    App::Nttcp {
        tx: NttcpSender::new(payload, count),
        rx: NttcpReceiver::new(payload * count),
    }
}

#[test]
fn sanitizer_violation_dumps_the_flight_recorder() {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let (mut lab, mut eng) = b2b_lab(cfg, nttcp_app(1448, 200), SEED);
    // Force the recorder and sanitizer on regardless of build profile.
    eng.install_sanitizer(Sanitizer::new(SEED));
    lab.arm_flight_recorder(lab::FLIGHT_RING);
    run_to_completion(&mut lab, &mut eng);

    // Inject a violation as an invariant check would.
    let now = eng.now();
    eng.sanitizer_mut().expect("sanitizer installed").record(
        ViolationKind::TcpInvariant,
        now,
        "forced by tests/obs.rs".to_string(),
    );

    let panic = std::panic::catch_unwind(AssertUnwindSafe(|| {
        lab::check_sanitizer(&lab, &mut eng, false);
    }))
    .expect_err("a recorded violation must panic the check");
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".to_string());
    assert!(msg.contains("forced by tests/obs.rs"), "{msg}");
    assert!(msg.contains("flight recorder"), "{msg}");
    // The dump carries the offending run's recent trace events.
    assert!(
        msg.contains("tx-stack") || msg.contains("rx-stack"),
        "{msg}"
    );
}

#[test]
fn flight_dump_holds_the_last_events_of_a_run() {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let (mut lab, mut eng) = b2b_lab(cfg, nttcp_app(1448, 300), SEED);
    // In debug builds the default sanitizer has already armed the recorder
    // at FLIGHT_RING; in release this arms it. Either way the per-host ring
    // stays bounded at FLIGHT_RING.
    lab.arm_flight_recorder(lab::FLIGHT_RING);
    run_to_completion(&mut lab, &mut eng);
    let dump = lab::flight_dump(&lab);
    assert!(!dump.is_empty());
    assert!(dump.len() <= 2 * lab::FLIGHT_RING, "len={}", dump.len());
    let text = dump.text();
    assert!(text.contains("flight recorder"), "{text}");
    assert!(text.contains("host 0"), "{text}");
}

#[test]
fn enabling_obs_never_changes_the_primary_result() {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let plain = nttcp_point(cfg, 1448, 2_000, SEED);
    let (observed, tl) = nttcp_run(cfg, 1448, 2_000, SEED, Some(&quick_obs()));
    assert_eq!(plain, observed, "obs must be a pure observer");
    assert!(!tl.expect("obs was on").is_empty(), "timelines recorded");
}

#[test]
fn wan_cwnd_timeline_reproduces_slow_start_growth() {
    let (result, tl) = record_timeline(
        &WanSpec::record_run(),
        None,
        Nanos::from_millis(500),
        Nanos::from_millis(500),
        SEED,
        &ObsConfig::default(),
    );
    assert!(result.gbps > 0.0);
    let cwnd = tl
        .get(Scope::Flow { flow: 0, ep: 0 }, MetricKind::Cwnd)
        .expect("sender cwnd series");
    assert!(cwnd.len() > 1, "cwnd must evolve, steps={}", cwnd.len());
    let first = cwnd.points()[0].1;
    let max = cwnd.max().expect("non-empty");
    assert!(max > first, "cwnd must grow: first={first} max={max}");
    // The JSONL side-channel round-trips the exact same data.
    let parsed = tengig_sim::Timelines::from_jsonl(&tl.to_jsonl()).expect("round trip");
    assert_eq!(parsed.to_jsonl(), tl.to_jsonl());
}

#[test]
fn tracer_sampling_is_a_pure_function_of_the_seed() {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let dump_for = |seed: u64| {
        let (mut lab, mut eng) = b2b_lab(cfg, nttcp_app(1448, 500), seed);
        lab.enable_obs(&quick_obs(), seed);
        run_to_completion(&mut lab, &mut eng);
        lab::flight_dump(&lab).text()
    };
    // Same seed → byte-identical sampled rings; the sampling RNG is forked
    // from the scenario seed, never a fixed constant.
    assert_eq!(dump_for(SEED), dump_for(SEED));
    assert_ne!(
        dump_for(SEED),
        dump_for(SEED + 1),
        "a new seed must resample the detail ring"
    );
}
