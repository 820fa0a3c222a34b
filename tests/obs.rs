//! Observability-layer integration tests: the sanitizer's flight recorder
//! dumps on a violation, keeps exactly its armed capacity and obs never
//! empties it, metrics timelines
//! reproduce the paper's cwnd-vs-time shape, enabling obs never
//! changes a primary result, and a timer that moves a sampled metric
//! marks its scope for the sampler.

use std::panic::AssertUnwindSafe;

use tengig::experiments::throughput::{nttcp_point, nttcp_run};
use tengig::experiments::wan::record_timeline;
use tengig::experiments::{b2b_lab, pair, run_to_completion, XOVER_PROP};
use tengig::lab::{self, App};
use tengig::LadderRung;
use tengig_ethernet::Mtu;
use tengig_net::{Hop, ImpairmentSchedule, Impairments, Path, WanSpec};
use tengig_sim::{Bandwidth, MetricKind, Nanos, ObsConfig, Scope, ViolationKind};
use tengig_tools::{NttcpReceiver, NttcpSender};

const SEED: u64 = 42;

fn quick_obs() -> ObsConfig {
    ObsConfig {
        sample_interval: Nanos::from_micros(50),
        ..ObsConfig::default()
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
    lab::install_sanitizer(&mut lab, &mut eng, SEED);
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
    // The dump carries the offending run's last fired events.
    assert!(
        msg.contains("TxDma {") && msg.contains("RxStack {"),
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
    lab::install_sanitizer(&mut lab, &mut eng, SEED);
    run_to_completion(&mut lab, &mut eng);
    let dump = lab::flight_dump(&lab);
    assert!(!dump.is_empty());
    assert!(dump.len() <= 2 * lab::FLIGHT_RING, "len={}", dump.len());
    let text = dump.text();
    assert!(text.contains("flight recorder"), "{text}");
    assert!(text.contains("host 0"), "{text}");
}

/// Run a short b2b transfer with the flight recorder armed at `capacity`
/// events per host; return its dump.
fn recorded_run(capacity: usize) -> lab::FlightDump {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let (mut lab, mut eng) = b2b_lab(cfg, nttcp_app(1448, 20), SEED);
    lab::arm_flight_recorder(&mut lab, capacity);
    run_to_completion(&mut lab, &mut eng);
    lab::flight_dump(&lab)
}

#[test]
fn ring_evicts_oldest_exactly_at_capacity() {
    let full = recorded_run(4096);
    let last3 = recorded_run(3);
    assert_eq!(full.hosts.len(), 2);
    for ((h, all), (h3, kept)) in full.hosts.iter().zip(&last3.hosts) {
        assert_eq!(h, h3);
        assert!(all.len() > 3 && all.len() < 4096, "host {h}: {}", all.len());
        // Oldest evicted first, newest kept.
        assert_eq!(kept[..], all[all.len() - 3..], "host {h}");
    }
}

#[test]
fn zero_capacity_ring_records_nothing() {
    // A capacity of 0 is the off state, even over the ring a debug
    // build's default sanitizer armed.
    let dump = recorded_run(0);
    assert!(dump.is_empty());
    assert_eq!(dump.len(), 0);
    assert!(dump.text().contains("no events recorded"));
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

/// Obs and the flight recorder are separate planes: under serve's obs
/// config a sanitized run still dumps the last `FLIGHT_RING` events of
/// both hosts, whichever of the two is armed first (`pair` and
/// `record_timeline` install the sanitizer first, `Grid::build` enables
/// obs first).
#[test]
fn obs_never_empties_the_sanitizers_flight_recorder() {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    // serve's cadence, with nonzero values in the retired ring fields,
    // which must be ignored.
    let serve_obs = ObsConfig {
        sample_interval: Nanos::from_millis(2),
        ring_capacity: 64,
        sample_every: 1 << 20,
    };
    for sanitizer_first in [true, false] {
        let (mut lab, mut eng) = b2b_lab(cfg, nttcp_app(1448, 300), SEED);
        if sanitizer_first {
            lab::install_sanitizer(&mut lab, &mut eng, SEED);
            lab.enable_obs(&serve_obs, SEED);
        } else {
            lab.enable_obs(&serve_obs, SEED);
            lab::install_sanitizer(&mut lab, &mut eng, SEED);
        }
        run_to_completion(&mut lab, &mut eng);
        let events = lab::flight_dump(&lab).len();
        assert_eq!(
            events,
            2 * lab::FLIGHT_RING,
            "sanitizer first: {sanitizer_first}"
        );
    }
}

/// A 500 ms outage on the data path, 1 ms into slow start, swallows the
/// sender's window and the retransmission of its first RTO (the 200 ms
/// floor), so recovery waits on the backed-off timer. The expiry cuts
/// `cwnd` and `ssthresh` and counts a retransmission, and no segment
/// touches the sender until the carrier returns, so the samples taken in
/// between see those moves only if the timer arm marked the sender's
/// scope. The sanitizer's `obs-stale` check, run at every sample, proves
/// that it did.
#[test]
fn rto_moves_reach_the_sampler_through_the_timer_arm() {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let line = Bandwidth::from_gbps(10);
    let outage =
        ImpairmentSchedule::none().with_outage(Nanos::from_millis(1), Nanos::from_millis(500));
    let fwd = Path {
        hops: vec![Hop::wire("xover", line, XOVER_PROP)
            .with_impairments(Impairments::none().with_schedule(outage))],
    };
    let rev = Path {
        hops: vec![Hop::wire("xover", line, XOVER_PROP)],
    };
    let (mut lab, mut eng) = pair(cfg, cfg, &fwd, &rev, nttcp_app(8948, 400), SEED);
    lab::install_sanitizer(&mut lab, &mut eng, SEED);
    lab.enable_obs(
        &ObsConfig {
            sample_interval: Nanos::from_millis(1),
            ..ObsConfig::default()
        },
        SEED,
    );
    // Checks the sanitizer over the drained run, obs-stale included.
    run_to_completion(&mut lab, &mut eng);
    let sender = &lab.flows[0].conns[0];
    assert!(sender.cc.timeouts > 0, "the outage must force an RTO");
}
