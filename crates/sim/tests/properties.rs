//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tengig_sim::{
    Bandwidth, Engine, EventFire, FifoServer, MetricKind, Nanos, Scope, StepSeries, Timelines,
};

/// World for the engine properties: a log of `(fire time, index)` pairs
/// and a stack of delays still to chain.
#[derive(Default)]
struct World {
    log: Vec<(u64, usize)>,
    remaining: Vec<u64>,
}

/// Test event vocabulary for the engine properties.
enum Ev {
    /// Log the fire time with this insertion index.
    Log(usize),
    /// Pop the next delay and re-arm after it.
    Tick,
}

impl EventFire<World> for Ev {
    fn fire(self, w: &mut World, e: &mut Engine<World, Ev>) {
        match self {
            Ev::Log(i) => w.log.push((e.now().as_nanos(), i)),
            Ev::Tick => {
                if let Some(d) = w.remaining.pop() {
                    e.schedule_event_in(Nanos(d), Ev::Tick);
                }
            }
        }
    }
}

proptest! {
    /// The engine executes events in non-decreasing time order regardless of
    /// insertion order, and ties preserve insertion order.
    #[test]
    fn engine_total_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut eng = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            eng.schedule_event_at(Nanos(t), Ev::Log(i));
        }
        let mut w = World::default();
        eng.run(&mut w);
        let log = w.log;
        prop_assert_eq!(log.len(), times.len());
        for pair in log.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time order violated");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "tie order violated");
            }
        }
    }

    /// A FIFO server never overlaps jobs, never idles while work is queued
    /// (work conservation), and its utilization stays within [0, 1].
    #[test]
    fn server_no_overlap_work_conserving(
        jobs in proptest::collection::vec((0u64..10_000, 1u64..5_000), 1..100)
    ) {
        // Admit in arrival-time order, as the engine would.
        let mut jobs = jobs;
        jobs.sort_by_key(|&(t, _)| t);
        let mut s = FifoServer::new("cpu");
        let mut prev_done = Nanos::ZERO;
        let mut total_service = Nanos::ZERO;
        let mut horizon = Nanos::ZERO;
        for &(t, svc) in &jobs {
            let a = s.admit(Nanos(t), Nanos(svc));
            // No overlap: job starts at or after the previous completion.
            prop_assert!(a.start >= prev_done);
            // Work conservation: start is exactly max(arrival, prev_done).
            prop_assert_eq!(a.start, Nanos(t).max(prev_done));
            prop_assert_eq!(a.done, a.start + Nanos(svc));
            prev_done = a.done;
            total_service += Nanos(svc);
            horizon = a.done.max(Nanos(t));
        }
        prop_assert_eq!(s.busy_total(), total_service);
        let u = s.utilization(horizon);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {}", u);
    }

    /// Serialization time is monotone in bytes and inversely monotone in rate.
    #[test]
    fn bandwidth_monotonicity(bytes in 1u64..10_000_000, gbps in 1u64..100) {
        let bw = Bandwidth::from_gbps(gbps);
        let t1 = bw.time_to_send(bytes);
        let t2 = bw.time_to_send(bytes + 1);
        prop_assert!(t2 >= t1);
        let faster = Bandwidth::from_gbps(gbps + 1);
        prop_assert!(faster.time_to_send(bytes) <= t1);
        // Round-trip: measured rate from (bytes, t) never exceeds the rate.
        let measured = tengig_sim::rate_of(bytes, t1);
        prop_assert!(measured.bps() <= bw.bps() + 1);
    }

    /// A chain of timers fired through the engine advances the clock by the
    /// exact sum of delays.
    #[test]
    fn engine_clock_is_exact(delays in proptest::collection::vec(1u64..1_000_000, 1..50)) {
        let total: u64 = delays.iter().sum();
        let mut w = World { remaining: delays, ..World::default() };
        let mut eng = Engine::new();
        eng.schedule_event_at(Nanos::ZERO, Ev::Tick);
        eng.run(&mut w);
        prop_assert_eq!(eng.now(), Nanos(total));
    }
}

/// The metrics the lab samples per flow endpoint, per host and per link,
/// in its order.
const FLOW: &[MetricKind] = &[
    MetricKind::Cwnd,
    MetricKind::Ssthresh,
    MetricKind::SrttNanos,
    MetricKind::RttvarNanos,
    MetricKind::BytesInFlight,
    MetricKind::Retransmits,
];
const HOST: &[MetricKind] = &[
    MetricKind::CpuBusyNanos,
    MetricKind::RxRingFrames,
    MetricKind::CoalescePending,
    MetricKind::CoalesceDelayNanos,
    MetricKind::RxCrcDrops,
];
const LINK: &[MetricKind] = &[MetricKind::QueueDrops, MetricKind::ImpairDrops];

/// The keys one sample records, in the sampler's shape: three flows'
/// endpoints, two hosts, two links. `kind` 1 skips one scope, `kind` 2
/// inserts a scope the other sweeps lack mid-sweep; anything else is
/// the full sweep in its usual order.
fn sweep(kind: u8, a: usize, b: usize) -> Vec<(Scope, MetricKind)> {
    let mut scopes: Vec<(Scope, &[MetricKind])> = Vec::new();
    for flow in 0..3 {
        for ep in 0..2 {
            scopes.push((Scope::Flow { flow, ep }, FLOW));
        }
    }
    for host in 0..2 {
        scopes.push((Scope::Host { host }, HOST));
    }
    for link in 0..2 {
        scopes.push((Scope::Link { link }, LINK));
    }
    match kind {
        1 => {
            scopes.remove(a % scopes.len());
        }
        2 => {
            let extra = Scope::Flow {
                flow: 1,
                ep: 2 + u32::from(a % 2 == 1),
            };
            scopes.insert(b % (scopes.len() + 1), (extra, FLOW));
        }
        _ => {}
    }
    scopes
        .into_iter()
        .flat_map(|(scope, metrics)| metrics.iter().map(move |&m| (scope, m)))
        .collect()
}

proptest! {
    /// Dense timelines read exactly like a `BTreeMap` of step-series fed
    /// the same records — recorded whole, or as two time halves merged
    /// — whatever order the series were first registered in.
    #[test]
    fn dense_timelines_match_a_btreemap_reference(
        samples in proptest::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..16),
        values in proptest::collection::vec(0u64..3, 1..8),
        split in 0usize..16,
    ) {
        let interval = Nanos(1000);
        let mut whole = Timelines::new(interval);
        let mut front = Timelines::new(interval);
        let mut back = Timelines::new(interval);
        let mut reference: BTreeMap<(Scope, MetricKind), StepSeries> = BTreeMap::new();
        let mut n = 0;
        for (i, &(kind, a, b)) in samples.iter().enumerate() {
            let t = Nanos(1000 * (i as u64 + 1));
            let half = if i < split { &mut front } else { &mut back };
            for (scope, metric) in sweep(kind, a, b) {
                let v = values[n % values.len()];
                n += 1;
                whole.record(scope, metric, t, v);
                half.record(scope, metric, t, v);
                reference.entry((scope, metric)).or_default().push(t, v);
            }
        }
        front.merge(&back);
        // Recorded in key order, so every record appends or hits: the
        // serialization oracle.
        let mut sorted = Timelines::new(interval);
        for (&(scope, metric), s) in &reference {
            for &(t, v) in s.points() {
                sorted.record(scope, metric, t, v);
            }
        }
        let expect: Vec<_> = reference.iter().collect();
        for tl in [&whole, &front, &sorted] {
            prop_assert_eq!(tl.iter().collect::<Vec<_>>(), expect.clone());
            prop_assert_eq!(tl.len(), reference.len());
            for (&(scope, metric), s) in &reference {
                prop_assert_eq!(tl.get(scope, metric), Some(s));
            }
            prop_assert_eq!(tl.get(Scope::Link { link: 9 }, MetricKind::Cwnd), None);
            prop_assert_eq!(tl.to_jsonl(), sorted.to_jsonl());
            prop_assert_eq!(tl, &sorted);
            prop_assert_eq!(&Timelines::from_jsonl(&tl.to_jsonl()).expect("round trip"), tl);
        }
    }
}
