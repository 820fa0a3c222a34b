//! Coverage for the measurement substrate: tracer stage counters, ring
//! eviction, sampling determinism, and histogram edge bins.

use tengig_sim::{Hist, Nanos, SimRng, Stage, TraceEvent, Tracer};

#[test]
fn per_stage_counters_aggregate_every_emit() {
    let mut t = Tracer::full(8);
    for p in 0..10u64 {
        t.emit(Nanos(p), Stage::TxStack, p, 1448, Nanos(500));
    }
    for p in 0..4u64 {
        t.emit(Nanos(100 + p), Stage::Drop, p, 1448, Nanos::ZERO);
    }
    let tx = t.stage(Stage::TxStack);
    assert_eq!(tx.count, 10);
    assert_eq!(tx.bytes, 10 * 1448);
    assert_eq!(tx.cost, Nanos(5000));
    assert_eq!(tx.mean_cost(), Nanos(500));
    assert_eq!(t.stage(Stage::Drop).count, 4);
    // Untouched stages stay zero.
    assert_eq!(t.stage(Stage::Wire).count, 0);

    // stage_stats lists only observed stages, in pipeline order.
    let listed: Vec<Stage> = t.stage_stats().map(|(s, _)| s).collect();
    assert_eq!(listed, vec![Stage::TxStack, Stage::Drop]);
}

#[test]
fn ring_evicts_oldest_exactly_at_capacity() {
    let mut t = Tracer::full(3);
    for p in 0..7u64 {
        t.emit(Nanos(p), Stage::Wire, p, 100, Nanos(1));
    }
    let kept: Vec<u64> = t.recent().map(|e| e.packet).collect();
    assert_eq!(kept, vec![4, 5, 6], "oldest evicted first, newest kept");
    // Aggregates see everything the ring forgot.
    assert_eq!(t.stage(Stage::Wire).count, 7);
}

#[test]
fn zero_capacity_ring_still_aggregates() {
    let mut t = Tracer::full(0);
    t.emit(Nanos(1), Stage::RxStack, 1, 64, Nanos(10));
    assert_eq!(t.recent().count(), 0);
    assert_eq!(t.stage(Stage::RxStack).count, 1);
}

#[test]
fn sampling_is_deterministic_per_seed() {
    let run = |seed: u64| -> Vec<TraceEvent> {
        let mut t = Tracer::sampling(4096, 8, SimRng::seeded(seed));
        for p in 0..4000u64 {
            t.emit(Nanos(p), Stage::RxDma, p, 1448, Nanos(30));
        }
        t.recent().cloned().collect()
    };
    // Same seed → the exact same sampled ring; a new seed resamples.
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));

    // The sample keeps roughly 1-in-8 (binomial, wide tolerance).
    let kept = run(7).len();
    assert!((250..=750).contains(&kept), "kept={kept}");
    // And every emit still hits the aggregate exactly once.
    let mut t = Tracer::sampling(16, 8, SimRng::seeded(7));
    for p in 0..100u64 {
        t.emit(Nanos(p), Stage::Ack, p, 0, Nanos::ZERO);
    }
    assert_eq!(t.stage(Stage::Ack).count, 100);
}

#[test]
fn stage_all_is_exhaustive_and_ordered() {
    // ALL drives the stats indexing: it must hold every variant once, in
    // declaration (= Ord) order.
    let mut sorted = Stage::ALL.to_vec();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), Stage::ALL.len());
    assert_eq!(sorted, Stage::ALL.to_vec());
}

#[test]
fn histogram_edge_bins() {
    // Zero has its own bucket; one opens the next.
    let mut h = Hist::new();
    h.record(0);
    h.record(1);
    assert_eq!(h.count(), 2);
    assert_eq!(h.percentile(50), 0, "rank 1 is the zero bucket");
    assert_eq!(h.percentile(100), 1);

    // Exact powers of two sit at the bottom of their bucket: a readout
    // reports the bucket's inclusive upper bound, clamped to the max seen.
    let mut p = Hist::new();
    p.record(1024);
    p.record(2000);
    assert_eq!(
        p.percentile(50),
        2000,
        "1024 shares the [1024, 2047] bucket"
    );
    p.record(1023);
    assert_eq!(p.percentile(0), 1023, "1023 closes the [512, 1023] bucket");

    // The top bucket saturates at u64::MAX without overflow.
    let mut top = Hist::new();
    top.record(u64::MAX);
    top.record(1u64 << 63);
    assert_eq!(top.count(), 2);
    assert_eq!(top.min(), 1u64 << 63);
    assert_eq!(top.percentile(50), u64::MAX, "both land in the top bucket");
}

#[test]
fn empty_histogram_is_sane() {
    let h = Hist::new();
    assert_eq!(h.count(), 0);
    assert_eq!(h.percentile(50), 0);
    assert_eq!(h.permille(999), 0);
    assert_eq!(h.summary(), "n=0 min=0 p50=0 p90=0 p99=0 max=0");
}
