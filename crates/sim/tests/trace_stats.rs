//! Coverage for the measurement substrate: flight-recorder ring eviction
//! and histogram edge bins.

use tengig_sim::{Hist, Nanos, Stage, Tracer};

#[test]
fn ring_evicts_oldest_exactly_at_capacity() {
    let mut t = Tracer::full(3);
    for p in 0..7u64 {
        t.emit(Nanos(p), Stage::Wire, p, 100, Nanos(1));
    }
    let kept: Vec<u64> = t.recent().map(|e| e.packet).collect();
    assert_eq!(kept, vec![4, 5, 6], "oldest evicted first, newest kept");
}

#[test]
fn zero_capacity_ring_records_nothing() {
    let mut t = Tracer::full(0);
    t.emit(Nanos(1), Stage::RxStack, 1, 64, Nanos(10));
    assert_eq!(t.recent().count(), 0);
    assert!(!t.is_enabled(), "a ring with no room is the off state");
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
