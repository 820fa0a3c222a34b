//! Coverage for the measurement substrate: histogram edge bins.

use tengig_sim::Hist;

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
