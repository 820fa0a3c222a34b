//! `tengig-bench` — Criterion benchmarks that regenerate every table and
//! figure of the SC'03 10GbE paper.
//!
//! Each bench target prints the regenerated rows/series once (the figure
//! data, in the paper's units) and then benchmarks the simulation that
//! produces them. Run a single artifact with e.g.
//! `cargo bench -p tengig-bench --bench fig3_stock_tcp`.

/// Packet count per throughput point in bench mode. Reduced from the
/// paper's 32,768 — the measured rates converge well before this.
pub const BENCH_COUNT: u64 = 2_000;

/// Criterion configured for simulation-scale iterations: each iteration is
/// a whole deterministic simulation, so small samples suffice.
pub fn criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(3))
}

pub mod check;
pub mod gate;
pub mod golden;
