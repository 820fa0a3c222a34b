//! `tengig-bench` — the determinism golden gates of the SC'03 10GbE
//! reproduction, behind the `tengig-check` binary (`make golden-check`).
//!
//! [`check`] holds the family registry, [`counts`] the pinned workloads
//! whose exact event and byte counts the `counts` row gates, and
//! [`golden`] the byte-comparison machinery every row shares. The paper's
//! figures and tables are regenerated by `examples/figures.rs`; the
//! simulator's wall-clock benchmark is the separate `benchmark/` crate.

pub mod check;
pub mod counts;
pub mod golden;
