//! Experiment runners: one function per paper figure/table scenario.
//!
//! Each runner builds a topology, drives it to completion (or through a
//! measurement window), and returns the measured quantities. Sweeps
//! enumerate their parameter grids as [`crate::sweep::Scenario`] data and
//! delegate execution to the [`crate::sweep::SweepRunner`], so every point
//! is an independent, deterministically-seeded simulation and the sweep's
//! result is identical at any thread count.

pub mod anecdotal;
pub mod faults;
pub mod grid;
pub mod latency;
pub mod multiflow;
pub mod osbypass;
pub mod serve;
pub mod throughput;
pub mod wan;

use crate::config::HostConfig;
use crate::lab::{App, Lab, LabEngine};
use tengig_net::{Hop, Path};
use tengig_sim::{Bandwidth, Nanos, SimRng};

/// Crossover-cable one-way propagation (a few meters of fiber).
pub const XOVER_PROP: Nanos = Nanos::from_nanos(50);

/// The crossover cable of Fig. 2a: one 10 Gb/s hop of a few meters.
fn xover() -> Path {
    Path {
        hops: vec![Hop::wire("xover", Bandwidth::from_gbps(10), XOVER_PROP)],
    }
}

/// Build a back-to-back two-host lab (Fig. 2a) and one flow with `app`.
pub fn b2b_lab(cfg: HostConfig, app: App, seed: u64) -> (Lab, LabEngine) {
    let path = xover();
    pair(cfg, cfg, &path, &path, app, seed)
}

/// Build the two-host world every point-to-point experiment runs in:
/// host 0 (`cfg_a`) sends `app`'s data to host 1 (`cfg_b`) over `fwd`,
/// and ACKs return over `rev`. The links draw from `seed`'s RNG forked
/// `"fwd"` and `"rev"`; the engine is [`crate::lab::engine`]'s. Run it
/// with [`run_to_completion`] or [`run_window`].
pub fn pair(
    cfg_a: HostConfig,
    cfg_b: HostConfig,
    fwd: &Path,
    rev: &Path,
    app: App,
    seed: u64,
) -> (Lab, LabEngine) {
    let mut lab = Lab::new();
    // One allocation for both hosts: a `HostRt` is over 1 KiB, so
    // growing the vector host by host reallocates and copies the first.
    lab.hosts.reserve_exact(2);
    let a = lab.add_host(cfg_a);
    let b = lab.add_host(cfg_b);
    let mut rng = SimRng::seeded(seed);
    let l_fwd = lab.add_link(fwd, rng.fork("fwd"));
    let l_rev = lab.add_link(rev, rng.fork("rev"));
    lab.add_flow(a, b, vec![l_fwd], vec![l_rev], app);
    let eng = crate::lab::engine(&mut lab, seed);
    (lab, eng)
}

/// Run a lab to completion after kicking all flows.
///
/// Panics, in release builds too, naming the flow, if the calendar
/// drains before every workload completes. With a sanitizer installed,
/// the fully drained calendar lets the byte ledger demand zero in-flight
/// bytes; any violation panics with the seed in the message (the sweep
/// runner attaches the scenario index and label).
pub fn run_to_completion(lab: &mut Lab, eng: &mut LabEngine) {
    crate::lab::kick(lab, eng);
    eng.run(lab);
    let stalled = lab.flows.iter().position(|f| f.meas.t_done.is_none());
    assert!(
        stalled.is_none(),
        "flow {} stalled: {} events executed without completing",
        stalled.unwrap_or_default(),
        eng.executed()
    );
    crate::lab::check_sanitizer(lab, eng, true);
}

/// Measure a steady-state window: kick all flows, run to `warmup`,
/// `read`, run to `warmup + window`, check the sanitizer and `read`
/// again. Returns both reads; `read` gets the lab and the window edge.
///
/// The clock lands exactly on each edge (`advance_to`, not `run_until`),
/// so `window` is exactly the virtual time between the reads. Frames are
/// still in flight at the end, so the sanitizer skips its drain check.
pub fn run_window<R>(
    lab: &mut Lab,
    eng: &mut LabEngine,
    warmup: Nanos,
    window: Nanos,
    read: impl Fn(&Lab, Nanos) -> R,
) -> (R, R) {
    crate::lab::kick(lab, eng);
    eng.advance_to(lab, warmup);
    let before = read(lab, warmup);
    eng.advance_to(lab, warmup + window);
    crate::lab::check_sanitizer(lab, eng, false);
    (before, read(lab, warmup + window))
}
