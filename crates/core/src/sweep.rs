//! Deterministic parallel sweep runner.
//!
//! Every paper figure is a *sweep*: N independent simulations over a
//! parameter grid (payload sizes, tuning rungs, peer counts). The runner
//! here fans those scenarios out across worker threads while keeping the
//! result bit-identical to a serial run:
//!
//! * **Seeding discipline** — each scenario's RNG seed is a pure function
//!   of the sweep's master seed and the scenario index
//!   ([`SimRng::scenario_seed`]), never of thread identity or scheduling.
//! * **Index-keyed collection** — workers report `(index, result)` pairs
//!   over a channel; results are slotted by scenario index, so completion
//!   order is irrelevant to the output order.
//!
//! Scoped threads (`std::thread::scope`) pull scenario indices from a
//! shared atomic cursor, so the pool load-balances without any partitioning
//! of the grid up front. A panicking scenario is caught with
//! `catch_unwind` and surfaced as a [`SweepError`] after the pool drains —
//! the remaining scenarios still run, and nothing deadlocks because the
//! channel is unbounded and the scope joins every worker before results
//! are collected.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use tengig_sim::SimRng;

/// One point of a parameter sweep: what to run, under which label, with
/// which deterministic seed.
#[derive(Debug, Clone)]
pub struct Scenario<I> {
    /// Position in the sweep grid; results are keyed by this.
    pub index: usize,
    /// Human-readable point label (used in reports and error messages).
    pub label: String,
    /// The scenario's RNG seed: `SimRng::scenario_seed(master, index)`.
    pub seed: u64,
    /// The experiment-specific input (config, payload, peer count, …).
    pub input: I,
}

/// Enumerate a grid of inputs into [`Scenario`]s under the standard
/// seeding discipline: scenario seed = f(master seed, scenario index).
pub fn scenarios<I>(
    master_seed: u64,
    inputs: impl IntoIterator<Item = I>,
    mut label: impl FnMut(&I) -> String,
) -> Vec<Scenario<I>> {
    inputs
        .into_iter()
        .enumerate()
        .map(|(index, input)| Scenario {
            index,
            label: label(&input),
            seed: SimRng::scenario_seed(master_seed, index as u64),
            input,
        })
        .collect()
}

/// A scenario panicked during a sweep.
///
/// When several scenarios fail, the one with the lowest index is reported,
/// regardless of which thread hit its panic first — errors are as
/// deterministic as results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Index of the failing scenario.
    pub index: usize,
    /// Label of the failing scenario.
    pub label: String,
    /// The panic payload, rendered as text.
    pub message: String,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario {} ({}) panicked: {}",
            self.index, self.label, self.message
        )
    }
}

impl std::error::Error for SweepError {}

/// Fans independent scenarios across a pool of worker threads.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    /// One worker per available CPU.
    // lint:trusted(pool sizing only: results are index-keyed and provably thread-count independent)
    fn default() -> Self {
        let threads = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        SweepRunner { threads }
    }
}

impl SweepRunner {
    /// A runner with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// Number of worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every scenario through `f` and return the outputs **in scenario
    /// order**. The output is a pure function of `(scenarios, f)` — thread
    /// count and scheduling cannot change it.
    ///
    /// If any scenario panics, the lowest-index failure is returned as a
    /// [`SweepError`] once all workers have drained.
    pub fn run<I, O, F>(&self, scenarios: &[Scenario<I>], f: F) -> Result<Vec<O>, SweepError>
    where
        I: Sync,
        O: Send,
        F: Fn(&Scenario<I>) -> O + Sync,
    {
        let n = scenarios.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<O, String>)>();

        thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                let tx = tx.clone();
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let sc = &scenarios[i];
                    let out = catch_unwind(AssertUnwindSafe(|| f(sc)))
                        .map_err(|p| panic_text(p.as_ref()));
                    // The receiver outlives the scope; send cannot fail
                    // while collection is pending, and an unbounded
                    // channel never blocks the worker.
                    if tx.send((i, out)).is_err() {
                        break;
                    }
                });
            }
        });
        drop(tx);

        let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
        let mut first_error: Option<SweepError> = None;
        for (i, res) in rx {
            match res {
                Ok(o) => slots[i] = Some(o),
                Err(message) => {
                    if first_error.as_ref().map_or(true, |e| i < e.index) {
                        first_error = Some(SweepError {
                            index: i,
                            label: scenarios[i].label.clone(),
                            message,
                        });
                    }
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every scenario reported exactly once"))
            .collect())
    }
}

/// Render a panic payload as text (the common `&str` / `String` payloads;
/// anything else gets a placeholder).
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<Scenario<u64>> {
        scenarios(42, (0..n as u64).map(|i| i * 10), |i| format!("point-{i}"))
    }

    #[test]
    fn seeding_follows_the_discipline() {
        let g = grid(5);
        for (i, sc) in g.iter().enumerate() {
            assert_eq!(sc.index, i);
            assert_eq!(sc.seed, SimRng::scenario_seed(42, i as u64));
        }
    }

    #[test]
    fn results_are_in_scenario_order_for_any_thread_count() {
        let g = grid(17);
        let expect: Vec<u64> = g.iter().map(|sc| sc.input * 2 + sc.seed % 7).collect();
        for threads in [1, 2, 4, 8, 32] {
            let got = SweepRunner::new(threads)
                .run(&g, |sc| sc.input * 2 + sc.seed % 7)
                .expect("no panics");
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_sweep_is_fine() {
        let g: Vec<Scenario<u64>> = Vec::new();
        let out = SweepRunner::new(4).run(&g, |sc| sc.input).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn panic_surfaces_as_lowest_index_error() {
        let g = grid(12);
        let err = SweepRunner::new(4)
            .run(&g, |sc| {
                if sc.index == 3 || sc.index == 9 {
                    panic!("boom at {}", sc.index);
                }
                sc.input
            })
            .unwrap_err();
        assert_eq!(err.index, 3);
        assert_eq!(err.label, "point-30");
        assert!(
            err.message.contains("boom at 3"),
            "message: {}",
            err.message
        );
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(SweepRunner::new(0).threads(), 1);
    }
}
