//! Deterministic open-loop workload generation: seeded flow arrivals,
//! heavy-tailed transfer sizes, and flow-completion-time accounting.
//!
//! Every experiment family before this module was *closed-loop*: a fixed
//! set of flows, each pushing bytes as fast as its window allows, started
//! once and run to completion. An operator serving real users sees the
//! opposite regime — an *open-loop* stream of flow arrivals that does not
//! slow down because the server is busy. This module provides the
//! deterministic pieces of that regime:
//!
//! * [`ArrivalProcess`] — when flows arrive (Poisson),
//! * [`BoundedPareto`] / [`SizeMix`] — how many bytes each flow carries
//!   (heavy-tailed, with mice/elephant mix presets),
//! * [`build_schedule`] — the arrival loop: samples a full [`FlowPlan`]
//!   list from a forked [`SimRng`] *at laboratory build time*,
//! * [`FctStats`] — the completion loop: folds per-flow completion times
//!   into a [`Hist`]-backed percentile summary after the run.
//!
//! # Draw-count discipline
//!
//! The schedule is sampled once, up front, from an [`SimRng::fork`]ed
//! stream — a simulation that does not enable the workload plane performs
//! **zero** workload draws, so enabling it elsewhere can never perturb an
//! existing golden. Within the plane, the draw order per flow is fixed
//! and documented (gap first, then size; the size takes a class coin and
//! then one inverse-CDF draw), and the unit tests pin both the sampled
//! values and the exact number of `next_u64` draws for fixed seeds: a
//! reordered draw or a re-parameterized sampler fails loudly instead of
//! silently shifting every downstream golden.
//!
//! Both the arrival loop ([`build_schedule`]) and the completion loop
//! ([`FctStats::record`]) are declared `tengig-lint` hot-path roots: a
//! wall-clock read or unseeded RNG introduced anywhere beneath them is a
//! CI failure with a call-chain proof.

use crate::prof::Hist;
use crate::rng::SimRng;
use crate::time::Nanos;

/// When flows arrive: the inter-arrival--gap process.
///
/// Gaps are sampled by [`ArrivalProcess::sample_gap`] at a fixed draw
/// count per arrival, so schedule construction is reproducible from the
/// seed alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless Poisson arrivals: independent exponential gaps with
    /// the given mean. Offered flow rate is `1 / mean_gap`.
    Poisson {
        /// Mean inter-arrival gap (must be positive).
        mean_gap: Nanos,
    },
}

impl ArrivalProcess {
    /// Sample the gap before the next arrival (the first gap offsets the
    /// first arrival from the workload start).
    ///
    /// Draw contract: exactly **one** `next_u64` per gap. Changing it
    /// invalidates every serve golden; the pinned tests below fail first.
    pub fn sample_gap(&self, rng: &mut SimRng) -> Nanos {
        let ArrivalProcess::Poisson { mean_gap } = *self;
        exp_gap(rng, mean_gap)
    }

    /// Mean inter-arrival gap of the process — the open-loop offered
    /// flow rate is `1 / mean_gap()`.
    pub fn mean_gap(&self) -> Nanos {
        let ArrivalProcess::Poisson { mean_gap } = *self;
        mean_gap
    }
}

/// Exponential gap with the given mean, as integer nanoseconds.
/// Exactly one `next_u64` draw (means are validated positive upstream).
fn exp_gap(rng: &mut SimRng, mean: Nanos) -> Nanos {
    debug_assert!(mean > Nanos::ZERO, "arrival gap means must be positive");
    Nanos::from_secs_f64(rng.exponential(mean.as_secs_f64()))
}

/// A bounded Pareto transfer-size distribution on `[min, max]` bytes
/// with tail exponent `alpha` (smaller alpha ⇒ heavier tail).
///
/// This is the canonical heavy-tailed model for flow sizes: most
/// transfers are near `min`, a small fraction reach toward `max`, and
/// the truncation keeps every moment finite so offered load is well
/// defined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    alpha: f64,
    min: u64,
    max: u64,
}

impl BoundedPareto {
    /// A bounded Pareto with tail exponent `alpha` on `[min, max]`.
    /// Requires `alpha > 0` and `0 < min <= max`.
    pub fn new(alpha: f64, min: u64, max: u64) -> Self {
        assert!(alpha > 0.0, "bounded Pareto needs a positive tail exponent");
        assert!(min > 0 && min <= max, "bounded Pareto needs 0 < min <= max");
        BoundedPareto { alpha, min, max }
    }

    /// Tail exponent alpha.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Smallest possible sample, bytes.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest possible sample, bytes.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// One inverse-CDF sample — exactly **one** `next_u64` draw.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.min == self.max {
            // Degenerate point mass: still burn the draw so the draw
            // count per flow does not depend on distribution parameters.
            let _ = rng.next_u64();
            return self.min;
        }
        let u = rng.uniform();
        let la = (self.min as f64).powf(self.alpha);
        let ha = (self.max as f64).powf(self.alpha);
        // Inverse CDF of the bounded Pareto: x = (H^a / (u*L^a/H^a
        // interpolation))^(1/a), written in the standard stable form.
        let x = (ha * la / (ha - u * (ha - la))).powf(1.0 / self.alpha);
        // x lies in [min, max] analytically; the clamp absorbs float
        // rounding at the edges. The cast is exact for every size this
        // model produces (< 2^53 bytes).
        (x as u64).clamp(self.min, self.max)
    }

    /// Analytic mean of the distribution, bytes.
    pub fn mean(&self) -> f64 {
        let (a, l, h) = (self.alpha, self.min as f64, self.max as f64);
        if self.min == self.max {
            return l;
        }
        if (a - 1.0).abs() < 1e-9 {
            // alpha == 1: the mean integral degenerates to a log.
            let la = l.powf(a);
            let ha = h.powf(a);
            return la / (1.0 - la / ha) * (h / l).ln();
        }
        (l.powf(a) / (1.0 - (l / h).powf(a)))
            * (a / (a - 1.0))
            * (l.powf(1.0 - a) - h.powf(1.0 - a))
    }
}

/// A two-class mice/elephants mixture of bounded-Pareto size classes.
///
/// Datacenter and web-serving traffic is classically bimodal: a large
/// majority of small "mice" (requests, control chatter) and a small
/// minority of huge "elephants" (bulk transfers) that carry most of the
/// bytes. `mice_share` is the probability a given flow is a mouse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeMix {
    mice_share: f64,
    mice: BoundedPareto,
    elephants: BoundedPareto,
}

impl SizeMix {
    /// A mixture with the given mouse probability. Requires
    /// `0 < mice_share < 1` so the class coin always costs exactly one
    /// draw (the draw-count contract [`SizeMix::sample`] documents).
    pub fn new(mice_share: f64, mice: BoundedPareto, elephants: BoundedPareto) -> Self {
        assert!(
            mice_share > 0.0 && mice_share < 1.0,
            "mice_share must lie strictly inside (0, 1)"
        );
        SizeMix {
            mice_share,
            mice,
            elephants,
        }
    }

    /// Probability a flow is a mouse.
    pub fn mice_share(&self) -> f64 {
        self.mice_share
    }

    /// The mouse size class.
    pub fn mice(&self) -> BoundedPareto {
        self.mice
    }

    /// The elephant size class.
    pub fn elephants(&self) -> BoundedPareto {
        self.elephants
    }

    /// Sample one transfer size.
    ///
    /// Draw contract: exactly **two** `next_u64` draws — one class coin
    /// (`mice_share` is strictly inside `(0, 1)` by construction) and
    /// one inverse-CDF draw for the chosen class.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if rng.chance(self.mice_share) {
            self.mice.sample(rng)
        } else {
            self.elephants.sample(rng)
        }
    }

    /// Analytic mean transfer size of the mixture, bytes.
    pub fn mean(&self) -> f64 {
        self.mice_share * self.mice.mean() + (1.0 - self.mice_share) * self.elephants.mean()
    }
}

/// One planned open-loop flow: when it arrives and how many bytes it
/// carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPlan {
    /// Arrival instant, relative to the workload start.
    pub at: Nanos,
    /// Transfer size, bytes.
    pub bytes: u64,
}

/// A complete open-loop workload specification: arrival process, size
/// mixture, and flow count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// The transfer-size mixture.
    pub sizes: SizeMix,
    /// Number of flows to plan.
    pub flows: u64,
}

impl WorkloadSpec {
    /// Offered load in bits per second: mean size × 8 / mean gap.
    pub fn offered_bps(&self) -> f64 {
        let gap = self.arrivals.mean_gap().as_secs_f64();
        if gap <= 0.0 {
            return 0.0;
        }
        self.sizes.mean() * 8.0 / gap
    }
}

/// The arrival loop: sample the full flow schedule for `spec` from `rng`.
///
/// Per flow the draw order is fixed — inter-arrival gap first (one
/// draw), then transfer size (two draws) — and arrival instants are the
/// running gap sum, so the whole plan is a pure function of `(spec, rng
/// seed)`. Declared as a `tengig-lint`
/// hot-path root: nothing reachable from here may read a wall clock or
/// an unseeded RNG.
pub fn build_schedule(spec: &WorkloadSpec, rng: &mut SimRng) -> Vec<FlowPlan> {
    let flows = usize::try_from(spec.flows).unwrap_or(usize::MAX);
    let mut plans = Vec::with_capacity(flows);
    let mut t = Nanos::ZERO;
    for _ in 0..spec.flows {
        t += spec.arrivals.sample_gap(rng);
        let bytes = spec.sizes.sample(rng);
        plans.push(FlowPlan { at: t, bytes });
    }
    plans
}

/// Flow-completion-time accounting: the completion loop's fold target.
///
/// FCTs are recorded in integer nanoseconds into a [`Hist`] (so p50/p99/
/// p999 come from the same power-of-two-bucket machinery as the engine
/// profiling plane), alongside the byte and span bookkeeping needed for
/// goodput and offered-vs-achieved reporting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FctStats {
    fct: Hist,
    bytes: u64,
    first_arrival: Nanos,
    last_done: Nanos,
}

impl FctStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        FctStats {
            fct: Hist::new(),
            bytes: 0,
            first_arrival: Nanos::MAX,
            last_done: Nanos::ZERO,
        }
    }

    /// The completion loop: fold one finished flow in. `arrival` is the
    /// flow's planned arrival instant, `done` its completion instant —
    /// FCT is the difference (flows that finish the instant they arrive
    /// record 0 ns). Declared as a `tengig-lint` hot-path root.
    pub fn record(&mut self, arrival: Nanos, done: Nanos, bytes: u64) {
        debug_assert!(done >= arrival, "flow finished before it arrived");
        self.fct.record(done.saturating_sub(arrival).as_nanos());
        self.bytes += bytes;
        self.first_arrival = self.first_arrival.min(arrival);
        self.last_done = self.last_done.max(done);
    }

    /// Merge another accumulator in (shard-order independent, like the
    /// underlying [`Hist::merge`]).
    pub fn merge(&mut self, other: &FctStats) {
        self.fct.merge(&other.fct);
        self.bytes += other.bytes;
        self.first_arrival = self.first_arrival.min(other.first_arrival);
        self.last_done = self.last_done.max(other.last_done);
    }

    /// Number of completed flows recorded.
    pub fn flows(&self) -> u64 {
        self.fct.count()
    }

    /// Total payload bytes across recorded flows.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// FCT at permille `p` (e.g. 500 → p50, 990 → p99, 999 → p999), as
    /// integer nanoseconds. Zero when nothing has been recorded.
    pub fn fct_permille(&self, p: u64) -> u64 {
        self.fct.permille(p)
    }

    /// The underlying FCT histogram, for rendering.
    pub fn hist(&self) -> &Hist {
        &self.fct
    }

    /// Achieved goodput over the active span (first arrival → last
    /// completion), bits per second. Zero when the span is empty.
    pub fn achieved_bps(&self) -> f64 {
        if self.last_done <= self.first_arrival {
            return 0.0;
        }
        let span = (self.last_done - self.first_arrival).as_secs_f64();
        self.bytes as f64 * 8.0 / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A web-serving mix: 95% mice of 2–64 KB (α = 1.2), 5% elephants of
    /// 1–64 MB (α = 1.1). Mice dominate the flow count; elephants carry
    /// most bytes.
    fn web_serving() -> SizeMix {
        SizeMix::new(
            0.95,
            BoundedPareto::new(1.2, 2 << 10, 64 << 10),
            BoundedPareto::new(1.1, 1 << 20, 64 << 20),
        )
    }

    /// Advance a fresh rng by `draws` and return the next raw word —
    /// the sentinel the draw-count tests compare against.
    fn sentinel(seed: u64, draws: u64) -> u64 {
        let mut rng = SimRng::seeded(seed);
        for _ in 0..draws {
            let _ = rng.next_u64();
        }
        rng.next_u64()
    }

    #[test]
    fn poisson_gaps_are_pinned_and_cost_one_draw_each() {
        let p = ArrivalProcess::Poisson {
            mean_gap: Nanos::from_micros(100),
        };
        let mut rng = SimRng::seeded(2003);
        let gaps: Vec<u64> = (0..4).map(|_| p.sample_gap(&mut rng).as_nanos()).collect();
        // Pinned for seed 2003. A renamed variant, a reordered draw, or a
        // changed inverse-CDF form must fail here before it can silently
        // shift goldens/serve.jsonl.
        assert_eq!(gaps, vec![57955, 31538, 264536, 150099]);
        // Exactly one draw per gap: the next raw word matches a fresh rng
        // advanced by four.
        assert_eq!(rng.next_u64(), sentinel(2003, 4));
    }

    #[test]
    fn bounded_pareto_samples_are_pinned_in_range_and_cost_one_draw() {
        let d = BoundedPareto::new(1.1, 1 << 10, 1 << 20);
        let mut rng = SimRng::seeded(42);
        let xs: Vec<u64> = (0..6).map(|_| d.sample(&mut rng)).collect();
        for &x in &xs {
            assert!((d.min()..=d.max()).contains(&x), "{x} out of range");
        }
        assert_eq!(xs, vec![12547, 1773, 8160, 1297, 2811, 1883]);
        assert_eq!(rng.next_u64(), sentinel(42, 6));
    }

    #[test]
    fn degenerate_pareto_still_burns_its_draw() {
        let d = BoundedPareto::new(1.5, 4096, 4096);
        let mut rng = SimRng::seeded(5);
        assert_eq!(d.sample(&mut rng), 4096);
        assert_eq!(rng.next_u64(), sentinel(5, 1));
    }

    #[test]
    fn size_mix_costs_two_draws_and_is_pinned() {
        let mix = web_serving();
        let mut rng = SimRng::seeded(2003);
        let xs: Vec<u64> = (0..5).map(|_| mix.sample(&mut rng)).collect();
        assert_eq!(xs, vec![2650, 6844, 3407, 2119, 2339]);
        assert_eq!(rng.next_u64(), sentinel(2003, 10));
    }

    #[test]
    fn schedule_is_sorted_deterministic_and_draw_stable() {
        let spec = WorkloadSpec {
            arrivals: ArrivalProcess::Poisson {
                mean_gap: Nanos::from_micros(50),
            },
            sizes: web_serving(),
            flows: 100,
        };
        let mut a = SimRng::seeded(11);
        let mut b = SimRng::seeded(11);
        let plan_a = build_schedule(&spec, &mut a);
        let plan_b = build_schedule(&spec, &mut b);
        assert_eq!(plan_a, plan_b);
        assert_eq!(plan_a.len(), 100);
        assert!(plan_a.windows(2).all(|w| w[0].at <= w[1].at));
        // 3 draws per flow: one gap + two size draws.
        assert_eq!(a.next_u64(), sentinel(11, 300));
    }

    #[test]
    fn pareto_mean_tracks_the_empirical_mean() {
        let d = BoundedPareto::new(1.3, 2 << 10, 8 << 20);
        let mut rng = SimRng::seeded(1);
        let n = 200_000u64;
        let sum: u64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let emp = sum as f64 / n as f64;
        let ana = d.mean();
        assert!(
            (emp - ana).abs() / ana < 0.05,
            "empirical {emp} vs analytic {ana}"
        );
    }

    #[test]
    fn offered_load_is_mean_size_over_mean_gap() {
        let spec = WorkloadSpec {
            arrivals: ArrivalProcess::Poisson {
                mean_gap: Nanos::from_micros(100),
            },
            sizes: web_serving(),
            flows: 1,
        };
        let want = spec.sizes.mean() * 8.0 / 100e-6;
        assert!((spec.offered_bps() - want).abs() < 1e-3);
    }

    #[test]
    fn fct_stats_fold_and_merge() {
        let mut a = FctStats::new();
        a.record(Nanos::from_micros(1), Nanos::from_micros(3), 100);
        a.record(Nanos::from_micros(2), Nanos::from_micros(10), 200);
        let mut b = FctStats::new();
        b.record(Nanos::from_micros(5), Nanos::from_micros(6), 50);
        a.merge(&b);
        assert_eq!(a.flows(), 3);
        assert_eq!(a.bytes(), 350);
        assert!(a.fct_permille(500) >= a.fct_permille(1));
        assert!(a.achieved_bps() > 0.0);
        // Empty stats are all-zero.
        let e = FctStats::new();
        assert_eq!(e.flows(), 0);
        assert_eq!(e.fct_permille(990), 0);
        assert_eq!(e.achieved_bps(), 0.0);
    }
}
