//! Deterministic per-hop fault injection.
//!
//! The paper's WAN results hinge on how TCP survives *pathological* path
//! behavior — correlated loss bursts, reordering, and outright outages —
//! yet an independent Bernoulli drop ([`crate::Hop::with_random_loss`])
//! captures none of that correlation structure. This module provides the
//! missing impairment models, composable per hop via [`Impairments`]:
//!
//! * [`GilbertElliott`] — the classic two-state Markov burst-loss chain.
//!   A hop is either in the *good* or *bad* state; each offered frame is
//!   lost with the state's loss probability, then the chain may flip
//!   state. Mean loss and mean burst length are independent dials
//!   ([`GilbertElliott::bursty`]).
//! * [`Reorder`] — netem-style reordering: with some probability a frame
//!   picks up bounded extra latency, so it arrives *after* frames
//!   serialized later. No reorder queue is needed; the extra delay is the
//!   reordering.
//! * duplication — with probability [`Impairments::duplicate`] a hop
//!   mints one extra copy of a forwarded frame (at most one duplicate per
//!   frame per path walk; the copy queues behind the original).
//! * corruption — with probability [`Impairments::corrupt`] a forwarded
//!   frame is marked bit-damaged. It still occupies the wire and arrives
//!   at the far end, where the receiving NIC's MAC discards it on the bad
//!   FCS *before* DMA — the byte-conservation ledger retires it as a drop
//!   at arrival time, never as a delivery.
//! * [`ImpairmentSchedule`] — time-scripted link flaps: absolute
//!   sim-time carrier-down windows during which every offered frame is
//!   dropped. Flaps draw no randomness at all.
//!
//! # Determinism contract
//!
//! Every random decision draws from the owning path's [`SimRng`], which
//! labs fork from the scenario seed — the impairment pattern is a pure
//! function of `(spec, seed)` and is byte-identical whether a sweep runs
//! on 1 thread or 4. [`Impairments::none`] draws **zero** randomness and
//! schedules zero extra work, so un-impaired scenarios consume exactly
//! the RNG stream and event sequence they did before this module existed.

use tengig_sim::stats::Counter;
use tengig_sim::{Nanos, SimRng};

/// Clamp a probability into `[0.0, 1.0]`; NaN maps to `0.0`.
///
/// Every probability dial in this crate funnels through here so a typo'd
/// `1.5` or a divide-by-zero NaN cannot silently corrupt an RNG stream.
#[inline]
pub fn clamp01(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// Two-state Gilbert–Elliott burst-loss chain.
///
/// The chain sits in the *good* or *bad* state. Each offered frame is
/// first lost with the current state's loss probability, then the chain
/// flips state with the current state's transition probability. With
/// `loss_good = 0` and `loss_bad = 1` (the [`GilbertElliott::bursty`]
/// parameterization) the stationary loss rate is
/// `p_enter_bad / (p_enter_bad + p_exit_bad)` and the mean burst length
/// is `1 / p_exit_bad` frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Probability of flipping good → bad after a frame in the good state.
    pub p_enter_bad: f64,
    /// Probability of flipping bad → good after a frame in the bad state.
    pub p_exit_bad: f64,
    /// Per-frame loss probability while in the good state.
    pub loss_good: f64,
    /// Per-frame loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// The common two-dial parameterization: a target `mean_loss` rate
    /// delivered in bursts of mean length `mean_burst` frames
    /// (`loss_good = 0`, `loss_bad = 1`).
    ///
    /// `mean_loss` is clamped into `[0, 0.5]` and `mean_burst` floored at
    /// 1 so the derived transition probabilities stay valid.
    pub fn bursty(mean_loss: f64, mean_burst: f64) -> Self {
        let p = clamp01(mean_loss).min(0.5);
        let burst = if mean_burst.is_nan() {
            1.0
        } else {
            mean_burst.max(1.0)
        };
        let p_exit_bad = 1.0 / burst;
        // Stationary bad-state occupancy must equal the mean loss:
        // p_enter / (p_enter + p_exit) = p  =>  p_enter = p_exit * p/(1-p).
        let p_enter_bad = if p <= 0.0 {
            0.0
        } else {
            clamp01(p_exit_bad * p / (1.0 - p))
        };
        GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// Stationary mean loss rate of the chain.
    pub fn mean_loss(&self) -> f64 {
        let denom = self.p_enter_bad + self.p_exit_bad;
        if denom <= 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_enter_bad / denom;
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }

    /// Mean bad-state dwell time in frames (the burst-length dial).
    pub fn mean_burst(&self) -> f64 {
        if self.p_exit_bad <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.p_exit_bad
        }
    }
}

/// Bounded-jitter reordering spec.
///
/// With probability `probability` a forwarded frame picks up extra
/// latency drawn uniformly from `[min_extra, max_extra]`, landing it
/// behind frames serialized after it — the receiver sees out-of-order
/// arrivals and emits dup ACKs, exactly the stimulus NewReno's 3-dupack
/// threshold exists to absorb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reorder {
    /// Per-frame probability of being delayed.
    pub probability: f64,
    /// Minimum extra latency for a delayed frame.
    pub min_extra: Nanos,
    /// Maximum extra latency for a delayed frame (inclusive).
    pub max_extra: Nanos,
}

impl Reorder {
    /// A reorder spec; `probability` is clamped into `[0, 1]` and the
    /// window is normalized so `min_extra <= max_extra`.
    pub fn new(probability: f64, min_extra: Nanos, max_extra: Nanos) -> Self {
        let (lo, hi) = if min_extra <= max_extra {
            (min_extra, max_extra)
        } else {
            (max_extra, min_extra)
        };
        Reorder {
            probability: clamp01(probability),
            min_extra: lo,
            max_extra: hi,
        }
    }
}

/// Maximum number of scripted outage windows per schedule.
///
/// A small fixed array keeps [`Impairments`] `Copy` (hop specs are copied
/// by value throughout the lab); four windows cover every flap scenario
/// in the experiment families.
pub const MAX_OUTAGES: usize = 4;

/// Time-scripted link flaps: absolute sim-time windows during which the
/// carrier is down and every offered frame is dropped.
///
/// Flap decisions draw no randomness — an empty schedule is completely
/// free, and a populated one costs a bounded scan of at most
/// [`MAX_OUTAGES`] windows per frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ImpairmentSchedule {
    outages: [Option<(Nanos, Nanos)>; MAX_OUTAGES],
    len: usize,
}

impl ImpairmentSchedule {
    /// An empty schedule (carrier always up).
    pub fn none() -> Self {
        Self::default()
    }

    /// Add a carrier-down window starting at absolute sim time `down_at`
    /// lasting `duration`. Panics if the schedule already holds
    /// [`MAX_OUTAGES`] windows.
    pub fn with_outage(mut self, down_at: Nanos, duration: Nanos) -> Self {
        assert!(
            self.len < MAX_OUTAGES,
            "ImpairmentSchedule holds at most {MAX_OUTAGES} outages"
        );
        self.outages[self.len] = Some((down_at, down_at + duration));
        self.len += 1;
        self
    }

    /// Whether the schedule contains no outage windows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of scripted outage windows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the carrier is down at `now`. Windows are half-open:
    /// `down_at <= now < down_at + duration`.
    pub fn carrier_down(&self, now: Nanos) -> bool {
        self.outages[..self.len]
            .iter()
            .flatten()
            .any(|&(start, end)| start <= now && now < end)
    }

    /// The scripted windows as `(down_at, up_at)` pairs.
    pub fn windows(&self) -> impl Iterator<Item = (Nanos, Nanos)> + '_ {
        self.outages[..self.len].iter().flatten().copied()
    }
}

/// Composable per-hop impairment spec. `Copy`, like the [`crate::Hop`]
/// that carries it.
///
/// The default ([`Impairments::none`]) enables nothing: the fast path
/// checks [`Impairments::is_none`] once and touches neither the RNG nor
/// any per-frame state, so un-impaired runs are bit-for-bit unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Impairments {
    /// Gilbert–Elliott burst loss, if enabled.
    pub burst: Option<GilbertElliott>,
    /// Bounded-jitter reordering, if enabled.
    pub reorder: Option<Reorder>,
    /// Per-frame duplication probability (at most one duplicate is minted
    /// per frame per path walk).
    pub duplicate: f64,
    /// Per-frame bit-corruption probability (frame arrives, NIC drops it
    /// on the bad FCS before DMA).
    pub corrupt: f64,
    /// Scripted carrier-down windows.
    pub schedule: ImpairmentSchedule,
}

impl Impairments {
    /// No impairments at all — the zero-cost, zero-draw default.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether every impairment is disabled (the fast-path check).
    pub fn is_none(&self) -> bool {
        self.burst.is_none()
            && self.reorder.is_none()
            && self.duplicate <= 0.0
            && self.corrupt <= 0.0
            && self.schedule.is_empty()
    }

    /// Enable Gilbert–Elliott burst loss.
    pub fn with_burst(mut self, ge: GilbertElliott) -> Self {
        self.burst = Some(ge);
        self
    }

    /// Enable bounded-jitter reordering.
    pub fn with_reorder(mut self, reorder: Reorder) -> Self {
        self.reorder = Some(reorder);
        self
    }

    /// Set the per-frame duplication probability (clamped into `[0, 1]`).
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = clamp01(p);
        self
    }

    /// Set the per-frame corruption probability (clamped into `[0, 1]`).
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = clamp01(p);
        self
    }

    /// Attach a flap schedule.
    pub fn with_schedule(mut self, schedule: ImpairmentSchedule) -> Self {
        self.schedule = schedule;
        self
    }
}

/// Per-hop impairment runtime: the Gilbert–Elliott state bit plus
/// per-cause counters.
#[derive(Debug, Default)]
pub struct ImpairState {
    /// Whether the burst-loss chain is currently in the bad state.
    in_bad: bool,
    /// Frames eaten by the burst-loss chain.
    pub burst_drops: Counter,
    /// Frames eaten by scripted carrier-down windows.
    pub flap_drops: Counter,
    /// Duplicate copies minted by this hop.
    pub dups: Counter,
    /// Frames delayed by the reordering model.
    pub reorders: Counter,
    /// Frames marked bit-corrupted by this hop.
    pub corrupts: Counter,
}

impl ImpairState {
    /// Fresh state: chain in the good state, all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the Gilbert–Elliott chain by one offered frame; returns
    /// `true` when the frame is lost. Loss is decided with the *current*
    /// state's probability, then the chain may flip — so a burst of mean
    /// length `1/p_exit_bad` frames is eaten contiguously.
    pub fn burst_loss(&mut self, ge: &GilbertElliott, rng: &mut SimRng) -> bool {
        let lose = if self.in_bad {
            rng.chance(ge.loss_bad)
        } else {
            rng.chance(ge.loss_good)
        };
        let flip = if self.in_bad {
            rng.chance(ge.p_exit_bad)
        } else {
            rng.chance(ge.p_enter_bad)
        };
        if flip {
            self.in_bad = !self.in_bad;
        }
        if lose {
            self.burst_drops.bump();
        }
        lose
    }

    /// Total frames dropped by the impairment layer (burst + flap).
    pub fn drops(&self) -> u64 {
        self.burst_drops.get() + self.flap_drops.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp01_normalizes_everything() {
        assert_eq!(clamp01(-0.5), 0.0);
        assert_eq!(clamp01(0.25), 0.25);
        assert_eq!(clamp01(1.5), 1.0);
        assert_eq!(clamp01(f64::NAN), 0.0);
        assert_eq!(clamp01(f64::INFINITY), 1.0);
    }

    #[test]
    fn bursty_parameterization_hits_its_dials() {
        let ge = GilbertElliott::bursty(0.01, 8.0);
        assert!((ge.mean_loss() - 0.01).abs() < 1e-12);
        assert!((ge.mean_burst() - 8.0).abs() < 1e-12);
        assert_eq!(ge.loss_good, 0.0);
        assert_eq!(ge.loss_bad, 1.0);
        // Degenerate dials clamp instead of exploding.
        let z = GilbertElliott::bursty(0.0, 0.0);
        assert_eq!(z.p_enter_bad, 0.0);
        assert_eq!(z.mean_loss(), 0.0);
        let n = GilbertElliott::bursty(f64::NAN, f64::NAN);
        assert_eq!(n.mean_loss(), 0.0);
    }

    #[test]
    fn gilbert_elliott_empirical_loss_and_burst_length() {
        let ge = GilbertElliott::bursty(0.02, 5.0);
        let mut st = ImpairState::new();
        let mut rng = SimRng::seeded(7);
        let n = 200_000u64;
        let mut lost = 0u64;
        let mut bursts = 0u64;
        let mut prev_lost = false;
        for _ in 0..n {
            let l = st.burst_loss(&ge, &mut rng);
            if l {
                lost += 1;
                if !prev_lost {
                    bursts += 1;
                }
            }
            prev_lost = l;
        }
        let rate = lost as f64 / n as f64;
        assert!(
            (rate - 0.02).abs() < 0.005,
            "empirical loss {rate} far from 0.02"
        );
        let mean_burst = lost as f64 / bursts as f64;
        assert!(
            (mean_burst - 5.0).abs() < 1.0,
            "empirical burst {mean_burst} far from 5"
        );
        assert_eq!(st.burst_drops.get(), lost);
    }

    #[test]
    fn schedule_windows_are_half_open_and_bounded() {
        let sched = ImpairmentSchedule::none()
            .with_outage(Nanos(100), Nanos(50))
            .with_outage(Nanos(400), Nanos(10));
        assert_eq!(sched.len(), 2);
        assert!(!sched.carrier_down(Nanos(99)));
        assert!(sched.carrier_down(Nanos(100)));
        assert!(sched.carrier_down(Nanos(149)));
        assert!(!sched.carrier_down(Nanos(150)));
        assert!(sched.carrier_down(Nanos(405)));
        assert!(!sched.carrier_down(Nanos(410)));
        assert_eq!(
            sched.windows().collect::<Vec<_>>(),
            vec![(Nanos(100), Nanos(150)), (Nanos(400), Nanos(410))]
        );
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn schedule_rejects_a_fifth_outage() {
        let mut s = ImpairmentSchedule::none();
        for i in 0..5 {
            s = s.with_outage(Nanos(i * 100), Nanos(10));
        }
    }

    #[test]
    fn none_is_none_and_builders_clamp() {
        assert!(Impairments::none().is_none());
        assert!(!Impairments::none().with_duplicate(0.1).is_none());
        assert!(!Impairments::none().with_corrupt(0.1).is_none());
        assert!(!Impairments::none()
            .with_burst(GilbertElliott::bursty(0.01, 2.0))
            .is_none());
        assert!(!Impairments::none()
            .with_reorder(Reorder::new(0.1, Nanos(1), Nanos(2)))
            .is_none());
        assert!(!Impairments::none()
            .with_schedule(ImpairmentSchedule::none().with_outage(Nanos(1), Nanos(1)))
            .is_none());
        // Out-of-range dials clamp.
        assert_eq!(Impairments::none().with_duplicate(7.0).duplicate, 1.0);
        assert_eq!(Impairments::none().with_corrupt(-3.0).corrupt, 0.0);
        let r = Reorder::new(2.0, Nanos(50), Nanos(10));
        assert_eq!(r.probability, 1.0);
        assert_eq!(r.min_extra, Nanos(10));
        assert_eq!(r.max_extra, Nanos(50));
    }
}
