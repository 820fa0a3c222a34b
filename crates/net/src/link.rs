//! Links and multi-hop paths.
//!
//! A [`Path`] is a sequence of store-and-forward [`Hop`]s. Each hop
//! serializes the frame at its rate (a FIFO server, so frames queue behind
//! each other), optionally bounded by a drop-tail buffer, then the frame
//! propagates for the hop's delay. This is enough to model everything from
//! a crossover cable to the Sunnyvale–Geneva OC-192/OC-48 circuit.

use crate::impair::{clamp01, DropCause, ImpairState, Impairments};
use tengig_sim::stats::Counter;
use tengig_sim::{Bandwidth, FifoServer, Nanos, SimRng};

/// Static description of one hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// Display name ("xover", "OC-48", …).
    pub name: &'static str,
    /// Serialization rate (payload rate for POS circuits).
    pub rate: Bandwidth,
    /// Propagation delay.
    pub prop: Nanos,
    /// Fixed per-frame forwarding latency (switch/router lookup etc.).
    pub fixed: Nanos,
    /// Egress buffer in bytes; `None` = effectively unbounded.
    pub buffer_bytes: Option<u64>,
    /// Per-frame framing overhead added on this medium (e.g. PPP/HDLC on
    /// POS), in bytes.
    pub framing: u64,
    /// Independent random loss probability per frame (bit errors); the WAN
    /// experiment's premise is that this is ~0 and all loss is congestion.
    pub random_loss: f64,
    /// Composable fault-injection spec ([`crate::impair`]); defaults to
    /// [`Impairments::none`], which costs nothing.
    pub impair: Impairments,
}

impl Hop {
    /// A plain wire at `rate` with propagation `prop` and no buffer limit.
    pub fn wire(name: &'static str, rate: Bandwidth, prop: Nanos) -> Self {
        Hop {
            name,
            rate,
            prop,
            fixed: Nanos::ZERO,
            buffer_bytes: None,
            framing: 0,
            random_loss: 0.0,
            impair: Impairments::none(),
        }
    }

    /// Bound the egress buffer.
    pub fn with_buffer(mut self, bytes: u64) -> Self {
        self.buffer_bytes = Some(bytes);
        self
    }

    /// Add fixed forwarding latency.
    pub fn with_fixed(mut self, fixed: Nanos) -> Self {
        self.fixed = fixed;
        self
    }

    /// Add per-frame media framing overhead.
    pub fn with_framing(mut self, bytes: u64) -> Self {
        self.framing = bytes;
        self
    }

    /// Add a random per-frame loss probability, clamped into `[0, 1]`
    /// (NaN maps to 0 — see [`clamp01`]).
    pub fn with_random_loss(mut self, p: f64) -> Self {
        self.random_loss = clamp01(p);
        self
    }

    /// Attach a fault-injection spec.
    pub fn with_impairments(mut self, impair: Impairments) -> Self {
        self.impair = impair;
        self
    }
}

/// Outcome of offering one frame copy to a hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopOutcome {
    /// The hop forwarded the frame.
    Forward {
        /// Arrival time at the far end of the hop.
        at: Nanos,
        /// The frame was bit-corrupted on this hop (it still travels; the
        /// receiving NIC discards it on the bad FCS).
        corrupted: bool,
        /// The hop minted one duplicate copy of the frame.
        duplicated: bool,
        /// The frame picked up extra reordering latency on this hop.
        reordered: bool,
    },
    /// The hop dropped the frame.
    Drop(DropCause),
}

/// Runtime state of one hop.
#[derive(Debug)]
pub struct HopState {
    /// The hop description.
    pub spec: Hop,
    server: FifoServer,
    /// Frames dropped at this hop (buffer overflow).
    pub drops: Counter,
    /// Frames dropped by the random-loss process.
    pub random_drops: Counter,
    /// Frames forwarded.
    pub forwarded: Counter,
    /// Impairment runtime (burst-loss chain state + per-cause counters).
    pub impair: ImpairState,
}

impl HopState {
    /// Fresh state for a hop.
    pub fn new(spec: Hop) -> Self {
        HopState {
            spec,
            server: FifoServer::new(),
            drops: Counter::default(),
            random_drops: Counter::default(),
            forwarded: Counter::default(),
            impair: ImpairState::new(),
        }
    }

    /// Current backlog in bytes (queue occupancy approximated through the
    /// serialization backlog).
    pub fn backlog_bytes(&self, now: Nanos) -> u64 {
        self.spec.rate.bytes_in(self.server.backlog(now))
    }

    /// Offer a frame to this hop, reporting the full impairment verdict.
    ///
    /// `allow_dup` gates the duplication draw so a walk mints at most one
    /// duplicate per frame. Draw order is fixed and documented:
    /// legacy random loss, then (only when impairments are active) the
    /// flap check (no draw), burst chain, corruption, duplication,
    /// reordering — so un-impaired hops consume exactly the legacy RNG
    /// stream.
    pub fn offer_verdict(
        &mut self,
        now: Nanos,
        wire_bytes: u64,
        rng: &mut SimRng,
        allow_dup: bool,
    ) -> HopOutcome {
        if self.spec.random_loss > 0.0 && rng.chance(self.spec.random_loss) {
            self.random_drops.bump();
            return HopOutcome::Drop(DropCause::Random);
        }
        let active = !self.spec.impair.is_none();
        if active {
            if self.spec.impair.schedule.carrier_down(now) {
                self.impair.flap_drops.bump();
                return HopOutcome::Drop(DropCause::Flap);
            }
            if let Some(ge) = self.spec.impair.burst {
                if self.impair.burst_loss(&ge, rng) {
                    return HopOutcome::Drop(DropCause::Burst);
                }
            }
        }
        let bytes = wire_bytes + self.spec.framing;
        if let Some(cap) = self.spec.buffer_bytes {
            let backlog = self.backlog_bytes(now);
            if backlog + bytes > cap {
                self.drops.bump();
                return HopOutcome::Drop(DropCause::Buffer);
            }
        }
        let service = self.spec.rate.time_to_send(bytes);
        let adm = self.server.admit(now, service);
        self.forwarded.bump();
        let mut at = adm.done + self.spec.prop + self.spec.fixed;
        let mut corrupted = false;
        let mut duplicated = false;
        let mut reordered = false;
        if active {
            let imp = self.spec.impair;
            if imp.corrupt > 0.0 && rng.chance(imp.corrupt) {
                self.impair.corrupts.bump();
                corrupted = true;
            }
            if allow_dup && imp.duplicate > 0.0 && rng.chance(imp.duplicate) {
                self.impair.dups.bump();
                duplicated = true;
            }
            if let Some(r) = imp.reorder {
                if r.probability > 0.0 && rng.chance(r.probability) {
                    let extra = if r.min_extra == r.max_extra {
                        r.min_extra
                    } else {
                        Nanos(rng.range(r.min_extra.as_nanos(), r.max_extra.as_nanos() + 1))
                    };
                    self.impair.reorders.bump();
                    at += extra;
                    reordered = true;
                }
            }
        }
        HopOutcome::Forward {
            at,
            corrupted,
            duplicated,
            reordered,
        }
    }

    /// Utilization of the hop's serializer over `[0, now]`.
    pub fn utilization(&self, now: Nanos) -> f64 {
        self.server.utilization(now)
    }
}

/// A static path description.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Hops in order from sender to receiver.
    pub hops: Vec<Hop>,
}

impl Path {
    /// One-way propagation + fixed latency (excluding serialization).
    pub fn base_latency(&self) -> Nanos {
        self.hops.iter().map(|h| h.prop + h.fixed).sum()
    }

    /// The rate of the slowest hop — the path's bottleneck bandwidth.
    pub fn bottleneck(&self) -> Bandwidth {
        self.hops
            .iter()
            .map(|h| h.rate)
            .min()
            .unwrap_or(Bandwidth::ZERO)
    }

    /// Serialization time for a frame across all hops (store-and-forward).
    pub fn serialization(&self, wire_bytes: u64) -> Nanos {
        self.hops
            .iter()
            .map(|h| h.rate.time_to_send(wire_bytes + h.framing))
            .sum()
    }

    /// Unloaded one-way delay for a frame of `wire_bytes`.
    pub fn one_way(&self, wire_bytes: u64) -> Nanos {
        self.base_latency() + self.serialization(wire_bytes)
    }
}

/// Runtime state of a path: its hop states and the RNG their draws
/// consume. Every walk of a frame, over this path alone or over a route
/// of several, is [`PathState::carry`] moving the frame's copies hop by
/// hop.
#[derive(Debug)]
pub struct PathState {
    /// Hop states in order.
    pub hops: Vec<HopState>,
    rng: SimRng,
}

impl PathState {
    /// Instantiate runtime state for `path`.
    pub fn new(path: &Path, rng: SimRng) -> Self {
        PathState {
            hops: path.hops.iter().map(|&h| HopState::new(h)).collect(),
            rng,
        }
    }

    /// Walk a frame of `wire_bytes` down the path starting at `now`.
    /// Returns the delivery time, or `None` if any hop dropped it.
    ///
    /// Never mints duplicates; a corrupted frame still counts as
    /// delivered here. Callers that model the receiving NIC use
    /// [`PathState::send_verdict`].
    pub fn send(&mut self, now: Nanos, wire_bytes: u64) -> Option<Nanos> {
        let v = self.send_verdict(now, wire_bytes, false);
        v.deliveries[0].map(|d| d.at)
    }

    /// Walk one frame down the path, reporting every copy's fate: the
    /// walk [`PathState::carry`] gives each copy, for the one copy that
    /// enters at `now`.
    pub fn send_verdict(&mut self, now: Nanos, wire_bytes: u64, allow_dup: bool) -> PathVerdict {
        let mut v = PathVerdict::default();
        let entry = Delivery {
            at: now,
            ..Delivery::default()
        };
        self.walk(entry, wire_bytes, allow_dup, &mut v);
        v
    }

    /// Carry a frame's copies across this path, hop by hop: the copies in
    /// `v.deliveries` (each `at` its entry time, its marks those it picked
    /// up upstream) are replaced by those that reach the far end, in walk
    /// order, and every other copy ends in `v`'s drop counts.
    ///
    /// Each copy walks every hop in turn. While the frame has one copy
    /// and `v` records no duplicate, a hop may mint the frame's one
    /// duplicate: it walks on from that hop (queueing behind its parent
    /// in that hop's serializer) once its parent has finished, and it
    /// carries the marks its parent had on entering that hop.
    pub fn carry(&mut self, wire_bytes: u64, v: &mut PathVerdict) {
        let copies = std::mem::take(&mut v.deliveries);
        let mint = copies[1].is_none();
        for c in copies.into_iter().flatten() {
            self.walk(c, wire_bytes, mint && !v.duplicated, v);
        }
    }

    /// Walk copy `entry` from the first hop to the far end, appending it
    /// to `v.deliveries` if it arrives; a duplicate a hop mints (when
    /// `mint` allows one) then walks on from that hop.
    #[inline]
    fn walk(&mut self, entry: Delivery, wire_bytes: u64, mut mint: bool, v: &mut PathVerdict) {
        let mut next = Some((0, entry));
        while let Some((from, c)) = next.take() {
            // Scalar copies of the copy's fields keep the walk in registers.
            let Delivery {
                mut at,
                mut corrupted,
                mut reordered,
            } = c;
            let mut arrived = true;
            for (i, hop) in (from..).zip(self.hops[from..].iter_mut()) {
                match hop.offer_verdict(at, wire_bytes, &mut self.rng, mint) {
                    HopOutcome::Forward {
                        at: out,
                        corrupted: c,
                        duplicated,
                        reordered: r,
                    } => {
                        if duplicated {
                            let dup = Delivery {
                                at,
                                corrupted,
                                reordered,
                            };
                            next = Some((i, dup));
                            mint = false;
                            v.duplicated = true;
                        }
                        at = out;
                        corrupted |= c;
                        reordered |= r;
                    }
                    HopOutcome::Drop(cause) => {
                        v.dropped += 1;
                        if cause.is_impairment() {
                            v.dropped_impair += 1;
                        }
                        arrived = false;
                        break;
                    }
                }
            }
            if arrived {
                let d = Delivery {
                    at,
                    corrupted,
                    reordered,
                };
                v.deliveries[usize::from(v.deliveries[0].is_some())] = Some(d);
            }
        }
    }

    /// Total frames dropped across all hops, every cause included.
    pub fn total_drops(&self) -> u64 {
        self.hops
            .iter()
            .map(|h| h.drops.get() + h.random_drops.get() + h.impair.drops())
            .sum()
    }

    /// Frames dropped by the impairment layer (burst + flap) across all
    /// hops; excludes buffer overflow and legacy random loss.
    pub fn impair_drops(&self) -> u64 {
        self.hops.iter().map(|h| h.impair.drops()).sum()
    }

    /// Duplicate copies minted across all hops.
    pub fn dup_frames(&self) -> u64 {
        self.hops.iter().map(|h| h.impair.dups.get()).sum()
    }

    /// Frames delayed by the reordering model across all hops.
    pub fn reordered_frames(&self) -> u64 {
        self.hops.iter().map(|h| h.impair.reorders.get()).sum()
    }
}

/// One copy of a frame: where a walk hands it in or out
/// ([`PathState::carry`]), and what reached the far end of a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Delivery {
    /// Arrival time at the copy's current position (the far end of the
    /// path, once delivered).
    pub at: Nanos,
    /// The copy was bit-corrupted en route; the receiving NIC will
    /// discard it on the bad FCS before DMA.
    pub corrupted: bool,
    /// The copy picked up reordering latency on some hop.
    pub reordered: bool,
}

/// The fate of every copy of one offered frame, over one path
/// ([`PathState::send_verdict`]) or a route of several, one
/// [`PathState::carry`] per path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathVerdict {
    /// The frame's copies (at most two: the original and one
    /// duplicate): those delivered once the walk ends, those in flight
    /// between two [`PathState::carry`] calls.
    pub deliveries: [Option<Delivery>; 2],
    /// The frame's one duplicate copy was minted during the walk (it may
    /// still have been dropped downstream).
    pub duplicated: bool,
    /// Copies dropped at some hop, any cause.
    pub dropped: u32,
    /// Of [`PathVerdict::dropped`], how many were impairment-caused
    /// (burst or flap) rather than buffer overflow / legacy random loss.
    pub dropped_impair: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbps10() -> Bandwidth {
        Bandwidth::from_gbps(10)
    }

    #[test]
    fn single_wire_delivery_time() {
        let path = Path {
            hops: vec![Hop::wire("xover", gbps10(), Nanos::from_nanos(50))],
        };
        let mut st = PathState::new(&path, SimRng::seeded(1));
        // 1538 wire bytes at 10 Gb/s = 1230.4 → 1231 ns, + 50 ns prop.
        let t = st.send(Nanos::ZERO, 1538).unwrap();
        assert_eq!(t, Nanos(1281));
    }

    #[test]
    fn frames_queue_behind_each_other() {
        let path = Path {
            hops: vec![Hop::wire("xover", gbps10(), Nanos::ZERO)],
        };
        let mut st = PathState::new(&path, SimRng::seeded(1));
        let t1 = st.send(Nanos::ZERO, 12_500).unwrap(); // 10 µs serialization
        let t2 = st.send(Nanos::ZERO, 12_500).unwrap();
        assert_eq!(t1, Nanos::from_micros(10));
        assert_eq!(
            t2,
            Nanos::from_micros(20),
            "second frame waits for the first"
        );
    }

    #[test]
    fn store_and_forward_adds_per_hop_serialization() {
        let two = Path {
            hops: vec![
                Hop::wire("a", gbps10(), Nanos::ZERO),
                Hop::wire("b", gbps10(), Nanos::ZERO),
            ],
        };
        let one = Path {
            hops: vec![Hop::wire("a", gbps10(), Nanos::ZERO)],
        };
        assert_eq!(two.one_way(12_500), one.one_way(12_500) * 2);
    }

    #[test]
    fn drop_tail_buffer_overflow() {
        // 1 Gb/s hop with a 20 KB buffer: a burst of 10 × 9 KB frames
        // overflows.
        let hop = Hop::wire("slow", Bandwidth::from_gbps(1), Nanos::ZERO).with_buffer(20_000);
        let path = Path { hops: vec![hop] };
        let mut st = PathState::new(&path, SimRng::seeded(1));
        let mut delivered = 0;
        for _ in 0..10 {
            if st.send(Nanos::ZERO, 9018).is_some() {
                delivered += 1;
            }
        }
        assert_eq!(
            delivered, 2,
            "only two 9 KB frames fit a 20 KB buffer at t=0"
        );
        assert_eq!(st.total_drops(), 8);
        // After the queue drains, frames flow again.
        let later = Nanos::from_millis(10);
        assert!(st.send(later, 9018).is_some());
    }

    #[test]
    fn bottleneck_and_base_latency() {
        let path = Path {
            hops: vec![
                Hop::wire(
                    "oc192",
                    Bandwidth::from_gbps_f64(9.6),
                    Nanos::from_millis(30),
                ),
                Hop::wire(
                    "oc48",
                    Bandwidth::from_gbps_f64(2.4),
                    Nanos::from_millis(60),
                ),
            ],
        };
        assert_eq!(path.bottleneck(), Bandwidth::from_gbps_f64(2.4));
        assert_eq!(path.base_latency(), Nanos::from_millis(90));
    }

    #[test]
    fn random_loss_drops_roughly_p_fraction() {
        let hop = Hop::wire("lossy", gbps10(), Nanos::ZERO).with_random_loss(0.1);
        let path = Path { hops: vec![hop] };
        let mut st = PathState::new(&path, SimRng::seeded(42));
        let mut dropped = 0;
        for i in 0..10_000u64 {
            if st.send(Nanos::from_micros(10 * i), 1538).is_none() {
                dropped += 1;
            }
        }
        assert!(
            (800..1200).contains(&dropped),
            "dropped {dropped}/10000 at p=0.1"
        );
    }

    #[test]
    fn framing_overhead_charged_per_hop() {
        let plain = Hop::wire("pos", gbps10(), Nanos::ZERO);
        let pos = plain.with_framing(9);
        let p1 = Path { hops: vec![plain] };
        let p2 = Path { hops: vec![pos] };
        assert!(p2.serialization(9018) > p1.serialization(9018));
    }

    #[test]
    fn with_random_loss_clamps_out_of_range_probabilities() {
        // Regression: these used to be stored verbatim, quietly skewing
        // the RNG stream and the drop accounting.
        let h = Hop::wire("h", gbps10(), Nanos::ZERO);
        assert_eq!(h.with_random_loss(1.5).random_loss, 1.0);
        assert_eq!(h.with_random_loss(-0.25).random_loss, 0.0);
        assert_eq!(h.with_random_loss(f64::NAN).random_loss, 0.0);
        // p = 1 (after clamping) drops every frame.
        let path = Path {
            hops: vec![h.with_random_loss(7.0)],
        };
        let mut st = PathState::new(&path, SimRng::seeded(1));
        assert!(st.send(Nanos::ZERO, 1538).is_none());
        assert_eq!(st.total_drops(), 1);
    }

    #[test]
    fn burst_loss_eats_contiguous_runs() {
        use crate::impair::{GilbertElliott, Impairments};
        let hop = Hop::wire("ge", gbps10(), Nanos::ZERO)
            .with_impairments(Impairments::none().with_burst(GilbertElliott::bursty(0.05, 6.0)));
        let path = Path { hops: vec![hop] };
        let mut st = PathState::new(&path, SimRng::seeded(9));
        let mut dropped = 0u64;
        let mut bursts = 0u64;
        let mut prev = false;
        for i in 0..20_000u64 {
            let lost = st.send(Nanos::from_micros(10 * i), 1538).is_none();
            if lost {
                dropped += 1;
                if !prev {
                    bursts += 1;
                }
            }
            prev = lost;
        }
        let rate = dropped as f64 / 20_000.0;
        assert!((0.03..0.07).contains(&rate), "loss rate {rate}");
        let mean_burst = dropped as f64 / bursts as f64;
        assert!((4.0..8.0).contains(&mean_burst), "mean burst {mean_burst}");
        assert_eq!(st.impair_drops(), dropped);
        assert_eq!(st.total_drops(), dropped);
    }

    #[test]
    fn flap_schedule_drops_only_inside_the_window() {
        use crate::impair::{ImpairmentSchedule, Impairments};
        let sched =
            ImpairmentSchedule::none().with_outage(Nanos::from_micros(100), Nanos::from_micros(50));
        let hop = Hop::wire("flappy", gbps10(), Nanos::ZERO)
            .with_impairments(Impairments::none().with_schedule(sched));
        let path = Path { hops: vec![hop] };
        let mut st = PathState::new(&path, SimRng::seeded(1));
        assert!(st.send(Nanos::from_micros(99), 1538).is_some());
        assert!(st.send(Nanos::from_micros(100), 1538).is_none());
        assert!(st.send(Nanos::from_micros(149), 1538).is_none());
        assert!(st.send(Nanos::from_micros(150), 1538).is_some());
        assert_eq!(st.impair_drops(), 2);
        assert_eq!(st.hops[0].impair.flap_drops.get(), 2);
    }

    #[test]
    fn duplication_mints_at_most_one_extra_copy() {
        use crate::impair::Impairments;
        let hop = Hop::wire("dup", gbps10(), Nanos::ZERO)
            .with_impairments(Impairments::none().with_duplicate(1.0));
        let path = Path { hops: vec![hop] };
        let mut st = PathState::new(&path, SimRng::seeded(1));
        let v = st.send_verdict(Nanos::ZERO, 1538, true);
        assert!(v.duplicated);
        let copies: Vec<_> = v.deliveries.iter().flatten().collect();
        assert_eq!(copies.len(), 2, "exactly original + one duplicate");
        // The duplicate queues behind the original on the same serializer.
        assert!(copies[1].at > copies[0].at);
        assert_eq!(st.dup_frames(), 1);
        // Without allow_dup (the legacy send path) no copy is minted.
        let v2 = st.send_verdict(Nanos::from_micros(50), 1538, false);
        assert!(!v2.duplicated);
        assert_eq!(v2.deliveries.iter().flatten().count(), 1);
    }

    #[test]
    fn a_duplicate_keeps_the_marks_its_parent_had_at_the_mint_hop() {
        use crate::impair::{Impairments, Reorder};
        // Hop 0 marks every frame, hop 1 duplicates every frame: the
        // duplicate re-walks only hop 1, so its hop-0 mark can only come
        // from its parent.
        let corrupt = Impairments::none().with_corrupt(1.0);
        let late = Nanos::from_micros(1);
        let reorder = Impairments::none().with_reorder(Reorder::new(1.0, late, late));
        for corrupts in [true, false] {
            let mark = if corrupts { corrupt } else { reorder };
            let path = Path {
                hops: vec![
                    Hop::wire("mark", gbps10(), Nanos::ZERO).with_impairments(mark),
                    Hop::wire("dup", gbps10(), Nanos::ZERO)
                        .with_impairments(Impairments::none().with_duplicate(1.0)),
                ],
            };
            let mut st = PathState::new(&path, SimRng::seeded(1));
            let v = st.send_verdict(Nanos::ZERO, 1538, true);
            let copies: Vec<_> = v.deliveries.iter().flatten().collect();
            assert_eq!(copies.len(), 2, "original + one duplicate");
            let marked = |d: &&Delivery| if corrupts { d.corrupted } else { d.reordered };
            assert!(copies.iter().all(marked), "{copies:?}");
        }
    }

    #[test]
    fn corruption_marks_but_still_delivers_to_the_nic() {
        use crate::impair::Impairments;
        let hop = Hop::wire("dirty", gbps10(), Nanos::ZERO)
            .with_impairments(Impairments::none().with_corrupt(1.0));
        let path = Path { hops: vec![hop] };
        let mut st = PathState::new(&path, SimRng::seeded(1));
        let v = st.send_verdict(Nanos::ZERO, 1538, true);
        let d = v.deliveries[0].expect("corrupted frames still arrive");
        assert!(d.corrupted);
        assert_eq!(v.dropped, 0);
        assert_eq!(st.hops[0].impair.corrupts.get(), 1);
        // The legacy send facade treats it as delivered (it reached the
        // far end; the NIC-level discard is the lab's job).
        assert!(st.send(Nanos::from_micros(10), 1538).is_some());
    }

    #[test]
    fn reordering_delays_a_frame_past_its_successor() {
        use crate::impair::{Impairments, Reorder};
        // Half the frames get exactly 10 µs of extra latency; with sends
        // 5 µs apart a delayed frame lands after its undelayed successor,
        // so reordering shows up as arrival-order inversions.
        let hop = Hop::wire("jitter", gbps10(), Nanos::ZERO).with_impairments(
            Impairments::none().with_reorder(Reorder::new(
                0.5,
                Nanos::from_micros(10),
                Nanos::from_micros(10),
            )),
        );
        let path = Path { hops: vec![hop] };
        let mut st = PathState::new(&path, SimRng::seeded(3));
        let mut inversions = 0;
        let mut prev_arrival = Nanos::ZERO;
        for i in 0..200u64 {
            let v = st.send_verdict(Nanos::from_micros(5 * i), 1538, true);
            let d = v.deliveries[0].expect("no loss configured");
            if d.at < prev_arrival {
                inversions += 1;
            }
            prev_arrival = d.at;
        }
        assert!(inversions > 10, "saw only {inversions} inversions");
        assert!(st.reordered_frames() > 50);
    }

    #[test]
    fn none_impairments_leave_the_rng_stream_untouched() {
        // A path with Impairments::none() must consume exactly the same
        // RNG stream as one built before the impair module existed —
        // byte-identical JSONL across sweeps depends on it.
        let lossy = Hop::wire("l", gbps10(), Nanos::ZERO).with_random_loss(0.3);
        let path = Path { hops: vec![lossy] };
        let mut a = PathState::new(&path, SimRng::seeded(77));
        let mut b = SimRng::seeded(77);
        for i in 0..1000u64 {
            let sent = a.send(Nanos::from_micros(10 * i), 1538).is_some();
            // Reference: the only draw the legacy path makes.
            let dropped = b.chance(0.3);
            assert_eq!(sent, !dropped, "frame {i} diverged");
        }
    }
}
