//! Property tests for the copy walk: random routes of 1–3 links × 1–3
//! hops, every impairment class and small buffers on every hop, walked
//! the way the lab walks a flow's route (one [`PathState::carry`] per
//! link, one [`PathVerdict`] per offered frame).

use proptest::prelude::*;
use tengig_net::{
    Delivery, GilbertElliott, Hop, ImpairmentSchedule, Impairments, Path, PathState, PathVerdict,
    Reorder,
};
use tengig_sim::{Bandwidth, Nanos, SimRng};

/// One hop from its drawn `(classes, percent, buffer, rate)`: each bit
/// of `classes` switches on one impairment class at `percent` strength.
fn hop((classes, pct, buffer, gbps): (u8, u64, u64, u64)) -> Hop {
    let p = pct as f64 / 100.0;
    let on = |bit: u8| classes & (1 << bit) != 0;
    let mut imp = Impairments::none();
    if on(0) {
        imp = imp.with_burst(GilbertElliott::bursty(p / 4.0, 3.0));
    }
    if on(1) {
        let outage =
            ImpairmentSchedule::none().with_outage(Nanos::from_micros(40), Nanos::from_micros(30));
        imp = imp.with_schedule(outage);
    }
    if on(2) {
        imp = imp.with_corrupt(p);
    }
    if on(3) {
        imp = imp.with_duplicate(p);
    }
    if on(4) {
        let extra = Reorder::new(p, Nanos::ZERO, Nanos::from_micros(20));
        imp = imp.with_reorder(extra);
    }
    let mut h = Hop::wire("h", Bandwidth::from_gbps(gbps), Nanos::from_nanos(500))
        .with_buffer(buffer)
        .with_impairments(imp);
    if on(5) {
        h = h.with_random_loss(p / 4.0);
    }
    h
}

/// Every copy in `copies` is marked corrupted.
fn corrupted(copies: &[Option<Delivery>; 2]) -> bool {
    copies.iter().flatten().all(|d| d.corrupted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Per offered frame: every copy ends delivered or dropped, the hops
    /// count exactly the duplicate the verdict reports, and the
    /// corruption mark, once set, stays on the copy and on any duplicate
    /// minted from it.
    #[test]
    fn every_copy_is_accounted_for_and_keeps_its_marks(
        seed in 0u64..1_000_000,
        route in proptest::collection::vec(
            proptest::collection::vec((0u8..64, 0u64..=100, 2_000u64..30_000, 1u64..=10), 1..4),
            1..4,
        ),
        frames in proptest::collection::vec((0u64..8_000, 64u64..=9_018, 0u8..2), 1..80),
    ) {
        let mut links: Vec<PathState> = route
            .iter()
            .zip(seed..)
            .map(|(hops, s)| {
                let path = Path { hops: hops.iter().map(|&h| hop(h)).collect() };
                PathState::new(&path, SimRng::seeded(s))
            })
            .collect();
        let dup_frames = |links: &[PathState]| links.iter().map(|l| l.dup_frames()).sum::<u64>();
        let mut now = Nanos::ZERO;
        for (gap, wire, corrupt) in frames {
            now += Nanos(gap);
            let entry = Delivery {
                at: now,
                corrupted: corrupt == 1,
            };
            let dups_before = dup_frames(&links);
            let mut v = PathVerdict::default();
            v.deliveries[0] = Some(entry);
            for link in &mut links {
                let entering = v.deliveries;
                link.carry(wire, &mut v);
                if corrupted(&entering) {
                    prop_assert!(corrupted(&v.deliveries), "{entering:?} -> {v:?}");
                }
            }
            let arrivals = v.deliveries.iter().flatten().count() as u32;
            prop_assert_eq!(arrivals + v.dropped, 1 + u32::from(v.duplicated));
            prop_assert_eq!(dup_frames(&links) - dups_before, u64::from(v.duplicated));
            for c in v.deliveries.iter().flatten() {
                prop_assert!(c.at > entry.at);
            }
        }
    }
}
