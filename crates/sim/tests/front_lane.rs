//! Equivalence property for [`FrontLane`]: holding a lane's arrivals
//! back from the calendar, and scheduling only each lane's head, pops
//! exactly what scheduling every arrival at once pops.
//!
//! A script drives one small world twice, once through the lanes and
//! once straight into the calendar's front class. Script steps fire at
//! non-decreasing emission instants. Each step emits wire arrivals onto
//! one of a few lanes, with keys that grow per lane as the lab's
//! emission ordinals do: after a random wire delay (so a later arrival
//! may overtake an earlier one), at exactly the lane's latest arrival
//! time (a tie with the tail), or as two copies of one frame. Steps also
//! schedule normal events at instants arrivals use. Both runs must pop
//! the same `(time, event)` sequence and end on the same clock, and
//! [`FrontLane::advance`] must never hand back a time at or before `now`.

use proptest::prelude::*;
use tengig_sim::{Calendar, FrontLane, LanePool, Nanos};

/// Lanes in a script.
const LANES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Script step `i` runs.
    Step(usize),
    /// The `n`th arrival emitted onto `lane`.
    Arrival { lane: usize, n: u64 },
    /// A normal event that does nothing.
    Normal(usize),
}

/// One script step: the gap to its emission instant from the previous
/// step's, the lane it emits onto, what it does, and a wire delay.
type Step = (u64, usize, u8, u64);

/// One run of a script's world.
struct World {
    cal: Calendar<Ev>,
    /// `None`: schedule every arrival straight into the calendar.
    lanes: Option<[FrontLane; LANES]>,
    /// The events the lanes hold back.
    pool: LanePool<Ev>,
    /// Events held back now.
    held: usize,
    /// Arrivals emitted per lane (the key ordinals).
    emitted: [u64; LANES],
    /// Latest arrival time emitted per lane.
    latest: [Nanos; LANES],
    /// Most arrivals held back at once.
    max_held: usize,
}

impl World {
    fn emit(&mut self, lane: usize, at: Nanos) {
        let n = self.emitted[lane];
        self.emitted[lane] += 1;
        self.latest[lane] = self.latest[lane].max(at);
        let key = ((lane as u64) << 32) | n;
        let ev = Ev::Arrival { lane, n };
        let ev = match &mut self.lanes {
            Some(lanes) => lanes[lane].offer(&mut self.pool, at, key, ev),
            None => Some(ev),
        };
        match ev {
            Some(ev) => {
                self.cal.schedule_front(at, key, ev);
            }
            None => {
                self.held += 1;
                self.max_held = self.max_held.max(self.held);
            }
        }
    }

    fn fire(&mut self, now: Nanos, ev: Ev, script: &[Step]) {
        match ev {
            Ev::Arrival { lane, .. } => {
                if let Some(lanes) = &mut self.lanes {
                    if let Some((at, key, next)) = lanes[lane].advance(&mut self.pool, now) {
                        assert!(at > now, "advance handed back {at} at {now}");
                        self.held -= 1;
                        self.cal.schedule_front(at, key, next);
                    }
                }
            }
            Ev::Step(i) => {
                let (_, lane, kind, delay) = script[i];
                let later = |d: u64| Nanos(now.as_nanos() + d);
                match kind {
                    // A frame after a short wire delay: overtakes and ties.
                    0..=2 => self.emit(lane, later(1 + delay % 8)),
                    // A frame down a long pipe: a deep lane.
                    3..=5 => self.emit(lane, later(40 + delay % 200)),
                    // A frame at exactly the lane's latest arrival time.
                    6 => {
                        let at = self.latest[lane].max(later(1));
                        self.emit(lane, at);
                    }
                    // A duplicated frame: two copies at one instant, or
                    // the second a little later.
                    7 => {
                        let at = later(1 + delay % 100);
                        self.emit(lane, at);
                        let skew = (delay >> 8) % 3;
                        self.emit(lane, Nanos(at.as_nanos() + skew));
                    }
                    // Normal events at now and at an arrival-like instant.
                    _ => {
                        self.cal.schedule(now, Ev::Normal(2 * i));
                        self.cal
                            .schedule(later(1 + delay % 60), Ev::Normal(2 * i + 1));
                    }
                }
                if let Some(&(gap, ..)) = script.get(i + 1) {
                    self.cal.schedule(later(gap), Ev::Step(i + 1));
                }
            }
            Ev::Normal(_) => {}
        }
    }
}

/// Run `script`, through lanes or not; returns the pop sequence, the
/// final clock and the most arrivals the lanes held back at once.
fn run(script: &[Step], lanes: bool) -> (Vec<(Nanos, Ev)>, Nanos, usize) {
    let mut w = World {
        cal: Calendar::new(),
        lanes: lanes.then(|| [FrontLane::new(); LANES]),
        pool: LanePool::new(),
        held: 0,
        emitted: [0; LANES],
        latest: [Nanos::ZERO; LANES],
        max_held: 0,
    };
    let mut pops = Vec::new();
    if let Some(&(gap, ..)) = script.first() {
        w.cal.schedule(Nanos(gap), Ev::Step(0));
    }
    while let Some((now, ev)) = w.cal.pop() {
        pops.push((now, ev));
        w.fire(now, ev, script);
    }
    assert!(w.cal.is_empty());
    assert_eq!(w.held, 0, "the lanes kept arrivals");
    (pops, w.cal.now(), w.max_held)
}

#[test]
fn a_long_pipe_holds_its_arrivals_and_pops_them_unchanged() {
    // One lane, a frame every 2 ns down a 40-239 ns pipe, and every
    // tenth step a normal event: dozens of arrivals wait in the lane.
    let script: Vec<Step> = (0..400u64)
        .map(|i| (2, 0, if i % 10 == 9 { 8 } else { 3 }, i * 7 % 5))
        .collect();
    let (plain, end, _) = run(&script, false);
    let (laned, laned_end, held) = run(&script, true);
    assert!(held >= 10, "the lane held only {held} arrivals");
    assert_eq!(laned, plain);
    assert_eq!(laned_end, end);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lanes pop exactly what the plain front class pops.
    #[test]
    fn lanes_pop_what_the_plain_front_class_pops(
        script in proptest::collection::vec(
            (0u64..4, 0usize..LANES, 0u8..10, 0u64..(1 << 16)),
            1..300,
        )
    ) {
        let (plain, end, _) = run(&script, false);
        let (laned, laned_end, _) = run(&script, true);
        prop_assert_eq!(laned, plain);
        prop_assert_eq!(laned_end, end);
    }
}
