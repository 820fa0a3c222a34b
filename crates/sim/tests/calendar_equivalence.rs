//! Equivalence property for the slab event calendar.
//!
//! The original engine queue was a `BinaryHeap` of `(time, seq)`-ordered
//! entries owning boxed payloads: strict `(time, seq)` pop order, ties
//! FIFO by insertion. The slab calendar replaces it with handle-indexed
//! storage, a 4-ary key heap, tombstone cancellation and in-place timer
//! re-arming — none of which may change
//! the observable order — and adds a keyed front class. This test drives
//! random schedule/re-arm/cancel/pop traces through both queues and
//! asserts identical pop sequences, identical cancellation outcomes, and
//! identical live counts at every step.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tengig_sim::{Calendar, EventId, Nanos};

/// Reference class rank of a front-class event: below every normal one.
const FRONT: u8 = 0;
/// Reference class rank of a normal (or re-armed) event.
const NORMAL: u8 = 1;

/// The pre-overhaul queue, reduced to its ordering semantics and
/// extended by the front class: a binary max-heap on inverted
/// `(time, class, key-or-seq)` keys, payloads owned by the entries.
/// Normal events rank by their insertion counter, front events by the
/// caller's key, and at one instant every front event precedes every
/// normal one. Cancellation (which the old engine lacked) is modeled the
/// straightforward way — an eager sweep of the backing store — so the
/// property checks the tombstone scheme against remove-semantics, not
/// against another lazy implementation of itself.
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(Nanos, u8, u64, u32)>>,
    cancelled: Vec<bool>,
    /// Each payload's deadline, by tag.
    times: Vec<Nanos>,
    seq: u64,
    now: Nanos,
    live: usize,
}

impl ReferenceQueue {
    fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            cancelled: Vec::new(),
            times: Vec::new(),
            seq: 0,
            now: Nanos::ZERO,
            live: 0,
        }
    }

    /// Push a payload (its tag is its position in `cancelled`).
    fn push(&mut self, at: Nanos, class: u8, rank: u64) -> u32 {
        let tag = self.cancelled.len() as u32;
        let at = at.max(self.now);
        self.cancelled.push(false);
        self.times.push(at);
        self.heap.push(Reverse((at, class, rank, tag)));
        self.live += 1;
        tag
    }

    /// Schedule a normal payload, ranked by insertion order.
    fn schedule(&mut self, at: Nanos) -> u32 {
        self.seq += 1;
        self.push(at, NORMAL, self.seq)
    }

    /// Schedule a front-class payload, ranked by `key`.
    fn schedule_front(&mut self, at: Nanos, key: u64) -> u32 {
        self.push(at, FRONT, key)
    }

    /// Whether `tag` is scheduled, not cancelled and not yet popped
    /// ("already popped" shows as absent from the heap).
    fn is_pending(&self, tag: u32) -> bool {
        !self.cancelled[tag as usize] && self.heap.iter().any(|Reverse((_, _, _, t))| *t == tag)
    }

    fn cancel(&mut self, tag: u32) -> bool {
        if !self.is_pending(tag) {
            return false;
        }
        self.cancelled[tag as usize] = true;
        self.live -= 1;
        true
    }

    /// A re-arm is defined as a cancel followed by a schedule.
    fn rearm(&mut self, prev: Option<u32>, at: Nanos) -> u32 {
        if let Some(tag) = prev {
            self.cancel(tag);
        }
        self.schedule(at)
    }

    fn pop(&mut self) -> Option<(Nanos, u32)> {
        while let Some(Reverse((at, _, _, tag))) = self.heap.pop() {
            if self.cancelled[tag as usize] {
                continue;
            }
            self.now = at;
            self.live -= 1;
            return Some((at, tag));
        }
        None
    }
}

/// One step of a random trace, decoded from a `(kind, offset, pick,
/// timer_offset)` tuple: kinds 0-1 schedule at `now + offset` (tiny
/// offsets force heavy timestamp collisions; offset 0 schedules onto the
/// current instant), kind 2 schedules at a medium offset (up to 2^26 ns,
/// so deadlines spread far past the crowded instants), kind 3 re-arms a
/// handle at its own deadline `- 2 ..= +3` ns (earlier, equal and later
/// deadlines; clamped to the clock, so a fired or cancelled handle
/// re-arms onto the current instant), kind 4
/// re-arms a handle up to 2^20 ns later (the RTO pattern, chaining
/// in-place re-arms), kind 5 cancels the `pick`-th id issued so far
/// (live, popped, or already cancelled — all three outcomes must agree
/// across queues), kinds 6-7 schedule a front-class event at
/// `now + 1 + offset` (strictly future, on the same few instants the
/// normal events crowd), and kinds 8-10 pop the earliest live event
/// from both queues.
///
/// A re-arm's `pick` chooses its handle: an even pick re-arms one of
/// [`TIMERS`] timer slots, as the lab re-arms a connection's timer;
/// an odd pick re-arms any id issued so far — a live, fired or
/// cancelled one, a front-class one, or one queued for the current
/// instant. Either way the new handle replaces the slot's.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule { offset: u64 },
    Rearm { pick: usize, offset: i64 },
    ScheduleFront { offset: u64 },
    Cancel { pick: usize },
    Pop,
}

/// Timer slots the re-arm ops chain through.
const TIMERS: usize = 8;

fn decode(kind: u8, offset: u64, pick: usize, timer_offset: u64) -> Op {
    match kind {
        0..=1 => Op::Schedule { offset },
        2 => Op::Schedule {
            offset: timer_offset >> 4,
        },
        3 => Op::Rearm {
            pick,
            offset: offset as i64 - 2,
        },
        4 => Op::Rearm {
            pick,
            offset: (timer_offset >> 10) as i64,
        },
        5 => Op::Cancel { pick },
        6..=7 => Op::ScheduleFront { offset },
        _ => Op::Pop,
    }
}

/// The calendar and the reference queue driven in lockstep.
struct Lockstep {
    cal: Calendar<u32>,
    reference: ReferenceQueue,
    ids: Vec<(EventId, u32)>,
    /// The latest handle re-armed into each timer slot.
    timers: [Option<(EventId, u32)>; TIMERS],
    /// Normal-class events issued so far, schedules and re-arms.
    normals: u64,
    /// Front-class keys issued so far; each key is a bijective scramble
    /// of this count, so keys are unique but arrive out of order.
    fronts: u64,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            cal: Calendar::new(),
            reference: ReferenceQueue::new(),
            ids: Vec::new(),
            timers: [None; TIMERS],
            normals: 0,
            fronts: 0,
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Schedule { offset } => {
                let at = self.cal.now() + Nanos(offset);
                let tag = self.reference.schedule(at);
                let id = self.cal.schedule(at, tag);
                self.ids.push((id, tag));
                self.normals += 1;
            }
            Op::Rearm { pick, offset } => {
                let slot = (pick / 2) % TIMERS;
                let prev = if pick % 2 == 0 || self.ids.is_empty() {
                    self.timers[slot]
                } else {
                    Some(self.ids[(pick / 2) % self.ids.len()])
                };
                let now = self.cal.now();
                let base = match prev {
                    Some((_, tag)) if self.reference.is_pending(tag) => {
                        self.reference.times[tag as usize]
                    }
                    _ => now,
                };
                let at = Nanos(base.as_nanos().saturating_add_signed(offset)).max(now);
                let tag = self.reference.rearm(prev.map(|(_, t)| t), at);
                let id = self.cal.rearm(prev.map(|(id, _)| id), at, tag);
                if let Some((old, _)) = prev {
                    assert_eq!(self.cal.cancel(old), None, "a re-armed handle is inert");
                }
                self.timers[slot] = Some((id, tag));
                self.ids.push((id, tag));
                self.normals += 1;
            }
            Op::ScheduleFront { offset } => {
                let at = self.cal.now() + Nanos(1 + offset);
                // Odd multiplier mod 2^32: a bijection, so no repeats.
                let key = self.fronts.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF;
                self.fronts += 1;
                let tag = self.reference.schedule_front(at, key);
                let id = self.cal.schedule_front(at, key, tag);
                self.ids.push((id, tag));
            }
            Op::Cancel { pick } if !self.ids.is_empty() => {
                let (id, tag) = self.ids[pick % self.ids.len()];
                let got = self.cal.cancel(id);
                let want = self.reference.cancel(tag);
                assert_eq!(got.is_some(), want, "cancel diverged for tag {tag}");
                if let Some(p) = got {
                    assert_eq!(p, tag, "cancel returned the wrong payload");
                }
            }
            Op::Cancel { .. } => {}
            Op::Pop => {
                assert_eq!(self.cal.pop(), self.reference.pop(), "pop order diverged");
            }
        }
        assert_eq!(self.cal.len(), self.reference.live, "live counts diverged");
        assert_eq!(self.cal.now(), self.reference.now, "clocks diverged");
        // Every normal event enters the heap at most once: a re-armed key
        // is forwarded by one stale key, never by two.
        let c = self.cal.prof_counters();
        assert!(
            c.sched_slab <= self.normals,
            "{} keys queued for {} normal events",
            c.sched_slab,
            self.normals
        );
    }

    /// Drain both queues completely: the tails must match too.
    fn drain(&mut self) {
        loop {
            let (a, b) = (self.cal.pop(), self.reference.pop());
            assert_eq!(a, b, "drain order diverged");
            if a.is_none() {
                break;
            }
        }
    }
}

/// A deep same-instant backlog in lockstep: hundreds of keys at `now`,
/// each scheduled from a pop at `now`, interleaved with timers re-armed
/// onto `now`, and normal and front keys for the next instant. The
/// instant already holds 125 normal keys when the clock reaches it, and
/// the heap holds future normal, front and timer keys. Handlers that
/// cascade work onto their own instant build exactly this: every key
/// scheduled at `now` must pop after every key already queued for it.
#[test]
fn deep_same_instant_backlog_matches_the_reference() {
    let mut run = Lockstep::new();
    for i in 0..500u64 {
        run.apply(match i % 4 {
            0 => Op::Schedule { offset: 10 },
            1 => Op::Schedule {
                offset: 11 + i * 7_919 % 997,
            },
            2 => Op::ScheduleFront {
                offset: 10 + i % 50,
            },
            _ => Op::Rearm {
                pick: 2 * (i / 4) as usize,
                offset: 500 + (i % 13) as i64,
            },
        });
    }
    run.apply(Op::Pop);
    let instant = run.cal.now();
    for i in 0..600usize {
        run.apply(Op::Schedule { offset: 0 });
        run.apply(Op::Schedule { offset: 0 });
        if i % 3 == 0 {
            // Far enough back to clamp onto the clock: a pending timer
            // leaves its future deadline for the current instant.
            run.apply(Op::Rearm {
                pick: 2 * i,
                offset: -(1 << 40),
            });
        }
        if i % 5 == 0 {
            run.apply(Op::ScheduleFront { offset: 0 });
        }
        if i % 7 == 0 {
            run.apply(Op::Schedule { offset: 1 });
        }
        run.apply(Op::Pop);
        assert_eq!(run.cal.now(), instant, "the backlog ran dry at step {i}");
    }
    let mut backlog = 0;
    while run.cal.peek_time() == Some(instant) {
        run.apply(Op::Pop);
        backlog += 1;
    }
    assert!(backlog >= 600, "only {backlog} keys left at the instant");
    run.drain();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Identical pop order (FIFO-stable at equal timestamps, front class
    /// first and in key order), identical cancellation results, identical
    /// live counts — across arbitrary interleavings of schedule, re-arm,
    /// keyed front-class schedule, cancel, and pop. The reference re-arm
    /// is a plain cancel plus schedule: this is the proof that re-arming
    /// in place is observationally identical to it.
    #[test]
    fn slab_calendar_matches_the_reference_binary_heap(
        ops in proptest::collection::vec(
            (0u8..11, 0u64..6, 0usize..64, 0u64..(1u64 << 30)),
            1..400,
        )
    ) {
        let mut run = Lockstep::new();
        for (kind, offset, pick, timer_offset) in ops {
            run.apply(decode(kind, offset, pick, timer_offset));
        }
        run.drain();
    }

    /// The same lockstep from a deep start: 1,500-2,000 events of all
    /// three kinds are scheduled before the trace begins, so the 4-ary
    /// heap's sifts run five and more levels deep while front keys,
    /// normal keys and re-armed timers tie on the same few hundred
    /// instants.
    #[test]
    fn deep_mixed_class_calendar_matches_the_reference(
        bulk in proptest::collection::vec((0u8..4, 0u64..400), 1_500..2_000),
        ops in proptest::collection::vec(
            (0u8..11, 0u64..6, 0usize..4_000, 0u64..(1u64 << 30)),
            1..400,
        )
    ) {
        let mut run = Lockstep::new();
        for (kind, at) in bulk {
            run.apply(match kind {
                0..=1 => Op::Schedule { offset: at },
                2 => Op::ScheduleFront { offset: at },
                _ => Op::Rearm { pick: 2 * at as usize, offset: at as i64 - 200 },
            });
        }
        prop_assert!(run.cal.len() >= 1_000, "only {} pending", run.cal.len());
        for (kind, offset, pick, timer_offset) in ops {
            run.apply(decode(kind, offset, pick, timer_offset));
        }
        run.drain();
    }

    /// With no cancellations at all, pop order is exactly the
    /// stable-by-insertion sort of the schedule times.
    #[test]
    fn pop_order_is_a_stable_sort_of_schedule_times(
        times in proptest::collection::vec(0u64..50, 1..200)
    ) {
        let mut cal: Calendar<usize> = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(Nanos(t), i);
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_by_key(|&(t, i)| (t, i));
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| cal.pop().map(|(at, i)| (at.as_nanos(), i))).collect();
        prop_assert_eq!(got, expect);
    }
}
