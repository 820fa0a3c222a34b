//! The slab-backed event calendar underneath [`crate::Engine`].
//!
//! Five structural choices keep the hot path allocation- and
//! comparison-light, replacing the original `BinaryHeap<Box<event>>`:
//!
//! * **Slab storage.** Payloads live in a slab (`Vec` of slots) and are
//!   referenced by `u32` handles; freed slots go on an intrusive freelist
//!   and are reused, so steady-state scheduling performs no allocation
//!   and the heap itself only moves 24-byte copyable keys around.
//! * **A 4-ary key heap.** Half the depth of a binary heap; sifts move a
//!   hole instead of swapping, and a key comparison is one `u128`
//!   compare of `(time, seq)`.
//! * **Cancellation tombstones.** [`Calendar::cancel`] frees the payload
//!   immediately and bumps the slot generation; the key already sitting
//!   in the heap is left behind as a tombstone and discarded lazily when
//!   it surfaces. Cancelling is O(1) instead of an O(n) heap rebuild or
//!   an O(log n) removal.
//! * **Same-timestamp batching.** An event scheduled for the *current*
//!   instant (the overwhelmingly common "immediately after this one"
//!   pattern, plus past-clamped events) bypasses the heap into a FIFO
//!   lane. Draining the lane costs no comparisons, and the keys never
//!   pay sift-up/sift-down traffic.
//! * **A hierarchical timing wheel for far timers.** Protocol timers
//!   (RTO, delayed ACK) are armed hundreds of milliseconds out and almost
//!   always cancelled before they fire; parking their keys in the heap
//!   makes every such tombstone pay an O(log n) sift when it finally
//!   surfaces. [`Calendar::schedule_timer`] parks the key in a
//!   power-of-two-span bucket instead — O(1) insert, O(1) cancel, and a
//!   cancelled key is reaped in bulk when its bucket expires, never
//!   touching the heap at all. Buckets cascade toward the heap as the
//!   clock approaches (see `surface`), so by the time an instant is
//!   popped every timer key for it has been merged into the heap and the
//!   observable order is unchanged.
//!
//! The observable order is **exactly** the strict `(time, seq)` order of
//! the original queue, with one addition: a **front class**
//! ([`Calendar::schedule_front`]) whose keys carry a caller-chosen
//! canonical key in place of the insertion counter and sort before every
//! normal key of their instant. The lane is sound because a key only enters it
//! while the clock already sits at its timestamp, so every heap key with
//! the same timestamp was scheduled earlier and holds a smaller `seq`:
//! draining heap keys at `now` before lane keys reproduces the global
//! sequence order. The wheel is sound because a bucket is flushed into
//! the heap no later than its span's start time, and the heap orders
//! flushed keys by `(time, seq)` regardless of when they arrive. The
//! equivalence (including cancellation and cascade boundaries) is pinned
//! by property tests against a reference heap in
//! `crates/sim/tests/calendar_equivalence.rs`.

use crate::prof::CalendarCounters;
use crate::time::Nanos;
use std::collections::VecDeque;

/// Handle to a scheduled event, returned by the schedule calls and
/// accepted by [`Calendar::cancel`] (via `Engine::cancel`).
///
/// The generation makes handles ABA-safe: once the event fires or is
/// cancelled, the slot is recycled under a new generation and the old
/// handle turns inert (cancelling it is a no-op returning `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// A heap/lane key: everything the ordering needs, nothing it does not.
/// 24 bytes and `Copy`, so sift operations move keys, not payloads.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: Nanos,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl Key {
    /// The `(time, seq)` order as one integer, so a comparison is one
    /// `u128` compare instead of a lexicographic pair.
    #[inline]
    fn rank(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }

    #[inline]
    fn before(&self, other: &Key) -> bool {
        self.rank() < other.rank()
    }
}

/// One slab slot: vacant slots chain through the freelist, occupied slots
/// own the payload. Both carry the slot's current generation.
#[derive(Debug)]
enum Slot<T> {
    Vacant { next_free: u32, gen: u32 },
    Occupied { payload: T, gen: u32 },
}

/// Freelist terminator.
const NIL: u32 = u32::MAX;

/// Class bit composed into every key's sequence number. Normal events
/// carry it set over their FIFO insertion counter; front-class events
/// ([`Calendar::schedule_front`]) carry it clear over the caller's
/// canonical key. Under the strict `(time, seq)` order every front-class
/// key at an instant therefore precedes every normal key at that
/// instant; front keys pop in canonical-key order among themselves and
/// normal keys in FIFO scheduling order.
const SEQ_NORMAL: u64 = 1 << 63;

/// Children per key-heap node. A 4-ary heap is half as deep as a binary
/// one, and a node's four children share one 96-byte run of the key
/// array, so a sift-down touches fewer cache lines per level.
const ARITY: usize = 4;

// ---- timing-wheel geometry ----
//
// Level-0 ticks are `2^WHEEL_SHIFT` ns (≈65.5 µs) and every level packs
// `WHEEL_SLOTS` slots of the level below into one slot, so slot spans grow
// by powers of two: level 0 covers 4.2 ms, level 1 covers 268 ms (delayed
// ACKs), level 2 covers 17 s (RTOs), level 5 covers 52 days. Timers beyond
// the top level park in the farthest top slot and re-park when it expires.

/// log2 of the level-0 tick length in nanoseconds.
const WHEEL_SHIFT: u32 = 16;
/// log2 of the slots per level (64 slots ↔ one `u64` occupancy bitmap).
const WHEEL_LEVEL_BITS: u32 = 6;
/// Slots per level.
const WHEEL_SLOTS: usize = 1 << WHEEL_LEVEL_BITS;
/// Slots per level in the `u64` domain the tick arithmetic runs in,
/// derived from the same shift so no cast is involved.
const WHEEL_SLOTS_U64: u64 = 1 << WHEEL_LEVEL_BITS;
/// Mask extracting a bucket index from an absolute slot number.
const WHEEL_SLOT_MASK: u64 = WHEEL_SLOTS_U64 - 1;
/// Number of levels.
const WHEEL_LEVELS: usize = 6;

/// Widen a `u32` slab handle (or level count) to an indexing `usize`.
/// Checked so a hypothetical sub-32-bit target fails loudly rather than
/// silently truncating an index.
#[inline]
fn widen(v: u32) -> usize {
    usize::try_from(v).expect("u32 does not fit usize on this target")
}

/// Narrow an already-masked absolute slot number to a bucket index. The
/// caller guarantees `v < WHEEL_SLOTS`, so the conversion is exact.
#[inline]
fn bucket_index(v: u64) -> usize {
    debug_assert!(v < WHEEL_SLOTS_U64);
    usize::try_from(v).expect("masked slot number exceeds usize")
}

/// The bit shift selecting `level`'s absolute slot number from a tick.
#[inline]
fn level_shift(level: usize) -> u32 {
    WHEEL_LEVEL_BITS * u32::try_from(level).expect("wheel level exceeds u32")
}

/// A deterministic event calendar: a slab of payloads indexed by a 4-ary
/// min-heap of `(time, seq)` keys, with a FIFO fast lane for events at the
/// current instant and O(1) tombstone cancellation.
#[derive(Debug)]
pub struct Calendar<T> {
    heap: Vec<Key>,
    /// Keys whose `at` equals the current time, in insertion (= seq) order.
    lane: VecDeque<Key>,
    slots: Vec<Slot<T>>,
    free_head: u32,
    now: Nanos,
    seq: u64,
    /// Scheduled-and-not-cancelled events (tombstones excluded).
    live: usize,
    /// Timing-wheel buckets, flat-indexed `level * WHEEL_SLOTS + bucket`.
    /// Empty until the first [`Calendar::schedule_timer`] call, so purely
    /// frame-clocked workloads never pay for the wheel.
    wheel: Vec<Vec<Key>>,
    /// Per-level occupancy bitmaps: bit `b` set ⇔ bucket `b` holds keys.
    wheel_occupied: [u64; WHEEL_LEVELS],
    /// Keys currently parked in wheel buckets, tombstones included.
    wheel_items: usize,
    /// Level-0 tick up to which wheel slots have been surfaced: no parked
    /// key's tick is `<=` this, and it only moves forward through expiry
    /// (or snaps under the clock while the wheel is empty).
    wheel_horizon: u64,
    /// Lower bound on the earliest parked key's timestamp (`u64::MAX`
    /// when the wheel is empty); lets `surface` bail in one compare.
    wheel_next_start: Nanos,
    /// Self-profiling routing counters (see [`CalendarCounters`]):
    /// deterministic, but calendar-private — the slab/lane/wheel split
    /// depends on this calendar's own horizon history.
    prof: CalendarCounters,
}

impl<T> Default for Calendar<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Calendar<T> {
    /// An empty calendar at time zero.
    pub fn new() -> Self {
        Calendar {
            heap: Vec::new(),
            lane: VecDeque::new(),
            slots: Vec::new(),
            free_head: NIL,
            now: Nanos::ZERO,
            seq: 0,
            live: 0,
            wheel: Vec::new(),
            wheel_occupied: [0; WHEEL_LEVELS],
            wheel_items: 0,
            wheel_horizon: 0,
            wheel_next_start: Nanos(u64::MAX),
            prof: CalendarCounters::default(),
        }
    }

    /// Snapshot of the routing counters accumulated so far.
    #[inline]
    pub fn prof_counters(&self) -> CalendarCounters {
        self.prof
    }

    /// Current virtual time; advances only in [`Calendar::pop`] and
    /// [`Calendar::advance_now_to`].
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Live (scheduled, not cancelled, not yet popped) events.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `payload` at absolute time `at`, which the caller must
    /// have clamped to `at >= now`. Returns a handle for cancellation.
    pub fn schedule(&mut self, at: Nanos, payload: T) -> EventId {
        debug_assert!(at >= self.now, "calendar caller must clamp to now");
        let at = at.max(self.now);
        let seq = self.seq | SEQ_NORMAL;
        self.seq += 1;
        let (slot, gen) = self.insert(payload);
        let key = Key { at, seq, slot, gen };
        if at == self.now {
            // Fast lane: every heap key at this timestamp predates (and
            // outranks) every lane key, so FIFO order is (at, seq) order.
            self.lane.push_back(key);
            self.prof.sched_lane += 1;
            let depth = u64::try_from(self.lane.len()).expect("lane depth exceeds u64");
            self.prof.lane_hiwater = self.prof.lane_hiwater.max(depth);
        } else {
            self.heap_push(key);
            self.prof.sched_slab += 1;
        }
        self.live += 1;
        EventId { slot, gen }
    }

    /// Schedule `payload` at absolute time `at` through the timing-wheel
    /// lane. Semantically identical to [`Calendar::schedule`] — same
    /// `(time, seq)` pop order, same handle, same [`Calendar::cancel`] —
    /// but tuned for far-future timers that are usually cancelled before
    /// they fire: the key parks in a wheel bucket (O(1)) and a cancelled
    /// key is reaped when its bucket expires instead of paying heap
    /// sift traffic. Events at or near the current tick fall back to the
    /// heap/lane path.
    pub fn schedule_timer(&mut self, at: Nanos, payload: T) -> EventId {
        debug_assert!(at >= self.now, "calendar caller must clamp to now");
        let at = at.max(self.now);
        if self.wheel_items == 0 {
            // No parked key depends on the cursor: snap it under the
            // clock so level selection sees true distances.
            self.wheel_horizon = self.now.as_nanos() >> WHEEL_SHIFT;
        }
        let tick = at.as_nanos() >> WHEEL_SHIFT;
        if at == self.now || tick <= self.wheel_horizon {
            // Same-instant events must take the FIFO lane (a key parked
            // now would surface into the heap *after* older lane keys and
            // jump them), and the already-surfaced region may not re-park;
            // the heap/lane path is exact for both.
            self.prof.wheel_fallbacks += 1;
            return self.schedule(at, payload);
        }
        let seq = self.seq | SEQ_NORMAL;
        self.seq += 1;
        let (slot, gen) = self.insert(payload);
        self.wheel_park(Key { at, seq, slot, gen });
        self.live += 1;
        self.prof.wheel_parked += 1;
        EventId { slot, gen }
    }

    /// Schedule `payload` at strictly-future time `at` in the **front
    /// class**, ordered by the caller's canonical `key`: at equal
    /// timestamps a front-class event fires before every normal event
    /// (whatever their scheduling order), and front-class events fire in
    /// ascending `key` order among themselves (whatever *their*
    /// scheduling order). The sharded lab schedules every wire arrival
    /// here, keyed by a shard-count-invariant emission ordinal, so the
    /// pop order of an instant's arrivals is a function of the arrival
    /// set alone, never of which shard delivered what first.
    ///
    /// The key replaces the insertion counter as the sequence number, so
    /// front events do not advance it and the relative order of normal
    /// events is the same with or without them. Keys must be unique per
    /// instant (two equal `(at, key)` pairs pop in unspecified order) and
    /// below `2^63`, the normal-class bit.
    ///
    /// Strictly-future is load-bearing: a front key never has to enter
    /// the same-instant FIFO lane (where it would pop *after* older lane
    /// keys and break the class order), so it always goes to the heap.
    pub fn schedule_front(&mut self, at: Nanos, key: u64, payload: T) -> EventId {
        assert!(at > self.now, "front-class events must be strictly future");
        assert!(
            key < SEQ_NORMAL,
            "front-class key collides with the class bit"
        );
        let (slot, gen) = self.insert(payload);
        self.heap_push(Key {
            at,
            seq: key,
            slot,
            gen,
        });
        self.live += 1;
        EventId { slot, gen }
    }

    /// Cancel a scheduled event, returning its payload if the handle was
    /// still live. The payload is freed now; the key left in the heap (or
    /// lane) becomes a tombstone discarded lazily on pop.
    pub fn cancel(&mut self, id: EventId) -> Option<T> {
        self.prof.cancels += 1;
        match self.slots.get(widen(id.slot)) {
            Some(Slot::Occupied { gen, .. }) if *gen == id.gen => {
                let payload = self.remove(id.slot);
                self.live -= 1;
                self.prof.cancel_hits += 1;
                Some(payload)
            }
            _ => None,
        }
    }

    /// Timestamp of the earliest live event, without popping it.
    /// Tombstones encountered on the way are discarded.
    pub fn peek_time(&mut self) -> Option<Nanos> {
        loop {
            self.surface();
            if let Some(&top) = self.heap.first() {
                if top.at == self.now {
                    if self.is_live(top) {
                        return Some(top.at);
                    }
                    self.heap_pop();
                    continue;
                }
            }
            if let Some(&front) = self.lane.front() {
                if self.is_live(front) {
                    return Some(front.at);
                }
                self.lane.pop_front();
                continue;
            }
            let &top = self.heap.first()?;
            if self.is_live(top) {
                return Some(top.at);
            }
            self.heap_pop();
        }
    }

    /// Pop the earliest live event in strict `(time, seq)` order,
    /// advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        loop {
            // Wheel keys that could pop next must be in the heap first;
            // one branch when no timers are parked.
            self.surface();
            // Heap keys at the current instant precede the lane: they
            // were scheduled before the clock reached `now`, so their
            // seqs are smaller than any lane key's.
            if let Some(&top) = self.heap.first() {
                if top.at == self.now {
                    self.heap_pop();
                    if let Some(p) = self.take_live(top) {
                        return Some((top.at, p));
                    }
                    continue;
                }
            }
            if let Some(front) = self.lane.pop_front() {
                debug_assert!(front.at == self.now, "lane key left behind the clock");
                if let Some(p) = self.take_live(front) {
                    return Some((front.at, p));
                }
                continue;
            }
            // Lane drained: the earliest event (if any) sits atop the heap
            // strictly in the future; popping it advances the clock.
            let top = self.heap_pop()?;
            if let Some(p) = self.take_live(top) {
                debug_assert!(top.at >= self.now, "time went backwards");
                self.now = top.at;
                return Some((top.at, p));
            }
        }
    }

    /// Advance the clock without running events, e.g. to pin a measurement
    /// window edge. The caller must ensure no live event is earlier.
    pub fn advance_now_to(&mut self, at: Nanos) {
        debug_assert!(
            self.peek_time().map_or(true, |t| t >= at),
            "advancing the clock over a pending event"
        );
        if at > self.now {
            self.now = at;
        }
    }

    // ---- the timing wheel ----

    /// Park a key in the bucket whose span covers its distance from the
    /// horizon. Caller guarantees `tick(key.at) > wheel_horizon`.
    fn wheel_park(&mut self, key: Key) {
        if self.wheel.is_empty() {
            self.wheel = (0..WHEEL_LEVELS * WHEEL_SLOTS)
                .map(|_| Vec::new())
                .collect();
        }
        let tick = key.at.as_nanos() >> WHEEL_SHIFT;
        debug_assert!(tick > self.wheel_horizon, "parking under the horizon");
        let dist = tick - self.wheel_horizon;
        // floor(log2(dist)) / bits picks the level whose spans cover the
        // distance; beyond the top level, park in the farthest top slot
        // (the key re-parks strictly closer each time that slot expires).
        let mut level = widen((63 - dist.leading_zeros()) / WHEEL_LEVEL_BITS);
        // An unaligned horizon can put the natural level's slot index a
        // full ring ahead of the cursor, where it would alias the cursor
        // bucket; one level up the slot distance is exactly 1.
        if level < WHEEL_LEVELS {
            let shift = level_shift(level);
            if (tick >> shift) - (self.wheel_horizon >> shift) >= WHEEL_SLOTS_U64 {
                level += 1;
            }
        }
        let (level, bucket, start_tick) = if level < WHEEL_LEVELS {
            let shift = level_shift(level);
            let slot_abs = tick >> shift;
            (
                level,
                bucket_index(slot_abs & WHEEL_SLOT_MASK),
                slot_abs << shift,
            )
        } else {
            let top = WHEEL_LEVELS - 1;
            let shift = level_shift(top);
            let slot_abs = (self.wheel_horizon >> shift) + WHEEL_SLOT_MASK;
            (
                top,
                bucket_index(slot_abs & WHEEL_SLOT_MASK),
                slot_abs << shift,
            )
        };
        self.wheel[level * WHEEL_SLOTS + bucket].push(key);
        self.wheel_occupied[level] |= 1u64 << bucket;
        self.wheel_items += 1;
        // Slot starts are lower bounds on their keys' timestamps, so the
        // cache stays a sound lower bound.
        let start = Nanos(start_tick << WHEEL_SHIFT);
        if start < self.wheel_next_start {
            self.wheel_next_start = start;
        }
    }

    /// The occupied slot with the earliest span start, as
    /// `(level, bucket, start_tick)`. Starts are computed cursor-relative
    /// per level, which can only *under*estimate a stale slot's true
    /// start — flushing early is harmless, flushing late never happens.
    fn earliest_wheel_slot(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for level in 0..WHEEL_LEVELS {
            let bits = self.wheel_occupied[level];
            if bits == 0 {
                continue;
            }
            let shift = level_shift(level);
            let cur = self.wheel_horizon >> shift;
            let rot = u32::try_from(cur & WHEEL_SLOT_MASK).expect("masked slot fits u32");
            let dist = u64::from(bits.rotate_right(rot).trailing_zeros());
            let slot_abs = cur + dist;
            if best.map_or(true, |(_, _, s)| (slot_abs << shift) < s) {
                best = Some((
                    level,
                    bucket_index(slot_abs & WHEEL_SLOT_MASK),
                    slot_abs << shift,
                ));
            }
        }
        best
    }

    /// Merge every wheel key that could precede the next heap/lane pop
    /// into the heap: expire occupied slots in span-start order until the
    /// earliest remaining span starts after the heap/lane front. Level-0
    /// slots flush straight to the heap; higher slots cascade their keys
    /// down a level (tombstones are reaped on the way, never sifted).
    #[inline]
    fn surface(&mut self) {
        if self.wheel_items > 0 {
            self.surface_slow();
        }
    }

    fn surface_slow(&mut self) {
        while self.wheel_items > 0 {
            // Wheel keys are strictly beyond `now`, so a non-empty lane
            // (keys *at* `now`) already bounds them out; otherwise the
            // heap top (even a tombstone — the loop in pop/peek clears it
            // and surfaces again) bounds the next pop time.
            let bound = if !self.lane.is_empty() {
                Some(self.now)
            } else {
                self.heap.first().map(|k| k.at)
            };
            if let Some(b) = bound {
                if self.wheel_next_start > b {
                    return;
                }
            }
            let Some((level, bucket, start_tick)) = self.earliest_wheel_slot() else {
                unreachable!("wheel_items > 0 with all bitmaps empty")
            };
            let start = Nanos(start_tick << WHEEL_SHIFT);
            self.wheel_next_start = start;
            if let Some(b) = bound {
                if start > b {
                    return;
                }
            }
            self.wheel_occupied[level] &= !(1u64 << bucket);
            let mut keys = std::mem::take(&mut self.wheel[level * WHEEL_SLOTS + bucket]);
            self.wheel_items -= keys.len();
            self.prof.wheel_cascades += 1;
            if start_tick > self.wheel_horizon {
                self.wheel_horizon = start_tick;
            }
            for key in keys.drain(..) {
                if !self.is_live(key) {
                    continue; // cancelled while parked: reaped in bulk
                }
                if key.at.as_nanos() >> WHEEL_SHIFT <= self.wheel_horizon {
                    self.heap_push(key);
                } else {
                    self.wheel_park(key);
                }
            }
            // Hand the drained vec back so the bucket keeps its capacity
            // (unless a cascading key re-parked into this very bucket).
            if self.wheel[level * WHEEL_SLOTS + bucket].is_empty() {
                self.wheel[level * WHEEL_SLOTS + bucket] = keys;
            }
        }
        self.wheel_next_start = Nanos(u64::MAX);
    }

    #[inline]
    fn is_live(&self, key: Key) -> bool {
        matches!(
            self.slots.get(widen(key.slot)),
            Some(Slot::Occupied { gen, .. }) if *gen == key.gen
        )
    }

    /// Remove the payload behind `key` if the key is live (not a
    /// tombstone), recycling the slot either way it was occupied.
    fn take_live(&mut self, key: Key) -> Option<T> {
        if self.is_live(key) {
            let p = self.remove(key.slot);
            self.live -= 1;
            Some(p)
        } else {
            None
        }
    }

    fn insert(&mut self, payload: T) -> (u32, u32) {
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[widen(slot)];
            let Slot::Vacant { next_free, gen } = *s else {
                unreachable!("freelist points at an occupied slot")
            };
            self.free_head = next_free;
            *s = Slot::Occupied { payload, gen };
            (slot, gen)
        } else {
            assert!(
                self.slots.len() < widen(NIL),
                "calendar slab exhausted u32 handles"
            );
            let slot = u32::try_from(self.slots.len()).expect("guarded: len < u32::MAX");
            self.slots.push(Slot::Occupied { payload, gen: 0 });
            (slot, 0)
        }
    }

    /// Free an occupied slot, bumping its generation so stale keys and
    /// handles go inert, and chain it onto the freelist.
    fn remove(&mut self, slot: u32) -> T {
        let s = &mut self.slots[widen(slot)];
        let next = Slot::Vacant {
            next_free: self.free_head,
            gen: match s {
                Slot::Occupied { gen, .. } => gen.wrapping_add(1),
                Slot::Vacant { .. } => unreachable!("double free of a calendar slot"),
            },
        };
        let Slot::Occupied { payload, .. } = std::mem::replace(s, next) else {
            unreachable!("checked occupied above")
        };
        self.free_head = slot;
        payload
    }

    // ---- the key heap: a 4-ary min-heap over `Key` ----
    //
    // Both sifts move a hole instead of swapping: the travelling key is
    // held aside, each displaced key is written once, and the travelling
    // key lands once at the end.

    fn heap_push(&mut self, key: Key) {
        let mut i = self.heap.len();
        self.heap.push(key);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let up = self.heap[parent];
            if !key.before(&up) {
                break;
            }
            self.heap[i] = up;
            i = parent;
        }
        self.heap[i] = key;
    }

    fn heap_pop(&mut self) -> Option<Key> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            return Some(last);
        };
        // Sift the relocated tail down from the root to its place.
        let heap = &mut self.heap[..];
        let len = heap.len();
        let mut i = 0;
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut child = first;
            for c in first + 1..len.min(first + ARITY) {
                if heap[c].before(&heap[child]) {
                    child = c;
                }
            }
            if !heap[child].before(&last) {
                break;
            }
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = last;
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut c: Calendar<u32> = Calendar::new();
        c.schedule(Nanos(30), 3);
        c.schedule(Nanos(10), 1);
        c.schedule(Nanos(10), 2);
        c.schedule(Nanos(20), 9);
        assert_eq!(c.len(), 4);
        let order: Vec<u32> = std::iter::from_fn(|| c.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 9, 3]);
        assert_eq!(c.now(), Nanos(30));
    }

    #[test]
    fn current_instant_uses_the_lane_and_keeps_global_order() {
        let mut c: Calendar<u32> = Calendar::new();
        c.schedule(Nanos(5), 1);
        c.schedule(Nanos(5), 2);
        let (at, p) = c.pop().expect("event pending");
        assert_eq!((at, p), (Nanos(5), 1));
        // Scheduled *at* the clock: lands in the lane, after key 2.
        c.schedule(Nanos(5), 3);
        assert!(!c.lane.is_empty(), "same-instant event must take the lane");
        assert_eq!(c.pop().map(|(_, p)| p), Some(2));
        assert_eq!(c.pop().map(|(_, p)| p), Some(3));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn cancel_frees_immediately_and_tombstones_the_key() {
        let mut c: Calendar<String> = Calendar::new();
        let a = c.schedule(Nanos(10), "a".to_string());
        c.schedule(Nanos(20), "b".to_string());
        assert_eq!(c.cancel(a), Some("a".to_string()));
        assert_eq!(c.len(), 1);
        // Double-cancel and cancel-after-pop are inert.
        assert_eq!(c.cancel(a), None);
        assert_eq!(c.pop(), Some((Nanos(20), "b".to_string())));
        assert_eq!(c.pop(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn slots_are_reused_through_the_freelist() {
        let mut c: Calendar<u64> = Calendar::new();
        for round in 0..100u64 {
            let at = Nanos(round + 1);
            c.schedule(at, round);
            let (_, p) = c.pop().expect("just scheduled");
            assert_eq!(p, round);
        }
        assert_eq!(c.slots.len(), 1, "steady-state churn must reuse one slot");
    }

    #[test]
    fn stale_handle_after_reuse_does_not_cancel_the_new_tenant() {
        let mut c: Calendar<u32> = Calendar::new();
        let a = c.schedule(Nanos(10), 1);
        c.pop();
        // Slot reused under a new generation.
        let _b = c.schedule(Nanos(20), 2);
        assert_eq!(c.cancel(a), None, "old handle must be inert");
        assert_eq!(c.pop().map(|(_, p)| p), Some(2));
    }

    /// One level-0 tick in nanoseconds, for boundary arithmetic below.
    const TICK: u64 = 1 << WHEEL_SHIFT;

    #[test]
    fn wheel_timers_pop_in_global_time_seq_order() {
        let mut c: Calendar<u32> = Calendar::new();
        // Interleave slab events and wheel timers across cascade
        // boundaries: one tick, a level-0 wrap, a level-1 wrap, and a
        // same-timestamp collision between the two lanes.
        c.schedule(Nanos(3 * TICK), 1);
        c.schedule_timer(Nanos(3 * TICK), 2); // same instant, later seq
        c.schedule_timer(Nanos(TICK + 5), 3);
        c.schedule_timer(Nanos(64 * TICK), 4); // level-1 territory
        c.schedule_timer(Nanos(64 * 64 * TICK + 9), 5); // level-2 territory
        c.schedule(Nanos(2), 0);
        let got: Vec<u32> = std::iter::from_fn(|| c.pop().map(|(_, p)| p)).collect();
        assert_eq!(got, vec![0, 3, 1, 2, 4, 5]);
        assert!(c.is_empty());
    }

    #[test]
    fn cancelled_wheel_timer_rearmed_at_the_same_tick_preserves_fifo() {
        let mut c: Calendar<u32> = Calendar::new();
        let at = Nanos(7 * TICK + 3);
        c.schedule(at, 10); // slab event, seq 0
        let t = c.schedule_timer(at, 11); // timer, seq 1
        assert_eq!(c.cancel(t), Some(11));
        // Re-armed at the same tick: the fresh seq must order it after
        // the slab event and before anything scheduled later.
        c.schedule_timer(at, 12); // seq 2
        c.schedule(at, 13); // slab event, seq 3
        let got: Vec<u32> = std::iter::from_fn(|| c.pop().map(|(_, p)| p)).collect();
        assert_eq!(got, vec![10, 12, 13]);
    }

    #[test]
    fn cancel_after_cascade_still_returns_the_payload() {
        let mut c: Calendar<u32> = Calendar::new();
        // A timer two level-1 slots out, and a slab event between here
        // and there: popping the slab event forces the wheel to cascade
        // the timer's level-1 slot down to level 0 / the heap.
        let t = c.schedule_timer(Nanos(130 * TICK), 1);
        c.schedule(Nanos(129 * TICK), 2);
        assert_eq!(c.pop(), Some((Nanos(129 * TICK), 2)));
        assert_eq!(c.cancel(t), Some(1), "handle must survive the cascade");
        assert_eq!(c.pop(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn timers_beyond_the_top_level_span_repark_and_still_fire_exactly() {
        let mut c: Calendar<u32> = Calendar::new();
        // ~104 days out: past the 52-day top-level span, so the key parks
        // in the farthest top slot and re-parks as the clock approaches.
        let far = Nanos(1 << 53);
        c.schedule_timer(far, 1);
        assert_eq!(c.peek_time(), Some(far));
        assert_eq!(c.pop(), Some((far, 1)));
        assert_eq!(c.now(), far);
    }

    #[test]
    fn cancelled_timers_never_reach_the_heap() {
        let mut c: Calendar<u32> = Calendar::new();
        // Arm-then-cancel churn, the RTO pattern: the heap must stay
        // empty the whole time — that is the point of the wheel lane.
        for i in 0..1000u32 {
            let id = c.schedule_timer(Nanos(3_000_000 + u64::from(i)), i);
            assert_eq!(c.cancel(id), Some(i));
        }
        assert!(c.heap.is_empty(), "parked tombstones must not hit the heap");
        assert!(c.is_empty());
        assert_eq!(c.pop(), None);
        assert_eq!(c.wheel_items, 0, "drain must reap every tombstone");
    }

    #[test]
    fn front_class_precedes_normals_at_the_same_instant() {
        let mut c: Calendar<u32> = Calendar::new();
        // Normals scheduled first, front keys last and out of key order:
        // the front keys still pop first at their instant, in key order,
        // and FIFO holds among the normals.
        c.schedule(Nanos(10), 1);
        c.schedule(Nanos(10), 2);
        c.schedule_timer(Nanos(10), 3);
        c.schedule_front(Nanos(10), 9, 101);
        c.schedule_front(Nanos(10), 4, 100);
        c.schedule(Nanos(5), 0);
        let got: Vec<u32> = std::iter::from_fn(|| c.pop().map(|(_, p)| p)).collect();
        assert_eq!(got, vec![0, 100, 101, 1, 2, 3]);
        assert_eq!(c.now(), Nanos(10));
    }

    #[test]
    fn front_class_keys_do_not_advance_the_insertion_counter() {
        let mut c: Calendar<u32> = Calendar::new();
        c.schedule(Nanos(10), 1);
        c.schedule_front(Nanos(20), 0, 7);
        c.schedule(Nanos(10), 2);
        assert_eq!(c.seq, 2, "only normal events consume sequence numbers");
    }

    #[test]
    fn front_class_keys_can_be_cancelled() {
        let mut c: Calendar<u32> = Calendar::new();
        let f = c.schedule_front(Nanos(10), 0, 7);
        c.schedule(Nanos(10), 8);
        assert_eq!(c.cancel(f), Some(7));
        assert_eq!(c.pop(), Some((Nanos(10), 8)));
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly future")]
    fn front_class_rejects_the_current_instant() {
        let mut c: Calendar<u32> = Calendar::new();
        c.schedule(Nanos(5), 1);
        c.pop();
        c.schedule_front(Nanos(5), 0, 2);
    }

    #[test]
    #[should_panic(expected = "class bit")]
    fn front_class_rejects_a_key_with_the_class_bit() {
        let mut c: Calendar<u32> = Calendar::new();
        c.schedule_front(Nanos(5), SEQ_NORMAL, 1);
    }

    #[test]
    fn deep_heap_pops_in_rank_order() {
        // Enough keys for the 4-ary sifts to run several levels deep,
        // scheduled in a scrambled time order with heavy ties.
        let mut c: Calendar<u64> = Calendar::new();
        let mut expect = Vec::new();
        for i in 0..5_000u64 {
            let at = Nanos(1 + (i * 7919) % 613);
            c.schedule(at, i);
            expect.push((at, i));
        }
        expect.sort_by_key(|&(at, i)| (at, i));
        let got: Vec<(Nanos, u64)> = std::iter::from_fn(|| c.pop()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn peek_time_skips_tombstones() {
        let mut c: Calendar<u32> = Calendar::new();
        let a = c.schedule(Nanos(10), 1);
        c.schedule(Nanos(30), 3);
        c.cancel(a);
        assert_eq!(c.peek_time(), Some(Nanos(30)));
        assert_eq!(c.pop().map(|(at, _)| at), Some(Nanos(30)));
        assert_eq!(c.peek_time(), None);
    }
}
