//! The slab-backed event calendar underneath [`crate::Engine`].
//!
//! Four structural choices keep the hot path allocation- and
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
//! * **Re-arm in place.** A TCP timer is re-armed on nearly every ACK
//!   and almost never fires. [`Calendar::rearm`] is exactly a cancel
//!   followed by a schedule, but while the new deadline is later than
//!   the key the timer's slot already has queued it does no heap work:
//!   the slot keeps its payload place under a bumped generation, and the
//!   new key waits in a per-slot side entry until the queued, now stale
//!   key surfaces and hands it to the heap.
//!
//! The observable order is **exactly** the strict `(time, seq)` order of
//! the original queue, with one addition: a **front class**
//! ([`Calendar::schedule_front`]) whose keys carry a caller-chosen
//! canonical key in place of the insertion counter and sort before every
//! normal key of their instant. Re-arm in place is sound because a
//! deferred key is strictly later than the stale key that forwards it,
//! so it reaches the heap before the clock can reach it, and the heap
//! orders keys by `(time, seq)` regardless of when they arrive. The
//! equivalence (including cancellation and every re-arm case) is pinned
//! by property tests against a reference heap in
//! `crates/sim/tests/calendar_equivalence.rs`.
//!
//! Beside the calendar, a [`FrontLane`] holds a stream of front-class
//! events whose keys only grow, such as one flow endpoint's wire
//! arrivals, in a [`LanePool`], and lets only its head into the heap.

use crate::prof::CalendarCounters;
use crate::time::Nanos;

/// Handle to a scheduled event, returned by the schedule calls and
/// accepted by [`Calendar::cancel`] and [`Calendar::rearm`].
///
/// The generation makes handles ABA-safe: once the event fires or is
/// cancelled, the slot is recycled under a new generation and the old
/// handle turns inert (cancelling it is a no-op returning `None`). An
/// in-place re-arm bumps the generation too, so the handle it replaces
/// goes inert the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// A heap key: everything the ordering needs, nothing it does not.
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

/// What [`Calendar::rearm`] last armed in a slot: the event's key, and
/// the time of the slot's key that sits in the queue for it. That is
/// `key.at` once the key is in the heap. While `queued < key.at` the key
/// is pending: it waits for the stale key queued at `queued` to surface
/// and hand it over.
#[derive(Debug, Clone, Copy)]
struct Armed {
    key: Key,
    queued: Nanos,
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

/// Widen a `u32` slab handle to an indexing `usize`.
/// Checked so a hypothetical sub-32-bit target fails loudly rather than
/// silently truncating an index.
#[inline]
fn widen(v: u32) -> usize {
    usize::try_from(v).expect("u32 does not fit usize on this target")
}

/// A deterministic event calendar: a slab of payloads indexed by a 4-ary
/// min-heap of `(time, seq)` keys, with O(1) tombstone cancellation.
#[derive(Debug)]
pub struct Calendar<T> {
    heap: Vec<Key>,
    slots: Vec<Slot<T>>,
    free_head: u32,
    now: Nanos,
    seq: u64,
    /// Scheduled-and-not-cancelled events (tombstones excluded).
    live: usize,
    /// Side entries of [`Calendar::rearm`], one per slab slot. An entry
    /// speaks for its slot only while its key is live.
    armed: Vec<Option<Armed>>,
    /// Self-profiling counters (see [`CalendarCounters`]):
    /// deterministic, but calendar-private.
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
            slots: Vec::new(),
            free_head: NIL,
            now: Nanos::ZERO,
            seq: 0,
            live: 0,
            armed: Vec::new(),
            prof: CalendarCounters::default(),
        }
    }

    /// Snapshot of the counters accumulated so far.
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
        let Key { slot, gen, .. } = self.schedule_key(at, payload);
        EventId { slot, gen }
    }

    /// [`Calendar::schedule`], returning the key it queued.
    #[inline]
    fn schedule_key(&mut self, at: Nanos, payload: T) -> Key {
        debug_assert!(at >= self.now, "calendar caller must clamp to now");
        let at = at.max(self.now);
        let seq = self.seq | SEQ_NORMAL;
        self.seq += 1;
        let (slot, gen) = self.insert(payload);
        let key = Key { at, seq, slot, gen };
        self.heap_push(key);
        self.prof.sched_slab += 1;
        self.live += 1;
        key
    }

    /// Re-arm a timer: exactly [`Calendar::cancel`]`(prev)` followed by
    /// [`Calendar::schedule`]`(at, payload)`, so the event takes the next
    /// insertion `seq` and pops in the same `(time, seq)` slot. A `prev`
    /// that is `None`, already fired or already cancelled cancels nothing.
    ///
    /// When `prev` is live, was itself armed here, and `at` is later than
    /// the key its slot has queued (its deadline, or the stale key a
    /// pending re-arm waits on), nothing touches the heap: the slot's
    /// generation is bumped (so `prev` and its queued key go stale), the
    /// payload is swapped, and the new key waits in the slot's side
    /// entry. The stale key hands it to the heap when it surfaces, which
    /// is strictly before `at`. Every other case runs the cancel and the
    /// schedule.
    pub fn rearm(&mut self, prev: Option<EventId>, at: Nanos, payload: T) -> EventId {
        debug_assert!(at >= self.now, "calendar caller must clamp to now");
        let at = at.max(self.now);
        let later = prev.and_then(|id| {
            self.armed[widen(id.slot)]
                .filter(|a| a.key.gen == id.gen && a.queued < at && self.is_live(a.key))
        });
        let key = match later {
            Some(Armed { key: old, .. }) => {
                self.prof.cancels += 1;
                self.prof.cancel_hits += 1;
                let Slot::Occupied { payload: p, gen } = &mut self.slots[widen(old.slot)] else {
                    unreachable!("checked live above")
                };
                *gen = gen.wrapping_add(1);
                *p = payload;
                let seq = self.seq | SEQ_NORMAL;
                self.seq += 1;
                Key {
                    at,
                    seq,
                    slot: old.slot,
                    gen: *gen,
                }
            }
            None => {
                if let Some(id) = prev {
                    self.cancel(id);
                }
                self.schedule_key(at, payload)
            }
        };
        let queued = later.map_or(key.at, |a| a.queued);
        self.armed[widen(key.slot)] = Some(Armed { key, queued });
        let Key { slot, gen, .. } = key;
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
    /// Strictly-future is load-bearing: normal events of the current
    /// instant may already have fired, so a front key at `now` could pop
    /// after them and break the class order.
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
    /// still live. The payload is freed now; the key left in the heap
    /// becomes a tombstone discarded lazily on pop.
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
            let &top = self.heap.first()?;
            if self.is_live(top) {
                return Some(top.at);
            }
            self.heap_pop();
            self.forward(top);
        }
    }

    /// Pop the earliest live event in strict `(time, seq)` order,
    /// advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        loop {
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

    #[inline]
    fn is_live(&self, key: Key) -> bool {
        matches!(
            self.slots.get(widen(key.slot)),
            Some(Slot::Occupied { gen, .. }) if *gen == key.gen
        )
    }

    /// Remove the payload behind `key` if the key is live; a stale key
    /// is discarded through [`Calendar::forward`].
    fn take_live(&mut self, key: Key) -> Option<T> {
        if self.is_live(key) {
            let p = self.remove(key.slot);
            self.live -= 1;
            Some(p)
        } else {
            self.forward(key);
            None
        }
    }

    /// A stale key left the queue. If its slot's live tenant was re-armed
    /// in place and its key still waits, push that key now: it is
    /// strictly later than this one, so the heap orders it. Marking it
    /// queued keeps a second stale key of the same slot (an earlier
    /// tenant's tombstone) from pushing it again.
    #[cold]
    fn forward(&mut self, stale: Key) {
        let s = widen(stale.slot);
        if let Some(mut a) = self.armed[s].filter(|a| a.queued < a.key.at && self.is_live(a.key)) {
            debug_assert!(a.key.at > stale.at, "re-armed key not later");
            a.queued = a.key.at;
            self.armed[s] = Some(a);
            self.heap_push(a.key);
            self.prof.sched_slab += 1;
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
            self.armed.push(None);
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

/// A FIFO of front-class events bound for one lane: a stream of
/// [`Calendar::schedule_front`] events whose keys only grow, such as one
/// flow endpoint's wire arrivals. Only the lane's head sits in the
/// calendar; an event strictly later than the lane's tail waits in a
/// [`LanePool`] until its predecessor fires, so a long pipe's in-flight
/// arrivals cost the heap one key instead of one key each.
///
/// The pop order is unchanged. A front key does not consume the
/// insertion counter, so an event's place in the pop order is fixed by
/// its `(at, key)` pair alone, not by when it was scheduled, as long as
/// it is scheduled before its instant. Each held event is strictly later
/// than the one ahead of it, and [`FrontLane::advance`] hands it over
/// when that one fires, so it always reaches the calendar in time.
///
/// The lane is pure data: the caller does the scheduling. Its held
/// events live in a pool that many lanes share, so a lane owns no
/// allocation, and the pool holds no more than the lanes hold at once.
/// `EngineCounters::sched_front` counts an event when it reaches the
/// calendar, so a run stopped with events still held has counted fewer
/// than were emitted.
#[derive(Debug, Clone, Copy)]
pub struct FrontLane {
    /// Time of the lane's event that sits in the calendar.
    head: Option<Nanos>,
    /// The oldest and newest held events (`NIL` when none): a FIFO
    /// linked through the pool's entries, strictly increasing in time.
    first: u32,
    last: u32,
}

/// The events a set of [`FrontLane`]s hold back from the calendar: one
/// slab of entries, each lane's linked through it in FIFO order, freed
/// entries reused.
#[derive(Debug)]
pub struct LanePool<T> {
    held: Vec<Held<T>>,
    free: u32,
}

/// One held event, linked to the next one of its lane (or to the next
/// free entry).
#[derive(Debug, Clone, Copy)]
struct Held<T> {
    at: Nanos,
    key: u64,
    item: T,
    next: u32,
}

impl<T: Copy> Default for LanePool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> LanePool<T> {
    /// An empty pool; allocates nothing until a lane holds an event.
    pub fn new() -> Self {
        LanePool {
            held: Vec::new(),
            free: NIL,
        }
    }

    fn push(&mut self, h: Held<T>) -> u32 {
        if self.free != NIL {
            let i = self.free;
            self.free = self.held[widen(i)].next;
            self.held[widen(i)] = h;
            i
        } else {
            let i = u32::try_from(self.held.len()).ok().filter(|&i| i != NIL);
            let i = i.expect("lane pool exhausted u32 handles");
            self.held.push(h);
            i
        }
    }

    fn take(&mut self, i: u32) -> Held<T> {
        let h = self.held[widen(i)];
        self.held[widen(i)].next = self.free;
        self.free = i;
        h
    }
}

impl Default for FrontLane {
    fn default() -> Self {
        Self::new()
    }
}

impl FrontLane {
    /// An empty lane.
    pub fn new() -> Self {
        FrontLane {
            head: None,
            first: NIL,
            last: NIL,
        }
    }

    /// Offer the lane's next event, bound for `at` under `key`. Returns
    /// the item back when the caller must schedule it now with
    /// `schedule_front(at, key, item)`: it becomes the head of an empty
    /// lane, or it is no later than the lane's tail (a reordered or
    /// same-instant event, which the calendar orders as it always has).
    /// Returns `None` when `pool` holds it behind the lane's tail.
    #[inline]
    pub fn offer<T: Copy>(
        &mut self,
        pool: &mut LanePool<T>,
        at: Nanos,
        key: u64,
        item: T,
    ) -> Option<T> {
        let Some(head) = self.head else {
            self.head = Some(at);
            return Some(item);
        };
        let tail = if self.last == NIL {
            head
        } else {
            pool.held[widen(self.last)].at
        };
        if at <= tail {
            return Some(item);
        }
        let i = pool.push(Held {
            at,
            key,
            item,
            next: NIL,
        });
        if self.last == NIL {
            self.first = i;
        } else {
            pool.held[widen(self.last)].next = i;
        }
        self.last = i;
        None
    }

    /// An event of the lane fired at `now`. If the head was due now, the
    /// next held event (strictly later than `now`) leaves `pool` and
    /// becomes the head, and the caller must schedule it. Calling this
    /// for a fallback event that fires at the head's instant before the
    /// head does is harmless: it only schedules the next event sooner.
    #[inline]
    pub fn advance<T: Copy>(
        &mut self,
        pool: &mut LanePool<T>,
        now: Nanos,
    ) -> Option<(Nanos, u64, T)> {
        if self.head != Some(now) {
            return None;
        }
        if self.first == NIL {
            self.head = None;
            return None;
        }
        let h = pool.take(self.first);
        self.first = h.next;
        if self.first == NIL {
            self.last = NIL;
        }
        self.head = Some(h.at);
        Some((h.at, h.key, h.item))
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
    fn an_event_at_the_current_instant_pops_after_those_already_queued() {
        let mut c: Calendar<u32> = Calendar::new();
        c.schedule(Nanos(5), 1);
        c.schedule(Nanos(5), 2);
        let (at, p) = c.pop().expect("event pending");
        assert_eq!((at, p), (Nanos(5), 1));
        // Scheduled *at* the clock: its fresh seq orders it after key 2.
        c.schedule(Nanos(5), 3);
        assert_eq!(c.pop(), Some((Nanos(5), 2)));
        assert_eq!(c.pop(), Some((Nanos(5), 3)));
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

    #[test]
    fn rearm_at_the_same_deadline_takes_a_fresh_seq() {
        let mut c: Calendar<u32> = Calendar::new();
        let at = Nanos(7_000);
        c.schedule(at, 10); // seq 0
        let t = c.rearm(None, at, 11); // seq 1
                                       // An equal deadline is a cancel plus a schedule: the fresh seq
                                       // orders the timer after the first event and before the last.
        c.rearm(Some(t), at, 12); // seq 2
        c.schedule(at, 13); // seq 3
        let got: Vec<u32> = std::iter::from_fn(|| c.pop().map(|(_, p)| p)).collect();
        assert_eq!(got, vec![10, 12, 13]);
    }

    #[test]
    fn cancel_after_forward_still_returns_the_payload() {
        let mut c: Calendar<u32> = Calendar::new();
        let t = c.rearm(None, Nanos(100), 1);
        let t = c.rearm(Some(t), Nanos(300), 2);
        c.schedule(Nanos(200), 3);
        // Popping the event at 200 surfaces the stale key at 100 first,
        // which hands the re-armed key to the heap.
        assert_eq!(c.pop(), Some((Nanos(200), 3)));
        assert_eq!(c.heap.len(), 1, "the forwarded key is queued");
        assert_eq!(c.cancel(t), Some(2), "handle must survive the forward");
        assert_eq!(c.pop(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn cancelled_timers_never_reach_the_heap() {
        let mut c: Calendar<u32> = Calendar::new();
        // The RTO pattern: every ACK moves the deadline, mostly out but
        // sometimes back in as the RTT estimate falls. Each re-arm later
        // than the first key cancels its predecessor in place, so the
        // heap holds that key alone and the event fires once, at the
        // last deadline.
        let mut id = c.rearm(None, Nanos(1_000), 0);
        for i in 1..1000u32 {
            let at = Nanos(1_500 + u64::from(i) * 7_919 % 499);
            id = c.rearm(Some(id), at, i);
            assert_eq!(
                c.heap.len(),
                1,
                "a re-arm past the queued key does no heap work"
            );
            assert_eq!(c.len(), 1);
        }
        assert_eq!(c.pop(), Some((Nanos(1_500 + 999 * 7_919 % 499), 999)));
        assert_eq!(c.pop(), None);
        assert_eq!(c.cancel(id), None, "the fired handle is inert");
        assert_eq!(
            c.prof_counters().sched_slab,
            2,
            "first key plus one forward"
        );
    }

    #[test]
    fn a_stale_key_forwards_the_current_tenant_at_most_once() {
        let mut c: Calendar<u32> = Calendar::new();
        // An earlier tenant's tombstone at 150 shares the slot with the
        // re-armed tenant, whose own stale key at 50 surfaces first.
        let a = c.schedule(Nanos(150), 1);
        c.cancel(a);
        let t = c.rearm(None, Nanos(50), 2);
        assert_eq!(t.slot, a.slot, "the freelist hands the slot back");
        c.rearm(Some(t), Nanos(200), 3);
        c.schedule(Nanos(100), 4);
        assert_eq!(c.pop(), Some((Nanos(100), 4)));
        assert_eq!(c.heap.len(), 2, "the tombstone at 150 and the forward");
        // The tombstone surfaces next and must not push the key again.
        assert_eq!(c.pop(), Some((Nanos(200), 3)));
        assert!(c.heap.is_empty(), "no duplicate key left behind");
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn front_class_precedes_normals_at_the_same_instant() {
        let mut c: Calendar<u32> = Calendar::new();
        // Normals scheduled first, front keys last and out of key order:
        // the front keys still pop first at their instant, in key order,
        // and FIFO holds among the normals.
        c.schedule(Nanos(10), 1);
        c.schedule(Nanos(10), 2);
        c.rearm(None, Nanos(10), 3);
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

    #[test]
    fn a_lane_holds_only_what_follows_its_tail() {
        let mut pool: LanePool<u32> = LanePool::new();
        let mut l = FrontLane::new();
        assert_eq!(
            l.offer(&mut pool, Nanos(10), 0, 0),
            Some(0),
            "an empty lane schedules"
        );
        assert_eq!(
            pool.held.capacity(),
            0,
            "one event in flight allocates nothing"
        );
        assert_eq!(
            l.offer(&mut pool, Nanos(20), 1, 1),
            None,
            "later than the tail: held"
        );
        assert_eq!(
            l.offer(&mut pool, Nanos(20), 2, 2),
            Some(2),
            "a tie with the tail schedules"
        );
        assert_eq!(
            l.offer(&mut pool, Nanos(15), 3, 3),
            Some(3),
            "a reorder schedules"
        );
        assert_eq!(l.offer(&mut pool, Nanos(30), 4, 4), None);
        assert_ne!(l.first, NIL);
        assert_eq!(
            l.advance(&mut pool, Nanos(15)),
            None,
            "not the head's instant"
        );
        assert_eq!(l.advance(&mut pool, Nanos(10)), Some((Nanos(20), 1, 1)));
        assert_eq!(l.advance(&mut pool, Nanos(10)), None, "the head moved on");
        assert_eq!(l.advance(&mut pool, Nanos(20)), Some((Nanos(30), 4, 4)));
        assert_eq!((l.first, l.last), (NIL, NIL));
        assert_eq!(l.advance(&mut pool, Nanos(30)), None);
        assert_eq!(
            l.offer(&mut pool, Nanos(40), 5, 5),
            Some(5),
            "the drained lane is empty"
        );
    }

    #[test]
    fn lanes_share_the_pool_and_reuse_its_entries() {
        let mut pool: LanePool<u32> = LanePool::new();
        let (mut a, mut b) = (FrontLane::new(), FrontLane::new());
        for (t, lane) in [(10, &mut a), (11, &mut b)] {
            assert!(lane.offer(&mut pool, Nanos(t), 0, 0).is_some());
        }
        // Interleaved holds: each lane keeps its own FIFO order.
        for i in 1..=3u32 {
            let (at, key) = (10 + 10 * u64::from(i), u64::from(i));
            assert_eq!(a.offer(&mut pool, Nanos(at), key, 100 + i), None);
            assert_eq!(b.offer(&mut pool, Nanos(at + 1), key, 200 + i), None);
        }
        assert_eq!(pool.held.len(), 6);
        assert_eq!(a.advance(&mut pool, Nanos(10)), Some((Nanos(20), 1, 101)));
        assert_eq!(b.advance(&mut pool, Nanos(11)), Some((Nanos(21), 1, 201)));
        // A freed entry is reused before the pool grows.
        assert_eq!(a.offer(&mut pool, Nanos(50), 4, 104), None);
        assert_eq!(pool.held.len(), 6);
        let drain = |lane: &mut FrontLane, pool: &mut LanePool<u32>, mut now: Nanos| {
            let mut got = Vec::new();
            while let Some((at, _, item)) = lane.advance(pool, now) {
                got.push(item);
                now = at;
            }
            got
        };
        assert_eq!(drain(&mut a, &mut pool, Nanos(20)), vec![102, 103, 104]);
        assert_eq!(drain(&mut b, &mut pool, Nanos(21)), vec![202, 203]);
        assert_eq!((a.first, b.first), (NIL, NIL));
    }
}
