//! Conservative parallel-DES shard runner.
//!
//! One simulation is partitioned into `N` shards, each owning a disjoint
//! set of model entities and its own [`crate::Engine`] calendar. The
//! shards advance in lockstep through **lookahead windows**: every
//! cross-shard interaction travels over a link whose latency is bounded
//! below by `lookahead`, so when the globally earliest pending event sits
//! at `T`, every event in `[T, T + lookahead)` can be executed without
//! hearing from any other shard — a message emitted at or after `T`
//! cannot arrive before `T + lookahead`. This is the classical
//! conservative synchronization argument (CMB windows); the lookahead
//! bound comes for free from the physical topology.
//!
//! A round costs **one barrier**. Next-time slots and inboxes come in
//! two parity buffers; in a round of parity `p` each shard reads the
//! global minimum of `slots[p]`, drains `inbox[p][me]`, runs its window,
//! pushes what it flushed into `inbox[1-p][dst]`, publishes
//! `min(own next event, earliest arrival it just sent)` to
//! `slots[1-p][me]`, and waits once. The sender counts every in-flight
//! arrival, so a receiver that has not accepted it yet may publish
//! "drained" without the minimum (and so the window sequence) changing;
//! and no slot or inbox is written in a round that reads it, so one
//! barrier per round orders every write before the read that needs it.
//!
//! Determinism contract: [`run_sharded`] delivers each round's messages
//! to a destination shard in an **unspecified order** (senders race for
//! the inbox lock). Implementors of [`ShardWorld::accept`] must therefore
//! be order-insensitive — the lab layer schedules every arrival in the
//! calendar's canonically keyed front class
//! ([`crate::Calendar::schedule_front`]), so the executed schedule is a
//! pure function of the message *set*, never of thread interleaving.
//! Under that contract the runner itself is deterministic at any shard
//! count: window boundaries are computed from published next-event times
//! with integer arithmetic only, identically on every shard.
//!
//! Every shard count runs the same round loop. The caller's thread runs
//! shard 0 and a scoped worker runs each other shard, so `shards = 1`
//! spawns no thread, and its rounds add to a plain
//! [`crate::Engine::run`] loop only the window bookkeeping, an
//! uncontended inbox lock and a barrier that never waits.

use crate::prof::{wall_now_ns, WallStats};
use crate::time::Nanos;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A shard's view of the world: one calendar's worth of owned entities
/// plus the cross-shard message surface.
pub trait ShardWorld {
    /// A cross-shard message (an arrival bound for an entity another
    /// shard owns).
    type Msg: Send;

    /// Timestamp of this shard's earliest pending event, or `None` when
    /// its calendar has drained.
    fn next_time(&mut self) -> Option<Nanos>;

    /// Execute every local event strictly before `end` (the exclusive
    /// window edge), leaving later events queued.
    fn run_window(&mut self, end: Nanos);

    /// Drain the messages this shard emitted during the last window, as
    /// `(destination shard, arrival time, message)` triples. Arrival
    /// times must honor the lookahead bound: a message emitted at `t`
    /// arrives no earlier than `t + lookahead`.
    fn flush(&mut self) -> Vec<(usize, Nanos, Self::Msg)>;

    /// Ingest one cross-shard message arriving at `at`. Called before
    /// the next window opens; the calendar must end up with an event
    /// covering the arrival. Messages from different source shards are
    /// delivered in unspecified order — implementations must produce
    /// identical schedules for any permutation of one round's batch.
    fn accept(&mut self, at: Nanos, msg: Self::Msg);
}

/// Slot value meaning "this shard's calendar has drained".
const DRAINED: u64 = u64::MAX;

/// A sense-reversing spin barrier with panic poisoning: a worker that
/// unwinds poisons the barrier instead of leaving its peers blocked
/// forever, so a model assertion inside one shard fails the whole run
/// promptly instead of deadlocking the test harness.
struct RoundBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    poisoned: AtomicBool,
}

impl RoundBarrier {
    fn new(parties: usize) -> Self {
        RoundBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
    }

    /// Block until all parties arrive. Panics if any party poisoned the
    /// barrier (its own panic is already propagating through the scope).
    fn wait(&self) {
        let gen = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.parties {
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.store(gen + 1, Ordering::SeqCst);
            return;
        }
        while self.generation.load(Ordering::SeqCst) == gen {
            assert!(
                !self.poisoned.load(Ordering::SeqCst),
                "a peer shard panicked mid-window"
            );
            std::thread::yield_now();
        }
        assert!(
            !self.poisoned.load(Ordering::SeqCst),
            "a peer shard panicked mid-window"
        );
    }
}

/// A shard's mailbox of timestamped cross-shard messages: filled in one
/// round, drained whole at the top of the next.
type Inbox<M> = Mutex<Vec<(Nanos, M)>>;

/// Poisons the barrier when dropped during a panic unwind.
struct PoisonOnPanic<'a>(&'a RoundBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Compute the minimum published next-event time across all shards.
fn global_min(slots: &[AtomicU64]) -> u64 {
    let mut min = DRAINED;
    for s in slots {
        min = min.min(s.load(Ordering::SeqCst));
    }
    min
}

/// Run `shards` to completion under conservative lookahead windows.
///
/// `lookahead` must be a strictly positive lower bound on every
/// cross-shard link latency: each round executes the window
/// `[T_min, T_min + lookahead)` on every shard in parallel, where
/// `T_min` is the globally earliest pending event. Messages emitted in a
/// window arrive at or after its exclusive edge, so no shard ever
/// receives an arrival for an instant it has already executed past.
///
/// Shard 0 runs on the caller's thread, so a single shard spawns no
/// thread and runs the same round loop as any other shard count.
pub fn run_sharded<S: ShardWorld + Send>(shards: &mut [S], lookahead: Nanos) {
    run_sharded_wall(shards, lookahead, None);
}

/// [`run_sharded`] with the optional wall-time profiling plane.
///
/// When `wall` is `Some`, it must hold one [`WallStats`] slot per shard;
/// each worker accumulates its own barrier-wait and window-execute wall
/// time into its slot via [`wall_now_ns`] — the single trusted wall-clock
/// boundary. The readings are strictly observational: they are taken
/// *around* the barrier and the window, never inside model code, and
/// nothing downstream of them reaches a calendar, so the executed
/// schedule (and every golden-gated byte) is identical whether `wall` is
/// `Some` or `None`. When `wall` is `None` no clock is ever read — the
/// disabled plane costs zero.
pub fn run_sharded_wall<S: ShardWorld + Send>(
    shards: &mut [S],
    lookahead: Nanos,
    wall: Option<&mut [WallStats]>,
) {
    assert!(!shards.is_empty(), "run_sharded needs at least one shard");
    assert!(
        lookahead > Nanos::ZERO,
        "conservative windows need strictly positive lookahead"
    );
    if let Some(ws) = &wall {
        assert!(
            ws.len() == shards.len(),
            "wall-stats slots must match shard count"
        );
    }
    let n = shards.len();
    // Disjoint per-shard wall slots (or one `None` per shard).
    let wall_slots: Vec<Option<&mut WallStats>> = match wall {
        Some(ws) => ws.iter_mut().map(Some).collect(),
        None => (0..n).map(|_| None).collect(),
    };
    // Parity-buffered next-time slots and inboxes (see the module docs).
    // Round 0 reads parity 0, seeded here before any shard starts.
    let slots: [Vec<AtomicU64>; 2] = [
        shards
            .iter_mut()
            .map(|w| AtomicU64::new(w.next_time().map_or(DRAINED, |t| t.as_nanos())))
            .collect(),
        (0..n).map(|_| AtomicU64::new(DRAINED)).collect(),
    ];
    let inboxes: [Vec<Inbox<S::Msg>>; 2] =
        [0, 1].map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect());
    let barrier = RoundBarrier::new(n);
    // Shard `i`'s round loop (see the module docs), until every shard
    // has drained.
    let rounds = |i: usize, world: &mut S, mut wslot: Option<&mut WallStats>| {
        let poison = PoisonOnPanic(&barrier);
        // Clock reads sit on the barrier's two edges, so a round takes
        // two: execute is everything from one barrier exit to the next
        // arrival (window negotiation, inbox drain, the window, outbox
        // delivery), barrier is the wait.
        let mut t_exit = wslot.as_ref().map(|_| wall_now_ns());
        let mut p = 0;
        loop {
            let t_min = global_min(&slots[p]);
            if t_min == DRAINED {
                break;
            }
            let batch = {
                let mut guard = inboxes[p][i].lock().expect("shard inbox lock poisoned");
                std::mem::take(&mut *guard)
            };
            for (at, msg) in batch {
                world.accept(at, msg);
            }
            let end = Nanos(t_min).saturating_add(lookahead);
            world.run_window(end);
            let mut next = world.next_time().map_or(DRAINED, |t| t.as_nanos());
            for (dst, at, msg) in world.flush() {
                debug_assert!(
                    at >= end,
                    "lookahead violated: arrival at {at} inside window ending {end}"
                );
                next = next.min(at.as_nanos());
                let mut guard = inboxes[1 - p][dst]
                    .lock()
                    .expect("shard inbox lock poisoned");
                guard.push((at, msg));
            }
            slots[1 - p][i].store(next, Ordering::SeqCst);
            let t_arrive = wslot.as_ref().map(|_| wall_now_ns());
            barrier.wait();
            let t_leave = wslot.as_ref().map(|_| wall_now_ns());
            if let (Some(w), Some(t0), Some(t1), Some(t2)) =
                (wslot.as_deref_mut(), t_exit, t_arrive, t_leave)
            {
                w.windows += 1;
                w.execute_ns += t1.saturating_sub(t0);
                w.barrier_wait_ns += t2.saturating_sub(t1);
            }
            t_exit = t_leave;
            p = 1 - p;
        }
        drop(poison);
    };
    // The caller's thread runs shard 0; a scoped worker runs each other
    // shard.
    std::thread::scope(|scope| {
        let mut shards = shards.iter_mut().zip(wall_slots).enumerate();
        let (_, (first, first_slot)) = shards.next().expect("at least one shard");
        for (i, (world, wslot)) in shards {
            let rounds = &rounds;
            scope.spawn(move || rounds(i, world, wslot));
        }
        rounds(0, first, first_slot);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy shard: a sorted list of (time, value) events; every event
    /// with an odd value mirrors itself to the peer shard `lookahead`
    /// later. The log records (time, value) in execution order.
    struct Toy {
        id: usize,
        peers: usize,
        pending: Vec<(Nanos, u64)>,
        emitted: Vec<(usize, Nanos, u64)>,
        log: Vec<(Nanos, u64)>,
    }

    const LOOK: Nanos = Nanos(100);

    impl Toy {
        fn new(id: usize, peers: usize, events: Vec<(Nanos, u64)>) -> Self {
            Toy {
                id,
                peers,
                pending: events,
                emitted: Vec::new(),
                log: Vec::new(),
            }
        }
    }

    impl ShardWorld for Toy {
        type Msg = u64;

        fn next_time(&mut self) -> Option<Nanos> {
            self.pending.iter().map(|&(t, _)| t).min()
        }

        fn run_window(&mut self, end: Nanos) {
            // Execute in (time, value) order — a stand-in for (time, seq).
            while let Some(&(t, v)) = self
                .pending
                .iter()
                .filter(|&&(t, _)| t < end)
                .min_by_key(|&&(t, v)| (t, v))
            {
                self.pending.retain(|&e| e != (t, v));
                self.log.push((t, v));
                // Odd values mirror once; the mirror (even) terminates.
                if v % 2 == 1 {
                    let dst = (self.id + 1) % self.peers;
                    self.emitted.push((dst, t.saturating_add(LOOK), v + 1));
                }
            }
        }

        fn flush(&mut self) -> Vec<(usize, Nanos, u64)> {
            std::mem::take(&mut self.emitted)
        }

        fn accept(&mut self, at: Nanos, msg: u64) {
            self.pending.push((at, msg));
        }
    }

    #[test]
    fn single_shard_runs_to_completion_inline() {
        let mut shards = vec![Toy::new(
            0,
            1,
            vec![(Nanos(10), 2), (Nanos(5), 1), (Nanos(10), 4)],
        )];
        run_sharded(&mut shards, LOOK);
        // The odd event at t=5 mirrors to itself at t=105.
        assert_eq!(
            shards[0].log,
            vec![
                (Nanos(5), 1),
                (Nanos(10), 2),
                (Nanos(10), 4),
                (Nanos(105), 2)
            ]
        );
    }

    #[test]
    fn two_shards_exchange_messages_and_both_drain() {
        let mut shards = vec![
            Toy::new(0, 2, vec![(Nanos(5), 1)]),
            Toy::new(1, 2, vec![(Nanos(7), 3)]),
        ];
        run_sharded(&mut shards, LOOK);
        // Shard 0's odd event lands on shard 1 at 105; shard 1's at 107
        // lands on shard 0; both mirrored values are even, so it stops.
        assert_eq!(shards[0].log, vec![(Nanos(5), 1), (Nanos(107), 4)]);
        assert_eq!(shards[1].log, vec![(Nanos(7), 3), (Nanos(105), 2)]);
    }

    #[test]
    fn four_shards_match_the_single_shard_union() {
        // The same global event set partitioned 1-way and 4-way must
        // execute the same (time, value) multiset even though messages
        // ping around the ring.
        let events = [
            (Nanos(5), 1),
            (Nanos(9), 7),
            (Nanos(12), 2),
            (Nanos(40), 9),
            (Nanos(41), 11),
            (Nanos(300), 6),
        ];
        let run = |ways: usize| -> Vec<(Nanos, u64)> {
            let mut shards: Vec<Toy> = (0..ways)
                .map(|i| {
                    Toy::new(
                        i,
                        ways,
                        events
                            .iter()
                            .enumerate()
                            .filter(|(k, _)| k % ways == i)
                            .map(|(_, &e)| e)
                            .collect(),
                    )
                })
                .collect();
            run_sharded(&mut shards, LOOK);
            let mut all: Vec<(Nanos, u64)> = shards.iter().flat_map(|s| s.log.clone()).collect();
            all.sort_unstable();
            all
        };
        assert_eq!(run(1), run(4));
    }

    /// A relay shard: every event `(t, v)` with `v > 0` forwards `v - 1`
    /// to the next shard of the ring, arriving between one and four
    /// lookaheads later, so messages hop 0→1→2→0 until `v` runs out.
    struct Relay {
        id: usize,
        peers: usize,
        pending: Vec<(Nanos, u64)>,
        emitted: Vec<(usize, Nanos, u64)>,
        log: Vec<(Nanos, u64)>,
    }

    impl ShardWorld for Relay {
        type Msg = u64;

        fn next_time(&mut self) -> Option<Nanos> {
            self.pending.iter().map(|&(t, _)| t).min()
        }

        fn run_window(&mut self, end: Nanos) {
            self.pending.sort_unstable();
            let cut = self.pending.partition_point(|&(t, _)| t < end);
            for (t, v) in self.pending.drain(..cut).collect::<Vec<_>>() {
                self.log.push((t, v));
                if v > 0 {
                    let hop = Nanos(LOOK.as_nanos() * (1 + v % 4));
                    let dst = (self.id + 1) % self.peers;
                    self.emitted.push((dst, t.saturating_add(hop), v - 1));
                }
            }
        }

        fn flush(&mut self) -> Vec<(usize, Nanos, u64)> {
            std::mem::take(&mut self.emitted)
        }

        fn accept(&mut self, at: Nanos, msg: u64) {
            self.pending.push((at, msg));
        }
    }

    #[test]
    fn three_shard_relay_matches_the_single_shard_log() {
        // Only shard 0 starts with events; for most rounds the other two
        // hold nothing but an arrival still in flight toward them, so
        // they publish "drained" and the sender's slot alone keeps the
        // run alive. Dropping that in-flight term would end the run early.
        let initial = vec![(Nanos(3), 40), (Nanos(250), 31), (Nanos(251), 7)];
        let run = |ways: usize| -> (Vec<(Nanos, u64)>, Vec<WallStats>) {
            let mut shards: Vec<Relay> = (0..ways)
                .map(|id| Relay {
                    id,
                    peers: ways,
                    pending: if id == 0 { initial.clone() } else { Vec::new() },
                    emitted: Vec::new(),
                    log: Vec::new(),
                })
                .collect();
            let mut wall = vec![WallStats::default(); ways];
            run_sharded_wall(&mut shards, LOOK, Some(&mut wall));
            let mut all: Vec<(Nanos, u64)> = shards.iter().flat_map(|s| s.log.clone()).collect();
            all.sort_unstable();
            (all, wall)
        };
        let (one, one_wall) = run(1);
        assert_eq!(one.len(), 41 + 32 + 8, "every hop executed once");
        let (three, three_wall) = run(3);
        assert_eq!(one, three);
        // Both runs step through the same window sequence.
        for w in &three_wall {
            assert_eq!(w.windows, one_wall[0].windows, "{three_wall:?}");
        }
    }

    #[test]
    fn wall_plane_counts_windows_without_changing_the_schedule() {
        let events = vec![(Nanos(10), 2), (Nanos(5), 1), (Nanos(10), 4)];
        let mut plain = vec![Toy::new(0, 1, events.clone())];
        run_sharded(&mut plain, LOOK);
        let mut walled = vec![Toy::new(0, 1, events)];
        let mut wall = vec![WallStats::default()];
        run_sharded_wall(&mut walled, LOOK, Some(&mut wall));
        assert_eq!(plain[0].log, walled[0].log, "wall plane must be invisible");
        assert!(wall[0].windows > 0, "windows accounted: {wall:?}");

        // Two shards: both workers cross the barrier every round, so the
        // per-shard window counts are populated independently.
        let mut shards = vec![
            Toy::new(0, 2, vec![(Nanos(5), 1)]),
            Toy::new(1, 2, vec![(Nanos(7), 3)]),
        ];
        let mut wall2 = vec![WallStats::default(); 2];
        run_sharded_wall(&mut shards, LOOK, Some(&mut wall2));
        assert!(wall2.iter().all(|w| w.windows > 0), "{wall2:?}");
        assert_eq!(shards[0].log, vec![(Nanos(5), 1), (Nanos(107), 4)]);
    }

    #[test]
    #[should_panic(expected = "strictly positive lookahead")]
    fn zero_lookahead_is_rejected() {
        let mut shards = vec![Toy::new(0, 1, Vec::new())];
        run_sharded(&mut shards, Nanos::ZERO);
    }
}
