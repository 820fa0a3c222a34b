//! Property: sharded conservative execution is observation-equivalent to
//! a single-calendar run.
//!
//! The model is a miniature of the laboratory's grid machinery: hosts
//! partitioned round-robin over shards, per-host accumulator state whose
//! value depends on *application order*, and messages between hosts
//! scheduled in the calendar's front class under a canonical key minted
//! from a per-source-host emission counter. The reference is the same
//! machinery on one shard (the degenerate case `run_sharded` executes
//! inline); the property drives random schedules through 1, 2, 3, and 4
//! shards and demands identical final accumulators and identical
//! per-host event sequences — order-sensitive state, not just multisets.

use proptest::prelude::*;
use tengig_sim::{run_sharded, Calendar, Nanos, ShardWorld};

/// Minimum flight time of any cross-host message: the lookahead bound.
const LOOK: u64 = 64;

/// One calendar entry: `(host, value)`.
type Entry = (usize, u64);

/// Cross-shard message: `(destination host, value, canonical key)`.
type Msg = (usize, u64, u64);

struct MiniShard {
    shard: usize,
    shards: usize,
    hosts: usize,
    cal: Calendar<Entry>,
    /// Order-sensitive per-host state: `acc = acc * 31 + val` per applied
    /// event, so any reordering of a host's events changes the result.
    acc: Vec<u64>,
    /// Per-host sequence of applied values (owned hosts only).
    log: Vec<Vec<(u64, u64)>>,
    /// Per-source-host emission ordinals for canonical keys.
    emit: Vec<u64>,
    /// Messages bound for other shards.
    out: Vec<(usize, Nanos, Msg)>,
}

impl MiniShard {
    fn new(shard: usize, shards: usize, hosts: usize, initial: &[(u64, usize, u64)]) -> Self {
        let mut s = MiniShard {
            shard,
            shards,
            hosts,
            cal: Calendar::new(),
            acc: vec![0; hosts],
            log: vec![Vec::new(); hosts],
            emit: vec![0; hosts],
            out: Vec::new(),
        };
        for &(t, h, v) in initial {
            if s.owns(h) {
                s.cal.schedule(Nanos(t), (h, v));
            }
        }
        s
    }

    fn owns(&self, h: usize) -> bool {
        h % self.shards == self.shard
    }

    /// Apply one value to a host and, when divisible by 3, emit a
    /// decreasing follow-up message to a neighbor — as a keyed
    /// front-class event whether or not the destination is local.
    fn apply(&mut self, now: u64, h: usize, v: u64) {
        self.acc[h] = self.acc[h].wrapping_mul(31).wrapping_add(v);
        self.log[h].push((now, v));
        if v >= 3 && v % 3 == 0 {
            let next = v / 3;
            let dst = (h + 1 + (v as usize % self.hosts.max(2))) % self.hosts;
            let at = now + LOOK + (v % 50);
            let key = ((h as u64) << 32) | self.emit[h];
            self.emit[h] += 1;
            if self.owns(dst) {
                self.cal.schedule_front(Nanos(at), key, (dst, next));
            } else {
                self.out
                    .push((dst % self.shards, Nanos(at), (dst, next, key)));
            }
        }
    }
}

impl ShardWorld for MiniShard {
    type Msg = Msg;

    fn next_time(&mut self) -> Option<Nanos> {
        self.cal.peek_time()
    }

    fn run_window(&mut self, end: Nanos) {
        while let Some(t) = self.cal.peek_time() {
            if t >= end {
                break;
            }
            let (at, (h, v)) = self.cal.pop().expect("peeked");
            self.apply(at.as_nanos(), h, v);
        }
    }

    fn flush(&mut self) -> Vec<(usize, Nanos, Msg)> {
        std::mem::take(&mut self.out)
    }

    fn accept(&mut self, at: Nanos, (dst, val, key): Msg) {
        assert!(self.owns(dst), "message routed to a non-owning shard");
        self.cal.schedule_front(at, key, (dst, val));
    }
}

/// Run the model at a given shard count and merge per-host results from
/// each host's owning shard.
fn run(
    shards: usize,
    hosts: usize,
    initial: &[(u64, usize, u64)],
) -> (Vec<u64>, Vec<Vec<(u64, u64)>>) {
    let mut replicas: Vec<MiniShard> = (0..shards)
        .map(|s| MiniShard::new(s, shards, hosts, initial))
        .collect();
    run_sharded(&mut replicas, Nanos(LOOK));
    let mut acc = vec![0u64; hosts];
    let mut log = vec![Vec::new(); hosts];
    for (h, slot) in acc.iter_mut().enumerate() {
        let owner = h % shards;
        *slot = replicas[owner].acc[h];
        log[h] = replicas[owner].log[h].clone();
    }
    (acc, log)
}

proptest! {
    /// Sharded execution at 2, 3, and 4 shards reproduces the
    /// single-calendar reference exactly: same order-sensitive per-host
    /// accumulators, same per-host event sequences.
    #[test]
    fn sharded_run_matches_single_calendar_reference(
        hosts in 2usize..6,
        initial in proptest::collection::vec((1u64..400, 0usize..6, 0u64..2_000), 1..60),
    ) {
        let initial: Vec<(u64, usize, u64)> = initial
            .into_iter()
            .map(|(t, h, v)| (t, h % hosts, v))
            .collect();
        let reference = run(1, hosts, &initial);
        for shards in 2usize..=4 {
            let sharded = run(shards, hosts, &initial);
            prop_assert_eq!(&reference.0, &sharded.0, "accumulators diverged at {} shards", shards);
            prop_assert_eq!(&reference.1, &sharded.1, "per-host logs diverged at {} shards", shards);
        }
    }
}

/// Two hosts on two different shards each send host 2 a message that
/// lands at the same instant, where host 2 also has a local event. The
/// two arrivals reach host 2's shard from different source shards (in
/// whatever order the runner delivers them) and must apply in canonical
/// key order — host 0's before host 1's — ahead of the local event, at
/// every shard count.
#[test]
fn same_instant_arrivals_from_two_source_shards_apply_in_key_order() {
    let hosts = 5;
    // Host 0 applies 6 at t=19: emits 2 to host (0+1+6%5)%5 = 2 at
    // 19+64+6 = 89. Host 1 applies 15 at t=10: emits 5 to host
    // (1+1+15%5)%5 = 2 at 10+64+15 = 89. Host 2 applies 1 at 89 itself.
    let initial = [(10, 1, 15), (19, 0, 6), (89, 2, 1)];
    let want = vec![(89, 2), (89, 5), (89, 1)];
    for shards in 1usize..=4 {
        let (_, log) = run(shards, hosts, &initial);
        assert_eq!(log[2], want, "host 2's order at {shards} shards");
    }
}
