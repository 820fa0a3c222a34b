//! Sharded ("grid") execution of a laboratory.
//!
//! A grid run follows **replicated construction, partitioned
//! execution**: every shard builds the *identical* full [`Lab`] (same
//! topology, same seeds, same RNG forks, byte for byte) but executes
//! only the events whose endpoint host it owns. Remote hosts' state sits
//! in the replica untouched — stale by design — and the experiment layer
//! merges per-flow results by reading each value from the shard that
//! owns the host that produced it.
//!
//! Every lab, partitioned or not, runs one event semantics, anchored in
//! the calendar's **keyed front class**
//! ([`tengig_sim::Calendar::schedule_front`]): *every* wire arrival —
//! local or cross-shard — is one [`Ev::FrameArrival`] scheduled in the
//! front class under a canonical key minted from its flow's
//! per-endpoint emission counter ([`FlowRt`]) on the transmitting
//! shard. The key is a pure function of the simulation's own history,
//! never of thread interleaving, and it replaces the insertion counter
//! as the event's sequence number. An instant's arrivals therefore pop
//! in key order, before any normal event of that instant, whichever
//! shard count produced them and in whatever order the shard runner
//! delivered them — so sweep JSONL is byte-identical unpartitioned and
//! at 1, 2, and N shards.
//!
//! Partition-safety rule: a link may only be shared by flows whose
//! *transmitting* hosts live on the same shard (the grid experiment
//! family uses per-flow private directional links, which satisfies this
//! trivially). Same-instant events on different hosts then touch
//! disjoint state, so the cross-host seq-order differences between shard
//! counts cannot be observed.
//!
//! The partition itself lives here and nowhere else: [`GridRt`] is only
//! the ownership map and the outbox, [`Grid::build`] assigns hosts to
//! shards round-robin by index, and the finished world is read back
//! through owner-side accessors ([`Grid::tx`], [`Grid::rx`],
//! [`Grid::host`]) so no experiment does owner arithmetic by hand.

use super::{Ev, FlowRt, HostRt, Lab, LabEngine};
use tengig_net::Delivery;
use tengig_sim::{run_sharded, Hist, Nanos, ObsConfig, ShardWorld, Timelines};
use tengig_tcp::Segment;

/// One wire arrival: the fields of the [`Ev::FrameArrival`] that applies it.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Flow index.
    pub f: usize,
    /// Receiving endpoint.
    pub ep: usize,
    /// The segment in flight.
    pub seg: Segment,
    /// The frame was bit-corrupted en route.
    pub corrupted: bool,
}

impl Arrival {
    /// The arrival as the event that applies it.
    fn event(self) -> Ev {
        Ev::FrameArrival {
            f: self.f,
            ep: self.ep,
            seg: self.seg,
            corrupted: self.corrupted,
        }
    }
}

/// A cross-shard message: an arrival bound for a host another shard owns.
#[derive(Debug, Clone, Copy)]
pub struct GridMsg {
    /// Canonical front-class key, minted by the transmitting flow
    /// endpoint (see the module docs).
    pub key: u64,
    /// The arrival itself.
    pub arr: Arrival,
}

/// Per-shard grid runtime: the ownership map and the cross-shard outbox.
/// A lab without one owns every host and link.
#[derive(Debug)]
pub struct GridRt {
    /// Total shard count.
    pub shards: usize,
    /// This replica's shard id.
    pub shard: usize,
    /// Owning shard per host index.
    pub owner: Vec<usize>,
    /// Transmitting host per link index: the host whose events mutate
    /// the link (`None` for a link no flow routes). Filled by
    /// [`Lab::enable_grid`].
    link_tx: Vec<Option<usize>>,
    /// Flow count of the lab this runtime partitions (checked by
    /// [`Lab::enable_grid`]).
    flows: usize,
    /// Messages bound for other shards, drained by [`ShardWorld::flush`].
    outbox: Vec<(usize, Nanos, GridMsg)>,
    /// Cross-shard messages this shard emitted (deterministic, but a
    /// function of the partition — zero at one shard — so the gated
    /// profile never carries it; the benchmark ledger reads it).
    pub msgs_sent: u64,
    /// Retired and always empty. It counted arrivals per ingress-drain
    /// batch when grid mode applied arrivals through a per-host drain
    /// event; each arrival is now its own front-class
    /// [`Ev::FrameArrival`]. Kept so the profiling sidecar's field set
    /// and the benchmark's reads keep their shape.
    pub drain_batch: Hist,
    /// Conservative synchronization windows this shard executed
    /// (per-shard deterministic; varies with shard count and lookahead).
    pub windows: u64,
}

impl GridRt {
    /// Grid runtime for shard `shard` of `shards`, with `owner[h]` the
    /// owning shard of host `h` and `flows` the lab's flow count.
    pub fn new(shards: usize, shard: usize, owner: Vec<usize>, flows: usize) -> Self {
        assert!(shards > 0, "a grid needs at least one shard");
        assert!(shard < shards, "shard id out of range");
        assert!(owner.iter().all(|&o| o < shards), "host owner out of range");
        GridRt {
            shards,
            shard,
            owner,
            link_tx: Vec::new(),
            flows,
            outbox: Vec::new(),
            msgs_sent: 0,
            drain_batch: Hist::new(),
            windows: 0,
        }
    }

    /// Flow count the runtime was built for.
    pub(super) fn flows(&self) -> usize {
        self.flows
    }

    /// Whether this shard owns host `h`.
    #[inline]
    pub fn owns(&self, h: usize) -> bool {
        self.owner[h] == self.shard
    }

    /// Name each link's transmitting host: the first flow in index order
    /// that routes the link, in the direction it routes it. The grid
    /// partition-safety rule guarantees every other flow sharing the link
    /// transmits from a host on the same shard.
    pub(super) fn map_links(&mut self, flows: &[FlowRt], links: usize) {
        self.link_tx = vec![None; links];
        for flow in flows {
            for (route, &h) in flow.route.iter().zip(&flow.host) {
                for &l in route {
                    self.link_tx[l].get_or_insert(h);
                }
            }
        }
    }

    /// Whether this shard owns link `l` — owns its transmitting host, the
    /// only host whose events change the link's state. A link no flow
    /// routes is owned by no shard: it never changes.
    #[inline]
    pub(super) fn owns_link(&self, l: usize) -> bool {
        self.link_tx[l].is_some_and(|h| self.owns(h))
    }
}

/// Route one wire delivery: an arrival for a host this replica runs
/// becomes a front-class [`Ev::FrameArrival`] under its canonical key,
/// through its receiving endpoint's lane; an arrival for a host another
/// shard owns retires its bytes from this shard's conservation ledger
/// and rides the outbox to the owning shard, which schedules it the same
/// way in [`GridShard::accept`].
pub(super) fn route_arrival(
    lab: &mut Lab,
    eng: &mut LabEngine,
    f: usize,
    dst_ep: usize,
    seg: Segment,
    d: Delivery,
) {
    let now = eng.now();
    let dst_host = lab.flows[f].host[dst_ep];
    let key = lab.flows[f].next_key(f, 1 - dst_ep);
    let arr = Arrival {
        f,
        ep: dst_ep,
        seg,
        corrupted: d.corrupted,
    };
    debug_assert!(d.at > now, "wire delivery cannot be instantaneous");
    match &mut lab.grid {
        Some(grid) if !grid.owns(dst_host) => {
            let dst_shard = grid.owner[dst_host];
            grid.msgs_sent += 1;
            grid.outbox.push((dst_shard, d.at, GridMsg { key, arr }));
            // Byte-conservation handoff: the frame leaves this shard's
            // ledger here and re-enters the owning shard's at accept time.
            let wire = tengig_ethernet::Mtu::wire_bytes_for(seg.ip_bytes());
            if let Some(s) = eng.sanitizer_mut() {
                s.deliver(now, wire);
            }
        }
        _ => schedule_arrival(lab, eng, d.at, key, arr),
    }
}

/// Schedule an arrival through its receiving endpoint's lane
/// ([`FlowRt`]'s `lanes`): the calendar gets it now, or, when it is
/// later than every arrival the lane already has in flight, once the
/// arrival ahead of it fires.
fn schedule_arrival(lab: &mut Lab, eng: &mut LabEngine, at: Nanos, key: u64, arr: Arrival) {
    let lane = &mut lab.flows[arr.f].lanes[arr.ep];
    if let Some(ev) = lane.offer(&mut lab.arrivals, at, key, arr.event()) {
        eng.schedule_front_at(at, key, ev);
    }
}

/// One shard of a grid run: a full lab replica plus its engine,
/// executing only the events of the hosts it owns.
///
/// Aligned to 128 bytes (two cache lines, the pair an adjacent-line
/// prefetcher fetches together) so that where one replica ends and the
/// next begins in a `Vec<GridShard>`, two shard threads never write the
/// same line. Unaligned, the boundary moves with the size of [`Lab`]:
/// 56 more bytes of it once cost the two-shard `grid_fabric` benchmark
/// about 9% of its wall time.
#[repr(align(128))]
pub struct GridShard {
    /// The replicated world.
    pub lab: Lab,
    /// This shard's calendar.
    pub eng: LabEngine,
}

impl ShardWorld for GridShard {
    type Msg = GridMsg;

    fn next_time(&mut self) -> Option<Nanos> {
        self.eng.peek_time()
    }

    fn run_window(&mut self, end: Nanos) {
        let grid = self.lab.grid.as_mut().expect("grid shard without grid");
        grid.windows += 1;
        self.eng.run_before(&mut self.lab, end);
    }

    fn flush(&mut self) -> Vec<(usize, Nanos, GridMsg)> {
        let grid = self.lab.grid.as_mut().expect("grid shard without grid");
        std::mem::take(&mut grid.outbox)
    }

    fn accept(&mut self, at: Nanos, msg: GridMsg) {
        // The frame enters this shard's conservation ledger as it
        // crosses the shard boundary (the sender retired it from its
        // own ledger on emission).
        let wire = tengig_ethernet::Mtu::wire_bytes_for(msg.arr.seg.ip_bytes());
        if let Some(s) = self.eng.sanitizer_mut() {
            s.inject(wire);
        }
        debug_assert!(
            self.lab
                .runs_host(self.lab.flows[msg.arr.f].host[msg.arr.ep]),
            "arrival routed to a non-owning shard"
        );
        schedule_arrival(&mut self.lab, &mut self.eng, at, msg.key, msg.arr);
        // A message landing on a drained shard restarts its dormant
        // observability sampling chain (no-op when obs is off or armed).
        super::obs_revive(&mut self.lab, &mut self.eng, at);
    }
}

/// A sharded world: every shard's replica, built once, run together, and
/// read back from the shard that owns each value.
pub struct Grid {
    /// One replica per shard, in shard order.
    shards: Vec<GridShard>,
    /// The conservative synchronization window.
    lookahead: Nanos,
}

impl Grid {
    /// Build `shards` replicas of the world `world` assembles. Each
    /// replica gets the host-round-robin owner map, the observability
    /// layer when `obs` is set, an [`super::engine`], and its flow
    /// starts: the arrival instants `arrivals` ([`super::kick_at`]) or,
    /// without them, the staggered [`super::kick`].
    /// `world` must build the identical lab every call (same seed, same
    /// RNG fork labels, same index order).
    pub fn build(
        shards: usize,
        lookahead: Nanos,
        seed: u64,
        obs: Option<&ObsConfig>,
        arrivals: Option<&[Nanos]>,
        world: impl Fn() -> Lab,
    ) -> Grid {
        assert!(shards > 0, "a grid run needs at least one shard");
        let replicas = (0..shards)
            .map(|shard| {
                let mut lab = world();
                let owner: Vec<usize> = (0..lab.hosts.len()).map(|h| h % shards).collect();
                let flows = lab.flows.len();
                lab.enable_grid(GridRt::new(shards, shard, owner, flows));
                if let Some(cfg) = obs {
                    lab.enable_obs(cfg, seed);
                }
                let mut eng = super::engine(&mut lab, seed);
                match arrivals {
                    Some(at) => super::kick_at(&mut lab, &mut eng, at),
                    None => super::kick(&mut lab, &mut eng),
                }
                GridShard { lab, eng }
            })
            .collect();
        Grid {
            shards: replicas,
            lookahead,
        }
    }

    /// Run every shard to completion, conservatively synchronized (see
    /// [`run_sharded`]).
    pub fn run(&mut self) {
        run_sharded(&mut self.shards, self.lookahead);
    }

    /// Settle a finished run: check every shard's sanitizer drained, and
    /// return the executed event count with the merged timelines (`None`
    /// when obs was off). The count is net of [`Ev::ObsSample`]: sampling
    /// chains run per shard, while every other event fires on exactly
    /// one shard, so only the net count is shard-count-invariant.
    pub fn finish(&mut self) -> (u64, Option<Timelines>) {
        let mut events = 0;
        let mut merged: Option<Timelines> = None;
        for s in &mut self.shards {
            // Every calendar drained, so each shard's byte ledger must sit
            // at zero in-flight (cross-shard frames were handed off).
            super::check_sanitizer(&s.lab, &mut s.eng, true);
            events += s.eng.executed() - s.lab.prof().fired[Ev::ObsSample.prof_idx()];
            if let Some(tl) = s.lab.take_timelines() {
                match &mut merged {
                    Some(m) => m.merge(&tl),
                    None => merged = Some(tl),
                }
            }
        }
        (events, merged)
    }

    /// Every shard's replica, in shard order.
    pub fn shards(&self) -> &[GridShard] {
        &self.shards
    }

    /// Mutable access to every shard's replica, in shard order.
    pub fn shards_mut(&mut self) -> &mut [GridShard] {
        &mut self.shards
    }

    /// The replica of the shard that owns host `h`.
    fn owner_of(&self, h: usize) -> &Lab {
        let grid = self.shards[0].lab.grid().expect("grid shard without grid");
        &self.shards[grid.owner[h]].lab
    }

    /// Flow count (identical on every replica).
    pub fn flows(&self) -> usize {
        self.shards[0].lab.flows.len()
    }

    /// Flow `f` as its transmitting host's shard saw it: start times and
    /// sender-side state.
    pub fn tx(&self, f: usize) -> &FlowRt {
        &self.owner_of(self.shards[0].lab.flows[f].host[0]).flows[f]
    }

    /// Flow `f` as its receiving host's shard saw it: completion times
    /// and delivered bytes.
    pub fn rx(&self, f: usize) -> &FlowRt {
        &self.owner_of(self.shards[0].lab.flows[f].host[1]).flows[f]
    }

    /// Host `h` as its owning shard saw it.
    pub fn host(&self, h: usize) -> &HostRt {
        &self.owner_of(h).hosts[h]
    }
}
