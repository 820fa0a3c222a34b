//! The laboratory: hosts, links, flows, and the engine wiring that turns
//! sans-IO state-machine actions into scheduled, resource-charged events.
//!
//! The end-to-end pipeline for one data segment, exactly as §2-3 of the
//! paper describe the path:
//!
//! ```text
//! sender app write ─syscall─▶ TCP tx (CPU: stack+copy) ─▶ memory bus
//!   ─▶ PCI-X DMA (MMRBC bursts) ─▶ wire/switch/WAN (store-and-forward)
//!   ─▶ rx PCI-X DMA ─▶ memory bus ─▶ interrupt coalescer (5 µs default)
//!   ─▶ hard IRQ + TCP rx (CPU: stack+alloc) ─▶ app read (CPU: copy)
//! ```
//!
//! Every stage is a FIFO resource, so contention, batching, and queueing
//! delays emerge rather than being assumed.

pub mod grid;
pub mod host;

use crate::config::HostConfig;
pub use grid::{Grid, GridMsg, GridRt, GridShard};
pub use host::{HostRt, RxFrame};
use std::collections::VecDeque;
use std::fmt::Write as _;
use tengig_hw::DiskModel;
use tengig_net::{Delivery, Path, PathState, PathVerdict};
use tengig_nic::CoalesceAction;
use tengig_sim::{
    Engine, EventFire, EventId, FrontLane, Hist, LanePool, MetricKind, Nanos, ObsConfig, Sanitizer,
    Scope, SimRng, StepSeries, Timelines, ViolationKind,
};
use tengig_tcp::{Action, Segment, Sysctls, TcpConn, TimerKind};
use tengig_tools::{Iperf, NetPipe, NttcpReceiver, NttcpSender, PingPongSide, Pktgen};

/// The engine type every lab runs on: event payloads are the [`Ev`] enum,
/// stored inline in the engine's slab calendar, so steady-state scheduling
/// performs no allocation (the original engine boxed one closure per
/// event — one heap allocation per segment per pipeline stage).
pub type LabEngine = Engine<Lab, Ev>;

/// One scheduled laboratory event. Each variant carries only `Copy` data
/// (indices and the fixed-size [`Segment`] header model), so the whole
/// enum lives inline in the calendar slab.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ev {
    /// Kick one flow's workload.
    StartFlow {
        /// Flow index.
        f: usize,
    },
    /// Transmit stage 2: CPU done, start the PCI-X DMA read.
    TxDma {
        /// Flow index.
        f: usize,
        /// Sending endpoint.
        ep: usize,
        /// The segment in flight.
        seg: Segment,
    },
    /// Transmit stage 3: DMA done, walk the link route.
    TxWire {
        /// Flow index.
        f: usize,
        /// Sending endpoint.
        ep: usize,
        /// The segment in flight.
        seg: Segment,
    },
    /// A frame fully arrived at the destination NIC.
    FrameArrival {
        /// Flow index.
        f: usize,
        /// Receiving endpoint.
        ep: usize,
        /// The segment in flight.
        seg: Segment,
        /// The frame was bit-corrupted en route; the MAC discards it on
        /// the bad FCS before DMA.
        corrupted: bool,
    },
    /// Receive DMA complete: enqueue for the coalescer.
    RxDmaDone {
        /// Flow index.
        f: usize,
        /// Receiving endpoint.
        ep: usize,
        /// The segment in flight.
        seg: Segment,
    },
    /// The interrupt-coalescing timer fired on a host.
    CoalesceTimer {
        /// Host index.
        h: usize,
        /// Coalescer generation (stale timers are ignored).
        gen: u64,
    },
    /// Per-frame receive stack processing finished.
    RxStack {
        /// Flow index.
        f: usize,
        /// Receiving endpoint.
        ep: usize,
        /// The segment being delivered to TCP.
        seg: Segment,
    },
    /// A TCP timer (RTO / delayed ACK) fired.
    ConnTimer {
        /// Flow index.
        f: usize,
        /// Endpoint the timer belongs to.
        ep: usize,
        /// Which timer.
        kind: TimerKind,
        /// Connection timer generation (stale timers are no-ops).
        gen: u64,
    },
    /// Run one (chunk of a) batched application read.
    AppRead {
        /// Flow index.
        f: usize,
        /// Reading endpoint.
        ep: usize,
        /// Whether this chunk pays the syscall + wakeup cost.
        fresh: bool,
    },
    /// An application read chunk's CPU time completed.
    ReadDone {
        /// Flow index.
        f: usize,
        /// Reading endpoint.
        ep: usize,
        /// Bytes copied out by the chunk.
        bytes: u64,
    },
    /// One iteration of the pktgen loop.
    PktgenTick {
        /// Flow index.
        f: usize,
    },
    /// Sample the observability timelines (scheduled on a fixed sim-clock
    /// cadence while [`Lab::enable_obs`] is active).
    ObsSample,
}

impl Ev {
    /// Width of [`LabProf::fired`]: the twelve event kinds plus the
    /// retired `IngressDrain` slot (see [`Ev::NAMES`]).
    pub const KINDS: usize = 13;

    /// Event-kind names, indexed by [`Ev::prof_idx`]. Used by the
    /// profiling sidecar so fired-count reports are self-describing.
    ///
    /// The last slot, `IngressDrain`, is retired: grid mode once applied
    /// arrivals through a per-host drain event, and now schedules each
    /// [`Ev::FrameArrival`] in the calendar's keyed front class instead
    /// (see [`grid`]). No event maps to it, so its count is always 0; it
    /// stays so the sidecar's field set and the benchmark's per-kind
    /// rows keep their shape.
    pub const NAMES: [&'static str; Ev::KINDS] = [
        "StartFlow",
        "TxDma",
        "TxWire",
        "FrameArrival",
        "RxDmaDone",
        "CoalesceTimer",
        "RxStack",
        "ConnTimer",
        "AppRead",
        "ReadDone",
        "PktgenTick",
        "ObsSample",
        "IngressDrain",
    ];

    /// Dense kind index of this event for the per-kind fired counters.
    pub fn prof_idx(&self) -> usize {
        match self {
            Ev::StartFlow { .. } => 0,
            Ev::TxDma { .. } => 1,
            Ev::TxWire { .. } => 2,
            Ev::FrameArrival { .. } => 3,
            Ev::RxDmaDone { .. } => 4,
            Ev::CoalesceTimer { .. } => 5,
            Ev::RxStack { .. } => 6,
            Ev::ConnTimer { .. } => 7,
            Ev::AppRead { .. } => 8,
            Ev::ReadDone { .. } => 9,
            Ev::PktgenTick { .. } => 10,
            Ev::ObsSample => 11,
        }
    }

    /// The host this event runs on: the endpoint host of its flow, the
    /// coalescer's host, or none for the lab-wide [`Ev::ObsSample`].
    pub fn host(&self, lab: &Lab) -> Option<usize> {
        match *self {
            Ev::StartFlow { f } | Ev::PktgenTick { f } => Some(lab.flows[f].host[0]),
            Ev::TxDma { f, ep, .. }
            | Ev::TxWire { f, ep, .. }
            | Ev::FrameArrival { f, ep, .. }
            | Ev::RxDmaDone { f, ep, .. }
            | Ev::RxStack { f, ep, .. }
            | Ev::ConnTimer { f, ep, .. }
            | Ev::AppRead { f, ep, .. }
            | Ev::ReadDone { f, ep, .. } => Some(lab.flows[f].host[ep]),
            Ev::CoalesceTimer { h, .. } => Some(h),
            Ev::ObsSample => None,
        }
    }
}

/// Deterministic self-profiling counters of one lab replica: per-kind
/// event fired counts, the interrupt-batch-size histogram, and the
/// action-pool hit/miss split. All values live strictly in the sim
/// domain (pure functions of the event history), so they are bitwise
/// reproducible for a fixed configuration. Fired counts and the batch
/// histogram are additionally **shard-count-invariant when summed over
/// shards** in a partitioned world — every event fires on exactly one
/// shard — while the pool split is per-shard only (each replica grows
/// its own pool). See `DESIGN.md` §16 for the full invariance argument.
#[derive(Debug, Clone, Default)]
pub struct LabProf {
    /// Events fired, by [`Ev::prof_idx`] kind.
    pub fired: [u64; Ev::KINDS],
    /// Frames per receive interrupt (the coalescer's batch sizes),
    /// log-bucketed.
    pub rx_batch: Hist,
    /// Action-buffer pool hits in `Lab::take_actions`.
    pub pool_hits: u64,
    /// Action-buffer pool misses (a fresh allocation was needed).
    pub pool_misses: u64,
    /// [`Timelines::record`] calls the obs sampler made: one per metric
    /// of every scope it read. It reads every host on every sample, and a
    /// flow endpoint or link only on the first sample and after something
    /// changed its sampled state.
    pub obs_records: u64,
}

impl EventFire<Lab> for Ev {
    fn fire(self, lab: &mut Lab, eng: &mut LabEngine) {
        lab.prof.fired[self.prof_idx()] += 1;
        if lab.flight.is_some() {
            lab.record(eng.now(), self);
        }
        match self {
            Ev::StartFlow { f } => start_flow(lab, eng, f),
            Ev::TxDma { f, ep, seg } => tx_dma(lab, eng, f, ep, seg),
            Ev::TxWire { f, ep, seg } => tx_wire(lab, eng, f, ep, seg),
            Ev::FrameArrival {
                f,
                ep,
                seg,
                corrupted,
            } => frame_arrival(lab, eng, f, ep, seg, corrupted),
            Ev::RxDmaDone { f, ep, seg } => {
                let h = lab.flows[f].host[ep];
                lab.hosts[h]
                    .rx_pending
                    .push_back(RxFrame { flow: f, ep, seg });
                coalesce_frame(lab, eng, h);
            }
            Ev::CoalesceTimer { h, gen } => {
                if let Some(batch) = lab.hosts[h].coalescer.on_timer(gen) {
                    process_rx_batch(lab, eng, h, batch);
                }
            }
            Ev::RxStack { f, ep, seg } => {
                let now = eng.now();
                let mut acts = lab.take_actions();
                lab.flows[f].conns[ep].on_segment_into(now, &seg, &mut acts);
                obs_touch(lab, f, ep);
                // Every ACK/data arrival revalidates the connection's
                // sequence-space invariants under the sanitizer.
                check_tcp_invariants(lab, eng, f, ep);
                process_actions(lab, eng, f, ep, &mut acts);
                lab.recycle_actions(acts);
            }
            Ev::ConnTimer { f, ep, kind, gen } => {
                let now = eng.now();
                let mut acts = lab.take_actions();
                lab.flows[f].conns[ep].on_timer_into(now, kind, gen, &mut acts);
                obs_touch(lab, f, ep);
                check_tcp_invariants(lab, eng, f, ep);
                process_actions(lab, eng, f, ep, &mut acts);
                lab.recycle_actions(acts);
            }
            Ev::AppRead { f, ep, fresh } => app_read(lab, eng, f, ep, fresh),
            Ev::ReadDone { f, ep, bytes } => read_done(lab, eng, f, ep, bytes),
            Ev::PktgenTick { f } => pktgen_tick(lab, eng, f),
            Ev::ObsSample => obs_sample(lab, eng),
        }
    }
}

/// Index of a connection timer in [`FlowRt::timer_ids`].
fn timer_slot(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Rto => 0,
        TimerKind::DelAck => 1,
    }
}

/// The application driving a flow.
#[derive(Debug)]
pub enum App {
    /// NTTCP bulk transfer: endpoint 0 transmits, endpoint 1 receives.
    Nttcp {
        /// Sender half.
        tx: NttcpSender,
        /// Receiver half.
        rx: NttcpReceiver,
    },
    /// NetPipe ping-pong: endpoint 0 initiates.
    NetPipe(NetPipe),
    /// pktgen: endpoint 0 blasts raw UDP frames at endpoint 1.
    Pktgen(Pktgen),
    /// Iperf: endpoint 0 streams for a fixed duration; endpoint 1 counts
    /// bytes delivered within the window.
    Iperf(Iperf),
    /// Disk-to-disk relay: endpoint 0 streams bytes read off its host's
    /// disk bank, endpoint 1 writes delivered bytes back out to its own —
    /// the paper's capstone `disk→NIC→WAN→NIC→disk` pipeline stage.
    DiskPipe(DiskPipe),
}

impl App {
    /// Payload bytes delivered to the receiving application: the NTTCP
    /// or disk-relay receiver's count, 0 for the other tools.
    pub fn received(&self) -> u64 {
        match self {
            App::Nttcp { rx, .. } => rx.received,
            App::DiskPipe(dp) => dp.rx.received,
            App::NetPipe(_) | App::Pktgen(_) | App::Iperf(_) => 0,
        }
    }
}

/// How many disk chunks a [`DiskPipe`] sender keeps in flight on its read
/// lane. One chunk would stall the stream every chunk boundary (and
/// re-pay positioning on each resume); two keeps a streaming spindle
/// seamlessly busy while bounding staged memory.
const DISK_READAHEAD: usize = 2;

/// State of one disk→NIC→WAN→NIC→disk relay stream.
///
/// The socket side is an NTTCP pair; the storage side gates it. The
/// sender may only write bytes its disk has actually produced, so the
/// pump (`disk_pump`) admits chunk reads against the source
/// [`DiskModel`] (bounded read-ahead), stages completed chunks, and
/// streams them into the socket as buffer space allows. The receiver
/// write-behinds every delivered batch onto its destination disk; the
/// pipeline's true end is the *drain* of that write lane, tracked
/// analytically in [`DiskPipe::drain_done`] — no event variants needed.
#[derive(Debug)]
pub struct DiskPipe {
    /// Socket byte pump (payload-sized writes).
    pub tx: NttcpSender,
    /// Receiver half: counts delivered bytes.
    pub rx: NttcpReceiver,
    /// Stripe lane this stream uses on both hosts' disk banks.
    pub stream: usize,
    /// Disk request granularity, bytes (a multiple of the socket payload
    /// so staged bytes always cover whole writes).
    chunk: u64,
    /// Total bytes to move end to end.
    total: u64,
    /// Bytes admitted to the source disk's read lane so far.
    read_admitted: u64,
    /// Bytes read off the source disk and staged for socket writes.
    staged: u64,
    /// Outstanding read admissions (completion instant, bytes), oldest
    /// first — FIFO lane order, so completion instants are nondecreasing.
    reads: VecDeque<(Nanos, u64)>,
    /// Instant of the already-scheduled pump wakeup, if one is pending.
    wake_at: Option<Nanos>,
    /// Completion instant of the last destination-disk write admission.
    drain_done: Nanos,
}

impl DiskPipe {
    /// A relay moving `count` socket writes of `payload` bytes, issuing
    /// disk requests of `chunk_writes` payloads each, striped onto lane
    /// `stream` of both endpoint hosts' disk banks.
    pub fn new(payload: u64, count: u64, chunk_writes: u64, stream: usize) -> Self {
        assert!(payload > 0 && chunk_writes > 0, "degenerate disk pipe");
        DiskPipe {
            tx: NttcpSender::new(payload, count),
            rx: NttcpReceiver::new(payload * count),
            stream,
            chunk: payload * chunk_writes,
            total: payload * count,
            read_admitted: 0,
            staged: 0,
            reads: VecDeque::new(),
            wake_at: None,
            drain_done: Nanos::ZERO,
        }
    }

    /// Completion instant of the last destination-disk write admission —
    /// when the pipeline's final stage actually drains. At least the
    /// flow's network completion (`t_done`); later when the destination
    /// disk is the bottleneck.
    pub fn drain_done(&self) -> Nanos {
        self.drain_done
    }

    /// Total bytes this relay moves end to end.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }
}

/// Measurement bookkeeping for a flow.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlowMeasure {
    /// First application write.
    pub t_start: Option<Nanos>,
    /// Workload completion.
    pub t_done: Option<Nanos>,
    /// Hottest-CPU busy time at start, per endpoint.
    pub cpu_busy_start: [Nanos; 2],
    /// Hottest-CPU busy time captured at the completion event (timers that
    /// fire after completion must not pollute the load figure).
    pub cpu_busy_end: [Nanos; 2],
}

/// One flow between two hosts.
#[derive(Debug)]
pub struct FlowRt {
    /// Host index per endpoint.
    pub host: [usize; 2],
    /// Link-id route per direction (`route[0]`: ep0→ep1).
    pub route: [Vec<usize>; 2],
    /// Connection state per endpoint.
    pub conns: [TcpConn; 2],
    /// The driving application.
    pub app: App,
    /// Measurement state.
    pub meas: FlowMeasure,
    /// Delivered bytes awaiting an application read, per endpoint (the
    /// reader batches everything available into one `recv`).
    pub read_pending: [u64; 2],
    /// Whether a read event is already scheduled, per endpoint.
    pub read_scheduled: [bool; 2],
    /// Pending connection-timer event per endpoint and [`TimerKind`]
    /// (indexed by [`timer_slot`]), handed back to [`Engine::rearm_at`]
    /// on the next arm so the superseded event — a generation-guarded
    /// no-op — never fires. A fired handle is inert there.
    timer_ids: [[Option<EventId>; 2]; 2],
    /// Whether the first [`Ev::StartFlow`] has fired. Disk relays reuse
    /// that event as their pump wakeup, so `start_flow` is re-entrant;
    /// the one-time work (CPU baselines, connection-open stamps) is
    /// gated here.
    started: bool,
    /// Wire deliveries emitted so far, per transmitting endpoint: the
    /// ordinals of the canonical arrival keys ([`FlowRt::next_key`]).
    emit: [u64; 2],
    /// In-flight wire arrivals per receiving endpoint: only each lane's
    /// head sits in the calendar, the rest wait in [`Lab`]'s
    /// `arrivals` pool ([`FrontLane`]).
    lanes: [FrontLane; 2],
}

impl FlowRt {
    /// Mint the canonical front-class key for the next delivery this
    /// flow (index `f`) emits from endpoint `src_ep`: `(f << 32) |
    /// (src_ep << 31) | n` with `n` the per-endpoint emission ordinal.
    /// Keys are unique by construction (each (flow, endpoint) mints its
    /// own ordinals) and shard-count-invariant (the mint happens where
    /// the emission executes, in virtual-time order). An ordinal past
    /// 2³¹ would spill into the endpoint bit and collide with the peer's
    /// keys, so it panics in release builds too.
    fn next_key(&mut self, f: usize, src_ep: usize) -> u64 {
        let n = self.emit[src_ep];
        assert!(n < 1 << 31, "emission ordinal overflow");
        self.emit[src_ep] = n + 1;
        ((f as u64) << 32) | ((src_ep as u64) << 31) | n
    }
}

/// Live state of the observability layer while a lab run has metrics
/// sampling enabled (see [`Lab::enable_obs`]).
///
/// Two dirty maps tell [`obs_sample`] which flow endpoints and links to
/// read. An endpoint's bit (`2f + ep`) is set by [`obs_touch`] right
/// after each of the six `TcpConn` mutators the lab calls; a link's bit
/// is set by [`obs_touch_route`] whenever a route walk drops a frame.
/// Every sampled metric of those scopes is a pure getter over state only
/// those calls change, and re-recording an unchanged value is a no-op
/// under step semantics, so skipping a clear bit leaves every timeline
/// byte as it was. Both maps start full, so the first sample still
/// creates every series.
#[derive(Debug)]
struct ObsRt {
    /// Sampling cadence.
    interval: Nanos,
    /// The step-series being accumulated.
    timelines: Timelines,
    /// Whether an [`Ev::ObsSample`] is scheduled. The chain stops when
    /// the calendar drains; on a shard it is revived by the next
    /// cross-shard message (see [`obs_revive`]).
    armed: bool,
    /// Flow endpoints touched since the last sample, bit `2f + ep`.
    dirty_eps: DirtyMap,
    /// Links whose drop counters may have moved since the last sample.
    dirty_links: DirtyMap,
}

/// One bit per scope: set when the scope's sampled state may have
/// changed since the sampler last read it.
#[derive(Debug)]
struct DirtyMap {
    words: Vec<u64>,
}

impl DirtyMap {
    /// A map of `n` bits, all set.
    fn full(n: usize) -> Self {
        let mut map = DirtyMap {
            words: vec![0; n.div_ceil(64)],
        };
        (0..n).for_each(|i| map.set(i));
        map
    }

    /// Set bit `i`.
    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clear every bit, visiting the ones that were set in ascending
    /// order.
    fn drain(&mut self, mut visit: impl FnMut(usize)) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                visit(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// The world the engine runs.
#[derive(Debug)]
pub struct Lab {
    /// Hosts by index.
    pub hosts: Vec<HostRt>,
    /// Links by index (shared across flows where topology demands).
    pub links: Vec<PathState>,
    /// Flows by index.
    pub flows: Vec<FlowRt>,
    /// Recycled [`Action`] buffers for the TCP entry points: the hot path
    /// hands each `*_into` call a cleared buffer from here instead of
    /// allocating a fresh `Vec` per segment.
    action_pool: Vec<Vec<Action>>,
    /// Metrics-timeline sampling state (None = observability disabled; the
    /// disabled path schedules zero events and records zero samples).
    obs: Option<ObsRt>,
    /// The partition: which hosts and links this replica owns. `None`
    /// means it owns every host and link. Execution semantics do not
    /// depend on it; it only decides which flows [`kick`] starts, which
    /// scopes obs samples, and whether an arrival is scheduled here or
    /// shipped to its owning shard (see [`grid`]).
    grid: Option<GridRt>,
    /// Deterministic self-profiling counters (always on: pure integer
    /// increments on paths that already touch the counted state).
    prof: LabProf,
    /// The flight recorder (None = off, the default): each host's ring
    /// of the last events it fired, armed by [`arm_flight_recorder`].
    flight: Option<FlightRecorder>,
    /// Wire arrivals the flows' lanes ([`FlowRt`]'s `lanes`) hold back
    /// from the calendar.
    arrivals: LanePool<Ev>,
}

impl Lab {
    /// An empty laboratory.
    pub fn new() -> Self {
        Lab {
            hosts: Vec::new(),
            links: Vec::new(),
            flows: Vec::new(),
            action_pool: Vec::new(),
            obs: None,
            grid: None,
            prof: LabProf::default(),
            flight: None,
            arrivals: LanePool::new(),
        }
    }

    /// Make this replica one shard of a partitioned world. Call after the
    /// topology is fully assembled (the runtime's owner map and flow
    /// count must match the current host/flow counts, and it names each
    /// link's transmitting host from the current routes) and before
    /// [`kick`].
    pub fn enable_grid(&mut self, mut g: GridRt) {
        assert_eq!(
            g.owner.len(),
            self.hosts.len(),
            "owner map must cover every host"
        );
        assert_eq!(
            g.flows(),
            self.flows.len(),
            "grid key mint must cover every flow"
        );
        g.map_links(&self.flows, self.links.len());
        self.grid = Some(g);
    }

    /// The partition, if this lab executes as one shard of a grid.
    pub fn grid(&self) -> Option<&GridRt> {
        self.grid.as_ref()
    }

    /// Whether this replica executes host `h`'s events: the shard owning
    /// it in a partitioned world, always otherwise.
    fn runs_host(&self, h: usize) -> bool {
        self.grid.as_ref().map_or(true, |g| g.owns(h))
    }

    /// This replica's deterministic self-profiling counters.
    pub fn prof(&self) -> &LabProf {
        &self.prof
    }

    /// Push a fired event onto the ring of the host it runs on. Out of
    /// line: only an armed recorder pays for it.
    #[cold]
    #[inline(never)]
    fn record(&mut self, now: Nanos, ev: Ev) {
        let host = ev.host(self);
        let Some(fr) = &mut self.flight else { return };
        if let Some(ring) = host.and_then(|h| fr.rings.get_mut(h)) {
            if ring.len() == fr.capacity {
                ring.pop_front();
            }
            ring.push_back((now, ev));
        }
    }

    /// Take a cleared [`Action`] buffer from the pool (or allocate the
    /// pool's first few). Return it with [`Lab::recycle_actions`].
    fn take_actions(&mut self) -> Vec<Action> {
        match self.action_pool.pop() {
            Some(buf) => {
                self.prof.pool_hits += 1;
                buf
            }
            None => {
                self.prof.pool_misses += 1;
                Vec::new()
            }
        }
    }

    /// Return a drained action buffer to the pool for reuse.
    fn recycle_actions(&mut self, mut buf: Vec<Action>) {
        buf.clear();
        self.action_pool.push(buf);
    }

    /// Add a host; returns its index.
    pub fn add_host(&mut self, cfg: HostConfig) -> usize {
        self.hosts.push(HostRt::new(cfg));
        self.hosts.len() - 1
    }

    /// Add a link; returns its index.
    pub fn add_link(&mut self, path: &Path, rng: SimRng) -> usize {
        self.links.push(PathState::new(path, rng));
        self.links.len() - 1
    }

    /// Add a flow; returns its index. Connections are created from each
    /// endpoint's sysctls, with the peer's MSS taken from the peer config
    /// (an established connection has negotiated `min(mss_a, mss_b)`).
    pub fn add_flow(
        &mut self,
        a: usize,
        b: usize,
        route_fwd: Vec<usize>,
        route_rev: Vec<usize>,
        app: App,
    ) -> usize {
        let s_a: Sysctls = self.hosts[a].cfg.sysctls;
        let s_b: Sysctls = self.hosts[b].cfg.sysctls;
        let conn_a = TcpConn::new(s_a, s_b.mss());
        let conn_b = TcpConn::new(s_b, s_a.mss());
        self.flows.push(FlowRt {
            host: [a, b],
            route: [route_fwd, route_rev],
            conns: [conn_a, conn_b],
            app,
            meas: FlowMeasure::default(),
            read_pending: [0, 0],
            read_scheduled: [false, false],
            timer_ids: [[None; 2]; 2],
            started: false,
            emit: [0, 0],
            lanes: [FrontLane::new(), FrontLane::new()],
        });
        self.flows.len() - 1
    }

    /// Attach a disk bank to a host — the storage endpoints of the
    /// disk→NIC→WAN→NIC→disk pipeline. Replaces any previous bank.
    pub fn attach_disk(&mut self, host: usize, disk: DiskModel) {
        self.hosts[host].disk = Some(disk);
    }

    /// Whether every flow's workload has completed.
    pub fn all_done(&self) -> bool {
        self.flows.iter().all(|f| f.meas.t_done.is_some())
    }

    /// Enable the observability layer: accumulate metrics timelines on
    /// `cfg.sample_interval` cadence. The flight recorder is not obs's:
    /// only a sanitizer arms it ([`install_sanitizer`]).
    ///
    /// Timelines sample deterministic lab state, so `seed` is unused; the
    /// parameter stays because `benchmark/` calls this signature.
    ///
    /// Call after the topology is assembled and before [`kick`] (the first
    /// sample event is scheduled by `kick`).
    pub fn enable_obs(&mut self, cfg: &ObsConfig, _seed: u64) {
        let interval = cfg.clamped_interval();
        self.obs = Some(ObsRt {
            interval,
            timelines: Timelines::new(interval),
            armed: true,
            dirty_eps: DirtyMap::full(2 * self.flows.len()),
            dirty_links: DirtyMap::full(self.links.len()),
        });
    }

    /// Whether metrics-timeline sampling is active.
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Stop metrics sampling and take the accumulated timelines (None if
    /// observability was never enabled).
    pub fn take_timelines(&mut self) -> Option<Timelines> {
        self.obs.take().map(|o| o.timelines)
    }
}

impl Default for Lab {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// runtime sanitizer wiring
// ---------------------------------------------------------------------

/// Ring capacity of the flight recorder armed alongside the sanitizer:
/// the "last N events" a violation dump shows per host.
pub const FLIGHT_RING: usize = 256;

/// The flight recorder, what is left of the MAGNET analog: one ring per
/// host of the last `capacity` events it fired, oldest first. MAGNET
/// (Gardner et al., CCGrid'03) traced individual packets through the
/// Linux TCP stack; here every pipeline station is an [`Ev`] kind, so
/// the fired event itself is the probe.
#[derive(Debug)]
struct FlightRecorder {
    capacity: usize,
    rings: Vec<VecDeque<(Nanos, Ev)>>,
}

/// Arm the flight recorder: from now on every event [`Ev::fire`] runs on
/// a host is kept in that host's ring of its last `capacity` events
/// (hosts added later are not recorded). A capacity of 0 is off.
/// Recording is observe-only: it schedules no events and draws no
/// randomness, so arming it cannot perturb a run.
pub fn arm_flight_recorder(lab: &mut Lab, capacity: usize) {
    lab.flight = (capacity > 0).then(|| FlightRecorder {
        capacity,
        rings: (0..lab.hosts.len())
            .map(|_| VecDeque::with_capacity(capacity))
            .collect(),
    });
}

/// Install a runtime invariant [`Sanitizer`] recording `seed` on `eng`, and
/// arm the flight recorder at [`FLIGHT_RING`] events per host — the one
/// place library code arms it.
///
/// The recorded `seed` makes every violation a one-command repro, and the
/// flight recorder makes the violation come with its story:
/// [`check_sanitizer`] appends every host's ring to the panic message.
pub fn install_sanitizer(lab: &mut Lab, eng: &mut LabEngine, seed: u64) {
    eng.install_sanitizer(Sanitizer::new(seed));
    arm_flight_recorder(lab, FLIGHT_RING);
}

/// [`install_sanitizer`] when the process-wide default asks for one
/// (always in debug builds; opt-in via
/// [`tengig_sim::sanitizer::set_default_enabled`] in release builds).
pub fn install_default_sanitizer(lab: &mut Lab, eng: &mut LabEngine, seed: u64) {
    if tengig_sim::sanitizer::default_enabled() {
        install_sanitizer(lab, eng, seed);
    }
}

/// A fresh engine for `lab`: a 2·10⁹ event limit (a livelock guard far
/// above any pinned workload) and the default sanitizer recording `seed`
/// ([`install_default_sanitizer`]). Every experiment world runs on one.
pub fn engine(lab: &mut Lab, seed: u64) -> LabEngine {
    let mut eng = Engine::new();
    eng.event_limit = 2_000_000_000;
    install_default_sanitizer(lab, &mut eng, seed);
    eng
}

/// A flight-recorder dump: the last [`FLIGHT_RING`] events of every host
/// (the armed capacity, in general), captured when the sanitizer fires
/// and rendered as text for the panic message.
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// Per-host `(host index, (fire time, event) oldest-first)`.
    pub hosts: Vec<(usize, Vec<(Nanos, Ev)>)>,
}

impl FlightDump {
    /// Whether no host recorded any events (recorder off or idle).
    pub fn is_empty(&self) -> bool {
        self.hosts.iter().all(|(_, evs)| evs.is_empty())
    }

    /// Total events across all hosts.
    pub fn len(&self) -> usize {
        self.hosts.iter().map(|(_, evs)| evs.len()).sum()
    }

    /// Human-readable rendering (the form embedded in panic messages):
    /// one line per event, its fire time in ns and then the event with
    /// its fields.
    pub fn text(&self) -> String {
        if self.is_empty() {
            return "== flight recorder == (no events recorded)\n".to_string();
        }
        let mut out = String::from("== flight recorder ==\n");
        for (host, evs) in &self.hosts {
            let _ = writeln!(out, "host {host}: last {} events", evs.len());
            for (at, ev) in evs {
                let _ = writeln!(out, "  [{:>14}] {ev:?}", at.as_nanos());
            }
        }
        out
    }
}

/// Collect the flight-recorder dump: every host's ring, in host-index
/// order (empty if the recorder is off).
pub fn flight_dump(lab: &Lab) -> FlightDump {
    let rings = lab.flight.iter().flat_map(|fr| fr.rings.iter());
    FlightDump {
        hosts: rings
            .enumerate()
            .map(|(h, ring)| (h, ring.iter().copied().collect()))
            .collect(),
    }
}

/// Panic with the sanitizer's full report (seed, scenario, violations) —
/// followed by the flight-recorder dump, so the panic carries the recent
/// per-host packet history and not just a scalar — if any invariant was
/// breached during the run. With `drained`, first assert the
/// byte-conservation ledger settled to zero in-flight — only valid for
/// runs whose event calendar fully emptied (windowed measurements stop with
/// frames legitimately still on the wire).
pub fn check_sanitizer(lab: &Lab, eng: &mut LabEngine, drained: bool) {
    let now = eng.now();
    if let Some(s) = eng.sanitizer_mut() {
        if drained {
            s.check_drained(now);
        }
        if s.has_violations() {
            panic!("{}\n{}", s.report(), flight_dump(lab).text());
        }
    }
}

/// Record a TCP invariant breach on flow `f` endpoint `ep`, if the
/// connection's state is inconsistent and a sanitizer is installed.
fn check_tcp_invariants(lab: &Lab, eng: &mut LabEngine, f: usize, ep: usize) {
    let now = eng.now();
    if let Some(s) = eng.sanitizer_mut() {
        if let Err(e) = lab.flows[f].conns[ep].check_invariants() {
            s.record(
                ViolationKind::TcpInvariant,
                now,
                format!("flow {f} ep {ep}: {e}"),
            );
        }
    }
}

// ---------------------------------------------------------------------
// engine wiring (free functions: events close over flow/endpoint indices)
// ---------------------------------------------------------------------

/// Start every flow's workload shortly after t=0, staggered so multi-flow
/// runs do not phase-lock: flow `f` starts at 1 µs + 137 ns·`f` (see
/// [`kick_at`]). The stagger uses the global flow index, so start times
/// are shard-count-invariant.
pub fn kick(lab: &mut Lab, eng: &mut LabEngine) {
    let arrivals: Vec<Nanos> = (0..lab.flows.len())
        .map(|f| Nanos::from_micros(1) + Nanos::from_nanos(137 * f as u64))
        .collect();
    kick_at(lab, eng, &arrivals);
}

/// Start flows at explicit arrival instants — the open-loop workload
/// plane. `arrivals[f]` is flow `f`'s absolute start time, typically a
/// pre-built [`tengig_sim::build_schedule`] draw, so the generator costs
/// zero RNG draws and zero events inside the run itself. On a shard only
/// the flows whose transmitting host it owns are started — each flow's
/// driver runs on exactly one shard. With observability on, the
/// first sample is armed one interval in.
pub fn kick_at(lab: &mut Lab, eng: &mut LabEngine, arrivals: &[Nanos]) {
    assert_eq!(
        arrivals.len(),
        lab.flows.len(),
        "one arrival instant per flow"
    );
    for (f, at) in arrivals.iter().enumerate() {
        if lab.runs_host(lab.flows[f].host[0]) {
            eng.schedule_event_at(*at, Ev::StartFlow { f });
        }
    }
    if let Some(obs) = &lab.obs {
        eng.schedule_event_at(obs.interval, Ev::ObsSample);
    }
}

/// Mark flow `f` endpoint `ep` for the next obs sample. Called right
/// after every `TcpConn` mutator the lab invokes; a no-op with obs off.
#[inline]
fn obs_touch(lab: &mut Lab, f: usize, ep: usize) {
    if let Some(obs) = &mut lab.obs {
        obs.dirty_eps.set(2 * f + ep);
    }
}

/// Mark every link on flow `f`'s route from endpoint `ep` for the next
/// obs sample: a walk down it dropped a frame, so some link's drop
/// counters moved.
fn obs_touch_route(lab: &mut Lab, f: usize, ep: usize) {
    if let Some(obs) = &mut lab.obs {
        for &l in &lab.flows[f].route[ep] {
            obs.dirty_links.set(l);
        }
    }
}

/// The sampled metrics of one flow endpoint, in series key order.
fn flow_metrics(c: &TcpConn) -> [(MetricKind, u64); 6] {
    [
        (MetricKind::Cwnd, c.cc.cwnd),
        (MetricKind::Ssthresh, c.cc.ssthresh),
        (
            MetricKind::SrttNanos,
            c.srtt().unwrap_or(Nanos::ZERO).as_nanos(),
        ),
        (MetricKind::RttvarNanos, c.rttvar().as_nanos()),
        (MetricKind::BytesInFlight, c.inflight_bytes()),
        (MetricKind::Retransmits, c.stats.retransmits),
    ]
}

/// The sampled metrics of one host, in series key order.
fn host_metrics(host: &HostRt) -> [(MetricKind, u64); 5] {
    [
        (MetricKind::RxRingFrames, host.rx_pending.len() as u64),
        (MetricKind::CoalescePending, host.coalescer.pending() as u64),
        (
            MetricKind::CoalesceDelayNanos,
            host.cfg.nic.rx_coalesce_delay.as_nanos(),
        ),
        (MetricKind::RxCrcDrops, host.rx_crc_drops),
        (
            MetricKind::CpuBusyNanos,
            host.hottest_cpu_busy_total().as_nanos(),
        ),
    ]
}

/// The sampled metrics of one link, in series key order.
fn link_metrics(link: &PathState) -> [(MetricKind, u64); 2] {
    [
        (MetricKind::QueueDrops, link.total_drops()),
        (MetricKind::ImpairDrops, link.impair_drops()),
    ]
}

/// Record one scope's metrics at `now`; returns the record count.
fn record_scope(
    tl: &mut Timelines,
    scope: Scope,
    now: Nanos,
    metrics: &[(MetricKind, u64)],
) -> u64 {
    for &(m, v) in metrics {
        tl.record(scope, m, now, v);
    }
    metrics.len() as u64
}

/// Whether this replica samples link `l`: it owns the link's
/// transmitting host ([`GridRt::owns_link`]), or it owns everything.
fn samples_link(lab: &Lab, l: usize) -> bool {
    lab.grid.as_ref().map_or(true, |g| g.owns_link(l))
}

/// One observability sample: read every host's NIC/CPU state, and the
/// TCP state of each flow endpoint and the drop counters of each link
/// marked in the dirty maps since the last sample (all of them on the
/// first), into the step-series; then re-arm the sampling timer while
/// the calendar holds any event (so every active phase is sampled on the
/// global k·interval grid and a finished run's calendar drains).
///
/// The skipped scopes are exactly those whose metrics cannot have moved
/// (see [`ObsRt`]), so the timelines equal a full walk's byte for byte.
/// Under a sanitizer the sampler proves it: it re-reads every owned
/// flow endpoint and link and records a [`ViolationKind::ObsStale`] for
/// any metric that differs from its series' last point.
///
/// Strictly read-only with respect to the simulation: no resource is
/// admitted, no randomness drawn, no connection touched — so enabling
/// observability never changes what a run measures.
///
/// A shard samples **only the scopes it owns** — flow endpoints on owned
/// hosts, owned hosts, links whose transmitting host it owns
/// ([`GridRt::owns_link`]) — so the per-shard timelines partition the
/// scope space and [`Timelines::merge`] reassembles the same whole an
/// unpartitioned run records. Every metric keeps that invariant: host
/// CPU is the cumulative [`MetricKind::CpuBusyNanos`] (a dormant shard's
/// value is exactly frozen, so skipped samples collapse away), and no
/// metric decays with *when* the owning shard happens to sample.
///
/// Kept out of line: it runs once per sampling interval, and inlined
/// into [`Ev`]'s dispatch it would grow the code every event runs.
#[inline(never)]
fn obs_sample(lab: &mut Lab, eng: &mut LabEngine) {
    let now = eng.now();
    let Some(mut obs) = lab.obs.take() else {
        return;
    };
    let ObsRt {
        timelines: tl,
        dirty_eps,
        dirty_links,
        ..
    } = &mut obs;
    let mut records = 0;
    dirty_eps.drain(|i| {
        let (f, ep) = (i / 2, i % 2);
        let flow = &lab.flows[f];
        if lab.runs_host(flow.host[ep]) {
            let scope = Scope::Flow {
                flow: f as u32,
                ep: ep as u32,
            };
            records += record_scope(tl, scope, now, &flow_metrics(&flow.conns[ep]));
        }
    });
    for (h, host) in lab.hosts.iter().enumerate() {
        if lab.runs_host(h) {
            let scope = Scope::Host { host: h as u32 };
            records += record_scope(tl, scope, now, &host_metrics(host));
        }
    }
    dirty_links.drain(|l| {
        if samples_link(lab, l) {
            let scope = Scope::Link { link: l as u32 };
            records += record_scope(tl, scope, now, &link_metrics(&lab.links[l]));
        }
    });
    lab.prof.obs_records += records;
    if let Some(s) = eng.sanitizer_mut() {
        check_obs_fresh(lab, tl, s, now);
    }
    // A shard whose calendar drained goes dormant here and is revived by
    // the next cross-shard message.
    obs.armed = eng.pending() > 0;
    if obs.armed {
        eng.schedule_event_at(now + obs.interval, Ev::ObsSample);
    }
    lab.obs = Some(obs);
}

/// Sanitizer check of the sampler's skips, run right after a sample:
/// every owned flow endpoint's and link's live metrics must equal their
/// series' last points. A mismatch means some mutation did not mark its
/// scope dirty, and the timelines silently missed a change.
fn check_obs_fresh(lab: &Lab, tl: &Timelines, s: &mut Sanitizer, now: Nanos) {
    let mut check = |scope: Scope, metrics: &[(MetricKind, u64)]| {
        for &(m, v) in metrics {
            let last = tl.get(scope, m).and_then(StepSeries::last);
            if last != Some(v) {
                s.record(
                    ViolationKind::ObsStale,
                    now,
                    format!("{scope} {m}: live {v}, series last {last:?}"),
                );
            }
        }
    };
    for (f, flow) in lab.flows.iter().enumerate() {
        for ep in 0..2 {
            if lab.runs_host(flow.host[ep]) {
                let scope = Scope::Flow {
                    flow: f as u32,
                    ep: ep as u32,
                };
                check(scope, &flow_metrics(&flow.conns[ep]));
            }
        }
    }
    for (l, link) in lab.links.iter().enumerate() {
        if samples_link(lab, l) {
            check(Scope::Link { link: l as u32 }, &link_metrics(link));
        }
    }
}

/// Revival of a shard's dormant sampling chain: when a cross-shard
/// message lands on a shard whose [`Ev::ObsSample`] chain stopped (its
/// calendar had drained), restart it at the next multiple of the sampling
/// interval at or after the message's arrival instant — exactly the grid
/// of instants the equivalent single-shard run samples on — so merged
/// timelines stay shard-count-invariant.
pub(super) fn obs_revive(lab: &mut Lab, eng: &mut LabEngine, at: Nanos) {
    let Some(obs) = &mut lab.obs else {
        return;
    };
    if obs.armed {
        return;
    }
    obs.armed = true;
    let iv = obs.interval.as_nanos().max(1);
    let k = at.as_nanos().div_ceil(iv);
    eng.schedule_event_at(Nanos::from_nanos(k.saturating_mul(iv)), Ev::ObsSample);
}

fn start_flow(lab: &mut Lab, eng: &mut LabEngine, f: usize) {
    let now = eng.now();
    // First fire only: capture CPU baselines for load measurement and
    // stamp the connections open. Disk relays re-enter here on every pump
    // wakeup ([`Ev::StartFlow`] doubles as their timer), and a re-fire
    // must not move the baselines.
    if !lab.flows[f].started {
        lab.flows[f].started = true;
        for ep in 0..2 {
            let h = lab.flows[f].host[ep];
            lab.flows[f].meas.cpu_busy_start[ep] = lab.hosts[h].hottest_cpu_busy(now);
            lab.flows[f].conns[ep].on_open(now);
            obs_touch(lab, f, ep);
        }
    }
    match &mut lab.flows[f].app {
        App::Nttcp { .. } | App::Iperf(_) => app_write_pump(lab, eng, f),
        App::NetPipe(np) => {
            if let Some(w) = np.start_ping(now) {
                lab.flows[f].meas.t_start.get_or_insert(now);
                app_write(lab, eng, f, 0, w);
            }
        }
        App::Pktgen(_) => pktgen_tick(lab, eng, f),
        App::DiskPipe(_) => disk_pump(lab, eng, f),
    }
}

/// The NTTCP sender loop: issue writes while buffer space allows.
fn app_write_pump(lab: &mut Lab, eng: &mut LabEngine, f: usize) {
    let now = eng.now();
    loop {
        let space = lab.flows[f].conns[0].snd_buf_space();
        let next = match &mut lab.flows[f].app {
            App::Nttcp { tx, .. } => tx.next_write(now, space),
            App::Iperf(ip) => (ip.keep_writing(now) && space >= ip.payload).then_some(ip.payload),
            _ => None,
        };
        let Some(w) = next else { break };
        lab.flows[f].meas.t_start.get_or_insert(now);
        app_write(lab, eng, f, 0, w);
    }
}

/// The disk-relay sender loop: retire source-disk reads the spindle has
/// finished, keep the read lane primed ([`DISK_READAHEAD`] chunks), and
/// stream staged bytes into the socket while buffer space allows. When
/// the socket could take more but the disk has not produced it yet, the
/// pump arms an [`Ev::StartFlow`] wakeup at the oldest outstanding
/// read's completion — the event that started the flow doubles as the
/// pump timer, so the disk plane adds no event variants of its own.
fn disk_pump(lab: &mut Lab, eng: &mut LabEngine, f: usize) {
    let now = eng.now();
    let h = lab.flows[f].host[0];
    // Disk bookkeeping: retire, prime, arm the wakeup.
    {
        let flow = &mut lab.flows[f];
        let host = &mut lab.hosts[h];
        let App::DiskPipe(dp) = &mut flow.app else {
            return;
        };
        let disk = host
            .disk
            .as_mut()
            .expect("a DiskPipe endpoint host has a disk bank attached");
        if dp.wake_at.is_some_and(|t| t <= now) {
            dp.wake_at = None;
        }
        while dp.reads.front().is_some_and(|(done, _)| *done <= now) {
            if let Some((_, n)) = dp.reads.pop_front() {
                dp.staged += n;
            }
        }
        while dp.reads.len() < DISK_READAHEAD && dp.read_admitted < dp.total {
            let n = dp.chunk.min(dp.total - dp.read_admitted);
            let adm = disk.read(dp.stream, now, n);
            dp.read_admitted += n;
            dp.reads.push_back((adm.done, n));
        }
        if dp.wake_at.is_none() {
            if let Some(&(done, _)) = dp.reads.front() {
                eng.schedule_event_at(done, Ev::StartFlow { f });
                dp.wake_at = Some(done);
            }
        }
    }
    // Stream staged bytes into the socket while space allows. One write
    // per iteration so `snd_buf_space` reflects each accepted write.
    loop {
        let space = lab.flows[f].conns[0].snd_buf_space();
        let next = match &mut lab.flows[f].app {
            App::DiskPipe(dp) if dp.staged >= dp.tx.payload => {
                let w = dp.tx.next_write(now, space);
                if let Some(w) = w {
                    dp.staged -= w;
                }
                w
            }
            _ => None,
        };
        let Some(w) = next else { break };
        lab.flows[f].meas.t_start.get_or_insert(now);
        app_write(lab, eng, f, 0, w);
    }
}

/// One application write at endpoint `ep`: charge the syscall, push the
/// bytes into the connection, process the resulting actions.
fn app_write(lab: &mut Lab, eng: &mut LabEngine, f: usize, ep: usize, bytes: u64) {
    let now = eng.now();
    let h = lab.flows[f].host[ep];
    let cpu_idx = lab.hosts[h].app_cpu(f);
    let cost = lab.hosts[h].write_cpu_cost(bytes);
    lab.hosts[h].cpu.admit_pinned(cpu_idx, now, cost);
    let bus = lab.hosts[h].copy_bus_time(bytes);
    lab.hosts[h].membus.admit(now, bus);
    let mut actions = lab.take_actions();
    let accepted = lab.flows[f].conns[ep].on_app_write_into(now, bytes, &mut actions);
    obs_touch(lab, f, ep);
    debug_assert_eq!(accepted, bytes, "writer checked space before writing");
    process_actions(lab, eng, f, ep, &mut actions);
    lab.recycle_actions(actions);
}

/// Turn connection actions into scheduled, cost-charged events. The
/// buffer is drained (not consumed) so the caller can recycle it through
/// the lab's action pool.
pub fn process_actions(
    lab: &mut Lab,
    eng: &mut LabEngine,
    f: usize,
    ep: usize,
    actions: &mut Vec<Action>,
) {
    for act in actions.drain(..) {
        match act {
            Action::Send(seg) => send_segment(lab, eng, f, ep, seg),
            Action::SetTimer { kind, at, gen } => {
                // A re-armed timer supersedes the pending one, which
                // would be a generation-guarded no-op (the connection
                // bumps its generation on every arm), so cancel it
                // instead of letting it fire into the void.
                let id = &mut lab.flows[f].timer_ids[ep][timer_slot(kind)];
                *id = Some(eng.rearm_at(*id, at, Ev::ConnTimer { f, ep, kind, gen }));
            }
            Action::DeliverData { bytes } => schedule_app_read(lab, eng, f, ep, bytes),
            Action::SndBufSpace => {
                if ep == 0 {
                    match lab.flows[f].app {
                        App::Nttcp { .. } | App::Iperf(_) => app_write_pump(lab, eng, f),
                        App::DiskPipe(_) => disk_pump(lab, eng, f),
                        _ => {}
                    }
                }
            }
        }
    }
}

/// Transmit pipeline: CPU → (event) → PCI-X DMA with concurrent memory-bus
/// traffic → (event) → link route → arrival.
///
/// Each stage is engaged by an engine event at the moment the previous
/// stage finishes, so every server admission happens at current time — a
/// server is never reserved in the future (which would waste idle gaps and
/// ratchet queues ahead of the clock).
fn send_segment(lab: &mut Lab, eng: &mut LabEngine, f: usize, src_ep: usize, seg: Segment) {
    let now = eng.now();
    let h = lab.flows[f].host[src_ep];

    // CPU: data segments are produced in app/softirq context on the CPU
    // that ran the triggering event; charge the app CPU for data, the IRQ
    // CPU for pure ACKs (they are emitted from receive processing).
    let host = &mut lab.hosts[h];
    let cpu_idx = if seg.is_pure_ack() {
        host.irq_cpu()
    } else {
        host.app_cpu(f)
    };
    let cpu_cost = host.tx_cpu_cost(&seg);
    let cpu_adm = host.cpu.admit_pinned(cpu_idx, now, cpu_cost);
    eng.schedule_event_at(cpu_adm.done, Ev::TxDma { f, ep: src_ep, seg });
}

/// Stage 2 of transmit: the NIC DMA-reads the frame over PCI-X, its
/// memory-bus traffic concurrent with the bus transfer.
fn tx_dma(lab: &mut Lab, eng: &mut LabEngine, f: usize, src_ep: usize, seg: Segment) {
    let now = eng.now();
    let h = lab.flows[f].host[src_ep];
    let frame = HostRt::frame_bytes(&seg);
    let host = &mut lab.hosts[h];
    let pci_adm = host.pci.admit(now, host.pci_time(frame));
    let bus_adm = host.membus.admit(now, host.dma_bus_time(frame));
    let t3 = pci_adm.done.max(bus_adm.done);
    eng.schedule_event_at(t3, Ev::TxWire { f, ep: src_ep, seg });
}

/// Walk `wire` bytes down flow `f`'s route from endpoint `ep` starting at
/// `start`: one [`PathState::carry`] per link, so the frame's copies (the
/// original plus at most one impairment duplicate, minted anywhere on the
/// route) cross each link in turn. Corruption and reorder marks stick to
/// the copy that earned them, and a duplicate inherits its parent's.
///
/// The walk's ledger entries are posted here, for both transmit paths
/// (`tx_wire`, `pktgen_tick`): a drop marks the route for the next obs
/// sample, and the sanitizer's byte ledger enters the duplicate and
/// retires each dropped copy at `start`.
fn route_walk(
    lab: &mut Lab,
    eng: &mut LabEngine,
    f: usize,
    ep: usize,
    start: Nanos,
    wire: u64,
) -> PathVerdict {
    let (links, route) = (&mut lab.links, &lab.flows[f].route[ep]);
    let mut v = PathVerdict::default();
    v.deliveries[0] = Some(Delivery {
        at: start,
        ..Delivery::default()
    });
    for &lid in route {
        links[lid].carry(wire, &mut v);
    }
    if v.dropped > 0 {
        obs_touch_route(lab, f, ep);
    }
    if let Some(s) = eng.sanitizer_mut() {
        if v.duplicated {
            // The duplicate is a second physical frame on the wire: it
            // enters the ledger here and retires via its own delivery or
            // drop, so byte conservation holds per copy.
            s.inject(wire);
        }
        for _ in 0..v.dropped {
            s.drop_bytes(start, wire);
        }
    }
    v
}

/// Stage 3 of transmit: walk the link route (serialization + queueing
/// happens inside the hop states).
fn tx_wire(lab: &mut Lab, eng: &mut LabEngine, f: usize, src_ep: usize, seg: Segment) {
    let now = eng.now();
    let wire = tengig_ethernet::Mtu::wire_bytes_for(seg.ip_bytes());
    if let Some(s) = eng.sanitizer_mut() {
        s.inject(wire);
    }
    let v = route_walk(lab, eng, f, src_ep, now, wire);
    for d in v.deliveries.into_iter().flatten() {
        grid::route_arrival(lab, eng, f, 1 - src_ep, seg, d);
    }
}

/// A frame fully arrived at the destination NIC: rx DMA, then coalescing.
/// A corrupted frame dies here — the MAC verifies the FCS before posting
/// the DMA, so a bad frame never touches the bus, the ring, or TCP; the
/// wire ledger retires its bytes as a drop at arrival time.
fn frame_arrival(
    lab: &mut Lab,
    eng: &mut LabEngine,
    f: usize,
    dst_ep: usize,
    seg: Segment,
    corrupted: bool,
) {
    let now = eng.now();
    if let Some((at, key, ev)) = lab.flows[f].lanes[dst_ep].advance(&mut lab.arrivals, now) {
        eng.schedule_front_at(at, key, ev);
    }
    let wire = tengig_ethernet::Mtu::wire_bytes_for(seg.ip_bytes());
    let h = lab.flows[f].host[dst_ep];
    if corrupted {
        if let Some(s) = eng.sanitizer_mut() {
            s.drop_bytes(now, wire);
        }
        lab.hosts[h].rx_crc_drops += 1;
        return;
    }
    if let Some(s) = eng.sanitizer_mut() {
        s.deliver(now, wire);
    }
    let host = &mut lab.hosts[h];
    let frame = HostRt::frame_bytes(&seg);
    // The DMA's memory-bus traffic happens during the PCI-X transfer; both
    // engaged now, DMA complete when both are done.
    let pci_adm = host.pci.admit(now, host.pci_time(frame));
    let bus_adm = host.membus.admit(now, host.dma_bus_time(frame));
    let t_dma = pci_adm.done.max(bus_adm.done);
    eng.schedule_event_at(t_dma, Ev::RxDmaDone { f, ep: dst_ep, seg });
}

/// Run the coalescer for a DMA-complete frame on host `h`.
fn coalesce_frame(lab: &mut Lab, eng: &mut LabEngine, h: usize) {
    let now = eng.now();
    let (action, gen) = lab.hosts[h].coalescer.on_frame(now);
    match action {
        CoalesceAction::FireNow => {
            let batch = lab.hosts[h].coalescer.fire_now();
            process_rx_batch(lab, eng, h, batch);
        }
        CoalesceAction::ArmTimer(at) => {
            eng.schedule_event_at(at, Ev::CoalesceTimer { h, gen });
        }
        CoalesceAction::None => {}
    }
}

/// An interrupt fired on host `h` covering `batch` frames: charge the IRQ
/// entry once, then per-frame stack processing; each frame's protocol work
/// completes at its own CPU-admission time.
fn process_rx_batch(lab: &mut Lab, eng: &mut LabEngine, h: usize, batch: u32) {
    let now = eng.now();
    lab.prof.rx_batch.record(u64::from(batch));
    let irq_cpu = lab.hosts[h].irq_cpu();
    let irq = lab.hosts[h].irq_cost();
    lab.hosts[h].cpu.admit_pinned(irq_cpu, now, irq);
    for _ in 0..batch {
        let Some(RxFrame { flow, ep, seg }) = lab.hosts[h].rx_pending.pop_front() else {
            break;
        };
        let cost = lab.hosts[h].rx_cpu_cost(&seg);
        let done = lab.hosts[h].cpu.admit_pinned(irq_cpu, now, cost).done;
        eng.schedule_event_at(done, Ev::RxStack { f: flow, ep, seg });
    }
}

/// Note newly delivered bytes and (if no read is already in flight)
/// schedule the application's read. The reader loops on `recv`, so all
/// bytes that accumulate while one read executes are drained by the next
/// in a single syscall — syscall and wakeup costs amortize over the batch.
fn schedule_app_read(lab: &mut Lab, eng: &mut LabEngine, f: usize, ep: usize, bytes: u64) {
    lab.flows[f].read_pending[ep] += bytes;
    if !lab.flows[f].read_scheduled[ep] {
        lab.flows[f].read_scheduled[ep] = true;
        eng.schedule_event_at(eng.now(), Ev::AppRead { f, ep, fresh: true });
    }
}

/// Largest single copy-to-user chunk: the kernel yields to softirq work at
/// page-cluster granularity, so one huge read cannot monopolize the CPU —
/// interrupt processing interleaves between chunks.
const READ_CHUNK: u64 = 16_384;

/// Execute one (chunk of a) batched application read. `fresh` marks the
/// first chunk after a wakeup, which pays the syscall + wakeup cost;
/// continuation chunks are pure copy.
fn app_read(lab: &mut Lab, eng: &mut LabEngine, f: usize, ep: usize, fresh: bool) {
    let now = eng.now();
    let pending = lab.flows[f].read_pending[ep];
    if pending == 0 {
        lab.flows[f].read_scheduled[ep] = false;
        return;
    }
    let bytes = pending.min(READ_CHUNK);
    lab.flows[f].read_pending[ep] -= bytes;
    let h = lab.flows[f].host[ep];
    let cpu_idx = lab.hosts[h].app_cpu(f);
    let cpu = &lab.hosts[h].cfg.hw.cpu;
    let cost = if fresh {
        lab.hosts[h].read_cpu_cost(bytes)
    } else {
        cpu.copy_time(bytes)
    };
    let cpu_adm = lab.hosts[h].cpu.admit_pinned(cpu_idx, now, cost);
    // The copy's bus traffic rides along with the copy loop; it charges
    // the shared bus but does not re-gate the reader, which is clocked by
    // CPU availability alone (a recv loop drains as fast as it can copy).
    let bus = lab.hosts[h].copy_bus_time(bytes);
    lab.hosts[h].membus.admit(now, bus);
    let t2 = cpu_adm.done;
    eng.schedule_event_at(t2, Ev::ReadDone { f, ep, bytes });
}

/// An application read chunk's CPU time completed: free the receive
/// window, react to the delivered bytes, and chain the next chunk if more
/// data accumulated while this one copied.
fn read_done(lab: &mut Lab, eng: &mut LabEngine, f: usize, ep: usize, bytes: u64) {
    let now = eng.now();
    let mut acts = lab.take_actions();
    lab.flows[f].conns[ep].on_app_read_into(now, bytes, &mut acts);
    obs_touch(lab, f, ep);
    process_actions(lab, eng, f, ep, &mut acts);
    lab.recycle_actions(acts);
    app_on_delivered(lab, eng, f, ep, bytes);
    // Drain anything that arrived while this chunk copied.
    if lab.flows[f].read_pending[ep] > 0 {
        app_read(lab, eng, f, ep, false);
    } else {
        lab.flows[f].read_scheduled[ep] = false;
    }
}

/// Record a flow's completion time and CPU snapshots (idempotent).
fn mark_done(lab: &mut Lab, f: usize, now: Nanos) {
    if lab.flows[f].meas.t_done.is_some() {
        return;
    }
    lab.flows[f].meas.t_done = Some(now);
    for ep in 0..2 {
        let h = lab.flows[f].host[ep];
        lab.flows[f].meas.cpu_busy_end[ep] = lab.hosts[h].hottest_cpu_busy(now);
        lab.flows[f].conns[ep].on_close(now);
        obs_touch(lab, f, ep);
    }
}

/// Workload reaction to delivered-and-read data.
fn app_on_delivered(lab: &mut Lab, eng: &mut LabEngine, f: usize, ep: usize, bytes: u64) {
    let now = eng.now();
    let mut write_back: Option<(usize, u64)> = None;
    let mut disk_write: Option<(usize, bool)> = None;
    match &mut lab.flows[f].app {
        App::Nttcp { rx, .. } => {
            if ep == 1 {
                rx.on_delivered(now, bytes);
                if rx.is_done() {
                    mark_done(lab, f, now);
                }
            }
        }
        App::NetPipe(np) => {
            let side = if ep == 1 {
                PingPongSide::Echoer
            } else {
                PingPongSide::Initiator
            };
            if let Some(w) = np.on_delivered(now, side, bytes) {
                write_back = Some((ep, w));
            }
            if np.is_done() {
                mark_done(lab, f, now);
            }
        }
        App::Iperf(ip) => {
            if ep == 1 {
                ip.on_delivered(now, bytes);
                if now >= ip.deadline() {
                    mark_done(lab, f, now);
                }
            }
        }
        App::Pktgen(_) => {}
        App::DiskPipe(dp) => {
            if ep == 1 {
                dp.rx.on_delivered(now, bytes);
                disk_write = Some((dp.stream, dp.rx.is_done()));
            }
        }
    }
    if let Some((wep, w)) = write_back {
        app_write(lab, eng, f, wep, w);
    }
    if let Some((stream, finished)) = disk_write {
        // Write-behind: the delivered batch goes straight onto the
        // destination disk's write lane. The pipeline's true end is the
        // *drain* of that lane, tracked analytically — the flow's network
        // completion (`mark_done`) stays at delivery time, exactly as for
        // NTTCP, and the drain instant rides along in the relay state.
        let h1 = lab.flows[f].host[1];
        let adm = lab.hosts[h1]
            .disk
            .as_mut()
            .expect("a DiskPipe endpoint host has a disk bank attached")
            .write(stream, now, bytes);
        if let App::DiskPipe(dp) = &mut lab.flows[f].app {
            dp.drain_done = dp.drain_done.max(adm.done);
        }
        if finished {
            mark_done(lab, f, now);
        }
    }
}

// ---------------------------------------------------------------------
// pktgen (single-copy, TCP-bypass)
// ---------------------------------------------------------------------

/// One iteration of the kernel packet-generator loop.
fn pktgen_tick(lab: &mut Lab, eng: &mut LabEngine, f: usize) {
    let now = eng.now();
    let h = lab.flows[f].host[0];
    let (ip_bytes, proceed) = match &mut lab.flows[f].app {
        App::Pktgen(pg) => {
            let ip = pg.ip_bytes();
            (ip, pg.next_packet(now))
        }
        _ => (0, false),
    };
    if !proceed {
        return;
    }
    lab.flows[f].meas.t_start.get_or_insert(now);
    let frame = ip_bytes + tengig_ethernet::ETH_HEADER + tengig_ethernet::ETH_FCS;
    let wire = tengig_ethernet::Mtu::wire_bytes_for(ip_bytes);
    if let Some(s) = eng.sanitizer_mut() {
        s.inject(wire);
    }
    let host = &mut lab.hosts[h];
    // Loop CPU cost (single copy: no user copy, pre-formed skb). The CPU
    // runs ahead of the DMA ring, so the loop cost does not gate the PCI
    // admission; ring backpressure below is what throttles the loop.
    let cpu = host.cfg.hw.cpu.plain_time(tengig_tools::pktgen::LOOP_COST);
    let t1 = host.cpu.admit_pinned(0, now, cpu).done;
    // PCI-X, with the DMA's memory-bus traffic concurrent.
    let pci_time = host.pci_time(frame);
    let adm = host.pci.admit(now, pci_time);
    host.membus.admit(now, host.dma_bus_time(frame));
    let t3 = adm.done;
    // Wire.
    let v = route_walk(lab, eng, f, 0, t3, wire);
    let mut t = t3;
    let mut counted = false;
    let dst_h = lab.flows[f].host[1];
    for d in v.deliveries.into_iter().flatten() {
        t = t.max(d.at);
        if d.corrupted {
            // The sink's NIC discards the bad-FCS frame on arrival.
            if let Some(s) = eng.sanitizer_mut() {
                s.drop_bytes(d.at, wire);
            }
            lab.hosts[dst_h].rx_crc_drops += 1;
        } else {
            // pktgen's sink only counts, so the frame is "delivered" the
            // moment it clears the wire.
            if let Some(s) = eng.sanitizer_mut() {
                s.deliver(d.at, wire);
            }
            if !counted {
                if let App::Pktgen(pg) = &mut lab.flows[f].app {
                    pg.on_wire_done(d.at);
                }
                counted = true;
            }
        }
    }
    // Self-clock: the loop runs ahead until the descriptor ring
    // (RING_DEPTH packets) is full, then blocks on ring space.
    let ring = pci_time * tengig_tools::pktgen::RING_DEPTH as u64;
    let gate = lab.hosts[h].pci.busy_until().saturating_sub(ring);
    let next = t1.max(gate);
    let done = matches!(&lab.flows[f].app, App::Pktgen(pg) if pg.finished());
    if done {
        let t_done = t.max(now);
        mark_done(lab, f, t_done);
    } else {
        eng.schedule_event_at(next, Ev::PktgenTick { f });
    }
}

// ---------------------------------------------------------------------
// results
// ---------------------------------------------------------------------

/// CPU load of flow `f`'s endpoint `ep` over the measurement interval,
/// from the busy snapshots taken at start and completion.
pub fn cpu_load(lab: &Lab, f: usize, ep: usize) -> f64 {
    let m = &lab.flows[f].meas;
    let (Some(start), Some(end)) = (m.t_start, m.t_done) else {
        return 0.0;
    };
    if end <= start {
        return 0.0;
    }
    let busy = m.cpu_busy_end[ep].saturating_sub(m.cpu_busy_start[ep]);
    (busy.as_nanos() as f64 / (end - start).as_nanos() as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LadderRung;
    use crate::experiments::{b2b_lab, run_to_completion};
    use tengig_ethernet::Mtu;

    /// Run `app` back-to-back between two `rung` hosts to completion.
    fn run_b2b(rung: LadderRung, mtu: Mtu, app: App) -> (Lab, LabEngine) {
        let (mut lab, mut eng) = b2b_lab(rung.pe2650_config(mtu), app, 1);
        run_to_completion(&mut lab, &mut eng);
        (lab, eng)
    }

    fn nttcp(payload: u64, count: u64) -> App {
        App::Nttcp {
            tx: NttcpSender::new(payload, count),
            rx: NttcpReceiver::new(payload * count),
        }
    }

    /// A key ordinal at 2³¹ would spill into the endpoint bit and alias
    /// the peer's keys; the mint refuses it in release builds too.
    #[test]
    #[should_panic(expected = "emission ordinal overflow")]
    fn key_mint_rejects_an_ordinal_overflow() {
        let (mut lab, _) = b2b_lab(
            LadderRung::Stock.pe2650_config(Mtu::STANDARD),
            nttcp(1448, 1),
            1,
        );
        let flow = &mut lab.flows[0];
        flow.emit[0] = (1 << 31) - 1;
        assert_eq!(flow.next_key(0, 0), (1 << 31) - 1);
        flow.next_key(0, 0);
    }

    #[test]
    fn small_nttcp_run_completes() {
        let (lab, _) = run_b2b(LadderRung::Stock, Mtu::STANDARD, nttcp(1448, 200));
        let m = lab.flows[0].meas;
        let elapsed = m.t_done.unwrap() - m.t_start.unwrap();
        let gbps = tengig_sim::rate_of(1448 * 200, elapsed).gbps();
        assert!(gbps > 0.3, "throughput {gbps} too low");
        assert!(gbps < 10.0, "throughput {gbps} above line rate");
        assert_eq!(lab.flows[0].conns[0].stats.retransmits, 0);
    }

    #[test]
    fn tuned_beats_stock_for_jumbo() {
        let run = |rung| {
            let (lab, _) = run_b2b(rung, Mtu::JUMBO_9000, nttcp(8948, 600));
            let m = lab.flows[0].meas;
            tengig_sim::rate_of(8948 * 600, m.t_done.unwrap() - m.t_start.unwrap()).gbps()
        };
        let stock = run(LadderRung::Stock);
        let tuned = run(LadderRung::OversizedWindows);
        assert!(
            tuned > stock * 1.15,
            "tuned {tuned} Gb/s must clearly beat stock {stock} Gb/s"
        );
    }

    #[test]
    fn netpipe_latency_roundtrip() {
        let app = App::NetPipe(NetPipe::new(1, 20));
        let (lab, _) = run_b2b(LadderRung::Stock, Mtu::STANDARD, app);
        let App::NetPipe(np) = &lab.flows[0].app else {
            panic!()
        };
        let lat = np.one_way_latency().as_micros_f64();
        // Calibration target is 19 µs; insist on the right ballpark here.
        assert!((10.0..40.0).contains(&lat), "one-way latency {lat} µs");
    }

    #[test]
    fn pktgen_reaches_multi_gigabit() {
        let app = App::Pktgen(Pktgen::new(8132, 3000));
        let (lab, _) = run_b2b(LadderRung::Mtu8160, Mtu::TUNED_8160, app);
        let App::Pktgen(pg) = &lab.flows[0].app else {
            panic!()
        };
        let gbps = pg.throughput().gbps();
        assert!(
            (4.0..7.0).contains(&gbps),
            "pktgen {gbps} Gb/s (paper: 5.5)"
        );
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || {
            let (lab, eng) = run_b2b(LadderRung::Stock, Mtu::STANDARD, nttcp(1000, 150));
            let m = lab.flows[0].meas;
            (m.t_start.unwrap(), m.t_done.unwrap(), eng.executed())
        };
        assert_eq!(run(), run());
    }

    /// One b2b NTTCP flow with obs sampling every 100 µs, its start
    /// held back to 550 µs, under a sanitizer.
    fn late_start_obs_lab() -> (Lab, LabEngine) {
        let cfg = LadderRung::Stock.pe2650_config(Mtu::STANDARD);
        let (mut lab, mut eng) = b2b_lab(cfg, nttcp(1448, 50), 1);
        install_sanitizer(&mut lab, &mut eng, 1);
        let obs = ObsConfig {
            sample_interval: Nanos::from_micros(100),
            ..ObsConfig::default()
        };
        lab.enable_obs(&obs, 1);
        kick_at(&mut lab, &mut eng, &[Nanos::from_micros(550)]);
        (lab, eng)
    }

    /// A flow that has not started is read at the first sample, so its
    /// series exist from the same instant as every other scope's, and
    /// not again until its `StartFlow` opens the connections.
    #[test]
    fn an_idle_flow_is_read_at_the_first_sample_and_again_at_its_start() {
        let (mut lab, mut eng) = late_start_obs_lab();
        let flow = 2 * 6;
        let hosts = 5 * lab.hosts.len() as u64;
        let links = 2 * lab.links.len() as u64;
        eng.advance_to(&mut lab, Nanos::from_micros(100));
        assert_eq!(lab.prof.obs_records, flow + hosts + links);
        let tl = &lab.obs.as_ref().expect("obs is on").timelines;
        let cwnd = tl.get(Scope::Flow { flow: 0, ep: 1 }, MetricKind::Cwnd);
        let first = cwnd.expect("idle flow series exist").points()[0].0;
        assert_eq!(first, Nanos::from_micros(100));
        eng.advance_to(&mut lab, Nanos::from_micros(500));
        let idle = flow + hosts + links + 4 * hosts;
        assert_eq!(lab.prof.obs_records, idle, "only hosts are re-read");
        eng.advance_to(&mut lab, Nanos::from_micros(600));
        assert_eq!(lab.prof.obs_records, idle + hosts + flow);
        assert!(!eng.sanitizer().expect("installed").has_violations());
    }

    /// Under a sanitizer the sampler re-reads every scope it skips: a
    /// metric that moves without marking its scope is an `obs-stale`
    /// violation naming the scope and metric.
    #[test]
    fn a_change_the_sampler_was_not_told_about_is_an_obs_stale_violation() {
        let (mut lab, mut eng) = late_start_obs_lab();
        eng.advance_to(&mut lab, Nanos::from_micros(100));
        assert!(!eng.sanitizer().expect("installed").has_violations());
        lab.flows[0].conns[1].stats.retransmits += 1;
        eng.advance_to(&mut lab, Nanos::from_micros(200));
        let v = &eng.sanitizer().expect("installed").violations()[0];
        assert_eq!(v.kind, ViolationKind::ObsStale);
        assert_eq!(v.at, Nanos::from_micros(200));
        assert_eq!(
            v.detail,
            "flow 0/1 retransmits: live 1, series last Some(0)"
        );
    }

    #[test]
    fn flight_dump_renders_text() {
        let dump = FlightDump {
            hosts: vec![(0, vec![(Nanos(1234), Ev::PktgenTick { f: 7 })])],
        };
        let text = dump.text();
        assert!(text.starts_with("== flight recorder ==\nhost 0: last 1 events\n"));
        assert!(
            text.contains("[          1234] PktgenTick { f: 7 }\n"),
            "{text}"
        );
        assert!(!dump.is_empty());
        assert_eq!(dump.len(), 1);
        assert!(FlightDump::default().is_empty());
        assert!(FlightDump::default().text().contains("no events recorded"));
    }

    #[test]
    fn cpu_load_measured() {
        let (lab, _) = run_b2b(LadderRung::Stock, Mtu::STANDARD, nttcp(1448, 500));
        let rx_load = cpu_load(&lab, 0, 1);
        assert!(rx_load > 0.2, "receiver load {rx_load}");
        assert!(rx_load <= 1.0);
    }
}
