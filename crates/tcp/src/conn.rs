//! The TCP connection state machine (sans-IO).
//!
//! One [`TcpConn`] is one endpoint of an established connection. It is a
//! pure state machine: inputs are application writes/reads, arriving
//! segments, and timer expirations; outputs are [`Action`]s (segments to
//! hand to the NIC, timers to arm, data to deliver). The composition layer
//! (the `tengig` core crate) turns actions into engine events and charges
//! hardware costs; unit tests drive the machine directly.
//!
//! Linux 2.4 semantics the paper's analysis depends on, all implemented
//! here:
//!
//! * **Per-write segmentation.** Each application write is segmented
//!   independently (NTTCP-style pushed writes): a 7000-byte write on an
//!   8948-MSS connection yields one 7000-byte segment, not part of a packed
//!   stream. This is what makes throughput a function of payload size in
//!   Figs. 3-5.
//! * **cwnd in packets.** The congestion window counts segments
//!   ([`crate::cc`]), so sub-MSS segments waste window slots (§3.5.1).
//! * **truesize buffer accounting.** Received frames charge the socket
//!   buffer with their kernel block size plus skb overhead, not their
//!   payload (`tengig_hw::BlockAllocator::truesize`), so a 9000-byte MTU
//!   halves the usable window of a default buffer.
//! * **MSS-aligned advertised window with SWS avoidance.** The advertised
//!   window is rounded down to a multiple of the estimated peer MSS and the
//!   right edge never retreats — the paper's §3.5.1 formula
//!   `advertised = ⌊available/MSS⌋·MSS`.
//! * **Delayed ACKs** every second full segment (or a 40 ms timer), with
//!   immediate duplicate ACKs on out-of-order arrival.
//! * **Jacobson RTO** with exponential backoff, Karn's rule, and
//!   timestamp-based RTT samples when RFC 1323 timestamps are on.

use crate::cc::{CcAction, Reno};
use crate::segment::{Flags, Segment, Timestamps};
use crate::sysctl::Sysctls;
use std::collections::VecDeque;
use tengig_ethernet::{ETH_FCS, ETH_HEADER};
use tengig_hw::BlockAllocator;
use tengig_sim::Nanos;

/// Ceiling on the RTO backoff counter. With the 200 ms `rto_min` floor,
/// shift 9 already puts the backed-off RTO past the 60 s `rto_max`
/// clamp; 16 leaves generous headroom for unusual sysctl combinations
/// while keeping `1 << backoff` far from overflow.
const MAX_RTO_BACKOFF: u32 = 16;

/// Timers a connection can arm. Each arm carries a generation; stale
/// generations are ignored on expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Retransmission timeout.
    Rto,
    /// Delayed-ACK timeout.
    DelAck,
}

/// Outputs of the state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Hand this segment to the NIC for transmission.
    Send(Segment),
    /// Arm a timer to fire at `at` with generation `gen`.
    SetTimer {
        /// Which timer.
        kind: TimerKind,
        /// Absolute expiry time.
        at: Nanos,
        /// Generation to pass back to [`TcpConn::on_timer`].
        gen: u64,
    },
    /// `bytes` of new in-order data are available for the application.
    DeliverData {
        /// Newly in-order byte count.
        bytes: u64,
    },
    /// Send-buffer space was freed; a blocked writer may continue.
    SndBufSpace,
}

/// One entry of the retransmission queue.
#[derive(Debug, Clone, Copy)]
struct TxRecord {
    seq: u64,
    len: u64,
    sent_at: Nanos,
    retransmitted: bool,
    /// Closes an application write (PSH).
    psh: bool,
}

/// Aggregate connection statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnStats {
    /// Data segments received in order.
    pub segs_in: u64,
    /// Pure ACKs received.
    pub acks_in: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Duplicate ACKs sent.
    pub dup_acks_out: u64,
    /// Bytes delivered to the application in order.
    pub bytes_delivered: u64,
    /// Times the sender found itself blocked by the peer's window.
    pub rwnd_limited: u64,
    /// Times the sender found itself blocked by cwnd.
    pub cwnd_limited: u64,
}

/// An established TCP connection endpoint.
///
/// There is no handshake, FIN or open/close bookkeeping: every transfer
/// the paper measures is an established bulk stream, and the laboratory
/// keeps each flow's start and completion times itself.
#[derive(Debug, Clone)]
pub struct TcpConn {
    cfg: Sysctls,
    /// Sender MSS: min(own MSS, peer's advertised MSS).
    mss: u64,
    /// Estimate of the peer's MSS for window rounding (Linux
    /// `tcp_measure_rcv_mss`: the largest payload seen).
    rcv_mss_est: u64,

    // ---- send half ----
    snd_una: u64,
    snd_nxt: u64,
    /// Pending application writes, each segmented independently:
    /// (remaining bytes of this write).
    write_queue: VecDeque<u64>,
    queued_bytes: u64,
    /// Peer's advertised window right edge (absolute offset).
    snd_wnd_right: u64,
    rtxq: VecDeque<TxRecord>,
    /// Congestion control.
    pub cc: Reno,
    /// Smoothed RTT (None until the first sample).
    srtt: Option<Nanos>,
    rttvar: Nanos,
    rto: Nanos,
    rto_gen: u64,
    rto_armed: bool,
    backoff: u32,
    /// Latest peer timestamp to echo.
    ts_recent: Nanos,

    // ---- receive half ----
    rcv_nxt: u64,
    /// Out-of-order ranges (start → end), non-overlapping, non-adjacent.
    ooo: std::collections::BTreeMap<u64, u64>,
    /// Bytes in order, not yet read by the application.
    rcv_buffered: u64,
    /// truesize charge of those bytes.
    rcv_truesize: u64,
    /// Window right edge promised to the peer (never retreats).
    rcv_adv: u64,
    segs_since_ack: u32,
    delack_gen: u64,
    delack_armed: bool,

    /// Statistics.
    pub stats: ConnStats,
}

impl TcpConn {
    /// A freshly established connection under `cfg`, with the peer
    /// advertising `peer_mss`.
    pub fn new(cfg: Sysctls, peer_mss: u64) -> Self {
        let mss = cfg.mss().min(peer_mss);
        let clamp_segs = (cfg.tcp_wmem.default / mss).max(2);
        let initial_wnd = cfg.window_clamp().min(4 * mss);
        TcpConn {
            cfg,
            mss,
            rcv_mss_est: mss,
            snd_una: 0,
            snd_nxt: 0,
            write_queue: VecDeque::new(),
            queued_bytes: 0,
            snd_wnd_right: initial_wnd,
            rtxq: VecDeque::new(),
            cc: Reno::new(cfg.initial_cwnd, clamp_segs),
            srtt: None,
            rttvar: Nanos::ZERO,
            // Conservative pre-sample RTO (RFC 6298 initial value).
            rto: Nanos::from_secs(1),
            rto_gen: 0,
            rto_armed: false,
            backoff: 0,
            ts_recent: Nanos::ZERO,
            rcv_nxt: 0,
            ooo: std::collections::BTreeMap::new(),
            rcv_buffered: 0,
            rcv_truesize: 0,
            rcv_adv: initial_wnd,
            segs_since_ack: 0,
            delack_gen: 0,
            delack_armed: false,
            stats: ConnStats::default(),
        }
    }

    /// The effective (negotiated) MSS.
    pub fn mss(&self) -> u64 {
        self.mss
    }

    /// Bytes in flight (sent, unacknowledged).
    pub fn inflight_bytes(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Segments in flight.
    pub fn inflight_segs(&self) -> u64 {
        self.rtxq.len() as u64
    }

    /// Free send-buffer space.
    pub fn snd_buf_space(&self) -> u64 {
        let used = self.inflight_bytes() + self.queued_bytes;
        self.cfg.tcp_wmem.default.saturating_sub(used)
    }

    /// Bytes buffered in order awaiting an application read.
    pub fn rcv_buffered(&self) -> u64 {
        self.rcv_buffered
    }

    /// Next in-order receive offset.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// First unacknowledged send offset.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Next send offset.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// The current retransmission timeout.
    pub fn rto(&self) -> Nanos {
        self.rto
    }

    /// Smoothed RTT estimate, if any sample has been taken.
    pub fn srtt(&self) -> Option<Nanos> {
        self.srtt
    }

    /// RTT variance estimate (RFC 6298 `rttvar`; zero before any sample).
    pub fn rttvar(&self) -> Nanos {
        self.rttvar
    }

    // ------------------------------------------------------------------
    // application side
    // ------------------------------------------------------------------

    /// The application wrote `bytes`. Returns the accepted byte count
    /// (bounded by send-buffer space) and resulting actions.
    pub fn on_app_write(&mut self, now: Nanos, bytes: u64) -> (u64, Vec<Action>) {
        let mut out = Vec::new();
        let accepted = self.on_app_write_into(now, bytes, &mut out);
        (accepted, out)
    }

    /// Allocation-free variant of [`TcpConn::on_app_write`]: actions are
    /// appended to `out`, so the composition layer can recycle one buffer
    /// across calls instead of allocating per write.
    pub fn on_app_write_into(&mut self, now: Nanos, bytes: u64, out: &mut Vec<Action>) -> u64 {
        let accepted = bytes.min(self.snd_buf_space());
        if accepted > 0 {
            if self.cfg.nodelay {
                // Push-per-write: each write segments independently.
                self.write_queue.push_back(accepted);
            } else {
                // Stream coalescing: merge into one chunk so segmentation
                // always cuts full-MSS segments regardless of write size.
                match self.write_queue.back_mut() {
                    Some(tail) => *tail += accepted,
                    None => self.write_queue.push_back(accepted),
                }
            }
            self.queued_bytes += accepted;
        }
        self.try_send(now, out);
        accepted
    }

    /// The application read `bytes` from the receive queue. Frees buffer
    /// space and may emit a window update.
    pub fn on_app_read(&mut self, now: Nanos, bytes: u64) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_app_read_into(now, bytes, &mut out);
        out
    }

    /// Allocation-free variant of [`TcpConn::on_app_read`]; see
    /// [`TcpConn::on_app_write_into`].
    pub fn on_app_read_into(&mut self, _now: Nanos, bytes: u64, out: &mut Vec<Action>) {
        let bytes = bytes.min(self.rcv_buffered);
        if bytes == 0 {
            return;
        }
        // Free truesize proportionally to the bytes drained.
        let ts_freed = if self.rcv_buffered == bytes {
            self.rcv_truesize
        } else {
            (self.rcv_truesize as u128 * bytes as u128 / self.rcv_buffered as u128) as u64
        };
        self.rcv_buffered -= bytes;
        self.rcv_truesize -= ts_freed;
        // Receiver-side SWS rule (Linux `tcp_new_space`): after a read, if
        // the advertisable right edge has grown at least two segments past
        // the last promise, tell the sender with a window update. Without
        // this, every ACK understates the window by the transient unread
        // backlog and the flow self-limits far below the path capacity.
        let edge = self.rcv_nxt + self.window_to_advertise();
        if edge >= self.rcv_adv + 2 * self.rcv_mss_est {
            out.push(Action::Send(self.make_ack(false)));
        }
    }

    // ------------------------------------------------------------------
    // window arithmetic (§3.5.1 faithfully)
    // ------------------------------------------------------------------

    /// Free receive-buffer space in truesize terms, scaled by
    /// `adv_win_scale` (Linux reserves 1/2^n of the buffer for metadata
    /// and application slack).
    fn free_rcv_space(&self) -> u64 {
        let budget = (self.cfg.tcp_rmem.default as f64 * self.cfg.window_fraction()) as u64;
        budget.saturating_sub(self.rcv_truesize)
    }

    /// The window we would advertise right now: free space rounded **down**
    /// to a multiple of the estimated peer MSS (SWS avoidance), right edge
    /// never retreating, capped by the clamp.
    fn window_to_advertise(&self) -> u64 {
        let free = self.free_rcv_space().min(self.cfg.window_clamp());
        let mss = self.rcv_mss_est.max(1);
        let rounded = (free / mss) * mss;
        // Never shrink: if the previously promised right edge exceeds
        // rcv_nxt + rounded, keep honouring it.
        let promised = self.rcv_adv.saturating_sub(self.rcv_nxt);
        rounded.max(promised)
    }

    /// Usable send window from the peer's advertisements.
    fn peer_window_remaining(&self) -> u64 {
        self.snd_wnd_right.saturating_sub(self.snd_nxt)
    }

    // ------------------------------------------------------------------
    // transmit path
    // ------------------------------------------------------------------

    /// Compute the window to put on an outgoing segment and record the
    /// promised right edge (the no-shrink guarantee covers every
    /// advertisement actually sent).
    fn advertise(&mut self) -> u64 {
        let w = self.window_to_advertise();
        let edge = self.rcv_nxt + w;
        if edge > self.rcv_adv {
            self.rcv_adv = edge;
        }
        w
    }

    fn make_data_segment(
        &mut self,
        now: Nanos,
        seq: u64,
        len: u64,
        psh: bool,
        rtx: bool,
    ) -> Segment {
        Segment {
            seq,
            len,
            ack: self.rcv_nxt,
            wnd: self.advertise(),
            flags: Flags { ack: true, psh },
            ts: self.cfg.timestamps.then_some(Timestamps {
                tsval: now,
                tsecr: self.ts_recent,
            }),
            retransmit: rtx,
        }
    }

    fn make_ack(&mut self, dup: bool) -> Segment {
        Segment {
            seq: self.snd_nxt,
            len: 0,
            ack: self.rcv_nxt,
            wnd: self.advertise(),
            flags: Flags {
                ack: true,
                psh: false,
            },
            ts: self.cfg.timestamps.then_some(Timestamps {
                tsval: self.ts_recent,
                tsecr: self.ts_recent,
            }),
            retransmit: dup,
        }
    }

    /// Transmit as much as windows allow. Appends `Send` and timer actions.
    #[allow(clippy::while_let_loop)] // multiple distinct break conditions
    fn try_send(&mut self, now: Nanos, out: &mut Vec<Action>) {
        loop {
            let Some(&chunk) = self.write_queue.front() else {
                break;
            };
            let len = chunk.min(self.mss);
            // Nagle (RFC 896): without nodelay, hold a trailing sub-MSS
            // segment while data is outstanding — more may coalesce.
            if !self.cfg.nodelay && len < self.mss && self.inflight_segs() > 0 {
                break;
            }
            if !self.cc.can_send(self.inflight_segs()) {
                self.stats.cwnd_limited += 1;
                break;
            }
            if self.peer_window_remaining() < len {
                self.stats.rwnd_limited += 1;
                break;
            }
            let psh = len == chunk; // closes this application write
            let seq = self.snd_nxt;
            self.snd_nxt += len;
            self.queued_bytes -= len;
            if psh {
                self.write_queue.pop_front();
            } else {
                *self.write_queue.front_mut().expect("checked above") -= len;
            }
            self.rtxq.push_back(TxRecord {
                seq,
                len,
                sent_at: now,
                retransmitted: false,
                psh,
            });
            out.push(Action::Send(
                self.make_data_segment(now, seq, len, psh, false),
            ));
            // Data carries the latest ACK; any pending delayed ACK is moot.
            self.segs_since_ack = 0;
        }
        if !self.rto_armed && !self.rtxq.is_empty() {
            self.arm_rto(now, out);
        }
    }

    fn arm_rto(&mut self, now: Nanos, out: &mut Vec<Action>) {
        self.rto_gen += 1;
        self.rto_armed = true;
        out.push(Action::SetTimer {
            kind: TimerKind::Rto,
            at: now + self.backed_off_rto(),
            gen: self.rto_gen,
        });
    }

    /// The RTO with exponential backoff applied, clamped to the RFC 6298
    /// §5.5 ceiling (`rto_max_ms`). Integer shift only — the timer path
    /// does no float arithmetic — and `backoff` itself is capped (in
    /// [`TcpConn::on_timer_into`]) rather than the shift silently pinned.
    fn backed_off_rto(&self) -> Nanos {
        self.rto
            .saturating_mul(1u64 << self.backoff)
            .min(Nanos::from_millis(self.cfg.rto_max_ms))
    }

    // ------------------------------------------------------------------
    // receive path
    // ------------------------------------------------------------------

    /// A segment arrived from the peer at `now`.
    pub fn on_segment(&mut self, now: Nanos, seg: &Segment) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_segment_into(now, seg, &mut out);
        out
    }

    /// Allocation-free variant of [`TcpConn::on_segment`]; see
    /// [`TcpConn::on_app_write_into`].
    pub fn on_segment_into(&mut self, now: Nanos, seg: &Segment, out: &mut Vec<Action>) {
        if let Some(ts) = seg.ts {
            // Echo policy: remember the latest in-window timestamp.
            self.ts_recent = ts.tsval;
        }
        // --- sender half: process the acknowledgment ---
        if seg.flags.ack {
            self.process_ack(now, seg, out);
        }
        // --- receiver half: process payload ---
        if seg.len > 0 {
            self.process_data(now, seg, out);
        } else {
            self.stats.acks_in += 1;
        }
        // Window may have opened; send what we can.
        self.try_send(now, out);
    }

    fn process_ack(&mut self, now: Nanos, seg: &Segment, out: &mut Vec<Action>) {
        // Update the peer's advertised window (right edge never retreats).
        let right = seg.ack + seg.wnd;
        let window_update = right > self.snd_wnd_right;
        if window_update {
            self.snd_wnd_right = right;
        }
        if seg.ack > self.snd_una {
            self.snd_una = seg.ack;
            // Retire fully acked records and take an RTT sample.
            let mut acked_segs = 0u64;
            let mut sample: Option<Nanos> = None;
            while let Some(front) = self.rtxq.front() {
                if front.seq + front.len <= seg.ack {
                    // Karn: never sample a retransmitted segment's timing.
                    if !front.retransmitted {
                        sample = Some(now.saturating_sub(front.sent_at));
                    }
                    acked_segs += 1;
                    self.rtxq.pop_front();
                } else {
                    break;
                }
            }
            // Timestamp echo beats segment timing when available.
            if let Some(ts) = seg.ts {
                if ts.tsecr > Nanos::ZERO {
                    sample = Some(now.saturating_sub(ts.tsecr));
                }
            }
            if let Some(rtt) = sample {
                self.rtt_sample(rtt);
            }
            self.backoff = 0;
            if let CcAction::FastRetransmit = self.cc.on_new_ack(seg.ack, acked_segs) {
                // NewReno partial ACK: the next hole is lost too.
                self.retransmit_first(now, out);
            }
            // Restart the RTO from the newest left edge.
            self.rto_armed = false;
            if !self.rtxq.is_empty() {
                self.arm_rto(now, out);
            }
            out.push(Action::SndBufSpace);
        } else if seg.is_pure_ack()
            && seg.ack == self.snd_una
            && !window_update
            && !self.rtxq.is_empty()
        {
            // Duplicate ACK (RFC 5681: an ACK that changes the advertised
            // window is a window update, not a duplicate).
            match self.cc.on_dup_ack(self.inflight_segs(), self.snd_nxt) {
                CcAction::FastRetransmit => {
                    self.retransmit_first(now, out);
                }
                CcAction::None => {}
            }
        }
    }

    fn retransmit_first(&mut self, now: Nanos, out: &mut Vec<Action>) {
        let Some(front) = self.rtxq.front_mut() else {
            return;
        };
        front.retransmitted = true;
        front.sent_at = now;
        let (seq, len, psh) = (front.seq, front.len, front.psh);
        self.stats.retransmits += 1;
        let seg = self.make_data_segment(now, seq, len, psh, true);
        out.push(Action::Send(seg));
    }

    fn process_data(&mut self, now: Nanos, seg: &Segment, out: &mut Vec<Action>) {
        // Linux measures the peer's MSS as the largest payload observed.
        if seg.len > self.rcv_mss_est {
            self.rcv_mss_est = seg.len;
        }
        let frame_bytes = seg.ip_bytes() + ETH_HEADER + ETH_FCS;
        let truesize = BlockAllocator::truesize(frame_bytes);

        if seg.end_seq() <= self.rcv_nxt {
            // Entirely old: re-ACK immediately so the peer resyncs.
            out.push(Action::Send(self.make_ack(true)));
            self.stats.dup_acks_out += 1;
            return;
        }
        // Buffer exhausted? In-order data is never discarded: Linux prunes
        // (collapses skbs into dense buffers — `tcp_prune_queue`), paying
        // CPU instead of a retransmission storm. Out-of-order data beyond
        // the budget is dropped.
        let budget = (self.cfg.tcp_rmem.default as f64 * self.cfg.window_fraction()) as u64;
        let over_budget = self.rcv_truesize + truesize > budget + self.cfg.tcp_rmem.default / 4;
        if over_budget && seg.seq > self.rcv_nxt {
            return;
        }

        if seg.seq <= self.rcv_nxt {
            // In order (possibly partially overlapping).
            let new_bytes = seg.end_seq() - self.rcv_nxt;
            self.rcv_nxt = seg.end_seq();
            self.rcv_buffered += new_bytes;
            self.rcv_truesize += truesize;
            self.stats.segs_in += 1;
            // Absorb any now-contiguous out-of-order ranges.
            let mut absorbed = 0u64;
            while let Some((&start, &end)) = self.ooo.first_key_value() {
                if start > self.rcv_nxt {
                    break;
                }
                self.ooo.pop_first();
                if end > self.rcv_nxt {
                    absorbed += end - self.rcv_nxt;
                    self.rcv_nxt = end;
                }
            }
            self.rcv_buffered += absorbed;
            let delivered = new_bytes + absorbed;
            self.stats.bytes_delivered += delivered;
            out.push(Action::DeliverData { bytes: delivered });

            if !self.ooo.is_empty() {
                // Still a hole: keep the dupack pressure up.
                out.push(Action::Send(self.make_ack(true)));
                self.stats.dup_acks_out += 1;
                return;
            }
            // Delayed-ACK policy: ack every `delack_segs` full segments,
            // or arm the timer.
            self.segs_since_ack += 1;
            if self.segs_since_ack >= self.cfg.delack_segs {
                self.segs_since_ack = 0;
                self.advance_rcv_adv();
                out.push(Action::Send(self.make_ack(false)));
            } else if !self.delack_armed {
                self.delack_armed = true;
                self.delack_gen += 1;
                out.push(Action::SetTimer {
                    kind: TimerKind::DelAck,
                    at: now + Nanos::from_millis(self.cfg.delack_timeout_ms),
                    gen: self.delack_gen,
                });
            }
        } else {
            // Out of order: buffer the range and send an immediate dup ACK.
            self.insert_ooo(seg.seq, seg.end_seq());
            self.rcv_truesize += truesize;
            out.push(Action::Send(self.make_ack(true)));
            self.stats.dup_acks_out += 1;
        }
    }

    /// Record `[start, end)` as received out of order, merged with every
    /// stored range it overlaps or touches. The stored ranges are
    /// disjoint and non-adjacent, so those are the last few that start at
    /// or before `end`: absorb them from the back, allocating nothing.
    fn insert_ooo(&mut self, mut start: u64, mut end: u64) {
        while let Some((&k, &e)) = self.ooo.range(..=end).next_back() {
            if e < start {
                break;
            }
            self.ooo.remove(&k);
            start = start.min(k);
            end = end.max(e);
        }
        self.ooo.insert(start, end);
    }

    fn advance_rcv_adv(&mut self) {
        let adv = self.rcv_nxt + self.window_to_advertise();
        if adv > self.rcv_adv {
            self.rcv_adv = adv;
        }
    }

    // ------------------------------------------------------------------
    // timers
    // ------------------------------------------------------------------

    fn rtt_sample(&mut self, rtt: Nanos) {
        // Jacobson/Karels.
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let err = if rtt >= srtt { rtt - srtt } else { srtt - rtt };
                self.rttvar = Nanos((3 * self.rttvar.as_nanos() + err.as_nanos()) / 4);
                self.srtt = Some(Nanos((7 * srtt.as_nanos() + rtt.as_nanos()) / 8));
            }
        }
        // Linux-style RTO: srtt plus the variance term floored at rto_min,
        // so a long-RTT path with low jitter (the WAN) never times out
        // spuriously on delayed ACKs — and ceilinged at rto_max, so a
        // pathological rttvar spike cannot outrun the RFC 6298 clamp that
        // `backed_off_rto` enforces on the armed timer.
        let var_term = (self.rttvar * 4).max(Nanos::from_millis(self.cfg.rto_min_ms));
        self.rto =
            (self.srtt.expect("just set") + var_term).min(Nanos::from_millis(self.cfg.rto_max_ms));
    }

    /// A timer fired. Pass back the generation from the `SetTimer` action;
    /// stale generations are ignored.
    pub fn on_timer(&mut self, now: Nanos, kind: TimerKind, gen: u64) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_timer_into(now, kind, gen, &mut out);
        out
    }

    /// Allocation-free variant of [`TcpConn::on_timer`]; see
    /// [`TcpConn::on_app_write_into`].
    pub fn on_timer_into(&mut self, now: Nanos, kind: TimerKind, gen: u64, out: &mut Vec<Action>) {
        match kind {
            TimerKind::Rto => {
                if gen != self.rto_gen || !self.rto_armed {
                    return;
                }
                self.rto_armed = false;
                if self.rtxq.is_empty() {
                    return;
                }
                self.cc.on_timeout(self.inflight_segs());
                // Cap the counter itself: past MAX_RTO_BACKOFF the clamp
                // in `backed_off_rto` binds anyway, and an unbounded
                // counter would eventually overflow the shift.
                self.backoff = (self.backoff + 1).min(MAX_RTO_BACKOFF);
                self.retransmit_first(now, out);
                self.arm_rto(now, out);
            }
            TimerKind::DelAck => {
                if gen != self.delack_gen || !self.delack_armed {
                    return;
                }
                self.delack_armed = false;
                if self.segs_since_ack > 0 {
                    self.segs_since_ack = 0;
                    self.advance_rcv_adv();
                    out.push(Action::Send(self.make_ack(false)));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // invariants (runtime sanitizer hook)
    // ------------------------------------------------------------------

    /// Check the connection's sequence-space invariants.
    ///
    /// Called by the composition layer at every ACK when a runtime
    /// sanitizer is installed, and by property tests after random traces.
    /// Returns a description of the first violated invariant, or `Ok` when
    /// the state is consistent. The checks:
    ///
    /// * `snd_una ≤ snd_nxt`, and the retransmission queue exactly tiles
    ///   `(snd_una, snd_nxt]` — contiguous records whose tail ends at
    ///   `snd_nxt` (empty only when everything sent is acknowledged);
    /// * congestion state bounds: `cwnd ≥ 1`, `ssthresh ≥ 2`, and `cwnd`
    ///   never exceeds the clamp beyond legal fast-recovery inflation
    ///   (`ssthresh + 3`);
    /// * send-buffer accounting: queued bytes match the write queue and
    ///   in-flight + queued never exceeds `tcp_wmem`;
    /// * SWS rounding: the advertised window is a multiple of the
    ///   estimated peer MSS unless it is pinned to a previously promised
    ///   right edge, and the promised edge never falls behind `rcv_nxt`;
    /// * out-of-order ranges are non-empty, disjoint, and strictly beyond
    ///   `rcv_nxt`.
    pub fn check_invariants(&self) -> Result<(), String> {
        // --- send sequence space ---
        if self.snd_una > self.snd_nxt {
            return Err(format!(
                "snd_una {} > snd_nxt {}",
                self.snd_una, self.snd_nxt
            ));
        }
        if let Some(last) = self.rtxq.back() {
            if last.seq + last.len != self.snd_nxt {
                return Err(format!(
                    "rtxq tail ends at {} but snd_nxt is {}",
                    last.seq + last.len,
                    self.snd_nxt
                ));
            }
            let front = self.rtxq.front().expect("non-empty queue has a front");
            if front.seq + front.len <= self.snd_una {
                return Err(format!(
                    "rtxq front [{}, {}) is fully acknowledged at snd_una {}",
                    front.seq,
                    front.seq + front.len,
                    self.snd_una
                ));
            }
            let mut expected = front.seq;
            for rec in &self.rtxq {
                if rec.seq != expected || rec.len == 0 {
                    return Err(format!(
                        "rtxq gap: record [{}, {}) does not start at {}",
                        rec.seq,
                        rec.seq + rec.len,
                        expected
                    ));
                }
                expected = rec.seq + rec.len;
            }
        } else if self.snd_una != self.snd_nxt {
            return Err(format!(
                "empty rtxq with unacknowledged data: snd_una {} != snd_nxt {}",
                self.snd_una, self.snd_nxt
            ));
        }
        // --- congestion control bounds ---
        if self.cc.cwnd < 1 {
            return Err("cwnd fell to 0".to_string());
        }
        if self.cc.ssthresh < 2 {
            return Err(format!(
                "ssthresh {} below the floor of 2",
                self.cc.ssthresh
            ));
        }
        let cwnd_bound = self.cc.cwnd_clamp.max(self.cc.ssthresh.saturating_add(3));
        if self.cc.cwnd > cwnd_bound {
            return Err(format!(
                "cwnd {} exceeds clamp {} (+ recovery inflation)",
                self.cc.cwnd, self.cc.cwnd_clamp
            ));
        }
        // --- send-buffer accounting ---
        let queued_sum: u64 = self.write_queue.iter().sum();
        if queued_sum != self.queued_bytes {
            return Err(format!(
                "queued_bytes {} != write queue total {}",
                self.queued_bytes, queued_sum
            ));
        }
        if self.inflight_bytes() + self.queued_bytes > self.cfg.tcp_wmem.default {
            return Err(format!(
                "send buffer overcommitted: {} in flight + {} queued > tcp_wmem {}",
                self.inflight_bytes(),
                self.queued_bytes,
                self.cfg.tcp_wmem.default
            ));
        }
        // --- receive window (SWS rounding, §3.5.1) ---
        if self.rcv_adv < self.rcv_nxt {
            return Err(format!(
                "promised window edge {} fell behind rcv_nxt {}",
                self.rcv_adv, self.rcv_nxt
            ));
        }
        let w = self.window_to_advertise();
        let mss = self.rcv_mss_est.max(1);
        let promised = self.rcv_adv - self.rcv_nxt;
        if w % mss != 0 && w != promised {
            return Err(format!(
                "advertised window {w} is neither a multiple of the peer MSS {mss} \
                 nor the promised remnant {promised}"
            ));
        }
        // --- out-of-order reassembly ranges ---
        let mut prev_end = 0u64;
        for (&start, &end) in &self.ooo {
            if start >= end {
                return Err(format!("empty/inverted ooo range [{start}, {end})"));
            }
            if start <= self.rcv_nxt {
                return Err(format!(
                    "ooo range [{start}, {end}) starts at or before rcv_nxt {}",
                    self.rcv_nxt
                ));
            }
            if start <= prev_end && prev_end != 0 {
                return Err(format!(
                    "ooo ranges overlap or touch: previous end {prev_end}, next start {start}"
                ));
            }
            prev_end = end;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tengig_ethernet::Mtu;

    fn lan_pair(cfg: Sysctls) -> (TcpConn, TcpConn) {
        let mss = cfg.mss();
        (TcpConn::new(cfg, mss), TcpConn::new(cfg, mss))
    }

    /// Ferry all Send actions from `from`'s output into `to`, returning
    /// everything `to` produced. Zero-latency "wire" for unit tests.
    fn ferry(now: Nanos, actions: Vec<Action>, to: &mut TcpConn) -> Vec<Action> {
        let mut out = Vec::new();
        for a in actions {
            if let Action::Send(seg) = a {
                out.extend(to.on_segment(now, &seg));
            }
        }
        out
    }

    fn drain_delivered(actions: &[Action]) -> u64 {
        actions
            .iter()
            .map(|a| {
                if let Action::DeliverData { bytes } = a {
                    *bytes
                } else {
                    0
                }
            })
            .sum()
    }

    #[test]
    fn single_write_single_segment_roundtrip() {
        let cfg = Sysctls::default();
        let (mut a, mut b) = lan_pair(cfg);
        let now = Nanos::from_micros(10);
        let (accepted, acts) = a.on_app_write(now, 1000);
        assert_eq!(accepted, 1000);
        let sends: Vec<&Action> = acts
            .iter()
            .filter(|x| matches!(x, Action::Send(_)))
            .collect();
        assert_eq!(sends.len(), 1);
        let back = ferry(now, acts, &mut b);
        assert_eq!(drain_delivered(&back), 1000);
        assert_eq!(b.rcv_nxt(), 1000);
        assert_eq!(b.rcv_buffered(), 1000);
    }

    #[test]
    fn writes_segment_at_mss() {
        let cfg = Sysctls::default(); // MSS 1448
        let (mut a, _) = lan_pair(cfg);
        let (_, acts) = a.on_app_write(Nanos(0), 4000);
        let lens: Vec<u64> = acts
            .iter()
            .filter_map(|x| {
                if let Action::Send(s) = x {
                    Some(s.len)
                } else {
                    None
                }
            })
            .collect();
        // initial cwnd = 2 → only 2 segments go out now.
        assert_eq!(lens, vec![1448, 1448]);
        assert_eq!(a.inflight_segs(), 2);
        assert_eq!(a.stats.cwnd_limited, 1);
    }

    #[test]
    fn per_write_segmentation_does_not_coalesce() {
        // Two 1000-byte writes stay two 1000-byte segments (NTTCP-style),
        // not one 2000-byte stream chunk.
        let cfg = Sysctls::default();
        let (mut a, _) = lan_pair(cfg);
        let (_, acts1) = a.on_app_write(Nanos(0), 1000);
        let (_, acts2) = a.on_app_write(Nanos(0), 1000);
        for acts in [acts1, acts2] {
            let lens: Vec<u64> = acts
                .iter()
                .filter_map(|x| {
                    if let Action::Send(s) = x {
                        Some(s.len)
                    } else {
                        None
                    }
                })
                .collect();
            assert_eq!(lens, vec![1000]);
        }
    }

    #[test]
    fn ack_opens_cwnd_and_releases_more_data() {
        let cfg = Sysctls::default();
        let (mut a, mut b) = lan_pair(cfg);
        let t0 = Nanos::from_micros(100);
        let (_, acts) = a.on_app_write(t0, 20_000);
        // 2 segments out (cwnd=2). Deliver them; B acks (delack: every 2nd).
        let t1 = t0 + Nanos::from_micros(20);
        let replies = ferry(t1, acts, &mut b);
        // B produced one cumulative ACK for two segments.
        let acks: Vec<&Action> = replies
            .iter()
            .filter(|x| matches!(x, Action::Send(_)))
            .collect();
        assert_eq!(acks.len(), 1);
        // Feed the ACK back: cwnd grew (slow start), more segments flow.
        let t2 = t1 + Nanos::from_micros(20);
        let more = ferry(t2, replies, &mut a);
        let sent: usize = more.iter().filter(|x| matches!(x, Action::Send(_))).count();
        assert!(
            sent >= 3,
            "slow start should release ≥3 segments, got {sent}"
        );
        assert!(a.srtt().is_some(), "RTT sampled from the ACK");
    }

    /// Exchange segments between `a` (sender) and `b` (receiver) until the
    /// conversation quiesces; `b` reads its buffer promptly. Returns the
    /// bytes newly delivered to `b`'s application.
    fn pump(now: &mut Nanos, a: &mut TcpConn, b: &mut TcpConn, from_a: Vec<Action>) -> u64 {
        fn sends(acts: &[Action]) -> Vec<Segment> {
            acts.iter()
                .filter_map(|x| {
                    if let Action::Send(s) = x {
                        Some(*s)
                    } else {
                        None
                    }
                })
                .collect()
        }
        let mut to_b = sends(&from_a);
        let mut to_a: Vec<Segment> = Vec::new();
        let mut delivered = 0u64;
        let mut rounds = 0;
        while !to_a.is_empty() || !to_b.is_empty() {
            rounds += 1;
            assert!(rounds < 10_000, "pump diverged");
            *now += Nanos::from_micros(10);
            let t = *now;
            for seg in std::mem::take(&mut to_b) {
                let acts = b.on_segment(t, &seg);
                delivered += drain_delivered(&acts);
                to_a.extend(sends(&acts));
            }
            to_a.extend(sends(&b.on_app_read(t, u64::MAX)));
            *now += Nanos::from_micros(10);
            let t = *now;
            for seg in std::mem::take(&mut to_a) {
                to_b.extend(sends(&a.on_segment(t, &seg)));
            }
            if to_a.is_empty() && to_b.is_empty() {
                // Flush a straggler delayed ACK, if armed.
                *now += Nanos::from_millis(41);
                let gen = b.delack_gen;
                let late = b.on_timer(*now, TimerKind::DelAck, gen);
                for seg in sends(&late) {
                    to_b.extend(sends(&a.on_segment(*now, &seg)));
                }
            }
        }
        delivered
    }

    #[test]
    fn bulk_transfer_completes_in_order() {
        let cfg = Sysctls::default().with_buffers(256 * 1024);
        let (mut a, mut b) = lan_pair(cfg);
        let mut now = Nanos::from_micros(1);
        let total = 2_000_000u64;
        let mut written = 0u64;
        let mut delivered = 0u64;
        let mut guard = 0;
        while delivered < total {
            guard += 1;
            assert!(guard < 10_000, "transfer wedged at {delivered}/{total}");
            let mut acts = Vec::new();
            if written < total {
                let (acc, a1) = a.on_app_write(now, (total - written).min(16_384));
                written += acc;
                acts.extend(a1);
            }
            delivered += pump(&mut now, &mut a, &mut b, acts);
        }
        assert_eq!(delivered, total);
        assert_eq!(b.rcv_nxt(), total);
        assert_eq!(a.stats.retransmits, 0, "no loss on this path");
        assert_eq!(a.snd_una(), total, "everything acknowledged");
    }

    #[test]
    fn advertised_window_is_mss_aligned() {
        let cfg = Sysctls::default().with_mtu(Mtu::JUMBO_9000);
        let (_, b) = lan_pair(cfg);
        let w = b.window_to_advertise();
        assert!(w > 0);
        assert_eq!(w % 8948, 0, "window {w} must be a multiple of the 8948 MSS");
    }

    #[test]
    fn jumbo_mtu_quantizes_default_window_harder() {
        // §3.5.1: with a large MSS relative to the buffer, the advertised
        // window loses a large fraction to MSS alignment and truesize.
        let w9000 = {
            let cfg = Sysctls::default().with_mtu(Mtu::JUMBO_9000);
            lan_pair(cfg).1.window_to_advertise()
        };
        let w8160 = {
            let cfg = Sysctls::default().with_mtu(Mtu::TUNED_8160);
            lan_pair(cfg).1.window_to_advertise()
        };
        let clamp = Sysctls::default().window_clamp();
        // Both are below the clamp, but 9000 loses more of it.
        assert!(w9000 < clamp && w8160 <= clamp);
        assert!(
            w9000 < w8160,
            "9000-MTU window {w9000} should quantize below 8160-MTU window {w8160}"
        );
    }

    #[test]
    fn receive_buffer_truesize_fills_and_window_closes() {
        let cfg = Sysctls::default().with_mtu(Mtu::JUMBO_9000);
        let (mut a, mut b) = lan_pair(cfg);
        let mut now = Nanos::from_micros(1);
        // Write a lot; never let B's app read. B's window must close.
        for _ in 0..40 {
            let (_, acts) = a.on_app_write(now, 8948);
            now += Nanos::from_micros(50);
            let replies = ferry(now, acts, &mut b);
            now += Nanos::from_micros(50);
            ferry(now, replies, &mut a);
        }
        assert!(
            b.window_to_advertise() < 2 * 8948,
            "window should be nearly closed, got {}",
            b.window_to_advertise()
        );
        // The sender is rwnd-limited, not cwnd-limited.
        assert!(a.stats.rwnd_limited > 0);
        // Reading drains the buffer and reopens the window with an update.
        let upd = b.on_app_read(now, b.rcv_buffered());
        assert!(
            upd.iter().any(|x| matches!(x, Action::Send(_))),
            "window update must be sent after a read that reopens the window"
        );
        assert!(b.window_to_advertise() >= 8948);
    }

    #[test]
    fn out_of_order_triggers_dupacks_and_fast_retransmit() {
        let cfg = Sysctls::default();
        let (mut a, mut b) = lan_pair(cfg);
        let mut now = Nanos::from_micros(1);
        // Grow cwnd a bit first with two clean exchanges.
        for _ in 0..6 {
            let (_, acts) = a.on_app_write(now, 1448);
            now += Nanos::from_micros(30);
            let r = ferry(now, acts, &mut b);
            b.on_app_read(now, u64::MAX);
            now += Nanos::from_micros(30);
            ferry(now, r, &mut a);
            now += Nanos::from_millis(41);
            let gen = b.delack_gen;
            let late = b.on_timer(now, TimerKind::DelAck, gen);
            ferry(now, late, &mut a);
        }
        assert!(a.cc.cwnd >= 5, "cwnd {}", a.cc.cwnd);
        // Queue 5 segments; drop the first on the "wire".
        let (_, acts) = a.on_app_write(now, 5 * 1448);
        let segs: Vec<Segment> = acts
            .iter()
            .filter_map(|x| {
                if let Action::Send(s) = x {
                    Some(*s)
                } else {
                    None
                }
            })
            .collect();
        assert!(
            segs.len() >= 4,
            "need ≥4 segments in flight, got {}",
            segs.len()
        );
        now += Nanos::from_micros(30);
        let mut dupacks = Vec::new();
        for seg in &segs[1..] {
            dupacks.extend(b.on_segment(now, seg));
        }
        // B sent immediate duplicate ACKs for the hole.
        assert!(
            b.stats.dup_acks_out >= 3,
            "dupacks {}",
            b.stats.dup_acks_out
        );
        // Feed them to A: fast retransmit of the first segment.
        now += Nanos::from_micros(30);
        let mut rtx = Vec::new();
        for d in dupacks {
            if let Action::Send(s) = d {
                rtx.extend(a.on_segment(now, &s));
            }
        }
        let rtx_segs: Vec<&Action> = rtx
            .iter()
            .filter(|x| matches!(x, Action::Send(s) if s.retransmit && s.len > 0))
            .collect();
        assert_eq!(rtx_segs.len(), 1, "exactly one fast retransmit");
        assert_eq!(a.stats.retransmits, 1);
        assert_eq!(a.cc.fast_retransmits, 1);
        // Deliver the retransmission: B's reassembly completes the stream.
        now += Nanos::from_micros(30);
        if let Action::Send(s) = rtx_segs[0] {
            let fin = b.on_segment(now, s);
            assert_eq!(drain_delivered(&fin), 5 * 1448);
        }
        assert_eq!(b.rcv_nxt(), a.snd_nxt());
    }

    #[test]
    fn rto_recovers_a_fully_lost_window() {
        let cfg = Sysctls::default();
        let (mut a, mut b) = lan_pair(cfg);
        let now = Nanos::from_micros(1);
        let (_, acts) = a.on_app_write(now, 1448);
        // The segment is lost entirely; capture the RTO timer.
        let timer = acts
            .iter()
            .find_map(|x| {
                if let Action::SetTimer {
                    kind: TimerKind::Rto,
                    at,
                    gen,
                } = x
                {
                    Some((*at, *gen))
                } else {
                    None
                }
            })
            .expect("RTO armed with data in flight");
        let (at, gen) = timer;
        assert!(
            at >= now + Nanos::from_millis(200),
            "RTO respects the 200 ms floor"
        );
        let out = a.on_timer(at, TimerKind::Rto, gen);
        let rtx: Vec<&Action> = out
            .iter()
            .filter(|x| matches!(x, Action::Send(s) if s.retransmit))
            .collect();
        assert_eq!(rtx.len(), 1);
        assert_eq!(a.cc.cwnd, 1, "timeout collapses cwnd");
        assert_eq!(a.cc.timeouts, 1);
        // Deliver the retransmission; stream completes.
        if let Action::Send(s) = rtx[0] {
            let fin = b.on_segment(at + Nanos::from_micros(10), s);
            assert_eq!(drain_delivered(&fin), 1448);
        }
    }

    #[test]
    fn backed_off_rto_never_exceeds_rto_max() {
        // A long flap: the only segment is lost over and over, every RTO
        // fires, and the backed-off delay must double (RFC 6298 §5.5)
        // until the 60 s ceiling binds — then pin there, so recovery time
        // stops growing with outage length instead of heading for the
        // 2^16 × base ≈ hours-long timers the unclamped code produced.
        let cfg = Sysctls::default();
        let (mut a, _b) = lan_pair(cfg);
        let mut now = Nanos::from_micros(1);
        let (_, acts) = a.on_app_write(now, 1448);
        let find_rto = |acts: &[Action]| {
            acts.iter().find_map(|x| match x {
                Action::SetTimer {
                    kind: TimerKind::Rto,
                    at,
                    gen,
                } => Some((*at, *gen)),
                _ => None,
            })
        };
        let mut timer = find_rto(&acts).expect("RTO armed with data in flight");
        let rto_max = Nanos::from_millis(cfg.rto_max_ms);
        let mut delays: Vec<Nanos> = Vec::new();
        for _ in 0..20 {
            let (at, gen) = timer;
            delays.push(at - now);
            now = at;
            let out = a.on_timer(now, TimerKind::Rto, gen);
            timer = find_rto(&out).expect("RTO re-armed after firing");
        }
        for (i, w) in delays.windows(2).enumerate() {
            assert!(
                w[1] == w[0].saturating_mul(2) || w[1] == rto_max,
                "delay {} must double or sit at the cap: {} then {}",
                i,
                w[0],
                w[1]
            );
            assert!(w[1] >= w[0], "backoff must never shrink mid-flap");
        }
        for (i, d) in delays.iter().enumerate() {
            assert!(*d <= rto_max, "delay {i} exceeds rto_max: {d}");
        }
        // The ladder actually reached and stayed at the ceiling.
        assert_eq!(delays.last(), Some(&rto_max));
        let capped = delays.iter().filter(|d| **d == rto_max).count();
        assert!(
            capped >= 10,
            "20 flap rounds must spend most of them pinned at 60 s, got {capped}"
        );
        assert_eq!(a.backoff, MAX_RTO_BACKOFF, "the counter itself is capped");
    }

    #[test]
    fn pathological_rtt_sample_cannot_exceed_rto_max() {
        // `rtt_sample` recomputes the RTO outside `backed_off_rto`; the
        // same ceiling must bind there, or one absurd variance spike
        // would arm a timer past the clamp.
        let cfg = Sysctls::default();
        let (mut a, _b) = lan_pair(cfg);
        a.rtt_sample(Nanos::from_secs(90));
        assert_eq!(a.rto, Nanos::from_millis(cfg.rto_max_ms));
        // And an enormous ceiling really is respected as a ceiling, not
        // re-derived from constants.
        let (mut c, _d) = lan_pair(Sysctls::default().with_rto_max_ms(3_600_000));
        c.rtt_sample(Nanos::from_secs(90));
        assert!(c.rto > Nanos::from_secs(100), "huge sample, huge rto_max");
    }

    #[test]
    fn stale_timers_are_ignored() {
        let cfg = Sysctls::default();
        let (mut a, mut b) = lan_pair(cfg);
        let now = Nanos::from_micros(1);
        let (_, acts) = a.on_app_write(now, 1448);
        let (at, gen) = acts
            .iter()
            .find_map(|x| {
                if let Action::SetTimer {
                    kind: TimerKind::Rto,
                    at,
                    gen,
                } = x
                {
                    Some((*at, *gen))
                } else {
                    None
                }
            })
            .expect("rto armed");
        // The ACK arrives first...
        let t_ack = now + Nanos::from_micros(40);
        ferry(t_ack, acts, &mut b);
        let replies = {
            // force the delack timer so the odd single segment gets acked
            let g = b.delack_gen;
            b.on_timer(t_ack + Nanos::from_millis(41), TimerKind::DelAck, g)
        };
        ferry(t_ack + Nanos::from_millis(42), replies, &mut a);
        assert_eq!(a.snd_una(), 1448);
        // ...so the old RTO firing must do nothing.
        let out = a.on_timer(at, TimerKind::Rto, gen);
        assert!(out.is_empty(), "stale RTO must be ignored: {out:?}");
        assert_eq!(a.stats.retransmits, 0);
    }

    #[test]
    fn send_buffer_limits_writes() {
        let cfg = Sysctls::default(); // wmem default 64 KiB
        let (mut a, _) = lan_pair(cfg);
        let (acc, _) = a.on_app_write(Nanos(0), 1 << 20);
        assert_eq!(acc, 65_536, "write bounded by tcp_wmem");
        let (acc2, _) = a.on_app_write(Nanos(0), 1000);
        assert_eq!(acc2, 0, "buffer full");
    }

    /// The out-of-order map after inserting `ranges` into `stored`.
    fn ooo_after(stored: &[(u64, u64)], ranges: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let (mut c, _) = lan_pair(Sysctls::default());
        c.ooo.extend(stored.iter().copied());
        for &(s, e) in ranges {
            c.insert_ooo(s, e);
        }
        c.ooo.into_iter().collect()
    }

    #[test]
    fn ooo_insert_keeps_disjoint_ranges_apart() {
        let got = ooo_after(&[(100, 200)], &[(300, 400), (10, 50)]);
        assert_eq!(got, vec![(10, 50), (100, 200), (300, 400)]);
    }

    #[test]
    fn ooo_insert_merges_a_range_adjacent_on_either_side() {
        assert_eq!(ooo_after(&[(100, 200)], &[(200, 250)]), vec![(100, 250)]);
        assert_eq!(ooo_after(&[(100, 200)], &[(50, 100)]), vec![(50, 200)]);
        assert_eq!(
            ooo_after(&[(100, 200), (300, 400)], &[(200, 300)]),
            vec![(100, 400)],
            "touching both neighbours joins them"
        );
    }

    #[test]
    fn ooo_insert_absorbs_containment_both_ways() {
        assert_eq!(ooo_after(&[(100, 200)], &[(120, 180)]), vec![(100, 200)]);
        assert_eq!(ooo_after(&[(100, 200)], &[(50, 250)]), vec![(50, 250)]);
    }

    #[test]
    fn ooo_insert_spanning_three_ranges_leaves_one() {
        let stored = [(10, 20), (100, 200), (300, 400), (500, 600), (900, 950)];
        let got = ooo_after(&stored, &[(150, 550)]);
        assert_eq!(got, vec![(10, 20), (100, 600), (900, 950)]);
    }

    #[test]
    fn window_never_shrinks_right_edge() {
        let cfg = Sysctls::default();
        let (mut a, mut b) = lan_pair(cfg);
        let mut now = Nanos::from_micros(1);
        let mut prev_right = 0u64;
        for _ in 0..20 {
            let (_, acts) = a.on_app_write(now, 1448);
            now += Nanos::from_micros(30);
            let replies = ferry(now, acts, &mut b);
            for r in &replies {
                if let Action::Send(s) = r {
                    let right = s.ack + s.wnd;
                    assert!(
                        right >= prev_right,
                        "right edge retreated: {right} < {prev_right}"
                    );
                    prev_right = right;
                }
            }
            now += Nanos::from_micros(30);
            ferry(now, replies, &mut a);
        }
    }
}
