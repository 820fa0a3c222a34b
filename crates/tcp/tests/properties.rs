//! Property-based tests for the TCP state machine.

use proptest::prelude::*;
use tengig_sim::Nanos;
use tengig_tcp::{Action, Reno, Segment, Sysctls, TcpConn};

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

fn delivered(acts: &[Action]) -> u64 {
    acts.iter()
        .map(|a| {
            if let Action::DeliverData { bytes } = a {
                *bytes
            } else {
                0
            }
        })
        .sum()
}

proptest! {
    /// The advertised window is always a multiple of the estimated MSS and
    /// never exceeds the configured clamp — the §3.5.1 invariant.
    #[test]
    fn advertised_window_invariant(
        buf in 16_384u64..1_048_576,
        write_sizes in proptest::collection::vec(1u64..9000, 1..40),
    ) {
        let cfg = Sysctls::default().with_buffers(buf);
        let mss = cfg.mss();
        let mut a = TcpConn::new(cfg, mss);
        let mut b = TcpConn::new(cfg, mss);
        let mut now = Nanos::from_micros(1);
        let mut prev_right = 0u64;
        for w in write_sizes {
            let (_, acts) = a.on_app_write(now, w);
            now += Nanos::from_micros(20);
            for seg in sends(&acts) {
                let replies = b.on_segment(now, &seg);
                for r in sends(&replies) {
                    prop_assert!(r.wnd <= cfg.window_clamp() + mss,
                        "window {} above clamp {}", r.wnd, cfg.window_clamp());
                    // The right edge never retreats...
                    let right = r.ack + r.wnd;
                    prop_assert!(right >= prev_right,
                        "right edge retreated: {right} < {prev_right}");
                    // ...and a *fresh* advertisement (advancing edge) is
                    // MSS-aligned — the §3.5.1 SWS rounding.
                    if right > prev_right {
                        prop_assert!(r.wnd % b.mss() == 0,
                            "fresh window {} not MSS-aligned (mss {})", r.wnd, b.mss());
                    }
                    prev_right = right;
                    now += Nanos::from_micros(5);
                    a.on_segment(now, &r);
                }
            }
        }
    }

    /// Byte conservation under arbitrary write patterns on a lossless path:
    /// everything written is eventually delivered exactly once, in order.
    #[test]
    fn lossless_delivery_conserves_bytes(
        writes in proptest::collection::vec(1u64..20_000, 1..30)
    ) {
        let cfg = Sysctls::default().with_buffers(512 * 1024);
        let mss = cfg.mss();
        let mut a = TcpConn::new(cfg, mss);
        let mut b = TcpConn::new(cfg, mss);
        let mut now = Nanos::from_micros(1);
        let mut total_written = 0u64;
        let mut total_delivered = 0u64;
        for w in writes {
            let (acc, acts) = a.on_app_write(now, w);
            total_written += acc;
            // Pump to quiescence.
            let mut to_b = sends(&acts);
            let mut rounds = 0;
            while !to_b.is_empty() {
                rounds += 1;
                prop_assert!(rounds < 1000, "diverged");
                now += Nanos::from_micros(10);
                let mut to_a = Vec::new();
                for seg in std::mem::take(&mut to_b) {
                    let replies = b.on_segment(now, &seg);
                    total_delivered += delivered(&replies);
                    to_a.extend(sends(&replies));
                }
                to_a.extend(sends(&b.on_app_read(now, u64::MAX)));
                now += Nanos::from_micros(10);
                for seg in to_a {
                    to_b.extend(sends(&a.on_segment(now, &seg)));
                }
                if to_b.is_empty() {
                    now += Nanos::from_millis(45);
                    // Flush any armed delayed ACK via its timer by just
                    // probing both generations we might have armed.
                    for g in 0..200 {
                        let acts = b.on_timer(now, tengig_tcp::TimerKind::DelAck, g);
                        for seg in sends(&acts) {
                            to_b.extend(sends(&a.on_segment(now, &seg)));
                        }
                    }
                }
            }
        }
        prop_assert_eq!(total_delivered, total_written);
        prop_assert_eq!(b.rcv_nxt(), total_written);
        prop_assert_eq!(a.snd_una(), total_written);
        prop_assert_eq!(a.stats.retransmits, 0);
    }

    /// Reno invariants under arbitrary event sequences: cwnd ≥ 1, cwnd ≤
    /// clamp, ssthresh ≥ 2, and a timeout always collapses cwnd to 1.
    #[test]
    fn reno_invariants(events in proptest::collection::vec(0u8..4, 1..200)) {
        let mut cc = Reno::new(2, 1000);
        let mut seq = 0u64;
        for e in events {
            match e {
                0 => {
                    let w = cc.cwnd;
                    seq += w;
                    cc.on_new_ack(seq, w);
                }
                1 => { cc.on_dup_ack(cc.cwnd, seq + cc.cwnd); }
                2 => {
                    cc.on_timeout(cc.cwnd);
                    prop_assert_eq!(cc.cwnd, 1);
                }
                _ => {
                    let w = cc.cwnd.min(3);
                    seq += w;
                    cc.on_new_ack(seq, w);
                }
            }
            prop_assert!(cc.cwnd >= 1);
            prop_assert!(cc.cwnd <= 1000);
            prop_assert!(cc.ssthresh >= 2);
        }
    }

    /// Random TCP traces — interleaved writes, reads, losses, reordered
    /// deliveries, and timer fires — never trip the connection's
    /// sequence-space invariants ([`TcpConn::check_invariants`]), the same
    /// checks the runtime sanitizer applies at every ACK.
    #[test]
    fn random_traces_never_trip_invariants(
        ops in proptest::collection::vec((0u8..6, 0u64..20_000), 20..150),
    ) {
        let cfg = Sysctls::default().with_buffers(256 * 1024);
        let mss = cfg.mss();
        let mut a = TcpConn::new(cfg, mss);
        let mut b = TcpConn::new(cfg, mss);
        let mut now = Nanos::from_micros(1);
        let mut to_b: Vec<Segment> = Vec::new();
        let mut to_a: Vec<Segment> = Vec::new();
        for (op, arg) in ops {
            now += Nanos::from_micros(1 + arg % 500);
            match op {
                // The sender's application writes.
                0 => {
                    let (_, acts) = a.on_app_write(now, 1 + arg);
                    to_b.extend(sends(&acts));
                }
                // Deliver one a→b segment, possibly out of order.
                1 if !to_b.is_empty() => {
                    let i = arg as usize % to_b.len();
                    let seg = to_b.remove(i);
                    to_a.extend(sends(&b.on_segment(now, &seg)));
                }
                // Deliver one b→a segment (ACK path), possibly out of order.
                2 if !to_a.is_empty() => {
                    let i = arg as usize % to_a.len();
                    let seg = to_a.remove(i);
                    to_b.extend(sends(&a.on_segment(now, &seg)));
                }
                // Drop a segment in either direction (congestion loss).
                3 if !to_b.is_empty() => {
                    let i = arg as usize % to_b.len();
                    to_b.remove(i);
                }
                4 if !to_a.is_empty() => {
                    let i = arg as usize % to_a.len();
                    to_a.remove(i);
                }
                // Fire timers: probe a spread of generations; stale ones
                // are ignored, live ones retransmit or flush an ACK.
                5 => {
                    now += Nanos::from_secs(3); // past any backoff RTO
                    for g in 0..40 {
                        to_b.extend(sends(&a.on_timer(now, tengig_tcp::TimerKind::Rto, g)));
                        to_a.extend(sends(&b.on_timer(now, tengig_tcp::TimerKind::DelAck, g)));
                    }
                    // The receiver's application drains its buffer.
                    to_a.extend(sends(&b.on_app_read(now, u64::MAX)));
                }
                _ => {}
            }
            let ra = a.check_invariants();
            prop_assert!(ra.is_ok(), "sender invariants: {:?}", ra);
            let rb = b.check_invariants();
            prop_assert!(rb.is_ok(), "receiver invariants: {:?}", rb);
        }
    }

    /// Segments never exceed the negotiated MSS, and a write of n bytes
    /// produces exactly ceil(n/mss) segments once the window permits.
    #[test]
    fn segmentation_respects_mss(write in 1u64..100_000) {
        let cfg = Sysctls::default().with_buffers(1 << 20);
        let mss = cfg.mss();
        let mut a = TcpConn::new(cfg, mss);
        let mut b = TcpConn::new(cfg, mss);
        let mut now = Nanos::from_micros(1);
        let (acc, acts) = a.on_app_write(now, write);
        let mut seg_count = 0u64;
        let mut to_b = sends(&acts);
        let mut rounds = 0;
        while !to_b.is_empty() {
            rounds += 1;
            prop_assert!(rounds < 1000);
            now += Nanos::from_micros(10);
            let mut to_a = Vec::new();
            for seg in std::mem::take(&mut to_b) {
                prop_assert!(seg.len <= mss, "segment {} exceeds mss {}", seg.len, mss);
                if seg.len > 0 { seg_count += 1; }
                to_a.extend(sends(&b.on_segment(now, &seg)));
            }
            to_a.extend(sends(&b.on_app_read(now, u64::MAX)));
            now += Nanos::from_micros(10);
            for seg in to_a {
                to_b.extend(sends(&a.on_segment(now, &seg)));
            }
            if to_b.is_empty() {
                now += Nanos::from_millis(45);
                for g in 0..50 {
                    let acts = b.on_timer(now, tengig_tcp::TimerKind::DelAck, g);
                    for seg in sends(&acts) {
                        to_b.extend(sends(&a.on_segment(now, &seg)));
                    }
                }
            }
        }
        prop_assert_eq!(seg_count, acc.div_ceil(mss));
    }
}
