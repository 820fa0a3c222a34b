//! Cross-crate integration: full host-to-host transfers exercising the
//! hardware models, the TCP stack, the NIC, and the network fabric
//! together through the public API.

use tengig::config::{LadderRung, TuningStep};
use tengig::experiments::throughput::nttcp_point;
use tengig::experiments::{b2b_lab, run_to_completion};
use tengig::lab::App;
use tengig_ethernet::Mtu;
use tengig_sim::Nanos;
use tengig_tools::{NttcpReceiver, NttcpSender};

const COUNT: u64 = 1_500;

#[test]
fn bytes_are_conserved_end_to_end() {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let payload = 8948u64;
    let app = App::Nttcp {
        tx: NttcpSender::new(payload, COUNT),
        rx: NttcpReceiver::new(payload * COUNT),
    };
    let (mut lab, mut eng) = b2b_lab(cfg, app, 42);
    run_to_completion(&mut lab, &mut eng);
    assert_eq!(
        lab.flows[0].app.received(),
        payload * COUNT,
        "every byte written must arrive"
    );
    let c0 = &lab.flows[0].conns[0];
    let c1 = &lab.flows[0].conns[1];
    assert_eq!(c0.snd_una(), payload * COUNT, "sender fully acknowledged");
    assert_eq!(c1.rcv_nxt(), payload * COUNT, "receiver stream complete");
    assert_eq!(c1.stats.bytes_delivered, payload * COUNT);
    assert_eq!(c0.stats.retransmits, 0, "lossless LAN path");
}

#[test]
fn throughput_is_deterministic() {
    let cfg = LadderRung::Stock.pe2650_config(Mtu::JUMBO_9000);
    let a = nttcp_point(cfg, 8948, COUNT, 5);
    let b = nttcp_point(cfg, 8948, COUNT, 5);
    assert_eq!(a.elapsed, b.elapsed, "same seed, same virtual timeline");
    assert_eq!(a.throughput.bps(), b.throughput.bps());
}

#[test]
fn mtu_ordering_matches_paper() {
    // Fully tuned: 8160 ≈ 16000 ≥ 9000 > 1500 (Figs. 4-5).
    let peak = |rung: LadderRung, mtu: Mtu| {
        let cfg = rung.pe2650_config(mtu);
        nttcp_point(cfg, cfg.sysctls.mss(), COUNT, 5)
            .throughput
            .gbps()
    };
    let p1500 = peak(LadderRung::OversizedWindows, Mtu::STANDARD);
    let p9000 = peak(LadderRung::OversizedWindows, Mtu::JUMBO_9000);
    let p8160 = peak(LadderRung::Mtu8160, Mtu::TUNED_8160);
    let p16000 = peak(LadderRung::Mtu16000, Mtu::MAX_INTEL_16000);
    assert!(p9000 > p1500 * 1.5, "9000 ({p9000}) ≫ 1500 ({p1500})");
    assert!(p8160 > p9000 * 0.95, "8160 ({p8160}) ≥ 9000 ({p9000})");
    assert!(p16000 > p9000 * 0.95, "16000 ({p16000}) ≥ 9000 ({p9000})");
}

#[test]
fn interrupt_coalescing_trades_latency_for_cpu() {
    use tengig::experiments::latency::{netpipe_point, without_coalescing};
    let base = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let with = netpipe_point(base, 1, false);
    let without = netpipe_point(without_coalescing(base), 1, false);
    // Fig. 6 vs Fig. 7: ~5 µs shaved by turning coalescing off.
    let delta = with.as_micros_f64() - without.as_micros_f64();
    assert!((4.0..6.0).contains(&delta), "coalescing delta {delta} µs");
    // But the CPU pays: more interrupts per segment for bulk traffic.
    let thr_with = nttcp_point(base, 8948, COUNT, 5);
    let thr_without = nttcp_point(
        base.tuned(TuningStep::Coalescing(Nanos::ZERO)),
        8948,
        COUNT,
        5,
    );
    assert!(
        thr_without.rx_cpu_load >= thr_with.rx_cpu_load * 0.95,
        "disabling coalescing must not reduce CPU load ({} vs {})",
        thr_without.rx_cpu_load,
        thr_with.rx_cpu_load
    );
}

#[test]
fn timestamps_shrink_mss_and_cost_cpu() {
    let on = LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160);
    let off = on.tuned(TuningStep::Timestamps(false));
    assert_eq!(on.sysctls.mss(), 8108);
    assert_eq!(off.sysctls.mss(), 8120);
    let r_on = nttcp_point(on, 8108, COUNT, 5);
    let r_off = nttcp_point(off, 8120, COUNT, 5);
    // On the PE2650 the CPU has headroom, so the effect is small (§3.5.2:
    // "disabling TCP timestamps yields no increase in throughput").
    let gain = r_off.throughput.gbps() / r_on.throughput.gbps();
    assert!(
        (0.97..1.1).contains(&gain),
        "timestamps effect on PE2650: {gain}"
    );
}

#[test]
fn tracer_reconstructs_packet_paths() {
    use tengig_sim::{Stage, Tracer};
    let cfg = LadderRung::Stock.pe2650_config(Mtu::STANDARD);
    let app = App::Nttcp {
        tx: NttcpSender::new(1448, 50),
        rx: NttcpReceiver::new(1448 * 50),
    };
    let (mut lab, mut eng) = b2b_lab(cfg, app, 9);
    // Rings deep enough to keep the whole run.
    lab.hosts[0].tracer = Tracer::full(4096);
    lab.hosts[1].tracer = Tracer::full(4096);
    run_to_completion(&mut lab, &mut eng);
    let count = |h: usize, stage: Stage| {
        let ring = lab.hosts[h].tracer.recent();
        ring.filter(|e| e.stage == stage).count()
    };
    // MAGNET-style accounting: every data segment seen at tx and rx.
    assert_eq!(count(0, Stage::TxStack), 50);
    assert_eq!(count(1, Stage::RxStack), 50);
    assert!(count(1, Stage::Interrupt) > 0);
    // A mid-stream packet has a complete sender-side path.
    let seq = 25 * 1448;
    let stages: Vec<Stage> = lab.hosts[0]
        .tracer
        .recent()
        .filter(|e| e.packet == seq)
        .map(|e| e.stage)
        .collect();
    assert!(stages.contains(&Stage::TxStack));
    assert!(stages.contains(&Stage::TxDma));
    assert!(stages.contains(&Stage::Wire));
}

#[test]
fn iperf_and_nttcp_agree_within_a_few_percent() {
    // §3.2: "Typically, the performance difference between the two is
    // within 2-3%. In no case does Iperf yield results significantly
    // contrary to those of NTTCP."
    use tengig::experiments::throughput::iperf_point;
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let nttcp = nttcp_point(cfg, 8948, 4_000, 5).throughput.gbps();
    let iperf = iperf_point(
        cfg,
        8948,
        Nanos::from_millis(20), // skip slow start, as iperf's long runs do
        Nanos::from_millis(60),
        5,
    );
    let diff = (iperf / nttcp - 1.0).abs();
    assert!(
        diff < 0.08,
        "iperf {iperf} vs nttcp {nttcp}: {:.1}% apart (paper: 2-3%)",
        diff * 100.0
    );
}

#[test]
fn sanitized_sweeps_are_byte_identical_across_threads_and_sanitizer_state() {
    // The runtime sanitizer's contract: it observes (byte-conservation
    // ledger, TCP invariants, causality) but never perturbs — no events,
    // no RNG draws. So every experiment's JSONL must be byte-identical
    // (a) at any sweep-runner thread count and (b) with the sanitizer on
    // or off. All six experiment families run here with reduced grids.
    use tengig::experiments::{anecdotal, latency, multiflow, osbypass, throughput, wan};
    use tengig::sweep::SweepRunner;
    use tengig_net::WanSpec;
    use tengig_sim::sanitizer;

    let jumbo = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let wan_spec = WanSpec::record_run();
    let all_six = |threads: usize| -> Vec<String> {
        let runner = || SweepRunner::new(threads);
        let sec = Nanos::from_secs(1);
        let ms20 = Nanos::from_millis(20);
        vec![
            throughput::throughput_sweep_report(
                jumbo,
                "e2e",
                &[512, 1448, 8948],
                400,
                2003,
                runner(),
                None,
            )
            .1
            .to_jsonl(),
            latency::latency_sweep_report(jumbo, "e2e", &[1, 256, 1024], false, 2003, runner())
                .1
                .to_jsonl(),
            wan::buffer_sweep_report(&wan_spec, &[None, Some(8 << 20)], sec, sec, 2003, runner())
                .1
                .to_jsonl(),
            multiflow::peer_sweep_report(
                jumbo,
                &[1, 2],
                multiflow::Direction::IntoTenGbe,
                ms20,
                ms20,
                2003,
                runner(),
            )
            .1
            .to_jsonl(),
            osbypass::mtu_sweep_report(&[Mtu::STANDARD, Mtu::JUMBO_9000], 400, 2003, runner())
                .1
                .to_jsonl(),
            anecdotal::e7505_sweep_report(400, 2003, runner())
                .1
                .to_jsonl(),
        ]
    };

    // Sanitize unconditionally (debug builds already default to on); a
    // violation anywhere panics the scenario and fails the sweep.
    let was_on = sanitizer::default_enabled();
    sanitizer::set_default_enabled(true);
    let serial = all_six(1);
    let parallel = all_six(4);
    sanitizer::set_default_enabled(false);
    let unsanitized = all_six(4);
    sanitizer::set_default_enabled(was_on);

    for (i, name) in [
        "throughput",
        "latency",
        "wan",
        "multiflow",
        "osbypass",
        "anecdotal",
    ]
    .iter()
    .enumerate()
    {
        assert!(!serial[i].is_empty(), "{name} produced no rows");
        assert_eq!(
            serial[i], parallel[i],
            "{name}: 1-thread vs 4-thread JSONL diverged"
        );
        assert_eq!(
            parallel[i], unsanitized[i],
            "{name}: the sanitizer perturbed the simulation"
        );
    }
}

#[test]
fn bidirectional_flows_share_the_host_fairly() {
    // Beyond the paper's unidirectional tests: two opposing bulk flows
    // between the same pair of hosts contend for each host's CPU, memory
    // bus, and PCI-X in both directions.
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let payload = 8948u64;
    let count = 1_500u64;
    let mut lab = tengig::lab::Lab::new();
    let a = lab.add_host(cfg);
    let b = lab.add_host(cfg);
    let path = tengig_net::Path {
        hops: vec![tengig_net::Hop::wire(
            "xover",
            tengig_sim::Bandwidth::from_gbps(10),
            Nanos::from_nanos(50),
        )],
    };
    let mut rng = tengig_sim::SimRng::seeded(77);
    let l_ab = lab.add_link(&path, rng.fork("ab"));
    let l_ba = lab.add_link(&path, rng.fork("ba"));
    for (src, dst, fwd, rev) in [(a, b, l_ab, l_ba), (b, a, l_ba, l_ab)] {
        lab.add_flow(
            src,
            dst,
            vec![fwd],
            vec![rev],
            App::Nttcp {
                tx: NttcpSender::new(payload, count),
                rx: NttcpReceiver::new(payload * count),
            },
        );
    }
    let mut eng = tengig_sim::Engine::new();
    eng.event_limit = 200_000_000;
    tengig::lab::kick(&mut lab, &mut eng);
    eng.run(&mut lab);
    assert!(lab.all_done(), "both directions must complete");
    let rate = |f: usize| {
        let m = lab.flows[f].meas;
        tengig_sim::rate_of(payload * count, m.t_done.unwrap() - m.t_start.unwrap()).gbps()
    };
    let (r0, r1) = (rate(0), rate(1));
    // Fairness: symmetric configuration → symmetric shares.
    let ratio = r0 / r1;
    assert!(
        (0.8..1.25).contains(&ratio),
        "direction fairness: {r0} vs {r1}"
    );
    // Contention: each direction runs below the unidirectional rate. The
    // aggregate matches it rather than exceeding it — this configuration
    // boots a uniprocessor kernel, so both directions' stack work shares
    // one CPU, the binding resource; full duplex cannot create CPU.
    let solo = nttcp_point(cfg, payload, count, 5).throughput.gbps();
    assert!(r0 < solo, "bidirectional share {r0} below solo {solo}");
    assert!(
        r0 + r1 > solo * 0.95,
        "duplexing must not lose aggregate capacity: {} vs solo {solo}",
        r0 + r1
    );
}
