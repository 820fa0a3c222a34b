//! Extension features the paper discusses but could not measure on its
//! 2.4 kernels: NAPI, Nagle/write-coalescing, window scaling on the WAN,
//! TSO, and the §5 OS-bypass projection.

use tengig::config::{LadderRung, TuningStep};
use tengig::experiments::osbypass;
use tengig::experiments::throughput::nttcp_point;
use tengig::experiments::wan::{record_run, wan_host};
use tengig::experiments::{pair, run_window};
use tengig::lab::App;
use tengig_ethernet::Mtu;
use tengig_net::WanSpec;
use tengig_sim::Nanos;

#[test]
fn napi_reduces_receive_cpu_load() {
    // §3.3: NAPI "decreases the load that the 10GbE card places on the
    // receiving host. (In systems where the host CPU is a bottleneck, it
    // would also result in higher bandwidth.)"
    let base = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let mut napi = base;
    napi.sysctls = napi.sysctls.with_napi(true);
    let old = nttcp_point(base, 8948, 1_500, 3);
    let new = nttcp_point(napi, 8948, 1_500, 3);
    assert!(
        new.throughput.gbps() >= old.throughput.gbps(),
        "NAPI must not hurt throughput: {} -> {}",
        old.throughput.gbps(),
        new.throughput.gbps()
    );
    // The per-segment interrupt-context saving shows as CPU relief (the
    // memory bus co-binds here, so the bandwidth gain is marginal — the
    // paper's parenthetical applies only when the CPU is *the* bottleneck).
    assert!(
        new.rx_cpu_load < old.rx_cpu_load,
        "NAPI must relieve the receive CPU: {} -> {}",
        old.rx_cpu_load,
        new.rx_cpu_load
    );
}

#[test]
fn nagle_coalescing_removes_payload_dependence() {
    // With push-per-write (NTTCP semantics, the paper's curves), small
    // writes mean small segments and low throughput. With stream
    // coalescing the same byte stream rides in full-MSS segments.
    let push = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let mut coalesce = push;
    coalesce.sysctls = coalesce.sysctls.with_nodelay(false);
    let payload = 2_048u64; // well below the 8948 MSS
    let r_push = nttcp_point(push, payload, 4_000, 3);
    let r_coal = nttcp_point(coalesce, payload, 4_000, 3);
    assert!(
        r_coal.throughput.gbps() > r_push.throughput.gbps() * 1.3,
        "coalescing small writes must help: {} -> {}",
        r_push.throughput.gbps(),
        r_coal.throughput.gbps()
    );
    // And it approaches the full-MSS rate of the push configuration.
    let r_mss = nttcp_point(push, 8948, 4_000, 3);
    assert!(
        r_coal.throughput.gbps() > r_mss.throughput.gbps() * 0.75,
        "coalesced small writes {} vs full-MSS writes {}",
        r_coal.throughput.gbps(),
        r_mss.throughput.gbps()
    );
}

#[test]
fn wan_without_window_scaling_collapses() {
    // RFC 1323 window scaling is what makes the record possible at all:
    // without it the advertised window caps at 65535 bytes and the
    // 180 ms-RTT path carries at most ~2.9 Mb/s.
    let wan = WanSpec::record_run();
    let mut cfg = wan_host(&wan, None);
    cfg.sysctls.window_scaling = false;
    let payload = cfg.sysctls.mss();
    let app = App::Nttcp {
        tx: tengig_tools::NttcpSender::new(payload, 1_000_000),
        rx: tengig_tools::NttcpReceiver::new(payload * 1_000_000),
    };
    let (fwd, rev) = (wan.forward_path(), wan.reverse_path());
    let (mut lab, mut eng) = pair(cfg, cfg, &fwd, &rev, app, 11);
    let two = Nanos::from_secs(2);
    let (received, received2) = run_window(&mut lab, &mut eng, two, two, |lab, _| {
        lab.flows[0].app.received()
    });
    let gbps = (received2 - received) as f64 * 8.0 / 2e9;
    assert!(
        gbps < 0.01,
        "without window scaling the WAN must collapse to ~3 Mb/s, got {gbps} Gb/s"
    );
    assert!(
        gbps > 0.0005,
        "but it must still make progress: {gbps} Gb/s"
    );
}

#[test]
fn tso_relieves_the_sender_cpu() {
    // §3.3: "the implementation of TSO should reduce the CPU load on
    // transmitting systems".
    let off = LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160);
    let mut on = off;
    on.nic = on.nic.with_tso(true);
    let r_off = nttcp_point(off, 8108, 2_000, 3);
    let r_on = nttcp_point(on, 8108, 2_000, 3);
    assert!(
        r_on.tx_cpu_load < r_off.tx_cpu_load * 0.95,
        "TSO must cut sender CPU: {} -> {}",
        r_off.tx_cpu_load,
        r_on.tx_cpu_load
    );
    assert!(
        r_on.throughput.gbps() >= r_off.throughput.gbps() * 0.98,
        "TSO must not hurt throughput: {} -> {}",
        r_off.throughput.gbps(),
        r_on.throughput.gbps()
    );
}

#[test]
fn osbypass_projection_matches_section5() {
    // "throughput approaching 8 Gb/s, end-to-end latencies below 10 µs,
    // and a CPU load approaching zero".
    let r = osbypass::throughput(Mtu::MAX_INTEL_16000, 2_000, 5);
    assert!(r.gbps > 6.5, "throughput {}", r.gbps);
    assert!(r.latency < Nanos::from_micros(10), "latency {}", r.latency);
    assert!(r.cpu_load < 0.2, "cpu load {}", r.cpu_load);
    // The projection beats every TCP configuration in the repository.
    let best_tcp = nttcp_point(
        LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160),
        8108,
        1_500,
        3,
    )
    .throughput
    .gbps();
    assert!(
        r.gbps > best_tcp * 1.4,
        "bypass {} vs best TCP {}",
        r.gbps,
        best_tcp
    );
}

#[test]
fn coalescing_and_timestamps_compose_with_other_knobs() {
    // Sanity: every TuningStep composes without panicking and produces a
    // runnable configuration.
    let cfg = LadderRung::Stock
        .pe2650_config(Mtu::STANDARD)
        .tuned(TuningStep::Mmrbc(2048))
        .tuned(TuningStep::Buffers(128 * 1024))
        .tuned(TuningStep::Coalescing(Nanos::from_micros(10)))
        .tuned(TuningStep::Timestamps(false))
        .tuned(TuningStep::Mtu(Mtu::JUMBO_9000))
        .tuned(TuningStep::Txqueuelen(1_000));
    let r = nttcp_point(cfg, cfg.sysctls.mss(), 800, 3);
    assert!(r.throughput.gbps() > 1.0);
}

#[test]
fn record_run_is_robust_to_moderate_router_buffers() {
    // The record needs the bottleneck queue to absorb slow-start overshoot
    // (~half a BDP of transient queue); 48 MB suffices.
    let wan = WanSpec::record_run().with_bottleneck_buffer(48 << 20);
    let r = record_run(&wan, None, Nanos::from_secs(3), Nanos::from_secs(1), 2003);
    assert!(r.gbps > 2.2, "throughput {}", r.gbps);
    assert_eq!(r.drops, 0);
}
