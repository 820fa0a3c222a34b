//! Laboratory diagnostics: per-rung throughput with connection and
//! resource internals (cwnd, RTT, limit counters, server utilizations) —
//! the tool used to calibrate the model against the paper.
//!
//! ```text
//! cargo run --release -p tengig --example diagnostics
//! ```

use tengig::config::LadderRung;
use tengig::experiments::{b2b_lab, run_to_completion};
use tengig::lab::App;
use tengig_ethernet::Mtu;
use tengig_tools::{NttcpReceiver, NttcpSender};

fn detail(rung: LadderRung, mtu: Mtu, payload: u64, count: u64) {
    let cfg = rung.pe2650_config(mtu);
    let app = App::Nttcp {
        tx: NttcpSender::new(payload, count),
        rx: NttcpReceiver::new(payload * count),
    };
    let (mut lab, mut eng) = b2b_lab(cfg, app, 7);
    run_to_completion(&mut lab, &mut eng);
    let m = lab.flows[0].meas;
    let el = m.t_done.unwrap() - m.t_start.unwrap();
    let gbps = tengig_sim::rate_of(payload * count, el).gbps();
    let c = &lab.flows[0].conns[0];
    let end = m.t_done.unwrap();
    println!("{:32} p={:5} {:6.3} Gb/s | cwnd={:3} srtt={} rwnd_lim={} cwnd_lim={} rtx={} | txcpu={:.2} rxcpu={:.2} | txpci u={:.2} rxpci u={:.2} txmem u={:.2} rxmem u={:.2}",
        rung.label(mtu), payload, gbps,
        c.cc.cwnd, c.srtt().map(|s| s.to_string()).unwrap_or_default(),
        c.stats.rwnd_limited, c.stats.cwnd_limited, c.stats.retransmits,
        tengig::lab::cpu_load(&lab,0,0), tengig::lab::cpu_load(&lab,0,1),
        lab.hosts[0].pci.utilization(end), lab.hosts[1].pci.utilization(end),
        lab.hosts[0].membus.utilization(end), lab.hosts[1].membus.utilization(end));
}

fn main() {
    for (rung, mtu, p) in [
        (LadderRung::Stock, Mtu::STANDARD, 1448),
        (LadderRung::Stock, Mtu::JUMBO_9000, 8948),
        (LadderRung::PciBurst, Mtu::JUMBO_9000, 8948),
        (LadderRung::Uniprocessor, Mtu::STANDARD, 1448),
        (LadderRung::Uniprocessor, Mtu::JUMBO_9000, 8948),
        (LadderRung::OversizedWindows, Mtu::STANDARD, 1448),
        (LadderRung::OversizedWindows, Mtu::JUMBO_9000, 8948),
        (LadderRung::Mtu8160, Mtu::JUMBO_9000, 8108),
        (LadderRung::Mtu16000, Mtu::JUMBO_9000, 15948),
    ] {
        detail(rung, mtu, p, 4000);
    }
    // latency probe
    use tengig::experiments::latency::{netpipe_point, without_coalescing};
    let base = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    println!("lat b2b 1B    : {}", netpipe_point(base, 1, false, 18));
    println!("lat sw  1B    : {}", netpipe_point(base, 1, true, 18));
    println!("lat b2b 1024B : {}", netpipe_point(base, 1024, false, 1041));
    println!(
        "lat b2b nocoal: {}",
        netpipe_point(without_coalescing(base), 1, false, 18)
    );
    // pktgen
    let pg = tengig::experiments::throughput::pktgen_run(
        LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160),
        8132,
        5000,
    );
    println!("pktgen: {:.3} Gb/s {:.0} pps", pg.gbps, pg.pps);
}
