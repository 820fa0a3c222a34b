//! The §3.5.4 comparison: simulated 10GbE numbers against the published
//! figures for Gigabit Ethernet, Myrinet (GM and IP), and Quadrics QsNet
//! (Elan3 and IP), with the paper's advantage percentages recomputed from
//! the laboratory's own measurements.
//!
//! ```text
//! cargo run --release --example interconnect_comparison
//! ```

use tengig::config::LadderRung;
use tengig::experiments::latency::netpipe_point;
use tengig::experiments::throughput::nttcp_point;
use tengig::report::Table;
use tengig_ethernet::Mtu;
use tengig_nic::Interconnect;
use tengig_sim::{Bandwidth, Nanos};

fn main() {
    // Measure our 10GbE numbers in the tuned configuration.
    let cfg = LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160);
    println!("measuring tuned 10GbE in simulation…");
    let thr = nttcp_point(cfg, cfg.sysctls.mss(), 8_000, 7).throughput;
    let lat = netpipe_point(cfg, 1, false, 18);
    let ours = Interconnect {
        name: "10GbE/TCP (simulated)",
        api: tengig_nic::InterconnectApi::TcpIp,
        theoretical: Bandwidth::from_gbps(10),
        unidirectional: thr,
        bidirectional: None,
        latency: lat,
        sockets_compatible: true,
    };

    let mut t = Table::new(
        "§3.5.4: TCP/IP and native performance across interconnects",
        &[
            "interconnect",
            "theoretical",
            "unidirectional",
            "latency",
            "10GbE thr adv",
            "10GbE lat adv",
        ],
    );
    for ic in Interconnect::all_baselines() {
        t.row(vec![
            ic.name.to_string(),
            ic.theoretical.to_string(),
            ic.unidirectional.to_string(),
            format!("{:.1} us", ic.latency.as_micros_f64()),
            format!("{:+.0}%", ours.throughput_advantage_pct(&ic)),
            format!("{:+.0}%", ours.latency_advantage_pct(&ic)),
        ]);
    }
    t.row(vec![
        ours.name.to_string(),
        ours.theoretical.to_string(),
        ours.unidirectional.to_string(),
        format!("{:.1} us", ours.latency.as_micros_f64()),
        "—".to_string(),
        "—".to_string(),
    ]);
    println!("{}", t.render());

    println!("paper's summary (§3.5.4): 10GbE throughput >300% better than GbE,");
    println!(">120% better than Myrinet/IP, >80% better than QsNet/IP; latency ~40%");
    println!("better than GbE but 1.7x/2.4x slower than Myrinet-GM/QsNet-Elan3.");

    // The best-case 12 µs of §5 comes from the faster E7505-class hosts.
    let e7 = tengig::experiments::anecdotal::e7505_config();
    let best = netpipe_point(e7, 1, false, 18);
    println!(
        "\nbest-case one-way latency on E7505-class hosts: {:.1} us (paper: 12)",
        best.as_micros_f64()
    );
    let _ = Nanos::ZERO;
}
