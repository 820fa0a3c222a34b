//! Regenerate any paper figure or table as text/gnuplot-style output.
//!
//! ```text
//! cargo run --release --example figures -- fig3 [count]
//! cargo run --release --example figures -- all
//! ```
//!
//! Supported artifacts: `fig3 fig4 fig5 fig6 fig7 table1 fig8 comparison
//! multiflow pktgen anecdotal ablations osbypass`, or `all` for every one
//! in that order. `count` is the NTTCP packet count per throughput point
//! (default 4000). An unknown artifact or a count that does not parse
//! prints the usage line and exits 2.

use tengig::analytic::{table1, WindowQuantization};
use tengig::config::{LadderRung, TuningStep};
use tengig::experiments::anecdotal::{
    e7505_out_of_box, e7505_with_timestamps, itanium_aggregation,
};
use tengig::experiments::latency::{
    latency_sweep, netpipe_point, paper_latency_payloads, without_coalescing,
};
use tengig::experiments::multiflow::{aggregate, Direction};
use tengig::experiments::osbypass;
use tengig::experiments::throughput::{nttcp_point, pktgen_run, throughput_sweep};
use tengig::experiments::wan::record_run;
use tengig::report::{figure, humanize, Table};
use tengig_ethernet::Mtu;
use tengig_hw::MemorySpec;
use tengig_net::{Impairments, WanSpec};
use tengig_nic::Interconnect;
use tengig_sim::stats::Series;
use tengig_sim::Nanos;
use tengig_tools::run_stream;

/// An artifact's command-line name and its printer, which takes the
/// per-point packet count (the latency and analytic artifacts ignore it).
type Artifact = (&'static str, fn(u64));

/// Every artifact, in `all` order.
const ARTIFACTS: [Artifact; 13] = [
    ("fig3", print_fig3),
    ("fig4", print_fig4),
    ("fig5", print_fig5),
    ("fig6", print_fig6),
    ("fig7", print_fig7),
    ("table1", print_table1),
    ("fig8", print_fig8),
    ("comparison", print_comparison),
    ("multiflow", print_multiflow),
    ("pktgen", print_pktgen),
    ("anecdotal", print_anecdotal),
    ("ablations", print_ablations),
    ("osbypass", print_osbypass),
];

/// Reduced sweep (every 512 B) — the full 128-byte-step sweep of the paper
/// works too but takes proportionally longer.
fn payload_sweep() -> Vec<u64> {
    let mut v: Vec<u64> = (256..=16_384).step_by(512).collect();
    // Make sure the MSS points (the peaks) are present.
    for p in [1448, 8108, 8948, 15948] {
        if !v.contains(&p) {
            v.push(p);
        }
    }
    v.sort_unstable();
    v
}

fn print_fig3(count: u64) {
    let payloads = payload_sweep();
    let series = vec![
        throughput_sweep(
            LadderRung::Stock.pe2650_config(Mtu::STANDARD),
            "1500MTU,SMP,512PCI",
            &payloads,
            count,
        ),
        throughput_sweep(
            LadderRung::Stock.pe2650_config(Mtu::JUMBO_9000),
            "9000MTU,SMP,512PCI",
            &payloads,
            count,
        ),
    ];
    println!(
        "{}",
        figure("Fig. 3: throughput of stock TCP (Mb/s)", &series)
    );
    println!(
        "peaks: 1500 MTU {:.0} Mb/s (paper 1800), 9000 MTU {:.0} Mb/s (paper 2700)\n",
        series[0].peak(),
        series[1].peak()
    );
}

fn print_fig4(count: u64) {
    let payloads = payload_sweep();
    let series = vec![
        throughput_sweep(
            LadderRung::OversizedWindows.pe2650_config(Mtu::STANDARD),
            "1500MTU,UP,4096PCI,256kbuf,medres",
            &payloads,
            count,
        ),
        throughput_sweep(
            LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000),
            "9000MTU,UP,4096PCI,256kbuf,medres",
            &payloads,
            count,
        ),
    ];
    println!(
        "{}",
        figure(
            "Fig. 4: oversized windows + MMRBC 4096 + UP (Mb/s)",
            &series
        )
    );
    let dip = series[1].min_in(7_436.0, 8_947.0).unwrap_or(0.0);
    println!(
        "peaks: 1500 {:.0} Mb/s (paper 2470), 9000 {:.0} Mb/s (paper 3900); \
         9000 dip region min {:.0} Mb/s vs peak {:.0}\n",
        series[0].peak(),
        series[1].peak(),
        dip,
        series[1].peak()
    );
}

fn print_fig5(count: u64) {
    let payloads = payload_sweep();
    let mut series = vec![
        throughput_sweep(
            LadderRung::Mtu16000.pe2650_config(Mtu::JUMBO_9000),
            "16000MTU,UP,4096PCI,256kbuf",
            &payloads,
            count,
        ),
        throughput_sweep(
            LadderRung::Mtu8160.pe2650_config(Mtu::JUMBO_9000),
            "8160MTU,UP,4096PCI,256kbuf",
            &payloads,
            count,
        ),
    ];
    // The paper's theoretical reference lines.
    for (label, gbps) in [
        ("Quadrics (theoretical)", 3.2),
        ("Myrinet (theoretical)", 2.0),
        ("GbE (theoretical)", 1.0),
    ] {
        let mut s = Series::new(label);
        s.push(*payloads.first().unwrap() as f64, gbps * 1000.0);
        s.push(*payloads.last().unwrap() as f64, gbps * 1000.0);
        series.push(s);
    }
    println!("{}", figure("Fig. 5: non-standard MTUs (Mb/s)", &series));
    println!(
        "peaks: 16000 {:.0} Mb/s (paper 4090), 8160 {:.0} Mb/s (paper 4110); \
         means: 16000 {:.0} vs 8160 {:.0}\n",
        series[0].peak(),
        series[1].peak(),
        series[0].mean(),
        series[1].mean()
    );
}

fn print_fig6(_count: u64) {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let payloads = paper_latency_payloads();
    let series = vec![
        latency_sweep(cfg, "back-to-back (us)", &payloads, false),
        latency_sweep(cfg, "through FastIron 1500 (us)", &payloads, true),
    ];
    println!("{}", figure("Fig. 6: end-to-end latency (us)", &series));
    println!(
        "1-byte: b2b {:.1} us (paper 19), switch {:.1} us (paper 25); \
         1 KiB b2b {:.1} us (paper ~23)\n",
        series[0].at(1.0).unwrap(),
        series[1].at(1.0).unwrap(),
        series[0].at(1024.0).unwrap()
    );
}

fn print_fig7(_count: u64) {
    let base = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let cfg = without_coalescing(base);
    let payloads = paper_latency_payloads();
    let series = vec![
        latency_sweep(cfg, "back-to-back, no coalescing (us)", &payloads, false),
        latency_sweep(cfg, "through switch, no coalescing (us)", &payloads, true),
    ];
    println!(
        "{}",
        figure("Fig. 7: latency without interrupt coalescing (us)", &series)
    );
    let with = netpipe_point(base, 1, false, 18).as_micros_f64();
    let without = series[0].at(1.0).unwrap();
    println!(
        "1-byte b2b: {without:.1} us (paper 14); coalescing delta {:.1} us (paper 5)\n",
        with - without
    );
}

fn print_table1(_count: u64) {
    let mut t = Table::new(
        "Table 1: time to recover from a single packet loss",
        &[
            "path",
            "bandwidth",
            "RTT (ms)",
            "MSS (bytes)",
            "time to recover",
            "paper",
        ],
    );
    let paper = ["ms-scale", "1 hr 42 min", "17 min", "3 hr 51 min", "38 min"];
    for (row, p) in table1().into_iter().zip(paper) {
        t.row(vec![
            row.path.to_string(),
            row.bandwidth.to_string(),
            format!("{:.1}", row.rtt.as_millis_f64()),
            row.mss.to_string(),
            humanize(row.time),
            p.to_string(),
        ]);
    }
    println!("{}", t.render());

    // Simulation cross-check: sparse random loss on a 10 ms-RTT miniature
    // of the WAN depresses the mean below the clean rate (the sawtooth).
    let mini = WanSpec {
        prop_svl_chi: Nanos::from_millis(2),
        prop_chi_gva: Nanos::from_millis(3),
        bottleneck_buffer: 64 << 20,
        random_loss: 0.0,
        impair: Impairments::none(),
    };
    let clean = record_run(
        &mini,
        None,
        Nanos::from_millis(600),
        Nanos::from_millis(600),
        2003,
    );
    let lossy = record_run(
        &mini.with_random_loss(2e-5),
        None,
        Nanos::from_millis(600),
        Nanos::from_secs(2),
        2003,
    );
    println!(
        "sawtooth cross-check at 10 ms RTT: clean {:.2} Gb/s, with sparse loss {:.2} Gb/s \
         ({} retransmits)\n",
        clean.gbps, lossy.gbps, lossy.retransmits
    );
}

fn print_fig8(_count: u64) {
    // Fig. 8: ideal vs MSS-allowed window — the §3.5.1 quantization.
    let mut t = Table::new(
        "Fig. 8: ideal vs MSS-allowed window (window quantization)",
        &[
            "ideal window",
            "snd MSS",
            "rcv MSS",
            "advertised",
            "sender-usable",
            "attenuation",
        ],
    );
    for (ideal, snd, rcv) in [
        (26_000u64, 8_948u64, 8_948u64), // the figure's ~26 KB example
        (48_000, 8_948, 8_948),          // the LAN ideal-window case
        (33_000, 8_960, 8_948),          // the §3.5.1 MSS-mismatch example
        (48_000, 1_448, 1_448),          // standard MTU barely loses
    ] {
        let wq = WindowQuantization {
            ideal_window: ideal,
            snd_mss: snd,
            rcv_mss: rcv,
        };
        t.row(vec![
            ideal.to_string(),
            snd.to_string(),
            rcv.to_string(),
            wq.advertised().to_string(),
            wq.sender_usable().to_string(),
            format!("{:.0}%", wq.attenuation_pct()),
        ]);
    }
    println!("{}", t.render());
}

fn print_comparison(_count: u64) {
    let mut t = Table::new(
        "§3.5.4: interconnect comparison (published numbers)",
        &[
            "interconnect",
            "theoretical",
            "unidirectional",
            "latency",
            "sockets-compatible",
        ],
    );
    let mut rows = Interconnect::all_baselines();
    rows.push(Interconnect::tengbe_tcp_paper());
    for ic in rows {
        t.row(vec![
            ic.name.to_string(),
            ic.theoretical.to_string(),
            ic.unidirectional.to_string(),
            format!("{:.1} us", ic.latency.as_micros_f64()),
            if ic.sockets_compatible { "yes" } else { "no" }.to_string(),
        ]);
    }
    println!("{}", t.render());
}

/// §3.5.2: multi-flow aggregation through the FastIron — GbE hosts into
/// one 10GbE host and back, showing the tx/rx parity the paper found
/// "unexpected".
fn print_multiflow(_count: u64) {
    let tengbe = || LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let w = Nanos::from_millis(30);
    let mut t = Table::new(
        "§3.5.2 multi-flow aggregation (PE2650, jumbo frames)",
        &["GbE peers", "direction", "aggregate Gb/s", "10GbE host CPU"],
    );
    let runs = [1usize, 2, 4, 6, 8]
        .map(|peers| (peers, Direction::IntoTenGbe, "into 10GbE (rx)"))
        .into_iter()
        .chain([4usize, 8].map(|peers| (peers, Direction::OutOfTenGbe, "out of 10GbE (tx)")));
    for (peers, direction, label) in runs {
        let r = aggregate(tengbe(), peers, direction, w, w, 99);
        t.row(vec![
            peers.to_string(),
            label.into(),
            format!("{:.2}", r.aggregate_gbps),
            format!("{:.2}", r.tengbe_cpu_load),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper: tx and rx paths statistically equal; aggregate tops out near the\n\
         single-flow host ceiling (~4 Gb/s on a PE2650)\n"
    );
}

/// §3.5.2: the Linux packet generator — the single-copy upper bound
/// (paper: 5.5 Gb/s, ~88,400 packets/s with 8160-byte packets) and the
/// TCP/pktgen ratio (~75%).
fn print_pktgen(count: u64) {
    let cfg = LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160);
    let mut t = Table::new(
        "§3.5.2 packet generator (single copy, TCP bypass)",
        &["packet payload", "packets/s", "Gb/s"],
    );
    for payload in [1472u64, 4068, 8132] {
        let r = pktgen_run(cfg, payload, 6_000);
        t.row(vec![
            payload.to_string(),
            format!("{:.0}", r.pps),
            format!("{:.2}", r.gbps),
        ]);
    }
    println!("{}", t.render());
    let pg = pktgen_run(cfg, 8132, 6_000);
    let tcp = nttcp_point(cfg, 8108, count, 1).throughput.gbps();
    println!(
        "8160-byte packets: {:.2} Gb/s at {:.0} pps (paper: 5.5 Gb/s, 88,400 pps)\n\
         TCP/pktgen ratio: {:.0}% (paper ~75%)\n",
        pg.gbps,
        pg.pps,
        tcp / pg.gbps * 100.0
    );
}

/// §3.4: the Intel E7505 loaners (4.64 Gb/s out of the box, timestamps
/// off) and the quad Itanium-II aggregation (7.2 Gb/s), plus the §3.1
/// STREAM memory-bandwidth sanity numbers.
fn print_anecdotal(count: u64) {
    let mut t = Table::new("§3.4 anecdotal hosts", &["measurement", "Gb/s", "paper"]);
    let e7 = e7505_out_of_box(count);
    t.row(vec![
        "E7505 out of the box (ts off)".into(),
        format!("{:.2}", e7.throughput.gbps()),
        "4.64".into(),
    ]);
    let e7ts = e7505_with_timestamps(count);
    t.row(vec![
        "E7505 with timestamps".into(),
        format!("{:.2}", e7ts.throughput.gbps()),
        "~-10%".into(),
    ]);
    let w = Nanos::from_millis(30);
    let it = itanium_aggregation(8, w, w);
    t.row(vec![
        "Itanium-II x4, 8 GbE senders".into(),
        format!("{:.2}", it.aggregate_gbps),
        "7.2".into(),
    ]);
    println!("{}", t.render());

    let mut s = Table::new("§3.1 STREAM copy bandwidth", &["host", "Gb/s", "paper"]);
    for (name, mem, paper) in [
        ("PE2650 (GC-LE)", MemorySpec::gc_le(), "~8.5"),
        ("PE4600 (GC-HE)", MemorySpec::gc_he(), "12.8"),
        ("E7505", MemorySpec::e7505(), "≈PE2650"),
    ] {
        s.row(vec![
            name.into(),
            format!("{:.1}", run_stream(&mem).copy.gbps()),
            paper.into(),
        ]);
    }
    println!("{}", s.render());
}

/// Ablations over the knobs the paper discusses beyond its main ladder:
/// the MMRBC burst size, the interrupt-coalescing delay (latency vs CPU),
/// the socket buffers (the window-limited → resource-limited crossover)
/// and TSO (§3.3: "the implementation of TSO should reduce the CPU load
/// on transmitting systems").
fn print_ablations(count: u64) {
    let tuned = |rung: LadderRung, step| rung.pe2650_config(Mtu::JUMBO_9000).tuned(step);

    let mut t = Table::new("ablation: MMRBC burst size (9000 MTU)", &["MMRBC", "Gb/s"]);
    for mmrbc in [512u64, 1024, 2048, 4096] {
        let cfg = tuned(LadderRung::OversizedWindows, TuningStep::Mmrbc(mmrbc));
        let r = nttcp_point(cfg, 8948, count, 1);
        t.row(vec![
            mmrbc.to_string(),
            format!("{:.2}", r.throughput.gbps()),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new(
        "ablation: interrupt-coalescing delay",
        &["delay (us)", "1B latency (us)", "bulk Gb/s", "rx CPU"],
    );
    for us in [0u64, 1, 5, 10, 20] {
        let cfg = tuned(
            LadderRung::OversizedWindows,
            TuningStep::Coalescing(Nanos::from_micros(us)),
        );
        let lat = netpipe_point(cfg, 1, false, 18);
        let thr = nttcp_point(cfg, 8948, count, 1);
        t.row(vec![
            us.to_string(),
            format!("{:.1}", lat.as_micros_f64()),
            format!("{:.2}", thr.throughput.gbps()),
            format!("{:.2}", thr.rx_cpu_load),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new(
        "ablation: socket buffer size (9000 MTU)",
        &["buffers (KB)", "Gb/s"],
    );
    for kb in [64u64, 128, 256, 512, 1024] {
        let cfg = tuned(LadderRung::Uniprocessor, TuningStep::Buffers(kb * 1024));
        let r = nttcp_point(cfg, 8948, count, 1);
        t.row(vec![kb.to_string(), format!("{:.2}", r.throughput.gbps())]);
    }
    println!("{}", t.render());

    let mut t = Table::new(
        "ablation: TCP segmentation offload (sender side)",
        &["TSO", "Gb/s", "tx CPU", "rx CPU"],
    );
    for tso in [false, true] {
        let mut cfg = LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160);
        cfg.nic = cfg.nic.with_tso(tso);
        let r = nttcp_point(cfg, 8108, count, 1);
        t.row(vec![
            if tso { "on" } else { "off" }.into(),
            format!("{:.2}", r.throughput.gbps()),
            format!("{:.2}", r.tx_cpu_load),
            format!("{:.2}", r.rx_cpu_load),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper §3.3: \"the implementation of TSO should reduce the CPU load on\n\
         transmitting systems, and in many cases, will increase throughput\"\n"
    );
}

/// §5 projection: RDMA-over-IP / OS-bypass on the same 10GbE hardware —
/// "throughput approaching 8 Gb/s, end-to-end latencies below 10 µs, and
/// a CPU load approaching zero".
fn print_osbypass(count: u64) {
    let mut t = Table::new(
        "§5 projection: OS-bypass (RDMA over IP) vs the best TCP result",
        &["path", "Gb/s", "one-way latency", "CPU load"],
    );
    let cfg = LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160);
    let tcp = nttcp_point(cfg, 8108, count, 7);
    let tcp_lat = netpipe_point(cfg, 1, false, 18);
    t.row(vec![
        "TCP/IP, tuned (measured)".into(),
        format!("{:.2}", tcp.throughput.gbps()),
        format!("{:.1} us", tcp_lat.as_micros_f64()),
        format!("{:.2}", tcp.rx_cpu_load),
    ]);
    for mtu in [Mtu::JUMBO_9000, Mtu::MAX_INTEL_16000] {
        let r = osbypass::throughput(mtu, 4_000, 5);
        t.row(vec![
            format!("OS-bypass, {} MTU (projected)", mtu.get()),
            format!("{:.2}", r.gbps),
            format!("{:.1} us", r.latency.as_micros_f64()),
            format!("{:.2}", r.cpu_load),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper §5: \"throughput approaching 8 Gb/s, end-to-end latencies below 10 µs,\n\
         and a CPU load approaching zero\"\n"
    );
}

fn usage() -> ! {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    eprintln!("usage: figures [{}|all] [count]", names.join("|"));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map_or("all", String::as_str);
    let count = match args.get(1) {
        None => 4_000,
        Some(s) => s.parse().unwrap_or_else(|_| usage()),
    };
    if args.len() > 2 || (which != "all" && !ARTIFACTS.iter().any(|(name, _)| *name == which)) {
        usage();
    }
    for (name, print) in ARTIFACTS {
        if which == "all" || which == name {
            print(count);
        }
    }
}
