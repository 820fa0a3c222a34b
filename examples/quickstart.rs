//! Quickstart: run one NTTCP throughput measurement between two simulated
//! Dell PowerEdge 2650s connected back-to-back with Intel PRO/10GbE
//! adapters, at two rungs of the paper's tuning ladder.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tengig::config::LadderRung;
use tengig::experiments::latency::netpipe_point;
use tengig::experiments::throughput::nttcp_point;
use tengig_ethernet::Mtu;

fn main() {
    println!("tengig quickstart: the SC'03 10GbE case study in simulation\n");

    // Stock configuration: SMP kernel, MMRBC 512, default windows.
    let stock = LadderRung::Stock.pe2650_config(Mtu::JUMBO_9000);
    let r = nttcp_point(stock, stock.sysctls.mss(), 8_000, 1);
    println!(
        "stock PE2650, 9000-byte MTU : {:>6.2} Gb/s  (paper: 2.7)   rx CPU load {:.2}",
        r.throughput.gbps(),
        r.rx_cpu_load
    );

    // The paper's fully tuned configuration: MMRBC 4096, uniprocessor
    // kernel, 256 KB socket buffers, 8160-byte MTU.
    let tuned = LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160);
    let r = nttcp_point(tuned, tuned.sysctls.mss(), 8_000, 1);
    println!(
        "tuned PE2650, 8160-byte MTU : {:>6.2} Gb/s  (paper: 4.11)  rx CPU load {:.2}",
        r.throughput.gbps(),
        r.rx_cpu_load
    );

    // End-to-end latency, NetPipe-style single-byte ping-pong.
    let lat = netpipe_point(tuned, 1, false, 18);
    println!(
        "one-way latency, back-to-back: {:>6.2} us  (paper: 19)",
        lat.as_micros_f64()
    );

    println!("\nEvery knob the paper turns is a config field — see");
    println!("`tengig::config::TuningStep` and `examples/optimization_ladder.rs`.");
}
