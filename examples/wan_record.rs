//! Recreate the §4 Internet2 Land Speed Record run: a single TCP stream
//! from Sunnyvale to Geneva across the OC-192/OC-48 circuit, with the
//! paper's BDP-tuned socket buffers — then show what goes wrong with
//! mistuned buffers (the Table 1 warning).
//!
//! ```text
//! cargo run --release --example wan_record
//! ```

use tengig::experiments::wan::record_run;
use tengig::report::{humanize, Table};
use tengig_net::WanSpec;
use tengig_sim::Nanos;

fn main() {
    let wan = WanSpec::record_run();
    println!("path: Sunnyvale → (OC-192 POS) → Chicago → (OC-48 POS) → Geneva");
    println!(
        "RTT {:.0} ms, bottleneck {:.2} Gb/s (OC-48 SONET payload), BDP {:.1} MB\n",
        wan.rtt_small().as_millis_f64(),
        wan.forward_path().bottleneck().gbps(),
        wan.bdp() as f64 / 1e6,
    );

    let warmup = Nanos::from_secs(3);
    let window = Nanos::from_secs(3);

    let mut t = Table::new(
        "single-stream TCP, Sunnyvale ↔ Geneva (10,037 km)",
        &[
            "socket buffers",
            "steady Gb/s",
            "payload eff.",
            "rtx",
            "drops",
            "1 TB takes",
        ],
    );
    // The record configuration: buffers ≈ 2×BDP.
    let rec = record_run(&wan, None, warmup, window, 2003);
    t.row(vec![
        "tuned (≈2×BDP)".into(),
        format!("{:.3}", rec.gbps),
        format!("{:.1}%", rec.payload_efficiency * 100.0),
        rec.retransmits.to_string(),
        rec.drops.to_string(),
        humanize(rec.terabyte_time),
    ]);
    // Undersized buffers: the flow-control window throttles the stream.
    let small = record_run(&wan, Some(8 << 20), warmup, window, 2003);
    t.row(vec![
        "undersized (8 MB)".into(),
        format!("{:.3}", small.gbps),
        format!("{:.1}%", small.payload_efficiency * 100.0),
        small.retransmits.to_string(),
        small.drops.to_string(),
        humanize(small.terabyte_time),
    ]);
    // Oversized buffers against a shallow router queue: congestion loss
    // and the AIMD sawtooth the paper's Table 1 warns about.
    let shallow = wan.with_bottleneck_buffer(6 << 20);
    let over = record_run(&shallow, Some(256 << 20), warmup, window, 2003);
    t.row(vec![
        "oversized + 6MB router buffer".into(),
        format!("{:.3}", over.gbps),
        format!("{:.1}%", over.payload_efficiency * 100.0),
        over.retransmits.to_string(),
        over.drops.to_string(),
        humanize(over.terabyte_time),
    ]);
    println!("{}", t.render());
    println!("paper: 2.38 Gb/s sustained, ≈99% payload efficiency, a terabyte in <1 hour;");
    println!("\"setting the socket buffer too large can severely impact performance\" (§3.5.1).");
}
