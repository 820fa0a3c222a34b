//! `tengig-check` — the determinism golden gates, plus the tools that
//! read and produce their documents.
//!
//! ```text
//! tengig-check <family|all> [--shards N] [--write-golden]
//!                              golden gate (`make golden-check`)
//! tengig-check summarize FILE  pretty-print a timelines or profile document
//! tengig-check diff A B        compare two documents
//! tengig-check obs run [--out PATH]
//!                              record the WAN cwnd timeline
//! tengig-check chaos run [--scenarios N] [--seed S] [--threads T] [--out PATH]
//!                        [--inject INDEX]
//!                              chaos campaign; exit 1 if any scenario fails
//! tengig-check chaos repro --seed SEED [--inject]
//!                              re-run one chaos scenario from its seed
//! ```
//!
//! A gate runs each named family of the registry
//! ([`tengig_bench::check::REGISTRY`]) at every shard count its row lists,
//! or only at `--shards N`. `summarize` and `diff` choose a handler from
//! the document's header line: obs timelines, a profile, or (for `diff`)
//! any JSONL. `chaos run --inject INDEX` deliberately fails one scenario
//! through the same panic-capture path a real invariant violation takes —
//! the self-test that the printed repro line actually works. Exit status
//! is 0 on pass, 1 on mismatch or failure, 2 on operational error.

use tengig::experiments::faults::{chaos_campaign, chaos_run, chaos_spec, ChaosRow};
use tengig::experiments::wan::record_timeline;
use tengig::SweepRunner;
use tengig_bench::check::{self, CAMPAIGN_N, CAMPAIGN_SEED, REGISTRY, SEED};
use tengig_bench::golden;
use tengig_net::WanSpec;
use tengig_sim::{Hist, Nanos, Timelines};

fn usage() -> ! {
    let names: Vec<&str> = REGISTRY.iter().map(|f| f.name).collect();
    eprintln!(
        "usage: tengig-check <{}|all> [--shards N] [--write-golden]\n\
        \x20      tengig-check summarize FILE\n\
        \x20      tengig-check diff A B\n\
        \x20      tengig-check obs run [--out PATH]\n\
        \x20      tengig-check chaos run [--scenarios N] [--seed S] [--threads T] [--out PATH] \
         [--inject INDEX]\n\
        \x20      tengig-check chaos repro --seed SEED [--inject]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(value: &str, what: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("tengig-check: bad {what}: {value}");
        std::process::exit(2);
    })
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn is_timelines(doc: &str) -> bool {
    doc.starts_with("{\"obs\":\"timelines\"")
}

fn is_profile(doc: &str) -> bool {
    doc.starts_with("{\"prof\":")
}

fn timelines(path: &str, doc: &str) -> Result<Timelines, String> {
    Timelines::from_jsonl(doc).map_err(|e| format!("{path}: {e}"))
}

/// Extract an unsigned integer field from a single-line JSON object.
fn field_u64(line: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    let Some(at) = line.find(&pat) else {
        return 0;
    };
    let digits: String = line[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().unwrap_or(0)
}

/// Extract a string field from a single-line JSON object.
fn field_str<'a>(line: &'a str, name: &str) -> &'a str {
    let pat = format!("\"{name}\":\"");
    line.find(&pat)
        .and_then(|at| line[at + pat.len()..].split('"').next())
        .unwrap_or("?")
}

/// Parse an embedded histogram field out of a profile line.
fn field_hist(line: &str, name: &str) -> Option<Hist> {
    let pat = format!("\"{name}\":");
    let at = line.find(&pat)?;
    Hist::parse(&line[at + pat.len()..]).ok()
}

/// The histograms a profile line embeds.
const PROF_HISTS: [&str; 2] = ["rx_batch", "drain_batch"];

/// Profile readout: per-preset sim sections with the p50/p90/p99/max
/// histogram readout, then the local and wall sections.
fn summarize_profile(doc: &str) {
    for line in doc.lines() {
        if line.contains("\"prof\":\"sim\"") {
            println!(
                "{} executed={}",
                field_str(line, "preset"),
                field_u64(line, "executed")
            );
            for h in PROF_HISTS {
                if let Some(hist) = field_hist(line, h) {
                    println!("  {h}: {}", hist.summary());
                }
            }
        } else if line.contains("\"prof\":\"local\"") {
            println!(
                "  shard {} windows={} msgs_sent={} pool={}h/{}m",
                field_u64(line, "shard"),
                field_u64(line, "windows"),
                field_u64(line, "msgs_sent"),
                field_u64(line, "pool_hits"),
                field_u64(line, "pool_misses"),
            );
        } else if line.contains("\"wall\":\"shard\"") {
            let ms = |name| field_u64(line, name) as f64 / 1e6;
            println!(
                "  wall shard {}: windows={} barrier_wait={:.3}ms execute={:.3}ms",
                field_u64(line, "shard"),
                field_u64(line, "windows"),
                ms("barrier_wait_ns"),
                ms("execute_ns"),
            );
        }
    }
}

fn summarize(path: &str) -> Result<bool, String> {
    let doc = read(path)?;
    if is_timelines(&doc) {
        print!("{}", timelines(path, &doc)?.summary());
    } else if is_profile(&doc) {
        summarize_profile(&doc);
    } else {
        return Err(format!(
            "{path}: not a timelines or profile document (`diff` compares any JSONL)"
        ));
    }
    Ok(true)
}

/// Compare two documents. Timelines compare series by series; anything
/// else line by line, with the histogram percentiles of the first
/// diverging profile line, which usually localize a drift faster than raw
/// bucket lists.
fn diff(a: &str, b: &str) -> Result<bool, String> {
    let (left, right) = (read(a)?, read(b)?);
    if is_timelines(&left) {
        let lines = timelines(a, &left)?.diff(&timelines(b, &right)?);
        if lines.is_empty() {
            println!("timelines identical: {a} == {b}");
            return Ok(true);
        }
        println!("timelines differ ({a} vs {b}):");
        for line in &lines {
            println!("  - {line}");
        }
        return Ok(false);
    }
    if left == right {
        println!("identical: {a} == {b}");
        return Ok(true);
    }
    println!("documents differ ({a} vs {b}):");
    golden::print_diff(&left, &right);
    if is_profile(&left) {
        if let Some((l, r)) = left.lines().zip(right.lines()).find(|(l, r)| l != r) {
            for name in PROF_HISTS {
                if let (Some(lh), Some(rh)) = (field_hist(l, name), field_hist(r, name)) {
                    if lh != rh {
                        println!("    {name} expected: {}", lh.summary());
                        println!("    {name} got:      {}", rh.summary());
                    }
                }
            }
        }
    }
    Ok(false)
}

/// Record the Internet2 land-speed-record run with metrics enabled and
/// write its timelines — including the cwnd-vs-time series of the paper's
/// AIMD plot — as JSONL.
fn obs_run(out: &str) -> Result<bool, String> {
    let (result, tl) = record_timeline(
        &WanSpec::record_run(),
        None,
        Nanos::from_secs(1),
        Nanos::from_secs(2),
        SEED,
        &check::obs_config(),
    );
    std::fs::write(out, tl.to_jsonl()).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wan record: {:.3} Gb/s, {} retransmits, {} drops",
        result.gbps, result.retransmits, result.drops
    );
    println!("wrote {} series to {out}", tl.len());
    Ok(true)
}

fn print_failures(rows: &[ChaosRow]) {
    for row in rows {
        if let Err(text) = &row.outcome {
            let first = text.lines().next().unwrap_or("");
            println!("FAIL scenario {:03} seed {}: {first}", row.index, row.seed);
            println!("  repro: tengig-check chaos repro --seed {}", row.seed);
        }
    }
}

fn chaos_run_campaign(args: &[&str]) -> Result<bool, String> {
    let mut n = CAMPAIGN_N;
    let mut seed = CAMPAIGN_SEED;
    let mut threads = 4;
    let mut out = None;
    let mut inject = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().copied().unwrap_or_else(|| usage());
        match *flag {
            "--scenarios" => n = parse(value, "scenario count"),
            "--seed" => seed = parse(value, "seed"),
            "--threads" => threads = parse(value, "thread count"),
            "--out" => out = Some(value),
            "--inject" => inject = Some(parse(value, "inject index")),
            _ => usage(),
        }
    }
    // Scenario panics are captured into rows; keep the default hook from
    // spraying backtraces over the campaign summary. `repro` leaves the
    // hook alone so a reproduced failure prints its full report.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (rows, report) = chaos_campaign(n, seed, inject, SweepRunner::new(threads));
    std::panic::set_hook(hook);
    let failures = rows.iter().filter(|r| r.outcome.is_err()).count();
    if let Some(path) = out {
        std::fs::write(path, report.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote campaign report to {path}");
    }
    print_failures(&rows);
    println!(
        "chaos campaign: {n} scenarios, master seed {seed}, {} survived, {failures} failed",
        n - failures
    );
    Ok(failures == 0)
}

/// Re-run a single chaos scenario from its seed, exactly as the campaign
/// did.
fn chaos_repro(seed: u64, inject: bool) -> Result<bool, String> {
    let spec = chaos_spec(seed);
    println!(
        "scenario seed {seed}: mean_loss={:.5} burst={:.2} reorder_p={:.4} \
         dup={:.4} corrupt={:.4} outage={:?}",
        spec.mean_loss,
        spec.burst_len,
        spec.reorder_p,
        spec.duplicate,
        spec.corrupt,
        spec.outage_at.map(|at| (at, spec.outage_len)),
    );
    match chaos_run(seed, inject) {
        Ok(o) => {
            println!(
                "survived: {:.4} Gb/s over {}, {} rtx, {} rto, {} impair drops, \
                 {} dups, {} reordered, {} crc drops, {} events",
                o.gbps,
                o.duration,
                o.retransmits,
                o.timeouts,
                o.impair_drops,
                o.dup_frames,
                o.reordered,
                o.crc_drops,
                o.events
            );
            Ok(true)
        }
        Err(text) => {
            println!("FAILED:\n{text}");
            Ok(false)
        }
    }
}

/// `<family|all> [--shards N] [--write-golden]`: arguments are validated
/// before any sweep runs. Each family runs at `--shards` or at every
/// shard count its row lists; a mismatch does not stop the remaining
/// gates, an operational error does.
fn gate(name: &str, rest: &[&str]) -> Result<bool, String> {
    let families = match name {
        "all" => REGISTRY,
        _ => match REGISTRY.iter().find(|f| f.name == name) {
            Some(fam) => std::slice::from_ref(fam),
            None => usage(),
        },
    };
    let mut shards = None;
    let mut write_golden = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--shards" => shards = it.next().and_then(|s| s.parse().ok()).or_else(|| usage()),
            "--write-golden" => write_golden = true,
            _ => usage(),
        }
    }
    if shards == Some(0) {
        usage();
    }
    let mut ok = true;
    for fam in families {
        for &n in shards.as_ref().map_or(fam.shards, std::slice::from_ref) {
            ok &= check::check(fam, n, write_golden)?;
        }
    }
    Ok(ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match strs.as_slice() {
        ["summarize", path] => summarize(path),
        ["diff", a, b] => diff(a, b),
        ["obs", "run"] => obs_run("wan_record.obs.jsonl"),
        ["obs", "run", "--out", path] => obs_run(path),
        ["chaos", "run", rest @ ..] => chaos_run_campaign(rest),
        ["chaos", "repro", "--seed", seed] => chaos_repro(parse(seed, "seed"), false),
        ["chaos", "repro", "--seed", seed, "--inject"] => chaos_repro(parse(seed, "seed"), true),
        [name, rest @ ..] => gate(name, rest),
        [] => usage(),
    };
    golden::exit_check("tengig-check", outcome);
}
