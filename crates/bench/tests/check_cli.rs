//! `tengig-check` command-line contract: bad arguments exit 2 before any
//! sweep runs, `diff` reports identity (exit 0) or the first differing
//! line (exit 1), and `summarize` reads the profile golden. Nothing here
//! runs a simulation.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tengig_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tengig-check"))
        .args(args)
        .output()
        .expect("spawn tengig-check")
}

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../goldens")
        .join(name)
}

#[test]
fn an_unknown_family_exits_2() {
    assert_eq!(tengig_check(&["no-such-family"]).status.code(), Some(2));
}

#[test]
fn zero_shards_exits_2() {
    assert_eq!(
        tengig_check(&["grid", "--shards", "0"]).status.code(),
        Some(2)
    );
}

#[test]
fn a_shard_count_the_family_does_not_list_exits_2() {
    assert_eq!(
        tengig_check(&["obs", "--shards", "4"]).status.code(),
        Some(2)
    );
}

#[test]
fn diff_of_a_golden_against_itself_exits_0() {
    let golden = golden("grid.jsonl");
    let golden = golden.to_str().unwrap();
    assert_eq!(
        tengig_check(&["diff", golden, golden]).status.code(),
        Some(0)
    );
}

#[test]
fn diff_against_a_one_byte_change_exits_1_and_shows_the_line() {
    let golden = golden("grid.jsonl");
    let text = std::fs::read_to_string(&golden).unwrap();
    let changed = text.replacen("\"flows\":4", "\"flows\":5", 1);
    assert_eq!(changed.len(), text.len(), "exactly one byte differs");
    let copy = Path::new(env!("CARGO_TARGET_TMPDIR")).join("grid_one_byte.jsonl");
    std::fs::write(&copy, &changed).unwrap();

    let out = tengig_check(&["diff", golden.to_str().unwrap(), copy.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = changed.lines().find(|l| l.contains("\"flows\":5")).unwrap();
    assert!(
        stdout.contains(line),
        "first differing line not shown:\n{stdout}"
    );
}

#[test]
fn summarize_reads_every_preset_of_the_profile_golden() {
    let prof = golden("prof_throughput.jsonl");
    let out = tengig_check(&["summarize", prof.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let text = std::fs::read_to_string(&prof).unwrap();
    for line in text.lines() {
        let at = line.find("\"executed\":").unwrap() + "\"executed\":".len();
        let executed: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let preset = line.split("\"preset\":\"").nth(1).unwrap();
        let preset = &preset[..preset.find('"').unwrap()];
        assert!(
            stdout.contains(&format!("{preset} executed={executed}")),
            "{preset} missing:\n{stdout}"
        );
    }
    let presets = text.lines().count();
    assert_eq!(stdout.matches("  rx_batch: ").count(), presets, "{stdout}");
    assert_eq!(
        stdout.matches("  drain_batch: ").count(),
        presets,
        "{stdout}"
    );
}

#[test]
fn diff_of_a_moved_histogram_sample_shows_both_readouts() {
    let prof = golden("prof_throughput.jsonl");
    let text = std::fs::read_to_string(&prof).unwrap();
    let first = text.lines().next().unwrap();
    assert!(first.contains("[[1,230],[2,5]]"), "{first}");
    // One sample moves between buckets; the count is unchanged.
    let changed = text.replacen("[[1,230],[2,5]]", "[[1,229],[2,6]]", 1);
    let copy = Path::new(env!("CARGO_TARGET_TMPDIR")).join("prof_moved_sample.jsonl");
    std::fs::write(&copy, &changed).unwrap();

    let out = tengig_check(&["diff", prof.to_str().unwrap(), copy.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("rx_batch expected:"), "{stdout}");
    assert!(stdout.contains("rx_batch got:"), "{stdout}");
}
