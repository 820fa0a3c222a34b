//! `tengig-check` command-line contract: bad arguments exit 2 before any
//! sweep runs, and `diff` reports identity (exit 0) or the first
//! differing line (exit 1). Nothing here runs a simulation.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tengig_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tengig-check"))
        .args(args)
        .output()
        .expect("spawn tengig-check")
}

fn grid_golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens/grid.jsonl")
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
fn diff_of_a_golden_against_itself_exits_0() {
    let golden = grid_golden();
    let golden = golden.to_str().unwrap();
    assert_eq!(
        tengig_check(&["diff", golden, golden]).status.code(),
        Some(0)
    );
}

#[test]
fn diff_against_a_one_byte_change_exits_1_and_shows_the_line() {
    let golden = grid_golden();
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
