//! Byte-comparison machinery for the determinism golden gates (`make
//! golden-check`, driven by the registry in [`crate::check`]).
//!
//! Every gate follows the same contract: recompute a pinned
//! deterministic document at two worker-thread counts, require the bytes
//! identical, byte-compare against a checked-in golden, dump the computed
//! bytes next to the build artifacts on mismatch (for CI upload), and
//! exit 0 on pass, 1 on mismatch, 2 on operational error. This module
//! holds the pieces: first-divergence diff printing, golden read/write
//! with directory creation, the current-bytes dump, and the exit-code
//! mapping.

/// Print the first few differing lines of two JSONL documents, plus a
/// note when the line counts differ — enough to localize a drift without
/// rerunning anything.
pub fn print_diff(expected: &str, got: &str) {
    let e: Vec<&str> = expected.lines().collect();
    let g: Vec<&str> = got.lines().collect();
    let mut shown = 0;
    for i in 0..e.len().max(g.len()) {
        let le = e.get(i).copied();
        let lg = g.get(i).copied();
        if le != lg {
            if shown == 0 && i > 0 {
                println!("  first divergence at line {}:", i + 1);
                println!("    context:  {}", e.get(i - 1).or(g.get(i - 1)).unwrap());
            }
            println!("  line {}:", i + 1);
            println!("    expected: {}", le.unwrap_or("<line missing>"));
            println!("    got:      {}", lg.unwrap_or("<line missing>"));
            shown += 1;
            if shown >= 5 {
                break;
            }
        }
    }
    if e.len() != g.len() {
        println!(
            "  line counts differ: expected {}, got {}",
            e.len(),
            g.len()
        );
    }
}

/// Write `bytes` as the new golden at `path`, creating parent
/// directories as needed, and announce it under the tool's banner.
pub fn write_golden(tool: &str, path: &str, bytes: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))?;
    println!("{tool}: wrote golden {path}");
    Ok(())
}

/// Byte-compare two freshly computed documents that the determinism
/// contract requires identical (e.g. 1 vs 4 sweep threads). On mismatch,
/// print the FAIL banner and the first divergence; returns whether they
/// matched.
pub fn require_identical(tool: &str, what: &str, expected: &str, got: &str) -> bool {
    if expected == got {
        return true;
    }
    println!("{tool}: FAIL: {what}");
    print_diff(expected, got);
    false
}

/// Byte-compare a computed document against the checked-in golden at
/// `path`. On mismatch, print the FAIL banner, the regeneration hint
/// (`regen` is the exact command to run deliberately), and the first
/// divergence; returns whether it matched. Failing to *read* the golden
/// is an operational error, not a mismatch.
pub fn require_golden(
    tool: &str,
    what: &str,
    path: &str,
    regen: &str,
    got: &str,
) -> Result<bool, String> {
    let checked_in = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if got == checked_in {
        return Ok(true);
    }
    println!("{tool}: FAIL: {what} diverged from golden {path}");
    println!("  (regenerate deliberately with `{regen}`)");
    print_diff(&checked_in, got);
    Ok(false)
}

/// Dump the computed bytes where CI expects the failure artifact
/// (conventionally `target/<family>_current.jsonl`).
pub fn dump_current(path: &str, bytes: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))?;
    println!("  computed document written to {path}");
    Ok(())
}

/// Map a check outcome onto the shared exit-code convention: 0 when the
/// gate passed, 1 when bytes mismatched, 2 for operational errors
/// (unreadable golden, unwritable artifact, bad usage).
pub fn exit_check(tool: &str, outcome: Result<bool, String>) -> ! {
    match outcome {
        Ok(true) => std::process::exit(0),
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("{tool}: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_documents_pass() {
        assert!(require_identical("t", "x", "a\nb\n", "a\nb\n"));
        assert!(!require_identical("t", "x", "a\nb\n", "a\nc\n"));
    }

    #[test]
    fn golden_roundtrip_and_mismatch() {
        let dir = std::env::temp_dir().join("tengig-golden-test");
        let path = dir.join("g.jsonl");
        let path = path.to_str().unwrap();
        write_golden("t", path, "row\n").unwrap();
        assert!(require_golden("t", "doc", path, "regen", "row\n").unwrap());
        assert!(!require_golden("t", "doc", path, "regen", "other\n").unwrap());
        assert!(require_golden("t", "doc", "/nonexistent/g.jsonl", "regen", "x").is_err());
    }
}
