//! A dependency-free determinism linter for the tengig workspace.
//!
//! The simulation's headline guarantee is that every result is a pure
//! function of `(config, seed)` — byte-identical across machines, runs,
//! and sweep-runner thread counts. That guarantee is easy to break with
//! one careless import, so this crate walks the simulation crates'
//! sources and rejects the known footguns at CI time:
//!
//! * **wall-clock** — `std::time::Instant` / `SystemTime` read host time,
//!   which differs every run. The engine's virtual clock (`Nanos`) is the
//!   only time source.
//! * **unseeded-rng** — `thread_rng()`, `OsRng`, `from_entropy()` and
//!   friends draw from the OS entropy pool. All randomness must flow
//!   from `SimRng` with an explicit seed.
//! * **map-iteration** — `HashMap` / `HashSet` iterate in randomized
//!   order (std's hasher is seeded per process). Use `BTreeMap` /
//!   `BTreeSet` or index-keyed `Vec`s.
//! * **unwrap** — `.unwrap()` / `panic!` in the simulation hot paths
//!   (`crates/sim`, `crates/tcp`) abort without context. Use `expect()`
//!   with a message that says what invariant broke, or return an error.
//! * **float-event-loop** — `f32` / `f64` (or a float literal) in the
//!   engine's event loop (`crates/sim/src/engine.rs`), the calendar
//!   (`crates/sim/src/calendar.rs`), or the TCP timer
//!   machinery accumulates rounding error that differs across platforms;
//!   the event loop and the retransmission clock stay integer-only
//!   (`Nanos`). The TCP scope is *function extents*, not name matching:
//!   the declared timer entry points ([`TIMER_ENTRY_FNS`]) plus their
//!   dominator closure — any `crates/tcp` function whose every caller is
//!   already in the timer set. Window fractions and goodput math
//!   elsewhere in `crates/tcp` legitimately use `f64`.
//! * **lossy-cast** — a truncating `as` cast to an integer type inside
//!   the event-loop files (`engine.rs`, `calendar.rs`, `time.rs` in
//!   `crates/sim`) can silently wrap slot indices or nanosecond counts.
//!   Use `try_from`/`from` conversions, or justify with a comment plus
//!   `lint:allow(lossy-cast)`.
//! * **printf-debug** — `println!` / `eprintln!` (and `print!` /
//!   `eprint!`) in the simulation hot paths (`crates/sim`, `crates/tcp`,
//!   `crates/net`) outside an observability module (a file or inline
//!   `mod` named `obs`): ad-hoc printf debugging must not leak into the
//!   deterministic core — diagnostics flow through the tracer, the
//!   flight recorder, and the metrics timelines.
//! * **sweep-routing** — every public sweep entry point in
//!   `crates/core/src/experiments/` must route through `SweepRunner`, so
//!   parallelism and per-scenario seeding stay centralized.
//! * **taint** — the transitive pass: no declared hot-path root
//!   ([`taint::HOT_PATH_ROOTS`]) may *reach* a nondeterminism source
//!   (wall clocks, OS entropy, hash-order iteration, env/fs/thread-id
//!   reads) through any chain of workspace calls. A
//!   `// lint:trusted(reason)` comment on a function declares a reviewed
//!   boundary that taint does not cross.
//!
//! A per-line finding can be suppressed with `// lint:allow(rule-name)`
//! on the same line or the line above. The linter is pure `std` (no
//! `syn`, no `regex`): [`lex`](mod@lex) hand-rolls a total Rust lexer with exact
//! byte spans, [`parse`] recovers `fn`/`impl`/`mod` item boundaries,
//! [`callgraph`] extracts per-function call edges and source hits, and
//! [`taint`] propagates reachability over the result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod lex;
pub mod parse;
pub mod taint;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use callgraph::{extract, CallSite};
use lex::{lex, Lexed, MarkerKind, TokKind, Token};
use parse::{parse_items, FnItem};
use taint::FnNode;

/// Crates whose `src/` trees are subject to the determinism rules
/// (wall-clock, unseeded-rng, map-iteration) and contribute nodes to the
/// taint call graph. The vendored `proptest` shim and the `bench` and
/// `lint` tool crates are excluded: none of them runs inside a
/// simulation.
pub const DETERMINISM_CRATES: &[&str] = &[
    "sim", "hw", "ethernet", "nic", "tcp", "net", "tools", "core",
];

/// Crates whose `src/` trees must not contain `.unwrap()` / `panic!`
/// (the simulation hot paths).
pub const NO_UNWRAP_CRATES: &[&str] = &["sim", "tcp"];

/// Crates whose `src/` trees must stay print-free outside an `obs`
/// module. A superset of [`NO_UNWRAP_CRATES`]: the wire and impairment
/// models in `crates/net` execute inside every link event, so printf
/// debugging there is just as hot — but `net` keeps `expect()`-with-
/// context latitude that the innermost loops do not.
pub const NO_PRINT_CRATES: &[&str] = &["sim", "tcp", "net"];

/// The declared TCP timer entry points: the seed of the timer-float set.
/// The set then grows by dominator closure — a `crates/tcp` function
/// joins when every one of its callers (at least one) is already in the
/// set — so private helpers reachable only from the retransmission clock
/// are covered without any name heuristics.
pub const TIMER_ENTRY_FNS: &[&str] = &[
    "on_timer",
    "on_timer_into",
    "arm_rto",
    "backed_off_rto",
    "rtt_sample",
];

/// Every rule name the linter can emit (the tokens accepted by
/// `lint:allow(...)` and `--rule`).
pub const RULES: &[&str] = &[
    "wall-clock",
    "unseeded-rng",
    "map-iteration",
    "unwrap",
    "printf-debug",
    "float-event-loop",
    "lossy-cast",
    "sweep-routing",
    "taint",
];

/// Integer destination types of a lossy `as` cast.
const INT_CAST_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// One lint finding, rendered `file:line:col: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path of the offending file, relative to the linted root.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column of the offending token.
    pub column: usize,
    /// Rule name (the token accepted by `lint:allow(...)`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// For taint findings: the call chain from the hot-path root down to
    /// the nondeterminism source. Empty for per-line findings.
    pub chain: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.column,
            self.rule,
            self.message
        )
    }
}

/// The result of linting a tree.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, in (path, line, column, rule) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Hot-path roots found in the tree and proven source-free.
    pub roots_proven: Vec<String>,
    /// Declared roots not found in the tree (stale root list or rename).
    pub roots_missing: Vec<String>,
}

impl LintReport {
    /// Full machine-readable report: version, scan stats, the
    /// reachability proof, and every finding.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"version\": 1,\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!(
            "  \"roots_proven\": {},\n",
            json_string_array(&self.roots_proven)
        ));
        s.push_str(&format!(
            "  \"roots_missing\": {},\n",
            json_string_array(&self.roots_missing)
        ));
        s.push_str(&format!(
            "  \"findings\": {}\n",
            self.findings_json_value(2)
        ));
        s.push('}');
        s.push('\n');
        s
    }

    /// Canonical findings-only document, for diffing against the
    /// committed baseline (`goldens/lint_baseline.json`). Byte-stable for
    /// a given tree: file order, line order, and JSON shape are all
    /// deterministic.
    pub fn findings_json(&self) -> String {
        format!("{{\n  \"findings\": {}\n}}\n", self.findings_json_value(2))
    }

    fn findings_json_value(&self, indent: usize) -> String {
        if self.diagnostics.is_empty() {
            return "[]".to_string();
        }
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let rows: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "{inner}{{\"path\": {}, \"line\": {}, \"column\": {}, \"rule\": {}, \
                     \"message\": {}, \"chain\": {}}}",
                    json_string(&d.path.display().to_string()),
                    d.line,
                    d.column,
                    json_string(d.rule),
                    json_string(&d.message),
                    json_string_array(&d.chain),
                )
            })
            .collect();
        format!("[\n{}\n{pad}]", rows.join(",\n"))
    }
}

/// Escape a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a `["a", "b"]`-style JSON array of strings.
fn json_string_array(items: &[String]) -> String {
    let rows: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", rows.join(", "))
}

/// One scanned file with its lexed and parsed form, kept around for the
/// cross-file passes.
struct FileData {
    rel: PathBuf,
    krate: String,
    content: String,
    lexed: Lexed,
    items: Vec<FnItem>,
}

/// Lint the workspace rooted at `root` (the directory containing
/// `crates/`). Runs the per-line rules on every file, then the
/// cross-file passes (timer-float dominator closure, determinism taint)
/// over the whole call graph. Returns a report with deterministic
/// ordering.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    if !root.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a directory", root.display()),
        ));
    }
    let mut report = LintReport::default();
    let mut files: Vec<FileData> = Vec::new();

    for krate in DETERMINISM_CRATES {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            continue;
        }
        for file in rust_files(&src)? {
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            let content = fs::read_to_string(&file)?;
            let lexed = lex(&content);
            let stem = rel
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("")
                .to_string();
            let items = parse_items(&content, &lexed, &stem);
            report.files_scanned += 1;
            files.push(FileData {
                rel,
                krate: (*krate).to_string(),
                content,
                lexed,
                items,
            });
        }
    }

    // Per-file rules.
    for f in &files {
        report
            .diagnostics
            .extend(file_diags(&f.rel, &f.krate, &f.content, &f.lexed, &f.items));
    }

    // Cross-file passes share one call graph over all workspace functions.
    let mut nodes: Vec<FnNode> = Vec::new();
    let mut node_loc: Vec<(usize, usize)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for (ii, item) in f.items.iter().enumerate() {
            let (calls, hits) = extract(&f.content, &f.lexed.tokens, item, &f.items);
            nodes.push(FnNode {
                path: f.rel.clone(),
                crate_name: f.krate.clone(),
                item: item.clone(),
                calls,
                hits,
            });
            node_loc.push((fi, ii));
        }
    }
    let callers = taint::build_callers(&nodes);

    report
        .diagnostics
        .extend(check_timer_floats(&files, &nodes, &node_loc, &callers));

    let taint_out = taint::analyze(&nodes, &callers);
    report.diagnostics.extend(taint_out.findings);
    report.roots_proven = taint_out.roots_proven;
    report.roots_missing = taint_out.roots_missing;

    report.diagnostics.sort_by(|a, b| {
        (&a.path, a.line, a.column, a.rule).cmp(&(&b.path, b.line, b.column, b.rule))
    });
    Ok(report)
}

/// All `.rs` files under `dir`, recursively, in sorted (deterministic)
/// order.
pub fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint a single file's contents with the per-line rules and the
/// per-file sweep-routing check. The cross-file passes (timer-float
/// closure, taint) need the whole workspace and run only in
/// [`lint_workspace`]. `krate` is the crate directory name (used for
/// rule scoping); `rel` is the path reported in diagnostics.
pub fn lint_file(rel: &Path, krate: &str, content: &str) -> Vec<Diagnostic> {
    let lexed = lex(content);
    let stem = rel.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let items = parse_items(content, &lexed, stem);
    file_diags(rel, krate, content, &lexed, &items)
}

/// `lint:allow(rule)` markers as `(line, rule)` pairs.
fn allows_of(lexed: &Lexed) -> Vec<(usize, String)> {
    lexed
        .markers
        .iter()
        .filter_map(|m| match &m.kind {
            MarkerKind::Allow(rule) => Some((m.line, rule.clone())),
            MarkerKind::Trusted(_) => None,
        })
        .collect()
}

/// Is a finding of `rule` at `line` suppressed by an allow marker on the
/// same line or the line above?
fn allowed(allows: &[(usize, String)], rule: &str, line: usize) -> bool {
    allows
        .iter()
        .any(|(l, r)| r == rule && (*l == line || *l + 1 == line))
}

/// The per-line and per-file rules for one file.
fn file_diags(
    rel: &Path,
    krate: &str,
    content: &str,
    lexed: &Lexed,
    items: &[FnItem],
) -> Vec<Diagnostic> {
    let allows = allows_of(lexed);
    let toks = &lexed.tokens;
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut seen: BTreeSet<(usize, &'static str)> = BTreeSet::new();

    let fname = rel.file_name().and_then(|f| f.to_str()).unwrap_or("");
    let in_experiments = krate == "core"
        && rel.components().any(|c| c.as_os_str() == "experiments")
        && fname != "mod.rs";
    let is_event_loop = krate == "sim" && (fname == "engine.rs" || fname == "calendar.rs");
    let cast_scope = krate == "sim" && matches!(fname, "engine.rs" | "calendar.rs" | "time.rs");
    let no_unwrap = NO_UNWRAP_CRATES.contains(&krate);
    let no_print = NO_PRINT_CRATES.contains(&krate);

    let push = |diags: &mut Vec<Diagnostic>,
                seen: &mut BTreeSet<(usize, &'static str)>,
                tok: &Token,
                rule: &'static str,
                message: String| {
        if allowed(&allows, rule, tok.line) || !seen.insert((tok.line, rule)) {
            return;
        }
        diags.push(Diagnostic {
            path: rel.to_path_buf(),
            line: tok.line,
            column: tok.col,
            rule,
            message,
            chain: Vec::new(),
        });
    };

    for (k, t) in toks.iter().enumerate() {
        // Float literals are relevant even though they are not idents.
        if is_event_loop && t.kind == TokKind::Float {
            push(
                &mut diags,
                &mut seen,
                t,
                "float-event-loop",
                "float arithmetic in the event loop drifts across platforms; \
                 the calendar is integer nanoseconds only"
                    .to_string(),
            );
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let word = t.text(content);
        let next_adjacent =
            |c: char| k + 1 < toks.len() && toks[k + 1].is_punct(c) && toks[k + 1].start == t.end;

        match word {
            "Instant" | "SystemTime" => push(
                &mut diags,
                &mut seen,
                t,
                "wall-clock",
                "wall-clock time source breaks determinism; use the engine's \
                 virtual clock (Nanos)"
                    .to_string(),
            ),
            "thread_rng" | "ThreadRng" | "OsRng" | "from_entropy" => push(
                &mut diags,
                &mut seen,
                t,
                "unseeded-rng",
                "unseeded or external randomness; draw from SimRng with an \
                 explicit seed"
                    .to_string(),
            ),
            "rand" if next_adjacent(':') => push(
                &mut diags,
                &mut seen,
                t,
                "unseeded-rng",
                "unseeded or external randomness; draw from SimRng with an \
                 explicit seed"
                    .to_string(),
            ),
            "HashMap" | "HashSet" => push(
                &mut diags,
                &mut seen,
                t,
                "map-iteration",
                "hash-map iteration order is randomized per process; use \
                 BTreeMap/BTreeSet or an index-keyed Vec"
                    .to_string(),
            ),
            "unwrap"
                if no_unwrap
                    && k > 0
                    && toks[k - 1].is_punct('.')
                    && k + 1 < toks.len()
                    && toks[k + 1].is_punct('(') =>
            {
                push(
                    &mut diags,
                    &mut seen,
                    t,
                    "unwrap",
                    "unwrap()/panic! in a simulation hot path; use expect() with \
                     context or return an error"
                        .to_string(),
                )
            }
            "panic" if no_unwrap && next_adjacent('!') => push(
                &mut diags,
                &mut seen,
                t,
                "unwrap",
                "unwrap()/panic! in a simulation hot path; use expect() with \
                 context or return an error"
                    .to_string(),
            ),
            "println" | "eprintln" | "print" | "eprint"
                if no_print && next_adjacent('!') && !in_obs_module(items, k, fname) =>
            {
                push(
                    &mut diags,
                    &mut seen,
                    t,
                    "printf-debug",
                    "print macro in a simulation hot path; diagnostics go through \
                     the tracer / obs module, not stdout"
                        .to_string(),
                )
            }
            "f32" | "f64" if is_event_loop => push(
                &mut diags,
                &mut seen,
                t,
                "float-event-loop",
                "float arithmetic in the event loop drifts across platforms; \
                 the calendar is integer nanoseconds only"
                    .to_string(),
            ),
            "as" if cast_scope
                && k + 1 < toks.len()
                && toks[k + 1].kind == TokKind::Ident
                && INT_CAST_TARGETS.contains(&toks[k + 1].text(content)) =>
            {
                push(
                    &mut diags,
                    &mut seen,
                    t,
                    "lossy-cast",
                    format!(
                        "`as {}` silently truncates in an event-loop file; use \
                         try_from/from, or justify with a comment and \
                         lint:allow(lossy-cast)",
                        toks[k + 1].text(content)
                    ),
                )
            }
            _ => {}
        }
    }

    if in_experiments {
        diags.extend(check_sweep_routing(rel, content, lexed, items, &allows));
    }

    diags.sort_by(|a, b| (a.line, a.column, a.rule).cmp(&(b.line, b.column, b.rule)));
    diags
}

/// Is the token at index `k` inside an observability module? True when
/// the file itself is `obs.rs` or the enclosing function's module path
/// (file stem + inline `mod` names) contains `obs`.
fn in_obs_module(items: &[FnItem], k: usize, fname: &str) -> bool {
    if fname == "obs.rs" {
        return true;
    }
    // Innermost function whose body token range contains k.
    items
        .iter()
        .filter(|it| it.body.is_some_and(|(open, close)| k > open && k < close))
        .max_by_key(|it| it.tok_start)
        .is_some_and(|it| it.module.iter().any(|m| m == "obs"))
}

/// Every public sweep entry point (a `pub fn` whose name contains
/// `sweep` or `ladder`) must route through the deterministic runner:
/// its signature or body must mention `SweepRunner`, or it must call
/// another `*sweep*` function that does.
fn check_sweep_routing(
    rel: &Path,
    content: &str,
    lexed: &Lexed,
    items: &[FnItem],
    allows: &[(usize, String)],
) -> Vec<Diagnostic> {
    let toks = &lexed.tokens;
    let mut diags = Vec::new();
    for item in items {
        if !item.is_pub || !(item.name.contains("sweep") || item.name.contains("ladder")) {
            continue;
        }
        let span_end = item.body.map(|(_, close)| close).unwrap_or(item.tok_start);
        let mentions_runner = toks[item.tok_start..=span_end.min(toks.len() - 1)]
            .iter()
            .any(|t| t.is_ident(content, "SweepRunner"));
        let (calls, _) = extract(content, toks, item, items);
        let delegates = calls
            .iter()
            .any(|c: &CallSite| c.name.contains("sweep") && c.name != item.name);
        if mentions_runner || delegates || allowed(allows, "sweep-routing", item.line) {
            continue;
        }
        diags.push(Diagnostic {
            path: rel.to_path_buf(),
            line: item.line,
            column: toks[item.tok_start].col,
            rule: "sweep-routing",
            message: format!(
                "pub fn {} does not route through SweepRunner; all sweeps \
                 go through the deterministic runner",
                item.name
            ),
            chain: Vec::new(),
        });
    }
    diags
}

/// The timer-float pass: compute the timer set (declared entry points
/// plus dominator closure over `crates/tcp`) and flag any float type or
/// literal inside a member function's extent.
fn check_timer_floats(
    files: &[FileData],
    nodes: &[FnNode],
    node_loc: &[(usize, usize)],
    callers: &[Vec<usize>],
) -> Vec<Diagnostic> {
    let mut in_set: Vec<bool> = nodes
        .iter()
        .map(|n| n.crate_name == "tcp" && TIMER_ENTRY_FNS.contains(&n.item.name.as_str()))
        .collect();

    // Dominator closure: a tcp function with at least one caller, all of
    // whose callers are already timer functions, is itself part of the
    // retransmission clock — whatever its name.
    loop {
        let mut changed = false;
        for (id, node) in nodes.iter().enumerate() {
            if in_set[id] || node.crate_name != "tcp" {
                continue;
            }
            let cs = &callers[id];
            if !cs.is_empty() && cs.iter().all(|&c| in_set[c]) {
                in_set[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut diags = Vec::new();
    for (id, node) in nodes.iter().enumerate() {
        if !in_set[id] {
            continue;
        }
        let Some((_, close)) = node.item.body else {
            continue;
        };
        let (fi, _) = node_loc[id];
        let f = &files[fi];
        let toks = &f.lexed.tokens;
        let allows = allows_of(&f.lexed);
        // Skip tokens belonging to items nested inside this function —
        // they are graph nodes of their own.
        let nested: Vec<(usize, usize)> = f
            .items
            .iter()
            .filter(|it| it.tok_start > node.item.tok_start && it.tok_start < close)
            .map(|it| {
                (
                    it.tok_start,
                    it.body.map(|(_, c)| c).unwrap_or(it.tok_start),
                )
            })
            .collect();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let end = close.min(toks.len() - 1);
        for (k, &t) in toks
            .iter()
            .enumerate()
            .take(end + 1)
            .skip(node.item.tok_start)
        {
            if nested.iter().any(|&(s, e)| k >= s && k <= e) {
                continue;
            }
            let is_float = t.kind == TokKind::Float
                || (t.kind == TokKind::Ident && matches!(t.text(&f.content), "f32" | "f64"));
            if !is_float || allowed(&allows, "float-event-loop", t.line) || !seen.insert(t.line) {
                continue;
            }
            diags.push(Diagnostic {
                path: f.rel.clone(),
                line: t.line,
                column: t.col,
                rule: "float-event-loop",
                message: format!(
                    "float arithmetic in timer entry point `{}`; the \
                     retransmission clock is integer nanoseconds only",
                    node.item.name
                ),
                chain: Vec::new(),
            });
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_rule_scopes_to_hot_path_crates() {
        let code = "pub fn f(v: &[u8]) -> u8 { *v.first().unwrap() }\n";
        let sim = lint_file(Path::new("crates/sim/src/x.rs"), "sim", code);
        assert_eq!(sim.len(), 1);
        assert_eq!(sim[0].rule, "unwrap");
        let core = lint_file(Path::new("crates/core/src/x.rs"), "core", code);
        assert!(
            core.is_empty(),
            "unwrap is allowed outside sim/tcp: {core:?}"
        );
    }

    #[test]
    fn allow_on_preceding_line_suppresses() {
        let code = "// lint:allow(unwrap)\npub fn f(v: &[u8]) -> u8 { *v.first().unwrap() }\n";
        let d = lint_file(Path::new("crates/sim/src/x.rs"), "sim", code);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn banned_tokens_in_comments_and_strings_do_not_fire() {
        let code = "// Instant::now() HashMap\nfn f() { let s = \"SystemTime\"; }\n";
        let d = lint_file(Path::new("crates/sim/src/x.rs"), "sim", code);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn columns_point_at_the_offending_token() {
        let code = "fn f() { let t = Instant::now(); }\n";
        let d = lint_file(Path::new("crates/sim/src/x.rs"), "sim", code);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        assert_eq!(d[0].column, 18);
        let s = d[0].to_string();
        assert!(s.contains("x.rs:1:18: [wall-clock]"), "{s}");
    }

    #[test]
    fn float_rule_fires_in_the_event_loop_files_only() {
        let code = "pub struct S { t: f64 }\nconst K: u64 = 1;\nfn f() -> u64 { 2 }\n";
        let d = lint_file(Path::new("crates/sim/src/engine.rs"), "sim", code);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "float-event-loop");
        let d = lint_file(Path::new("crates/sim/src/calendar.rs"), "sim", code);
        assert_eq!(d.len(), 1, "the calendar is float-banned too: {d:?}");
        let d = lint_file(Path::new("crates/sim/src/stats.rs"), "sim", code);
        assert!(d.is_empty(), "floats are fine outside the calendar: {d:?}");
    }

    #[test]
    fn float_literals_count_as_floats_in_the_event_loop() {
        let code = "fn f() -> u64 { let x = 0.875; 1 }\n";
        let d = lint_file(Path::new("crates/sim/src/engine.rs"), "sim", code);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "float-event-loop");
    }

    #[test]
    fn lossy_cast_fires_on_int_targets_in_event_loop_files() {
        let code = "fn f(x: u64) -> usize { x as usize }\n";
        for file in ["engine.rs", "calendar.rs", "time.rs"] {
            let d = lint_file(Path::new(&format!("crates/sim/src/{file}")), "sim", code);
            assert!(d.iter().any(|x| x.rule == "lossy-cast"), "{file}: {d:?}");
        }
        // Not in scope: other sim files, other crates, float targets.
        let d = lint_file(Path::new("crates/sim/src/stats.rs"), "sim", code);
        assert!(d.is_empty(), "{d:?}");
        let float = "fn f(x: u64) -> f64 { x as f64 }\n";
        let d = lint_file(Path::new("crates/sim/src/time.rs"), "sim", float);
        assert!(
            d.is_empty(),
            "float-destination casts are not lossy-cast: {d:?}"
        );
    }

    #[test]
    fn lossy_cast_respects_allow_with_justification() {
        let code = "fn f(x: u64) -> usize {\n    // bounded by the wheel mask\n    \
                    x as usize // lint:allow(lossy-cast)\n}\n";
        let d = lint_file(Path::new("crates/sim/src/calendar.rs"), "sim", code);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn printf_exemption_is_module_scoped_not_file_named() {
        // An inline `mod obs` exempts its functions; code outside it in
        // the same file still fires.
        let code = "pub mod obs {\n    pub fn dump() { println!(\"ok\"); }\n}\n\
                    pub fn stray() { println!(\"bad\"); }\n";
        let d = lint_file(Path::new("crates/net/src/telemetry.rs"), "net", code);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "printf-debug");
        assert_eq!(d[0].line, 4);
        // A file named obs.rs is exempt wholesale.
        let d = lint_file(Path::new("crates/net/src/obs.rs"), "net", code);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn sweep_routing_flags_unrouted_pub_fns() {
        let bad = "pub fn buffer_sweep(xs: &[u64]) -> Vec<u64> {\n    xs.to_vec()\n}\n";
        let d = lint_file(Path::new("crates/core/src/experiments/x.rs"), "core", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "sweep-routing");
        assert_eq!(d[0].line, 1);

        let routed = "pub fn buffer_sweep(r: SweepRunner) -> Vec<u64> { vec![] }\n";
        let d = lint_file(
            Path::new("crates/core/src/experiments/x.rs"),
            "core",
            routed,
        );
        assert!(d.is_empty(), "{d:?}");

        let delegating =
            "pub fn ladder(xs: &[u64]) -> Vec<u64> {\n    buffer_sweep_report(xs)\n}\n";
        let d = lint_file(
            Path::new("crates/core/src/experiments/x.rs"),
            "core",
            delegating,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn sweep_routing_ignores_mod_rs_and_other_crates() {
        let bad = "pub fn buffer_sweep(xs: &[u64]) -> Vec<u64> { xs.to_vec() }\n";
        let d = lint_file(Path::new("crates/core/src/experiments/mod.rs"), "core", bad);
        assert!(d.is_empty());
        let d = lint_file(Path::new("crates/core/src/lab/mod.rs"), "core", bad);
        assert!(d.is_empty());
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(
            json_string_array(&["x".to_string(), "y\"z".to_string()]),
            "[\"x\", \"y\\\"z\"]"
        );
    }

    #[test]
    fn findings_json_shape_is_stable() {
        let mut report = LintReport::default();
        assert_eq!(report.findings_json(), "{\n  \"findings\": []\n}\n");
        report.diagnostics.push(Diagnostic {
            path: PathBuf::from("crates/sim/src/x.rs"),
            line: 3,
            column: 7,
            rule: "wall-clock",
            message: "msg".to_string(),
            chain: vec!["a".to_string(), "b".to_string()],
        });
        let j = report.findings_json();
        assert!(j.contains("\"path\": \"crates/sim/src/x.rs\""), "{j}");
        assert!(j.contains("\"line\": 3"), "{j}");
        assert!(j.contains("\"chain\": [\"a\", \"b\"]"), "{j}");
    }
}
