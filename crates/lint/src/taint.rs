//! Determinism taint propagation over the workspace call graph.
//!
//! The lattice has two points — clean and tainted — and taint flows
//! *backwards*: a function is tainted if its body touches a
//! nondeterminism source directly, or if any call it makes can resolve to
//! a tainted function. A `lint:trusted(reason)` marker on a function is a
//! reviewed boundary: that function never becomes tainted, neither from
//! its own body nor from its callees, so taint cannot cross it.
//!
//! The pass then checks every declared hot-path root (the event loop, the
//! calendar, the TCP entry points, the link-layer transmit paths, the
//! sweep workers). A tainted root is a CI failure, reported with the full
//! call chain down to the source; a clean root is recorded in
//! `roots_proven` so the proof is visible in the JSON output.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;

use crate::callgraph::{CallKind, CallSite, SourceHit};
use crate::parse::FnItem;
use crate::Diagnostic;

/// The hot-path roots whose cleanliness the build guarantees: every
/// function that runs per-event, per-segment, or per-frame during a
/// sweep. Qualified names, matched against `Type::method` exactly.
pub const HOT_PATH_ROOTS: &[&str] = &[
    // Event loop, and the lab's event dispatch (which also feeds the
    // flight recorder).
    "Engine::run",
    "Engine::run_until",
    "Engine::run_before",
    "Engine::advance_to",
    "Engine::step",
    "Ev::fire",
    // Calendar queue.
    "Calendar::schedule",
    "Calendar::rearm",
    "Calendar::schedule_front",
    "Calendar::cancel",
    "Calendar::peek_time",
    "Calendar::pop",
    "Calendar::advance_now_to",
    // TCP segment/timer/app entry points.
    "TcpConn::on_segment",
    "TcpConn::on_segment_into",
    "TcpConn::on_timer",
    "TcpConn::on_timer_into",
    "TcpConn::on_app_write",
    "TcpConn::on_app_write_into",
    "TcpConn::on_app_read",
    "TcpConn::on_app_read_into",
    // Link-layer transmit paths.
    "PathState::carry",
    "HopState::offer_verdict",
    "PathState::send",
    "PathState::send_verdict",
    // Sweep workers.
    "SweepRunner::run",
    // Sharded-execution merge loop and the keyed arrival path (window
    // computation, barrier rounds, canonical-key minting for local and
    // cross-shard arrivals): nondeterminism here would break the grid
    // byte-identity contract across shard counts, not just across runs.
    "run_sharded",
    "GridShard::run_window",
    "GridShard::accept",
    "route_arrival",
    // The wall-time profiling variant of the merge loop: it may touch
    // the host clock only through the single `lint:trusted(profiling
    // boundary)` read (`wall_now_ns`), so the root must still prove
    // clean — any other clock read inside the accounting is a failure.
    "run_sharded_wall",
    // Open-loop workload plane: the arrival-schedule builder consumes
    // the forked RNG stream flow by flow (a stray entropy or clock read
    // would shift every arrival after it), and FCT recording runs once
    // per flow completion inside the measurement path.
    "build_schedule",
    "FctStats::record",
];

/// One function in the workspace call graph: its parsed item plus the
/// call sites and source hits extracted from its body.
#[derive(Debug)]
pub struct FnNode {
    /// Path of the file the function lives in, relative to the root.
    pub path: PathBuf,
    /// Workspace crate the file belongs to (`sim`, `tcp`, …).
    pub crate_name: String,
    /// The parsed item.
    pub item: FnItem,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Direct nondeterminism sources in the body.
    pub hits: Vec<SourceHit>,
}

/// The result of the taint pass.
#[derive(Debug, Default)]
pub struct TaintOutcome {
    /// One finding per tainted hot-path root (plus marker hygiene
    /// findings such as an empty `lint:trusted` reason).
    pub findings: Vec<Diagnostic>,
    /// Qualified names of roots found in the tree and proven clean.
    pub roots_proven: Vec<String>,
    /// Qualified names of declared roots not found in the tree (a root
    /// list typo, or a rename the list hasn't caught up with).
    pub roots_missing: Vec<String>,
}

/// Why a function is tainted: either a direct source, or the first hop
/// of a path toward one.
#[derive(Clone)]
enum Cause {
    Direct(String),
    Via(usize),
}

/// Build the reverse call graph: `callers_of[id]` lists every node with
/// a call site resolving to node `id`. Resolution is name-based and
/// over-approximate (see the module docs of [`crate::callgraph`]).
pub fn build_callers(nodes: &[FnNode]) -> Vec<Vec<usize>> {
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_qname: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, node) in nodes.iter().enumerate() {
        by_qname.entry(&node.item.qname).or_default().push(id);
        if node.item.qname.contains("::") {
            methods_by_name.entry(&node.item.name).or_default().push(id);
        } else {
            free_by_name.entry(&node.item.name).or_default().push(id);
        }
    }

    let resolve = |call: &CallSite| -> Vec<usize> {
        match &call.kind {
            CallKind::Free => free_by_name
                .get(call.name.as_str())
                .cloned()
                .unwrap_or_default(),
            CallKind::Method => methods_by_name
                .get(call.name.as_str())
                .cloned()
                .unwrap_or_default(),
            CallKind::Qualified(q) => {
                let qn = format!("{q}::{}", call.name);
                let direct = by_qname.get(qn.as_str()).cloned().unwrap_or_default();
                if !direct.is_empty() {
                    return direct;
                }
                // `crate::helper(...)`, `self::helper(...)`, or a module
                // path like `util::helper(...)`: resolve as a free fn.
                let modlike = matches!(q.as_str(), "crate" | "self" | "super")
                    || q.chars().next().is_some_and(|c| c.is_lowercase());
                if modlike {
                    free_by_name
                        .get(call.name.as_str())
                        .cloned()
                        .unwrap_or_default()
                } else {
                    Vec::new()
                }
            }
        }
    };

    let mut callers_of: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (caller, node) in nodes.iter().enumerate() {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        for call in &node.calls {
            for callee in resolve(call) {
                if callee != caller && seen.insert(callee) {
                    callers_of[callee].push(caller);
                }
            }
        }
    }
    callers_of
}

/// Run the taint pass over all workspace function nodes. `callers_of`
/// is the reverse call graph from [`build_callers`].
pub fn analyze(nodes: &[FnNode], callers_of: &[Vec<usize>]) -> TaintOutcome {
    let mut out = TaintOutcome::default();

    // Marker hygiene: a trusted boundary with no reason is unreviewable.
    for node in nodes {
        if let Some(reason) = &node.item.trusted {
            if reason.is_empty() {
                out.findings.push(Diagnostic {
                    path: node.path.clone(),
                    line: node.item.line,
                    column: 1,
                    rule: "taint",
                    message: format!(
                        "lint:trusted on `{}` has an empty reason; state what was reviewed",
                        node.item.qname
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }

    // Root lookup needs qualified names.
    let mut by_qname: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, node) in nodes.iter().enumerate() {
        by_qname.entry(&node.item.qname).or_default().push(id);
    }

    // Seed: directly tainted functions (untrusted, body touches a source).
    let mut cause: Vec<Option<Cause>> = vec![None; nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (id, node) in nodes.iter().enumerate() {
        if node.item.trusted.is_some() {
            continue;
        }
        if let Some(hit) = node.hits.first() {
            cause[id] = Some(Cause::Direct(hit.what.clone()));
            queue.push_back(id);
        }
    }

    // Reverse BFS: taint flows to callers, stopping at trusted nodes.
    while let Some(id) = queue.pop_front() {
        for &caller in &callers_of[id] {
            if cause[caller].is_some() || nodes[caller].item.trusted.is_some() {
                continue;
            }
            cause[caller] = Some(Cause::Via(id));
            queue.push_back(caller);
        }
    }

    // Check every declared root.
    for &root in HOT_PATH_ROOTS {
        let ids = by_qname.get(root).cloned().unwrap_or_default();
        if ids.is_empty() {
            out.roots_missing.push(root.to_string());
            continue;
        }
        let mut clean = true;
        for id in ids {
            if cause[id].is_none() {
                continue;
            }
            clean = false;
            let chain = chain_for(nodes, &cause, id);
            let node = &nodes[id];
            out.findings.push(Diagnostic {
                path: node.path.clone(),
                line: node.item.line,
                column: 1,
                rule: "taint",
                message: format!(
                    "hot-path root `{root}` can reach a nondeterminism source: {}",
                    chain.join(" -> ")
                ),
                chain,
            });
        }
        if clean {
            out.roots_proven.push(root.to_string());
        }
    }

    out
}

/// Reconstruct the call chain from a tainted function down to its source.
fn chain_for(nodes: &[FnNode], cause: &[Option<Cause>], start: usize) -> Vec<String> {
    let mut chain = vec![nodes[start].item.qname.clone()];
    let mut cur = start;
    let mut guard = 0usize;
    loop {
        match &cause[cur] {
            Some(Cause::Via(next)) => {
                chain.push(nodes[*next].item.qname.clone());
                cur = *next;
            }
            Some(Cause::Direct(what)) => {
                chain.push(what.clone());
                break;
            }
            None => break,
        }
        guard += 1;
        if guard > nodes.len() + 1 {
            break; // cycle safety; causes form a DAG, but stay total
        }
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::extract;
    use crate::lex::lex;
    use crate::parse::parse_items;

    fn nodes_from(files: &[(&str, &str, &str)]) -> Vec<FnNode> {
        // (crate, stem, src)
        let mut nodes = Vec::new();
        for (krate, stem, src) in files {
            let lexed = lex(src);
            let items = parse_items(src, &lexed, stem);
            for item in &items {
                let (calls, hits) = extract(src, &lexed.tokens, item, &items);
                nodes.push(FnNode {
                    path: PathBuf::from(format!("crates/{krate}/src/{stem}.rs")),
                    crate_name: (*krate).to_string(),
                    item: item.clone(),
                    calls,
                    hits,
                });
            }
        }
        nodes
    }

    fn run(nodes: &[FnNode]) -> TaintOutcome {
        analyze(nodes, &build_callers(nodes))
    }

    #[test]
    fn two_layer_taint_reaches_a_root_across_crates() {
        let nodes = nodes_from(&[
            (
                "tcp",
                "conn",
                "impl TcpConn { pub fn on_segment(&mut self) { shard_hint(); } }\n\
                 fn shard_hint() -> u64 { thread_tag() }",
            ),
            (
                "hw",
                "clocked",
                "pub fn thread_tag() -> u64 { thread::current(); 0 }",
            ),
        ]);
        let out = run(&nodes);
        assert_eq!(out.findings.len(), 1);
        let f = &out.findings[0];
        assert_eq!(f.rule, "taint");
        assert_eq!(
            f.chain,
            vec![
                "TcpConn::on_segment",
                "shard_hint",
                "thread_tag",
                "thread::current"
            ]
        );
        assert!(!out
            .roots_proven
            .contains(&"TcpConn::on_segment".to_string()));
    }

    #[test]
    fn trusted_boundary_cuts_propagation() {
        let nodes = nodes_from(&[(
            "core",
            "sweep",
            "impl SweepRunner { pub fn run(&self) { pool_size(); } }\n\
             // lint:trusted(pool sizing only, order restored downstream)\n\
             fn pool_size() -> usize { thread::available_parallelism(); 1 }",
        )]);
        let out = run(&nodes);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert!(out.roots_proven.contains(&"SweepRunner::run".to_string()));
    }

    #[test]
    fn empty_trusted_reason_is_a_finding() {
        let nodes = nodes_from(&[(
            "sim",
            "util",
            "// lint:trusted()\nfn q() { thread::current(); }",
        )]);
        let out = run(&nodes);
        assert_eq!(out.findings.len(), 1);
        assert!(out.findings[0].message.contains("empty reason"));
    }

    #[test]
    fn missing_roots_are_reported_not_silently_proven() {
        let out = run(&nodes_from(&[("sim", "x", "fn unrelated() {}")]));
        assert!(out.roots_proven.is_empty());
        assert_eq!(out.roots_missing.len(), HOT_PATH_ROOTS.len());
    }

    #[test]
    fn method_calls_over_approximate_across_types() {
        // `.helper()` resolves to every method named helper — including a
        // tainted one on another type. Over-approximation keeps the proof
        // sound.
        let nodes = nodes_from(&[(
            "sim",
            "engine",
            "impl Engine { pub fn run(&mut self) { self.helper(); } }\n\
             impl Other { fn helper(&self) { Instant::now(); } }",
        )]);
        let out = run(&nodes);
        assert_eq!(out.findings.len(), 1);
        assert!(out.findings[0].chain.contains(&"Other::helper".to_string()));
    }

    #[test]
    fn recursion_terminates() {
        let nodes = nodes_from(&[(
            "sim",
            "engine",
            "impl Engine { pub fn step(&mut self) { self.step(); tick(); } }\n\
             fn tick() { tock() }\nfn tock() { tick() }",
        )]);
        let out = run(&nodes);
        assert!(out.findings.is_empty());
        assert!(out.roots_proven.contains(&"Engine::step".to_string()));
    }
}
