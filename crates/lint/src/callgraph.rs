//! Call-site and nondeterminism-source extraction from function bodies.
//!
//! For each parsed [`FnItem`] this module walks the
//! body's token range and records two things: every call that could be an
//! edge in the workspace call graph, and every direct appearance of a
//! nondeterminism source (wall clocks, OS entropy, hash-order iteration,
//! env/fs/thread-identity reads). The taint pass combines the two.
//!
//! Call resolution is name-based — this is a linter, not a compiler — so
//! the edges are an over-approximation: a method call `.run(` matches
//! every workspace method named `run`. Over-approximation is the safe
//! direction for a reachability proof (it can only produce false
//! positives, never miss a real path); the `lint:trusted` escape hatch
//! exists for the false positives a human has reviewed.

use crate::lex::{TokKind, Token};
use crate::parse::FnItem;

/// How a call site was written, which constrains how it resolves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)` — resolves against free functions.
    Free,
    /// `recv.name(...)` — resolves against methods of any type.
    Method,
    /// `Qual::name(...)` — resolves against `Qual`'s methods; falls back
    /// to free functions when `Qual` is a path keyword or module name.
    Qualified(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// How the call was written.
    pub kind: CallKind,
    /// The called name.
    pub name: String,
    /// 1-based line of the call.
    pub line: usize,
}

/// One direct nondeterminism source appearing in a function body.
#[derive(Debug, Clone)]
pub struct SourceHit {
    /// Human-readable description of the source (`Instant::now`,
    /// `HashMap`, `thread::current`, …).
    pub what: String,
    /// 1-based line of the appearance.
    pub line: usize,
}

/// Type identifiers whose mere appearance marks a source: constructors
/// and types that carry wall-clock or hash-order nondeterminism.
const SOURCE_TYPES: &[&str] = &[
    "Instant",
    "SystemTime",
    "HashMap",
    "HashSet",
    "RandomState",
    "OsRng",
    "ThreadRng",
];

/// Function names that are sources wherever they appear, however called.
const SOURCE_FNS: &[&str] = &["thread_rng", "from_entropy", "getrandom", "random"];

/// `qual::name` pairs that are sources only in qualified position —
/// `var` alone is a common local name; `env::var` is an environment read.
const SOURCE_QUALIFIED: &[(&str, &str)] = &[
    ("env", "var"),
    ("env", "var_os"),
    ("env", "vars"),
    ("env", "vars_os"),
    ("thread", "current"),
    ("thread", "available_parallelism"),
];

/// Module quals that are wholesale sources: any `fs::…` is a filesystem
/// read and any `rand::…` is the RNG crate's ambient entropy surface.
const SOURCE_QUALS: &[&str] = &["fs", "rand"];

/// Extract the call sites and source hits from `item`'s body. Bodies of
/// functions nested inside `item` are excluded — they are items of their
/// own and get their own row in the call graph.
pub fn extract(
    src: &str,
    toks: &[Token],
    item: &FnItem,
    all: &[FnItem],
) -> (Vec<CallSite>, Vec<SourceHit>) {
    let Some((open, close)) = item.body else {
        return (Vec::new(), Vec::new());
    };

    // Token ranges of nested fn bodies, to skip.
    let nested: Vec<(usize, usize)> = all
        .iter()
        .filter(|f| f.tok_start > open && f.tok_start < close)
        .filter_map(|f| f.body)
        .collect();
    let in_nested = |k: usize| nested.iter().any(|&(o, c)| k > o && k < c);

    let mut calls = Vec::new();
    let mut hits = Vec::new();

    let mut k = open + 1;
    while k < close {
        if in_nested(k) {
            k += 1;
            continue;
        }
        let t = toks[k];
        if t.kind != TokKind::Ident {
            k += 1;
            continue;
        }
        let word = t.text(src);

        // Source hits by identifier class.
        if SOURCE_TYPES.contains(&word) {
            hits.push(SourceHit {
                what: word.to_string(),
                line: t.line,
            });
        } else if SOURCE_FNS.contains(&word) {
            hits.push(SourceHit {
                what: format!("{word}()"),
                line: t.line,
            });
        } else if let Some(q) = qualifier(src, toks, k) {
            if SOURCE_QUALIFIED
                .iter()
                .any(|&(sq, sn)| sq == q && sn == word)
                || SOURCE_QUALS.contains(&q)
            {
                hits.push(SourceHit {
                    what: format!("{q}::{word}"),
                    line: t.line,
                });
            }
        }

        // Call sites: Ident immediately followed by `(`; macros are
        // `Ident !` and thus excluded here.
        if k + 1 < close && toks[k + 1].is_punct('(') {
            let kind = if is_path_sep(toks, k.saturating_sub(2), k) {
                match qualifier(src, toks, k) {
                    Some(q) => CallKind::Qualified(q.to_string()),
                    None => CallKind::Free,
                }
            } else if k > 0 && toks[k - 1].is_punct('.') {
                CallKind::Method
            } else if k > 0 && toks[k - 1].kind == TokKind::Ident && toks[k - 1].text(src) == "fn" {
                // `fn name(` of a nested item header — not a call.
                k += 1;
                continue;
            } else {
                CallKind::Free
            };
            calls.push(CallSite {
                kind,
                name: word.to_string(),
                line: t.line,
            });
        }

        k += 1;
    }

    (calls, hits)
}

/// Is the token pair at (`a`, `a+1`) a `::` immediately preceding token
/// `at`? (i.e. `toks[at]` is the right side of a path segment.)
fn is_path_sep(toks: &[Token], a: usize, at: usize) -> bool {
    at >= 2
        && toks[a].is_punct(':')
        && toks[a + 1].is_punct(':')
        && toks[a].end == toks[a + 1].start
        && toks[a + 1].end == toks[at].start
}

/// The identifier immediately left of `::` when `toks[at]` is the right
/// side of a path segment: for `env::var`, `qualifier` of `var` is `env`.
fn qualifier<'a>(src: &'a str, toks: &[Token], at: usize) -> Option<&'a str> {
    if at >= 3 && is_path_sep(toks, at - 2, at) && toks[at - 3].kind == TokKind::Ident {
        Some(toks[at - 3].text(src))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::parse::parse_items;

    fn one(src: &str) -> (Vec<CallSite>, Vec<SourceHit>) {
        let lexed = lex(src);
        let items = parse_items(src, &lexed, "test");
        extract(src, &lexed.tokens, &items[0], &items)
    }

    #[test]
    fn free_method_and_qualified_calls_are_classified() {
        let (calls, _) = one("fn f() { helper(); self.step(); Engine::run(e); }");
        assert_eq!(calls.len(), 3);
        assert_eq!(calls[0].kind, CallKind::Free);
        assert_eq!(calls[0].name, "helper");
        assert_eq!(calls[1].kind, CallKind::Method);
        assert_eq!(calls[1].name, "step");
        assert_eq!(calls[2].kind, CallKind::Qualified("Engine".to_string()));
        assert_eq!(calls[2].name, "run");
    }

    #[test]
    fn macros_are_not_calls() {
        let (calls, _) = one("fn f() { println!(\"x\"); assert_eq!(1, 1); real(); }");
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn source_types_and_qualified_sources_are_hit() {
        let (_, hits) = one(
            "fn f() { let t = Instant::now(); let m: HashMap<u32, u32>; \
             let v = env::var(\"X\"); let id = thread::current(); }",
        );
        let whats: Vec<&str> = hits.iter().map(|h| h.what.as_str()).collect();
        assert!(whats.contains(&"Instant"));
        assert!(whats.contains(&"HashMap"));
        assert!(whats.contains(&"env::var"));
        assert!(whats.contains(&"thread::current"));
    }

    #[test]
    fn bare_var_is_not_a_source() {
        let (_, hits) = one("fn f() { let var = 1; current(); vars.push(2); }");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn fs_and_rand_quals_are_wholesale_sources() {
        let (_, hits) = one("fn f() { fs::read(\"p\"); rand::rngs::thing(); }");
        let whats: Vec<&str> = hits.iter().map(|h| h.what.as_str()).collect();
        assert!(whats.contains(&"fs::read"));
        assert!(whats.contains(&"rand::rngs"));
    }

    #[test]
    fn strings_and_comments_never_hit() {
        let (_, hits) = one("fn f() { let s = \"Instant HashMap\"; /* SystemTime */ let x = 1; }");
        assert!(hits.is_empty());
    }

    #[test]
    fn nested_fn_bodies_are_excluded_from_the_outer_fn() {
        let src = "fn outer() { fn inner() { thread_rng(); } inner(); }";
        let lexed = lex(src);
        let items = parse_items(src, &lexed, "test");
        let (calls, hits) = extract(src, &lexed.tokens, &items[0], &items);
        assert!(hits.is_empty(), "inner body's source must not leak out");
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["inner"]);
        let (_, inner_hits) = extract(src, &lexed.tokens, &items[1], &items);
        assert_eq!(inner_hits.len(), 1);
    }

    #[test]
    fn crate_qualified_calls_keep_their_qual() {
        let (calls, _) = one("fn f() { crate::util::go(); self::go2(); }");
        assert_eq!(calls[0].kind, CallKind::Qualified("util".to_string()));
        assert_eq!(calls[1].kind, CallKind::Qualified("self".to_string()));
    }
}
