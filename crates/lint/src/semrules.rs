//! Semantic rules over the workspace call graph.
//!
//! Four cross-function invariants, each encoding a contract an earlier PR
//! established by hand:
//!
//! * [`SERVING_PANIC`] — nothing reachable from a serving entry point
//!   (`try_estimate*`, HTTP handlers, WAL recovery, replication session
//!   loops) may `unwrap`/`expect`/`panic!`/`assert!` or index without
//!   `get`; a panic there is a query-pipeline outage. Diagnostics carry a
//!   witness path (`route_request -> handle_estimate -> parse_body`).
//!   Sites under an `allow(serving-panic-reachability)` pragma are
//!   documented invariant aborts and are exempt.
//! * [`LOCK_DISCIPLINE`] — per-function lock-acquisition summaries are
//!   propagated over call edges to catch inconsistent lock-order pairs
//!   (potential deadlock) and guards held across blocking operations
//!   (`join`, `send`/`recv`, socket I/O, `Condvar::wait` on a *different*
//!   lock's guard).
//! * [`DURABILITY`] — in `crates/store`, a function that writes durable
//!   files and returns `Result` must reach `sync_data`/`sync_all` or an
//!   atomic rename (directly or through a callee) before it can return an
//!   ack-carrying `Ok`.
//! * [`ERROR_TAXONOMY`] — serving-reachable functions return typed errors
//!   (no `Result<_, String>`, no `Box<dyn Error>`), and library targets
//!   never `process::exit` or print to stdout/stderr (bins are exempt).
//!
//! ## Known false-negative edges
//!
//! Name resolution is heuristic (no type inference). Locks are identified
//! by field name (`SelfTy.field` through `self`, bare field name through a
//! local), so the same lock reached through differently-named locals
//! unifies while two same-named fields on different types may alias.
//! Blocking socket I/O is recognized only when the receiver is named like
//! a stream (`stream`/`sock`/`conn`/`tcp`). Fact propagation stops at
//! call sites with more than [`FANOUT_CAP`] candidate targets, and — for
//! method-style calls, whose receiver type is unknown — at crate
//! boundaries, so one ambiguous method name cannot smear a fact across
//! the workspace. Reachability (which only widens a search) has neither
//! restriction.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{call_args_span, CallSite, CallStyle, Graph, SourceFile};
use crate::lexer::{Tok, TokKind};
use crate::parser::{brace_match, is_punct, paren_match};
use crate::rules::Diagnostic;

pub const SERVING_PANIC: &str = "serving-panic-reachability";
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
pub const DURABILITY: &str = "durability-protocol";
pub const ERROR_TAXONOMY: &str = "error-taxonomy";

/// `(id, summary)` for every semantic rule, mirroring the lexical
/// registry for `--list-rules` and the fixture agreement test.
pub fn semantic_registry() -> [(&'static str, &'static str); 4] {
    [
        (
            SERVING_PANIC,
            "no unwrap/expect/panic/assert/indexing reachable from serving entry points",
        ),
        (
            LOCK_DISCIPLINE,
            "consistent lock acquisition order; no guard held across blocking calls",
        ),
        (
            DURABILITY,
            "store writes must reach sync_data/sync_all or an atomic rename before Ok",
        ),
        (
            ERROR_TAXONOMY,
            "serving paths return typed errors; no stringly errors, exit(), or prints in libs",
        ),
    ]
}

pub fn is_semantic_rule(id: &str) -> bool {
    semantic_registry().iter().any(|(r, _)| *r == id)
}

/// Calls with more candidate targets than this do not propagate lock /
/// blocking / sync facts (reachability is exempt — see module docs).
const FANOUT_CAP: usize = 4;

/// Runs all semantic rules over the graph. Diagnostics are *not* yet
/// pragma-suppressed (the engine applies `allow` pragmas afterwards),
/// except for panic sites under `allow(serving-panic-reachability)`,
/// which are documented invariant aborts and never enter the
/// reachability rule at all.
pub fn check(graph: &Graph) -> Vec<Diagnostic> {
    let facts: Vec<Facts> = (0..graph.nodes.len())
        .map(|n| extract_facts(graph, n))
        .collect();
    let mut summaries: Vec<Option<Summary>> = vec![None; graph.nodes.len()];
    let mut on_stack = vec![false; graph.nodes.len()];
    for n in 0..graph.nodes.len() {
        summarize(graph, &facts, n, &mut summaries, &mut on_stack);
    }

    let entries: Vec<usize> = (0..graph.nodes.len())
        .filter(|&n| is_serving_entry(graph, n))
        .collect();
    let reach = graph.reachable_from(&entries);

    let mut diags = Vec::new();
    check_serving_panic(graph, &facts, &reach, &mut diags);
    check_lock_discipline(graph, &facts, &summaries, &mut diags);
    check_durability(graph, &facts, &summaries, &mut diags);
    check_error_taxonomy(graph, &facts, &reach, &mut diags);
    diags
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// The serving surface, by name pattern (documented in DESIGN.md §14):
/// estimation API, HTTP routing/handlers and server loops, and the store's
/// recovery / replication session paths.
fn is_serving_entry(graph: &Graph, n: usize) -> bool {
    let node = &graph.nodes[n];
    if node.is_test {
        return false;
    }
    let file = &graph.files[node.file];
    if file.is_bin() || file.is_testish() {
        return false;
    }
    let name = graph.item(n).name.as_str();
    if name.starts_with("try_estimate") {
        return true;
    }
    match file.crate_name() {
        Some("server") => {
            name == "route_request"
                || name.starts_with("handle_")
                || name.ends_with("_loop")
                || matches!(name, "run" | "submit" | "flush")
        }
        Some("store") => {
            matches!(
                name,
                "open" | "scan" | "serve_session" | "client_loop" | "run_session"
            ) || name.starts_with("recover")
                || name.starts_with("apply_record")
                || name.ends_with("_loop")
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Per-function facts
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Facts {
    /// Potential panic sites: `(line, kind)` where kind is one of
    /// `unwrap` / `expect` / `panic-macro` / `assert` / `index`.
    panics: Vec<(u32, &'static str)>,
    locks: Vec<LockAcq>,
    blocks: Vec<BlockSite>,
    /// Lines of durable-write operations.
    writes: Vec<u32>,
    /// A sync/rename durability op appears directly in this body.
    syncs: bool,
    /// `(line, macro name)` print sites.
    prints: Vec<(u32, String)>,
    /// `process::exit` call lines.
    exits: Vec<u32>,
}

#[derive(Debug)]
struct LockAcq {
    /// Heuristic lock identity (`SelfTy.field` or bare field name).
    id: String,
    line: u32,
    tok: usize,
    /// Variable the guard is bound to, when let-bound.
    guard: Option<String>,
    /// Last token index at which the guard is considered held.
    scope_end: usize,
}

#[derive(Debug)]
struct BlockSite {
    what: String,
    line: u32,
    tok: usize,
    /// For `Condvar::wait*`: the guard variable passed in (waiting on your
    /// own guard is the idiom, not a bug).
    wait_arg: Option<String>,
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const ASSERT_MACROS: [&str; 3] = ["assert", "assert_eq", "assert_ne"];
const PRINT_MACROS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];
const WAIT_METHODS: [&str; 4] = ["wait", "wait_timeout", "wait_while", "wait_timeout_while"];
/// Blocking with no arguments (`handle.join()`, `rx.recv()`, ...). The
/// empty-argument requirement keeps `Path::join(..)` / `Vec::join(..)` out.
const BLOCKING_NOARG: [&str; 3] = ["join", "recv", "accept"];
const BLOCKING_ANYARG: [&str; 4] = ["send", "recv_timeout", "connect", "connect_timeout"];
const STREAM_IO: [&str; 7] = [
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "flush",
    "read",
    "write",
];
/// `reader`/`writer` are deliberately absent: buffered *file* readers are
/// conventionally named that way, and file I/O is not "blocking" in the
/// hold-a-guard sense this rule polices.
const STREAMISH: [&str; 4] = ["stream", "sock", "conn", "tcp"];
const FILEISH: [&str; 5] = ["file", "tmp", "wal", "seg", "out"];

fn extract_facts(graph: &Graph, n: usize) -> Facts {
    let mut f = Facts::default();
    let node = &graph.nodes[n];
    let file = &graph.files[node.file];
    let item = &file.items.fns[node.item];
    let Some((open, close)) = item.body else {
        return f;
    };
    let toks = &file.toks;
    let crate_name = file.crate_name().unwrap_or("");
    let server_or_store = crate_name == "server" || crate_name == "store";

    // Receivers whose length the function consults (`x.len()` or
    // `x.is_empty()` anywhere in the body). Indexing such a receiver is
    // assumed bounds-checked — the decode-loop idiom (`if buf.len() < 16
    // { break } ... buf[0..8]`) would otherwise drown the rule in noise.
    let mut len_aware: BTreeSet<&str> = BTreeSet::new();
    for k in open + 1..close {
        if toks[k].kind == TokKind::Ident
            && is_punct(toks, k + 1, ".")
            && toks.get(k + 2).is_some_and(|m| {
                m.kind == TokKind::Ident && (m.text == "len" || m.text == "is_empty")
            })
            && is_punct(toks, k + 3, "(")
        {
            len_aware.insert(toks[k].text.as_str());
        }
    }

    let mut j = open + 1;
    while j < close {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            // Indexing without `get`: `recv[..]` where `recv` is a value
            // whose length the function never consults.
            if server_or_store
                && t.text == "["
                && toks.get(j.wrapping_sub(1)).is_some_and(|p| {
                    p.kind == TokKind::Ident && !len_aware.contains(p.text.as_str())
                })
                && !panic_site_allowed(file, t.line)
            {
                f.panics.push((t.line, "index"));
            }
            j += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            j += 1;
            continue;
        }
        let name = t.text.as_str();
        let dot_recv = is_punct(toks, j.wrapping_sub(1), ".");
        let called = is_punct(toks, j + 1, "(");
        let noargs = called && is_punct(toks, j + 2, ")");
        let is_macro = is_punct(toks, j + 1, "!");

        // Panic sites.
        if dot_recv && called && (name == "unwrap" || name == "expect") {
            if !panic_site_allowed(file, t.line) {
                f.panics
                    .push((t.line, if name == "unwrap" { "unwrap" } else { "expect" }));
            }
        } else if is_macro && PANIC_MACROS.contains(&name) {
            if !panic_site_allowed(file, t.line) {
                f.panics.push((t.line, "panic-macro"));
            }
        } else if is_macro
            && server_or_store
            && ASSERT_MACROS.contains(&name)
            && !panic_site_allowed(file, t.line)
        {
            f.panics.push((t.line, "assert"));
        }

        // Lock acquisitions: `.lock()` always; `.read()` / `.write()` with
        // *empty* argument lists are RwLock (io::Read/Write always take a
        // buffer).
        if dot_recv && noargs && (name == "lock" || name == "read" || name == "write") {
            let chain = receiver_chain(toks, j);
            if let Some(id) = lock_id(&chain, item.self_ty.as_deref()) {
                let (guard, scope_end) = guard_scope(toks, j, open, close);
                f.locks.push(LockAcq {
                    id,
                    line: t.line,
                    tok: j,
                    guard,
                    scope_end,
                });
            }
        } else if dot_recv && called && WAIT_METHODS.contains(&name) {
            let wait_arg = call_args_span(toks, j).and_then(|(a_open, a_close)| {
                (a_open + 1..a_close)
                    .find(|&k| toks[k].kind == TokKind::Ident)
                    .map(|k| toks[k].text.clone())
            });
            f.blocks.push(BlockSite {
                what: format!("{name} on a condvar"),
                line: t.line,
                tok: j,
                wait_arg,
            });
        } else if dot_recv
            && ((noargs && BLOCKING_NOARG.contains(&name))
                || (called && BLOCKING_ANYARG.contains(&name)))
        {
            f.blocks.push(BlockSite {
                what: format!("`{name}`"),
                line: t.line,
                tok: j,
                wait_arg: None,
            });
        } else if name == "sleep" && called {
            f.blocks.push(BlockSite {
                what: "`sleep`".to_string(),
                line: t.line,
                tok: j,
                wait_arg: None,
            });
        } else if dot_recv && called && STREAM_IO.contains(&name) {
            let chain = receiver_chain(toks, j);
            if chain_matches(&chain, &STREAMISH) {
                f.blocks.push(BlockSite {
                    what: format!("socket `{name}`"),
                    line: t.line,
                    tok: j,
                    wait_arg: None,
                });
            } else if chain_matches(&chain, &FILEISH)
                && (name == "write_all" || (name == "write" && !noargs))
            {
                f.writes.push(t.line);
            }
        }

        // Durability ops and write ops, path style.
        if dot_recv && called && (name == "sync_data" || name == "sync_all") {
            f.syncs = true;
        }
        if name == "rename" && called {
            f.syncs = true; // fs::rename — the atomic-replace half of temp+rename
        }
        if dot_recv && called && name == "set_len" {
            let chain = receiver_chain(toks, j);
            if chain_matches(&chain, &FILEISH) {
                f.writes.push(t.line);
            }
        }
        if called && is_punct(toks, j.wrapping_sub(1), "::") {
            let qual = j
                .checked_sub(2)
                .and_then(|q| toks.get(q))
                .filter(|q| q.kind == TokKind::Ident)
                .map(|q| q.text.as_str())
                .unwrap_or("");
            if (qual == "fs" && (name == "write" || name == "copy"))
                || (qual == "File" && name == "create")
                || qual == "OpenOptions"
            {
                f.writes.push(t.line);
            }
            if qual == "process" && name == "exit" {
                f.exits.push(t.line);
            }
        }

        // Print macros.
        if is_macro && PRINT_MACROS.contains(&name) {
            f.prints.push((t.line, name.to_string()));
        }

        j += 1;
    }
    f
}

/// Panic sites carrying an `allow(serving-panic-reachability)` pragma are
/// documented invariant aborts; they are filtered at fact level so
/// reachability never reports them through a caller either.
fn panic_site_allowed(file: &SourceFile, line: u32) -> bool {
    file.allowed
        .get(&line)
        .is_some_and(|rules| rules.iter().any(|r| r == SERVING_PANIC))
}

fn chain_matches(chain: &[String], pats: &[&str]) -> bool {
    chain.iter().any(|seg| {
        let seg = seg.to_ascii_lowercase();
        pats.iter().any(|p| seg.contains(p)) || seg == "f"
    })
}

/// Idents of the dotted receiver chain before the method name at
/// `method_tok`, outermost first (`self.inner.lock` → `[self, inner]`).
/// Call results in the chain (`self.state().lock()`) contribute the
/// callee's name.
fn receiver_chain(toks: &[Tok], method_tok: usize) -> Vec<String> {
    let mut chain: Vec<String> = Vec::new();
    let Some(mut k) = method_tok.checked_sub(1) else {
        return chain;
    };
    if !is_punct(toks, k, ".") {
        return chain;
    }
    while let Some(prev) = k.checked_sub(1) {
        let t = &toks[prev];
        if t.kind == TokKind::Ident {
            chain.push(t.text.clone());
            match prev.checked_sub(1) {
                Some(pp) if is_punct(toks, pp, ".") => k = pp,
                _ => break,
            }
        } else if t.kind == TokKind::Punct && (t.text == ")" || t.text == "]") {
            let open_text = if t.text == ")" { "(" } else { "[" };
            let Some(open) = back_match(toks, prev, open_text, &t.text) else {
                break;
            };
            match open.checked_sub(1) {
                Some(name_idx) if toks[name_idx].kind == TokKind::Ident => {
                    chain.push(toks[name_idx].text.clone());
                    match name_idx.checked_sub(1) {
                        Some(pp) if is_punct(toks, pp, ".") => k = pp,
                        _ => break,
                    }
                }
                _ => break,
            }
        } else {
            break;
        }
    }
    chain.reverse();
    chain
}

/// Index of the opening delimiter matching the closer at `close_idx`,
/// scanning backwards.
fn back_match(toks: &[Tok], close_idx: usize, op: &str, cl: &str) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = close_idx;
    loop {
        if is_punct(toks, i, cl) {
            depth += 1;
        } else if is_punct(toks, i, op) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i = i.checked_sub(1)?;
    }
}

/// Heuristic lock identity: `SelfTy.field` when reached through `self`,
/// the field name alone when reached through a local binding.
fn lock_id(chain: &[String], self_ty: Option<&str>) -> Option<String> {
    let first = chain.first()?;
    if first == "self" {
        let ty = self_ty.unwrap_or("Self");
        if chain.len() == 1 {
            Some(ty.to_string())
        } else {
            Some(format!("{ty}.{}", chain[chain.len() - 1]))
        }
    } else {
        Some(chain[chain.len() - 1].clone())
    }
}

/// True when the lock-acquisition chain starting at the method ident `at`
/// — `lock(..)` plus any `.unwrap()` / `.expect(..)` /
/// `.unwrap_or_else(..)` adapters — is immediately followed by `;`, i.e.
/// the statement's value *is* the guard.
fn acquisition_ends_statement(toks: &[Tok], at: usize) -> bool {
    if !is_punct(toks, at + 1, "(") {
        return false;
    }
    let mut j = paren_match(toks, at + 1);
    while is_punct(toks, j + 1, ".")
        && toks.get(j + 2).is_some_and(|t| {
            t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "unwrap" | "expect" | "unwrap_or_else")
        })
        && is_punct(toks, j + 3, "(")
    {
        j = paren_match(toks, j + 3);
    }
    is_punct(toks, j + 1, ";")
}

/// Determines the guard binding and held-scope of a lock acquired at token
/// `at`, per the rules in DESIGN.md §14:
///
/// * let-bound guards live to the end of the enclosing block, or to an
///   explicit `drop(<guard>)`;
/// * temporaries in a `for`/`while`/`if`/`match` header live to the end of
///   the construct's body (Rust extends header temporaries);
/// * other temporaries live to the end of their statement.
fn guard_scope(
    toks: &[Tok],
    at: usize,
    body_open: usize,
    body_close: usize,
) -> (Option<String>, usize) {
    // Find the statement start: scan back to the nearest `;`, `{`, `}`,
    // or `=>` (match arms), bounded by the body.
    let mut stmt = at;
    while stmt > body_open + 1 {
        let p = &toks[stmt - 1];
        if p.kind == TokKind::Punct && matches!(p.text.as_str(), ";" | "{" | "}" | "=>") {
            break;
        }
        stmt -= 1;
    }
    // Let-bound? Pick the first pattern ident after `let` as the guard
    // name (tuple patterns from `wait_timeout` bind the guard first). A
    // `let` only binds the *guard* when the acquisition chain ends the
    // statement (`let g = m.lock().unwrap();`); if the chain projects
    // further (`let v = m.lock().unwrap().take();`) the guard is a
    // temporary dropped at the `;` and the binding holds the projection.
    let mut guard: Option<String> = None;
    if acquisition_ends_statement(toks, at) {
        let mut k = stmt;
        while k < at {
            if toks[k].kind == TokKind::Ident && toks[k].text == "let" {
                let mut g = k + 1;
                while g < at {
                    let t = &toks[g];
                    if t.kind == TokKind::Ident && t.text != "mut" {
                        guard = Some(t.text.clone());
                        break;
                    }
                    g += 1;
                }
                break;
            }
            k += 1;
        }
    }

    if guard.is_some() {
        // To the end of the enclosing block, or an explicit drop(<guard>).
        let gname = guard.as_deref().unwrap_or("");
        let mut depth = 0i32;
        let mut i = at;
        while i < body_close {
            let t = &toks[i];
            if t.kind == TokKind::Punct {
                if t.text == "{" {
                    depth += 1;
                } else if t.text == "}" {
                    depth -= 1;
                    if depth < 0 {
                        return (guard, i);
                    }
                }
            } else if t.kind == TokKind::Ident
                && t.text == "drop"
                && is_punct(toks, i + 1, "(")
                && toks
                    .get(i + 2)
                    .is_some_and(|a| a.kind == TokKind::Ident && a.text == gname)
                && is_punct(toks, i + 3, ")")
            {
                return (guard, i);
            }
            i += 1;
        }
        return (guard, body_close);
    }

    // Header temporary? The statement's first ident decides.
    let header = toks
        .get(stmt)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str());
    if matches!(header, Some("for" | "while" | "if" | "match")) {
        // Held to the end of the construct's body block.
        let mut paren = 0i32;
        let mut i = at;
        while i < body_close {
            let t = &toks[i];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "{" if paren <= 0 => return (None, brace_match(toks, i).min(body_close)),
                    _ => {}
                }
            }
            i += 1;
        }
        return (None, body_close);
    }

    // Plain temporary: to the end of this statement.
    let mut depth = 0i32;
    let mut i = at;
    while i < body_close {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return (None, i);
                    }
                }
                ";" if depth <= 0 => return (None, i),
                _ => {}
            }
        }
        i += 1;
    }
    (None, body_close)
}

// ---------------------------------------------------------------------------
// Transitive summaries
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct Summary {
    /// Lock ids this function (or a capped-fan-out callee) may acquire.
    locks: BTreeSet<String>,
    /// A blocking operation reachable here, if any (description).
    may_block: Option<String>,
    /// Some path performs a sync/rename durability op.
    syncs: bool,
}

/// Targets a call site may carry *facts* (locks, blocking, syncs) through.
/// Empty when the fan-out cap is exceeded, and — for method-style calls,
/// whose receiver type is unknown — restricted to the caller's own crate:
/// a `.shutdown()` on a `TcpStream` in `store` must not inherit the
/// thread-join inside some unrelated `fn shutdown` in `server`.
/// Path-qualified and bare calls resolve well enough to cross crates.
fn fact_targets(graph: &Graph, n: usize, call: &CallSite) -> Vec<usize> {
    if call.targets.is_empty() || call.targets.len() > FANOUT_CAP {
        return Vec::new();
    }
    let caller_crate = graph.files[graph.nodes[n].file].crate_name();
    call.targets
        .iter()
        .copied()
        .filter(|&t| {
            !matches!(call.style, CallStyle::Method)
                || graph.files[graph.nodes[t].file].crate_name() == caller_crate
        })
        .collect()
}

fn summarize(
    graph: &Graph,
    facts: &[Facts],
    n: usize,
    memo: &mut Vec<Option<Summary>>,
    on_stack: &mut Vec<bool>,
) -> Summary {
    if let Some(s) = &memo[n] {
        return s.clone();
    }
    if on_stack[n] {
        return Summary::default(); // cycle: cut with the empty summary
    }
    on_stack[n] = true;
    let mut s = Summary {
        locks: facts[n].locks.iter().map(|l| l.id.clone()).collect(),
        may_block: facts[n].blocks.first().map(|b| b.what.clone()),
        syncs: facts[n].syncs,
    };
    for call in &graph.nodes[n].calls {
        for t in fact_targets(graph, n, call) {
            let sub = summarize(graph, facts, t, memo, on_stack);
            s.locks.extend(sub.locks.iter().cloned());
            if s.may_block.is_none() {
                if let Some(b) = &sub.may_block {
                    s.may_block = Some(format!("{} via `{}`", b, call.name));
                }
            }
            s.syncs |= sub.syncs;
        }
    }
    on_stack[n] = false;
    memo[n] = Some(s.clone());
    s
}

// ---------------------------------------------------------------------------
// Rule: serving-panic-reachability
// ---------------------------------------------------------------------------

fn check_serving_panic(
    graph: &Graph,
    facts: &[Facts],
    reach: &BTreeMap<usize, Option<(usize, u32)>>,
    out: &mut Vec<Diagnostic>,
) {
    for &n in reach.keys() {
        for &(line, kind) in &facts[n].panics {
            let file = &graph.files[graph.nodes[n].file];
            out.push(Diagnostic {
                file: file.display.clone(),
                line,
                rule: SERVING_PANIC,
                function: graph.qual(n).to_string(),
                kind: kind.to_string(),
                message: format!(
                    "{} in `{}` is reachable from a serving entry point ({}); serving paths \
                     must degrade with a typed error, not abort",
                    panic_kind_desc(kind),
                    graph.qual(n),
                    graph.witness(reach, n),
                ),
            });
        }
    }
}

fn panic_kind_desc(kind: &str) -> &'static str {
    match kind {
        "unwrap" => "`unwrap()`",
        "expect" => "`expect()`",
        "panic-macro" => "a panicking macro",
        "assert" => "an assertion",
        _ => "indexing without `get`",
    }
}

// ---------------------------------------------------------------------------
// Rule: lock-discipline
// ---------------------------------------------------------------------------

fn check_lock_discipline(
    graph: &Graph,
    facts: &[Facts],
    summaries: &[Option<Summary>],
    out: &mut Vec<Diagnostic>,
) {
    // (first, second) -> sites where that acquisition order was observed.
    type OrderSites = BTreeMap<(String, String), Vec<(usize, u32, String)>>;
    let mut pairs: OrderSites = BTreeMap::new();

    for (n, nf) in facts.iter().enumerate() {
        if graph.nodes[n].is_test {
            continue;
        }
        let file = &graph.files[graph.nodes[n].file];
        for a in &nf.locks {
            // Nested direct acquisitions.
            for b in &nf.locks {
                if b.tok > a.tok && b.tok <= a.scope_end && b.id != a.id {
                    pairs
                        .entry((a.id.clone(), b.id.clone()))
                        .or_default()
                        .push((n, b.line, format!("`{}` then `{}`", a.id, b.id)));
                }
            }
            // Direct blocking sites inside the guard's scope.
            for blk in &nf.blocks {
                if blk.tok <= a.tok || blk.tok > a.scope_end {
                    continue;
                }
                if blk.wait_arg.is_some() && blk.wait_arg == a.guard {
                    continue; // waiting on your own guard is the condvar idiom
                }
                out.push(Diagnostic {
                    file: file.display.clone(),
                    line: blk.line,
                    rule: LOCK_DISCIPLINE,
                    function: graph.qual(n).to_string(),
                    kind: "guard-across-blocking".to_string(),
                    message: format!(
                        "guard on `{}` (acquired line {}) is held across blocking {}; drop \
                         the guard before blocking",
                        a.id, a.line, blk.what
                    ),
                });
            }
            // Propagated facts through calls inside the scope.
            for call in &graph.nodes[n].calls {
                if call.tok <= a.tok || call.tok > a.scope_end {
                    continue;
                }
                let mut merged = Summary::default();
                for t in fact_targets(graph, n, call) {
                    if let Some(s) = &summaries[t] {
                        merged.locks.extend(s.locks.iter().cloned());
                        if merged.may_block.is_none() {
                            merged.may_block.clone_from(&s.may_block);
                        }
                    }
                }
                for x in &merged.locks {
                    if *x != a.id {
                        pairs.entry((a.id.clone(), x.clone())).or_default().push((
                            n,
                            call.line,
                            format!("`{}` then `{}` via call to `{}`", a.id, x, call.name),
                        ));
                    }
                }
                if let Some(b) = &merged.may_block {
                    out.push(Diagnostic {
                        file: file.display.clone(),
                        line: call.line,
                        rule: LOCK_DISCIPLINE,
                        function: graph.qual(n).to_string(),
                        kind: "guard-across-blocking".to_string(),
                        message: format!(
                            "guard on `{}` (acquired line {}) is held across a call to \
                             `{}`, which may block ({})",
                            a.id, a.line, call.name, b
                        ),
                    });
                }
            }
        }
    }

    // Inconsistent order: both (A, B) and (B, A) observed.
    let keys: Vec<(String, String)> = pairs.keys().cloned().collect();
    for (x, y) in keys {
        if x >= y {
            continue;
        }
        let fwd = pairs.get(&(x.clone(), y.clone()));
        let rev = pairs.get(&(y.clone(), x.clone()));
        if let (Some(fwd), Some(rev)) = (fwd, rev) {
            for (here, there) in [(&fwd[0], &rev[0]), (&rev[0], &fwd[0])] {
                let (n, line, how) = here;
                let (on, oline, _) = there;
                let file = &graph.files[graph.nodes[*n].file];
                let ofile = &graph.files[graph.nodes[*on].file];
                out.push(Diagnostic {
                    file: file.display.clone(),
                    line: *line,
                    rule: LOCK_DISCIPLINE,
                    function: graph.qual(*n).to_string(),
                    kind: "order-inversion".to_string(),
                    message: format!(
                        "lock order inversion: {} here, but the opposite order in `{}` \
                         ({}:{}) — potential deadlock",
                        how,
                        graph.qual(*on),
                        ofile.display,
                        oline
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: durability-protocol
// ---------------------------------------------------------------------------

fn check_durability(
    graph: &Graph,
    facts: &[Facts],
    summaries: &[Option<Summary>],
    out: &mut Vec<Diagnostic>,
) {
    for n in 0..graph.nodes.len() {
        if graph.nodes[n].is_test {
            continue;
        }
        let file = &graph.files[graph.nodes[n].file];
        if file.crate_name() != Some("store") || file.is_testish() || file.is_bin() {
            continue;
        }
        let Some(&first_write) = facts[n].writes.first() else {
            continue;
        };
        let item = graph.item(n);
        if !item.ret.iter().any(|t| t == "Result") {
            continue; // not an ack-carrying function
        }
        let synced = facts[n].syncs || summaries[n].as_ref().is_some_and(|s| s.syncs);
        if synced {
            continue;
        }
        out.push(Diagnostic {
            file: file.display.clone(),
            line: first_write,
            rule: DURABILITY,
            function: item.qual.clone(),
            kind: "write-without-sync".to_string(),
            message: format!(
                "`{}` writes durable state but no path reaches sync_data/sync_all or an \
                 atomic rename before returning Ok; an ack must imply durability",
                item.qual
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule: error-taxonomy
// ---------------------------------------------------------------------------

fn check_error_taxonomy(
    graph: &Graph,
    facts: &[Facts],
    reach: &BTreeMap<usize, Option<(usize, u32)>>,
    out: &mut Vec<Diagnostic>,
) {
    // Return-type discipline on the serving surface.
    for &n in reach.keys() {
        let file = &graph.files[graph.nodes[n].file];
        if file.is_bin() || file.crate_name() == Some("bench") {
            continue;
        }
        let item = graph.item(n);
        if let Some((kind, desc)) = err_ret_kind(&item.ret) {
            out.push(Diagnostic {
                file: file.display.clone(),
                line: item.line,
                rule: ERROR_TAXONOMY,
                function: item.qual.clone(),
                kind: kind.to_string(),
                message: format!(
                    "serving-path function `{}` returns {}; use a typed error enum so \
                     callers can branch on failure modes",
                    item.qual, desc
                ),
            });
        }
    }
    // Library hygiene everywhere: no exit(), no prints outside bins.
    for (n, nf) in facts.iter().enumerate() {
        if graph.nodes[n].is_test {
            continue;
        }
        let file = &graph.files[graph.nodes[n].file];
        if file.is_bin() || file.is_testish() || file.crate_name() == Some("bench") {
            continue;
        }
        let qual = graph.qual(n);
        for &line in &nf.exits {
            out.push(Diagnostic {
                file: file.display.clone(),
                line,
                rule: ERROR_TAXONOMY,
                function: qual.to_string(),
                kind: "process-exit".to_string(),
                message: format!(
                    "`process::exit` in library function `{qual}` kills the host process; \
                     return an error and let the bin decide"
                ),
            });
        }
        for (line, mac) in &nf.prints {
            out.push(Diagnostic {
                file: file.display.clone(),
                line: *line,
                rule: ERROR_TAXONOMY,
                function: qual.to_string(),
                kind: "stdout-in-lib".to_string(),
                message: format!(
                    "`{mac}!` in library function `{qual}` writes to the process's \
                     stdio; surface information through return values (bins are exempt)"
                ),
            });
        }
    }
}

/// Classifies an offending error channel in a return type, if any.
fn err_ret_kind(ret: &[String]) -> Option<(&'static str, &'static str)> {
    // `Box<dyn ... Error ...>` anywhere in the type.
    let has = |s: &str| ret.iter().any(|t| t == s);
    if has("Box") && has("dyn") && has("Error") {
        return Some(("boxed-dyn-error", "a `Box<dyn Error>`"));
    }
    // `Result<_, E>`: inspect E.
    let r = ret.iter().position(|t| t == "Result")?;
    if ret.get(r + 1).map(String::as_str) != Some("<") {
        return None;
    }
    let mut depth = 0i32;
    let mut comma: Option<usize> = None;
    let mut end = ret.len();
    for (i, t) in ret.iter().enumerate().skip(r + 1) {
        match t.as_str() {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    end = i;
                    break;
                }
            }
            "," if depth == 1 && comma.is_none() => comma = Some(i),
            _ => {}
        }
    }
    let err = &ret[comma? + 1..end];
    if err == ["String"] || err.last().map(String::as_str) == Some("str") {
        return Some(("stringly-error", "a stringly error (`Result<_, String>`)"));
    }
    if err.contains(&"dyn".to_string()) && err.contains(&"Error".to_string()) {
        return Some(("boxed-dyn-error", "a `Box<dyn Error>`"));
    }
    None
}
