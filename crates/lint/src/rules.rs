//! The rule registry.
//!
//! Each rule is a lexical check over one file's token stream, scoped by
//! path (which crate, which file) and by test-ness (tokens inside
//! `#[cfg(test)]` / `#[test]` items, and whole files under `tests/`,
//! `benches/`, or `examples/`, are exempt). The rules keep only the
//! invariants rustc and clippy cannot express (DESIGN.md §10 lists which
//! checker enforces each one):
//!
//! * `nondeterminism` — bit-identical training for any `--train-threads`
//!   forbids `Instant::now` in library code, and hash-ordered containers
//!   anywhere order can leak into results. Clippy cannot scope these per
//!   crate: the bench harness times with `Instant` legitimately.
//! * `raw-exp-decode` — every log-cardinality decode goes through
//!   `decode_log_card` so NaN/overflow clamp instead of poisoning
//!   Q-errors.
//! * `float-total-order` — float `==` / `!=` against a literal is
//!   exact-bit equality and almost always a bug; compare with a tolerance.

use crate::lexer::{Tok, TokKind};

/// One reported violation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path the file was read from (fixtures report their real path even
    /// when a directive re-scopes them).
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
    /// Qualified name of the containing function (semantic rules only;
    /// empty for lexical rules).
    pub function: String,
    /// Sub-category within the rule (semantic rules only), e.g. `unwrap`,
    /// `order-inversion`, `write-without-sync`.
    pub kind: String,
}

/// Everything a rule can see about one file.
pub struct FileCtx<'a> {
    /// Effective repo-relative path used for scoping ('/' separated).
    pub path: String,
    /// Path diagnostics are reported under.
    pub display_path: String,
    pub toks: &'a [Tok],
    /// Parallel to `toks`: true for tokens inside `#[cfg(test)]` /
    /// `#[test]` items.
    pub in_test: &'a [bool],
}

impl FileCtx<'_> {
    /// Library crates carry the panic-free / deterministic contracts.
    /// `crates/bench` is the measurement harness (it times with `Instant`
    /// and unwraps freely in experiment drivers) and is exempt.
    pub fn is_lib_crate(&self) -> bool {
        match self.crate_name() {
            Some(name) => name != "bench",
            None => false,
        }
    }

    /// Crate directory name under `crates/`, if any.
    pub fn crate_name(&self) -> Option<&str> {
        let mut parts = self.path.split('/');
        parts.by_ref().find(|p| *p == "crates")?;
        parts.next()
    }

    /// Whole-file test-ness: integration tests, benches, and examples are
    /// exempt from the library-code rules.
    pub fn file_is_testish(&self) -> bool {
        ["/tests/", "/benches/", "/examples/"]
            .iter()
            .any(|d| self.path.contains(d))
    }

    fn code(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i)
    }

    fn is_test_tok(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    fn ident_at(&self, i: usize, text: &str) -> bool {
        self.code(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
    }

    fn punct_at(&self, i: usize, text: &str) -> bool {
        self.code(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
    }

    fn diag(&self, rule: &'static str, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            file: self.display_path.clone(),
            line,
            rule,
            message,
            ..Diagnostic::default()
        }
    }
}

/// A registered rule.
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    pub check: fn(&FileCtx, &mut Vec<Diagnostic>),
}

pub const NONDETERMINISM: &str = "nondeterminism";
pub const RAW_EXP_DECODE: &str = "raw-exp-decode";
pub const FLOAT_TOTAL_ORDER: &str = "float-total-order";
/// Meta-rule id for malformed / reason-less / unknown-rule pragmas,
/// emitted by the engine rather than a registry check.
pub const BAD_PRAGMA: &str = "bad-pragma";

/// All registered rules, in reporting order.
pub fn registry() -> &'static [Rule] {
    &[
        Rule {
            id: NONDETERMINISM,
            summary: "no Instant::now or hash-ordered containers in library crates",
            check: check_nondeterminism,
        },
        Rule {
            id: RAW_EXP_DECODE,
            summary: "log-cardinality decodes must go through decode_log_card, not bare .exp()",
            check: check_raw_exp_decode,
        },
        Rule {
            id: FLOAT_TOTAL_ORDER,
            summary: "no float == / != against a literal in library code; use a tolerance",
            check: check_float_total_order,
        },
    ]
}

/// True when `id` names a registry rule, a semantic rule, or the
/// `bad-pragma` meta-rule (so pragma validation accepts it).
pub fn is_known_rule(id: &str) -> bool {
    id == BAD_PRAGMA
        || registry().iter().any(|r| r.id == id)
        || crate::semrules::is_semantic_rule(id)
}

// ---------------------------------------------------------------------------
// nondeterminism
// ---------------------------------------------------------------------------

fn check_nondeterminism(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.is_lib_crate() || ctx.file_is_testish() {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.is_test_tok(i) {
            continue;
        }
        if t.text == "Instant" && ctx.punct_at(i + 1, "::") && ctx.ident_at(i + 2, "now") {
            out.push(
                ctx.diag(
                    NONDETERMINISM,
                    t.line,
                    "`Instant::now()` breaks bit-reproducible training; thread timing through \
                     the bench harness or derive it from a seeded source"
                        .to_string(),
                ),
            );
        } else if t.text == "HashMap" || t.text == "HashSet" {
            out.push(ctx.diag(
                NONDETERMINISM,
                t.line,
                format!(
                    "`{}` iteration order is unspecified and can leak into results; use \
                     `BTreeMap`/`BTreeSet` or sort keys before iterating (allow with the \
                     ordering discipline as the reason)",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// raw-exp-decode
// ---------------------------------------------------------------------------

/// Files allowed to call `.exp()` directly: the decode helper itself and
/// the activation / loss internals whose math is not a cardinality decode.
const EXP_APPROVED: [&str; 3] = [
    "crates/nn/src/metrics.rs",
    "crates/nn/src/activation.rs",
    "crates/nn/src/loss.rs",
];

fn check_raw_exp_decode(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.is_lib_crate() || ctx.file_is_testish() {
        return;
    }
    if EXP_APPROVED.iter().any(|f| ctx.path.ends_with(f)) {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.is_test_tok(i) {
            continue;
        }
        let method = t.kind == TokKind::Punct
            && (t.text == "." || t.text == "::")
            && ctx.ident_at(i + 1, "exp")
            && ctx.punct_at(i + 2, "(");
        if method {
            let line = ctx.code(i + 1).map(|t| t.line).unwrap_or(t.line);
            out.push(
                ctx.diag(
                    RAW_EXP_DECODE,
                    line,
                    "bare `.exp()`: a model-output decode here can map NaN/overflow into a fake \
                 cardinality; route it through `cardest_nn::metrics::decode_log_card` (allow \
                 with a reason when the exp is non-decode math)"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// float-total-order
// ---------------------------------------------------------------------------

fn check_float_total_order(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.is_lib_crate() || ctx.file_is_testish() {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.is_test_tok(i) || t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let prev_float = i
            .checked_sub(1)
            .and_then(|p| ctx.code(p))
            .is_some_and(|p| p.kind == TokKind::Float);
        let next_float = ctx.code(i + 1).is_some_and(|n| n.kind == TokKind::Float)
            || (ctx.punct_at(i + 1, "-")
                && ctx.code(i + 2).is_some_and(|n| n.kind == TokKind::Float));
        if prev_float || next_float {
            out.push(ctx.diag(
                FLOAT_TOTAL_ORDER,
                t.line,
                format!(
                    "float `{}` comparison against a literal is exact-bit equality; compare \
                     with a tolerance, or allow with the IEEE-exactness argument as the reason",
                    t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_kebab_case() {
        let rules = registry();
        for (i, r) in rules.iter().enumerate() {
            assert!(r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            assert!(rules[i + 1..].iter().all(|o| o.id != r.id));
        }
        assert!(is_known_rule(BAD_PRAGMA));
        assert!(!is_known_rule("no-such-rule"));
    }
}
