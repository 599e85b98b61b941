//! Inline suppression pragmas and fixture directives.
//!
//! A diagnostic is suppressed by a comment of the form
//!
//! ```text
//! // cardest-lint: allow(rule-id): reason the violation is legitimate
//! // cardest-lint: allow(rule-a, rule-b): one reason covering both
//! ```
//!
//! placed either on the offending line (trailing comment) or on a comment
//! line of its own immediately above it, in which case it applies to the
//! next line that contains code. The reason string is mandatory: an allow
//! without one, or one naming an unknown rule, is itself reported as a
//! `bad-pragma` diagnostic, so suppressions stay auditable.
//!
//! Fixture files under `crates/lint/fixtures/` carry a second directive,
//!
//! ```text
//! // cardest-lint-fixture: path=crates/nn/src/gemm.rs
//! ```
//!
//! which makes the linter scope the file as if it lived at that path, so
//! path-scoped rules (library crates, approved decode files) can be
//! exercised by self-tests without touching the real tree.

use crate::lexer::{Comment, Tok};

/// One parsed `allow` pragma, resolved to the source line it suppresses.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule ids named by the pragma.
    pub rules: Vec<String>,
    /// Line whose diagnostics the pragma suppresses.
    pub target_line: u32,
    /// Line the pragma comment itself starts on (for bad-pragma reports).
    pub pragma_line: u32,
    /// The mandatory justification; empty means the pragma is malformed.
    pub reason: String,
}

/// Pragmas and directives extracted from one file's comments.
#[derive(Debug, Default)]
pub struct Pragmas {
    pub allows: Vec<Allow>,
    /// `path=` override from a `cardest-lint-fixture:` directive.
    pub fixture_path: Option<String>,
    /// Comments that look like pragmas but failed to parse, with messages.
    pub malformed: Vec<(u32, String)>,
}

const PRAGMA_TAG: &str = "cardest-lint:";
const FIXTURE_TAG: &str = "cardest-lint-fixture:";

/// Extracts pragmas from `comments`, resolving each own-line pragma to the
/// next line of `toks` that carries code.
pub fn extract(comments: &[Comment], toks: &[Tok]) -> Pragmas {
    let mut out = Pragmas::default();
    for c in comments {
        let body = c.text.trim_start_matches(['/', '*', '!']).trim();
        if let Some(rest) = body.strip_prefix(FIXTURE_TAG) {
            parse_fixture_directive(rest.trim(), c, &mut out);
        } else if let Some(rest) = body.strip_prefix(PRAGMA_TAG) {
            parse_allow(rest.trim(), c, toks, &mut out);
        }
    }
    out
}

fn parse_fixture_directive(rest: &str, c: &Comment, out: &mut Pragmas) {
    if let Some(path) = rest.strip_prefix("path=") {
        let path = path.trim();
        if path.is_empty() {
            out.malformed
                .push((c.line, "fixture directive has an empty path".to_string()));
        } else {
            out.fixture_path = Some(path.to_string());
        }
    } else {
        out.malformed.push((
            c.line,
            format!("unknown fixture directive `{rest}` (expected `path=<repo path>`)"),
        ));
    }
}

fn parse_allow(rest: &str, c: &Comment, toks: &[Tok], out: &mut Pragmas) {
    let Some(args) = rest.strip_prefix("allow(") else {
        out.malformed.push((
            c.line,
            format!("unrecognized pragma `{rest}` (expected `allow(<rule>): <reason>`)"),
        ));
        return;
    };
    let Some(close) = args.find(')') else {
        out.malformed
            .push((c.line, "unclosed `allow(` pragma".to_string()));
        return;
    };
    let rules: Vec<String> = args[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        out.malformed
            .push((c.line, "allow() pragma names no rules".to_string()));
        return;
    }
    let after = args[close + 1..].trim();
    let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
    let target_line = if c.own_line {
        next_code_line(toks, c.end_line).unwrap_or(c.end_line)
    } else {
        c.line
    };
    out.allows.push(Allow {
        rules,
        target_line,
        pragma_line: c.line,
        reason: reason.to_string(),
    });
}

/// First line after `after` that carries a code token.
fn next_code_line(toks: &[Tok], after: u32) -> Option<u32> {
    toks.iter().map(|t| t.line).filter(|&l| l > after).min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn pragmas(src: &str) -> Pragmas {
        let l = lex(src);
        extract(&l.comments, &l.toks)
    }

    #[test]
    fn trailing_pragma_targets_its_own_line() {
        let src = "let x = v == 0.0; // cardest-lint: allow(float-total-order): exact zero\n";
        let p = pragmas(src);
        assert_eq!(p.allows.len(), 1);
        assert_eq!(p.allows[0].target_line, 1);
        assert_eq!(p.allows[0].rules, vec!["float-total-order"]);
        assert_eq!(p.allows[0].reason, "exact zero");
    }

    #[test]
    fn own_line_pragma_targets_next_code_line() {
        let src = "\n// cardest-lint: allow(nondeterminism): keys are sorted\n// another comment\nuse std::collections::HashMap;\n";
        let p = pragmas(src);
        assert_eq!(p.allows.len(), 1);
        assert_eq!(p.allows[0].target_line, 4);
    }

    #[test]
    fn multi_rule_allow_and_missing_reason() {
        let src = "// cardest-lint: allow(a-rule, b-rule): shared reason\nlet x = 1;\n// cardest-lint: allow(c-rule)\nlet y = 2;\n";
        let p = pragmas(src);
        assert_eq!(p.allows.len(), 2);
        assert_eq!(p.allows[0].rules, vec!["a-rule", "b-rule"]);
        assert_eq!(p.allows[1].reason, "");
    }

    #[test]
    fn fixture_directive_and_malformed_pragmas() {
        let src = "// cardest-lint-fixture: path=crates/nn/src/gemm.rs\n// cardest-lint: allow()\n// cardest-lint: deny(x)\n";
        let p = pragmas(src);
        assert_eq!(p.fixture_path.as_deref(), Some("crates/nn/src/gemm.rs"));
        assert_eq!(p.malformed.len(), 2);
    }
}
