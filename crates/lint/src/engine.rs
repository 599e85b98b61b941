//! Orchestration: file walking, test-region marking, pragma application,
//! and report assembly.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Tok, TokKind};
use crate::parser;
use crate::pragma;
use crate::rules::{self, Diagnostic, FileCtx};
use crate::{callgraph, semrules};

/// The result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    /// Number of `allow` pragmas that suppressed at least one diagnostic.
    pub allows_used: usize,
    /// Diagnostics absorbed by the checked-in baseline (CLI only).
    pub baseline_suppressed: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Directory names never descended into while walking. Fixture files are
/// deliberately violating and are linted only when named explicitly (the
/// self-tests re-scope them via their `cardest-lint-fixture:` directive).
const SKIP_DIRS: [&str; 4] = ["target", "fixtures", ".git", "results"];

/// Recursively collects `.rs` files under `path` (or `path` itself when it
/// is a file), sorted for deterministic reports.
pub fn collect_rs_files(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if path.is_file() {
        out.push(path.to_path_buf());
        return Ok(());
    }
    let entries = fs::read_dir(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut children: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        children.push(entry.path());
    }
    children.sort();
    for child in children {
        let name = child
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if child.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                collect_rs_files(&child, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(child);
        }
    }
    Ok(())
}

/// Lints every `.rs` file reachable from `paths`.
pub fn lint_paths(paths: &[PathBuf]) -> Result<Report, String> {
    let mut files = Vec::new();
    for p in paths {
        if !p.exists() {
            return Err(format!("no such path: {}", p.display()));
        }
        collect_rs_files(p, &mut files)?;
    }
    files.sort();
    files.dedup();
    let mut report = Report::default();
    for f in &files {
        let bytes = fs::read(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let src = String::from_utf8_lossy(&bytes);
        let display = f.to_string_lossy().replace('\\', "/");
        let file_report = lint_source(&display, &src);
        report.diagnostics.extend(file_report.diagnostics);
        report.allows_used += file_report.allows_used;
        report.files_scanned += 1;
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Lints one file's source. `display_path` names the file in diagnostics
/// and also scopes the rules, unless the source carries a
/// `cardest-lint-fixture: path=` directive overriding the scope.
pub fn lint_source(display_path: &str, src: &str) -> Report {
    let lexed = lexer::lex(src);
    let pragmas = pragma::extract(&lexed.comments, &lexed.toks);
    let effective_path = pragmas
        .fixture_path
        .clone()
        .unwrap_or_else(|| display_path.to_string());
    let in_test = test_flags(&lexed.toks);
    let ctx = FileCtx {
        path: effective_path,
        display_path: display_path.to_string(),
        toks: &lexed.toks,
        in_test: &in_test,
    };

    let mut diags: Vec<Diagnostic> = Vec::new();
    for rule in rules::registry() {
        (rule.check)(&ctx, &mut diags);
    }

    // Pragma validation: malformed comments, reason-less allows, and
    // unknown rule ids all surface as `bad-pragma` diagnostics.
    let mut valid_allows: Vec<&pragma::Allow> = Vec::new();
    for (line, msg) in &pragmas.malformed {
        diags.push(Diagnostic {
            file: display_path.to_string(),
            line: *line,
            rule: rules::BAD_PRAGMA,
            message: msg.clone(),
            ..Diagnostic::default()
        });
    }
    for allow in &pragmas.allows {
        let mut ok = true;
        if allow.reason.is_empty() {
            diags.push(Diagnostic {
                file: display_path.to_string(),
                line: allow.pragma_line,
                rule: rules::BAD_PRAGMA,
                message: "allow pragma without a reason; write \
                          `// cardest-lint: allow(<rule>): <why this violation is legitimate>`"
                    .to_string(),
                ..Diagnostic::default()
            });
            ok = false;
        }
        for r in &allow.rules {
            if !rules::is_known_rule(r) {
                diags.push(Diagnostic {
                    file: display_path.to_string(),
                    line: allow.pragma_line,
                    rule: rules::BAD_PRAGMA,
                    message: format!("allow pragma names unknown rule `{r}`"),
                    ..Diagnostic::default()
                });
                ok = false;
            }
        }
        if ok {
            valid_allows.push(allow);
        }
    }

    // Apply suppressions (bad-pragma itself is never suppressible).
    let mut allows_used = vec![false; valid_allows.len()];
    diags.retain(|d| {
        if d.rule == rules::BAD_PRAGMA {
            return true;
        }
        let mut suppressed = false;
        for (used, allow) in allows_used.iter_mut().zip(&valid_allows) {
            if allow.target_line == d.line && allow.rules.iter().any(|r| r == d.rule) {
                *used = true;
                suppressed = true;
            }
        }
        !suppressed
    });
    diags.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    diags.dedup();

    Report {
        diagnostics: diags,
        files_scanned: 1,
        allows_used: allows_used.iter().filter(|&&u| u).count(),
        baseline_suppressed: 0,
    }
}

/// Runs the semantic (call-graph) pass over every `.rs` file reachable
/// from `paths`. Unlike [`lint_paths`], the whole file set is analyzed as
/// one workspace: calls resolve across files and crates.
pub fn lint_paths_semantic(paths: &[PathBuf]) -> Result<Report, String> {
    let mut files = Vec::new();
    for p in paths {
        if !p.exists() {
            return Err(format!("no such path: {}", p.display()));
        }
        collect_rs_files(p, &mut files)?;
    }
    files.sort();
    files.dedup();
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for f in &files {
        let bytes = fs::read(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let display = f.to_string_lossy().replace('\\', "/");
        sources.push((display, String::from_utf8_lossy(&bytes).into_owned()));
    }
    Ok(lint_sources_semantic(&sources))
}

/// Semantic pass over in-memory `(display_path, source)` pairs. Exposed so
/// the self-tests can lint synthetic workspaces (and splice seeded bugs
/// into real files) without touching the tree.
pub fn lint_sources_semantic(sources: &[(String, String)]) -> Report {
    let mut parsed: Vec<callgraph::SourceFile> = Vec::with_capacity(sources.len());
    for (display, src) in sources {
        let lexed = lexer::lex(src);
        let pragmas = pragma::extract(&lexed.comments, &lexed.toks);
        let effective = pragmas
            .fixture_path
            .clone()
            .unwrap_or_else(|| display.clone());
        let in_test = test_flags(&lexed.toks);
        let items = parser::parse_items(&lexed.toks, &in_test);
        // Valid allows only; the lexical pass reports malformed pragmas.
        let mut allowed: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for allow in &pragmas.allows {
            if allow.reason.is_empty() || !allow.rules.iter().all(|r| rules::is_known_rule(r)) {
                continue;
            }
            allowed
                .entry(allow.target_line)
                .or_default()
                .extend(allow.rules.iter().cloned());
        }
        parsed.push(callgraph::SourceFile {
            display: display.clone(),
            path: effective,
            toks: lexed.toks,
            in_test,
            items,
            allowed,
        });
    }
    let graph = callgraph::Graph::build(parsed);
    let mut diags = semrules::check(&graph);

    // Generic pragma suppression: an allow targeting the diagnostic's line
    // and naming its rule.
    let mut allows_used = 0usize;
    let allowed_by_file: BTreeMap<&str, &BTreeMap<u32, Vec<String>>> = graph
        .files
        .iter()
        .map(|f| (f.display.as_str(), &f.allowed))
        .collect();
    diags.retain(|d| {
        let suppressed = allowed_by_file
            .get(d.file.as_str())
            .and_then(|lines| lines.get(&d.line))
            .is_some_and(|rules| rules.iter().any(|r| r == d.rule));
        if suppressed {
            allows_used += 1;
        }
        !suppressed
    });
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    diags.dedup();
    Report {
        diagnostics: diags,
        files_scanned: sources.len(),
        allows_used,
        baseline_suppressed: 0,
    }
}

/// Marks tokens covered by `#[cfg(test)]` / `#[test]` items. Inner
/// attributes (`#![...]`) never mark anything — in particular
/// `#![cfg_attr(test, ...)]` at a crate root must not flag the whole file.
pub fn test_flags(toks: &[Tok]) -> Vec<bool> {
    let mut flags = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !is_punct(toks, i, "#") {
            i += 1;
            continue;
        }
        if is_punct(toks, i + 1, "!") {
            // Inner attribute: skip without marking.
            if is_punct(toks, i + 2, "[") {
                i = attr_end(toks, i + 3) + 1;
            } else {
                i += 1;
            }
            continue;
        }
        if !is_punct(toks, i + 1, "[") {
            i += 1;
            continue;
        }
        let end = attr_end(toks, i + 2);
        if !attr_is_test(toks, i + 2, end) {
            i = end + 1;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = end + 1;
        while is_punct(toks, j, "#") && is_punct(toks, j + 1, "[") {
            j = attr_end(toks, j + 2) + 1;
        }
        // The item body is the first `{ ... }` group; `;` ends a bodyless
        // item (e.g. `#[cfg(test)] mod tests;`).
        let mut k = j;
        let mut span_end = toks.len().saturating_sub(1);
        while k < toks.len() {
            if is_punct(toks, k, "{") {
                span_end = brace_match(toks, k);
                break;
            }
            if is_punct(toks, k, ";") {
                span_end = k;
                break;
            }
            k += 1;
        }
        for flag in flags.iter_mut().take(span_end + 1).skip(i) {
            *flag = true;
        }
        i = span_end + 1;
    }
    flags
}

fn is_punct(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

/// Index of the `]` closing an attribute whose contents start at `start`
/// (just after the `[`). Returns the last token index when unbalanced.
fn attr_end(toks: &[Tok], start: usize) -> usize {
    let mut depth = 1usize;
    let mut i = start;
    while i < toks.len() {
        if is_punct(toks, i, "[") {
            depth += 1;
        } else if is_punct(toks, i, "]") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Does the attribute span `toks[start..end]` mean "this item is test
/// code"? Accepts `#[test]` and `#[cfg(test)]`; rejects `#[cfg(not(test))]`
/// and `#[cfg_attr(test, ...)]`.
fn attr_is_test(toks: &[Tok], start: usize, end: usize) -> bool {
    let first = match toks.get(start) {
        Some(t) if t.kind == TokKind::Ident => t.text.as_str(),
        _ => return false,
    };
    if first == "test" && end == start + 1 {
        return true;
    }
    first == "cfg"
        && is_punct(toks, start + 1, "(")
        && toks
            .get(start + 2)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == "test")
}

/// Index of the `}` matching the `{` at `open`. Returns the last token
/// index when unbalanced.
fn brace_match(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if is_punct(toks, i, "{") {
            depth += 1;
        } else if is_punct(toks, i, "}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Serializes a report as a single JSON object (hand-rolled: the linter
/// depends on nothing, not even the vendored serde shim).
pub fn to_json(report: &Report) -> String {
    let mut s = String::from("{\"files_scanned\":");
    s.push_str(&report.files_scanned.to_string());
    s.push_str(",\"allows_used\":");
    s.push_str(&report.allows_used.to_string());
    s.push_str(",\"baseline_suppressed\":");
    s.push_str(&report.baseline_suppressed.to_string());
    s.push_str(",\"count\":");
    s.push_str(&report.diagnostics.len().to_string());
    s.push_str(",\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"file\":");
        json_string(&mut s, &d.file);
        s.push_str(",\"line\":");
        s.push_str(&d.line.to_string());
        s.push_str(",\"rule\":");
        json_string(&mut s, d.rule);
        if !d.function.is_empty() {
            s.push_str(",\"function\":");
            json_string(&mut s, &d.function);
        }
        if !d.kind.is_empty() {
            s.push_str(",\"kind\":");
            json_string(&mut s, &d.kind);
        }
        s.push_str(",\"message\":");
        json_string(&mut s, &d.message);
        s.push('}');
    }
    s.push_str("]}");
    s
}

fn json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_modules_are_marked_and_inner_attrs_are_not() {
        let src = "#![cfg_attr(test, allow(clippy::unwrap_used))]\n\
                   fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n";
        let lexed = lexer::lex(src);
        let flags = test_flags(&lexed.toks);
        let unwraps: Vec<bool> = lexed
            .toks
            .iter()
            .zip(&flags)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, &f)| f)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let lexed = lexer::lex(src);
        let flags = test_flags(&lexed.toks);
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn test_attribute_covers_stacked_attrs_and_fn_body() {
        let src = "#[test]\n#[ignore]\nfn t() { a.unwrap(); }\nfn live() { b.unwrap(); }\n";
        let lexed = lexer::lex(src);
        let flags = test_flags(&lexed.toks);
        let unwraps: Vec<bool> = lexed
            .toks
            .iter()
            .zip(&flags)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, &f)| f)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn suppression_requires_matching_rule_and_line() {
        let path = "crates/data/src/x.rs";
        let fire = "pub fn f(x: f32) -> bool { x == 0.0 }\n";
        assert_eq!(lint_source(path, fire).diagnostics.len(), 1);

        let allowed = "pub fn f(x: f32) -> bool {\n    \
                       x == 0.0 // cardest-lint: allow(float-total-order): exact zero skip\n}\n";
        let rep = lint_source(path, allowed);
        assert!(rep.is_clean(), "{:?}", rep.diagnostics);
        assert_eq!(rep.allows_used, 1);

        let wrong_rule = "pub fn f(x: f32) -> bool {\n    \
                          x == 0.0 // cardest-lint: allow(raw-exp-decode): mismatched rule\n}\n";
        assert_eq!(lint_source(path, wrong_rule).diagnostics.len(), 1);
    }

    #[test]
    fn reasonless_allow_is_a_bad_pragma_and_does_not_suppress() {
        let path = "crates/data/src/x.rs";
        let src = "pub fn f(x: f32) -> bool {\n    \
                   x == 0.0 // cardest-lint: allow(float-total-order)\n}\n";
        let rep = lint_source(path, src);
        let rules_hit: Vec<&str> = rep.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules_hit.contains(&"bad-pragma"));
        assert!(rules_hit.contains(&"float-total-order"));
    }

    #[test]
    fn json_output_escapes_and_counts() {
        let rep = Report {
            diagnostics: vec![Diagnostic {
                file: "a\"b.rs".to_string(),
                line: 3,
                rule: "float-total-order",
                message: "tab\there".to_string(),
                ..Diagnostic::default()
            }],
            files_scanned: 2,
            allows_used: 1,
            baseline_suppressed: 0,
        };
        let j = to_json(&rep);
        assert!(j.contains("\"files_scanned\":2"));
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("tab\\there"));
    }
}
