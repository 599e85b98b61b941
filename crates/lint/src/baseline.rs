//! Checked-in diagnostic baseline.
//!
//! The semantic pass gates CI on *new* findings only: a baseline file
//! (`crates/lint/baseline.txt`) records accepted pre-existing diagnostics
//! as `(rule, file, function, kind) -> count` entries. Keying on the
//! containing function rather than the line keeps the baseline stable
//! under unrelated edits, while the count still catches a *second*
//! violation of the same shape appearing in an already-baselined function
//! (the seeded-bug negative test relies on this).
//!
//! The workflow: prefer fixing or pragma-annotating a finding; when a
//! finding must be deferred, run `cardest-lint
//! --write-baseline=crates/lint/baseline.txt crates` and commit the diff —
//! every baseline entry is visible in review, like a pragma without a
//! reason string (which is why an empty baseline is the healthy state).

use std::collections::BTreeMap;

use crate::engine::Report;
use crate::rules::Diagnostic;

/// Accepted diagnostic counts, keyed by `rule\tfile\tfunction\tkind`.
#[derive(Debug, Default)]
pub struct Baseline {
    counts: BTreeMap<String, usize>,
}

/// Normalizes a diagnostic path so baselines survive being generated from
/// different working directories (absolute vs repo-relative).
pub fn norm_path(path: &str) -> &str {
    match path.find("crates/") {
        Some(i) => &path[i..],
        None => path,
    }
}

fn key(d: &Diagnostic) -> String {
    format!(
        "{}\t{}\t{}\t{}",
        d.rule,
        norm_path(&d.file),
        d.function,
        d.kind
    )
}

impl Baseline {
    /// Parses the `rule<TAB>file<TAB>function<TAB>kind<TAB>count` format;
    /// `#` comments and blank lines are ignored.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 5 {
                return Err(format!(
                    "baseline line {}: expected 5 tab-separated fields, got {}",
                    lineno + 1,
                    fields.len()
                ));
            }
            let count: usize = fields[4]
                .parse()
                .map_err(|_| format!("baseline line {}: bad count `{}`", lineno + 1, fields[4]))?;
            let k = format!("{}\t{}\t{}\t{}", fields[0], fields[1], fields[2], fields[3]);
            *counts.entry(k).or_insert(0) += count;
        }
        Ok(Baseline { counts })
    }

    /// Builds a baseline accepting every diagnostic in `diags`.
    pub fn from_diags(diags: &[Diagnostic]) -> Baseline {
        let mut counts = BTreeMap::new();
        for d in diags {
            *counts.entry(key(d)).or_insert(0) += 1;
        }
        Baseline { counts }
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Renders the baseline in its file format.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "# cardest-lint baseline: accepted diagnostics, one per line as\n\
             # rule<TAB>file<TAB>function<TAB>kind<TAB>count\n\
             # Regenerate: cargo run -p cardest-lint -- \
             --write-baseline=crates/lint/baseline.txt crates\n",
        );
        for (k, c) in &self.counts {
            s.push_str(k);
            s.push('\t');
            s.push_str(&c.to_string());
            s.push('\n');
        }
        s
    }

    /// Removes baselined diagnostics from `report` (up to the accepted
    /// count per key), recording how many were absorbed. Diagnostics
    /// beyond a key's count — e.g. a *new* unwrap in a function that
    /// already had one accepted — stay in the report.
    pub fn apply(&self, report: &mut Report) {
        let mut remaining = self.counts.clone();
        let mut absorbed = 0usize;
        report.diagnostics.retain(|d| {
            if let Some(c) = remaining.get_mut(&key(d)) {
                if *c > 0 {
                    *c -= 1;
                    absorbed += 1;
                    return false;
                }
            }
            true
        });
        report.baseline_suppressed += absorbed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rule: &'static str, file: &str, function: &str, kind: &str, line: u32) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line,
            rule,
            message: "m".to_string(),
            function: function.to_string(),
            kind: kind.to_string(),
        }
    }

    #[test]
    fn roundtrip_and_count_semantics() {
        let diags = vec![
            d(
                "serving-panic-reachability",
                "crates/a/src/x.rs",
                "f",
                "unwrap",
                10,
            ),
            d(
                "serving-panic-reachability",
                "crates/a/src/x.rs",
                "f",
                "unwrap",
                20,
            ),
            d(
                "lock-discipline",
                "crates/b/src/y.rs",
                "S::g",
                "order-inversion",
                5,
            ),
        ];
        let base = Baseline::parse(&Baseline::from_diags(&diags).render()).unwrap();
        assert!(!base.is_empty());

        // Same shape, different lines: fully absorbed.
        let mut rep = Report {
            diagnostics: diags.clone(),
            ..Report::default()
        };
        base.apply(&mut rep);
        assert!(rep.diagnostics.is_empty());
        assert_eq!(rep.baseline_suppressed, 3);

        // A third unwrap in `f` exceeds the accepted count and survives.
        let mut extra = diags.clone();
        extra.push(d(
            "serving-panic-reachability",
            "crates/a/src/x.rs",
            "f",
            "unwrap",
            30,
        ));
        let mut rep = Report {
            diagnostics: extra,
            ..Report::default()
        };
        base.apply(&mut rep);
        assert_eq!(rep.diagnostics.len(), 1);
        assert_eq!(rep.diagnostics[0].line, 30);
    }

    #[test]
    fn paths_normalize_across_working_directories() {
        let accepted = vec![d(
            "error-taxonomy",
            "/abs/repo/crates/a/src/x.rs",
            "f",
            "stringly-error",
            1,
        )];
        let base = Baseline::from_diags(&accepted);
        let mut rep = Report {
            diagnostics: vec![d(
                "error-taxonomy",
                "crates/a/src/x.rs",
                "f",
                "stringly-error",
                99,
            )],
            ..Report::default()
        };
        base.apply(&mut rep);
        assert!(rep.diagnostics.is_empty());
    }

    #[test]
    fn malformed_baseline_lines_error() {
        assert!(Baseline::parse("only\tthree\tfields").is_err());
        assert!(Baseline::parse("a\tb\tc\td\tnot-a-number").is_err());
        assert!(Baseline::parse("# comment\n\n").unwrap().is_empty());
    }
}
