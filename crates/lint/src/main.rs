// Mirror the library's self-discipline in the binary crate root.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

//! `cardest-lint` CLI: `cardest-lint [--format=text|json]
//! [--baseline=FILE] [--write-baseline=FILE] [--report=FILE]
//! [--list-rules] [paths...]`. Runs the lexical rules and the semantic
//! (call-graph) pass. Paths default to `crates`. Exit code 0 means no
//! diagnostics, 1 means violations were found, 2 means usage or I/O
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use cardest_lint::baseline::Baseline;
use cardest_lint::{engine, rules, semrules};

enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--format=text" => format = Format::Text,
            "--format=json" | "--json" => format = Format::Json,
            "--list-rules" => {
                for r in rules::registry() {
                    println!("{:26} {}", r.id, r.summary);
                }
                println!(
                    "{:26} malformed or reason-less suppression pragma (meta-rule)",
                    rules::BAD_PRAGMA
                );
                for (id, summary) in semrules::semantic_registry() {
                    println!("{id:26} {summary} (semantic)");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                if let Some(p) = other.strip_prefix("--baseline=") {
                    baseline_path = Some(PathBuf::from(p));
                } else if let Some(p) = other.strip_prefix("--write-baseline=") {
                    write_baseline = Some(PathBuf::from(p));
                } else if let Some(p) = other.strip_prefix("--report=") {
                    report_path = Some(PathBuf::from(p));
                } else if other.starts_with("--") {
                    eprintln!("cardest-lint: unknown flag `{other}`");
                    print_help();
                    return ExitCode::from(2);
                } else {
                    paths.push(PathBuf::from(other));
                }
            }
        }
    }
    if paths.is_empty() {
        paths.push(PathBuf::from("crates"));
    }

    let linted = engine::lint_paths(&paths)
        .and_then(|lexical| Ok((lexical, engine::lint_paths_semantic(&paths)?)));
    let (mut report, sem) = match linted {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cardest-lint: {e}");
            return ExitCode::from(2);
        }
    };
    report.diagnostics.extend(sem.diagnostics);
    report.allows_used += sem.allows_used;
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    if let Some(p) = &write_baseline {
        let base = Baseline::from_diags(&report.diagnostics);
        if let Err(e) = std::fs::write(p, base.render()) {
            eprintln!("cardest-lint: cannot write {}: {e}", p.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "cardest-lint: wrote baseline with {} diagnostic(s) to {}",
            report.diagnostics.len(),
            p.display()
        );
    }
    if let Some(p) = &baseline_path {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cardest-lint: cannot read {}: {e}", p.display());
                return ExitCode::from(2);
            }
        };
        let base = match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cardest-lint: {}: {e}", p.display());
                return ExitCode::from(2);
            }
        };
        base.apply(&mut report);
    }

    let json = engine::to_json(&report);
    if let Some(p) = &report_path {
        if let Err(e) = std::fs::write(p, &json) {
            eprintln!("cardest-lint: cannot write {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }
    match format {
        Format::Json => println!("{json}"),
        Format::Text => {
            for d in &report.diagnostics {
                if d.function.is_empty() {
                    println!("{}:{}: [{}] {}", d.file, d.line, d.rule, d.message);
                } else {
                    println!(
                        "{}:{}: [{}] in `{}`: {}",
                        d.file, d.line, d.rule, d.function, d.message
                    );
                }
            }
            eprintln!(
                "cardest-lint: {} diagnostic(s) across {} file(s) ({} allow pragma(s) in \
                 effect, {} baselined)",
                report.diagnostics.len(),
                report.files_scanned,
                report.allows_used,
                report.baseline_suppressed
            );
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_help() {
    println!(
        "cardest-lint: invariant checker for the cardest workspace\n\n\
         USAGE: cardest-lint [OPTIONS] [paths...]\n\n\
         OPTIONS:\n\
         \x20   --format=text|json   output format (--json is shorthand)\n\
         \x20   --baseline=FILE      subtract the checked-in baseline; only\n\
         \x20                        new diagnostics fail the run\n\
         \x20   --write-baseline=FILE  accept current diagnostics as baseline\n\
         \x20   --report=FILE        also write the JSON report to FILE\n\
         \x20   --list-rules         print the rule catalogue\n\n\
         Runs the lexical rules and the call-graph rules (panic reachability,\n\
         lock discipline, durability, error taxonomy) over the whole file set.\n\
         Paths default to `crates`. Directories are walked recursively for\n\
         .rs files (skipping target/, fixtures/, and hidden directories).\n\
         Suppress a diagnostic with an inline pragma carrying a reason:\n\n\
             // cardest-lint: allow(<rule>): <why this is legitimate>\n\n\
         Exit codes: 0 clean, 1 diagnostics found, 2 usage/IO error."
    );
}
