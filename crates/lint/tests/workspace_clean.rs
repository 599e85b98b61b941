//! The meta-gate: linting the live workspace from inside `cargo test`
//! must report zero non-allowed diagnostics, so the determinism /
//! numerics / serving contracts are enforced even for contributors who
//! never run `ci.sh`.

use std::path::PathBuf;

use cardest_lint::baseline::Baseline;
use cardest_lint::{lint_paths, lint_paths_semantic, lint_sources_semantic};

fn crates_dir() -> PathBuf {
    // crates/lint -> crates
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(PathBuf::from)
        .unwrap_or_default()
}

#[test]
fn live_workspace_has_zero_non_allowed_diagnostics() {
    let report = lint_paths(&[crates_dir()]).expect("lint the crates tree");
    assert!(
        report.diagnostics.is_empty(),
        "cardest-lint found violations in the live workspace:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| format!("  {}:{}: [{}] {}", d.file, d.line, d.rule, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_walk_actually_covers_the_workspace() {
    // Guard against a silent no-op gate (wrong directory, over-eager
    // skip list): the walk must see every crate's sources.
    let report = lint_paths(&[crates_dir()]).expect("lint the crates tree");
    assert!(
        report.files_scanned >= 50,
        "only {} files scanned — walker is skipping too much",
        report.files_scanned
    );
    // The 23 documented allows (exact-zero compares, VAE exp math, LSH
    // ordering, the sanctioned clock) must all still be load-bearing.
    assert!(
        report.allows_used >= 23,
        "only {} allow pragmas in effect — pragmas and violations drifted apart",
        report.allows_used
    );
}

fn checked_in_baseline() -> Baseline {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baseline.txt");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
    Baseline::parse(&text).expect("parse checked-in baseline")
}

#[test]
fn live_workspace_is_semantically_clean_modulo_baseline() {
    let mut report = lint_paths_semantic(&[crates_dir()]).expect("semantic pass");
    checked_in_baseline().apply(&mut report);
    assert!(
        report.diagnostics.is_empty(),
        "semantic pass found non-baselined violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| format!(
                "  {}:{}: [{}] in `{}`: {}",
                d.file, d.line, d.rule, d.function, d.message
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The baseline must not rot: every entry it accepts must still match
    // a real diagnostic, or stale entries would mask future violations.
    assert!(
        report.baseline_suppressed >= 20,
        "only {} diagnostics baselined — baseline.txt has gone stale; regenerate it",
        report.baseline_suppressed
    );
}

/// The negative control for the whole semantic pipeline: splice an
/// `unwrap()` into a real serving-path function in the real server source
/// and assert the pass catches it as a *new*, non-baselined diagnostic.
/// If entry-point detection, call-graph resolution, reachability, pragma
/// scoping, or baseline keying ever regress into silence, this fails.
#[test]
fn a_seeded_unwrap_in_a_serving_path_is_caught() {
    let crates = crates_dir();
    let mut sources = Vec::new();
    let mut stack = vec![crates.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("walk crates") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != "fixtures" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let src = std::fs::read_to_string(&path).expect("read source");
                sources.push((path.to_string_lossy().replace('\\', "/"), src));
            }
        }
    }

    // Seed the bug at the top of `route_request`'s body in the real
    // server source.
    let server = sources
        .iter_mut()
        .find(|(p, _)| p.ends_with("crates/server/src/server.rs"))
        .expect("server.rs present");
    let needle = "fn route_request(";
    let at = server.1.find(needle).expect("route_request exists");
    let body_open = server.1[at..].find('{').map(|o| at + o + 1).expect("body");
    server.1.insert_str(
        body_open,
        "\n    let _seeded: Option<u32> = None;\n    let _ = _seeded.unwrap();\n",
    );

    let mut report = lint_sources_semantic(&sources);
    checked_in_baseline().apply(&mut report);
    let caught = report.diagnostics.iter().any(|d| {
        d.rule == "serving-panic-reachability"
            && d.kind == "unwrap"
            && d.file.ends_with("crates/server/src/server.rs")
            && d.function == "route_request"
    });
    assert!(
        caught,
        "seeded unwrap in route_request was not caught; got: {:?}",
        report.diagnostics
    );
}
