//! Fixture-driven self-tests: every rule has one must-fire and one
//! must-not-fire fixture under `crates/lint/fixtures/`. Fixtures carry a
//! `cardest-lint-fixture: path=` directive so path-scoped rules see them
//! as if they lived in the real tree, and they are excluded from
//! directory walks so the workspace gate stays clean.

use std::path::PathBuf;
use std::process::Command;

use cardest_lint::{lint_source, lint_sources_semantic, rules, semrules};

const RULES: [&str; 4] = [
    "nondeterminism",
    "raw-exp-decode",
    "float-total-order",
    "bad-pragma",
];

/// Semantic rules, exercised by fixture pairs under `fixtures/sem/`.
const SEM_RULES: [&str; 4] = [
    "serving-panic-reachability",
    "lock-discipline",
    "durability-protocol",
    "error-taxonomy",
];

fn fixture(name: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    (path.to_string_lossy().replace('\\', "/"), src)
}

#[test]
fn every_rule_has_a_firing_fixture() {
    for rule in RULES {
        let (path, src) = fixture(&format!("{rule}_fire.rs"));
        let report = lint_source(&path, &src);
        assert!(
            report.diagnostics.iter().any(|d| d.rule == rule),
            "{rule}_fire.rs did not fire `{rule}`; got {:?}",
            report.diagnostics
        );
    }
}

#[test]
fn every_rule_has_a_non_firing_fixture() {
    for rule in RULES {
        let (path, src) = fixture(&format!("{rule}_clean.rs"));
        let report = lint_source(&path, &src);
        assert!(
            report.is_clean(),
            "{rule}_clean.rs should be clean; got {:?}",
            report.diagnostics
        );
    }
}

#[test]
fn fire_fixtures_report_the_expected_sites() {
    // Spot-check line anchoring, not just rule presence.
    let (path, src) = fixture("nondeterminism_fire.rs");
    let report = lint_source(&path, &src);
    let lines: Vec<u32> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "nondeterminism")
        .map(|d| d.line)
        .collect();
    // Instant::now, HashMap (use + ctor + type), HashSet (use + ctor +
    // type) all fire.
    assert!(lines.len() >= 4, "expected >=4 sites, got {lines:?}");

    let (path, src) = fixture("float-total-order_fire.rs");
    let report = lint_source(&path, &src);
    let lines: Vec<u32> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "float-total-order")
        .map(|d| d.line)
        .collect();
    assert_eq!(lines, vec![5, 9], "{:?}", report.diagnostics);
}

fn sem_fixture(name: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("sem")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    (path.to_string_lossy().replace('\\', "/"), src)
}

#[test]
fn every_semantic_rule_has_a_firing_fixture() {
    for rule in SEM_RULES {
        let (path, src) = sem_fixture(&format!("{rule}_fire.rs"));
        let report = lint_sources_semantic(&[(path, src)]);
        assert!(
            report.diagnostics.iter().any(|d| d.rule == rule),
            "{rule}_fire.rs did not fire `{rule}`; got {:?}",
            report.diagnostics
        );
    }
}

#[test]
fn every_semantic_rule_has_a_non_firing_fixture() {
    for rule in SEM_RULES {
        let (path, src) = sem_fixture(&format!("{rule}_clean.rs"));
        let report = lint_sources_semantic(&[(path, src)]);
        assert!(
            report.is_clean(),
            "{rule}_clean.rs should be semantically clean; got {:?}",
            report.diagnostics
        );
    }
}

#[test]
fn serving_panic_diagnostics_carry_the_witness_path() {
    let (path, src) = sem_fixture("serving-panic-reachability_fire.rs");
    let report = lint_sources_semantic(&[(path, src)]);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "serving-panic-reachability")
        .expect("rule fired");
    assert!(
        d.message.contains("handle_estimate -> decode -> parse_len"),
        "witness path missing from: {}",
        d.message
    );
    assert_eq!(d.function, "parse_len");
    assert_eq!(d.kind, "unwrap");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.kind == "panic-macro")
        .expect("panic! fired");
    assert_eq!(d.function, "render");
    assert!(d.message.contains("handle_estimate -> render"), "{d:?}");
}

#[test]
fn lock_fixture_fires_both_inversion_and_guard_across_blocking() {
    let (path, src) = sem_fixture("lock-discipline_fire.rs");
    let report = lint_sources_semantic(&[(path, src)]);
    let kinds: Vec<&str> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "lock-discipline")
        .map(|d| d.kind.as_str())
        .collect();
    assert!(
        kinds.contains(&"order-inversion"),
        "no order-inversion in {kinds:?}"
    );
    assert!(
        kinds.contains(&"guard-across-blocking"),
        "no guard-across-blocking in {kinds:?}"
    );
}

#[test]
fn semantic_registry_and_fixture_list_agree() {
    let mut registered: Vec<&str> = semrules::semantic_registry()
        .iter()
        .map(|(id, _)| *id)
        .collect();
    registered.sort_unstable();
    let mut covered = SEM_RULES.to_vec();
    covered.sort_unstable();
    assert_eq!(registered, covered);
}

#[test]
fn cli_exits_nonzero_on_a_semantic_fixture() {
    let bin = env!("CARGO_BIN_EXE_cardest-lint");
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("sem");
    let out = Command::new(bin)
        .arg("--format=json")
        .arg(dir.join("durability-protocol_fire.rs"))
        .output()
        .expect("run cardest-lint");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"rule\":\"durability-protocol\""), "{json}");
    assert!(json.contains("\"function\":\"save_segment\""), "{json}");
}

#[test]
fn registry_and_fixture_list_agree() {
    // Every registered rule (plus the bad-pragma meta-rule) is exercised
    // by this suite; a new rule without fixtures fails here.
    let mut registered: Vec<&str> = rules::registry().iter().map(|r| r.id).collect();
    registered.push(rules::BAD_PRAGMA);
    registered.sort_unstable();
    let mut covered = RULES.to_vec();
    covered.sort_unstable();
    assert_eq!(registered, covered);
}

#[test]
fn cli_exits_nonzero_on_fire_fixtures_and_zero_on_clean() {
    let bin = env!("CARGO_BIN_EXE_cardest-lint");
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    for rule in RULES {
        let fire = Command::new(bin)
            .arg(dir.join(format!("{rule}_fire.rs")))
            .output()
            .expect("run cardest-lint");
        assert_eq!(
            fire.status.code(),
            Some(1),
            "{rule}_fire.rs should exit 1: {}",
            String::from_utf8_lossy(&fire.stdout)
        );
        let clean = Command::new(bin)
            .arg(dir.join(format!("{rule}_clean.rs")))
            .output()
            .expect("run cardest-lint");
        assert_eq!(
            clean.status.code(),
            Some(0),
            "{rule}_clean.rs should exit 0: {}",
            String::from_utf8_lossy(&clean.stdout)
        );
    }
}

#[test]
fn cli_json_output_is_machine_readable() {
    let bin = env!("CARGO_BIN_EXE_cardest-lint");
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let out = Command::new(bin)
        .arg("--format=json")
        .arg(dir.join("float-total-order_fire.rs"))
        .output()
        .expect("run cardest-lint");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.starts_with("{\"files_scanned\":1"));
    assert!(json.contains("\"rule\":\"float-total-order\""));
    assert!(json.contains("\"line\":"));
    assert!(json.trim_end().ends_with("]}"));
}
