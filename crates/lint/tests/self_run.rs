//! The linter runs on its own workspace: the tree must be clean, and
//! every suppression must carry a reason. This is the in-repo version
//! of the blocking CI gate.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let report = dreamsim_lint::lint_workspace(workspace_root()).expect("workspace walk");
    assert!(
        report.is_clean(),
        "the workspace must lint clean; findings:\n{}",
        dreamsim_lint::render(&report, dreamsim_lint::Format::Text)
    );
}

#[test]
fn every_suppression_carries_a_reason() {
    let report = dreamsim_lint::lint_workspace(workspace_root()).expect("workspace walk");
    assert!(
        !report.suppressions.is_empty(),
        "the tree is expected to carry at least the documented pragmas \
         (balancer zero-guards, lint argv); if all were removed, drop \
         this assertion"
    );
    for s in &report.suppressions {
        assert!(
            !s.reason.trim().is_empty(),
            "suppression at {}:{} has an empty reason",
            s.file,
            s.line
        );
    }
}

#[test]
fn walk_covers_crate_and_test_trees_but_not_fixtures() {
    let files = dreamsim_lint::walk::workspace_files(workspace_root()).expect("walk");
    let labels: Vec<String> = files
        .iter()
        .map(|p| dreamsim_lint::walk::label_for(workspace_root(), p))
        .collect();
    assert!(
        labels.iter().any(|l| l.starts_with("crates/lint/src/")),
        "the linter scans itself"
    );
    // tests/ trees are in scope (r2 only — see walk.rs), but the
    // deliberately-bad fixtures under crates/lint/tests/fixtures/ must
    // never pollute the workspace report.
    assert!(
        labels.iter().any(|l| l.starts_with("tests/")),
        "root tests/ tree must be walked for r2; got {labels:?}"
    );
    assert!(
        labels.iter().any(|l| l.starts_with("crates/sweep/tests/")),
        "crate tests/ trees must be walked for r2; got {labels:?}"
    );
    assert!(
        labels.iter().any(|l| l.starts_with("examples/")),
        "root examples/ tree must be walked for r2; got {labels:?}"
    );
    assert!(
        !labels.iter().any(|l| l.contains("fixtures")),
        "fixture directories hold deliberately-bad sources and must be \
         excluded; got {labels:?}"
    );
}
