//! Fixture-driven rule tests: one bad/clean pair per rule, linted
//! through the public `lint_source` entry point with synthetic labels
//! that place the fixture in a specific scope.

use dreamsim_lint::{lint_source, LintReport};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}.rs", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Lint a fixture as if it lived at `label` (scoping is path-based).
fn lint_fixture(name: &str, label: &str) -> LintReport {
    lint_source(label, &fixture(name))
}

/// Label that puts every rule in scope (r1 needs model/engine/sched/
/// sweep; r2 needs a non-cli path).
const IN_SCOPE: &str = "crates/engine/src/fixture.rs";

fn rules_hit(report: &LintReport) -> Vec<&str> {
    report.findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn bad_fixtures_trip_their_rule() {
    for rule in [
        "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11",
    ] {
        let report = lint_fixture(&format!("{rule}_bad"), IN_SCOPE);
        assert!(
            rules_hit(&report).contains(&rule),
            "{rule}_bad.rs should produce at least one {rule} finding, got {:?}",
            rules_hit(&report)
        );
        for f in &report.findings {
            assert_eq!(f.file, IN_SCOPE);
            assert!(f.line > 0, "findings carry 1-based lines");
            assert!(!f.excerpt.is_empty(), "findings carry a source excerpt");
        }
    }
}

#[test]
fn clean_fixtures_are_clean() {
    for rule in [
        "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11",
    ] {
        let report = lint_fixture(&format!("{rule}_clean"), IN_SCOPE);
        assert!(
            report.is_clean(),
            "{rule}_clean.rs should be clean, got {:?}",
            report.findings
        );
    }
}

#[test]
fn bad_fixture_findings_are_line_accurate() {
    let report = lint_fixture("r1_bad", "crates/model/src/table.rs");
    let lines: Vec<u32> = report
        .findings
        .iter()
        .filter(|f| f.rule == "r1")
        .map(|f| f.line)
        .collect();
    // Two `use` lines and two struct fields; the test-module HashMap is
    // exempt.
    assert_eq!(lines, vec![2, 3, 6, 7], "findings: {:?}", report.findings);
}

#[test]
fn r2_clean_pragma_is_counted_with_its_reason() {
    let report = lint_fixture("r2_clean", IN_SCOPE);
    assert!(report.is_clean());
    assert_eq!(report.suppressions.len(), 1);
    let s = &report.suppressions[0];
    assert_eq!(s.rule, "r2");
    assert_eq!(
        s.reason,
        "progress display only; never feeds simulation state"
    );
}

#[test]
fn r1_is_scoped_to_scheduler_visible_crates() {
    let in_cli = lint_fixture("r1_bad", "crates/cli/src/table.rs");
    assert!(
        !rules_hit(&in_cli).contains(&"r1"),
        "r1 must not fire in crates/cli"
    );
    for scope in ["model", "engine", "sched", "sweep"] {
        let report = lint_fixture("r1_bad", &format!("crates/{scope}/src/table.rs"));
        assert!(
            rules_hit(&report).contains(&"r1"),
            "r1 must fire in {scope}"
        );
    }
}

#[test]
fn r2_is_waived_for_cli_only() {
    let report = lint_fixture("r2_bad", "crates/cli/src/main.rs");
    assert!(
        !rules_hit(&report).contains(&"r2"),
        "r2 must be waived for cli, got {:?}",
        report.findings
    );
    for label in [IN_SCOPE, "crates/sweep/src/bench.rs"] {
        assert!(
            rules_hit(&lint_fixture("r2_bad", label)).contains(&"r2"),
            "r2 must fire in {label}"
        );
    }
}

#[test]
fn adhoc_paths_outside_crates_get_the_full_rule_set() {
    let report = lint_fixture("r1_bad", "scratch/table.rs");
    assert!(rules_hit(&report).contains(&"r1"));
}

#[test]
fn r7_is_scoped_to_model_and_engine() {
    for label in [
        "crates/sched/src/x.rs",
        "crates/sweep/src/x.rs",
        "crates/cli/src/x.rs",
    ] {
        let report = lint_fixture("r7_bad", label);
        assert!(
            !rules_hit(&report).contains(&"r7"),
            "r7 must not fire in {label}, got {:?}",
            report.findings
        );
    }
    for scope in ["model", "engine"] {
        let report = lint_fixture("r7_bad", &format!("crates/{scope}/src/x.rs"));
        assert!(
            rules_hit(&report).contains(&"r7"),
            "r7 must fire in {scope}"
        );
    }
}

#[test]
fn r7_bad_findings_cover_both_hazard_shapes() {
    let report = lint_fixture("r7_bad", "crates/engine/src/x.rs");
    let messages: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "r7")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("narrowing cast")),
        "cast shape missing: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("unchecked `+`")),
        "addition shape missing: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("unchecked `*`")),
        "multiplication shape missing: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("unchecked `+=`")),
        "compound-assign shape missing: {messages:?}"
    );
}

#[test]
fn r8_bad_covers_both_proof_halves() {
    let report = lint_fixture("r8_bad", IN_SCOPE);
    let messages: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "r8")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("`Stats`")),
        "unserializable reachable type missing: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("`Simulation::scratch`")),
        "uncovered live field missing: {messages:?}"
    );
}

#[test]
fn r9_bad_flags_the_call_site_with_its_root() {
    let report = lint_fixture("r9_bad", IN_SCOPE);
    let r9: Vec<_> = report.findings.iter().filter(|f| f.rule == "r9").collect();
    assert_eq!(r9.len(), 1, "findings: {:?}", report.findings);
    assert!(r9[0].message.contains("wall_seconds"));
    assert!(r9[0].excerpt.contains("wall_seconds()"));
}

#[test]
fn r9_is_scoped_like_r1() {
    for label in ["crates/cli/src/main.rs", "crates/rng/src/lib.rs"] {
        let report = lint_fixture("r9_bad", label);
        assert!(
            !rules_hit(&report).contains(&"r9"),
            "r9 must not fire in {label}, got {:?}",
            report.findings
        );
    }
    for label in [
        "crates/model/src/x.rs",
        "crates/engine/src/x.rs",
        "crates/sched/src/x.rs",
        "crates/sweep/src/x.rs",
        "crates/sweep/src/bench.rs",
    ] {
        let report = lint_fixture("r9_bad", label);
        assert!(
            rules_hit(&report).contains(&"r9"),
            "r9 must fire in {label}"
        );
    }
}

#[test]
fn r10_and_r11_are_scoped_to_shard_state_crates() {
    for rule in ["r10", "r11"] {
        for label in ["crates/sweep/src/parallel.rs", "crates/cli/src/main.rs"] {
            let report = lint_fixture(&format!("{rule}_bad"), label);
            assert!(
                !rules_hit(&report).contains(&rule),
                "{rule} must not fire in {label}, got {:?}",
                report.findings
            );
        }
        for scope in ["model", "engine", "sched"] {
            let report = lint_fixture(&format!("{rule}_bad"), &format!("crates/{scope}/src/x.rs"));
            assert!(
                rules_hit(&report).contains(&rule),
                "{rule} must fire in {scope}"
            );
        }
    }
}

#[test]
fn r10_bad_covers_static_mut_and_interior_mutability() {
    let report = lint_fixture("r10_bad", IN_SCOPE);
    let messages: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "r10")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("`static mut`")),
        "static-mut shape missing: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("`RefCell`")),
        "cell shape missing: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("`Mutex`")),
        "lock shape missing: {messages:?}"
    );
}

#[test]
fn r11_bad_covers_unsafe_and_raw_pointers() {
    let report = lint_fixture("r11_bad", IN_SCOPE);
    let messages: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "r11")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("`unsafe`")),
        "unsafe shape missing: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("raw pointer `*const`")),
        "*const shape missing: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("raw pointer `*mut`")),
        "*mut shape missing: {messages:?}"
    );
}

#[test]
fn test_trees_are_scanned_for_r2_only() {
    let label = "crates/engine/tests/integration.rs";
    assert!(
        rules_hit(&lint_fixture("r2_bad", label)).contains(&"r2"),
        "r2 must still fire in tests/ trees"
    );
    for rule in ["r1", "r4", "r10"] {
        let report = lint_fixture(&format!("{rule}_bad"), label);
        assert!(
            !rules_hit(&report).contains(&rule),
            "{rule} must be waived in tests/ trees, got {:?}",
            report.findings
        );
    }
}

#[test]
fn malformed_pragma_is_a_p0_finding() {
    let src = "// lint: allow(r1)\nfn f() {}\n";
    let report = lint_source(IN_SCOPE, src);
    assert!(
        rules_hit(&report).contains(&"p0"),
        "reason-less pragma must be flagged, got {:?}",
        report.findings
    );
}

#[test]
fn stale_pragma_is_a_p1_finding() {
    let src = "fn f() -> u32 {\n    // lint: allow(r4) -- nothing to suppress here\n    42\n}\n";
    let report = lint_source(IN_SCOPE, src);
    assert!(
        rules_hit(&report).contains(&"p1"),
        "pragma that suppresses nothing must be flagged, got {:?}",
        report.findings
    );
}
