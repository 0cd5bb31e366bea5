//! Mutation self-check: the negative control behind the workspace's
//! zero-findings claim.
//!
//! A static analyzer that reports zero findings could be vacuously
//! blind (a parse regression, a scope typo) and nobody would notice.
//! This test seeds the two headline hazards into copies of the *real*
//! engine sources and asserts the proofs catch them:
//!
//! * a fresh `Simulation` field with no `// REBUILD:` note → r8 must
//!   fire;
//! * a transitive `SystemTime::now()` helper called from a new engine
//!   fn → r9 must fire at the call site.

use dreamsim_lint::lint_sources;

/// Read one of the real engine sources.
fn engine_src(name: &str) -> String {
    let path = format!("{}/../engine/src/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The file set the checkpoint proof needs: the live struct, the
/// snapshot struct, and the stats types both reference.
fn file_set(sim: String) -> Vec<(String, String)> {
    vec![
        ("crates/engine/src/sim.rs".to_string(), sim),
        (
            "crates/engine/src/checkpoint.rs".to_string(),
            engine_src("checkpoint.rs"),
        ),
        (
            "crates/engine/src/stats.rs".to_string(),
            engine_src("stats.rs"),
        ),
    ]
}

#[test]
fn unmutated_sources_carry_no_r8_r9_findings() {
    let report = lint_sources(&file_set(engine_src("sim.rs")));
    let symbol_findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "r8" || f.rule == "r9")
        .collect();
    assert!(
        symbol_findings.is_empty(),
        "baseline must be clean: {symbol_findings:?}"
    );
}

#[test]
fn injected_unserialized_field_trips_r8() {
    let sim = engine_src("sim.rs");
    let anchor = "    checkpoint_bytes: u64,\n}";
    assert_eq!(
        sim.matches(anchor).count(),
        1,
        "Simulation's last field moved; update the mutation anchor"
    );
    let mutated = sim.replace(
        anchor,
        "    checkpoint_bytes: u64,\n    injected_unserialized_field: u64,\n}",
    );
    let report = lint_sources(&file_set(mutated));
    assert!(
        report.findings.iter().any(|f| f.rule == "r8"
            && f.file == "crates/engine/src/sim.rs"
            && f.message
                .contains("`Simulation::injected_unserialized_field`")),
        "seeded uncovered field must be caught, got {:?}",
        report.findings
    );
}

#[test]
fn injected_transitive_wall_clock_trips_r9() {
    let mut sim = engine_src("sim.rs");
    sim.push_str(
        "\nfn injected_wall_probe() -> u64 {\n    \
         std::time::SystemTime::now().elapsed().unwrap_or_default().as_secs()\n}\n\n\
         pub fn injected_service_hook(base: u64) -> u64 {\n    \
         base.max(injected_wall_probe())\n}\n",
    );
    let report = lint_sources(&file_set(sim));
    assert!(
        report.findings.iter().any(|f| f.rule == "r9"
            && f.file == "crates/engine/src/sim.rs"
            && f.message.contains("injected_wall_probe")),
        "seeded transitive entropy must be caught, got {:?}",
        report.findings
    );
    // The direct read is still r2's job — both layers must report.
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "r2" && f.message.contains("std::time")),
        "direct read must also be caught, got {:?}",
        report.findings
    );
}
