//! # dreamsim-lint — the determinism lint engine
//!
//! Every headline property of this workspace — byte-identical
//! checkpoint resume, the engine's agreement with the executable paper
//! spec, seeded figure sweeps — rests on the simulator being strictly deterministic.
//! This crate enforces that property at the *source* level with a small
//! hand-rolled Rust lexer (comments, strings, raw strings, char
//! literals, and `#[cfg(test)]` regions are classified correctly; no
//! crates.io dependencies) and a rule engine that walks every
//! `crates/*/src` file.
//!
//! Beyond the token rules, a lightweight item [`parser`] recovers
//! structs, fields, fns, and call edges, feeding the workspace-global
//! [`symbols`] analyses: the checkpoint-coverage proof (r8) and
//! interprocedural nondeterminism taint (r9).
//!
//! See [`rules`] for the rule catalogue (r1–r11 plus the pragma
//! meta-rules p0/p1) and [`engine`] for the suppression-pragma syntax.
//! DESIGN.md §12 documents how to add a token rule; §17 documents the
//! symbol model and the global analyses.
//!
//! Three front ends share this library: the standalone `dreamsim-lint`
//! binary, the `dreamsim lint` CLI subcommand, and the blocking CI job.

pub mod engine;
pub mod lexer;
pub mod parser;
pub mod regions;
pub mod rules;
pub mod sarif;
pub mod symbols;
pub mod walk;

pub use engine::{lint_source, lint_sources, Finding, LintReport, Suppression};
pub use rules::{rule_info, RuleInfo, RULES};

use std::io;
use std::path::Path;

/// Output format for [`render`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Human-readable text.
    Text,
    /// Machine-readable JSON (the CI artifact format).
    Json,
    /// SARIF 2.1.0 (the CI annotation format; see [`sarif`]).
    Sarif,
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(Self::Text),
            "json" => Ok(Self::Json),
            "sarif" => Ok(Self::Sarif),
            other => Err(format!(
                "--format must be text, json, or sarif, got {other:?}"
            )),
        }
    }
}

/// Lint the whole workspace rooted at `root` (path-based walk; see
/// [`walk::workspace_files`] for what is in scope).
///
/// # Errors
/// Propagates filesystem errors from the walk or from reading a source
/// file.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let files = walk::workspace_files(root)?;
    lint_paths(root, &files)
}

/// Lint an explicit list of files, labelling each relative to `root`.
///
/// # Errors
/// Propagates filesystem errors from reading a source file.
pub fn lint_files(root: &Path, paths: &[std::path::PathBuf]) -> io::Result<LintReport> {
    lint_paths(root, paths)
}

/// Read the files and run the multi-file analysis over the whole set
/// (the global r8/r9 passes must see every file at once).
fn lint_paths(root: &Path, paths: &[std::path::PathBuf]) -> io::Result<LintReport> {
    let mut sources = Vec::with_capacity(paths.len());
    for path in paths {
        sources.push((walk::label_for(root, path), std::fs::read_to_string(path)?));
    }
    Ok(lint_sources(&sources))
}

/// Render a report in the requested format.
#[must_use]
pub fn render(report: &LintReport, format: Format) -> String {
    match format {
        Format::Sarif => sarif::render_sarif(report),
        Format::Json => serde_json::to_string_pretty(report)
            // INVARIANT: LintReport is strings and integers only; the
            // serializer has no failure mode for those shapes.
            .expect("lint report serialization cannot fail"),
        Format::Text => {
            let mut out = String::new();
            for f in &report.findings {
                out.push_str(&format!(
                    "{}:{} [{}] {}\n    {}\n",
                    f.file, f.line, f.rule, f.message, f.excerpt
                ));
            }
            for s in &report.suppressions {
                out.push_str(&format!(
                    "{}:{} [{}] suppressed -- {}\n",
                    s.file, s.line, s.rule, s.reason
                ));
            }
            let counts = report
                .counts_by_rule()
                .into_iter()
                .map(|(r, n)| format!("{r}: {n}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "{} finding(s){} in {} file(s) scanned; {} suppression(s) with reasons\n",
                report.findings.len(),
                if counts.is_empty() {
                    String::new()
                } else {
                    format!(" ({counts})")
                },
                report.files_scanned,
                report.suppressions.len(),
            ));
            out
        }
    }
}

/// One line per rule, for `--list-rules` and the CLI help.
#[must_use]
pub fn rule_catalogue() -> String {
    RULES
        .iter()
        .map(|r| format!("{:4} {:20} {}\n", r.id, r.name, r.summary))
        .collect()
}
