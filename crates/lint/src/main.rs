//! `dreamsim-lint` — standalone front end for the determinism lint
//! engine.
//!
//! ```text
//! USAGE:
//!   dreamsim-lint [--root DIR] [--format text|json|sarif] [--out FILE]
//!                 [--list-rules] [FILES...]
//! ```
//!
//! With no `FILES`, walks every `crates/*/src` tree under `--root`
//! (default `.`) plus the facade crate's `src/` and the
//! `tests/`/`examples/` trees (r2 only; see `walk.rs`). Exit code 0
//! when clean, 1 when there are unsuppressed findings, 2 on usage or
//! I/O errors, so it slots directly into CI as a blocking gate.

use dreamsim_lint::{lint_files, lint_workspace, render, rule_catalogue, Format};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
dreamsim-lint — static determinism checks for the DReAMSim workspace

USAGE:
  dreamsim-lint [--root DIR] [--format text|json|sarif] [--out FILE]
                [--list-rules] [FILES...]

Walks crates/*/src plus tests/ and examples/ trees (r2 only) and
reports determinism hazards: nondeterministic iteration,
wall-clock/entropy reads, float equality, unjustified panics, unstable
sorts, undocumented #[serde(skip)] fields, unchecked counter arithmetic,
unproven checkpoint coverage, transitive entropy via helper fns, and
shard-unsafe state (interior mutability, unsafe, raw pointers).
Suppress a finding with a `lint: allow(<rule>) -- <reason>` comment;
the reason is mandatory and every suppression is counted in the
report. --format sarif emits SARIF 2.1.0 for CI check annotations.

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/IO error.
";

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut root = PathBuf::from(".");
    let mut format = Format::Text;
    let mut out_file: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    // lint: allow(r2) -- the lint binary parses its own argv, not simulator state
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(need(&mut args, "--root")?),
            "--format" => format = need(&mut args, "--format")?.parse()?,
            "--out" => out_file = Some(PathBuf::from(need(&mut args, "--out")?)),
            "--list-rules" => {
                print!("{}", rule_catalogue());
                return Ok(true);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(true);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}\n{USAGE}"));
            }
            _ => files.push(PathBuf::from(arg)),
        }
    }

    let report = if files.is_empty() {
        lint_workspace(&root)
    } else {
        lint_files(&root, &files)
    }
    .map_err(|e| format!("scan failed: {e}"))?;

    let rendered = render(&report, format);
    match &out_file {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path:?}: {e}"))?;
            eprintln!(
                "dreamsim-lint: {} finding(s), {} suppression(s), {} file(s) -> {}",
                report.findings.len(),
                report.suppressions.len(),
                report.files_scanned,
                path.display()
            );
        }
        None => print!("{rendered}"),
    }
    Ok(report.is_clean())
}

fn need(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}
