//! Deterministic, path-based workspace walk.
//!
//! The walk is driven by the directory layout, **not** by cargo
//! metadata, so it needs no build and no registry.
//!
//! ## Scan roots and exclusion rules
//!
//! * Every `crates/<name>/src` directory plus the facade crate's
//!   `src/` gets the full rule set.
//! * `crates/<name>/tests`, `crates/<name>/examples`, and the root
//!   `tests/` and `examples/` trees are also walked, but
//!   [`rule_applies`](crate::rules::rule_applies) restricts them to r2
//!   (wall-clock/env): test code may allocate hash maps and unwrap
//!   freely, but an ambient-entropy read in a test masks exactly the
//!   divergence the differential suites exist to catch.
//! * `fixtures/` subdirectories under any `tests/` tree are skipped —
//!   `crates/lint/tests/fixtures/` holds the deliberately-hazardous
//!   rule fixtures, which must never fail the workspace's own gate.
//! * `benches/` trees stay out of scope entirely: bench code measures
//!   wall-clock time by design (the same reason r2 waives `bench.rs`).
//!
//! Directory entries are sorted before recursion so the report order —
//! and therefore the uploaded CI artifact — is byte-stable across
//! filesystems.

use std::io;
use std::path::{Path, PathBuf};

/// Collect every `.rs` file under the workspace's scan roots, sorted.
///
/// # Errors
/// Propagates filesystem errors other than a missing optional root.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in sorted_entries(&crates_dir)? {
            for tree in ["src", "tests", "examples"] {
                let dir = krate.join(tree);
                if dir.is_dir() {
                    collect_rs(&dir, &mut files)?;
                }
            }
        }
    }
    for tree in ["src", "tests", "examples"] {
        let dir = root.join(tree);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively gather `.rs` files under `dir` (sorted within each
/// directory by the sorted `read_dir`).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in sorted_entries(dir)? {
        if entry.is_dir() {
            // Fixture directories hold deliberately-hazardous sources
            // (see the module docs) and are never part of the gate.
            if entry.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// `read_dir` with a defined order: the OS yields entries in arbitrary
/// order, which would make finding order nondeterministic — exactly the
/// class of bug this tool exists to catch.
fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = Vec::new();
    for e in std::fs::read_dir(dir)? {
        entries.push(e?.path());
    }
    entries.sort();
    Ok(entries)
}

/// Workspace-relative label (with `/` separators) for a scanned path.
#[must_use]
pub fn label_for(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_relative_and_slash_separated() {
        let root = Path::new("/repo");
        let p = Path::new("/repo/crates/model/src/store.rs");
        assert_eq!(label_for(root, p), "crates/model/src/store.rs");
        let outside = Path::new("/elsewhere/x.rs");
        assert_eq!(label_for(root, outside), "/elsewhere/x.rs");
    }
}
