//! Rolling checkpoint ring for the open-system service driver.
//!
//! A ring is a directory of periodic checkpoints named
//! `checkpoint-<clock:012>.dsc` with **bounded retention**: after every
//! successful write the oldest entries beyond the retention budget are
//! pruned. Writes go through [`crate::checkpoint::write_checkpoint`]'s
//! atomic tmp-then-rename path, so a crash mid-write never leaves a
//! half-written `.dsc` file — at worst an orphaned `.tmp`, which scans
//! ignore.
//!
//! ## Determinism
//!
//! Directory iteration order is filesystem-specific, so every scan
//! sorts entries by path before acting on them (the determinism-lint r2
//! spirit applied to the filesystem): recovery picks the same snapshot
//! and pruning deletes the same files on any filesystem. Entry names
//! zero-pad the clock to 12 digits, making the path order the clock
//! order.
//!
//! ## Safety invariant
//!
//! Pruning runs only immediately after a successful write and removes
//! only the *oldest* entries beyond retention (retention is at least
//! one), so the newest — just written and fsynced — snapshot is never
//! deleted. Combined with atomic writes, a valid snapshot always
//! survives a crash at any instant.

use crate::checkpoint::{self, Checkpoint, CheckpointError};
use std::path::{Path, PathBuf};

/// A checkpoint directory with bounded retention.
#[derive(Clone, Debug)]
pub struct CheckpointRing {
    dir: PathBuf,
    retain: usize,
}

/// One scanned ring entry: a well-formed `checkpoint-<clock>.dsc` file.
/// Scanning validates only the *name*; the payload is CRC-validated by
/// [`crate::checkpoint::read_checkpoint`] when the entry is loaded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingEntry {
    /// Full path of the entry.
    pub path: PathBuf,
    /// Simulation clock encoded in the file name.
    pub clock: u64,
}

/// Canonical ring file name for a snapshot taken at `clock`
/// (zero-padded so lexicographic path order equals clock order).
#[must_use]
pub fn entry_name(clock: u64) -> String {
    format!("checkpoint-{clock:012}.dsc")
}

/// Parse a ring file name back to its clock; `None` for foreign files,
/// orphaned `.tmp` files, and anything not exactly 12 digits wide.
fn entry_clock(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("checkpoint-")?.strip_suffix(".dsc")?;
    if digits.len() != 12 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Scan a ring directory: collect every well-formed entry, **sorted by
/// path** so the result is identical regardless of the filesystem's
/// directory iteration order. A nonexistent directory scans as empty
/// (a service starting fresh); any other I/O failure is an error.
pub fn scan_ring(dir: &Path) -> Result<Vec<RingEntry>, CheckpointError> {
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(CheckpointError::Io(e)),
    };
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(CheckpointError::Io)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(clock) = entry_clock(name) {
            out.push(RingEntry {
                path: entry.path(),
                clock,
            });
        }
    }
    // Path-sorted walk: read_dir order is filesystem-specific, and both
    // recovery and pruning must pick the same entries everywhere.
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

impl CheckpointRing {
    /// A ring rooted at `dir` retaining at least the newest `retain`
    /// snapshots (values below 1 are clamped to 1: the ring never
    /// deletes its only valid snapshot).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, retain: u64) -> Self {
        Self {
            dir: dir.into(),
            // BOUND: retain is a small CLI-supplied count; usize on all
            // supported targets holds any practical value.
            retain: retain.max(1) as usize,
        }
    }

    /// The ring's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot `cp` into the ring as [`entry_name`]`(cp.clock())`
    /// (atomic tmp-then-rename, fsynced), then prune entries beyond
    /// retention. Returns the bytes written, as
    /// [`write_checkpoint`](checkpoint::write_checkpoint) does.
    pub fn write(&self, cp: &Checkpoint) -> Result<u64, CheckpointError> {
        std::fs::create_dir_all(&self.dir).map_err(CheckpointError::Io)?;
        let bytes = checkpoint::write_checkpoint(&self.dir.join(entry_name(cp.clock)), cp)?;
        self.prune()?;
        Ok(bytes)
    }

    /// Delete the oldest entries beyond retention (path-sorted, so the
    /// same files are removed on any filesystem). Runs after every
    /// successful [`write`](Self::write); because retention is at least
    /// one and only the oldest entries go, the newest snapshot — the
    /// one just written — is never deleted.
    pub fn prune(&self) -> Result<Vec<PathBuf>, CheckpointError> {
        let entries = scan_ring(&self.dir)?;
        let mut removed = Vec::new();
        if entries.len() > self.retain {
            for e in &entries[..entries.len() - self.retain] {
                std::fs::remove_file(&e.path).map_err(CheckpointError::Io)?;
                removed.push(e.path.clone());
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dreamsim-ring-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn touch(dir: &Path, name: &str) {
        std::fs::write(dir.join(name), b"x").unwrap();
    }

    #[test]
    fn entry_names_parse_back_and_reject_foreign_files() {
        assert_eq!(entry_clock(&entry_name(0)), Some(0));
        assert_eq!(entry_clock(&entry_name(123_456)), Some(123_456));
        assert_eq!(entry_clock("checkpoint-000000000123.dsc"), Some(123));
        assert_eq!(entry_clock("checkpoint-123.dsc"), None);
        assert_eq!(entry_clock("checkpoint-000000000123.dsc.tmp"), None);
        assert_eq!(entry_clock("checkpoint-00000000012x.dsc"), None);
        assert_eq!(entry_clock("notes.txt"), None);
    }

    #[test]
    fn scan_is_path_sorted_over_shuffled_directory_entries() {
        let dir = temp_dir("shuffled");
        // Create entries in a deliberately scrambled order; the scan
        // must come back clock-ordered regardless of creation (and
        // therefore likely readdir) order.
        for clock in [7_000u64, 500, 99_000, 1_000, 42_000] {
            touch(&dir, &entry_name(clock));
        }
        touch(&dir, "checkpoint-000000000001.dsc.tmp");
        touch(&dir, "unrelated.log");
        let entries = scan_ring(&dir).unwrap();
        let clocks: Vec<u64> = entries.iter().map(|e| e.clock).collect();
        assert_eq!(clocks, vec![500, 1_000, 7_000, 42_000, 99_000]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_of_missing_directory_is_empty() {
        let dir = std::env::temp_dir().join(format!("dreamsim-ring-none-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(scan_ring(&dir).unwrap().is_empty());
    }

    #[test]
    fn prune_removes_only_the_oldest_beyond_retention() {
        let dir = temp_dir("prune");
        for clock in [100u64, 200, 300, 400, 500] {
            touch(&dir, &entry_name(clock));
        }
        touch(&dir, "unrelated.log");
        let ring = CheckpointRing::new(&dir, 2);
        let removed = ring.prune().unwrap();
        assert_eq!(removed.len(), 3);
        let left = scan_ring(&dir).unwrap();
        let clocks: Vec<u64> = left.iter().map(|e| e.clock).collect();
        assert_eq!(clocks, vec![400, 500], "newest entries survive");
        assert!(
            dir.join("unrelated.log").exists(),
            "foreign files untouched"
        );
        // Pruning again is a no-op.
        assert!(ring.prune().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_never_drops_below_one() {
        let dir = temp_dir("retain1");
        touch(&dir, &entry_name(900));
        let ring = CheckpointRing::new(&dir, 0);
        assert!(ring.prune().unwrap().is_empty());
        assert_eq!(scan_ring(&dir).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
