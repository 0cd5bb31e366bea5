//! Checkpoint-size regression for the sketch statistics (DESIGN.md §16).
//!
//! The seed checkpoint format carried every waiting-time sample
//! (`wait_samples`), an O(task count) payload that dominates snapshots
//! of large runs. Under `StatsBackend::Sketch` the samples are folded
//! into a fixed-structure quantile sketch, so the statistics portion of
//! a checkpoint must stay **flat** as the task ladder climbs.

use dreamsim::engine::{ReconfigMode, RunOptions, SimParams, Simulation, StatsBackend};
use dreamsim::sched::CaseStudyScheduler;
use dreamsim::workload::SyntheticSource;
use std::path::{Path, PathBuf};

fn params(tasks: usize, seed: u64) -> SimParams {
    let mut p = SimParams::paper(20, tasks, ReconfigMode::Partial);
    p.seed = seed;
    // Short tasks keep the big rungs fast.
    p.task_time = dreamsim::engine::params::Range::new(10, 2_000);
    p
}

fn fresh_dir(tag: &str) -> PathBuf {
    // lint: allow(r2) -- scratch directory for test artifacts, never simulator state
    let dir = std::env::temp_dir().join(format!("dreamsim-cpscale-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run a synthetic workload with periodic checkpoints and return the
/// bytes of the **last** checkpoint written — the one with the most
/// waiting-time samples accumulated.
fn last_checkpoint(p: &SimParams, stats: StatsBackend, dir: &Path) -> Vec<u8> {
    let opts = RunOptions {
        checkpoint_every: Some(100_000),
        checkpoint_dir: Some(dir.to_path_buf()),
        ..RunOptions::default()
    };
    Simulation::new(
        p.clone(),
        SyntheticSource::from_params(p),
        CaseStudyScheduler::new(),
    )
    .unwrap()
    .with_stats_backend(stats)
    .run_with(&opts)
    .unwrap();
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let last = files.last().expect("run long enough to checkpoint");
    std::fs::read(last).unwrap()
}

/// Serialized size of one named field of the checkpoint's JSON payload
/// (the bytes after the `DREAMSIM-CHECKPOINT` header line).
fn field_size(checkpoint: &[u8], field: &str) -> usize {
    let text = std::str::from_utf8(checkpoint).unwrap();
    let payload = text.split_once('\n').expect("header line").1;
    let v: serde_json::Value = serde_json::from_str(payload).expect("valid JSON payload");
    serde_json::to_string(&v[field]).unwrap().len()
}

/// The compact columnar task table (checkpoint format v2, DESIGN.md
/// §18) must hold a pinned byte budget as the ladder climbs 6k → 24k
/// tasks, and must beat the legacy JSON array form of the *same
/// snapshot* by at least 4×. The budget is generous (40 bytes per task,
/// base64 included; observed ≈20) so it only trips on a real encoding
/// regression, not on workload drift.
#[test]
fn compact_task_table_meets_byte_budget_and_beats_legacy() {
    use dreamsim::engine::{read_checkpoint, write_checkpoint_compat_v1};
    let rungs = [6_000usize, 24_000];
    let mut compact_sizes = Vec::new();
    for (i, &tasks) in rungs.iter().enumerate() {
        let p = params(tasks, 0xBEEF + i as u64);
        let dir = fresh_dir(&format!("ct{tasks}"));
        let cp_bytes = last_checkpoint(&p, StatsBackend::Sketch, &dir);
        assert!(
            cp_bytes.starts_with(b"DREAMSIM-CHECKPOINT 2 "),
            "n={tasks}: current checkpoints must carry the v2 header"
        );
        let compact = field_size(&cp_bytes, "tasks");
        assert!(
            compact <= tasks * 40 + 256,
            "n={tasks}: compact task table blew its budget: {compact} bytes \
             ({} per task, budget 40)",
            compact / tasks
        );
        // Re-emit the same snapshot in the legacy v1 layout and compare.
        let copy = dir.join("copy.dsc");
        std::fs::write(&copy, &cp_bytes).unwrap();
        let cp = read_checkpoint(&copy).unwrap();
        let legacy_path = dir.join("legacy.dsc");
        write_checkpoint_compat_v1(&legacy_path, &cp).unwrap();
        let legacy = field_size(&std::fs::read(&legacy_path).unwrap(), "tasks");
        assert!(
            legacy >= compact * 4,
            "n={tasks}: compact form ({compact} bytes) must be >= 4x smaller \
             than the legacy array ({legacy} bytes)"
        );
        // And the legacy file must still load — it is the v1 compat
        // surface this build promises to keep reading.
        let reloaded = read_checkpoint(&legacy_path).unwrap();
        assert_eq!(reloaded.clock(), cp.clock());
        compact_sizes.push(compact);
        std::fs::remove_dir_all(&dir).ok();
    }
    // Scaling check: 4x the tasks may cost at most ~8x the bytes. The
    // slack is deliberate — the snapshots' task-state mix differs per
    // rung (a larger run has proportionally more in-flight tasks at its
    // last checkpoint, and those carry more populated columns) — so
    // only a genuinely superlinear blowup fails.
    assert!(
        compact_sizes[1] <= compact_sizes[0] * 8,
        "compact task table grew superlinearly: {compact_sizes:?}"
    );
}

/// Climbing the task ladder 6k → 24k must leave the sketch-mode
/// statistics payload flat (both rungs sit past the sketch's collapse
/// threshold, so both serialize the fixed bucket structure), while the
/// exact-mode payload demonstrably grows with the ladder.
#[test]
fn sketch_mode_checkpoint_stats_payload_is_flat_across_the_ladder() {
    let rungs = [6_000usize, 24_000];
    let mut sketch_stats = Vec::new();
    let mut exact_waits = Vec::new();
    let mut file_sizes = Vec::new();
    for (i, &tasks) in rungs.iter().enumerate() {
        let p = params(tasks, 0xC0DE + i as u64);
        let sk_dir = fresh_dir(&format!("sk{tasks}"));
        let ex_dir = fresh_dir(&format!("ex{tasks}"));
        let sk = last_checkpoint(&p, StatsBackend::Sketch, &sk_dir);
        let ex = last_checkpoint(&p, StatsBackend::Exact, &ex_dir);
        // Sketch mode never carries raw samples.
        assert_eq!(
            field_size(&sk, "wait_samples"),
            "[]".len(),
            "n={tasks}: sketch-mode checkpoint still carries wait samples"
        );
        sketch_stats.push(field_size(&sk, "stats"));
        exact_waits.push(field_size(&ex, "wait_samples"));
        file_sizes.push((sk.len(), ex.len()));
        std::fs::remove_dir_all(&sk_dir).ok();
        std::fs::remove_dir_all(&ex_dir).ok();
    }
    // End-to-end, at the top rung (where the O(n) sample vector has
    // outgrown the fixed sketch): the sketch checkpoint file is
    // strictly smaller than the exact one.
    let (sk_top, ex_top) = file_sizes[1];
    assert!(
        sk_top < ex_top,
        "top rung: sketch file {sk_top} >= exact file {ex_top}"
    );
    let (small, large) = (sketch_stats[0], sketch_stats[1]);
    assert!(
        large <= small * 2 && large < 80_000,
        "sketch stats payload not flat: {small} bytes at {}k tasks, {large} at {}k",
        rungs[0] / 1000,
        rungs[1] / 1000
    );
    assert!(
        exact_waits[1] > exact_waits[0] * 2,
        "expected exact-mode wait samples to grow with the ladder: {exact_waits:?}"
    );
    // The removed hazard, head-on: the exact payload at the top rung
    // dwarfs the entire sketch statistics block.
    assert!(
        exact_waits[1] > sketch_stats[1] * 4,
        "exact wait samples {} should dwarf sketch stats {}",
        exact_waits[1],
        sketch_stats[1]
    );
}
