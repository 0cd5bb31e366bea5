//! Differential equivalence suite for the two drivers and for checkpoint
//! resume, with the continuous auditor run after every event.
//!
//! Checkpoints (DESIGN.md §10–11): a run resumed from a mid-run
//! checkpoint, whose search index is rebuilt on load, finishes with the
//! uninterrupted run's exact report, and the auditor accepts the live
//! index after every event. (The paper-faithful reference for the
//! index's answers is the executable spec in `tests/paper_spec.rs`.)
//!
//! Drivers: the event-driven and tick-stepped drivers must agree byte
//! for byte — reports *and* checkpoints — across policies × fault-on/off.

use dreamsim::engine::{
    read_checkpoint, Driver, ReconfigMode, RunOptions, RunResult, SimParams, Simulation,
};
use dreamsim::sched::{AllocationStrategy, CaseStudyScheduler};
use dreamsim::workload::SyntheticSource;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const STRATEGIES: [AllocationStrategy; 5] = [
    AllocationStrategy::BestFit,
    AllocationStrategy::FirstFit,
    AllocationStrategy::WorstFit,
    AllocationStrategy::Random,
    AllocationStrategy::LeastLoaded,
];

fn params(mode: ReconfigMode, faults: bool, seed: u64) -> SimParams {
    let mut p = SimParams::paper(20, 200, mode);
    p.seed = seed;
    // Short tasks keep the 40-cell grid fast.
    p.task_time = dreamsim::engine::params::Range::new(10, 2_000);
    if faults {
        p.faults.node_mttf = Some(20_000);
        p.faults.node_mttr = 2_000;
        p.faults.reconfig_fail_prob = 0.15;
        p.faults.task_fail_prob = 0.05;
        p.faults.suspension_deadline = Some(100_000);
    }
    p
}

fn fresh_dir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    // lint: allow(r2) -- scratch directory for test artifacts, never simulator state
    let dir = std::env::temp_dir().join(format!(
        "dreamsim-diff-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Sorted checkpoint file names and their raw bytes.
fn checkpoint_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|f| {
            let name = f.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&f).unwrap())
        })
        .collect()
}

/// Assert that two runs of one cell are byte-identical: metrics, XML
/// and JSON reports, task tables, and every checkpoint file each run
/// wrote into its directory.
fn assert_runs_identical(cell: &str, a: &RunResult, a_dir: &Path, b: &RunResult, b_dir: &Path) {
    assert_eq!(a.metrics, b.metrics, "{cell}: metrics");
    assert_eq!(a.report.to_xml(), b.report.to_xml(), "{cell}: XML report");
    assert_eq!(
        a.report.to_json(),
        b.report.to_json(),
        "{cell}: JSON report"
    );
    assert_eq!(a.tasks, b.tasks, "{cell}: task table");
    let a_cps = checkpoint_files(a_dir);
    let b_cps = checkpoint_files(b_dir);
    assert!(
        !a_cps.is_empty(),
        "{cell}: grid cells must actually checkpoint"
    );
    assert_eq!(
        a_cps.len(),
        b_cps.len(),
        "{cell}: checkpoint cadence diverged"
    );
    for ((an, ab), (bn, bb)) in a_cps.iter().zip(&b_cps) {
        assert_eq!(an, bn, "{cell}: checkpoint file names");
        assert_eq!(ab, bb, "{cell}: checkpoint {an} not byte-identical");
    }
}

/// Resume from every checkpoint of a saturated fault-injection run, in
/// both modes: each resume, whose store rebuilds its search index and
/// whose suspension queue rebuilds its config column on load, finishes
/// with the uninterrupted run's exact report. Some checkpoints must hold
/// queued tasks, so that rescans (full mode's exact-reuse pass, the
/// partial scan, offers of repaired nodes) walk a rebuilt column.
#[test]
fn resume_mid_run_matches_the_uninterrupted_run() {
    for mode in [ReconfigMode::Partial, ReconfigMode::Full] {
        let mut p = SimParams::paper(12, 150, mode);
        p.seed = 0x5EED5;
        p.faults.node_mttf = Some(40_000);
        p.faults.node_mttr = 4_000;
        let dir = fresh_dir("resume");
        let run = |checkpoint_dir: Option<&Path>| {
            Simulation::new(
                p.clone(),
                SyntheticSource::from_params(&p),
                CaseStudyScheduler::new(),
            )
            .unwrap()
            .run_with(&RunOptions {
                checkpoint_every: checkpoint_dir.map(|_| 40_000),
                checkpoint_dir: checkpoint_dir.map(Path::to_path_buf),
                ..RunOptions::default()
            })
            .unwrap()
        };
        let reference = run(None);
        let _ = run(Some(&dir));
        let files = checkpoint_files(&dir);
        assert!(files.len() >= 2, "{mode:?}: need mid-run checkpoints");
        let mut with_queue = 0;
        for (name, bytes) in &files {
            let payload = std::str::from_utf8(bytes)
                .unwrap()
                .split_once('\n')
                .unwrap()
                .1;
            let v: serde_json::Value = serde_json::from_str(payload).unwrap();
            if !v["suspension"]["queue"].as_array().unwrap().is_empty() {
                with_queue += 1;
            }
            let cp = read_checkpoint(&dir.join(name)).unwrap();
            let resumed = Simulation::resume(
                cp,
                SyntheticSource::from_params(&p),
                CaseStudyScheduler::new(),
            )
            .unwrap()
            .run_with(&RunOptions::default())
            .unwrap();
            assert_eq!(
                resumed.report.to_xml(),
                reference.report.to_xml(),
                "{mode:?}: resumed {name}"
            );
            assert_eq!(resumed.metrics, reference.metrics, "{mode:?}: {name}");
        }
        assert!(with_queue > 0, "{mode:?}: no checkpoint held a queued task");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Run one cell under an explicit driver.
fn run_cell_driven(
    p: &SimParams,
    strategy: AllocationStrategy,
    driver: Driver,
    checkpoint_dir: Option<&Path>,
) -> RunResult {
    let opts = RunOptions {
        driver,
        checkpoint_every: checkpoint_dir.map(|_| 5_000),
        checkpoint_dir: checkpoint_dir.map(Path::to_path_buf),
        ..RunOptions::default()
    };
    Simulation::new(
        p.clone(),
        SyntheticSource::from_params(p),
        CaseStudyScheduler::with_strategy(strategy),
    )
    .unwrap()
    .run_with(&opts)
    .unwrap()
}

/// The two drivers are interchangeable: under every case-study strategy
/// × fault cell, the tick-stepped driver reproduces the event-driven
/// one's reports (XML and JSON), metrics, task table, *and* every
/// mid-run checkpoint file byte for byte.
#[test]
fn driver_grid_reports_and_checkpoints_byte_identical() {
    for strategy in STRATEGIES {
        for faults in [false, true] {
            let cell = format!("{strategy:?}/faults={faults}");
            let p = params(ReconfigMode::Partial, faults, 0xCA1);
            let event_dir = fresh_dir("event");
            let tick_dir = fresh_dir("tick");
            let event = run_cell_driven(&p, strategy, Driver::Event, Some(&event_dir));
            let tick = run_cell_driven(&p, strategy, Driver::TickStepped, Some(&tick_dir));
            assert_runs_identical(&cell, &event, &event_dir, &tick, &tick_dir);
            std::fs::remove_dir_all(&event_dir).ok();
            std::fs::remove_dir_all(&tick_dir).ok();
        }
    }
}

/// The continuous auditor accepts the search index after **every**
/// dispatched event — including fault, retry, and eviction paths — so
/// the incremental index hooks are validated at event granularity, not
/// just at run end.
#[test]
fn audit_after_every_event_accepts_the_search_index() {
    for mode in [ReconfigMode::Full, ReconfigMode::Partial] {
        let p = params(mode, true, 0xA0D1);
        let opts = RunOptions {
            audit: true,
            ..RunOptions::default()
        };
        let result = Simulation::new(
            p.clone(),
            SyntheticSource::from_params(&p),
            CaseStudyScheduler::new(),
        )
        .unwrap()
        .run_with(&opts)
        .unwrap();
        assert!(
            result.metrics.node_failures > 0,
            "{mode:?}: the audit run should actually exercise fault paths"
        );
    }
}
