//! A service retires its finished tasks (DESIGN.md §15.3): at each ring
//! snapshot the task table drops its longest prefix of Completed and
//! Discarded rows and its `first` id moves past them, so the live table,
//! every snapshot and the service's result hold the unfinished window,
//! not the history. Retirement happens at ring boundaries only, so a
//! window killed after it and resumed from the ring reproduces every
//! later ring file and the report byte for byte.

use dreamsim::engine::params::Range;
use dreamsim::engine::{
    scan_ring, serve, ArrivalDistribution, ReconfigMode, ServiceOptions, ServiceOutcome,
    ServiceParams, SimParams,
};
use dreamsim::sched::CaseStudyScheduler;
use dreamsim::workload::OpenSource;
use std::path::{Path, PathBuf};

/// A `serve` window over `nodes` nodes whose tasks are short (10 to
/// 2 000 ticks) relative to its horizon, so rows finish and retire.
fn service(nodes: usize, horizon: u64, seed: u64) -> SimParams {
    let mut p =
        SimParams::paper(nodes, horizon as usize + 1, ReconfigMode::Partial).with_seed(seed);
    p.arrival = ArrivalDistribution::Poisson;
    p.task_time = Range::new(10, 2_000);
    p.service = Some(ServiceParams {
        horizon,
        day_length: 10_000,
        amplitude_permille: 400,
        window: 1_000,
        window_retain: 8,
    });
    p
}

fn fresh_dir(tag: &str) -> PathBuf {
    // lint: allow(r2) -- scratch directory for test artifacts, never simulator state
    let dir = std::env::temp_dir().join(format!("dreamsim-retire-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Ring options: a snapshot every 2 000 ticks, every one kept.
fn ring(dir: &Path) -> ServiceOptions {
    let mut opts = ServiceOptions::new(dir);
    opts.ring_every = 2_000;
    opts.ring_retain = 1_000;
    opts
}

fn run(p: &SimParams, opts: &ServiceOptions) -> ServiceOutcome {
    serve(p, OpenSource::from_params, CaseStudyScheduler::new, opts).unwrap()
}

/// A ring snapshot's JSON payload.
fn payload(path: &Path) -> serde_json::Value {
    let raw = std::fs::read_to_string(path).unwrap();
    serde_json::from_str(raw.split_once('\n').expect("a header line").1).unwrap()
}

/// `(first, count, packed length)` of a snapshot's task table.
fn task_window(path: &Path) -> (u64, u64, usize) {
    let v = payload(path);
    let tasks = &v["tasks"];
    (
        tasks["first"].as_u64().unwrap(),
        tasks["count"].as_u64().unwrap(),
        tasks["packed"].as_str().unwrap().len(),
    )
}

/// The ring's snapshots, oldest first.
fn snapshots(dir: &Path) -> Vec<PathBuf> {
    scan_ring(dir)
        .unwrap()
        .into_iter()
        .map(|e| e.path)
        .collect()
}

/// Every snapshot in `got` has a byte-identical twin of the same name
/// in `want`, and both rings hold the same names.
fn assert_same_ring(want: &Path, got: &Path) {
    let names = |dir: &Path| -> Vec<String> {
        snapshots(dir)
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect()
    };
    assert_eq!(names(want), names(got), "the rings hold other snapshots");
    for name in names(want) {
        assert!(
            std::fs::read(want.join(&name)).unwrap() == std::fs::read(got.join(&name)).unwrap(),
            "{name} differs between the uninterrupted and the recovered ring"
        );
    }
}

/// At 1×, 2× and 4× a horizon, the tasks created grow about fourfold,
/// while the result's table, the newest snapshot's row count and its
/// packed task column stay within twice their 1× size.
#[test]
fn a_service_table_follows_its_window_not_its_horizon() {
    let horizon = 20_000;
    let mut sizes = Vec::new();
    for k in [1u64, 2, 4] {
        let dir = fresh_dir(&format!("scale{k}"));
        let out = run(&service(40, horizon * k, 5), &ring(&dir));
        let result = out.result.expect("the window drains");
        let newest = snapshots(&dir).pop().expect("the ring holds the drain");
        let (first, count, packed) = task_window(&newest);
        assert!(first > 0, "{k}x: the drain retired no row");
        sizes.push((
            result.metrics.total_tasks_generated,
            result.tasks.len() as u64,
            count,
            packed,
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
    eprintln!("(created, result rows, snapshot rows, packed bytes) at 1x 2x 4x: {sizes:?}");
    let (created, rows, snapshot_rows, packed) = sizes[0];
    let (created_4x, ..) = sizes[2];
    assert!(
        (3 * created..=5 * created).contains(&created_4x),
        "4x the horizon created {created_4x} tasks against {created}"
    );
    for &(_, r, s, b) in &sizes[1..] {
        assert!(r <= 2 * rows, "result rows {r} against {rows} at 1x");
        assert!(
            s <= 2 * snapshot_rows,
            "snapshot rows {s} against {snapshot_rows} at 1x"
        );
        assert!(
            b <= 2 * packed,
            "packed column {b} bytes against {packed} at 1x"
        );
    }
}

/// A window killed after its first retirement and recovered from the
/// ring writes every later snapshot and its report byte for byte as
/// the uninterrupted window, starting from a snapshot whose `first` is
/// past 0.
#[test]
fn a_window_killed_after_retiring_resumes_byte_for_byte() {
    let p = service(40, 30_000, 11);
    let base_dir = fresh_dir("base");
    let base = run(&p, &ring(&base_dir));
    let base_xml = base.result.unwrap().report.to_xml();

    let kill_dir = fresh_dir("kill");
    let mut opts = ring(&kill_dir);
    opts.stop_at = Some(13_000);
    assert!(run(&p, &opts).killed);
    opts.stop_at = None;
    let recovered = run(&p, &opts);
    let from = recovered
        .recovery
        .recovered_from
        .expect("resumed from the ring");
    let (first, ..) = task_window(&kill_dir.join(&from));
    assert!(first > 0, "{from} retired no row before the kill");
    assert_eq!(recovered.result.unwrap().report.to_xml(), base_xml);
    assert_same_ring(&base_dir, &kill_dir);
    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&kill_dir).ok();
}

/// Whether a snapshot's event queue names a task below its table's
/// `first`: a completion, failure or timeout left by a run that a
/// failure killed, naming a task that has since finished and retired.
fn names_a_retired_task(path: &Path) -> bool {
    let v = payload(path);
    let first = v["tasks"]["first"].as_u64().unwrap();
    v["events"]["entries"].as_array().unwrap().iter().any(|e| {
        ["TaskCompletion", "TaskFailed", "SuspensionTimeout"]
            .iter()
            .filter_map(|kind| e[2][*kind]["task"].as_u64())
            .any(|task| task < first)
    })
}

/// Node failures kill running tasks and leave their completion events
/// pending. The service retires those tasks once they finish anyway,
/// audits clean at every boundary with the stale events naming retired
/// ids, and a kill-and-recover still reproduces the window.
#[test]
fn stale_events_name_retired_tasks_and_the_window_still_resumes() {
    let mut p = service(40, 30_000, 23);
    p.faults.node_mttf = Some(6_000);
    p.faults.node_mttr = 1_000;
    p.faults.suspension_deadline = Some(4_000);
    let base_dir = fresh_dir("mttf-base");
    let mut opts = ring(&base_dir);
    opts.audit_every = Some(500);
    let base = run(&p, &opts);
    let base_result = base.result.unwrap();
    assert!(base_result.metrics.node_failures > 0, "no node failed");
    let stale = snapshots(&base_dir)
        .iter()
        .filter(|s| names_a_retired_task(s))
        .count();
    assert!(
        stale > 0,
        "no snapshot holds an event naming a retired task"
    );

    let kill_dir = fresh_dir("mttf-kill");
    let mut opts = ring(&kill_dir);
    opts.audit_every = Some(500);
    opts.stop_at = Some(17_000);
    assert!(run(&p, &opts).killed);
    opts.stop_at = None;
    let recovered = run(&p, &opts);
    assert_eq!(
        recovered.result.unwrap().report.to_xml(),
        base_result.report.to_xml()
    );
    assert_same_ring(&base_dir, &kill_dir);
    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&kill_dir).ok();
}
