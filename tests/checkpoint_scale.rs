//! Checkpoint size and read cost at scale.
//!
//! The compact columnar task table (DESIGN.md §18) must hold a pinned
//! byte budget as the task ladder climbs.
//!
//! A 20 000-node `serve` snapshot checks the read side at scale
//! (DESIGN.md §10.1): decoding it and encoding it again reproduces its
//! payload, and reading it costs about the decoded state, not a
//! multiple of the payload.

use dreamsim::engine::{
    read_checkpoint, serve, ArrivalDistribution, ReconfigMode, RunOptions, ServiceOptions,
    ServiceParams, SimParams, Simulation,
};
use dreamsim::sched::CaseStudyScheduler;
use dreamsim::workload::{OpenSource, SyntheticSource};
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
fn last_checkpoint(p: &SimParams, dir: &Path) -> Vec<u8> {
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
/// tasks. The budget is generous (40 bytes per task, base64 included;
/// observed ≈20) so it only trips on a real encoding regression, not on
/// workload drift.
#[test]
fn compact_task_table_meets_byte_budget() {
    let rungs = [6_000usize, 24_000];
    let mut compact_sizes = Vec::new();
    for (i, &tasks) in rungs.iter().enumerate() {
        let p = params(tasks, 0xBEEF + i as u64);
        let dir = fresh_dir(&format!("ct{tasks}"));
        let cp_bytes = last_checkpoint(&p, &dir);
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

/// Run a 20 000-node `serve` window and return the path of its
/// mid-window ring snapshot (a ~4 MB payload).
fn large_serve_snapshot(dir: &Path) -> PathBuf {
    let horizon = 10_000;
    let mut p =
        SimParams::paper(20_000, horizon as usize + 1, ReconfigMode::Partial).with_seed(2012);
    p.arrival = ArrivalDistribution::Poisson;
    p.service = Some(ServiceParams {
        horizon,
        day_length: 4_000,
        amplitude_permille: 500,
        window: 1_000,
        window_retain: 8,
    });
    let mut opts = ServiceOptions::new(dir);
    opts.ring_every = horizon / 2;
    opts.ring_retain = 1_000;
    serve(&p, OpenSource::from_params, CaseStudyScheduler::new, &opts).unwrap();
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "dsc"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 2, "one mid-window and one final snapshot");
    files.swap_remove(0)
}

/// Decoding a 20 000-node `serve` snapshot and encoding it again
/// reproduces its payload byte for byte.
#[test]
fn large_serve_snapshot_round_trips_byte_for_byte() {
    let dir = fresh_dir("roundtrip");
    let path = large_serve_snapshot(&dir);
    let raw = std::fs::read(&path).unwrap();
    let newline = raw.iter().position(|&b| b == b'\n').unwrap();
    let again = serde_json::to_string(&read_checkpoint(&path).unwrap()).unwrap();
    assert!(
        again.as_bytes() == &raw[newline + 1..],
        "decode then encode changed the {}-byte payload",
        raw.len() - newline - 1
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `(VmRSS, VmHWM)` of this process, in kB.
#[cfg(target_os = "linux")]
fn rss_kb() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no {name} in /proc/self/status"))
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Reading a checkpoint costs about its result, not a multiple of its
/// payload: `read_checkpoint` may raise the peak RSS (`VmHWM`) at most
/// four payloads above the RSS just before the call, for a 20 000-node
/// `serve` snapshot (a 4 135 kB payload). Run alone by name (debug
/// build, 2-vCPU VM), the decoder that parsed a `Value` tree first rose
/// 30 680 kB (7.4 payloads); the streaming decoder rises 4 032 kB (1.0
/// payload) in each of three runs. The rise is an upper bound, since
/// the peak may still be the `serve` run's, and other tests running
/// beside it would inflate it (8 544 kB against 39 472 kB in one such
/// run), so it runs alone.
#[cfg(target_os = "linux")]
#[test]
#[ignore = "reads this process's peak RSS, so it must run alone: CI runs it by name"]
fn reading_a_large_snapshot_costs_about_its_result() {
    let dir = fresh_dir("readgate");
    let path = large_serve_snapshot(&dir);
    let payload_kb = std::fs::metadata(&path).unwrap().len() / 1024;
    let (rss, _) = rss_kb();
    let cp = read_checkpoint(&path).unwrap();
    let (_, peak) = rss_kb();
    drop(cp);
    std::fs::remove_dir_all(&dir).ok();
    let rise = peak.saturating_sub(rss);
    eprintln!("payload {payload_kb} kB, RSS before {rss} kB, peak after {peak} kB, rise {rise} kB");
    assert!(
        rise <= 4 * payload_kb,
        "reading a {payload_kb} kB payload raised the peak RSS by {rise} kB, \
         more than four payloads"
    );
}
