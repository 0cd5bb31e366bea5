//! Checkpoint size and read cost at scale.
//!
//! The compact columnar task table (DESIGN.md §18.2) must hold a pinned
//! byte budget as the task ladder climbs, and the columnar node table
//! (§18.4) a pinned budget per node.
//!
//! A 20 000-node `serve` snapshot checks the read side at scale
//! (DESIGN.md §10.1): decoding it and encoding it again reproduces its
//! payload, and reading it costs about the decoded state, not a
//! multiple of the payload. A million-task table checks the live side:
//! it costs about its columns' bytes per task (DESIGN.md §18.5).

use dreamsim::engine::{
    read_checkpoint, serve, ArrivalDistribution, ReconfigMode, RunOptions, ServiceOptions,
    ServiceParams, SimParams, Simulation, FORMAT_VERSION,
};
use dreamsim::model::{ConfigId, PreferredConfig, Task, TaskId, TaskState, TaskTable};
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

/// Serialized size of the member at `path` of the checkpoint's JSON
/// payload (the bytes after the `DREAMSIM-CHECKPOINT` header line).
fn field_size(checkpoint: &[u8], path: &[&str]) -> usize {
    let text = std::str::from_utf8(checkpoint).unwrap();
    let payload = text.split_once('\n').expect("header line").1;
    let mut v: serde_json::Value = serde_json::from_str(payload).expect("valid JSON payload");
    for seg in path {
        v = v[*seg].clone();
    }
    serde_json::to_string(&v).unwrap().len()
}

/// The compact columnar task table (checkpoint formats v2 to v4, DESIGN.md
/// §18.2) must hold a pinned byte budget as the ladder climbs 6k → 24k
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
        let header = format!("DREAMSIM-CHECKPOINT {FORMAT_VERSION} ");
        assert!(
            cp_bytes.starts_with(header.as_bytes()),
            "n={tasks}: current checkpoints must carry the v{FORMAT_VERSION} header"
        );
        let compact = field_size(&cp_bytes, &["tasks"]);
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
/// mid-window ring snapshot.
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

/// The columnar node table (checkpoint formats v3 and v4, DESIGN.md §18.4) must
/// hold a pinned budget per node in a 20 000-node `serve` snapshot:
/// 20 bytes per node, base64 and the slots and lists included. The
/// budget is generous (observed ≈ 9.4) so it only trips on a real
/// encoding regression; the v2 node records took ≈ 220.
#[test]
fn columnar_node_table_meets_byte_budget() {
    let dir = fresh_dir("nodebudget");
    let path = large_serve_snapshot(&dir);
    let bytes = std::fs::read(&path).unwrap();
    let nodes = 20_000;
    let table = field_size(&bytes, &["resources", "nodes"]);
    eprintln!(
        "node table {table} bytes, {:.2} per node",
        table as f64 / nodes as f64
    );
    assert!(
        table <= nodes * 20,
        "the node table blew its budget: {table} bytes ({} per node, budget 20)",
        table / nodes
    );
    std::fs::remove_dir_all(&dir).ok();
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

/// Bytes per node the decoded 20 000-node snapshot may hold in RSS: its
/// 64-byte `NodeCell` plus the slots, lists, task columns and queues of
/// that state (measured 70). Keeping the node columns' base64 and bytes
/// in the result would add about 16 per node.
const RESULT_BYTES_PER_NODE: u64 = 80;

/// Reading a checkpoint costs about its result, not a multiple of its
/// payload, for a 20 000-node `serve` snapshot: the decoded checkpoint
/// `read_checkpoint` returns may hold at most [`RESULT_BYTES_PER_NODE`]
/// per node (the RSS it still holds after the call), and the read may
/// raise the peak RSS (`VmHWM`) at most four payloads above that. So
/// the whole rise is at most 1 562 + 4 × 217 = 2 430 kB whatever the
/// payload shrinks to; run alone by name (debug build, 2-vCPU VM) it
/// rises 1 820–2 020 kB, of which the result holds 1 380 kB.
///
/// Format v2 wrote the same snapshot as a 4 135 kB payload, about the
/// size of its result, and the gate bounded the whole rise by four
/// payloads (16 540 kB): the decoder that parsed a `Value` tree first
/// rose 30 680 kB (7.4 payloads), the streaming decoder 4 032 kB (1.0
/// payload). Format v3 writes it in a twentieth of that while the
/// decoded store keeps its size, so a bound in payloads alone would
/// fail a read that costs exactly its result. The rise is an upper
/// bound, since the peak may still be the `serve` run's, and other
/// tests running beside it would inflate it, so it runs alone.
#[cfg(target_os = "linux")]
#[test]
#[ignore = "reads this process's peak RSS, so it must run alone: CI runs it by name"]
fn reading_a_large_snapshot_costs_about_its_result() {
    let dir = fresh_dir("readgate");
    let path = large_serve_snapshot(&dir);
    let nodes: u64 = 20_000;
    let payload_kb = std::fs::metadata(&path).unwrap().len() / 1024;
    let (rss, _) = rss_kb();
    let cp = read_checkpoint(&path).unwrap();
    let (held, peak) = rss_kb();
    drop(cp);
    std::fs::remove_dir_all(&dir).ok();
    let (result, beyond) = (held.saturating_sub(rss), peak.saturating_sub(held));
    eprintln!(
        "payload {payload_kb} kB, RSS before {rss} kB, holding the result {held} kB \
         (+{result} kB, {} B per node), peak {peak} kB (+{beyond} kB beyond the result, \
         +{} kB in all)",
        result * 1024 / nodes,
        peak.saturating_sub(rss)
    );
    assert!(
        result * 1024 <= nodes * RESULT_BYTES_PER_NODE,
        "the decoded {nodes}-node checkpoint holds {result} kB, more than \
         {RESULT_BYTES_PER_NODE} bytes per node"
    );
    assert!(
        beyond <= 4 * payload_kb,
        "reading a {payload_kb} kB payload raised the peak RSS {beyond} kB above its \
         result, more than four payloads"
    );
}

/// Bytes of RSS one task may take in a [`TaskTable`] reserved for its
/// rows: the columns take [`TaskTable::BYTES_PER_TASK`] = 73, where a
/// `Vec<Task>` takes 136 (`size_of::<Task>()`).
const TABLE_BYTES_PER_TASK: u64 = 80;

/// A task table holds about its columns' bytes per task: pushing
/// 1 000 000 rows into a table reserved for them raises this process's
/// RSS (`VmRSS`) at most [`TABLE_BYTES_PER_TASK`] bytes per task. Other
/// tests running beside it would inflate the rise, so it runs alone.
#[cfg(target_os = "linux")]
#[test]
#[ignore = "reads this process's RSS, so it must run alone: CI runs it by name"]
fn a_task_table_holds_at_most_80_bytes_per_task() {
    let n: u64 = 1_000_000;
    let (before, _) = rss_kb();
    let mut table = TaskTable::with_capacity(n as usize);
    for i in 0..n {
        let mut row = Task::new(
            TaskId::from_index(i as usize),
            10 * i,
            100 + i % 1_000,
            PreferredConfig::Known(ConfigId((i % 50) as u32)),
            500,
        )
        .with_data_bytes(8 * (100 + i % 1_000));
        if i % 3 == 0 {
            row.start_time = Some(10 * i + 5);
            row.completion_time = Some(10 * i + 105);
            row.assigned_config = Some(ConfigId((i % 50) as u32));
            row.resolved_config = row.assigned_config;
            row.state = TaskState::Completed;
        }
        table.push(row).unwrap();
    }
    let (after, _) = rss_kb();
    let per_task = after.saturating_sub(before) * 1024 / n;
    eprintln!(
        "RSS {before} kB before, {after} kB with {n} tasks: {per_task} B per task \
         (columns {} B)",
        TaskTable::BYTES_PER_TASK
    );
    assert_eq!(table.len(), n as usize);
    assert!(
        per_task <= TABLE_BYTES_PER_TASK,
        "the task table holds {per_task} bytes of RSS per task, more than \
         {TABLE_BYTES_PER_TASK}"
    );
}
