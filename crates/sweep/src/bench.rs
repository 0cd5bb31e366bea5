//! Offline search-backend benchmark harness (`dreamsim bench-search`).
//!
//! Measures the wall-clock effect of [`SearchBackend::Indexed`] against
//! the paper-faithful linear backend, in two modes:
//!
//! * **micro** — a populated store is hammered with a deterministic mix
//!   of placement searches (`find_closest_config`, `find_best_blank`,
//!   `find_best_partially_blank`, `find_best_idle`, `find_worst_idle`);
//!   this isolates *scheduler-search time*, the quantity the indexed
//!   backend targets;
//! * **end-to-end** — full simulation runs over the bench grid
//!   (node ladder × task ladder), where search is only one slice of the
//!   event loop, so speedups are diluted but reports can be checked
//!   byte-identical across backends in the same breath.
//!
//! Every measurement takes the minimum of several repetitions (minimum,
//! not mean: noise on a deterministic workload is strictly additive),
//! and both backends' search results are folded into checksums that
//! must agree — a benchmark that silently compared different answers
//! would be meaningless.
//!
//! The harness is dependency-free (`std::time::Instant` only) so it
//! runs in offline builds. Results serialize to the `BENCH_search.json`
//! schema committed at the repo root.

use crate::figures::ExperimentGrid;
use crate::runner::{run_point, SweepPoint};
use dreamsim_engine::{ReconfigMode, SearchBackend, SimParams};
use dreamsim_model::{Config, ConfigId, Demand, Node, NodeId, ResourceManager, StepCounter};
use std::fmt::Write as _;
use std::time::Instant;

/// Repetitions per timed measurement; the minimum is reported.
const REPS: usize = 3;

/// Build a store with `num_nodes` nodes of varied area, a 16-entry
/// configuration list, and a mixed population of blank, partially
/// blank, and idle-instance-holding nodes — enough variety that every
/// search kind has real work to do.
#[must_use]
pub fn populated_store(num_nodes: usize, backend: SearchBackend) -> ResourceManager {
    let num_configs = 16usize;
    let configs: Vec<Config> = (0..num_configs)
        .map(|i| Config::new(ConfigId(i as u32), 100 + ((i as u64 * 211) % 900), 10))
        .collect();
    let nodes: Vec<Node> = (0..num_nodes)
        .map(|i| Node::new(NodeId::from_index(i), 500 + ((i as u64 * 307) % 2500), 2))
        .collect();
    let mut rm = ResourceManager::new(nodes, configs);
    rm.set_search_backend(backend);
    let mut sink = StepCounter::new();
    for i in 0..num_nodes {
        // Two thirds of the nodes hold an idle instance; a third of
        // those hold a second one. The rest stay blank.
        if i % 3 == 2 {
            continue;
        }
        let c = ConfigId((i % num_configs) as u32);
        let _ = rm.configure_slot(NodeId::from_index(i), c, &mut sink);
        if i % 3 == 0 {
            let c2 = ConfigId(((i + 7) % num_configs) as u32);
            let _ = rm.configure_slot(NodeId::from_index(i), c2, &mut sink);
        }
    }
    rm
}

/// Run `rounds` rounds of the deterministic search mix and fold every
/// answer (plus the charged step totals) into a checksum. Identical
/// across backends by construction — asserted by the callers.
#[must_use]
pub fn search_workout(rm: &ResourceManager, rounds: usize) -> u64 {
    let mut steps = StepCounter::new();
    let mut acc = 0u64;
    for r in 0..rounds {
        let area = 100 + ((r as u64 * 37) % 900);
        if let Some(c) = rm.find_closest_config(area, &mut steps) {
            acc = acc.wrapping_add(c.index() as u64 + 1);
        }
        if let Some(n) = rm.find_best_blank(Demand::area(area), &mut steps) {
            acc = acc.wrapping_add(n.index() as u64 + 1);
        }
        if let Some(n) = rm.find_best_partially_blank(Demand::area(area), &mut steps) {
            acc = acc.wrapping_add(n.index() as u64 + 1);
        }
        let c = ConfigId((r % 16) as u32);
        if let Some(e) = rm.find_best_idle(c, &mut steps) {
            acc = acc.wrapping_add(e.node.index() as u64 + 1);
        }
        if let Some(e) = rm.find_worst_idle(c, &mut steps) {
            acc = acc.wrapping_add(e.node.index() as u64 + 1);
        }
    }
    acc.wrapping_add(steps.scheduling)
        .wrapping_add(steps.housekeeping)
}

fn time_best_of<R>(mut f: impl FnMut() -> R) -> (R, u128) {
    let mut best = u128::MAX;
    let mut out = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_nanos().max(1));
        out = Some(r);
    }
    // INVARIANT: REPS is a nonzero constant, so the loop body ran.
    (out.expect("REPS >= 1"), best)
}

/// One micro measurement: search time only, at a fixed node count.
#[derive(Clone, Debug)]
pub struct MicroPoint {
    /// Node-table size of the populated store.
    pub nodes: usize,
    /// Rounds of the search mix per measurement.
    pub rounds: usize,
    /// Best-of-[`REPS`] wall time under the linear backend, ns.
    pub linear_ns: u128,
    /// Best-of-[`REPS`] wall time under the indexed backend, ns.
    pub indexed_ns: u128,
    /// `linear_ns / indexed_ns`.
    pub speedup: f64,
}

/// One end-to-end measurement: a full simulation at a grid cell.
#[derive(Clone, Debug)]
pub struct EndToEndPoint {
    /// Node count of the cell.
    pub nodes: usize,
    /// Task count of the cell.
    pub tasks: usize,
    /// Best-of-[`REPS`] wall time of the whole run, linear backend, ns.
    pub linear_ns: u128,
    /// Best-of-[`REPS`] wall time of the whole run, indexed backend, ns.
    pub indexed_ns: u128,
    /// `linear_ns / indexed_ns`.
    pub speedup: f64,
    /// Whether the two backends' XML reports were byte-identical
    /// (always true; recorded so the JSON is self-certifying).
    pub reports_identical: bool,
}

/// Full benchmark output, serializable to `BENCH_search.json`.
#[derive(Clone, Debug)]
pub struct SearchBenchReport {
    /// Base seed of the end-to-end grid cells.
    pub seed: u64,
    /// Search-time-only measurements across the node ladder.
    pub micro: Vec<MicroPoint>,
    /// Whole-run measurements across the node × task grid.
    pub end_to_end: Vec<EndToEndPoint>,
}

impl SearchBenchReport {
    /// Micro speedup at the largest node count (the acceptance number).
    #[must_use]
    pub fn peak_micro_speedup(&self) -> f64 {
        self.micro.last().map_or(0.0, |p| p.speedup)
    }

    /// Serialize to the committed `BENCH_search.json` schema.
    ///
    /// Hand-rolled (instead of a serde derive) so the u128 nanosecond
    /// fields and the fixed field order are under our control.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"search-backends\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(
            out,
            "  \"peak_micro_speedup\": {:.2},",
            self.peak_micro_speedup()
        );
        let _ = writeln!(out, "  \"micro\": [");
        for (i, p) in self.micro.iter().enumerate() {
            let comma = if i + 1 < self.micro.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"nodes\": {}, \"rounds\": {}, \"linear_ns\": {}, \
                 \"indexed_ns\": {}, \"speedup\": {:.2}}}{comma}",
                p.nodes, p.rounds, p.linear_ns, p.indexed_ns, p.speedup
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"end_to_end\": [");
        for (i, p) in self.end_to_end.iter().enumerate() {
            let comma = if i + 1 < self.end_to_end.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"nodes\": {}, \"tasks\": {}, \"linear_ns\": {}, \
                 \"indexed_ns\": {}, \"speedup\": {:.2}, \"reports_identical\": {}}}{comma}",
                p.nodes, p.tasks, p.linear_ns, p.indexed_ns, p.speedup, p.reports_identical
            );
        }
        let _ = writeln!(out, "  ]");
        out.push_str("}\n");
        out
    }
}

/// Time the search mix at one node count under both backends.
///
/// # Panics
/// Panics if the two backends' workout checksums disagree — that would
/// mean the backends returned different search results, and no timing
/// of wrong answers is worth reporting.
#[must_use]
pub fn micro_point(nodes: usize, rounds: usize) -> MicroPoint {
    let lin = populated_store(nodes, SearchBackend::Linear);
    let idx = populated_store(nodes, SearchBackend::Indexed);
    // Warm up (page in both stores) and verify equivalence first.
    let check_l = search_workout(&lin, rounds);
    let check_i = search_workout(&idx, rounds);
    assert_eq!(
        check_l, check_i,
        "backends disagreed on the {nodes}-node search workout"
    );
    let (_, linear_ns) = time_best_of(|| search_workout(&lin, rounds));
    let (_, indexed_ns) = time_best_of(|| search_workout(&idx, rounds));
    MicroPoint {
        nodes,
        rounds,
        linear_ns,
        indexed_ns,
        speedup: linear_ns as f64 / indexed_ns as f64,
    }
}

/// Time one full grid cell under both backends and check the reports
/// are byte-identical.
///
/// # Panics
/// Panics if the parameters fail validation or the backends' XML
/// reports differ (they cannot, by DESIGN.md §11 — this is the bench's
/// own guard).
#[must_use]
pub fn end_to_end_point(nodes: usize, tasks: usize, seed: u64) -> EndToEndPoint {
    let mut params = SimParams::paper(nodes, tasks, ReconfigMode::Partial);
    params.seed = dreamsim_rng::derive_stream(seed, (nodes as u64) << 32 | tasks as u64);
    let label = format!("bench-n{nodes}-t{tasks}");
    let lin_point = SweepPoint::new(label.clone(), params.clone());
    let idx_point = SweepPoint::new(label, params).with_search(SearchBackend::Indexed);
    let (lin_report, linear_ns) = time_best_of(|| run_point(&lin_point));
    let (idx_report, indexed_ns) = time_best_of(|| run_point(&idx_point));
    let identical = lin_report.to_xml() == idx_report.to_xml();
    assert!(identical, "backend reports diverged at n{nodes}/t{tasks}");
    EndToEndPoint {
        nodes,
        tasks,
        linear_ns,
        indexed_ns,
        speedup: linear_ns as f64 / indexed_ns as f64,
        reports_identical: identical,
    }
}

/// Run the full benchmark: micro points across `node_ladder` (ascending
/// order recommended — the last entry is the headline number) and
/// end-to-end points across `node_ladder × task_ladder`.
#[must_use]
pub fn run_search_bench(
    node_ladder: &[usize],
    task_ladder: &[usize],
    seed: u64,
    rounds: usize,
) -> SearchBenchReport {
    let micro = node_ladder
        .iter()
        .map(|&n| micro_point(n, rounds))
        .collect();
    let mut end_to_end = Vec::new();
    for &n in node_ladder {
        for &t in task_ladder {
            end_to_end.push(end_to_end_point(n, t, seed));
        }
    }
    SearchBenchReport {
        seed,
        micro,
        end_to_end,
    }
}

// ----------------------------------------------------------------------
// Grid benchmark (`dreamsim bench-grid` / BENCH_grid.json)
// ----------------------------------------------------------------------

/// FNV-1a over a byte string; the checksum the grid bench folds cell
/// dumps into (stable, dependency-free, endian-independent).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serial timings of one node count's sub-grid under each backend.
#[derive(Clone, Debug)]
pub struct GridSerialPoint {
    /// Node count of the sub-grid.
    pub nodes: usize,
    /// Best-of-[`REPS`] serial wall time, linear backend, ns.
    pub linear_ns: u128,
    /// Best-of-[`REPS`] serial wall time, indexed backend, ns.
    pub indexed_ns: u128,
    /// Best-of-[`REPS`] serial wall time, auto backend, ns.
    pub auto_ns: u128,
    /// `auto_ns` relative to the *faster* explicit backend (1.0 =
    /// exactly as fast; the acceptance bound is ≤ 1.05).
    pub auto_vs_best: f64,
}

/// Wall time of the whole grid at one worker count (auto backend).
#[derive(Clone, Debug)]
pub struct GridJobsPoint {
    /// Worker count (`--jobs`).
    pub jobs: usize,
    /// Best-of-[`REPS`] wall time, ns.
    pub wall_ns: u128,
    /// Speedup relative to the `jobs = 1` entry.
    pub speedup_vs_j1: f64,
}

/// Full grid-benchmark output, serializable to `BENCH_grid.json`.
#[derive(Clone, Debug)]
pub struct GridBenchReport {
    /// Base seed of the grid cells.
    pub seed: u64,
    /// Hardware threads the host reported (`available_parallelism`);
    /// parallel speedups are bounded by this, so the JSON records it.
    pub hardware_threads: usize,
    /// Node ladder of the grid.
    pub node_ladder: Vec<usize>,
    /// Task ladder of the grid.
    pub task_ladder: Vec<usize>,
    /// Per-node-count serial backend comparison.
    pub serial: Vec<GridSerialPoint>,
    /// Whole-grid wall time across the jobs ladder.
    pub parallel: Vec<GridJobsPoint>,
    /// FNV-1a checksum of the whole grid's cell dump.
    pub checksum: u64,
    /// Whether every timed run — all backends, all worker counts —
    /// produced identical cell dumps (always true; recorded so the
    /// JSON is self-certifying).
    pub checksums_identical: bool,
}

impl GridBenchReport {
    /// Serialize to the committed `BENCH_grid.json` schema (hand-rolled
    /// for the same reasons as [`SearchBenchReport::to_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let list = |v: &[usize]| {
            v.iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"grid-parallel\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"hardware_threads\": {},", self.hardware_threads);
        let _ = writeln!(out, "  \"node_ladder\": [{}],", list(&self.node_ladder));
        let _ = writeln!(out, "  \"task_ladder\": [{}],", list(&self.task_ladder));
        let _ = writeln!(out, "  \"serial\": [");
        for (i, p) in self.serial.iter().enumerate() {
            let comma = if i + 1 < self.serial.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"nodes\": {}, \"linear_ns\": {}, \"indexed_ns\": {}, \
                 \"auto_ns\": {}, \"auto_vs_best\": {:.3}}}{comma}",
                p.nodes, p.linear_ns, p.indexed_ns, p.auto_ns, p.auto_vs_best
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"parallel\": [");
        for (i, p) in self.parallel.iter().enumerate() {
            let comma = if i + 1 < self.parallel.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"jobs\": {}, \"wall_ns\": {}, \"speedup_vs_j1\": {:.2}}}{comma}",
                p.jobs, p.wall_ns, p.speedup_vs_j1
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"checksum\": \"{:016x}\",", self.checksum);
        let _ = writeln!(
            out,
            "  \"checksums_identical\": {}",
            self.checksums_identical
        );
        out.push_str("}\n");
        out
    }
}

/// Run the grid benchmark: serial backend comparison per node count,
/// then the whole grid across `jobs_ladder` worker counts under the
/// auto backend. Every timed run's cell dump is checksummed and
/// cross-checked.
///
/// # Panics
/// Panics if any two runs' cell dumps disagree — a grid benchmark that
/// compared different answers would be meaningless.
#[must_use]
pub fn run_grid_bench(
    node_ladder: &[usize],
    task_ladder: &[usize],
    seed: u64,
    jobs_ladder: &[usize],
) -> GridBenchReport {
    let mut identical = true;
    let mut serial = Vec::with_capacity(node_ladder.len());
    for &nodes in node_ladder {
        let backends = [
            SearchBackend::Linear,
            SearchBackend::Indexed,
            SearchBackend::Auto,
        ];
        let mut times = [0u128; 3];
        let mut dumps: Vec<String> = Vec::with_capacity(3);
        for (slot, &backend) in backends.iter().enumerate() {
            let (grid, ns) = time_best_of(|| {
                ExperimentGrid::run_with_backend(&[nodes], task_ladder, seed, 1, backend)
            });
            times[slot] = ns;
            dumps.push(grid.cells_csv());
        }
        assert!(
            dumps.iter().all(|d| d == &dumps[0]),
            "backends disagreed on the {nodes}-node sub-grid"
        );
        identical &= dumps.iter().all(|d| d == &dumps[0]);
        let best = times[0].min(times[1]);
        serial.push(GridSerialPoint {
            nodes,
            linear_ns: times[0],
            indexed_ns: times[1],
            auto_ns: times[2],
            auto_vs_best: times[2] as f64 / best as f64,
        });
    }
    let mut parallel = Vec::with_capacity(jobs_ladder.len());
    let mut base_dump: Option<String> = None;
    let mut j1_ns = 0u128;
    for &jobs in jobs_ladder {
        let (grid, ns) =
            time_best_of(|| ExperimentGrid::run(node_ladder, task_ladder, seed, jobs.max(1)));
        let dump = grid.cells_csv();
        match &base_dump {
            None => {
                base_dump = Some(dump);
                j1_ns = ns;
            }
            Some(b) => {
                assert_eq!(b, &dump, "grid diverged at -j{jobs}");
                identical &= b == &dump;
            }
        }
        parallel.push(GridJobsPoint {
            jobs: jobs.max(1),
            wall_ns: ns,
            speedup_vs_j1: j1_ns as f64 / ns as f64,
        });
    }
    // INVARIANT: callers pass a nonempty jobs ladder (the CLI defaults
    // one), so the whole-grid dump exists.
    let checksum = fnv1a(base_dump.expect("jobs ladder must be nonempty").as_bytes());
    GridBenchReport {
        seed,
        hardware_threads: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        node_ladder: node_ladder.to_vec(),
        task_ladder: task_ladder.to_vec(),
        serial,
        parallel,
        checksum,
        checksums_identical: identical,
    }
}

// ----------------------------------------------------------------------
// Scale benchmark (`dreamsim bench-scale` / BENCH_scale.json)
// ----------------------------------------------------------------------

/// Process peak resident-set size (`VmHWM`) in KiB, read from
/// `/proc/self/status`; 0 on platforms without procfs.
///
/// `VmHWM` is the process-lifetime *high-water mark*, so it is
/// cumulative across rungs: the scale bench runs its ladder in
/// ascending node order and reads the mark right after each rung's
/// sketch-stats run, which makes the recorded value ≈ that rung's own
/// peak (every earlier rung is an order of magnitude smaller).
#[must_use]
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// One rung of the scale ladder: the same workload timed with exact
/// waiting-time samples and with the streaming quantile sketch.
#[derive(Clone, Debug)]
pub struct ScaleRung {
    /// Node count of the rung.
    pub nodes: usize,
    /// Task count of the rung (`nodes × tasks_per_node`).
    pub tasks: usize,
    /// Wall time with exact stats (the default), ns; best of the
    /// configured repetitions.
    pub exact_ns: u128,
    /// Wall time with sketch stats, ns; best of the configured
    /// repetitions.
    pub sketch_ns: u128,
    /// `exact_ns / sketch_ns`.
    pub speedup: f64,
    /// Peak RSS in KiB right after the sketch-stats run, which goes
    /// first (see [`peak_rss_kb`] for the cumulative caveat).
    pub peak_rss_kb: u64,
    /// Deterministic per-phase operation counters, identical under both
    /// stats backends (the bench asserts it), so CI can diff
    /// algorithmic cost against the committed baseline without trusting
    /// the wall clock.
    pub profile: dreamsim_engine::PhaseProfile,
}

/// Full scale-ladder output, serializable to `BENCH_scale.json`.
#[derive(Clone, Debug)]
pub struct ScaleBenchReport {
    /// Base seed the rung seeds derive from.
    pub seed: u64,
    /// Tasks generated per node at every rung.
    pub tasks_per_node: usize,
    /// Ladder rungs, ascending node counts.
    pub rungs: Vec<ScaleRung>,
}

impl ScaleBenchReport {
    /// Serialize to the committed `BENCH_scale.json` schema
    /// (hand-rolled for the same reasons as
    /// [`SearchBenchReport::to_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"scale-ladder\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"tasks_per_node\": {},", self.tasks_per_node);
        let _ = writeln!(out, "  \"rungs\": [");
        for (i, r) in self.rungs.iter().enumerate() {
            let comma = if i + 1 < self.rungs.len() { "," } else { "" };
            let mut profile = String::from("{");
            for (j, (name, value)) in r.profile.gated_counters().iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(profile, "{sep}\"{name}\": {value}");
            }
            let _ = write!(profile, ", \"checkpoint_bytes\": {}", r.profile.checkpoint_bytes);
            if let Some(allocs) = r.profile.allocations {
                let _ = write!(profile, ", \"allocations\": {allocs}");
            }
            profile.push('}');
            let _ = writeln!(
                out,
                "    {{\"nodes\": {}, \"tasks\": {}, \"exact_ns\": {}, \"sketch_ns\": {}, \
                 \"speedup\": {:.2}, \"peak_rss_kb\": {}, \"profile\": {profile}}}{comma}",
                r.nodes, r.tasks, r.exact_ns, r.sketch_ns, r.speedup, r.peak_rss_kb
            );
        }
        let _ = writeln!(out, "  ]");
        out.push_str("}\n");
        out
    }
}

impl ScaleBenchReport {
    /// Diff this run's per-rung phase counters against a committed
    /// baseline (`BENCH_scale.json` text). Returns human-readable notes
    /// on success; an `Err` lists every counter that *grew* by more than
    /// `tolerance` (e.g. `0.25` = 25 %) relative to the baseline.
    ///
    /// Only the operation counters are gated — wall-clock and RSS fields
    /// are ignored, so the check is meaningful on loaded CI runners.
    /// Counter decreases are reported as notes, never failures (an
    /// improvement should update the baseline, not break the build).
    /// Baseline rungs that predate the profile schema, and rungs present
    /// on only one side, are skipped with a note.
    pub fn check_against(&self, baseline_json: &str, tolerance: f64) -> Result<Vec<String>, String> {
        let baseline: serde::Value = serde_json::from_str(baseline_json)
            .map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        let base_rungs = baseline
            .get("rungs")
            .and_then(serde::Value::as_array)
            .ok_or_else(|| "baseline has no rungs array".to_string())?;
        let mut notes = Vec::new();
        let mut failures = Vec::new();
        for r in &self.rungs {
            let found = base_rungs.iter().find(|b| {
                b.get("nodes").and_then(serde::Value::as_u64) == Some(r.nodes as u64)
                    && b.get("tasks").and_then(serde::Value::as_u64) == Some(r.tasks as u64)
            });
            let Some(base) = found else {
                notes.push(format!(
                    "n{}: no baseline rung with {} tasks — skipped",
                    r.nodes, r.tasks
                ));
                continue;
            };
            let Some(profile) = base.get("profile") else {
                notes.push(format!("n{}: baseline predates profiles — skipped", r.nodes));
                continue;
            };
            for (name, new) in r.profile.gated_counters() {
                let Some(old) = profile.get(name).and_then(serde::Value::as_u64) else {
                    notes.push(format!("n{}: baseline lacks {name} — skipped", r.nodes));
                    continue;
                };
                if new == old {
                    continue;
                }
                let growth = if old == 0 {
                    f64::INFINITY
                } else {
                    (new as f64 - old as f64) / old as f64
                };
                if growth > tolerance {
                    failures.push(format!(
                        "n{}: {name} regressed {old} -> {new} (+{:.1}%, tolerance {:.0}%)",
                        r.nodes,
                        growth * 100.0,
                        tolerance * 100.0
                    ));
                } else {
                    notes.push(format!(
                        "n{}: {name} changed {old} -> {new} ({:+.1}%) within tolerance",
                        r.nodes,
                        growth * 100.0
                    ));
                }
            }
        }
        if failures.is_empty() {
            Ok(notes)
        } else {
            Err(failures.join("\n"))
        }
    }
}

fn time_reps<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, u128) {
    let mut best = u128::MAX;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_nanos().max(1));
        out = Some(r);
    }
    // INVARIANT: reps is clamped to >= 1, so the loop body ran.
    (out.expect("reps >= 1"), best)
}

/// Run the scale ladder: at each rung (ascending `node_ladder`, tasks
/// scaled as `nodes × tasks_per_node`) time the run with sketch stats,
/// record peak RSS, then time it with exact stats. Both legs do the
/// same work in a different stats structure, so their phase profiles
/// must agree; the sketch-vs-exact report identity below its window is
/// pinned separately by the differential battery.
///
/// # Panics
/// Panics if parameters fail validation or the two legs' phase
/// profiles differ — timings of diverging runs are meaningless.
#[must_use]
pub fn run_scale_bench(
    node_ladder: &[usize],
    tasks_per_node: usize,
    seed: u64,
    reps: usize,
) -> ScaleBenchReport {
    let mut rungs = Vec::with_capacity(node_ladder.len());
    for &nodes in node_ladder {
        let tasks = nodes.saturating_mul(tasks_per_node);
        let mut params = SimParams::paper(nodes, tasks, ReconfigMode::Partial);
        params.seed = dreamsim_rng::derive_stream(seed, nodes as u64);
        let exact_point = SweepPoint::new(format!("scale-n{nodes}"), params);
        let sketch_point = exact_point
            .clone()
            .with_stats(dreamsim_engine::StatsBackend::Sketch);
        let ((_, profile), sketch_ns) =
            time_reps(reps, || crate::runner::run_point_profiled(&sketch_point));
        let peak = peak_rss_kb();
        let ((_, exact_profile), exact_ns) =
            time_reps(reps, || crate::runner::run_point_profiled(&exact_point));
        assert_eq!(
            profile, exact_profile,
            "sketch stats changed the phase profile at n{nodes}"
        );
        rungs.push(ScaleRung {
            nodes,
            tasks,
            exact_ns,
            sketch_ns,
            speedup: exact_ns as f64 / sketch_ns as f64,
            peak_rss_kb: peak,
            profile,
        });
    }
    ScaleBenchReport {
        seed,
        tasks_per_node,
        rungs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workout_checksums_agree_across_backends() {
        for nodes in [10, 50, 150] {
            let lin = populated_store(nodes, SearchBackend::Linear);
            let idx = populated_store(nodes, SearchBackend::Indexed);
            assert_eq!(
                search_workout(&lin, 64),
                search_workout(&idx, 64),
                "{nodes} nodes"
            );
            idx.check_invariants().unwrap();
        }
    }

    #[test]
    fn bench_report_serializes_expected_schema() {
        let report = run_search_bench(&[20, 40], &[100], 7, 16);
        assert_eq!(report.micro.len(), 2);
        assert_eq!(report.end_to_end.len(), 2);
        assert!(report.end_to_end.iter().all(|p| p.reports_identical));
        let json = report.to_json();
        for needle in [
            "\"benchmark\": \"search-backends\"",
            "\"peak_micro_speedup\"",
            "\"micro\"",
            "\"end_to_end\"",
            "\"reports_identical\": true",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(report.peak_micro_speedup() > 0.0);
    }

    #[test]
    fn scale_bench_serializes_expected_schema() {
        let report = run_scale_bench(&[20, 40], 10, 7, 1);
        assert_eq!(report.rungs.len(), 2);
        assert_eq!(report.rungs[0].tasks, 200);
        assert!(report
            .rungs
            .iter()
            .all(|r| r.exact_ns > 0 && r.sketch_ns > 0));
        let json = report.to_json();
        for needle in [
            "\"benchmark\": \"scale-ladder\"",
            "\"tasks_per_node\": 10",
            "\"exact_ns\"",
            "\"sketch_ns\"",
            "\"peak_rss_kb\"",
            "\"profile\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn peak_rss_reads_a_nonzero_high_water_mark_on_linux() {
        // The committed BENCH_scale.json promises a real peak-RSS
        // column; on the Linux CI/dev hosts procfs must deliver one.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn grid_bench_serializes_expected_schema() {
        let report = run_grid_bench(&[20], &[100], 7, &[1, 2]);
        assert_eq!(report.serial.len(), 1);
        assert_eq!(report.parallel.len(), 2);
        assert!(report.checksums_identical);
        assert!(report.serial[0].auto_vs_best > 0.0);
        assert!((report.parallel[0].speedup_vs_j1 - 1.0).abs() < 1e-9);
        let json = report.to_json();
        for needle in [
            "\"benchmark\": \"grid-parallel\"",
            "\"hardware_threads\"",
            "\"serial\"",
            "\"parallel\"",
            "\"checksum\"",
            "\"checksums_identical\": true",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
