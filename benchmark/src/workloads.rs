//! The four benchmark workloads, each runnable plain (for the
//! end-to-end metrics) or traced (for the per-layer metrics).
//!
//! Every workload is a single-process offline computation: no request
//! loop, so neither open- nor closed-loop on the host side. All use the
//! paper-faithful `CaseStudyScheduler` (best fit) with
//! `SearchBackend::Auto`, and derive their simulation seeds from the
//! benchmark seed.

use crate::probe::HostClock;
use crate::trace::{span, Recorder, Shared, Span, TracedPolicy, TracedSource};
use dreamsim_engine::{read_checkpoint, ArrivalDistribution};
use dreamsim_engine::{
    recover_from_ring, scan_ring, serve, CheckpointRing, Metrics, ParamsError, PhaseProfile,
    ReconfigMode, SchedulePolicy, SearchBackend, ServiceLegEnd, ServiceLegOptions, ServiceOptions,
    ServiceParams, SimParams, Simulation, TaskSource, Watchdog, WatchdogParams,
};
use dreamsim_sched::CaseStudyScheduler;
use dreamsim_sweep::ExperimentGrid;
use dreamsim_workload::{OpenSource, SyntheticSource};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table II at 200 nodes, partial mode, 24 cells of 5 000 tasks: past
    /// saturation, so every completion rescans a long suspension queue.
    PaperSaturated,
    /// 1 000 000 nodes and 2 000 000 tasks, partial mode: the queue
    /// stays almost empty and the working set dwarfs the caches.
    Scale1m,
    /// Open-system `serve` over 20 000 nodes with a checkpoint ring,
    /// then recovery from that ring.
    ServeRing,
    /// The paper-figure grid, 100/200 nodes × full/partial × 1 000 to
    /// 10 000 tasks, four replicas, each on up to two threads.
    FiguresGrid,
}

/// Every workload, in the order the full benchmark starts its rounds.
pub const WORKLOADS: [Workload; 4] = [
    Workload::PaperSaturated,
    Workload::Scale1m,
    Workload::ServeRing,
    Workload::FiguresGrid,
];

impl Workload {
    /// The name the command line and the outputs use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSaturated => "paper-saturated",
            Workload::Scale1m => "scale-1m",
            Workload::ServeRing => "serve-ring",
            Workload::FiguresGrid => "figures-grid",
        }
    }

    /// Inverse of [`name`](Self::name).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// Seed stream of this workload under `seed`, so the four workloads
    /// draw independent inputs from one benchmark seed.
    fn seed(self, seed: u64) -> u64 {
        let stream = match self {
            Workload::PaperSaturated => 1,
            Workload::Scale1m => 2,
            Workload::ServeRing => 3,
            Workload::FiguresGrid => 4,
        };
        dreamsim_rng::derive_stream(seed, stream)
    }

    /// How strongly the workload's time follows the host-speed probe
    /// (see [`crate::probe`]): the exponent of the probe's slowdown that
    /// its times are divided by. The queue rescans of `paper-saturated`
    /// and `figures-grid` are compute-bound like the probe (1).
    /// `scale-1m` waits mostly on memory and `serve-ring` on fsync;
    /// over 89 and 37 back-to-back runs their times grew as the probe's
    /// to the power 0.45 and 0.2, and medians of a run's worth of them
    /// spread least, or as little as any, at 0.5 (see the README).
    fn sensitivity(self) -> f64 {
        match self {
            Workload::PaperSaturated | Workload::FiguresGrid => 1.0,
            Workload::Scale1m | Workload::ServeRing => 0.5,
        }
    }
}

/// Input size. `Full` is the benchmark; `Small` runs the same code
/// paths in well under a second, for the crate's tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Test-sized inputs.
    Small,
}

/// What one run of a workload measured and produced. Untraced runs give
/// their times in host-normalised seconds (see [`crate::probe`]); traced
/// runs give raw seconds, like their spans.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Whole workload: set-up, run, recovery (serve), reports.
    pub wall_s: f64,
    /// [`wall_s`](Self::wall_s) in raw seconds.
    pub raw_wall_s: f64,
    /// Median host factor of the run's timed sections (1 when traced).
    pub host_factor: f64,
    /// Constructing the workload's simulations (the grid, serve: one
    /// extra construction of each, timed apart).
    pub setup_s: f64,
    /// Time spent running events (the grid: the whole grid run).
    pub run_s: f64,
    /// Events popped off the event queue.
    pub events: u64,
    /// Ring recovery time (serve-ring only).
    pub recover_s: Option<f64>,
    /// FNV-1a 64 of the workload's report.
    pub digest: u64,
    /// Deterministic counters that must repeat exactly across runs.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Coarse spans (traced runs only).
    pub spans: Vec<Span>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a 64 hash `h` over `bytes`.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 over `bytes`: the digest every report is checked by.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Threads the figures grid runs on: two, or fewer on a smaller host.
#[must_use]
pub(crate) fn grid_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Run `w` once, untraced or traced.
pub fn run(w: Workload, seed: u64, size: Size, traced: bool) -> Result<Outcome, String> {
    let seed = w.seed(seed);
    let clock = || HostClock::new(1, w.sensitivity());
    match (w, traced) {
        (Workload::PaperSaturated | Workload::Scale1m, false) => {
            batch(&mut clock(), &batch_cells(w, seed, size))
        }
        (Workload::PaperSaturated | Workload::Scale1m, true) => {
            batch_traced(&batch_cells(w, seed, size))
        }
        (Workload::ServeRing, false) => serve_ring(&mut clock(), &ServeShape::new(seed, size)),
        (Workload::ServeRing, true) => serve_ring_traced(&ServeShape::new(seed, size)),
        (Workload::FiguresGrid, false) => grid(
            &mut HostClock::new(grid_jobs(), w.sensitivity()),
            &GridShape::new(seed, size),
        ),
        (Workload::FiguresGrid, true) => grid_traced(&GridShape::new(seed, size)),
    }
}

/// Construct the simulation of every cell in turn, dropping each before
/// the next, as one timed section; host-normalised seconds. For the
/// workloads whose simulations are built inside a library call.
fn setup_section<T>(
    clock: &mut HostClock,
    cells: &[SimParams],
    build: impl Fn(&SimParams) -> Result<T, String>,
) -> Result<f64, String> {
    let (built, _, setup_s) = clock.time(|| cells.iter().try_for_each(|p| build(p).map(drop)));
    built.map(|()| setup_s)
}

fn params_error(e: ParamsError) -> String {
    format!("invalid parameters: {e}")
}

fn counters(p: &PhaseProfile) -> Vec<(&'static str, u64)> {
    vec![
        ("model.scheduling_steps", p.scheduling_steps),
        ("model.housekeeping_steps", p.housekeeping_steps),
        ("model.store_mutations", p.store_mutations),
        ("engine.events_pushed", p.events_pushed),
        ("engine.events_popped", p.events_popped),
        ("engine.stats_samples", p.stats_samples),
    ]
}

fn check_conservation(m: &Metrics, tasks: usize, what: &str) -> Result<(), String> {
    if m.total_tasks_generated != tasks as u64 {
        return Err(format!(
            "{what}: generated {} tasks, expected {tasks}",
            m.total_tasks_generated
        ));
    }
    if m.total_tasks_completed + m.total_discarded_tasks != m.total_tasks_generated {
        return Err(format!(
            "{what}: completed {} + discarded {} != generated {}",
            m.total_tasks_completed, m.total_discarded_tasks, m.total_tasks_generated
        ));
    }
    Ok(())
}

fn build<S: TaskSource, P: SchedulePolicy>(
    params: &SimParams,
    source: S,
    policy: P,
) -> Result<Simulation<S, P>, String> {
    Simulation::new(params.clone(), source, policy)
        .map(|s| s.with_search_backend(SearchBackend::Auto))
        .map_err(params_error)
}

// ----------------------------------------------------------------------
// paper-saturated and scale-1m: batch runs, one cell after another
// ----------------------------------------------------------------------

/// The cells of a batch workload. `paper-saturated` runs 24
/// independent Table II cells of 5 000 tasks, each with its own derived
/// seed, rather than one 30 000-task run. Both do the same kind of work,
/// rescanning a queue of thousands of tasks, but a 30 000-task table
/// (~3.8 MB) overflows a 2 MB per-core L2, and on a shared host its
/// rescan speed then swings up to 4× between runs of identical work; a
/// 5 000-task table stays in L2.
fn batch_cells(w: Workload, seed: u64, size: Size) -> Vec<SimParams> {
    let paper =
        |nodes, tasks, seed| SimParams::paper(nodes, tasks, ReconfigMode::Partial).with_seed(seed);
    match (w, size) {
        (Workload::Scale1m, Size::Full) => vec![paper(1_000_000, 2_000_000, seed)],
        (Workload::Scale1m, Size::Small) => vec![paper(500, 1_000, seed)],
        (_, Size::Full) => (0..24)
            .map(|i| paper(200, 5_000, dreamsim_rng::derive_stream(seed, i)))
            .collect(),
        (_, Size::Small) => (0..2)
            .map(|i| paper(50, 500, dreamsim_rng::derive_stream(seed, i)))
            .collect(),
    }
}

/// A cell as `ExperimentGrid` builds it: synthetic Table II source,
/// paper scheduler, automatic search backend.
fn synthetic(p: &SimParams) -> Result<Simulation<SyntheticSource, CaseStudyScheduler>, String> {
    build(
        p,
        SyntheticSource::from_params(p),
        CaseStudyScheduler::new(),
    )
}

fn add_profile(sum: &mut PhaseProfile, p: &PhaseProfile) {
    sum.scheduling_steps += p.scheduling_steps;
    sum.housekeeping_steps += p.housekeeping_steps;
    sum.store_mutations += p.store_mutations;
    sum.events_pushed += p.events_pushed;
    sum.events_popped += p.events_popped;
    sum.stats_samples += p.stats_samples;
}

/// Run the cells one after another, each as one timed section: build,
/// run, report. The digest covers every cell's XML report in order.
fn batch(clock: &mut HostClock, cells: &[SimParams]) -> Result<Outcome, String> {
    let (mut o, mut raw_wall_s) = (Outcome::default(), 0.0);
    let mut digest = FNV_OFFSET;
    let mut sum = PhaseProfile::default();
    for p in cells {
        let (cell, factor) = clock.measure(|| -> Result<_, String> {
            let t = Instant::now();
            let sim = synthetic(p)?;
            let setup = t.elapsed().as_secs_f64();
            let result = sim.run();
            let run = t.elapsed().as_secs_f64() - setup;
            let xml = result.report.to_xml();
            Ok((result, xml, setup, run, t.elapsed().as_secs_f64()))
        });
        let (result, xml, setup, run, wall) = cell?;
        o.setup_s += setup / factor;
        o.run_s += run / factor;
        o.wall_s += wall / factor;
        raw_wall_s += wall;
        digest = fnv1a_extend(digest, xml.as_bytes());
        check_conservation(&result.metrics, p.total_tasks, "batch cell")?;
        add_profile(&mut sum, &result.profile);
    }
    Ok(Outcome {
        raw_wall_s,
        host_factor: clock.median_factor(),
        events: sum.events_popped,
        digest,
        counters: counters(&sum),
        ..o
    })
}

/// One cell with every layer boundary timed; returns the run's result
/// and its XML report.
fn traced_cell(
    rec: &Shared,
    p: &SimParams,
) -> Result<(dreamsim_engine::RunResult, String), String> {
    let sim = span(rec, "engine.new", || {
        Simulation::new(
            p.clone(),
            TracedSource::new(SyntheticSource::from_params(p), rec),
            TracedPolicy::new(CaseStudyScheduler::new(), rec),
        )
    })
    .map_err(params_error)?;
    let sim = span(rec, "model.index_build", || {
        sim.with_search_backend(SearchBackend::Auto)
    });
    let result = span(rec, "engine.run", || sim.run());
    let xml = span(rec, "engine.report.to_xml", || result.report.to_xml());
    check_conservation(&result.metrics, p.total_tasks, "traced cell")?;
    Ok((result, xml))
}

fn batch_traced(cells: &[SimParams]) -> Result<Outcome, String> {
    let rec = Recorder::shared();
    let start = Instant::now();
    let mut digest = FNV_OFFSET;
    let mut sum = PhaseProfile::default();
    for p in cells {
        let (result, xml) = traced_cell(&rec, p)?;
        digest = fnv1a_extend(digest, xml.as_bytes());
        add_profile(&mut sum, &result.profile);
    }
    let wall_s = start.elapsed().as_secs_f64();
    Ok(traced_outcome(&rec, wall_s, digest, counters(&sum), 0))
}

// ----------------------------------------------------------------------
// serve-ring: open-system service with a checkpoint ring, then recovery
// ----------------------------------------------------------------------

struct ServeShape {
    params: SimParams,
    ring_every: u64,
    ring_retain: u64,
}

impl ServeShape {
    fn new(seed: u64, size: Size) -> Self {
        let (nodes, horizon, day_length, ring_every) = match size {
            Size::Full => (20_000, 1_000_000, 200_000, 20_000),
            Size::Small => (50, 20_000, 4_000, 2_000),
        };
        // Inter-arrivals are at least one tick, so horizon + 1 tasks
        // never run dry inside the window (as `dreamsim serve` does).
        let mut params =
            SimParams::paper(nodes, horizon as usize + 1, ReconfigMode::Partial).with_seed(seed);
        params.arrival = ArrivalDistribution::Poisson;
        params.service = Some(ServiceParams {
            horizon,
            day_length,
            amplitude_permille: 500,
            window: 1_000,
            window_retain: 8,
        });
        Self {
            params,
            ring_every,
            ring_retain: 4,
        }
    }

    fn horizon(&self) -> u64 {
        self.params.service.map_or(0, |s| s.horizon)
    }
}

/// A fresh, empty ring directory inside the benchmark's own scratch
/// directory (the benchmark writes nowhere outside its checkout).
fn fresh_ring_dir() -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scratch")
        .join(format!(
            "ring-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Removes the ring directory however the run ends.
struct RingDir(PathBuf);

impl Drop for RingDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn serve_ring(clock: &mut HostClock, shape: &ServeShape) -> Result<Outcome, String> {
    let params = &shape.params;
    let setup_s = setup_section(clock, std::slice::from_ref(params), |p| {
        build(p, OpenSource::from_params(p), CaseStudyScheduler::new())
    })?;
    let dir = RingDir(fresh_ring_dir()?);
    // The watchdog is on by default.
    let mut opts = ServiceOptions::new(&dir.0);
    opts.ring_every = shape.ring_every;
    opts.ring_retain = shape.ring_retain;
    opts.search = Some(SearchBackend::Auto);

    let (outcome, raw_run, run_s) = clock.time(|| {
        serve(
            params,
            OpenSource::from_params,
            CaseStudyScheduler::new,
            &opts,
        )
    });
    let outcome = outcome.map_err(|e| format!("serve failed: {e}"))?;
    let (recovered, raw_recover, recover_s) = clock.time(|| {
        recover_from_ring(
            &dir.0,
            params,
            &OpenSource::from_params,
            &CaseStudyScheduler::new,
        )
    });
    let (resumed, recovery) = recovered.map_err(|e| format!("recovery failed: {e}"))?;
    let result = outcome
        .result
        .ok_or_else(|| "serve ended without a report".to_string())?;
    let (xml, raw_xml, xml_s) = clock.time(|| result.report.to_xml());
    let digest = fnv1a(xml.as_bytes());

    if outcome.killed || outcome.restarts > 0 || !outcome.recovery.fresh_start {
        return Err(format!(
            "serve was not one clean window: killed {}, restarts {}, fresh start {}",
            outcome.killed, outcome.restarts, outcome.recovery.fresh_start
        ));
    }
    check_recovery(resumed, &recovery.rejected, shape.horizon(), &xml)?;
    Ok(Outcome {
        wall_s: run_s + recover_s + xml_s,
        raw_wall_s: raw_run + raw_recover + raw_xml,
        host_factor: clock.median_factor(),
        setup_s,
        run_s,
        events: result.profile.events_popped,
        recover_s: Some(recover_s),
        digest,
        counters: counters(&result.profile),
        ..Outcome::default()
    })
}

/// The resumed service must sit at the horizon, and finishing it must
/// reproduce the uninterrupted report byte for byte.
fn check_recovery<S: TaskSource, P: SchedulePolicy>(
    resumed: Option<Simulation<S, P>>,
    rejected: &[dreamsim_engine::RejectedSnapshot],
    horizon: u64,
    xml: &str,
) -> Result<(), String> {
    if let Some(r) = rejected.first() {
        return Err(format!("recovery rejected {}: {}", r.file, r.error));
    }
    let sim = resumed.ok_or_else(|| "recovery found no snapshot".to_string())?;
    if sim.clock() != horizon {
        return Err(format!(
            "recovered clock {} is not the horizon {horizon}",
            sim.clock()
        ));
    }
    if sim.finish_service().report.to_xml() != xml {
        return Err("the recovered service reports differently".to_string());
    }
    Ok(())
}

fn serve_ring_traced(shape: &ServeShape) -> Result<Outcome, String> {
    let params = &shape.params;
    let dir = RingDir(fresh_ring_dir()?);
    let rec = Recorder::shared();
    let ring = CheckpointRing::new(&dir.0, shape.ring_retain);
    let start = Instant::now();
    // `serve` scans the ring for a snapshot to resume before it starts
    // fresh; the directory is new, so the scan must come back empty.
    let found = span(&rec, "engine.service", || scan_ring(&dir.0))
        .map_err(|e| format!("ring scan failed: {e}"))?;
    if !found.is_empty() {
        return Err("a fresh ring directory holds snapshots".to_string());
    }
    let sim = span(&rec, "engine.new", || {
        Simulation::new(
            params.clone(),
            TracedSource::new(OpenSource::from_params(params), &rec),
            TracedPolicy::new(CaseStudyScheduler::new(), &rec),
        )
    })
    .map_err(params_error)?;
    let mut sim = span(&rec, "model.index_build", || {
        sim.with_search_backend(SearchBackend::Auto)
    });

    // The same window `serve` runs, cut into legs that stop at each ring
    // boundary so the benchmark can time every snapshot from outside:
    // audit, capture, a separate encode, and the ring write (which
    // encodes again, CRCs, fsyncs and prunes).
    let mut watchdog = Some(Watchdog::new(WatchdogParams::default()));
    let mut leg = ServiceLegOptions {
        ring_every: shape.ring_every,
        ring_retain: shape.ring_retain,
        stop_at: Some(shape.ring_every),
        ..ServiceLegOptions::default()
    };
    let mut bytes = 0u64;
    loop {
        let end = span(&rec, "engine.run", || {
            sim.run_service_leg(&leg, &mut watchdog)
        })
        .map_err(|e| format!("service leg failed: {e}"))?;
        if let ServiceLegEnd::Stalled(diag) = end {
            return Err(format!("watchdog tripped: {diag}"));
        }
        span(&rec, "engine.audit", || sim.audit()).map_err(|e| format!("audit failed: {e}"))?;
        let cp = span(&rec, "engine.checkpoint.capture", || sim.checkpoint());
        let encoded = span(&rec, "engine.checkpoint.encode", || {
            serde_json::to_string(&cp)
        })
        .map_err(|e| format!("encode failed: {e}"))?;
        bytes += encoded.len() as u64;
        drop(encoded);
        span(&rec, "engine.checkpoint.write", || ring.write(&cp))
            .map_err(|e| format!("ring write failed: {e}"))?;
        if end == ServiceLegEnd::Horizon {
            break;
        }
        let every = shape.ring_every;
        leg.stop_at = Some((sim.clock() / every + 1) * every);
    }
    let result = span(&rec, "engine.service", || sim.finish_service());
    let xml = span(&rec, "engine.report.to_xml", || result.report.to_xml());
    let digest = fnv1a(xml.as_bytes());

    // `recover_from_ring`, step by step: scan, read the newest snapshot,
    // resume from it.
    let entries = span(&rec, "engine.checkpoint.scan", || scan_ring(&dir.0))
        .map_err(|e| format!("ring scan failed: {e}"))?;
    let newest = entries
        .last()
        .ok_or_else(|| "the ring is empty after the run".to_string())?;
    let cp = span(&rec, "engine.checkpoint.read", || {
        read_checkpoint(&newest.path)
    })
    .map_err(|e| format!("reading {}: {e}", newest.path.display()))?;
    if cp.params() != params {
        return Err("the newest snapshot has other parameters".to_string());
    }
    let resumed = span(&rec, "engine.checkpoint.resume", || {
        Simulation::resume(
            cp,
            OpenSource::from_params(params),
            CaseStudyScheduler::new(),
        )
    })
    .map_err(|e| format!("resume failed: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    check_recovery(Some(resumed), &[], shape.horizon(), &xml)?;

    Ok(traced_outcome(
        &rec,
        wall_s,
        digest,
        counters(&result.profile),
        bytes,
    ))
}

// ----------------------------------------------------------------------
// figures-grid: the paper-figure experiment grid
// ----------------------------------------------------------------------

struct GridShape {
    /// Base seed of each replica of the grid.
    seeds: Vec<u64>,
    nodes: Vec<usize>,
    tasks: Vec<usize>,
}

impl GridShape {
    /// Four replicas of the grid up to 10 000 tasks rather than one up
    /// to 20 000: the grid's time is dominated by its largest partial
    /// cells, whose cost doubles from one randomly drawn platform to the
    /// next, so a single grid's time swings with the seed. Four replicas
    /// average eight platforms of dominant cells in about the same time.
    fn new(seed: u64, size: Size) -> Self {
        let (nodes, tasks) = match size {
            Size::Full => (vec![100, 200], vec![1_000, 2_000, 5_000, 10_000]),
            Size::Small => (vec![20, 50], vec![100, 200]),
        };
        let seeds = (0..4)
            .map(|r| dreamsim_rng::derive_stream(seed, r))
            .collect();
        Self {
            seeds,
            nodes,
            tasks,
        }
    }

    /// Every cell's parameters, replica by replica, in `ExperimentGrid`'s
    /// order and with its documented seed derivation: one seed per
    /// (nodes, tasks), shared by both modes.
    fn cells(&self) -> Vec<SimParams> {
        let mut cells = Vec::new();
        for &base in &self.seeds {
            for &nodes in &self.nodes {
                for mode in [ReconfigMode::Full, ReconfigMode::Partial] {
                    for &tasks in &self.tasks {
                        let seed =
                            dreamsim_rng::derive_stream(base, (nodes as u64) << 32 | tasks as u64);
                        cells.push(SimParams::paper(nodes, tasks, mode).with_seed(seed));
                    }
                }
            }
        }
        cells
    }
}

/// Events a fault-free batch cell pops: one arrival per generated task
/// and one completion per completed task. The traced grid checks this
/// against the engine's own counter, since `ExperimentGrid` reports
/// metrics only.
fn cell_events(m: &Metrics) -> u64 {
    m.total_tasks_generated + m.total_tasks_completed
}

fn grid(clock: &mut HostClock, shape: &GridShape) -> Result<Outcome, String> {
    let cells = shape.cells();
    let setup_s = setup_section(clock, &cells, synthetic)?;
    let (mut run_s, mut wall_s, mut raw_wall_s) = (0.0, 0.0, 0.0);
    let mut digest = FNV_OFFSET;
    let mut grids = Vec::new();
    // One section per replica, so the probes follow the host closely.
    for &base in &shape.seeds {
        let ((grid, csv, raw_run, raw), factor) = clock.measure(|| {
            let t = Instant::now();
            let grid = ExperimentGrid::run(&shape.nodes, &shape.tasks, base, grid_jobs());
            let raw_run = t.elapsed().as_secs_f64();
            let csv = grid.cells_csv();
            (grid, csv, raw_run, t.elapsed().as_secs_f64())
        });
        run_s += raw_run / factor;
        wall_s += raw / factor;
        raw_wall_s += raw;
        digest = fnv1a_extend(digest, csv.as_bytes());
        grids.push(grid);
    }
    let per_grid = cells.len() / grids.len();
    let mut events = 0;
    for (i, p) in cells.iter().enumerate() {
        let m = grids[i / per_grid]
            .cell(p.total_nodes, p.mode, p.total_tasks)
            .ok_or_else(|| format!("grid lacks cell n{} t{}", p.total_nodes, p.total_tasks))?;
        check_conservation(m, p.total_tasks, "grid cell")?;
        events += cell_events(m);
    }
    Ok(Outcome {
        wall_s,
        raw_wall_s,
        host_factor: clock.median_factor(),
        setup_s,
        run_s,
        events,
        digest,
        ..Outcome::default()
    })
}

/// `ExperimentGrid::cells_csv` rebuilt from serially run cells: rows in
/// (nodes, mode label, tasks) order, same columns and formatting.
fn cells_csv(mut rows: Vec<((usize, &'static str, usize), Metrics)>) -> String {
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let mut csv =
        String::from("nodes,mode,tasks,avg_wait,avg_wasted_area,avg_reconfigs,steps,workload\n");
    for ((n, mode, t), m) in &rows {
        let _ = writeln!(
            csv,
            "{n},{mode},{t},{},{},{},{},{}",
            m.avg_waiting_time_per_task,
            m.avg_wasted_area_per_task,
            m.avg_reconfig_count_per_node,
            m.avg_scheduling_steps_per_task,
            m.total_scheduler_workload,
        );
    }
    csv
}

/// The grid replicas run serially, every cell traced; the digest covers
/// each replica's rebuilt `cells_csv` in turn.
fn grid_traced(shape: &GridShape) -> Result<Outcome, String> {
    let rec = Recorder::shared();
    let mut sum = PhaseProfile::default();
    let mut digest = FNV_OFFSET;
    let cells = shape.cells();
    let start = Instant::now();
    for replica in cells.chunks(cells.len() / shape.seeds.len()) {
        let mut rows = Vec::new();
        for p in replica {
            let (result, _) = span(&rec, "sweep.point", || traced_cell(&rec, p))?;
            if cell_events(&result.metrics) != result.profile.events_popped {
                return Err(format!(
                    "cell n{} t{} popped {} events, not one per arrival and completion",
                    p.total_nodes, p.total_tasks, result.profile.events_popped
                ));
            }
            add_profile(&mut sum, &result.profile);
            rows.push((
                (p.total_nodes, p.mode.label(), p.total_tasks),
                result.metrics,
            ));
        }
        digest = fnv1a_extend(digest, cells_csv(rows).as_bytes());
    }
    let wall_s = start.elapsed().as_secs_f64();
    Ok(traced_outcome(&rec, wall_s, digest, counters(&sum), 0))
}

// ----------------------------------------------------------------------
// per-layer metrics of a traced run
// ----------------------------------------------------------------------

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Turn a traced run's recorder into its per-layer metrics. Ratios that
/// need the untraced wall time (`trace.overhead_ratio`, the sweep
/// efficiency) are finished by the harness, which has it.
fn traced_outcome(
    rec: &Shared,
    wall_s: f64,
    digest: u64,
    counters: Vec<(&'static str, u64)>,
    checkpoint_bytes: u64,
) -> Outcome {
    let r = rec.borrow();
    let events = counters
        .iter()
        .find(|(n, _)| *n == "engine.events_popped")
        .map_or(0, |&(_, v)| v);
    let s = |ns: u64| ns as f64 * 1e-9;
    let next_s = s(r.next_task.total_ns);
    let sched_s = s(r.schedule.total_ns);
    let freed_s = s(r.slot_freed.total_ns);
    let run_s = r.total_s("engine.run");
    let dispatch_s = run_s - next_s - sched_s - freed_s;
    let decided = (r.placed + r.suspended + r.discarded) as f64;

    let mut layers: Vec<(&'static str, f64)> = vec![
        ("workload.next_task.calls", r.next_task.calls as f64),
        ("workload.next_task.self_s", next_s),
        (
            "workload.next_task.ns_per_call",
            ratio(r.next_task.total_ns as f64, r.next_task.calls as f64),
        ),
        ("sched.schedule.calls", r.schedule.calls as f64),
        ("sched.schedule.self_s", sched_s),
        (
            "sched.schedule.ns_per_call",
            ratio(r.schedule.total_ns as f64, r.schedule.calls as f64),
        ),
        ("sched.schedule.p99_ns", r.schedule.p99_ns()),
        (
            "sched.schedule.placed_ratio",
            ratio(r.placed as f64, decided),
        ),
        ("sched.schedule.suspended", r.suspended as f64),
        ("sched.schedule.discarded", r.discarded as f64),
        ("sched.on_slot_freed.calls", r.slot_freed.calls as f64),
        ("sched.on_slot_freed.self_s", freed_s),
        (
            "sched.on_slot_freed.ns_per_call",
            ratio(r.slot_freed.total_ns as f64, r.slot_freed.calls as f64),
        ),
        ("sched.on_slot_freed.p99_ns", r.slot_freed.p99_ns()),
        (
            "sched.on_slot_freed.hit_ratio",
            ratio(r.freed_hits as f64, r.slot_freed.calls as f64),
        ),
        (
            "sched.on_slot_freed.queue_len_mean",
            ratio(r.queued_sum as f64, r.slot_freed.calls as f64),
        ),
        (
            "sched.on_slot_freed.ns_per_queued_task",
            ratio(r.slot_freed.total_ns as f64, r.queued_sum as f64),
        ),
    ];
    layers.extend(counters.iter().map(|&(n, v)| (n, v as f64)));
    layers.extend([
        ("model.index_build_s", r.total_s("model.index_build")),
        ("engine.new_s", r.total_s("engine.new")),
        ("engine.dispatch.self_s", dispatch_s),
        (
            "engine.dispatch.ns_per_event",
            ratio(dispatch_s * 1e9, events as f64),
        ),
        ("engine.report.to_xml_s", r.total_s("engine.report.to_xml")),
    ]);

    let snapshots = r.count("engine.checkpoint.capture");
    if snapshots > 0 {
        let bytes = checkpoint_bytes as f64;
        let capture = r.total_s("engine.checkpoint.capture");
        let encode = r.total_s("engine.checkpoint.encode");
        let write = r.total_s("engine.checkpoint.write");
        let audit = r.total_s("engine.audit");
        // The encode probe runs only in the traced run; the untraced
        // service pays capture + write (which includes its own encode).
        let share = ratio(capture + write, wall_s - encode);
        layers.extend([
            ("engine.checkpoint.snapshots", snapshots as f64),
            ("engine.checkpoint.bytes", bytes),
            ("engine.checkpoint.capture_ms", capture * 1e3),
            ("engine.checkpoint.encode_ms", encode * 1e3),
            ("engine.checkpoint.write_ms", write * 1e3),
            (
                "engine.checkpoint.write_mb_per_s",
                ratio(bytes * 1e-6, write),
            ),
            (
                "engine.checkpoint.read_ms",
                (r.total_s("engine.checkpoint.scan") + r.total_s("engine.checkpoint.read")) * 1e3,
            ),
            (
                "engine.checkpoint.resume_ms",
                r.total_s("engine.checkpoint.resume") * 1e3,
            ),
            ("engine.checkpoint.share", share),
            ("engine.audit_ms", audit * 1e3),
            ("engine.service.self_s", r.total_s("engine.service")),
        ]);
    }
    let points = r.count("sweep.point");
    if points > 0 {
        let cell_times: Vec<f64> = r
            .spans
            .iter()
            .filter(|s| s.name == "sweep.point")
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect();
        layers.extend([
            ("sweep.points", points as f64),
            ("sweep.serial_sum_s", cell_times.iter().sum()),
            (
                "sweep.largest_point_s",
                cell_times.iter().copied().fold(0.0, f64::max),
            ),
        ]);
    }
    layers.push(("trace.wall_s", wall_s));

    let setup_s = r.total_s("engine.new") + r.total_s("model.index_build");
    let recover_s = (snapshots > 0).then(|| {
        r.total_s("engine.checkpoint.scan")
            + r.total_s("engine.checkpoint.read")
            + r.total_s("engine.checkpoint.resume")
    });
    Outcome {
        wall_s,
        raw_wall_s: wall_s,
        host_factor: 1.0,
        setup_s,
        run_s,
        events,
        recover_s,
        digest,
        counters,
        layers,
        spans: r.spans.clone(),
    }
}

/// Self time of each top-level layer of a traced run, seconds: the
/// partition of the traced wall that names where the time went. Their
/// sum never exceeds the traced wall.
#[must_use]
pub fn self_times(o: &Outcome) -> Vec<(&'static str, f64)> {
    let get = |name: &str| {
        o.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let ms = |name: &str| get(name) * 1e-3;
    vec![
        ("workload.next_task", get("workload.next_task.self_s")),
        ("sched.schedule", get("sched.schedule.self_s")),
        ("sched.on_slot_freed", get("sched.on_slot_freed.self_s")),
        ("engine.dispatch", get("engine.dispatch.self_s")),
        (
            "engine.setup",
            get("engine.new_s") + get("model.index_build_s"),
        ),
        ("engine.report", get("engine.report.to_xml_s")),
        (
            "engine.checkpoint",
            ms("engine.checkpoint.capture_ms")
                + ms("engine.checkpoint.encode_ms")
                + ms("engine.checkpoint.write_ms")
                + ms("engine.checkpoint.read_ms")
                + ms("engine.checkpoint.resume_ms"),
        ),
        ("engine.audit", ms("engine.audit_ms")),
        ("engine.service", get("engine.service.self_s")),
    ]
}
