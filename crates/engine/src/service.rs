//! Self-healing open-system service mode (`dreamsim serve`).
//!
//! The service driver runs a simulation as an always-on process over a
//! fixed horizon of streaming arrivals (see
//! [`ServiceParams`](crate::params::ServiceParams)), snapshotting into
//! a [`CheckpointRing`](crate::ring::CheckpointRing) as it goes. This
//! module supplies the layers
//! around the [`Simulation::run_service_leg`] event loop:
//!
//! * **startup recovery** ([`recover_from_ring`]): scan the ring
//!   newest-first, CRC-validate each candidate with the fuzz-hardened
//!   checkpoint loader, and resume from the newest valid snapshot —
//!   falling back past corrupted or mismatched ones, with every
//!   rejection recorded in a typed [`RecoveryReport`];
//! * **watchdog** ([`Watchdog`]): detects stalled clocks (unbounded
//!   event cascades at one tick) and zero-progress / suspension-queue
//!   livelock windows, purely from *simulated* time and progress
//!   counters (never wall-clock — determinism-lint r2), and triggers a
//!   bounded restart-from-checkpoint;
//! * **orchestration** ([`serve`]): recovery → service leg → (on
//!   watchdog trip) bounded re-recovery → graceful drain to a final
//!   ring checkpoint and report.
//!
//! Determinism: a killed-and-recovered service window reproduces the
//! uninterrupted window's report byte for byte, including when the
//! newest snapshot is corrupted (pinned by `sweep::chaos`'s service
//! drill and the CI `service-drill` job). A watchdog trip replays
//! deterministically too — restart-from-checkpoint re-stalls the same
//! way — which is why restarts are *bounded*: the point is a typed
//! postmortem ([`ServiceError::WatchdogExhausted`]) instead of a hung
//! process.

use crate::checkpoint::{read_checkpoint, CheckpointError};
use crate::params::{ParamsError, SimParams};
use crate::ring::scan_ring;
use crate::sim::{RunError, RunResult, SchedulePolicy, Simulation, TaskSource};
use dreamsim_model::Ticks;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Which watchdog condition fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WatchdogCondition {
    /// More events dispatched at a single clock value than the
    /// configured bound: the event loop is cycling without advancing
    /// simulated time.
    StalledClock,
    /// No task progressed for a full stall window while the suspension
    /// queue was empty.
    ZeroProgress,
    /// No task progressed for a full stall window while tasks sat in
    /// the suspension queue: classic livelock (capacity exists on
    /// paper, nothing ever resumes).
    SuspensionLivelock,
}

impl WatchdogCondition {
    /// Short label for reports and logs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WatchdogCondition::StalledClock => "stalled-clock",
            WatchdogCondition::ZeroProgress => "zero-progress",
            WatchdogCondition::SuspensionLivelock => "suspension-livelock",
        }
    }
}

/// Typed diagnostic emitted when the watchdog trips.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogDiag {
    /// Which condition fired.
    pub condition: WatchdogCondition,
    /// Simulated clock at the trip.
    pub clock: Ticks,
    /// Events dispatched at `clock` so far (stalled-clock evidence).
    pub events_at_clock: u64,
    /// Ticks since the last observed progress (stall evidence).
    pub stalled_for: Ticks,
    /// Suspension-queue length at the trip.
    pub suspension_len: u64,
}

impl std::fmt::Display for WatchdogDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at clock {} ({} events this tick, {} ticks without progress, {} suspended)",
            self.condition.label(),
            self.clock,
            self.events_at_clock,
            self.stalled_for,
            self.suspension_len
        )
    }
}

/// Watchdog thresholds. The defaults are generous backstops that a
/// healthy run never approaches; drills tighten them to force trips.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogParams {
    /// Maximum events dispatched at one clock value before the loop is
    /// declared stalled.
    pub max_events_per_tick: u64,
    /// Ticks without any completion/discard progress before the run is
    /// declared stalled or livelocked.
    pub stall_window: Ticks,
    /// Restart-from-checkpoint attempts before
    /// [`ServiceError::WatchdogExhausted`] is returned.
    pub max_restarts: u32,
}

impl Default for WatchdogParams {
    /// 1 M events/tick, 200 000-tick stall window, 2 restarts.
    fn default() -> Self {
        Self {
            max_events_per_tick: 1_000_000,
            stall_window: 200_000,
            max_restarts: 2,
        }
    }
}

/// Deterministic stall detector over *simulated* clocks and progress
/// counters (no wall time anywhere — determinism-lint r2: trips replay
/// identically on every machine and every rerun).
#[derive(Clone, Debug)]
pub struct Watchdog {
    params: WatchdogParams,
    cur_clock: Ticks,
    events_at_clock: u64,
    last_progress: u64,
    last_progress_clock: Ticks,
    started: bool,
}

impl Watchdog {
    /// Fresh watchdog; arms on the first observation.
    #[must_use]
    pub fn new(params: WatchdogParams) -> Self {
        Self {
            params,
            cur_clock: 0,
            events_at_clock: 0,
            last_progress: 0,
            last_progress_clock: 0,
            started: false,
        }
    }

    /// Observe one dispatched event: the current simulated clock, the
    /// monotone progress counter (completions + discards), and the
    /// suspension-queue length. Returns a diagnostic when a condition
    /// fires.
    pub fn observe(
        &mut self,
        clock: Ticks,
        progress: u64,
        suspension_len: u64,
    ) -> Option<WatchdogDiag> {
        if !self.started {
            self.started = true;
            self.cur_clock = clock;
            self.last_progress = progress;
            self.last_progress_clock = clock;
        }
        if clock != self.cur_clock {
            self.cur_clock = clock;
            self.events_at_clock = 0;
        }
        // BOUND: one increment per dispatched event; far below 2^64.
        self.events_at_clock += 1;
        if progress != self.last_progress {
            self.last_progress = progress;
            self.last_progress_clock = clock;
        }
        let stalled_for = clock.saturating_sub(self.last_progress_clock);
        let diag = |condition| WatchdogDiag {
            condition,
            clock,
            events_at_clock: self.events_at_clock,
            stalled_for,
            suspension_len,
        };
        if self.events_at_clock > self.params.max_events_per_tick {
            return Some(diag(WatchdogCondition::StalledClock));
        }
        if stalled_for >= self.params.stall_window {
            return Some(diag(if suspension_len > 0 {
                WatchdogCondition::SuspensionLivelock
            } else {
                WatchdogCondition::ZeroProgress
            }));
        }
        None
    }
}

/// One ring snapshot recovery refused, and why.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectedSnapshot {
    /// Ring file name (not the full path; the ring dir is in the
    /// report).
    pub file: String,
    /// Loader/resume error that disqualified it.
    pub error: String,
}

/// Typed record of one startup-recovery pass over a checkpoint ring.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Ring directory scanned.
    pub ring_dir: String,
    /// Well-formed ring entries found.
    pub scanned: u64,
    /// Snapshots rejected (CRC failures, truncation, parameter or
    /// policy mismatches, failed state audits), newest first.
    pub rejected: Vec<RejectedSnapshot>,
    /// Ring file recovery resumed from, when any candidate survived.
    pub recovered_from: Option<String>,
    /// Simulated clock of the resumed snapshot.
    pub recovered_clock: Option<Ticks>,
    /// No candidate survived (or the ring was empty): the service
    /// started from scratch.
    pub fresh_start: bool,
}

impl RecoveryReport {
    /// Pretty JSON for the `--recovery-report` artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        // INVARIANT: the report is a tree of strings and integers; the
        // vendored serializer cannot fail on it.
        serde_json::to_string_pretty(self).expect("recovery report serializes")
    }
}

/// Scan `dir` and resume from the newest snapshot that loads, matches
/// `params`, and passes the state audit. Rejected candidates are
/// recorded and skipped — a deliberately corrupted newest snapshot
/// falls back to the one before it. Returns the resumed simulation (or
/// `None` for a fresh start) plus the full [`RecoveryReport`].
///
/// Only I/O errors scanning the directory itself are fatal; a broken
/// snapshot never is.
pub fn recover_from_ring<S, P, FS, FP>(
    dir: &Path,
    params: &SimParams,
    make_source: &FS,
    make_policy: &FP,
) -> Result<(Option<Simulation<S, P>>, RecoveryReport), CheckpointError>
where
    S: TaskSource,
    P: SchedulePolicy,
    FS: Fn(&SimParams) -> S,
    FP: Fn() -> P,
{
    let entries = scan_ring(dir)?;
    let mut report = RecoveryReport {
        ring_dir: dir.display().to_string(),
        scanned: entries.len() as u64,
        rejected: Vec::new(),
        recovered_from: None,
        recovered_clock: None,
        fresh_start: false,
    };
    for entry in entries.iter().rev() {
        let file = entry
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| entry.path.display().to_string());
        let cp = match read_checkpoint(&entry.path) {
            Ok(cp) => cp,
            Err(e) => {
                report.rejected.push(RejectedSnapshot {
                    file,
                    error: e.to_string(),
                });
                continue;
            }
        };
        if cp.params() != params {
            report.rejected.push(RejectedSnapshot {
                file,
                error: "snapshot parameters differ from the requested service".to_string(),
            });
            continue;
        }
        match Simulation::resume(cp, make_source(params), make_policy()) {
            Ok(sim) => {
                report.recovered_from = Some(file);
                report.recovered_clock = Some(sim.clock());
                return Ok((Some(sim), report));
            }
            Err(e) => {
                report.rejected.push(RejectedSnapshot {
                    file,
                    error: e.to_string(),
                });
            }
        }
    }
    report.fresh_start = true;
    Ok((None, report))
}

/// Options for one service leg of [`Simulation::run_service_leg`]
/// (everything [`serve`] derives from [`ServiceOptions`] plus the
/// drill's deterministic kill switch).
#[derive(Clone, Debug, Default)]
pub struct ServiceLegOptions {
    /// Ring directory for periodic snapshots; `None` disables the ring
    /// (bare legs in tests).
    pub ring_dir: Option<PathBuf>,
    /// Snapshot whenever the clock crosses a multiple of this many
    /// ticks (0 is treated as 1).
    pub ring_every: Ticks,
    /// Ring retention budget (values below 1 clamp to 1).
    pub ring_retain: u64,
    /// Audit after every dispatched event (expensive; drills).
    pub audit: bool,
    /// Audit whenever the clock crosses a multiple of this many ticks.
    pub audit_every: Option<Ticks>,
    /// Deterministic kill switch: stop the leg — *without* a final
    /// snapshot, as a crash would — once the clock reaches this tick.
    pub stop_at: Option<Ticks>,
}

/// How a service leg ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceLegEnd {
    /// The service horizon was reached and the final snapshot written:
    /// graceful shutdown.
    Horizon,
    /// The deterministic kill switch fired mid-window (no final
    /// snapshot — state past the last ring entry is lost, exactly like
    /// a SIGKILL).
    Killed,
    /// The watchdog tripped; the orchestrator decides whether to
    /// restart from the ring.
    Stalled(WatchdogDiag),
}

/// Options for a full [`serve`] run.
#[derive(Clone, Debug)]
pub struct ServiceOptions {
    /// Checkpoint-ring directory (created if missing).
    pub ring_dir: PathBuf,
    /// Ring snapshot interval, in ticks.
    pub ring_every: Ticks,
    /// Ring retention budget.
    pub ring_retain: u64,
    /// Audit interval, in ticks (`None` audits only at snapshots).
    pub audit_every: Option<Ticks>,
    /// Watchdog thresholds; `None` disables the watchdog.
    pub watchdog: Option<WatchdogParams>,
    /// Deterministic kill switch for crash drills.
    pub stop_at: Option<Ticks>,
    /// Ignored. Kept only so that `benchmark/`, which sets it, still
    /// compiles; the store always answers through its search index.
    pub search: Option<crate::sim::SearchBackend>,
}

impl ServiceOptions {
    /// Defaults: snapshot every 5 000 ticks, retain 4, watchdog on.
    #[must_use]
    pub fn new(ring_dir: impl Into<PathBuf>) -> Self {
        Self {
            ring_dir: ring_dir.into(),
            ring_every: 5_000,
            ring_retain: 4,
            audit_every: None,
            watchdog: Some(WatchdogParams::default()),
            stop_at: None,
            search: None,
        }
    }

    fn leg_options(&self) -> ServiceLegOptions {
        ServiceLegOptions {
            ring_dir: Some(self.ring_dir.clone()),
            ring_every: self.ring_every,
            ring_retain: self.ring_retain,
            audit: false,
            audit_every: self.audit_every,
            stop_at: self.stop_at,
        }
    }
}

/// Why a [`serve`] run failed.
#[derive(Debug)]
pub enum ServiceError {
    /// The parameter set is invalid (or construction failed).
    Params(ParamsError),
    /// [`SimParams::service`] is `None`: nothing defines the horizon.
    NotService,
    /// The ring directory could not be created or read.
    RingDir {
        /// Offending path.
        path: PathBuf,
        /// Underlying I/O error.
        error: std::io::Error,
    },
    /// The service leg aborted (audit failure or snapshot I/O).
    Run(RunError),
    /// Scanning the ring for recovery failed at the I/O level.
    Checkpoint(CheckpointError),
    /// The watchdog kept tripping after exhausting its restart budget;
    /// the diagnostic of the final trip is attached.
    WatchdogExhausted {
        /// Restarts attempted before giving up.
        restarts: u32,
        /// The final trip.
        diag: WatchdogDiag,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Params(e) => write!(f, "invalid service parameters: {e}"),
            ServiceError::NotService => {
                write!(f, "parameter set has no service block (SimParams::service)")
            }
            ServiceError::RingDir { path, error } => {
                write!(f, "ring directory {}: {error}", path.display())
            }
            ServiceError::Run(e) => write!(f, "service leg failed: {e}"),
            ServiceError::Checkpoint(e) => write!(f, "ring recovery failed: {e}"),
            ServiceError::WatchdogExhausted { restarts, diag } => write!(
                f,
                "watchdog exhausted {restarts} restart(s); final trip: {diag}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Params(e) => Some(e),
            ServiceError::RingDir { error, .. } => Some(error),
            ServiceError::Run(e) => Some(e),
            ServiceError::Checkpoint(e) => Some(e),
            ServiceError::NotService | ServiceError::WatchdogExhausted { .. } => None,
        }
    }
}

impl From<RunError> for ServiceError {
    fn from(e: RunError) -> Self {
        ServiceError::Run(e)
    }
}

impl From<CheckpointError> for ServiceError {
    fn from(e: CheckpointError) -> Self {
        ServiceError::Checkpoint(e)
    }
}

/// What a finished [`serve`] run produced.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Final metrics/report, present only for a gracefully drained
    /// window (a killed run has no final report — that is the point).
    pub result: Option<RunResult>,
    /// The startup recovery pass.
    pub recovery: RecoveryReport,
    /// Watchdog-triggered restarts performed.
    pub restarts: u32,
    /// Every watchdog trip observed, in order.
    pub trips: Vec<WatchdogDiag>,
    /// Whether the deterministic kill switch ended the run.
    pub killed: bool,
    /// Simulated clock when the run ended.
    pub final_clock: Ticks,
}

/// Run the full self-healing service: recover from the ring (or start
/// fresh), stream the service window with periodic ring snapshots,
/// restart from the ring — boundedly — on watchdog trips, and drain to
/// a final snapshot plus report at the horizon.
///
/// `make_source` / `make_policy` build fresh source and policy
/// instances: recovery may construct several (one per resume
/// candidate), and they must match the checkpointed
/// [`TaskSource::source_kind`] and
/// [`SchedulePolicy::state_label`] to be accepted.
pub fn serve<S, P, FS, FP>(
    params: &SimParams,
    make_source: FS,
    make_policy: FP,
    opts: &ServiceOptions,
) -> Result<ServiceOutcome, ServiceError>
where
    S: TaskSource,
    P: SchedulePolicy,
    FS: Fn(&SimParams) -> S,
    FP: Fn() -> P,
{
    if params.service.is_none() {
        return Err(ServiceError::NotService);
    }
    params.validate().map_err(ServiceError::Params)?;
    std::fs::create_dir_all(&opts.ring_dir).map_err(|error| ServiceError::RingDir {
        path: opts.ring_dir.clone(),
        error,
    })?;
    let build_fresh = || -> Result<Simulation<S, P>, ServiceError> {
        Simulation::new(params.clone(), make_source(params), make_policy())
            .map_err(ServiceError::Params)
    };
    let recover = || recover_from_ring(&opts.ring_dir, params, &make_source, &make_policy);

    let (recovered, recovery) = recover()?;
    let mut sim = match recovered {
        Some(sim) => sim,
        None => build_fresh()?,
    };
    let leg_opts = opts.leg_options();
    let mut watchdog = opts.watchdog.map(Watchdog::new);
    let mut restarts = 0u32;
    let mut trips = Vec::new();
    loop {
        match sim.run_service_leg(&leg_opts, &mut watchdog)? {
            ServiceLegEnd::Horizon => {
                let final_clock = sim.clock();
                let result = sim.finish_service();
                return Ok(ServiceOutcome {
                    result: Some(result),
                    recovery,
                    restarts,
                    trips,
                    killed: false,
                    final_clock,
                });
            }
            ServiceLegEnd::Killed => {
                let final_clock = sim.clock();
                return Ok(ServiceOutcome {
                    result: None,
                    recovery,
                    restarts,
                    trips,
                    killed: true,
                    final_clock,
                });
            }
            ServiceLegEnd::Stalled(diag) => {
                trips.push(diag);
                let budget = opts.watchdog.map_or(0, |w| w.max_restarts);
                if restarts >= budget {
                    return Err(ServiceError::WatchdogExhausted { restarts, diag });
                }
                restarts += 1;
                // Restart-from-checkpoint: drop the wedged state and
                // resume from the newest valid ring snapshot (fresh
                // start if the ring has none).
                let (recovered, _restart_report) = recover()?;
                sim = match recovered {
                    Some(sim) => sim,
                    None => build_fresh()?,
                };
                watchdog = opts.watchdog.map(Watchdog::new);
            }
        }
    }
}
