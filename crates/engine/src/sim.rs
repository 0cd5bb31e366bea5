//! The simulation driver (the UML's `DreamSim` class).
//!
//! [`Simulation`] wires together a [`TaskSource`] (input subsystem), a
//! [`SchedulePolicy`] (core subsystem's task scheduling manager), the
//! resource manager (information subsystem), and the statistics/report
//! machinery (output subsystem), then runs the discrete-event loop:
//!
//! 1. **TaskArrival** — `RunScheduler()`: the policy decides *place /
//!    suspend / discard* for the arriving task.
//! 2. **TaskCompletion** — `TaskCompletionProc()`: the slot is released
//!    back to its configuration's idle list and the policy gets a chance
//!    to pull suitable tasks out of the suspension queue.
//! 3. **NodeFailure / NodeRepair** — failure-injection extension.
//! 4. **ReconfigFailed / TaskFailed / SuspensionTimeout** — fault-model
//!    extension (see [`crate::fault`]): bitstream-load retries with
//!    bounded exponential backoff, mid-run execution failures with
//!    resubmission, and suspension-queue deadlines.
//!
//! ## Timing semantics (Eq. 8)
//!
//! A task placed at decision time `t_d` starts occupying the node
//! immediately; it completes at `t_d + t_config + t_comm + t_required`,
//! where `t_config` is the configuration time if the placement
//! (re)configured a region and `t_comm` is the node's network delay. Its
//! waiting time is `(t_d − t_create) + t_comm + t_config`, exactly Eq. 8
//! with `t_start = t_d` (the moment the RMS submits the task to the
//! node).

use crate::audit::AuditError;
use crate::checkpoint::{self, Checkpoint, CheckpointError};
use crate::event::{Event, EventQueue};
use crate::fault::FaultModel;
use crate::init;
use crate::monitor::Observer;
use crate::params::{AdmissionPolicy, DomainOutageKind, ParamsError, ReconfigMode, SimParams};
use crate::report::Report;
use crate::ring::CheckpointRing;
use crate::service::{ServiceLegEnd, ServiceLegOptions, Watchdog};
use crate::stats::{Metrics, PhaseKind, Stats, WindowStats};
use dreamsim_model::ids::MAX_AREA;
use dreamsim_model::{
    Area, ConfigId, EntryRef, NodeId, PreferredConfig, ResourceManager, StepCounter,
    SuspensionQueue, Task, TaskId, TaskState, TaskTable, Ticks,
};
use dreamsim_rng::Rng;

/// Specification of one task to inject, produced by a [`TaskSource`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskSpec {
    /// Ticks after the previous arrival (the paper draws U\[1..50\]).
    pub interarrival: Ticks,
    /// Execution time on the preferred configuration (`t_required`).
    pub required_time: Ticks,
    /// Preferred configuration.
    pub preferred: PreferredConfig,
    /// Area of the preferred configuration (`NeededArea`).
    pub needed_area: Area,
    /// Input data size in bytes.
    pub data_bytes: u64,
}

/// What a [`TaskSource`] yields when polled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceYield {
    /// Inject this task next.
    Task(TaskSpec),
    /// Nothing ready now, but completions may unlock more (task-graph
    /// sources gate children on their parents). The driver re-polls
    /// after each completion.
    NotYet,
    /// The source is exhausted for good.
    Exhausted,
}

/// Source of tasks (the input subsystem: synthetic generation, real
/// workload traces, or task graphs).
///
/// **Id contract:** the `k`-th task yielded (0-based) receives `TaskId(k)`
/// — ids are assigned densely in yield order, so sources can predict the
/// ids of their own tasks (task-graph sources rely on this to match
/// [`on_task_completed`](Self::on_task_completed) notifications to graph
/// nodes).
pub trait TaskSource {
    /// Produce the next task, drawing any randomness from `rng`.
    fn next_task(&mut self, now: Ticks, rng: &mut Rng) -> SourceYield;

    /// Notification that a previously yielded task completed
    /// (task-graph dependency tracking). Default: ignored.
    fn on_task_completed(&mut self, _task: TaskId, _now: Ticks) {}

    /// Identity of this source kind, recorded in checkpoints;
    /// [`Simulation::resume`] refuses a source of a different kind.
    /// Sources whose yields depend only on the RNG (whose position the
    /// checkpoint captures) can keep the default.
    fn source_kind(&self) -> &'static str {
        "stateless"
    }

    /// Replay cursor captured in checkpoints. Sources that walk an
    /// in-memory list (e.g. recorded traces) report their position here
    /// and honour it in [`restore_cursor`](Self::restore_cursor);
    /// RNG-driven sources keep the default `0`.
    fn source_cursor(&self) -> u64 {
        0
    }

    /// Restore a cursor previously reported by
    /// [`source_cursor`](Self::source_cursor), returning whether this
    /// source supports resuming at all. Sources whose progress cannot be
    /// reconstructed from a cursor (e.g. completion-gated task graphs)
    /// return `false`, making [`Simulation::resume`] fail with a typed
    /// error instead of silently replaying from a wrong state. Default:
    /// ignore the cursor and allow resume (correct for RNG-driven
    /// sources, whose entire position lives in the checkpointed RNG).
    fn restore_cursor(&mut self, _cursor: u64) -> bool {
        true
    }
}

/// Why a task was discarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiscardReason {
    /// Neither the preferred nor a closest-match configuration exists.
    NoClosestConfig,
    /// No node — idle, blank, or busy — could ever host the required
    /// configuration.
    NoFeasibleNode,
    /// Still suspended when the simulation drained.
    SuspensionDrain,
    /// Exceeded the configured maximum suspension retries.
    RetryLimit,
    /// Killed by an injected node failure.
    NodeFailed,
    /// Bitstream loading failed repeatedly and no larger configuration
    /// exists to degrade to (fault-injection extension).
    ReconfigFailed,
    /// Failed mid-execution and exhausted the resubmission budget
    /// (fault-injection extension).
    ExecutionFailed,
    /// Waited in the suspension queue longer than the configured
    /// deadline (fault-injection extension).
    SuspensionTimeout,
    /// Rejected by the `block` admission policy: the bounded suspension
    /// queue was full when the task tried to enter it (chaos-layer
    /// extension).
    AdmissionBlocked,
    /// Evicted from the bounded suspension queue by the `shed-oldest`
    /// admission policy to make room for a newer task (chaos-layer
    /// extension).
    AdmissionShed,
}

impl DiscardReason {
    /// Whether the discard was caused by injected faults (feeds the
    /// *tasks lost* counter).
    #[must_use]
    pub fn is_fault(self) -> bool {
        matches!(
            self,
            DiscardReason::NodeFailed
                | DiscardReason::ReconfigFailed
                | DiscardReason::ExecutionFailed
                | DiscardReason::SuspensionTimeout
        )
    }

    /// Whether the discard was a load-shedding action — an
    /// admission-policy rejection or a blown suspension deadline (feeds
    /// the *tasks shed* counter).
    #[must_use]
    pub fn is_shed(self) -> bool {
        matches!(
            self,
            DiscardReason::AdmissionBlocked
                | DiscardReason::AdmissionShed
                | DiscardReason::SuspensionTimeout
        )
    }
}

/// Which Fig. 5 phase produced a placement (re-exported alias of the
/// stats-side enum so policies only import from one place).
pub use crate::stats::PhaseKind as PlacePhase;

/// A placement the policy enacted on the resource manager; the driver
/// turns it into task-table updates, events, and statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// The placed task.
    pub task: TaskId,
    /// The slot it runs on.
    pub entry: EntryRef,
    /// The configuration it runs under (preferred or closest match).
    pub config: ConfigId,
    /// Configuration time paid (0 for direct allocation).
    pub config_time: Ticks,
    /// Which algorithmic phase placed it.
    pub phase: PhaseKind,
}

/// Outcome of scheduling one arriving task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Placed on a node (resources already mutated by the policy).
    Placed(Placement),
    /// Parked in the suspension queue (policy already pushed it).
    Suspended,
    /// Rejected.
    Discarded(DiscardReason),
}

/// Outcome of a suspension-queue rescan after a slot freed up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resume {
    /// A suspended task was placed.
    Placed(Placement),
    /// A suspended task was discarded (e.g. retry limit).
    Discarded {
        /// The discarded task.
        task: TaskId,
        /// Why.
        reason: DiscardReason,
    },
}

/// Mutable view handed to the policy on every scheduling decision.
pub struct SchedCtx<'a> {
    /// Current simulation time.
    pub now: Ticks,
    /// Reconfiguration mode of the run.
    pub mode: ReconfigMode,
    /// Whether suspension is enabled (ablation A3).
    pub suspension_enabled: bool,
    /// Retry budget for suspended tasks (`None` = unlimited).
    pub max_sus_retries: Option<u64>,
    /// The resource information manager.
    pub resources: &'a mut ResourceManager,
    /// The suspension queue.
    pub suspension: &'a mut SuspensionQueue,
    /// The task table, one column per field (policies read preferences
    /// and resolved configurations, and bump retry counts).
    pub tasks: &'a mut TaskTable,
    /// Search-step accounting.
    pub steps: &'a mut StepCounter,
    /// Randomness for stochastic policies.
    pub rng: &'a mut Rng,
}

/// A scheduling policy (the `Scheduler` class). Implementations mutate
/// resources through the context and report what they did; the driver
/// owns time, events, and statistics.
pub trait SchedulePolicy {
    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str;

    /// Decide placement for an arriving (or resumed) task.
    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Decision;

    /// A slot on `freed` just became idle; pull any suitable suspended
    /// tasks. Called after every task completion.
    fn on_slot_freed(&mut self, ctx: &mut SchedCtx<'_>, freed: EntryRef) -> Vec<Resume>;

    /// A failed node came back online blank (failure-injection
    /// extension). Default: no action.
    fn on_node_repaired(&mut self, _ctx: &mut SchedCtx<'_>, _node: NodeId) -> Vec<Resume> {
        Vec::new()
    }

    /// Identity label recorded in checkpoints; [`Simulation::resume`]
    /// refuses a policy with a different label. Policies whose behaviour
    /// depends on construction parameters (e.g. a search strategy) must
    /// fold them into the label so a resume cannot silently switch
    /// algorithms mid-run. Default: the policy [`name`](Self::name).
    fn state_label(&self) -> String {
        self.name().to_string()
    }
}

/// Kept only so that `benchmark/`, which names it, still compiles: it
/// selects nothing, and [`Simulation::with_search_backend`] ignores it.
/// The store always answers through its search index (DESIGN.md §11).
#[derive(Clone, Copy, Debug)]
pub enum SearchBackend {
    /// The only value.
    Auto,
}

/// Which time loop a batch run uses ([`RunOptions::driver`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Driver {
    /// Jump the clock straight to the next scheduled event.
    #[default]
    Event,
    /// Advance the clock one timetick at a time, as the paper's
    /// `IncreaseTimeTick()` loop does. Kept as the cross-check reference
    /// (ablation A4): its reports and checkpoints are byte-identical to
    /// [`Driver::Event`]'s, but it costs O(total ticks), so use small
    /// workloads.
    TickStepped,
}

/// Options for a batch run ([`Simulation::run_with`]): the time loop,
/// plus checkpoint and audit cadences. The default — the event-driven
/// loop with everything else off — is exactly [`Simulation::run`].
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// The time loop, chosen once per run.
    pub driver: Driver,
    /// Write a checkpoint whenever the clock crosses a multiple of this
    /// many ticks (after the crossing event is dispatched). `None`
    /// disables periodic checkpoints.
    pub checkpoint_every: Option<Ticks>,
    /// Directory receiving periodic checkpoints, created on first write.
    /// Files are named `checkpoint-<clock>.dsc`. `None` means the
    /// current directory.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Run the invariant auditor after **every** dispatched event
    /// (expensive; for tests and fault hunts).
    pub audit: bool,
    /// Run the invariant auditor whenever the clock crosses a multiple
    /// of this many ticks. Checkpoint boundaries always audit, with or
    /// without this.
    pub audit_every: Option<Ticks>,
}

/// Why a checkpointed/audited run ([`Simulation::run_with`]) aborted.
#[derive(Debug)]
pub enum RunError {
    /// The auditor found corrupted simulator state; the run stopped
    /// before acting on it.
    Audit(AuditError),
    /// A periodic checkpoint could not be written.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Audit(e) => write!(f, "audit failed: {e}"),
            RunError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Audit(e) => Some(e),
            RunError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<AuditError> for RunError {
    fn from(e: AuditError) -> Self {
        RunError::Audit(e)
    }
}

impl From<CheckpointError> for RunError {
    fn from(e: CheckpointError) -> Self {
        RunError::Checkpoint(e)
    }
}

/// Result of a finished run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Finalized Table I metrics.
    pub metrics: Metrics,
    /// Full report (parameters + metrics).
    pub report: Report,
    /// Final state of the run's tasks: its own columns, handed over
    /// whole ([`TaskTable::row`] assembles one task's row). A batch run
    /// holds every task; a service holds the rows its last ring
    /// snapshot did not retire ([`TaskTable::first`] onward).
    pub tasks: TaskTable,
    /// Deterministic per-phase operation counters for the run (see
    /// [`crate::profile`]).
    pub profile: crate::profile::PhaseProfile,
}

/// Per-tick scheduling steps charged while the suspension queue is
/// non-empty: the tick-driven scheduler of the original simulator probes
/// the queue head every timetick (a bounded feasibility check across the
/// four Fig. 5 phases — configuration lookup plus idle/blank/busy
/// list-head tests). Calibrated against the paper's Fig. 9a magnitudes
/// (≈2 000–4 500 steps/task at 200 nodes; see EXPERIMENTS.md).
pub const POLL_SCHED_STEPS: u64 = 16;

/// Per-tick, per-node housekeeping steps charged while the suspension
/// queue is non-empty: the resource information module's per-tick
/// maintenance of dynamic node/configuration state ("housekeeping jobs
/// such as maintaining the current states of nodes and configurations",
/// Table I). Calibrated against Fig. 9b (total workload ≈1.6×10¹⁰ at
/// 100 000 tasks / 200 nodes).
pub const POLL_HOUSEKEEPING_PER_NODE: u64 = 3;

/// Capacity hint for the event heap. Pending events at any moment are
/// bounded by: one chained arrival, at most one completion-or-failure
/// event per occupied slot (a handful per node under partial
/// reconfiguration), one failure-process event per node plus its
/// repair, and one timeout per suspended task — so a small per-node
/// multiple, capped by a per-task multiple for tiny workloads on big
/// grids. Purely a size hint: heap capacity is unobservable in pop
/// order, reports, and checkpoint bytes.
fn expected_pending_events(params: &SimParams) -> usize {
    let per_node = params.total_nodes.saturating_mul(4).saturating_add(64);
    let per_task = params.total_tasks.saturating_mul(2).saturating_add(16);
    per_node.min(per_task)
}

/// First multiple of `every` strictly after `clock` (intervals of 0 are
/// treated as 1 so boundary arithmetic can never stall the clock).
fn next_boundary(clock: Ticks, every: Ticks) -> Ticks {
    let every = every.max(1);
    (clock / every + 1) * every
}

/// A periodic boundary: fires once the clock reaches the next multiple
/// of `every`.
struct Interval {
    every: Ticks,
    next: Ticks,
}

impl Interval {
    fn new(clock: Ticks, every: Ticks) -> Self {
        Self {
            every,
            next: next_boundary(clock, every),
        }
    }

    /// Whether `clock` reached the boundary; if so, re-arm past it.
    fn due(&mut self, clock: Ticks) -> bool {
        let due = clock >= self.next;
        if due {
            self.next = next_boundary(clock, self.every);
        }
        due
    }
}

/// Where snapshots go. Both sinks name files
/// [`ring::entry_name`](crate::ring::entry_name)`(clock)`; only the
/// ring prunes.
enum SnapshotSink {
    /// A batch checkpoint directory, created on first write and never
    /// pruned.
    Dir(std::path::PathBuf),
    /// A service leg's pruning checkpoint ring.
    Ring(CheckpointRing),
}

impl SnapshotSink {
    /// Write the snapshot `cp` and return the bytes written.
    fn write(&self, cp: &Checkpoint) -> Result<u64, CheckpointError> {
        match self {
            SnapshotSink::Dir(dir) => {
                std::fs::create_dir_all(dir)?;
                checkpoint::write_checkpoint(&dir.join(crate::ring::entry_name(cp.clock)), cp)
            }
            SnapshotSink::Ring(ring) => ring.write(cp),
        }
    }
}

/// The audit and snapshot cadence of one run loop, checked after every
/// dispatched event by [`Simulation::at_boundary`]. With nothing
/// configured the check is three untaken branches.
struct Cadence {
    /// Audit after every dispatched event.
    audit_each: bool,
    audit: Option<Interval>,
    snapshot: Option<(Interval, SnapshotSink)>,
}

impl Cadence {
    fn new(
        clock: Ticks,
        audit_each: bool,
        audit_every: Option<Ticks>,
        snapshots: Option<(Ticks, SnapshotSink)>,
    ) -> Self {
        Self {
            audit_each,
            audit: audit_every.map(|every| Interval::new(clock, every)),
            snapshot: snapshots.map(|(every, sink)| (Interval::new(clock, every), sink)),
        }
    }
}

/// Up-front reservation cap for service-mode runs, whose `total_tasks`
/// is a horizon-derived upper bound rather than an expected count.
const SERVICE_RESERVE_CAP: usize = 1 << 20;

/// How many tasks' worth of per-task state a run reserves up front: the
/// task budget, capped in service mode so a long horizon doesn't
/// pre-allocate gigabytes. Capacity is unobservable (pop order, reports,
/// and checkpoint bytes are identical either way).
fn reserve_budget(params: &SimParams) -> usize {
    if params.service.is_some() {
        params.total_tasks.min(SERVICE_RESERVE_CAP)
    } else {
        params.total_tasks
    }
}

/// The simulation driver.
pub struct Simulation<S, P> {
    /// Every captured member of the run, held as the snapshot it is
    /// serialized as (see [`crate::checkpoint`]).
    // REBUILD: resume adopts the decoded checkpoint as this state, whole.
    state: Checkpoint,
    // REBUILD: the checkpoint captures the source as (source_kind,
    // source_cursor); [`Simulation::resume`] checks the kind and
    // fast-forwards a caller-supplied source via `restore_cursor`.
    source: S,
    // REBUILD: the checkpoint records the policy's state label;
    // [`Simulation::resume`] takes a caller-supplied policy and refuses
    // one whose label differs.
    policy: P,
    // REBUILD: observers are process-local hooks, deliberately outside
    // the snapshot; callers re-register them after resume.
    observers: Vec<Box<dyn Observer>>,
    /// Whether [`prime`](Self::prime) already ran (true for resumed
    /// simulations, whose checkpoint captured the primed state).
    // REBUILD: resume constructs the simulation with primed = true;
    // a checkpoint is only ever taken after priming.
    primed: bool,
    /// Snapshots written by this process's run loops: batch
    /// checkpoints and service ring entries alike.
    // REBUILD: deliberately not checkpointed — the phase profiler
    // describes the live process, so a resumed run restarts its
    // checkpoint-write accounting at zero.
    checkpoints_written: u64,
    /// Total bytes of checkpoint data written by this process.
    // REBUILD: same process-local window as `checkpoints_written`.
    checkpoint_bytes: u64,
}

impl<S: TaskSource, P: SchedulePolicy> Simulation<S, P> {
    /// Build a simulation: validates parameters and generates the node
    /// and configuration tables from the master seed.
    pub fn new(params: SimParams, source: S, policy: P) -> Result<Self, ParamsError> {
        params.validate()?;
        let mut rng = Rng::seed_from(params.seed);
        let configs = init::generate_configs(&params, &mut rng);
        let nodes = init::generate_nodes(&params, &mut rng);
        let resources = ResourceManager::new(nodes, configs);
        let fault = FaultModel::new(&params);
        let events = EventQueue::with_capacity(expected_pending_events(&params));
        let mut stats = Stats::default();
        if let Some(s) = &params.service {
            if s.window > 0 {
                stats.window = Some(WindowStats::new(s.window, s.window_retain));
            }
        }
        stats.wait_samples.reserve(reserve_budget(&params));
        let state = Checkpoint {
            params,
            policy: policy.state_label(),
            source_kind: source.source_kind().to_string(),
            source_cursor: source.source_cursor(),
            resources,
            tasks: TaskTable::new(),
            events,
            suspension: SuspensionQueue::new(),
            steps: StepCounter::new(),
            stats,
            rng,
            fault,
            clock: 0,
            created: 0,
            last_arrival: 0,
            stalled: false,
        };
        Ok(Self {
            state,
            source,
            policy,
            observers: Vec::new(),
            primed: false,
            checkpoints_written: 0,
            checkpoint_bytes: 0,
        })
    }

    /// Rebuild a simulation from a [`Checkpoint`].
    ///
    /// The caller supplies a fresh `source` and `policy` of the same
    /// kind the checkpointed run used — verified against the recorded
    /// [`TaskSource::source_kind`] and [`SchedulePolicy::state_label`];
    /// a mismatch is rejected with [`CheckpointError::State`] rather
    /// than silently resuming under a different algorithm. The source's
    /// replay cursor is restored, the restored state is audited
    /// ([`Self::audit`]) before anything runs, and observers start
    /// empty (they are not captured; see [`crate::checkpoint`]).
    ///
    /// Running a resumed simulation to completion produces bit-identical
    /// results to the uninterrupted run, on either driver.
    pub fn resume(mut cp: Checkpoint, mut source: S, policy: P) -> Result<Self, CheckpointError> {
        cp.params
            .validate()
            .map_err(|e| CheckpointError::State(format!("invalid parameters: {e}")))?;
        let label = policy.state_label();
        if label != cp.policy {
            return Err(CheckpointError::State(format!(
                "policy mismatch: checkpoint was taken under {:?}, resuming with {label:?}",
                cp.policy
            )));
        }
        if source.source_kind() != cp.source_kind {
            return Err(CheckpointError::State(format!(
                "source mismatch: checkpoint was fed by {:?}, resuming with {:?}",
                cp.source_kind,
                source.source_kind()
            )));
        }
        if !source.restore_cursor(cp.source_cursor) {
            return Err(CheckpointError::State(format!(
                "source kind {:?} does not support resuming from a checkpoint",
                cp.source_kind
            )));
        }
        // Every task the source yields enters the table, and only
        // finished rows leave it from the front, so a run keeps `created`
        // equal to `first + len`; a mismatch would resume with a wrong
        // count of tasks generated.
        if cp.created != cp.tasks.created() {
            return Err(CheckpointError::State(format!(
                "created count {} disagrees with the task table's {} tasks \
                 (first {} + {} rows)",
                cp.created,
                cp.tasks.created(),
                cp.tasks.first().0,
                cp.tasks.len()
            )));
        }
        // Deserialization sizes the heap to exactly the pending entries;
        // restore the same headroom a fresh run starts with so the
        // resumed half pushes without regrowing (capacity is
        // unobservable — resumes stay byte-identical).
        cp.events
            .ensure_capacity(expected_pending_events(&cp.params));
        // The config column and the queue's index over it are derived
        // state the checkpoint does not carry. A retired or out-of-range
        // queued id gets `None` here, and so does a configuration outside
        // the table, so the index stays the table's size; the audit below
        // rejects each (the last as its task row's configuration).
        let num_configs = cp.resources.num_configs();
        cp.suspension.rebuild_configs(|t| {
            cp.tasks
                .holds(t)
                .then(|| cp.tasks.resolved_config(t))
                .flatten()
                .filter(|c| c.index() < num_configs)
        });
        let sim = Self {
            state: cp,
            source,
            policy,
            observers: Vec::new(),
            primed: true,
            checkpoints_written: 0,
            checkpoint_bytes: 0,
        };
        sim.audit()
            .map_err(|e| CheckpointError::State(format!("restored state failed audit: {e}")))?;
        Ok(sim)
    }

    /// Snapshot the complete current state (see [`crate::checkpoint`]
    /// for what is and is not captured): a clone of the live state with
    /// the source's current replay cursor, so it serializes to the bytes
    /// the run loops' snapshots write.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        let mut cp = self.state.clone();
        cp.source_cursor = self.source.source_cursor();
        cp
    }

    /// Snapshot the deterministic per-phase operation counters (see
    /// [`crate::profile`]). Cheap — every counter already exists in live
    /// state — so it can be read mid-run or after [`run`](Self::run).
    #[must_use]
    pub fn phase_profile(&self) -> crate::profile::PhaseProfile {
        crate::profile::PhaseProfile {
            scheduling_steps: self.state.steps.scheduling,
            housekeeping_steps: self.state.steps.housekeeping,
            store_mutations: self.state.resources.mutation_ops(),
            events_pushed: self.state.events.pushes(),
            // BOUND: every popped event was pushed first, so len ≤ pushes.
            events_popped: self.state.events.pushes() - self.state.events.len() as u64,
            stats_samples: self.state.stats.generated
                + self.state.stats.completed
                + self.state.stats.discarded,
            checkpoints_written: self.checkpoints_written,
            checkpoint_bytes: self.checkpoint_bytes,
        }
    }

    /// Cross-check all live state with the invariant auditor
    /// ([`crate::audit::check`]).
    pub fn audit(&self) -> Result<(), AuditError> {
        crate::audit::check(
            &self.state.resources,
            &self.state.tasks,
            &self.state.events,
            &self.state.suspension,
            self.state.clock,
            self.state.fault.num_domains(),
        )
    }

    /// Attach an observer (monitoring module).
    #[must_use]
    pub fn with_observer(mut self, obs: Box<dyn Observer>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Returns `self` unchanged. Kept only so that `benchmark/`, which
    /// calls it, still compiles; the store always answers through its
    /// search index (DESIGN.md §11).
    #[must_use]
    pub fn with_search_backend(self, _backend: SearchBackend) -> Self {
        self
    }

    /// Read-only access to the resource manager (tests/monitoring).
    #[must_use]
    pub fn resources(&self) -> &ResourceManager {
        &self.state.resources
    }

    /// Run event-driven to completion.
    pub fn run(self) -> RunResult {
        self.run_with(&RunOptions::default())
            // INVARIANT: RunError only arises from checkpoint I/O or a
            // failed audit; default options enable neither.
            .expect("a run without checkpoints or audits cannot fail")
    }

    /// Run to completion under `opts`: its time loop, with periodic
    /// checkpoints and/or audits. With default options this is exactly
    /// [`run`](Self::run).
    ///
    /// Boundary semantics: after an event is dispatched at time `t`, a
    /// checkpoint (and audit) fires if `t` reached the next multiple of
    /// the configured interval. Both [`Driver`]s dispatch the same
    /// events at the same clock values in the same order, so they hit
    /// identical boundary states — their checkpoints under the same
    /// options are byte-identical.
    pub fn run_with(mut self, opts: &RunOptions) -> Result<RunResult, RunError> {
        let snapshots = opts.checkpoint_every.map(|every| {
            let dir = opts
                .checkpoint_dir
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from("."));
            (every, SnapshotSink::Dir(dir))
        });
        let mut cadence = Cadence::new(self.state.clock, opts.audit, opts.audit_every, snapshots);
        self.start(&cadence)?;
        match opts.driver {
            Driver::Event => self.drive_events(&mut cadence)?,
            Driver::TickStepped => self.drive_ticks(&mut cadence)?,
        }
        Ok(self.finish())
    }

    /// The preamble every run loop shares: prime a fresh simulation,
    /// then, under per-event auditing, validate the starting (possibly
    /// just-restored) state before acting on it — corruption must
    /// surface as a typed error, not as a panic inside the first
    /// dispatch that trips over it.
    fn start(&mut self, cadence: &Cadence) -> Result<(), RunError> {
        if !self.primed {
            self.prime();
            self.primed = true;
        }
        if cadence.audit_each {
            self.audit()?;
        }
        Ok(())
    }

    /// The event-driven loop: the clock jumps to each next event.
    fn drive_events(&mut self, cadence: &mut Cadence) -> Result<(), RunError> {
        while let Some((t, ev)) = self.state.events.pop() {
            debug_assert!(t >= self.state.clock, "time must be monotone");
            self.charge_idle_polls(t - self.state.clock);
            self.state.clock = t;
            self.dispatch(ev);
            self.at_boundary(cadence)?;
        }
        Ok(())
    }

    /// The tick-stepped loop ([`Driver::TickStepped`]): dispatch every
    /// event due now, then advance the clock by one timetick.
    fn drive_ticks(&mut self, cadence: &mut Cadence) -> Result<(), RunError> {
        while !self.state.events.is_empty() {
            while let Some((t, ev)) = self.state.events.pop_due(self.state.clock) {
                debug_assert_eq!(t, self.state.clock);
                self.dispatch(ev);
                self.at_boundary(cadence)?;
            }
            if self.state.events.is_empty() {
                break;
            }
            self.charge_idle_polls(1);
            // BOUND: one tick per loop iteration; runs end far below 2^64.
            self.state.clock += 1;
        }
        Ok(())
    }

    /// Step accounting for the interval between events: the original
    /// tick-driven simulator re-examines the suspension queue every
    /// timetick. Between events nothing observable changes, so those
    /// probes are guaranteed failures — they cost search steps but
    /// cannot alter the schedule, which lets the event-driven driver
    /// charge them arithmetically and remain trace-equivalent to the
    /// tick-stepped driver.
    fn charge_idle_polls(&mut self, elapsed: Ticks) {
        if elapsed == 0 || self.state.suspension.is_empty() {
            return;
        }
        self.state.steps.charge(
            dreamsim_model::steps::StepKind::Scheduling,
            // BOUND: elapsed <= makespan and the poll constant is small; product far below 2^64.
            elapsed * POLL_SCHED_STEPS,
        );
        self.state.steps.charge(
            dreamsim_model::steps::StepKind::Housekeeping,
            // BOUND: elapsed x small constant x node count stays far below 2^64.
            elapsed * POLL_HOUSEKEEPING_PER_NODE * self.state.params.total_nodes as u64,
        );
    }

    /// Current simulated clock (service orchestration and tests).
    #[must_use]
    pub fn clock(&self) -> Ticks {
        self.state.clock
    }

    /// Run one open-system **service leg**: dispatch every event with a
    /// timestamp strictly before the service horizon
    /// ([`crate::params::ServiceParams::horizon`]), rolling
    /// sliding-window metrics, snapshotting into the checkpoint ring at
    /// interval boundaries, and feeding the watchdog after every event.
    ///
    /// On reaching the horizon the leg charges the trailing idle-poll
    /// interval, rolls the final window buckets, and drains to a final
    /// ring snapshot (graceful shutdown); events scheduled at or past
    /// the horizon stay queued — and therefore inside the snapshot — so
    /// resuming a completed window is a no-op. The deterministic kill
    /// switch ([`ServiceLegOptions::stop_at`]) instead returns
    /// [`ServiceLegEnd::Killed`] *without* a final snapshot, exactly
    /// like a SIGKILL: state past the last ring entry is lost and must
    /// be recovered by replay.
    ///
    /// Boundary semantics match [`run_with`](Self::run_with), so a leg
    /// resumed from any ring snapshot reproduces the uninterrupted
    /// leg's state — and every later ring snapshot — byte for byte.
    pub fn run_service_leg(
        &mut self,
        opts: &ServiceLegOptions,
        watchdog: &mut Option<Watchdog>,
    ) -> Result<ServiceLegEnd, RunError> {
        let horizon = self
            .state
            .params
            .service
            // INVARIANT: service legs are only reachable through
            // `service::serve` and service tests, which both require a
            // service block in the parameters.
            .expect("run_service_leg requires SimParams::service")
            .horizon;
        let snapshots = opts.ring_dir.as_ref().map(|dir| {
            let ring = CheckpointRing::new(dir.clone(), opts.ring_retain);
            (opts.ring_every, SnapshotSink::Ring(ring))
        });
        let mut cadence = Cadence::new(self.state.clock, false, opts.audit_every, snapshots);
        self.start(&cadence)?;
        while let Some((t, ev)) = self.state.events.pop_due(horizon.saturating_sub(1)) {
            debug_assert!(t >= self.state.clock, "time must be monotone");
            self.charge_idle_polls(t - self.state.clock);
            self.state.clock = t;
            if let Some(w) = &mut self.state.stats.window {
                w.roll(t);
            }
            self.dispatch(ev);
            self.at_boundary(&mut cadence)?;
            if let Some(wd) = watchdog {
                let progress = self.state.stats.completed + self.state.stats.discarded;
                if let Some(diag) = wd.observe(
                    self.state.clock,
                    progress,
                    self.state.suspension.len() as u64,
                ) {
                    return Ok(ServiceLegEnd::Stalled(diag));
                }
            }
            if opts
                .stop_at
                .is_some_and(|kill_at| self.state.clock >= kill_at)
            {
                return Ok(ServiceLegEnd::Killed);
            }
        }
        // Horizon reached (or the queue ran dry below it): charge the
        // trailing idle interval, close the window buckets, and drain
        // to the final ring snapshot.
        if self.state.clock < horizon {
            self.charge_idle_polls(horizon - self.state.clock);
            self.state.clock = horizon;
        }
        if let Some(w) = &mut self.state.stats.window {
            w.roll(self.state.clock);
        }
        if let Some((_, sink)) = &cadence.snapshot {
            self.snapshot(sink)?;
        }
        Ok(ServiceLegEnd::Horizon)
    }

    /// Finalize a drained service window into the standard
    /// [`RunResult`] (metrics, report, task table) — the service-mode
    /// counterpart of the batch drivers' implicit finish.
    #[must_use]
    pub fn finish_service(self) -> RunResult {
        self.finish()
    }

    /// Post-dispatch hook of every run loop: audit and/or snapshot when
    /// the clock has crossed the next interval boundary, re-arming each
    /// interval past the current clock.
    fn at_boundary(&mut self, cadence: &mut Cadence) -> Result<(), RunError> {
        let audit_due = cadence
            .audit
            .as_mut()
            .is_some_and(|a| a.due(self.state.clock));
        if let Some((interval, sink)) = &mut cadence.snapshot {
            if interval.due(self.state.clock) {
                // The snapshot audits first, covering any audit due now.
                return self.snapshot(sink);
            }
        }
        if cadence.audit_each || audit_due {
            self.audit()?;
        }
        Ok(())
    }

    /// Write one snapshot — a batch checkpoint or a ring entry — and
    /// count it in the phase profile. It always audits first:
    /// persisting a corrupted snapshot would poison every future
    /// resume.
    ///
    /// A ring entry first retires the service's finished rows
    /// ([`TaskTable::retire_finished`]), so the live table and the
    /// snapshot hold the unfinished window, not the history. Ring
    /// boundaries fall at the same clocks in every run of a window, and
    /// retiring charges no steps and draws nothing, so a window resumed
    /// from any ring entry retires, writes and reports byte for byte as
    /// the uninterrupted one. A batch run never retires.
    fn snapshot(&mut self, sink: &SnapshotSink) -> Result<(), RunError> {
        if let SnapshotSink::Ring(_) = sink {
            self.state.tasks.retire_finished();
        }
        self.audit()?;
        self.state.source_cursor = self.source.source_cursor();
        let bytes = sink.write(&self.state)?;
        self.checkpoints_written += 1;
        self.checkpoint_bytes += bytes;
        Ok(())
    }

    fn prime(&mut self) {
        // Reserve every task column for the run's budget before the
        // first task enters, so no column doubles past its final size.
        // Here rather than in `new`: a simulation that is built and
        // never run allocates none of the thirteen columns.
        let budget = reserve_budget(&self.state.params);
        self.state.tasks.reserve(budget);
        self.poll_source();
        if self.state.fault.mttf_active() {
            // Per-node failure processes: every node gets its own first
            // time-to-failure.
            for i in 0..self.state.params.total_nodes {
                let delay = self.state.fault.draw_ttf();
                self.state.events.push(
                    delay,
                    Event::NodeFailure {
                        node: NodeId::from_index(i),
                    },
                );
            }
        }
        // Chaos layer: pre-schedule every scripted outage, then arm the
        // stochastic per-domain outage processes. Domain-free runs take
        // neither branch and draw nothing from the domain stream.
        for &s in self.state.fault.scripted_outages() {
            self.state.events.push(
                s.at,
                Event::DomainOutage {
                    domain: s.domain,
                    duration: Some(s.duration),
                },
            );
        }
        if self.state.fault.domain_mttf_active() {
            for d in 0..self.state.fault.num_domains() {
                let delay = self.state.fault.draw_domain_ttf();
                self.state.events.push(
                    delay,
                    Event::DomainOutage {
                        // BOUND: domain count is validated <= total_nodes, far below 2^32.
                        domain: d as u32,
                        duration: None,
                    },
                );
            }
        }
    }

    /// Poll the source for the next task (if the budget allows), append
    /// it to the table, and schedule its arrival. Returns whether a task
    /// was scheduled.
    fn poll_source(&mut self) -> bool {
        if self.state.created >= self.state.params.total_tasks as u64 {
            return false;
        }
        let spec = match self.source.next_task(self.state.clock, &mut self.state.rng) {
            SourceYield::Task(spec) => spec,
            SourceYield::NotYet => {
                self.state.stalled = true;
                return false;
            }
            SourceYield::Exhausted => return false,
        };
        // Arrivals are monotone: dependency-gated tasks released at the
        // current time chain from `now` rather than the (earlier) last
        // scheduled arrival.
        // BOUND: a synthetic draw stays below 2^38 and a trace/SWF interarrival is capped at MAX_TICKS (DESIGN.md §14.4); far below 2^64.
        let arrival = self.state.last_arrival.max(self.state.clock) + spec.interarrival;
        self.state.last_arrival = arrival;
        // For in-list preferences the task's NeededArea mirrors the
        // configuration's ReqArea (the source may not know the table).
        let needed_area = match spec.preferred {
            PreferredConfig::Known(c) if c.index() < self.state.resources.num_configs() => {
                self.state.resources.config(c).req_area
            }
            _ => spec.needed_area,
        };
        // Areas are held to MAX_AREA here, as parameters, traces and
        // checkpoints hold them (DESIGN.md §14.4). No configuration is
        // wider than MAX_AREA and a closest match must be strictly wider,
        // so a task asking for more is discarded on arrival
        // (`NoClosestConfig`) after the same search steps either way, and
        // the held area is one a checkpoint carries.
        let preferred = match spec.preferred {
            PreferredConfig::Phantom { area } => PreferredConfig::Phantom {
                area: area.min(MAX_AREA),
            },
            known => known,
        };
        let id = self
            .state
            .tasks
            .create(
                arrival,
                spec.required_time,
                preferred,
                needed_area.min(MAX_AREA),
                spec.data_bytes,
            )
            // INVARIANT: the needed area was just held to MAX_AREA, far
            // inside the u32 column, the only bound `create` checks.
            .expect("areas held to MAX_AREA fit the task table");
        self.state.created += 1;
        self.state
            .events
            .push(arrival, Event::TaskArrival { task: id });
        true
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::TaskArrival { task } => self.handle_arrival(task),
            Event::TaskCompletion {
                task,
                entry,
                started_at,
            } => self.handle_completion(task, entry, started_at),
            Event::NodeFailure { node } => self.handle_failure(node),
            Event::NodeRepair { node } => self.handle_repair(node),
            Event::ReconfigFailed { task } => self.handle_reconfig_retry(task),
            Event::TaskFailed {
                task,
                entry,
                started_at,
            } => self.handle_task_failed(task, entry, started_at),
            Event::SuspensionTimeout { task, enqueued_at } => {
                self.handle_suspension_timeout(task, enqueued_at);
            }
            Event::DomainOutage { domain, duration } => {
                self.handle_domain_outage(domain, duration);
            }
            Event::DomainRestore { domain } => self.handle_domain_restore(domain),
        }
    }

    fn ctx_and_policy(&mut self) -> (SchedCtx<'_>, &mut P) {
        (
            SchedCtx {
                now: self.state.clock,
                mode: self.state.params.mode,
                suspension_enabled: self.state.params.suspension_enabled,
                max_sus_retries: self.state.params.max_sus_retries,
                resources: &mut self.state.resources,
                suspension: &mut self.state.suspension,
                tasks: &mut self.state.tasks,
                steps: &mut self.state.steps,
                rng: &mut self.state.rng,
            },
            &mut self.policy,
        )
    }

    fn handle_arrival(&mut self, task: TaskId) {
        self.state.stats.record_arrival();
        if !self.observers.is_empty() {
            let row = self.state.tasks.row(task);
            for obs in &mut self.observers {
                obs.on_arrival(self.state.clock, &row);
                obs.on_snapshot(
                    self.state.clock,
                    &self.state.resources,
                    self.state.suspension.len(),
                );
            }
        }
        self.schedule(task);
        // Chain the next arrival.
        self.poll_source();
    }

    /// Ask the policy to place `task`, then enact its decision.
    fn schedule(&mut self, task: TaskId) {
        let (mut ctx, policy) = self.ctx_and_policy();
        let decision = policy.schedule(&mut ctx, task);
        match decision {
            Decision::Placed(p) => self.enact_placement(p, false),
            Decision::Suspended => self.enact_suspension(task),
            Decision::Discarded(reason) => self.enact_discard(task, reason),
        }
    }

    /// Free `entry` of `task` if the event naming them is current: the
    /// task still runs the run that started at `started_at`, on that
    /// slot. A stale event — the task was killed by a node failure after
    /// the event was scheduled, its slot evicted and possibly reused by
    /// another placement, and the task itself possibly resubmitted and
    /// re-placed — changes nothing and returns `false`.
    fn release_current_run(&mut self, task: TaskId, entry: EntryRef, started_at: Ticks) -> bool {
        let tasks = &self.state.tasks;
        if tasks.state(task) != Some(TaskState::Running)
            || tasks.start_time(task) != Some(started_at)
        {
            return false;
        }
        if self
            .state
            .resources
            .node_store()
            .slot(entry.node.index(), entry.slot)
            .is_none_or(|s| s.task != Some(task))
        {
            return false;
        }
        let released = self
            .state
            .resources
            .release_task(entry, &mut self.state.steps)
            // INVARIANT: the staleness guard above verified the slot is
            // live and still holds `task`; the auditor pins the same
            // task ⇔ slot bijection on every audited event.
            .expect("current run event for a live busy slot");
        assert_eq!(released, task, "current run event / slot task mismatch");
        true
    }

    /// Whether simulation work remains: arrivals still pending or tasks
    /// not yet terminal. The failure, repair and domain chains re-arm
    /// only while it does; gating on queue emptiness would self-sustain
    /// forever, since each chain's own next event would count as work.
    fn work_remains(&self) -> bool {
        let unfinished =
            self.state.stats.completed + self.state.stats.discarded < self.state.created;
        self.state.created < self.state.params.total_tasks as u64 || unfinished
    }

    fn handle_completion(&mut self, task: TaskId, entry: EntryRef, started_at: Ticks) {
        if !self.release_current_run(task, entry, started_at) {
            return;
        }
        let tasks = &mut self.state.tasks;
        tasks.set_completion_time(task, Some(self.state.clock));
        tasks.set_state(task, TaskState::Completed);
        let residence = self.state.clock - tasks.create_time(task);
        self.state.stats.record_completion(residence);
        self.notify(task, |obs, now, row| obs.on_completion(now, row));
        let (mut ctx, policy) = self.ctx_and_policy();
        let resumes = policy.on_slot_freed(&mut ctx, entry);
        self.enact_resumes(resumes);
        // Dependency-gated sources may have tasks unlocked by this
        // completion.
        self.source.on_task_completed(task, self.state.clock);
        if self.state.stalled {
            self.state.stalled = false;
            while self.poll_source() {}
        }
    }

    fn handle_failure(&mut self, node: NodeId) {
        if !self.state.resources.node_store().is_down(node.index()) {
            let killed = self.state.resources.fail_node(node, &mut self.state.steps);
            self.state.stats.node_failures += 1;
            self.state.fault.mark_down(node, self.state.clock);
            for t in killed {
                self.state.stats.failure_killed += 1;
                self.resubmit_or_discard(t, DiscardReason::NodeFailed);
            }
            for obs in &mut self.observers {
                obs.on_node_failure(self.state.clock, node);
            }
            // BOUND: clock plus a bounded delay; simulated time stays far below 2^64.
            let repair_at = self.state.clock + self.state.fault.draw_ttr();
            self.state
                .events
                .push(repair_at, Event::NodeRepair { node });
        } else {
            // The node is already down: a domain outage beat this node's
            // own failure process to it. Re-arm the chain (normally done
            // by the repair event) so the process survives the outage.
            // Without domains each node has exactly one pending
            // failure-or-repair event, so this branch is not reached.
            self.rearm_node_chain(node);
        }
    }

    fn handle_repair(&mut self, node: NodeId) {
        self.state.resources.repair_node(node);
        self.state.fault.mark_up(node, self.state.clock);
        for obs in &mut self.observers {
            obs.on_node_repair(self.state.clock, node);
        }
        self.rearm_node_chain(node);
        let (mut ctx, policy) = self.ctx_and_policy();
        let resumes = policy.on_node_repaired(&mut ctx, node);
        self.enact_resumes(resumes);
    }

    /// Schedule `node`'s next failure under the per-node fault model
    /// while simulation work remains.
    fn rearm_node_chain(&mut self, node: NodeId) {
        if self.state.fault.mttf_active() && self.work_remains() {
            let delay = self.state.fault.draw_ttf();
            self.state
                .events
                // BOUND: clock plus a bounded delay; simulated time stays far below 2^64.
                .push(self.state.clock + delay, Event::NodeFailure { node });
        }
    }

    /// A correlated domain outage fired: every member node still up goes
    /// down atomically. Under [`DomainOutageKind::Fail`] the tasks
    /// running on those nodes are killed (and follow the fault model's
    /// resubmission rules); under [`DomainOutageKind::Partition`] the
    /// domain is merely unreachable — its tasks are re-suspended and
    /// restart from scratch when capacity frees up elsewhere.
    fn handle_domain_outage(&mut self, domain: u32, duration: Option<Ticks>) {
        // An outage on an already-down domain collapses into the open
        // one; only the stochastic chain needs re-arming so the process
        // survives the overlap.
        if self.state.fault.domain_is_down(domain) {
            if duration.is_none() {
                self.rearm_domain_chain(domain);
            }
            return;
        }
        let members = self.state.fault.domain_members(domain);
        let kind = self.state.fault.domain_kind();
        let mut victims = Vec::new();
        let mut evicted = Vec::new();
        for i in members {
            let node = NodeId::from_index(i);
            // Nodes already down for their own reasons keep their own
            // repair schedule and are not claimed by this outage.
            if self.state.resources.node_store().is_down(i) {
                continue;
            }
            let killed = self.state.resources.fail_node(node, &mut self.state.steps);
            self.state.fault.mark_down(node, self.state.clock);
            // BOUND: node indices are < total_nodes, far below 2^32.
            victims.push(i as u32);
            evicted.extend(killed);
            for obs in &mut self.observers {
                obs.on_node_failure(self.state.clock, node);
            }
        }
        self.state
            .fault
            .mark_domain_down(domain, self.state.clock, victims);
        for obs in &mut self.observers {
            obs.on_domain_outage(self.state.clock, domain);
        }
        if kind == DomainOutageKind::Partition && self.state.params.suspension_enabled {
            for t in evicted {
                self.end_run(t);
                let resolved = self.state.tasks.resolved_config(t);
                self.state
                    .suspension
                    .push(t, resolved, &mut self.state.steps);
                self.enact_suspension(t);
            }
        } else {
            // A failed domain kills its tasks. Without a suspension queue
            // (ablation A3) partitioned tasks have nowhere to wait, so
            // they follow the failure path too.
            for t in evicted {
                self.state.stats.failure_killed += 1;
                self.resubmit_or_discard(t, DiscardReason::NodeFailed);
            }
        }
        let restore_at = match duration {
            // BOUND: clock plus a bounded delay; simulated time stays far below 2^64.
            Some(d) => self.state.clock + d,
            // BOUND: clock plus a bounded delay; simulated time stays far below 2^64.
            None => self.state.clock + self.state.fault.draw_domain_ttr(),
        };
        self.state
            .events
            .push(restore_at, Event::DomainRestore { domain });
    }

    /// A domain outage ended: repair exactly the nodes the outage took
    /// down (they come back blank), give the policy a crack at the
    /// suspension queue per node, and re-arm the stochastic outage
    /// process.
    fn handle_domain_restore(&mut self, domain: u32) {
        let victims = self.state.fault.mark_domain_up(domain, self.state.clock);
        for obs in &mut self.observers {
            obs.on_domain_restore(self.state.clock, domain);
        }
        for i in victims {
            // BOUND: u32 node index; usize is at least 32 bits on every supported target.
            let node = NodeId::from_index(i as usize);
            self.state.resources.repair_node(node);
            self.state.fault.mark_up(node, self.state.clock);
            for obs in &mut self.observers {
                obs.on_node_repair(self.state.clock, node);
            }
            let (mut ctx, policy) = self.ctx_and_policy();
            let resumes = policy.on_node_repaired(&mut ctx, node);
            self.enact_resumes(resumes);
        }
        self.rearm_domain_chain(domain);
    }

    /// Schedule the next stochastic outage for `domain` while simulation
    /// work remains.
    fn rearm_domain_chain(&mut self, domain: u32) {
        if self.state.fault.domain_mttf_active() && self.work_remains() {
            let delay = self.state.fault.draw_domain_ttf();
            self.state.events.push(
                // BOUND: clock plus a bounded delay; simulated time stays far below 2^64.
                self.state.clock + delay,
                Event::DomainOutage {
                    domain,
                    duration: None,
                },
            );
        }
    }

    /// A bitstream-load retry came due: run the task through scheduling
    /// again (it kept — or degraded — its resolved configuration).
    fn handle_reconfig_retry(&mut self, task: TaskId) {
        // The task waits out its backoff in `Created` state and is in no
        // queue or slot, so nothing else should touch it; guard anyway
        // so a stale event can never double-schedule.
        if self.state.tasks.state(task) != Some(TaskState::Created) {
            return;
        }
        self.schedule(task);
    }

    /// A running task failed mid-execution: free its slot, then let
    /// suspended tasks claim the capacity before resubmitting the failed
    /// task itself (they waited longer).
    fn handle_task_failed(&mut self, task: TaskId, entry: EntryRef, started_at: Ticks) {
        if !self.release_current_run(task, entry, started_at) {
            return;
        }
        self.state.stats.task_failures += 1;
        self.end_run(task);
        self.notify(task, |obs, now, row| obs.on_task_failed(now, row));
        let (mut ctx, policy) = self.ctx_and_policy();
        let resumes = policy.on_slot_freed(&mut ctx, entry);
        self.enact_resumes(resumes);
        self.resubmit_or_discard(task, DiscardReason::ExecutionFailed);
    }

    /// A suspension deadline came due; stale if the task was resumed
    /// (and possibly re-suspended) since it was scheduled.
    fn handle_suspension_timeout(&mut self, task: TaskId, enqueued_at: Ticks) {
        let tasks = &self.state.tasks;
        if tasks.state(task) != Some(TaskState::Suspended)
            || tasks.suspended_at(task) != Some(enqueued_at)
        {
            return;
        }
        let removed = self
            .state
            .suspension
            .remove_task(task, &mut self.state.steps);
        debug_assert!(removed, "suspended task missing from the queue");
        self.enact_discard(task, DiscardReason::SuspensionTimeout);
    }

    /// Resubmit a fault-killed task to the scheduler, or discard it with
    /// `reason` once resubmission is off or the retry budget is spent.
    fn resubmit_or_discard(&mut self, task: TaskId, reason: DiscardReason) {
        if !self.state.fault.resubmit_enabled()
            || self.state.tasks.fault_retries(task) >= self.state.fault.max_retries()
        {
            self.enact_discard(task, reason);
            return;
        }
        self.end_run(task);
        let attempt = self.state.tasks.fault_retries(task) + 1;
        self.state.tasks.set_fault_retries(task, attempt);
        self.state.stats.resubmissions += 1;
        self.notify(task, |obs, now, row| obs.on_resubmit(now, row, attempt));
        self.schedule(task);
    }

    /// Mark `task` suspended (the policy already queued it) and arm the
    /// suspension deadline if one is configured.
    fn enact_suspension(&mut self, task: TaskId) {
        let tasks = &mut self.state.tasks;
        tasks.set_state(task, TaskState::Suspended);
        tasks.set_suspended_at(task, Some(self.state.clock));
        self.notify(task, |obs, now, row| obs.on_suspend(now, row));
        if let Some(deadline) = self.state.fault.suspension_deadline() {
            self.state.events.push(
                // BOUND: clock plus a bounded delay; simulated time stays far below 2^64.
                self.state.clock + deadline,
                Event::SuspensionTimeout {
                    task,
                    enqueued_at: self.state.clock,
                },
            );
        }
        if let Some(cap) = self.state.params.suspension_cap {
            if self.state.suspension.len() > cap {
                self.enforce_admission(task);
            }
        }
    }

    /// The bounded suspension queue overflowed — the newcomer's push
    /// took it past `suspension_cap`. Apply the configured admission
    /// policy to bring it back within bounds.
    fn enforce_admission(&mut self, newcomer: TaskId) {
        match self.state.params.admission {
            AdmissionPolicy::Block => self.shed(newcomer, DiscardReason::AdmissionBlocked),
            AdmissionPolicy::ShedOldest => {
                let oldest = self
                    .state
                    .suspension
                    .remove_first_match(&mut self.state.steps, |_| true)
                    // INVARIANT: enforce_admission runs only when the
                    // queue length exceeds the cap, so it is non-empty.
                    .expect("overflowing suspension queue is non-empty");
                self.enact_discard(oldest, DiscardReason::AdmissionShed);
            }
            AdmissionPolicy::DegradeClosest => {
                if !self.try_degrade(newcomer) {
                    // No larger configuration has an idle instance right
                    // now; fall back to blocking the newcomer.
                    self.shed(newcomer, DiscardReason::AdmissionBlocked);
                }
            }
        }
    }

    /// Remove `task` from the suspension queue and discard it; its
    /// pending suspension-timeout event (if any) goes stale with the
    /// state change.
    fn shed(&mut self, task: TaskId, reason: DiscardReason) {
        let removed = self
            .state
            .suspension
            .remove_task(task, &mut self.state.steps);
        debug_assert!(removed, "shed task missing from the suspension queue");
        self.enact_discard(task, reason);
    }

    /// Last-resort placement for an overflowing newcomer under
    /// `degrade-to-closest-match`: walk strictly larger configurations
    /// in closest-match order and run the task, degraded, on the first
    /// idle instance found. Returns whether a placement happened.
    fn try_degrade(&mut self, task: TaskId) -> bool {
        let mut area = match self.state.tasks.resolved_config(task) {
            Some(c) => self.state.resources.config(c).req_area,
            None => self.state.tasks.needed_area(task),
        };
        while let Some(config) = self
            .state
            .resources
            .find_closest_config(area, &mut self.state.steps)
        {
            if let Some(entry) = self
                .state
                .resources
                .find_best_idle(config, &mut self.state.steps)
            {
                let removed = self
                    .state
                    .suspension
                    .remove_task(task, &mut self.state.steps);
                debug_assert!(removed, "degrading task missing from the queue");
                self.state
                    .resources
                    .assign_task(entry, task, &mut self.state.steps)
                    // INVARIANT: find_best_idle returned a live idle
                    // slot; nothing ran in between.
                    .expect("idle slot accepts the degraded task");
                self.state.tasks.set_resolved_config(task, Some(config));
                self.state.stats.tasks_degraded += 1;
                self.enact_placement(
                    Placement {
                        task,
                        entry,
                        config,
                        config_time: 0,
                        phase: PhaseKind::Allocation,
                    },
                    true,
                );
                return true;
            }
            area = self.state.resources.config(config).req_area;
        }
        false
    }

    fn enact_resumes(&mut self, resumes: Vec<Resume>) {
        for r in resumes {
            match r {
                Resume::Placed(p) => self.enact_placement(p, true),
                Resume::Discarded { task, reason } => self.enact_discard(task, reason),
            }
        }
    }

    fn enact_placement(&mut self, p: Placement, resumed: bool) {
        // Fault injection: a bitstream load can fail before the task
        // starts. Checked before any task or statistics mutation so a
        // failed attempt rolls back to exactly the pre-placement state.
        // Direct allocations (config_time == 0) load no bitstream and
        // draw nothing.
        if p.config_time > 0 && self.state.fault.reconfig_attempt_fails() {
            self.abort_reconfig(&p);
            return;
        }
        let fails_midrun = self.state.fault.task_attempt_fails();
        let store = self.state.resources.node_store();
        let tcomm = store.network_delay(p.entry.node.index());
        let wasted_after = store.available_area(p.entry.node.index());
        let tasks = &mut self.state.tasks;
        tasks.set_start_time(p.task, Some(self.state.clock));
        tasks.set_assigned_config(p.task, Some(p.config));
        tasks.set_state(p.task, TaskState::Running);
        if resumed {
            tasks.bump_sus_retry(p.task);
        }
        let required_time = tasks.required_time(p.task);
        let wait = (self.state.clock - tasks.create_time(p.task)) + tcomm + p.config_time;
        // BOUND: each term is a validated tick parameter or a trace/SWF time capped at MAX_TICKS (DESIGN.md §14.4); far below 2^64.
        let completion = self.state.clock + p.config_time + tcomm + required_time;
        if fails_midrun {
            let run_for = self.state.fault.draw_fail_point(required_time);
            self.state.events.push(
                // BOUND: clock plus a bounded delay; simulated time stays far below 2^64.
                self.state.clock + p.config_time + tcomm + run_for,
                Event::TaskFailed {
                    task: p.task,
                    entry: p.entry,
                    started_at: self.state.clock,
                },
            );
        } else {
            self.state.events.push(
                completion,
                Event::TaskCompletion {
                    task: p.task,
                    entry: p.entry,
                    started_at: self.state.clock,
                },
            );
        }
        self.state
            .stats
            .record_placement(p.phase, wait, p.config_time, wasted_after, resumed);
        self.notify(p.task, |obs, now, row| obs.on_placement(now, row, &p));
    }

    /// Roll back a placement whose bitstream load failed: release and
    /// evict the slot the policy just configured, charge the wasted
    /// configuration time, and retry after bounded exponential backoff —
    /// degrading to the closest-match configuration once the retry
    /// budget is exhausted, and discarding only when no larger
    /// configuration exists to degrade to.
    fn abort_reconfig(&mut self, p: &Placement) {
        let released = self
            .state
            .resources
            .release_task(p.entry, &mut self.state.steps)
            // INVARIANT: abort_reconfig runs synchronously inside the
            // placement that configured `p.entry`; no event can have
            // touched the slot in between.
            .expect("aborted placement holds a live busy slot");
        assert_eq!(released, p.task, "aborted placement / slot task mismatch");
        self.state
            .resources
            .evict_idle_slots(p.entry.node, &[p.entry.slot], &mut self.state.steps)
            // INVARIANT: release_task just returned Ok for this very
            // slot, leaving it idle.
            .expect("aborted slot is idle after release");
        self.state.stats.record_reconfig_failure(p.config_time);
        let attempt = self.state.tasks.fault_retries(p.task) + 1;
        self.state.tasks.set_state(p.task, TaskState::Created);
        self.state.tasks.set_fault_retries(p.task, attempt);
        self.notify(p.task, |obs, now, row| {
            obs.on_reconfig_failed(now, row, attempt);
        });
        if attempt <= self.state.fault.max_retries() {
            self.state.stats.reconfig_retries += 1;
            self.state.events.push(
                // BOUND: backoff is capped by max_retries doublings of a validated base delay.
                self.state.clock + self.state.fault.backoff(attempt),
                Event::ReconfigFailed { task: p.task },
            );
            return;
        }
        // Budget exhausted: treat the failing configuration's bitstream
        // as unusable and substitute the closest match strictly larger
        // than it (the paper's degradation path), with a fresh retry
        // budget. Each degradation strictly grows the area, so even a
        // 100 % failure probability terminates at the largest
        // configuration.
        let failed_area = self.state.resources.config(p.config).req_area;
        match self
            .state
            .resources
            .find_closest_config(failed_area, &mut self.state.steps)
        {
            Some(next) => {
                self.state.tasks.set_resolved_config(p.task, Some(next));
                self.state.tasks.set_fault_retries(p.task, 0);
                self.state.stats.reconfig_retries += 1;
                self.state.events.push(
                    // BOUND: backoff is capped by max_retries doublings of a validated base delay.
                    self.state.clock + self.state.fault.backoff(attempt),
                    Event::ReconfigFailed { task: p.task },
                );
            }
            None => self.enact_discard(p.task, DiscardReason::ReconfigFailed),
        }
    }

    fn enact_discard(&mut self, task: TaskId, reason: DiscardReason) {
        self.state.tasks.set_state(task, TaskState::Discarded);
        self.state.stats.record_discard();
        if reason.is_fault() {
            self.state.stats.tasks_lost += 1;
        }
        if reason.is_shed() {
            self.state.stats.tasks_shed += 1;
        }
        self.notify(task, |obs, now, row| obs.on_discard(now, row, reason));
    }

    /// End `task`'s current run: back to `Created`, with no start time
    /// or assigned configuration.
    fn end_run(&mut self, task: TaskId) {
        let tasks = &mut self.state.tasks;
        tasks.set_state(task, TaskState::Created);
        tasks.set_start_time(task, None);
        tasks.set_assigned_config(task, None);
    }

    /// Hand `task`'s row to every observer. The row is assembled only
    /// when one is registered, so an unobserved run builds none.
    fn notify(&mut self, task: TaskId, mut call: impl FnMut(&mut dyn Observer, Ticks, &Task)) {
        if self.observers.is_empty() {
            return;
        }
        let row = self.state.tasks.row(task);
        for obs in &mut self.observers {
            call(obs.as_mut(), self.state.clock, &row);
        }
    }

    /// Drain leftovers, finalize metrics, and assemble the result.
    fn finish(mut self) -> RunResult {
        // Tasks still suspended can never run: no completions remain to
        // free capacity. Count them as discarded.
        let mut leftovers = Vec::new();
        while let Some(t) = self
            .state
            .suspension
            .remove_first_match(&mut self.state.steps, |_| true)
        {
            leftovers.push(t);
        }
        for t in leftovers {
            self.enact_discard(t, DiscardReason::SuspensionDrain);
        }
        debug_assert!(self.state.resources.check_invariants().is_ok());
        // One pass in node order; `Sum` keeps the summation order.
        let nodes = self.state.resources.node_store();
        let mut configured = 0usize;
        let fragmentation: f64 = (0..nodes.len())
            .filter(|&i| !nodes.is_blank(i))
            .inspect(|_| configured += 1)
            .map(|i| nodes.fragmentation(i))
            .sum();
        let mean_fragmentation_end = if configured == 0 {
            0.0
        } else {
            fragmentation / configured as f64
        };
        let mut metrics = self.state.stats.finalize(
            &self.state.params,
            self.state.steps,
            self.state.clock,
            self.state.resources.wasted_area_snapshot(),
            self.state.resources.total_reconfigurations(),
            self.state.resources.used_nodes(),
            self.state.suspension.total_suspensions(),
            self.state.suspension.peak_len(),
            mean_fragmentation_end,
            self.state.fault.total_downtime(self.state.clock),
        );
        // Chaos-layer availability metrics live in the fault model (so
        // checkpoints carry open outages); fill them in post-finalize.
        metrics.domain_outages = self.state.fault.domain_outages();
        metrics.domain_restores = self.state.fault.domain_restores();
        metrics.domain_downtime = self.state.fault.domain_downtime(self.state.clock);
        metrics.mean_time_to_recover = self.state.fault.mean_time_to_recover();
        let report = Report::new(self.state.params.clone(), metrics.clone());
        RunResult {
            metrics,
            report,
            profile: self.phase_profile(),
            tasks: self.state.tasks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ReconfigMode;

    /// Minimal deterministic source: every task wants config 0 and runs
    /// 100 ticks, arriving every 10 ticks.
    struct FixedSource;

    impl TaskSource for FixedSource {
        fn next_task(&mut self, _now: Ticks, _rng: &mut Rng) -> SourceYield {
            SourceYield::Task(TaskSpec {
                interarrival: 10,
                required_time: 100,
                preferred: PreferredConfig::Known(ConfigId(0)),
                needed_area: 0,
                data_bytes: 0,
            })
        }
    }

    /// Trivial policy: place on any idle instance of the preferred
    /// config, else configure the best blank node, else discard. No
    /// suspension. Exists only to exercise the driver; the real policies
    /// live in `dreamsim-sched`.
    struct GreedyPolicy;

    impl SchedulePolicy for GreedyPolicy {
        fn name(&self) -> &'static str {
            "test-greedy"
        }

        fn schedule(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Decision {
            // Honor a previously resolved configuration (set e.g. by the
            // reconfiguration-failure degradation path), like the real
            // schedulers do.
            let config = match (ctx.tasks.resolved_config(task), ctx.tasks.preferred(task)) {
                (Some(c), _) | (None, PreferredConfig::Known(c)) => c,
                (None, PreferredConfig::Phantom { .. }) => {
                    return Decision::Discarded(DiscardReason::NoClosestConfig)
                }
            };
            if let Some(entry) = ctx.resources.find_best_idle(config, ctx.steps) {
                ctx.resources.assign_task(entry, task, ctx.steps).unwrap();
                return Decision::Placed(Placement {
                    task,
                    entry,
                    config,
                    config_time: 0,
                    phase: PhaseKind::Allocation,
                });
            }
            let demand = dreamsim_model::store::Demand::of(ctx.resources.config(config));
            if let Some(node) = ctx.resources.find_best_blank(demand, ctx.steps) {
                let ct = ctx.resources.config(config).config_time;
                let entry = ctx
                    .resources
                    .configure_slot(node, config, ctx.steps)
                    .unwrap();
                ctx.resources.assign_task(entry, task, ctx.steps).unwrap();
                return Decision::Placed(Placement {
                    task,
                    entry,
                    config,
                    config_time: ct,
                    phase: PhaseKind::Configuration,
                });
            }
            Decision::Discarded(DiscardReason::NoFeasibleNode)
        }

        fn on_slot_freed(&mut self, _ctx: &mut SchedCtx<'_>, _freed: EntryRef) -> Vec<Resume> {
            Vec::new()
        }
    }

    fn small_params() -> SimParams {
        let mut p = SimParams::paper(10, 20, ReconfigMode::Partial);
        p.seed = 77;
        p
    }

    /// Default options on the tick-stepped loop.
    fn tick_stepped() -> RunOptions {
        RunOptions {
            driver: Driver::TickStepped,
            ..RunOptions::default()
        }
    }

    #[test]
    fn run_completes_all_placeable_tasks() {
        let sim = Simulation::new(small_params(), FixedSource, GreedyPolicy).unwrap();
        let res = sim.run();
        assert_eq!(res.metrics.total_tasks_generated, 20);
        assert_eq!(
            res.metrics.total_tasks_completed + res.metrics.total_discarded_tasks,
            20
        );
        assert!(res.metrics.total_tasks_completed > 0);
        assert!(res.metrics.total_simulation_time > 0);
        for t in &res.tasks {
            assert!(t.is_terminal(), "{:?} not terminal", t.id);
        }
    }

    #[test]
    fn event_driven_and_tick_stepped_agree() {
        let a = Simulation::new(small_params(), FixedSource, GreedyPolicy)
            .unwrap()
            .run();
        let b = Simulation::new(small_params(), FixedSource, GreedyPolicy)
            .unwrap()
            .run_with(&tick_stepped())
            .unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.tasks, b.tasks);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = Simulation::new(small_params(), FixedSource, GreedyPolicy)
            .unwrap()
            .run();
        let b = Simulation::new(small_params(), FixedSource, GreedyPolicy)
            .unwrap()
            .run();
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn waiting_time_includes_comm_and_config() {
        // One node, one task: the first task configures a blank node, so
        // its wait must be exactly tcomm + tconfig.
        let mut p = small_params();
        p.total_tasks = 1;
        p.total_nodes = 1;
        let res = Simulation::new(p, FixedSource, GreedyPolicy).unwrap().run();
        let m = &res.metrics;
        assert_eq!(m.total_tasks_completed, 1);
        let wait = m.avg_waiting_time_per_task;
        // tcomm ∈ [1..10], tconfig ∈ [10..20] → wait ∈ [11..30].
        assert!((11.0..=30.0).contains(&wait), "wait={wait}");
        assert!(m.avg_config_time_per_task >= 10.0);
        // Residence = wait + required_time.
        assert!((m.avg_running_time_per_task - (wait + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn invalid_params_rejected_at_construction() {
        let mut p = small_params();
        p.total_nodes = 0;
        assert!(Simulation::new(p, FixedSource, GreedyPolicy).is_err());
    }

    #[test]
    fn task_table_enforces_dense_ids() {
        let mut t = TaskTable::new();
        t.push(Task::new(
            TaskId(0),
            0,
            1,
            PreferredConfig::Known(ConfigId(0)),
            1,
        ))
        .unwrap();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn task_table_rejects_sparse_ids() {
        let mut t = TaskTable::new();
        t.push(Task::new(
            TaskId(5),
            0,
            1,
            PreferredConfig::Known(ConfigId(0)),
            1,
        ))
        .unwrap();
    }

    /// Policy that parks every task in the suspension queue and never
    /// resumes it; only suspension deadlines can terminate such a run.
    struct AlwaysSuspendPolicy;

    impl SchedulePolicy for AlwaysSuspendPolicy {
        fn name(&self) -> &'static str {
            "test-always-suspend"
        }

        fn schedule(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Decision {
            ctx.suspension
                .push(task, ctx.tasks.resolved_config(task), ctx.steps);
            Decision::Suspended
        }

        fn on_slot_freed(&mut self, _ctx: &mut SchedCtx<'_>, _freed: EntryRef) -> Vec<Resume> {
            Vec::new()
        }
    }

    #[test]
    fn mttf_failures_kill_repair_and_track_downtime() {
        let mut p = small_params();
        p.total_tasks = 50;
        p.faults.node_mttf = Some(300);
        p.faults.node_mttr = 100;
        let res = Simulation::new(p, FixedSource, GreedyPolicy).unwrap().run();
        let m = &res.metrics;
        assert!(
            m.node_failures > 0,
            "per-node failure processes should fire"
        );
        assert!(m.node_downtime > 0, "downtime must accrue across repairs");
        assert_eq!(m.total_tasks_completed + m.total_discarded_tasks, 50);
        for t in &res.tasks {
            assert!(t.is_terminal(), "{:?} not terminal", t.id);
        }
    }

    #[test]
    fn killed_nodes_never_linger_in_scheduler_lists() {
        let mut p = small_params();
        p.total_tasks = 40;
        p.faults.node_mttf = Some(150);
        p.faults.node_mttr = 400;
        p.faults.task_fail_prob = 0.1;
        let mut sim = Simulation::new(p, FixedSource, GreedyPolicy).unwrap();
        sim.prime();
        let mut saw_failure = false;
        while let Some((t, ev)) = sim.state.events.pop() {
            sim.charge_idle_polls(t - sim.state.clock);
            sim.state.clock = t;
            sim.dispatch(ev);
            sim.state.resources.check_invariants().unwrap();
            let nodes = sim.state.resources.node_store();
            for i in (0..nodes.len()).filter(|&i| nodes.is_down(i)) {
                saw_failure = true;
                // A failed node was stripped of every slot, so the list
                // invariant above guarantees no idle/busy list can still
                // reference it.
                assert_eq!(nodes.live_count(i), 0, "node {i} still holds slots");
            }
        }
        assert!(saw_failure, "test should exercise at least one failure");
    }

    #[test]
    fn reconfig_failures_retry_and_still_finish_every_task() {
        let mut p = small_params();
        p.total_tasks = 40;
        p.faults.reconfig_fail_prob = 0.5;
        let res = Simulation::new(p, FixedSource, GreedyPolicy).unwrap().run();
        let m = &res.metrics;
        assert!(m.reconfig_failures > 0, "bitstream loads should fail");
        assert!(m.reconfig_retries > 0, "failures should be retried");
        assert_eq!(m.total_tasks_completed + m.total_discarded_tasks, 40);
        assert!(m.total_tasks_completed > 0);
    }

    #[test]
    fn certain_reconfig_failure_still_terminates() {
        // At probability 1.0 every attempt fails; after the retry budget
        // the task degrades to strictly larger configurations until none
        // is left, so the run must terminate with every task discarded.
        let mut p = small_params();
        p.total_tasks = 10;
        p.faults.reconfig_fail_prob = 1.0;
        p.faults.retry_backoff_base = 1;
        p.faults.retry_backoff_cap = 4;
        let res = Simulation::new(p, FixedSource, GreedyPolicy).unwrap().run();
        let m = &res.metrics;
        assert_eq!(m.total_tasks_completed, 0);
        assert_eq!(m.total_discarded_tasks, 10);
        assert_eq!(m.tasks_lost, 10);
    }

    #[test]
    fn task_failures_resubmit_and_count() {
        let mut p = small_params();
        p.total_tasks = 40;
        p.faults.task_fail_prob = 0.3;
        let res = Simulation::new(p, FixedSource, GreedyPolicy).unwrap().run();
        let m = &res.metrics;
        assert!(m.task_failures > 0, "executions should fail mid-run");
        assert!(m.resubmissions > 0, "failed tasks should be resubmitted");
        assert_eq!(m.total_tasks_completed + m.total_discarded_tasks, 40);
        assert!(
            m.total_tasks_completed > 0,
            "resubmitted tasks should finish"
        );
    }

    #[test]
    fn no_resubmit_discards_on_first_fault() {
        let mut p = small_params();
        p.total_tasks = 10;
        p.faults.task_fail_prob = 1.0;
        p.faults.resubmit = false;
        let res = Simulation::new(p, FixedSource, GreedyPolicy).unwrap().run();
        let m = &res.metrics;
        assert_eq!(m.total_tasks_completed, 0);
        assert_eq!(m.total_discarded_tasks, 10);
        assert_eq!(m.task_failures, 10);
        assert_eq!(m.resubmissions, 0);
        assert_eq!(m.tasks_lost, 10);
    }

    #[test]
    fn suspension_deadline_discards_parked_tasks() {
        let mut p = small_params();
        p.total_tasks = 10;
        p.faults.suspension_deadline = Some(25);
        let res = Simulation::new(p, FixedSource, AlwaysSuspendPolicy)
            .unwrap()
            .run();
        let m = &res.metrics;
        assert_eq!(m.total_suspensions, 10);
        assert_eq!(m.total_discarded_tasks, 10);
        assert_eq!(m.tasks_lost, 10);
        for t in &res.tasks {
            assert_eq!(t.state, TaskState::Discarded);
        }
    }

    #[test]
    fn fault_runs_agree_across_drivers() {
        let mut p = small_params();
        p.total_tasks = 30;
        p.faults.node_mttf = Some(500);
        p.faults.node_mttr = 100;
        p.faults.reconfig_fail_prob = 0.2;
        p.faults.task_fail_prob = 0.1;
        let a = Simulation::new(p.clone(), FixedSource, GreedyPolicy)
            .unwrap()
            .run();
        let b = Simulation::new(p, FixedSource, GreedyPolicy)
            .unwrap()
            .run_with(&tick_stepped())
            .unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.tasks, b.tasks);
    }

    // ------------------------------------------------------------------
    // Chaos layer: failure domains and admission policies.
    // ------------------------------------------------------------------

    use crate::params::{DomainParams, ScriptedOutage};

    fn scripted_domain_params(kind: DomainOutageKind) -> SimParams {
        let mut p = small_params();
        p.total_tasks = 30;
        p.domains = Some(DomainParams {
            count: 2,
            mttf: None,
            mttr: 50,
            kind,
            scripted: vec![ScriptedOutage {
                domain: 0,
                at: 60,
                duration: 100,
            }],
        });
        p
    }

    #[test]
    fn scripted_outage_fails_members_and_restores_them() {
        let res = Simulation::new(
            scripted_domain_params(DomainOutageKind::Fail),
            FixedSource,
            GreedyPolicy,
        )
        .unwrap()
        .run();
        let m = &res.metrics;
        assert_eq!(m.domain_outages, 1);
        assert_eq!(m.domain_restores, 1);
        assert_eq!(m.domain_downtime, vec![100, 0]);
        assert_eq!(m.mean_time_to_recover, 100.0);
        assert!(m.node_downtime > 0, "member downtime must accrue");
        assert_eq!(m.total_tasks_completed + m.total_discarded_tasks, 30);
        for t in &res.tasks {
            assert!(t.is_terminal(), "{:?} not terminal", t.id);
        }
        assert!(res.report.to_xml().contains("<chaos>"));
    }

    #[test]
    fn partition_outage_resuspends_instead_of_killing() {
        let fail = Simulation::new(
            scripted_domain_params(DomainOutageKind::Fail),
            FixedSource,
            GreedyPolicy,
        )
        .unwrap()
        .run();
        let part = Simulation::new(
            scripted_domain_params(DomainOutageKind::Partition),
            FixedSource,
            GreedyPolicy,
        )
        .unwrap()
        .run();
        assert!(
            fail.metrics.failure_killed > 0,
            "fail-kind outage should kill running tasks"
        );
        assert_eq!(part.metrics.failure_killed, 0);
        assert!(
            part.metrics.total_suspensions > 0,
            "partitioned tasks wait in the suspension queue"
        );
        assert_eq!(
            part.metrics.total_tasks_completed + part.metrics.total_discarded_tasks,
            30
        );
    }

    #[test]
    fn stochastic_domain_outages_fire_and_terminate() {
        let mut p = small_params();
        p.total_tasks = 40;
        p.domains = Some(DomainParams {
            count: 2,
            mttf: Some(150),
            mttr: 40,
            kind: DomainOutageKind::Fail,
            scripted: Vec::new(),
        });
        let res = Simulation::new(p, FixedSource, GreedyPolicy).unwrap().run();
        let m = &res.metrics;
        assert!(m.domain_outages > 0, "stochastic outages should fire");
        assert!(m.domain_restores > 0);
        assert!(m.mean_time_to_recover > 0.0);
        assert_eq!(m.total_tasks_completed + m.total_discarded_tasks, 40);
        for t in &res.tasks {
            assert!(t.is_terminal(), "{:?} not terminal", t.id);
        }
    }

    #[test]
    fn domain_outages_coexist_with_per_node_failure_processes() {
        let mut p = small_params();
        p.total_tasks = 40;
        p.faults.node_mttf = Some(250);
        p.faults.node_mttr = 60;
        p.domains = Some(DomainParams {
            count: 2,
            mttf: Some(300),
            mttr: 50,
            kind: DomainOutageKind::Fail,
            scripted: Vec::new(),
        });
        let a = Simulation::new(p.clone(), FixedSource, GreedyPolicy)
            .unwrap()
            .run();
        assert!(a.metrics.node_failures > 0, "per-node process still runs");
        assert!(a.metrics.domain_outages > 0, "domain process still runs");
        assert_eq!(
            a.metrics.total_tasks_completed + a.metrics.total_discarded_tasks,
            40
        );
        // Both drivers agree under combined chaos.
        let b = Simulation::new(p, FixedSource, GreedyPolicy)
            .unwrap()
            .run_with(&tick_stepped())
            .unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.tasks, b.tasks);
    }

    #[test]
    fn chaos_block_absent_without_domains() {
        let res = Simulation::new(small_params(), FixedSource, GreedyPolicy)
            .unwrap()
            .run();
        let m = &res.metrics;
        assert_eq!(m.domain_outages, 0);
        assert!(m.domain_downtime.is_empty());
        assert_eq!(m.tasks_shed, 0);
        assert_eq!(m.tasks_degraded, 0);
        assert!(!res.report.to_xml().contains("<chaos>"));
    }

    /// Observer that logs every discard with its reason, shared through
    /// an `Rc` so the test can read it back after the run consumes the
    /// simulation.
    struct DiscardLog(std::rc::Rc<std::cell::RefCell<Vec<(TaskId, DiscardReason)>>>);

    impl crate::monitor::Observer for DiscardLog {
        fn on_discard(&mut self, _now: Ticks, task: &Task, reason: DiscardReason) {
            self.0.borrow_mut().push((task.id, reason));
        }
    }

    fn run_admission(policy: AdmissionPolicy) -> (RunResult, Vec<(TaskId, DiscardReason)>) {
        let mut p = small_params();
        p.total_tasks = 10;
        p.suspension_cap = Some(3);
        p.admission = policy;
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let res = Simulation::new(p, FixedSource, AlwaysSuspendPolicy)
            .unwrap()
            .with_observer(Box::new(DiscardLog(log.clone())))
            .run();
        let entries = log.borrow().clone();
        (res, entries)
    }

    #[test]
    fn block_admission_rejects_newcomers_over_the_cap() {
        let (res, log) = run_admission(AdmissionPolicy::Block);
        let m = &res.metrics;
        assert_eq!(m.tasks_shed, 7);
        assert_eq!(m.total_discarded_tasks, 10);
        assert_eq!(m.tasks_lost, 0, "admission sheds are not fault losses");
        // The queue keeps the three oldest tasks; every later arrival is
        // blocked on entry.
        let blocked: Vec<TaskId> = log
            .iter()
            .filter(|(_, r)| *r == DiscardReason::AdmissionBlocked)
            .map(|&(t, _)| t)
            .collect();
        let drained: Vec<TaskId> = log
            .iter()
            .filter(|(_, r)| *r == DiscardReason::SuspensionDrain)
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(blocked, (3..10).map(TaskId::from_index).collect::<Vec<_>>());
        assert_eq!(drained, (0..3).map(TaskId::from_index).collect::<Vec<_>>());
    }

    #[test]
    fn shed_oldest_admission_evicts_the_queue_head() {
        let (res, log) = run_admission(AdmissionPolicy::ShedOldest);
        let m = &res.metrics;
        assert_eq!(m.tasks_shed, 7);
        assert_eq!(m.total_discarded_tasks, 10);
        // The queue keeps the three *newest* tasks: the oldest is evicted
        // on every overflowing arrival.
        let shed: Vec<TaskId> = log
            .iter()
            .filter(|(_, r)| *r == DiscardReason::AdmissionShed)
            .map(|&(t, _)| t)
            .collect();
        let drained: Vec<TaskId> = log
            .iter()
            .filter(|(_, r)| *r == DiscardReason::SuspensionDrain)
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(shed, (0..7).map(TaskId::from_index).collect::<Vec<_>>());
        assert_eq!(drained, (7..10).map(TaskId::from_index).collect::<Vec<_>>());
    }

    #[test]
    fn degrade_admission_places_overflow_on_a_larger_config() {
        let mut p = small_params();
        p.total_tasks = 2;
        p.suspension_cap = Some(1);
        p.admission = AdmissionPolicy::DegradeClosest;
        let mut sim = Simulation::new(p, FixedSource, AlwaysSuspendPolicy).unwrap();
        // Pre-configure an idle instance of the closest configuration
        // strictly larger than config 0 (the one every task prefers), so
        // the overflow has somewhere to degrade to.
        let area0 = sim.state.resources.config(ConfigId(0)).req_area;
        let big = sim
            .state
            .resources
            .find_closest_config(area0, &mut sim.state.steps)
            .expect("a strictly larger configuration exists");
        let demand = dreamsim_model::store::Demand::of(sim.state.resources.config(big));
        let node = sim
            .state
            .resources
            .find_best_blank(demand, &mut sim.state.steps)
            .expect("a blank node can host it");
        sim.state
            .resources
            .configure_slot(node, big, &mut sim.state.steps)
            .unwrap();
        let res = sim.run();
        let m = &res.metrics;
        assert_eq!(m.tasks_degraded, 1);
        assert_eq!(m.tasks_shed, 0);
        assert_eq!(m.total_tasks_completed, 1);
        // The first task stays parked and drains at the end.
        assert_eq!(m.total_discarded_tasks, 1);
        let degraded = res.tasks.row(TaskId(1));
        assert_eq!(degraded.state, TaskState::Completed);
        assert_eq!(degraded.assigned_config, Some(big));
    }

    #[test]
    fn degrade_admission_falls_back_to_block_without_capacity() {
        // No idle instances exist anywhere (the policy never places), so
        // every degrade attempt fails and the newcomer is blocked.
        let (res, log) = run_admission(AdmissionPolicy::DegradeClosest);
        assert_eq!(res.metrics.tasks_degraded, 0);
        assert_eq!(res.metrics.tasks_shed, 7);
        assert!(log.iter().all(|&(_, r)| r != DiscardReason::AdmissionShed));
    }

    #[test]
    fn observer_sees_consistent_event_counts() {
        use crate::monitor::RecordingMonitor;
        let sim = Simulation::new(small_params(), FixedSource, GreedyPolicy).unwrap();
        // Box a monitor we can't read back directly; instead check via a
        // second run that counts match metrics.
        let res = sim.with_observer(Box::new(RecordingMonitor::new(0))).run();
        assert_eq!(res.metrics.total_tasks_generated, 20);
    }

    // ------------------------------------------------------------------
    // Checkpoint/restore and the invariant auditor.
    // ------------------------------------------------------------------

    use crate::audit::AuditError;
    use crate::checkpoint::{read_checkpoint, write_checkpoint, CheckpointError};
    use dreamsim_model::ids::MAX_AREA;
    use dreamsim_model::{pack, SlotView};

    /// Parameters with every fault mechanism active, so checkpoints must
    /// carry retry counters, staleness stamps, per-node down-since
    /// state, and both RNG streams to stay bit-identical.
    fn fault_params() -> SimParams {
        let mut p = small_params();
        p.total_tasks = 40;
        p.faults.node_mttf = Some(400);
        p.faults.node_mttr = 100;
        p.faults.reconfig_fail_prob = 0.2;
        p.faults.task_fail_prob = 0.1;
        p
    }

    /// Fresh per-test temp dir (removed and recreated on entry).
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dreamsim-cp-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Drive `sim` event-by-event until `probe` yields a value, leaving
    /// the simulation mid-run. Panics if the run drains first.
    fn drive_find<T>(
        sim: &mut Simulation<FixedSource, GreedyPolicy>,
        mut probe: impl FnMut(&Simulation<FixedSource, GreedyPolicy>) -> Option<T>,
    ) -> T {
        if !sim.primed {
            sim.prime();
            sim.primed = true;
        }
        while let Some((t, ev)) = sim.state.events.pop() {
            sim.charge_idle_polls(t - sim.state.clock);
            sim.state.clock = t;
            sim.dispatch(ev);
            if let Some(x) = probe(sim) {
                return x;
            }
        }
        panic!("run drained without reaching the probed state");
    }

    /// The first `Some` that `f` yields over the live slots, in node
    /// then slab order.
    fn find_slot<T>(
        sim: &Simulation<FixedSource, GreedyPolicy>,
        mut f: impl FnMut(NodeId, u32, SlotView) -> Option<T>,
    ) -> Option<T> {
        let nodes = sim.state.resources.node_store();
        (0..nodes.len()).find_map(|i| {
            nodes
                .slots(i)
                .find_map(|(slot, view)| f(NodeId::from_index(i), slot, view))
        })
    }

    /// The first idle slot (configured, no task).
    fn idle_slot(sim: &Simulation<FixedSource, GreedyPolicy>) -> Option<(NodeId, u32)> {
        find_slot(sim, |node, slot, view| {
            view.task.is_none().then_some((node, slot))
        })
    }

    /// First slot currently idle, after driving to such a state.
    fn drive_to_idle_slot(sim: &mut Simulation<FixedSource, GreedyPolicy>) -> (NodeId, u32) {
        drive_find(sim, idle_slot)
    }

    /// Drive `sim` event-by-event until its clock reaches `stop`,
    /// leaving it mid-run with events still pending.
    fn drive_until<P: SchedulePolicy>(sim: &mut Simulation<FixedSource, P>, stop: Ticks) {
        if !sim.primed {
            sim.prime();
            sim.primed = true;
        }
        while let Some((t, ev)) = sim.state.events.pop() {
            sim.charge_idle_polls(t - sim.state.clock);
            sim.state.clock = t;
            sim.dispatch(ev);
            if sim.state.clock >= stop {
                break;
            }
        }
    }

    #[test]
    fn presized_event_heap_checkpoints_identically() {
        // Heap capacity must be invisible in checkpoint bytes. A fresh
        // sim pre-sizes its heap in `new`; a resumed one starts from a
        // heap deserialized to exactly the pending entries, which
        // `resume` re-reserves. The same state must serialize the same
        // either way.
        let p = fault_params();
        let mut fresh = Simulation::new(p.clone(), FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut fresh, 200);
        let dir = temp_dir("presized-cp");
        let (pa, pb) = (dir.join("fresh.dsc"), dir.join("resumed.dsc"));
        write_checkpoint(&pa, &fresh.checkpoint()).unwrap();
        let resumed =
            Simulation::resume(read_checkpoint(&pa).unwrap(), FixedSource, GreedyPolicy).unwrap();
        assert!(
            resumed.state.events.capacity() >= expected_pending_events(&p),
            "resume must restore the pre-sized headroom"
        );
        write_checkpoint(&pb, &resumed.checkpoint()).unwrap();
        assert_eq!(
            std::fs::read(&pa).unwrap(),
            std::fs::read(&pb).unwrap(),
            "heap capacity leaked into checkpoint bytes"
        );
        // And the resumed run still reconverges.
        let base = Simulation::new(p, FixedSource, GreedyPolicy).unwrap().run();
        assert_eq!(base.metrics, resumed.run().metrics);
    }

    /// The wait samples travel once, inside the stats, and a resume
    /// restores them: the percentiles are the uninterrupted run's.
    #[test]
    fn checkpoint_carries_wait_samples_once() {
        let p = fault_params();
        let base = Simulation::new(p.clone(), FixedSource, GreedyPolicy)
            .unwrap()
            .run();
        let mut sim = Simulation::new(p, FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, base.metrics.total_simulation_time / 2);
        let cp = sim.checkpoint();
        assert!(
            !cp.stats.wait_samples.is_empty(),
            "tasks waited before the cut"
        );
        assert_eq!(cp.stats.wait_samples, sim.state.stats.wait_samples);
        let payload = serde_json::to_string(&cp).unwrap();
        assert_eq!(
            payload.matches("\"wait_samples\"").count(),
            1,
            "samples copied twice"
        );
        let tree: serde::Value = serde_json::from_str(&payload).unwrap();
        let samples = tree["stats"]["wait_samples"].as_array().map(<[_]>::len);
        assert_eq!(
            samples,
            Some(cp.stats.wait_samples.len()),
            "samples inside stats"
        );
        let resumed = Simulation::resume(cp, FixedSource, GreedyPolicy)
            .unwrap()
            .run();
        let percentiles = |m: &Metrics| (m.wait_p50, m.wait_p95, m.wait_p99);
        assert_eq!(percentiles(&resumed.metrics), percentiles(&base.metrics));
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_event_driven() {
        let p = fault_params();
        let base = Simulation::new(p.clone(), FixedSource, GreedyPolicy)
            .unwrap()
            .run();
        let stop = base.metrics.total_simulation_time / 2;
        let mut sim = Simulation::new(p, FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, stop);
        assert!(
            !sim.state.events.is_empty(),
            "checkpoint must be taken mid-run"
        );
        let dir = temp_dir("bitident-ev");
        let path = dir.join("mid.dsc");
        write_checkpoint(&path, &sim.checkpoint()).unwrap();
        let cp = read_checkpoint(&path).unwrap();
        let resumed = Simulation::resume(cp, FixedSource, GreedyPolicy)
            .unwrap()
            .run();
        assert_eq!(base.metrics, resumed.metrics);
        assert_eq!(base.tasks, resumed.tasks);
        assert_eq!(base.report.to_xml(), resumed.report.to_xml());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_tick_stepped() {
        let p = fault_params();
        let base = Simulation::new(p.clone(), FixedSource, GreedyPolicy)
            .unwrap()
            .run_with(&tick_stepped())
            .unwrap();
        let stop = base.metrics.total_simulation_time / 2;
        let mut sim = Simulation::new(p, FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, stop);
        assert!(
            !sim.state.events.is_empty(),
            "checkpoint must be taken mid-run"
        );
        let dir = temp_dir("bitident-ts");
        let path = dir.join("mid.dsc");
        write_checkpoint(&path, &sim.checkpoint()).unwrap();
        let cp = read_checkpoint(&path).unwrap();
        let resumed = Simulation::resume(cp, FixedSource, GreedyPolicy)
            .unwrap()
            .run_with(&tick_stepped())
            .unwrap();
        assert_eq!(base.metrics, resumed.metrics);
        assert_eq!(base.tasks, resumed.tasks);
        assert_eq!(base.report.to_xml(), resumed.report.to_xml());
    }

    #[test]
    fn chaos_checkpoint_resume_is_bit_identical() {
        // Full chaos stack live across the checkpoint: a scripted
        // partition outage that is still open at the checkpoint time, a
        // stochastic domain chain, a bounded suspension queue with
        // shed-oldest admission, plus the per-node fault processes.
        let mut p = fault_params();
        p.suspension_cap = Some(2);
        p.admission = AdmissionPolicy::ShedOldest;
        // GreedyPolicy never resumes partitioned tasks, so without a
        // deadline they would park forever and the stochastic domain
        // chain (gated on work remaining) would re-arm indefinitely.
        p.faults.suspension_deadline = Some(300);
        p.domains = Some(DomainParams {
            count: 2,
            mttf: Some(500),
            mttr: 80,
            kind: DomainOutageKind::Partition,
            scripted: vec![ScriptedOutage {
                domain: 1,
                at: 100,
                duration: 400,
            }],
        });
        let base = Simulation::new(p.clone(), FixedSource, GreedyPolicy)
            .unwrap()
            .run();
        assert!(base.metrics.domain_outages > 0);
        let mut sim = Simulation::new(p, FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, 200);
        assert!(
            sim.state.fault.domain_is_down(1),
            "checkpoint must capture an open outage"
        );
        assert!(
            !sim.state.events.is_empty(),
            "checkpoint must be taken mid-run"
        );
        let dir = temp_dir("bitident-chaos");
        let path = dir.join("mid.dsc");
        write_checkpoint(&path, &sim.checkpoint()).unwrap();
        let cp = read_checkpoint(&path).unwrap();
        let resumed = Simulation::resume(cp, FixedSource, GreedyPolicy)
            .unwrap()
            .run();
        assert_eq!(base.metrics, resumed.metrics);
        assert_eq!(base.tasks, resumed.tasks);
        assert_eq!(base.report.to_xml(), resumed.report.to_xml());
    }

    #[test]
    fn periodic_checkpoints_identical_across_drivers() {
        let p = fault_params();
        let d_ev = temp_dir("periodic-ev");
        let d_ts = temp_dir("periodic-ts");
        let opts = |driver: Driver, dir: &std::path::Path| RunOptions {
            driver,
            checkpoint_every: Some(200),
            checkpoint_dir: Some(dir.to_path_buf()),
            audit: true,
            audit_every: None,
        };
        let a = Simulation::new(p.clone(), FixedSource, GreedyPolicy)
            .unwrap()
            .run_with(&opts(Driver::Event, &d_ev))
            .unwrap();
        let b = Simulation::new(p, FixedSource, GreedyPolicy)
            .unwrap()
            .run_with(&opts(Driver::TickStepped, &d_ts))
            .unwrap();
        assert_eq!(a.metrics, b.metrics);
        let names = |d: &std::path::Path| {
            let mut v: Vec<String> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            v.sort();
            v
        };
        let (na, nb) = (names(&d_ev), names(&d_ts));
        assert!(!na.is_empty(), "run should have produced checkpoints");
        assert_eq!(na, nb, "both drivers checkpoint at the same clocks");
        for n in &na {
            assert!(!n.ends_with(".tmp"), "temp file {n} leaked");
            assert_eq!(
                std::fs::read(d_ev.join(n)).unwrap(),
                std::fs::read(d_ts.join(n)).unwrap(),
                "checkpoint {n} differs across drivers"
            );
        }
    }

    #[test]
    fn resume_from_periodic_checkpoint_matches_uninterrupted_run() {
        let p = fault_params();
        let base = Simulation::new(p.clone(), FixedSource, GreedyPolicy)
            .unwrap()
            .run();
        let dir = temp_dir("resume-periodic");
        let _ = Simulation::new(p, FixedSource, GreedyPolicy)
            .unwrap()
            .run_with(&RunOptions {
                checkpoint_every: Some(300),
                checkpoint_dir: Some(dir.clone()),
                audit_every: Some(100),
                ..RunOptions::default()
            })
            .unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        // Resume from every checkpoint the run dropped; each must land on
        // the identical final report.
        assert!(!names.is_empty());
        for n in &names {
            let cp = read_checkpoint(&dir.join(n)).unwrap();
            let resumed = Simulation::resume(cp, FixedSource, GreedyPolicy)
                .unwrap()
                .run();
            assert_eq!(base.metrics, resumed.metrics, "divergence from {n}");
            assert_eq!(base.report.to_xml(), resumed.report.to_xml());
        }
    }

    #[test]
    fn resume_rejects_a_created_count_that_disagrees_with_the_table() {
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, 200);
        let cp = sim.checkpoint();
        let len = cp.tasks.len();
        assert_eq!(cp.created, len as u64, "a real run keeps them equal");
        assert!(Simulation::resume(cp.clone(), FixedSource, GreedyPolicy).is_ok());
        for created in [0, 100_000] {
            let mut bad = cp.clone();
            bad.created = created;
            match Simulation::resume(bad, FixedSource, GreedyPolicy).err() {
                Some(CheckpointError::State(msg)) => assert!(
                    msg.contains(&format!("created count {created}"))
                        && msg.contains(&format!("{len} tasks")),
                    "created {created}: got {msg}"
                ),
                other => panic!("created {created}: expected a state error, got {other:?}"),
            }
        }
    }

    #[test]
    fn resume_rejects_mismatched_policy_and_source() {
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, 100);
        let cp = sim.checkpoint();
        match Simulation::resume(cp.clone(), FixedSource, AlwaysSuspendPolicy).err() {
            Some(CheckpointError::State(msg)) => {
                assert!(msg.contains("policy mismatch"), "got: {msg}");
            }
            other => panic!("expected policy mismatch, got {other:?}"),
        }
        // Same policy resumes fine.
        assert!(Simulation::resume(cp, FixedSource, GreedyPolicy).is_ok());
    }

    #[test]
    fn audit_catches_compensated_slot_area_corruption() {
        // Grow an idle slot's area and the node's total area together:
        // Eq. 4 still balances and the busy area is unchanged, so the
        // store's own checker passes — only the auditor's cross-check
        // against the configuration table sees it. (On a busy slot the
        // store's busy-area check would catch it first.)
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        let (victim, slot) = drive_to_idle_slot(&mut sim);
        let nodes = sim.state.resources.node_store();
        let area = nodes.slot(victim.index(), slot).unwrap().area;
        let total = nodes.total_area(victim.index());
        sim.state
            .resources
            .debug_set_slot_area(victim, slot, area + 1);
        sim.state.resources.debug_set_total_area(victim, total + 1);
        assert!(
            sim.state.resources.check_invariants().is_ok(),
            "compensated corruption must evade the store's own checker"
        );
        match sim.audit() {
            Err(AuditError::SlotArea {
                node,
                slot_area,
                config_area,
                ..
            }) => {
                assert_eq!(node, victim);
                assert_ne!(slot_area, config_area);
            }
            other => panic!("expected SlotArea, got {other:?}"),
        }
    }

    #[test]
    fn audit_catches_store_list_corruption() {
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        // Park a task id on an idle slot without moving it to the busy
        // list: flags and lists now disagree.
        let victim = drive_to_idle_slot(&mut sim);
        sim.state
            .resources
            .debug_set_slot_task(victim.0, victim.1, Some(TaskId(0)));
        match sim.audit() {
            Err(AuditError::Store { detail }) => {
                assert!(!detail.is_empty());
            }
            other => panic!("expected Store, got {other:?}"),
        }
    }

    #[test]
    fn audit_catches_task_state_slot_mismatch() {
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, 200);
        let running = sim
            .state
            .tasks
            .iter()
            .find(|t| t.state == TaskState::Running)
            .map(|t| t.id)
            .expect("a running task exists by t=200");
        sim.state.tasks.set_state(running, TaskState::Completed);
        match sim.audit() {
            Err(AuditError::TaskSlot { task, .. }) => assert_eq!(task, running),
            other => panic!("expected TaskSlot, got {other:?}"),
        }
    }

    #[test]
    fn audit_catches_bogus_event_target() {
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, 200);
        sim.state.events.push(
            sim.state.clock + 5,
            Event::TaskArrival {
                task: TaskId(9_999),
            },
        );
        match sim.audit() {
            Err(AuditError::EventTarget { detail, .. }) => {
                assert!(detail.contains("9999"), "got: {detail}");
            }
            other => panic!("expected EventTarget, got {other:?}"),
        }
    }

    /// After finished rows retire, an event that names a retired task
    /// is stale, so the audit accepts a completion, failure, retry or
    /// timeout naming one; an arrival, a slot or a queue entry naming
    /// one is a violation.
    #[test]
    fn audit_reads_retired_ids_as_finished() {
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, 400);
        assert!(
            sim.state.tasks.retire_finished() > 0,
            "nothing finished by 400"
        );
        sim.audit().unwrap();
        let retired = TaskId(sim.state.tasks.first().0 - 1);
        let due = sim.state.clock + 5;
        let entry = EntryRef::new(NodeId(0), 0);
        for stale in [
            Event::TaskCompletion {
                task: retired,
                entry,
                started_at: 0,
            },
            Event::TaskFailed {
                task: retired,
                entry,
                started_at: 0,
            },
            Event::ReconfigFailed { task: retired },
            Event::SuspensionTimeout {
                task: retired,
                enqueued_at: 0,
            },
        ] {
            let mut with_stale = sim.checkpoint();
            with_stale.events.push(due, stale);
            crate::audit::check(
                &with_stale.resources,
                &with_stale.tasks,
                &with_stale.events,
                &with_stale.suspension,
                with_stale.clock,
                0,
            )
            .unwrap_or_else(|e| panic!("{stale:?} is stale, got {e}"));
        }
        // The handlers drop the same events.
        let before = sim.checkpoint();
        sim.handle_completion(retired, entry, 0);
        sim.handle_reconfig_retry(retired);
        sim.handle_suspension_timeout(retired, 0);
        assert!(
            serde_json::to_string(&sim.checkpoint()).unwrap()
                == serde_json::to_string(&before).unwrap(),
            "a stale event changed the state"
        );

        let mut arrival = sim.checkpoint();
        arrival
            .events
            .push(due, Event::TaskArrival { task: retired });
        let mut queued = sim.checkpoint();
        queued
            .suspension
            .push(retired, None, &mut StepCounter::new());
        let mut slot = sim.checkpoint();
        let busy = (0..slot.resources.num_nodes())
            .find_map(|i| {
                let store = slot.resources.node_store();
                store
                    .slots(i)
                    .find(|(_, s)| s.task.is_some())
                    .map(|(s, _)| (NodeId::from_index(i), s))
            })
            .expect("a running slot at 400");
        slot.resources
            .debug_set_slot_task(busy.0, busy.1, Some(retired));
        for (what, cp) in [("arrival", arrival), ("queue", queued), ("slot", slot)] {
            let err = crate::audit::check(
                &cp.resources,
                &cp.tasks,
                &cp.events,
                &cp.suspension,
                cp.clock,
                0,
            )
            .expect_err(what)
            .to_string();
            assert!(err.contains(&format!("retired {retired}")), "{what}: {err}");
        }
    }

    #[test]
    fn audit_catches_stray_suspension_entry() {
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, 200);
        // Queue a task that is not in Suspended state.
        let not_suspended = sim
            .state
            .tasks
            .iter()
            .find(|t| t.state != TaskState::Suspended)
            .map(|t| t.id)
            .unwrap();
        let resolved = sim.state.tasks.resolved_config(not_suspended);
        sim.state
            .suspension
            .push(not_suspended, resolved, &mut sim.state.steps);
        assert!(matches!(sim.audit(), Err(AuditError::Suspension { .. })));
    }

    #[test]
    fn audit_catches_a_corrupted_suspension_index() {
        let mut sim = Simulation::new(small_params(), FixedSource, AlwaysSuspendPolicy).unwrap();
        drive_until(&mut sim, 200);
        assert!(sim.state.suspension.len() >= 2, "two queued tasks by 200");
        sim.audit().unwrap();
        // The second entry's stamp no longer rises above the first's.
        sim.state.suspension.debug_set_stamp(1, 0);
        match sim.audit() {
            Err(AuditError::Suspension { detail }) => assert!(
                detail.contains("entry 1 has stamp 0, not above"),
                "got: {detail}"
            ),
            other => panic!("expected a suspension error, got {other:?}"),
        }
    }

    #[test]
    fn run_with_audit_aborts_on_corrupted_store() {
        // End-to-end: a run under --audit must stop with a typed error
        // (not a panic, not a silently wrong report) when state is
        // corrupted mid-run.
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        let victim = drive_to_idle_slot(&mut sim);
        sim.state
            .resources
            .debug_set_slot_task(victim.0, victim.1, Some(TaskId(0)));
        let opts = RunOptions {
            audit: true,
            ..RunOptions::default()
        };
        match sim.run_with(&opts) {
            Err(RunError::Audit(_)) => {}
            other => panic!("expected audit abort, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_checkpoint_files_are_rejected() {
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, 100);
        let dir = temp_dir("file-errors");
        let path = dir.join("good.dsc");
        write_checkpoint(&path, &sim.checkpoint()).unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        let (header, payload) = raw.split_once('\n').unwrap();

        // Flipped payload byte → CRC mismatch.
        let mut flipped = payload.to_string().into_bytes();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        let bad = dir.join("flipped.dsc");
        std::fs::write(&bad, [header.as_bytes(), b"\n", &flipped].concat()).unwrap();
        assert!(matches!(
            read_checkpoint(&bad),
            Err(CheckpointError::Crc { .. })
        ));

        // Garbage header → format error.
        let bad = dir.join("garbage.dsc");
        std::fs::write(&bad, format!("NOT-A-CHECKPOINT\n{payload}")).unwrap();
        assert!(matches!(
            read_checkpoint(&bad),
            Err(CheckpointError::Format(_))
        ));

        // Future version → version error (checked before the CRC).
        let current = format!(" {} ", checkpoint::FORMAT_VERSION);
        let future = checkpoint::FORMAT_VERSION + 1;
        let bumped = header.replacen(&current, &format!(" {future} "), 1);
        assert_ne!(bumped, header, "header should contain the version");
        let bad = dir.join("future.dsc");
        std::fs::write(&bad, format!("{bumped}\n{payload}")).unwrap();
        assert!(matches!(
            read_checkpoint(&bad),
            Err(CheckpointError::Version { found }) if found == future
        ));

        // Version 0 predates the format → version error too.
        let ancient = header.replacen(&current, " 0 ", 1);
        let bad = dir.join("ancient.dsc");
        std::fs::write(&bad, format!("{ancient}\n{payload}")).unwrap();
        assert!(matches!(
            read_checkpoint(&bad),
            Err(CheckpointError::Version { found: 0 })
        ));

        // Truncated payload → CRC mismatch, not a panic.
        let bad = dir.join("truncated.dsc");
        std::fs::write(&bad, &raw[..raw.len() / 2]).unwrap();
        assert!(matches!(
            read_checkpoint(&bad),
            Err(CheckpointError::Crc { .. }) | Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn checkpoint_loader_survives_fuzzed_input() {
        // Mechanical fuzz of the on-disk format: truncate the file at
        // many lengths, flip single bits across the whole byte range,
        // and feed a batch of hand-crafted malformed headers. Every
        // variant must come back as a typed `CheckpointError` — never a
        // panic, never a silent `Ok`.
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, 150);
        let dir = temp_dir("fuzz");
        let good = dir.join("good.dsc");
        write_checkpoint(&good, &sim.checkpoint()).unwrap();
        let raw = std::fs::read(&good).unwrap();
        assert!(read_checkpoint(&good).is_ok(), "baseline must load");

        let case = dir.join("case.dsc");
        // Truncations: every prefix of the header region, then evenly
        // spaced cuts through the payload (a full sweep would be O(n²)
        // in file size for no extra coverage).
        let stride = (raw.len() / 97).max(1);
        let lengths = (0..raw.len().min(64)).chain((64..raw.len()).step_by(stride));
        for len in lengths {
            std::fs::write(&case, &raw[..len]).unwrap();
            assert!(
                read_checkpoint(&case).is_err(),
                "truncation to {len} bytes must be rejected"
            );
        }
        // Single-bit flips sweeping header and payload. A flip in the
        // header line may land as a mangled header (Format/Version) or a
        // checksum mismatch; a flip anywhere in the payload — even one
        // that breaks UTF-8 — must be reported as a CRC mismatch, since
        // the checksum runs on raw bytes before any decoding.
        let payload_start = raw.iter().position(|&b| b == b'\n').unwrap() + 1;
        for pos in (0..raw.len()).step_by(stride) {
            for bit in 0..8 {
                let mut bytes = raw.clone();
                bytes[pos] ^= 1 << bit;
                std::fs::write(&case, &bytes).unwrap();
                let result = read_checkpoint(&case);
                if pos >= payload_start {
                    assert!(
                        matches!(result, Err(CheckpointError::Crc { .. })),
                        "payload bit flip at byte {pos} bit {bit} must be a CRC \
                         mismatch, got {:?}",
                        result.err()
                    );
                } else {
                    assert!(
                        result.is_err(),
                        "header bit flip at byte {pos} bit {bit} must be rejected"
                    );
                }
            }
        }
        // The bytes the service drill writes (`\xff` two bytes from the
        // end) are invalid UTF-8: still a CRC mismatch, not an I/O error.
        let mut bytes = raw.clone();
        let at = bytes.len() - 2;
        bytes[at] = 0xff;
        std::fs::write(&case, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&case),
            Err(CheckpointError::Crc { .. })
        ));
        // Hand-crafted malformed files.
        let malformed: &[&[u8]] = &[
            b"",
            b"\n",
            b"DREAMSIM-CHECKPOINT",
            b"DREAMSIM-CHECKPOINT\n{}",
            b"DREAMSIM-CHECKPOINT 1\n{}",
            b"DREAMSIM-CHECKPOINT one 00000000\n{}",
            b"DREAMSIM-CHECKPOINT 99999999999999999999 00000000\n{}",
            b"DREAMSIM-CHECKPOINT 1 zzzzzzzz\n{}",
            b"\x00\xff\x00\xff\n\x00\xff",
        ];
        for (i, bytes) in malformed.iter().enumerate() {
            std::fs::write(&case, bytes).unwrap();
            assert!(
                read_checkpoint(&case).is_err(),
                "malformed case {i} must be rejected"
            );
        }
        // A well-formed header whose CRC genuinely matches a payload of
        // the wrong shape: must fail at JSON decoding, not load.
        let payload = br#"{"not":"a checkpoint"}"#;
        let forged = format!(
            "DREAMSIM-CHECKPOINT {} {:08x}\n{}",
            crate::checkpoint::FORMAT_VERSION,
            crate::checkpoint::crc32(payload),
            std::str::from_utf8(payload).unwrap()
        );
        std::fs::write(&case, forged).unwrap();
        assert!(matches!(
            read_checkpoint(&case),
            Err(CheckpointError::Format(_))
        ));
    }

    /// A CRC-valid payload of every serialized shape this fixture
    /// reaches: faults and partition domains with a scripted outage.
    fn fuzz_base_payload() -> String {
        let mut p = fault_params();
        p.domains = Some(DomainParams {
            count: 2,
            mttf: Some(300),
            mttr: 50,
            kind: DomainOutageKind::Partition,
            scripted: vec![ScriptedOutage {
                domain: 0,
                at: 60,
                duration: 100,
            }],
        });
        let mut sim = Simulation::new(p, FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, 150);
        serde_json::to_string(&sim.checkpoint()).unwrap()
    }

    /// Replace one JSON token of `v`, picked by `rng`: a number becomes
    /// 2^64, negative, a float or a string; a string (or a `null`, a
    /// bool or an empty container) becomes a number; an array loses an
    /// element or is cut short; an object loses a member. The new token
    /// is a marker string in the tree, and the returned text is what
    /// replaces it in the rendered payload.
    fn mutate_one_token(v: &mut serde::Value, rng: &mut Rng) -> (String, Option<String>) {
        use serde::Value;
        const MARKER: &str = "@@fuzz@@";
        fn count(v: &Value) -> usize {
            1 + match v {
                Value::Array(items) => items.iter().map(count).sum(),
                Value::Object(fields) => fields.iter().map(|(_, x)| count(x)).sum(),
                _ => 0,
            }
        }
        /// The `target`-th value of `v` in pre-order.
        fn nth<'a>(v: &'a mut Value, target: &mut usize) -> Option<&'a mut Value> {
            if *target == 0 {
                return Some(v);
            }
            *target -= 1;
            match v {
                Value::Array(items) => items.iter_mut().find_map(|x| nth(x, target)),
                Value::Object(fields) => fields.iter_mut().find_map(|(_, x)| nth(x, target)),
                _ => None,
            }
        }
        let mut target = rng.index(count(v));
        let site = nth(v, &mut target).expect("a value in range");
        let text = match site {
            Value::Number(n) => {
                let n = n.as_u64().unwrap_or(7);
                match rng.index(4) {
                    0 => "18446744073709551616".to_string(),
                    1 => format!("-{n}1"),
                    2 => format!("{n}.5"),
                    _ => format!("\"{n}\""),
                }
            }
            Value::Array(items) if !items.is_empty() => {
                let len = items.len();
                if rng.index(2) == 0 {
                    let gone = rng.index(len);
                    items.remove(gone);
                    return (format!("array element {gone} of {len} deleted"), None);
                }
                let keep = rng.index(len);
                items.truncate(keep);
                return (format!("array cut from {len} to {keep}"), None);
            }
            Value::Object(fields) if !fields.is_empty() => {
                let (key, _) = fields.remove(rng.index(fields.len()));
                return (format!("member {key:?} deleted"), None);
            }
            _ => "3".to_string(),
        };
        let what = format!("{} became {text}", serde_json::to_string(site).unwrap());
        *site = Value::String(MARKER.to_string());
        (what, Some(text))
    }

    /// Mutate one token of a valid payload per case, re-stamp the CRC,
    /// and load it: `read_checkpoint` then `resume` must return, `Ok` or
    /// a typed error, and never panic or overflow.
    fn fuzz_decoder(seed: u64, cases: usize) {
        let payload = fuzz_base_payload();
        let tree: serde::Value = serde_json::from_str(&payload).unwrap();
        let dir = temp_dir(&format!("token-fuzz-{seed}"));
        let path = dir.join("case.dsc");
        let mut rng = Rng::seed_from(seed);
        let mut rejected = 0;
        for case in 0..cases {
            let mut v = tree.clone();
            let (what, text) = mutate_one_token(&mut v, &mut rng);
            let mut mutated = serde_json::to_string(&v).unwrap();
            if let Some(text) = text {
                mutated = mutated.replacen("\"@@fuzz@@\"", &text, 1);
            }
            let header = format!(
                "DREAMSIM-CHECKPOINT {} {:08x}\n",
                checkpoint::FORMAT_VERSION,
                checkpoint::crc32(mutated.as_bytes())
            );
            std::fs::write(&path, header + &mutated).unwrap();
            let outcome = std::panic::catch_unwind(|| {
                read_checkpoint(&path)
                    .and_then(|cp| Simulation::resume(cp, FixedSource, GreedyPolicy).map(|_| ()))
            });
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(_)) => rejected += 1,
                Err(_) => panic!("seed {seed} case {case}: {what}: the loader panicked"),
            }
        }
        assert!(
            rejected > cases / 2,
            "seed {seed}: only {rejected} of {cases} mutations were rejected"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_decoder_survives_token_mutations() {
        fuzz_decoder(0xF022, 300);
    }

    #[test]
    #[ignore = "a larger fixed-seed sweep; CI runs it by name"]
    fn checkpoint_decoder_survives_token_mutations_sweep() {
        for seed in 1..=8 {
            fuzz_decoder(seed, 1_000);
        }
    }

    /// A payload whose node table fills every column: down nodes, holes
    /// on free stacks, busy and idle slots, lists, and strips.
    fn node_fuzz_base_payload() -> serde::Value {
        let mut p = fault_params();
        p.placement = crate::params::PlacementModel::Contiguous;
        let mut sim = Simulation::new(p, FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, 150);
        let v = serde_json::to_value(&sim.checkpoint()).unwrap();
        let cols = node_columns(&v);
        for (c, what) in [
            (col::DOWN, "down nodes"),
            (col::SLOT_TASK, "live slots"),
            (col::FREE, "holes"),
            (col::REGIONS, "strip regions"),
            (col::LIST_ENTRIES, "list entries"),
        ] {
            assert!(!cols[c].is_empty(), "the fuzz base holds {what}");
        }
        v
    }

    /// Mutate the packed node columns of a valid payload at the byte
    /// level, one mutation per case — flip one to four bits, cut the
    /// stream short, or splice in an oversized or a huge varint — then
    /// re-stamp the CRC and load it: `read_checkpoint` then `resume` must
    /// return, `Ok` or a typed error, and never panic or overflow.
    fn fuzz_node_columns(seed: u64, cases: usize) {
        let tree = node_fuzz_base_payload();
        let packed = tree["resources"]["nodes"]["packed"].as_str().unwrap();
        let bytes = pack::from_base64(packed).unwrap();
        let dir = temp_dir(&format!("node-fuzz-{seed}"));
        let path = dir.join("case.dsc");
        let mut rng = Rng::seed_from(seed);
        let mut rejected = 0;
        for case in 0..cases {
            let mut b = bytes.clone();
            let what = match rng.index(4) {
                0 => {
                    let flips = 1 + rng.index(4);
                    for _ in 0..flips {
                        let at = rng.index(b.len());
                        b[at] ^= 1 << rng.index(8);
                    }
                    format!("{flips} bits flipped")
                }
                1 => {
                    let keep = rng.index(b.len());
                    b.truncate(keep);
                    format!("cut to {keep} of {} bytes", bytes.len())
                }
                2 => {
                    let (at, len) = (rng.index(b.len() + 1), 10 + rng.index(12));
                    let varint = std::iter::repeat_n(0xff, len - 1).chain([0x01]);
                    b.splice(at..at, varint);
                    format!("a {len}-byte varint spliced in at byte {at}")
                }
                _ => {
                    let (at, value) = (rng.index(b.len() + 1), rng.rand_int64() | 1 << 32);
                    let mut varint = Vec::new();
                    pack::put_u64(&mut varint, value);
                    b.splice(at..at, varint);
                    format!("{value} spliced in at byte {at}")
                }
            };
            let mut v = tree.clone();
            *at(&mut v, &["resources", "nodes", "packed"]) =
                serde::Value::String(pack::to_base64(&b));
            write_payload(&path, &v);
            let outcome = std::panic::catch_unwind(|| {
                read_checkpoint(&path)
                    .and_then(|cp| Simulation::resume(cp, FixedSource, GreedyPolicy).map(|_| ()))
            });
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(_)) => rejected += 1,
                Err(_) => panic!("seed {seed} case {case}: {what}: the loader panicked"),
            }
        }
        assert!(
            rejected > cases / 2,
            "seed {seed}: only {rejected} of {cases} mutations were rejected"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn node_column_decoder_survives_byte_mutations() {
        fuzz_node_columns(0xC01, 300);
    }

    #[test]
    #[ignore = "a larger fixed-seed sweep; CI runs it by name"]
    fn node_column_decoder_survives_byte_mutations_sweep() {
        for seed in 1..=8 {
            fuzz_node_columns(seed, 1_000);
        }
    }

    #[test]
    fn audit_catches_duplicated_task_across_slots() {
        // Break the task⇔slot bijection from the slot side: one running
        // task id claimed by a second slot on another node.
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        let (running, spare) = drive_find(&mut sim, |s| {
            let running = find_slot(s, |_, _, view| view.task)?;
            Some((running, idle_slot(s)?))
        });
        sim.state
            .resources
            .debug_set_slot_task(spare.0, spare.1, Some(running));
        match sim.audit() {
            Err(AuditError::Store { .. } | AuditError::TaskSlot { .. }) => {}
            other => panic!("expected a bijection violation, got {other:?}"),
        }
    }

    /// Write `payload` to `path` as a checkpoint whose header carries a
    /// valid CRC, as a hand-edited file would be re-stamped.
    fn write_payload(path: &std::path::Path, payload: &serde::Value) {
        let payload = serde_json::to_string(payload).unwrap();
        let header = format!(
            "DREAMSIM-CHECKPOINT {} {:08x}\n",
            checkpoint::FORMAT_VERSION,
            checkpoint::crc32(payload.as_bytes())
        );
        std::fs::write(path, header + &payload).unwrap();
    }

    /// The value at `path` in a JSON document; numeric segments index
    /// arrays.
    fn at<'a>(mut v: &'a mut serde::Value, path: &[&str]) -> &'a mut serde::Value {
        for seg in path {
            v = match v {
                serde::Value::Object(fields) => {
                    let found = fields.iter_mut().find(|(k, _)| k == seg);
                    &mut found.unwrap_or_else(|| panic!("no member {seg}")).1
                }
                serde::Value::Array(items) => &mut items[seg.parse::<usize>().unwrap()],
                other => panic!("{seg}: not a container: {other:?}"),
            };
        }
        v
    }

    /// The node columns of a checkpoint payload's `resources.nodes`,
    /// in order (DESIGN.md §18.4): each column is its length, then that
    /// many varints, so this reads any layout without knowing it.
    fn node_columns(payload: &serde::Value) -> Vec<Vec<u64>> {
        let packed = payload["resources"]["nodes"]["packed"].as_str().unwrap();
        let bytes = pack::from_base64(packed).unwrap();
        let (mut pos, mut cols) = (0, Vec::new());
        let next = |pos: &mut usize| u64::try_from(pack::get_varint(&bytes, pos).unwrap());
        while pos < bytes.len() {
            let len = next(&mut pos).unwrap();
            cols.push((0..len).map(|_| next(&mut pos).unwrap()).collect());
        }
        assert_eq!(cols.len(), col::COUNT, "the v3 node table has 16 columns");
        cols
    }

    /// `payload` with its node columns replaced by `cols`: the helper
    /// that decodes, edits and re-encodes the packed node table.
    fn with_node_columns(payload: &serde::Value, cols: &[Vec<u64>]) -> serde::Value {
        let mut bytes = Vec::new();
        for c in cols {
            pack::put_u64(&mut bytes, c.len() as u64);
            for &v in c {
                pack::put_u64(&mut bytes, v);
            }
        }
        let mut v = payload.clone();
        *at(&mut v, &["resources", "nodes", "packed"]) =
            serde::Value::String(pack::to_base64(&bytes));
        v
    }

    /// Column indices of the v3 node table.
    mod col {
        pub const TOTAL_AREA: usize = 0;
        pub const FAMILY: usize = 2;
        pub const CAPS: usize = 3;
        pub const RECONFIG: usize = 4;
        pub const DOWN: usize = 5;
        pub const PLACEMENT: usize = 6;
        pub const SLAB_LEN: usize = 7;
        pub const SLOT_CONFIG: usize = 8;
        pub const SLOT_AREA: usize = 9;
        pub const SLOT_TASK: usize = 10;
        pub const FREE: usize = 11;
        pub const STRIP_REGIONS: usize = 12;
        pub const REGIONS: usize = 13;
        pub const LIST_LEN: usize = 14;
        pub const LIST_ENTRIES: usize = 15;
        pub const COUNT: usize = 16;
    }

    /// Append `slots` to the slab of node `n`: `None` a hole (with a
    /// placeholder free entry), `Some((config, area, task))` a live slot.
    /// Returns the positions of the new free entries in the free column.
    fn grow_slab(cols: &mut [Vec<u64>], n: usize, slots: &[Option<(u64, u64, u64)>]) -> Vec<usize> {
        let slab_start: u64 = cols[col::SLAB_LEN][..n].iter().sum();
        let slab_end = (slab_start + cols[col::SLAB_LEN][n]) as usize;
        let live_before = |cols: &[Vec<u64>], end: usize| {
            cols[col::SLOT_CONFIG][..end]
                .iter()
                .filter(|&&c| c != 0)
                .count()
        };
        let (mut live_at, mut free_at) = (
            live_before(cols, slab_end),
            slab_end - live_before(cols, slab_end),
        );
        let mut holes = Vec::new();
        for (k, slot) in slots.iter().enumerate() {
            let index = cols[col::SLAB_LEN][n];
            cols[col::SLAB_LEN][n] += 1;
            cols[col::SLOT_CONFIG].insert(slab_end + k, slot.map_or(0, |(c, _, _)| c + 1));
            match *slot {
                None => {
                    cols[col::FREE].insert(free_at, index);
                    holes.push(free_at);
                    free_at += 1;
                }
                Some((_, area, task)) => {
                    cols[col::SLOT_AREA].insert(live_at, area);
                    cols[col::SLOT_TASK].insert(live_at, task);
                    live_at += 1;
                }
            }
        }
        holes
    }

    #[test]
    fn malformed_list_fields_are_typed_checkpoint_errors() {
        // CRC-valid checkpoints whose node columns, list columns, free
        // slots, configuration ids or area sums do not describe a store:
        // each must come back as a typed error, never a panic or an
        // overflow.
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, 200);
        let dir = temp_dir("malformed-lists");
        let path = dir.join("case.dsc");
        write_checkpoint(&path, &sim.checkpoint()).unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        let good: serde::Value = serde_json::from_str(raw.split_once('\n').unwrap().1).unwrap();
        let load = |payload: &serde::Value| {
            write_payload(&path, payload);
            read_checkpoint(&path)
                .and_then(|cp| Simulation::resume(cp, FixedSource, GreedyPolicy).map(|_| ()))
        };
        assert!(load(&good).is_ok(), "the untouched payload must load");
        assert!(good["resources"]["configs"].as_array().unwrap().len() > 3);
        let cols = node_columns(&good);
        assert_eq!(
            with_node_columns(&good, &cols),
            good,
            "the helper round-trips"
        );
        let edited = |edit: &dyn Fn(&mut serde::Value)| {
            let mut v = good.clone();
            edit(&mut v);
            v
        };
        let columns = |edit: &dyn Fn(&mut Vec<Vec<u64>>)| {
            let mut c = cols.clone();
            edit(&mut c);
            with_node_columns(&good, &c)
        };
        let number = |n: u64| serde::Value::Number(serde::Number::U(n));
        // The first list with an entry, its offset in the entry column,
        // and its head (newest) entry's node and slot.
        let lens = &cols[col::LIST_LEN];
        let list = lens.iter().position(|&l| l > 0).expect("a non-empty list");
        let first = 2 * lens[..list].iter().sum::<u64>() as usize;
        let head = first + 2 * (lens[list] as usize - 1);
        let (node, slot) = (
            cols[col::LIST_ENTRIES][head],
            cols[col::LIST_ENTRIES][head + 1],
        );
        let n = node as usize;
        let nodes = cols[col::TOTAL_AREA].len();
        let configured: Vec<usize> = (0..nodes).filter(|&i| cols[col::RECONFIG][i] > 0).collect();
        assert!(configured.len() >= 4, "four configured nodes to edit");
        let last_entry = cols[col::LIST_ENTRIES].len() - 2;
        let decode_errors = [
            (
                "three idle and three busy lists",
                columns(&|c| {
                    c[col::LIST_LEN] = vec![0; 6];
                    c[col::LIST_ENTRIES].clear();
                }),
            ),
            ("one list too many", columns(&|c| c[col::LIST_LEN].push(0))),
            (
                "a head naming node 999999",
                columns(&|c| c[col::LIST_ENTRIES][head] = 999_999),
            ),
            (
                "a head naming slot 99 of its node",
                columns(&|c| c[col::LIST_ENTRIES][head + 1] = 99),
            ),
            (
                "an entry naming node 888888",
                columns(&|c| c[col::LIST_ENTRIES][last_entry] = 888_888),
            ),
            (
                "a free entry naming slot 99",
                columns(&|c| {
                    let at = grow_slab(c, n, &[None]);
                    c[col::FREE][at[0]] = 99;
                }),
            ),
            (
                "a free entry naming a live slot",
                columns(&|c| {
                    let at = grow_slab(c, n, &[None]);
                    c[col::FREE][at[0]] = slot;
                }),
            ),
            (
                "a hole listed twice as free",
                columns(&|c| {
                    let at = grow_slab(c, n, &[None, None]);
                    c[col::FREE][at[1]] = c[col::FREE][at[0]];
                }),
            ),
            (
                "a configuration id out of range",
                edited(&|v| *at(v, &["resources", "configs", "0", "id"]) = number(999)),
            ),
            (
                "a configuration wider than MAX_AREA",
                edited(&|v| {
                    *at(v, &["resources", "configs", "0", "req_area"]) = number(MAX_AREA + 1);
                }),
            ),
            (
                "four configured nodes with 2^62 more total area",
                columns(&|c| {
                    for &i in &configured[..4] {
                        c[col::TOTAL_AREA][i] += 1 << 62;
                    }
                }),
            ),
            (
                "two nodes reconfigured 2^63 times",
                columns(&|c| {
                    for &i in &configured[..2] {
                        c[col::RECONFIG][i] = 1 << 63;
                    }
                }),
            ),
            (
                "two busy slots of 2^63 area units",
                columns(&|c| {
                    grow_slab(c, n, &[Some((0, 1 << 63, 1)), Some((0, 1 << 63, 2))]);
                }),
            ),
            (
                "two idle slots of 2^63 area units",
                columns(&|c| {
                    grow_slab(c, n, &[Some((0, 1 << 63, 0)), Some((0, 1 << 63, 0))]);
                }),
            ),
            (
                "a strip region from 2^63 of width 2^63",
                columns(&|c| {
                    let rest = (nodes - n - 1) as u64;
                    let runs = [(0, n as u64), (1, 1), (0, rest)];
                    c[col::PLACEMENT] = runs
                        .iter()
                        .filter(|r| r.1 > 0)
                        .flat_map(|&(code, run)| [code, run])
                        .collect();
                    c[col::STRIP_REGIONS] = vec![1];
                    c[col::REGIONS] = vec![1 << 63, 1 << 63, slot];
                }),
            ),
            (
                "a strip region naming slot 99",
                columns(&|c| {
                    let rest = (nodes - n - 1) as u64;
                    let runs = [(0, n as u64), (1, 1), (0, rest)];
                    c[col::PLACEMENT] = runs
                        .iter()
                        .filter(|r| r.1 > 0)
                        .flat_map(|&(code, run)| [code, run])
                        .collect();
                    c[col::STRIP_REGIONS] = vec![1];
                    c[col::REGIONS] = vec![0, 1, 99];
                }),
            ),
            (
                "a node count one above the columns",
                edited(&|v| {
                    *at(v, &["resources", "nodes", "count"]) = number(nodes as u64 + 1);
                }),
            ),
            (
                "a family code no family owns",
                columns(&|c| c[col::FAMILY][n] = 4),
            ),
            (
                "a capability bit no capability owns",
                columns(&|c| c[col::CAPS][n] = 128),
            ),
            (
                "a down node past the table",
                columns(&|c| c[col::DOWN] = vec![nodes as u64]),
            ),
            (
                "a placement run past the table",
                columns(&|c| c[col::PLACEMENT] = vec![0, nodes as u64 + 1]),
            ),
            (
                "placement code 2, the retired best-fit strip",
                columns(&|c| c[col::PLACEMENT] = vec![2, nodes as u64]),
            ),
            (
                "a slab one slot longer than its configurations",
                columns(&|c| c[col::SLAB_LEN][n] += 1),
            ),
        ];
        for (what, payload) in &decode_errors {
            let result = load(payload);
            assert!(
                matches!(result, Err(CheckpointError::Format(_))),
                "{what}: expected a decode error, got {:?}",
                result.err()
            );
        }
        // A list naming one entry twice decodes; the restore audit
        // rejects it.
        match load(&columns(&|c| {
            c[col::LIST_LEN][list] += 1;
            c[col::LIST_ENTRIES].splice(first..first, [node, slot]);
        })) {
            Err(CheckpointError::State(msg)) => {
                assert!(msg.contains("more than one list"), "got: {msg}");
            }
            other => panic!("an entry listed twice: expected an audit error, got {other:?}"),
        }
        // A slot area above its node's total area decodes; the restore
        // audit finds Eq. 4 broken instead of wrapping.
        let live_before = cols[col::SLOT_CONFIG]
            [..cols[col::SLAB_LEN][..n].iter().sum::<u64>() as usize + slot as usize]
            .iter()
            .filter(|&&c| c != 0)
            .count();
        match load(&columns(&|c| c[col::SLOT_AREA][live_before] = 1 << 63)) {
            Err(CheckpointError::State(msg)) => assert!(msg.contains("Eq. 4"), "got: {msg}"),
            other => panic!("slots above the total area: expected an audit error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_task_configs_are_typed_checkpoint_errors() {
        // A CRC-valid checkpoint whose task rows name a configuration
        // the table does not have must fail the restore audit, not
        // panic later when a rescan indexes the table with the id.
        let mut sim = Simulation::new(small_params(), FixedSource, AlwaysSuspendPolicy).unwrap();
        drive_until(&mut sim, 200);
        let queued = sim.state.suspension.iter().next().expect("a queued task");
        let configs = sim.state.resources.num_configs();
        let dir = temp_dir("task-configs");
        let path = dir.join("case.dsc");
        let reload = |cp: &Checkpoint| {
            write_checkpoint(&path, cp).unwrap();
            let cp = read_checkpoint(&path).unwrap();
            Simulation::resume(cp, FixedSource, AlwaysSuspendPolicy).map(|_| ())
        };
        assert!(reload(&sim.checkpoint()).is_ok(), "the untouched state");
        // The first id past the table, and the largest a task column
        // holds (`u32::MAX` is its `None`), which resume must not size
        // the suspension queue's per-configuration index by.
        for bad in [ConfigId::from_index(configs), ConfigId(u32::MAX - 1)] {
            for field in ["resolved_config", "assigned_config"] {
                let mut cp = sim.checkpoint();
                if field == "resolved_config" {
                    cp.tasks.set_resolved_config(queued, Some(bad));
                } else {
                    cp.tasks.set_assigned_config(queued, Some(bad));
                }
                match reload(&cp) {
                    Err(CheckpointError::State(msg)) => assert!(
                        msg.contains(&format!("{queued} names a nonexistent configuration"))
                            && msg.contains(field),
                        "{field} {bad}: got {msg}"
                    ),
                    other => panic!("{field} {bad}: expected an audit error, got {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queued_configs_no_node_can_host_are_typed_checkpoint_errors() {
        // A CRC-valid checkpoint whose queued task resolves to a
        // configuration wider than every node could never place that
        // task, and a resumed run would retry it forever: the restore
        // audit must reject it. Nothing here runs a resumed simulation.
        let mut sim = Simulation::new(small_params(), FixedSource, AlwaysSuspendPolicy).unwrap();
        drive_until(&mut sim, 200);
        let queued = sim.state.suspension.iter().next().expect("a queued task");
        let nodes = sim.state.resources.node_store();
        let widest = (0..nodes.len()).map(|i| nodes.total_area(i)).max().unwrap();
        let mut cp = sim.checkpoint();
        cp.tasks.set_resolved_config(queued, Some(ConfigId(1)));
        let dir = temp_dir("unhostable");
        let path = dir.join("case.dsc");
        write_checkpoint(&path, &cp).unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        let good: serde::Value = serde_json::from_str(raw.split_once('\n').unwrap().1).unwrap();
        let load = |area: Area| {
            let mut v = good.clone();
            *at(&mut v, &["resources", "configs", "1", "req_area"]) =
                serde::Value::Number(serde::Number::U(area));
            write_payload(&path, &v);
            read_checkpoint(&path)
                .and_then(|cp| Simulation::resume(cp, FixedSource, AlwaysSuspendPolicy).map(|_| ()))
        };
        assert!(
            load(widest).is_ok(),
            "the widest node hosts {widest} area units"
        );
        match load(widest + 1) {
            Err(CheckpointError::State(msg)) => assert!(
                msg.contains(&format!(
                    "queued {queued} needs ConfigId(1) ({} area units",
                    widest + 1
                )) && msg.contains("which no node can host"),
                "got: {msg}"
            ),
            other => panic!("expected an audit error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_catches_config_column_drift() {
        // The config column must hold each queued task's resolved
        // configuration; a row rewritten behind the queue's back is a
        // violation.
        let mut sim = Simulation::new(small_params(), FixedSource, AlwaysSuspendPolicy).unwrap();
        drive_until(&mut sim, 200);
        assert!(sim.audit().is_ok());
        let queued = sim.state.suspension.iter().next().expect("a queued task");
        sim.state
            .tasks
            .set_resolved_config(queued, Some(ConfigId(1)));
        match sim.audit() {
            Err(AuditError::Suspension { detail }) => {
                assert!(detail.contains("config column"), "got: {detail}");
            }
            other => panic!("expected a suspension audit error, got {other:?}"),
        }
    }

    #[test]
    fn resume_audits_restored_state() {
        // A checkpoint doctored into an inconsistent state must be
        // rejected at resume, before any event is processed.
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        drive_until(&mut sim, 200);
        let mut cp = sim.checkpoint();
        // Corrupt the captured suspension queue: park a non-suspended
        // task.
        let not_suspended = cp
            .tasks
            .iter()
            .find(|t| t.state != TaskState::Suspended)
            .map(|t| t.id)
            .unwrap();
        let resolved = cp.tasks.resolved_config(not_suspended);
        cp.suspension
            .push(not_suspended, resolved, &mut StepCounter::new());
        match Simulation::resume(cp, FixedSource, GreedyPolicy).err() {
            Some(CheckpointError::State(msg)) => {
                assert!(msg.contains("audit"), "got: {msg}");
            }
            other => panic!("expected state rejection, got {other:?}"),
        }
    }

    // ---- open-system service mode ------------------------------------

    use crate::params::ServiceParams;
    use crate::service::{serve, ServiceError, ServiceOptions, WatchdogParams};

    fn service_params(horizon: u64) -> SimParams {
        let mut p = small_params();
        p.service = Some(ServiceParams {
            horizon,
            day_length: 0,
            amplitude_permille: 0,
            window: 50,
            window_retain: 4,
        });
        // The horizon bounds arrivals (inter-arrival times are at least
        // one tick), so this budget never binds within the window.
        p.total_tasks = horizon as usize + 1;
        p
    }

    fn service_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dreamsim-svc-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The snapshot hook serializes the live state in place: at every
    /// boundary of a fault-injected batch run and of a `serve` window,
    /// the file it writes holds exactly the bytes of
    /// `serde_json::to_string(&sim.checkpoint())`.
    #[test]
    fn snapshots_write_the_bytes_of_checkpoint() {
        let newest_payload = |dir: &std::path::Path| {
            let entries = crate::ring::scan_ring(dir).unwrap();
            let raw = std::fs::read_to_string(&entries.last().unwrap().path).unwrap();
            raw.split_once('\n').unwrap().1.to_string()
        };
        // Batch: every boundary of the run loop's interval, through the
        // hook the loop calls.
        let dir = temp_dir("snap-batch");
        let sink = SnapshotSink::Dir(dir.clone());
        let mut sim = Simulation::new(fault_params(), FixedSource, GreedyPolicy).unwrap();
        sim.prime();
        sim.primed = true;
        let mut every = Interval::new(0, 150);
        let mut written = 0;
        while let Some((t, ev)) = sim.state.events.pop() {
            sim.charge_idle_polls(t - sim.state.clock);
            sim.state.clock = t;
            sim.dispatch(ev);
            if every.due(sim.state.clock) {
                sim.snapshot(&sink).unwrap();
                let clock = sim.state.clock;
                let want = serde_json::to_string(&sim.checkpoint()).unwrap();
                assert!(newest_payload(&dir) == want, "batch snapshot at {clock}");
                written += 1;
            }
        }
        assert!(written >= 5, "only {written} batch boundaries");
        let _ = std::fs::remove_dir_all(&dir);
        // Serve: legs cut at each ring boundary, as a kill would cut them;
        // the last leg drains to the horizon snapshot.
        let dir = service_dir("snap-serve");
        let mut sim = Simulation::new(service_params(1_000), FixedSource, GreedyPolicy).unwrap();
        let every = 100;
        let mut leg = ServiceLegOptions {
            ring_dir: Some(dir.clone()),
            ring_every: every,
            ring_retain: 100,
            stop_at: Some(every),
            ..ServiceLegOptions::default()
        };
        let mut legs = 0;
        loop {
            let end = sim.run_service_leg(&leg, &mut None).unwrap();
            let clock = sim.clock();
            let want = serde_json::to_string(&sim.checkpoint()).unwrap();
            assert!(newest_payload(&dir) == want, "serve snapshot at {clock}");
            legs += 1;
            if end == ServiceLegEnd::Horizon {
                break;
            }
            leg.stop_at = Some((clock / every + 1) * every);
        }
        assert_eq!(legs, 10, "one snapshot per 100 ticks up to the horizon");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn service_leg_drains_at_the_horizon() {
        let mut sim = Simulation::new(service_params(500), FixedSource, GreedyPolicy).unwrap();
        let end = sim
            .run_service_leg(&ServiceLegOptions::default(), &mut None)
            .unwrap();
        assert_eq!(end, ServiceLegEnd::Horizon);
        assert_eq!(sim.clock(), 500);
        let res = sim.finish_service();
        assert!(res.metrics.total_tasks_generated > 0);
        assert_eq!(res.metrics.total_simulation_time, 500);
        assert_eq!(
            res.metrics.windows_closed, 10,
            "500 ticks / 50-tick buckets"
        );
        assert!(res.metrics.window_peak_arrivals > 0);
    }

    #[test]
    fn serve_fresh_start_reports_empty_recovery() {
        let dir = service_dir("fresh");
        let mut opts = ServiceOptions::new(&dir);
        opts.ring_every = 100;
        let out = serve(
            &service_params(400),
            |_| FixedSource,
            || GreedyPolicy,
            &opts,
        )
        .unwrap();
        assert!(out.recovery.fresh_start);
        assert_eq!(out.recovery.scanned, 0);
        assert!(!out.killed);
        assert_eq!(out.final_clock, 400);
        // The graceful drain snapshots the horizon state.
        let entries = crate::ring::scan_ring(&dir).unwrap();
        let clocks: Vec<Ticks> = entries.iter().map(|e| e.clock).collect();
        assert_eq!(clocks, vec![100, 200, 300, 400], "retention keeps all four");
        // The phase profile counts every ring write, the final drain
        // included, and the bytes each write reported — the file size.
        let profile = out.result.unwrap().profile;
        assert_eq!(profile.checkpoints_written, entries.len() as u64);
        let sizes: u64 = entries
            .iter()
            .map(|e| std::fs::metadata(&e.path).unwrap().len())
            .sum();
        assert_eq!(profile.checkpoint_bytes, sizes);
        let copy_dir = service_dir("fresh-copy");
        let newest = read_checkpoint(&entries[3].path).unwrap();
        let written = CheckpointRing::new(&copy_dir, 1).write(&newest).unwrap();
        assert_eq!(written, std::fs::metadata(&entries[3].path).unwrap().len());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&copy_dir);
    }

    #[test]
    fn killed_service_auto_recovers_byte_identical() {
        let params = service_params(600);
        let base_dir = service_dir("kill-base");
        let mut base_opts = ServiceOptions::new(&base_dir);
        base_opts.ring_every = 100;
        base_opts.ring_retain = 3;
        base_opts.audit_every = Some(100);
        let base = serve(&params, |_| FixedSource, || GreedyPolicy, &base_opts).unwrap();
        let base_xml = base.result.unwrap().report.to_xml();

        let kill_dir = service_dir("kill-ring");
        let mut kill_opts = ServiceOptions::new(&kill_dir);
        kill_opts.ring_every = 100;
        kill_opts.ring_retain = 3;
        kill_opts.stop_at = Some(300);
        let killed = serve(&params, |_| FixedSource, || GreedyPolicy, &kill_opts).unwrap();
        assert!(killed.killed);
        assert!(killed.result.is_none(), "a killed run has no final report");
        assert!(killed.final_clock >= 300);

        // Auto-recover on the same ring and drain to the horizon.
        kill_opts.stop_at = None;
        let recovered = serve(&params, |_| FixedSource, || GreedyPolicy, &kill_opts).unwrap();
        assert!(recovered.recovery.recovered_from.is_some());
        assert!(!recovered.recovery.fresh_start);
        assert_eq!(
            recovered.result.unwrap().report.to_xml(),
            base_xml,
            "kill-and-recover must reproduce the uninterrupted window byte for byte"
        );

        // Resuming an already-completed window is idempotent.
        let again = serve(&params, |_| FixedSource, || GreedyPolicy, &kill_opts).unwrap();
        assert_eq!(again.recovery.recovered_clock, Some(600));
        assert_eq!(again.result.unwrap().report.to_xml(), base_xml);
        let _ = std::fs::remove_dir_all(&base_dir);
        let _ = std::fs::remove_dir_all(&kill_dir);
    }

    #[test]
    fn recovery_falls_back_past_a_corrupted_newest_snapshot() {
        let params = service_params(600);
        let base_dir = service_dir("corrupt-base");
        let mut opts = ServiceOptions::new(&base_dir);
        opts.ring_every = 100;
        let base = serve(&params, |_| FixedSource, || GreedyPolicy, &opts).unwrap();
        let base_xml = base.result.unwrap().report.to_xml();

        let ring_dir = service_dir("corrupt-ring");
        let mut kill_opts = ServiceOptions::new(&ring_dir);
        kill_opts.ring_every = 100;
        kill_opts.stop_at = Some(300);
        serve(&params, |_| FixedSource, || GreedyPolicy, &kill_opts).unwrap();

        // Deliberately corrupt the newest snapshot's payload.
        let entries = crate::ring::scan_ring(&ring_dir).unwrap();
        let newest = entries.last().unwrap();
        let mut bytes = std::fs::read(&newest.path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        std::fs::write(&newest.path, bytes).unwrap();
        let newest_name = newest
            .path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .to_string();

        kill_opts.stop_at = None;
        let recovered = serve(&params, |_| FixedSource, || GreedyPolicy, &kill_opts).unwrap();
        assert_eq!(recovered.recovery.rejected.len(), 1);
        assert_eq!(recovered.recovery.rejected[0].file, newest_name);
        let from = recovered.recovery.recovered_from.clone().unwrap();
        assert!(from < newest_name, "fell back to an older snapshot");
        assert_eq!(
            recovered.result.unwrap().report.to_xml(),
            base_xml,
            "fallback recovery must still reproduce the uninterrupted window"
        );
        let _ = std::fs::remove_dir_all(&base_dir);
        let _ = std::fs::remove_dir_all(&ring_dir);
    }

    #[test]
    fn watchdog_exhaustion_is_a_typed_error() {
        let dir = service_dir("watchdog");
        let mut opts = ServiceOptions::new(&dir);
        opts.ring_every = 100;
        // A stall window this tight trips long before the first
        // completion (tasks run 100 ticks), on every deterministic
        // replay — so the bounded restarts must exhaust.
        opts.watchdog = Some(WatchdogParams {
            max_events_per_tick: 1_000,
            stall_window: 5,
            max_restarts: 1,
        });
        match serve(
            &service_params(600),
            |_| FixedSource,
            || GreedyPolicy,
            &opts,
        ) {
            Err(ServiceError::WatchdogExhausted { restarts, diag }) => {
                assert_eq!(restarts, 1);
                assert!(diag.stalled_for >= 5, "diag carries evidence: {diag}");
            }
            other => panic!("expected watchdog exhaustion, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
