//! # dreamsim-engine
//!
//! The DReAMSim core subsystem (Section III/IV of the paper): the
//! discrete-event clock, the job-submission machinery, statistics
//! accumulation for every Table I metric, and report generation (the
//! output subsystem's XML report plus JSON/CSV).
//!
//! The engine is policy-agnostic: scheduling policies implement
//! [`sim::SchedulePolicy`] (the paper's `Scheduler` class) and workload
//! generators implement [`sim::TaskSource`] (the input subsystem's
//! synthetic-task generation / real-workload feed). The concrete policies
//! live in `dreamsim-sched`, the generators in `dreamsim-workload`.
//!
//! ## Time model
//!
//! Time advances in integer *timeticks* (Eq. 5). The default driver is
//! event-driven: the clock jumps to the next scheduled event, which
//! produces identical traces to the paper's tick-by-tick loop because
//! nothing observable changes between events. A literal tick-stepped
//! driver ([`sim::Simulation::run_tick_stepped`]) is kept for
//! cross-validation (DESIGN.md ablation A4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod checkpoint;
pub mod compact;
pub mod event;
pub mod fault;
pub mod init;
pub mod monitor;
pub mod params;
pub mod profile;
pub mod report;
pub mod ring;
pub mod service;
pub mod sim;
pub mod stats;

pub use audit::AuditError;
pub use checkpoint::{
    read_checkpoint, write_checkpoint, write_checkpoint_compat_v1, Checkpoint, CheckpointError,
    FORMAT_VERSION, OLDEST_READABLE_VERSION,
};
pub use dreamsim_model::SearchBackend;
pub use event::{Event, EventQueue};
pub use fault::FaultModel;
pub use monitor::{NullObserver, Observer, RecordingMonitor};
pub use params::{
    AdmissionPolicy, ArrivalDistribution, BurstWindow, DomainOutageKind, DomainParams, FaultParams,
    ParamsError, PlacementModel, ReconfigMode, ScriptedOutage, ServiceParams, SimParams,
};
pub use profile::PhaseProfile;
pub use report::Report;
pub use ring::{scan_ring, CheckpointRing, RingEntry};
pub use service::{
    recover_from_ring, serve, RecoveryReport, RejectedSnapshot, ServiceError, ServiceLegEnd,
    ServiceLegOptions, ServiceOptions, ServiceOutcome, Watchdog, WatchdogCondition, WatchdogDiag,
    WatchdogParams,
};
pub use sim::{
    Decision, DiscardReason, PlacePhase, Placement, Resume, RunError, RunOptions, RunResult,
    SchedCtx, SchedulePolicy, SimScratch, Simulation, SourceYield, TaskSource, TaskSpec, TaskTable,
};
pub use stats::{
    Metrics, PhaseCounts, PhaseKind, Stats, StatsBackend, WaitSketch, WindowBucket, WindowStats,
};
