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
//! Time advances in integer *timeticks* (Eq. 5). A batch run has one
//! entry point, [`sim::Simulation::run_with`] (with
//! [`sim::Simulation::run`] as its all-defaults shorthand), and
//! [`sim::RunOptions`] picks its time loop once per run. The default
//! [`sim::Driver::Event`] jumps the clock to the next scheduled event,
//! which produces identical traces to the paper's tick-by-tick loop
//! because nothing observable changes between events; the literal
//! [`sim::Driver::TickStepped`] loop is kept for cross-validation
//! (DESIGN.md ablation A4). Batch checkpoints and service-ring
//! snapshots go through one engine hook, which audits before every
//! snapshot and counts each one in the phase profile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod checkpoint;
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
    read_checkpoint, write_checkpoint, Checkpoint, CheckpointError, FORMAT_VERSION,
};
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
    Decision, DiscardReason, Driver, PlacePhase, Placement, Resume, RunError, RunOptions,
    RunResult, SchedCtx, SchedulePolicy, SearchBackend, Simulation, SourceYield, TaskSource,
    TaskSpec,
};
pub use stats::{Metrics, PhaseCounts, PhaseKind, Stats, WindowBucket, WindowStats};
