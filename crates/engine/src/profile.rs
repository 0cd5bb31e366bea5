//! Deterministic phase profiler.
//!
//! Wall-clock profiles of a discrete-event simulator are noisy and
//! machine-bound; what actually predicts scaling behaviour is *how many
//! operations* each phase performed. This module snapshots monotonic
//! operation counters — all derived from simulation state that is itself
//! deterministic under a fixed seed — so two runs of the same workload
//! produce identical profiles on any machine. That is what lets a test
//! pin them exactly and fail on algorithmic regressions (a jump in
//! store mutations is a bug even when the wall clock got faster):
//! `tests/phase_profile_golden.rs` pins every counter at 1 000 and
//! 10 000 nodes.
//!
//! Phases and their counters:
//!
//! * **search** — `scheduling_steps` ([`StepCounter`]'s
//!   `Total_Search_Length_Scheduler`, the paper's own unit).
//! * **store-mutate** — `store_mutations`, one tick per successful
//!   `ResourceManager` state change (placements, evictions, task
//!   add/remove, failure/repair transitions).
//! * **housekeeping** — `housekeeping_steps`, the resource-information
//!   module's list/suspension traversals.
//! * **event-queue** — `events_pushed` / `events_popped` from the queue's
//!   own sequence numbering (which checkpoints carry, so these count the
//!   whole logical run even across a resume).
//! * **stats** — `stats_samples`, one per recorded arrival, completion,
//!   or discard.
//! * **checkpoint** — `checkpoints_written` and `checkpoint_bytes` for
//!   snapshots written by the run loop of the live process.

/// A snapshot of per-phase operation counters for one run.
///
/// Obtained from [`Simulation::phase_profile`](crate::Simulation::phase_profile);
/// all fields are monotonic over a run and deterministic under a fixed
/// seed. Differences of two snapshots are meaningful because every
/// counter only ever increases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Scheduler search steps (the paper's `Total_Search_Length_Scheduler`).
    pub scheduling_steps: u64,
    /// Resource-information housekeeping steps (list maintenance,
    /// suspension-queue rescans).
    pub housekeeping_steps: u64,
    /// Successful resource-store mutations (place/evict/assign/release,
    /// failure and repair transitions).
    pub store_mutations: u64,
    /// Events ever pushed onto the event queue.
    pub events_pushed: u64,
    /// Events popped off the event queue.
    pub events_popped: u64,
    /// Statistics samples recorded (arrivals + completions + discards).
    pub stats_samples: u64,
    /// Checkpoint files written by this process's run loop.
    pub checkpoints_written: u64,
    /// Total bytes of checkpoint data written (header + payload).
    pub checkpoint_bytes: u64,
}
