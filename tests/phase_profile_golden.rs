//! Golden phase-profile test: pins every `PhaseProfile` counter of the
//! paper workload (Table II, partial mode, 2 tasks per node) at 1 000
//! and 10 000 nodes, under both statistics backends.
//!
//! The counters are the paper's cost units (scheduling and
//! housekeeping steps, behind Fig. 9) plus the store, event-queue and
//! statistics operation counts. All of them are deterministic under a
//! fixed seed, so the check is exact: a speed-up must leave every one
//! unchanged, and an algorithmic regression (a superlinear search, a
//! doubled mutation count) fails here on any machine, whatever its wall
//! clock says. Sketch statistics change how waits are stored, not what
//! the simulation does, so the sketch run must match the exact run.
//!
//! If an intentional model change moves these counters, print the new
//! values with `cargo test --test phase_profile_golden -- --nocapture`
//! (each failing assert shows the actual profile) and say why in the
//! change that updates them.

use dreamsim::engine::{PhaseProfile, StatsBackend};
use dreamsim::rng::derive_stream;
use dreamsim::sched::CaseStudyScheduler;
use dreamsim::workload::SyntheticSource;
use dreamsim::{ReconfigMode, SimParams, Simulation};

const SEED: u64 = 2012;
const TASKS_PER_NODE: usize = 2;

/// Run the rung with `nodes` nodes (seed `derive_stream(SEED, nodes)`)
/// and return its phase profile.
fn profile(nodes: usize, stats: StatsBackend) -> PhaseProfile {
    let mut params = SimParams::paper(nodes, nodes * TASKS_PER_NODE, ReconfigMode::Partial);
    params.seed = derive_stream(SEED, nodes as u64);
    let source = SyntheticSource::from_params(&params);
    Simulation::new(params, source, CaseStudyScheduler::new())
        .expect("paper parameters validate")
        .with_stats_backend(stats)
        .run()
        .profile
}

fn assert_rung(nodes: usize, golden: PhaseProfile) {
    let exact = profile(nodes, StatsBackend::Exact);
    assert_eq!(exact, golden, "phase profile moved at {nodes} nodes");
    let sketch = profile(nodes, StatsBackend::Sketch);
    assert_eq!(
        sketch, exact,
        "sketch stats changed the phase profile at {nodes} nodes"
    );
}

#[test]
fn phase_profile_matches_golden_at_1k_nodes() {
    assert_rung(
        1_000,
        PhaseProfile {
            scheduling_steps: 2_146_541,
            housekeeping_steps: 29_663,
            store_mutations: 5_535,
            events_pushed: 3_999,
            events_popped: 3_999,
            stats_samples: 4_000,
            checkpoints_written: 0,
            checkpoint_bytes: 0,
        },
    );
}

#[test]
fn phase_profile_matches_golden_at_10k_nodes() {
    assert_rung(
        10_000,
        PhaseProfile {
            scheduling_steps: 27_262_374,
            housekeeping_steps: 600_572,
            store_mutations: 42_621,
            events_pushed: 39_993,
            events_popped: 39_993,
            stats_samples: 40_000,
            checkpoints_written: 0,
            checkpoint_bytes: 0,
        },
    );
}
