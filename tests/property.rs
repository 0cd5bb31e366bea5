//! Cross-crate property tests: arbitrary small parameter sets and
//! workloads must never violate the simulator's global invariants.

use dreamsim::engine::{read_checkpoint, Driver, ReconfigMode, RunOptions, SimParams, Simulation};
use dreamsim::model::PreferredConfig;
use dreamsim::sched::CaseStudyScheduler;
use dreamsim::sweep::runner::{run_point, SweepPoint};
use dreamsim::workload::SyntheticSource;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn arb_params() -> impl Strategy<Value = SimParams> {
    (
        2usize..25,  // nodes
        1usize..12,  // configs
        1usize..120, // tasks
        1u64..30,    // max interval
        prop_oneof![Just(ReconfigMode::Full), Just(ReconfigMode::Partial)],
        any::<u64>(),    // seed
        0.0f64..1.0,     // phantom fraction
        prop::bool::ANY, // suspension enabled
    )
        .prop_map(
            |(nodes, configs, tasks, interval, mode, seed, phantom, susp)| {
                let mut p = SimParams::paper(nodes, tasks, mode);
                p.total_configs = configs;
                p.next_task_max_interval = interval;
                p.seed = seed;
                p.closest_match_fraction = phantom;
                p.suspension_enabled = susp;
                // Short tasks keep the runs fast.
                p.task_time = dreamsim::engine::params::Range::new(10, 2_000);
                p
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every run terminates with a coherent ledger, whatever the
    /// parameters.
    #[test]
    fn ledger_coherent_for_arbitrary_params(p in arb_params()) {
        let m = run_point(&SweepPoint::new("prop", p.clone())).metrics;
        prop_assert_eq!(m.total_tasks_generated as usize, p.total_tasks.min(m.total_tasks_generated as usize));
        prop_assert_eq!(m.total_tasks_completed + m.total_discarded_tasks, m.total_tasks_generated);
        prop_assert_eq!(m.total_scheduler_workload, m.scheduler_search_length + m.housekeeping_steps);
        prop_assert!(m.total_used_nodes <= p.total_nodes as u64);
        prop_assert!(!m.avg_waiting_time_per_task.is_nan());
        prop_assert!(!m.avg_wasted_area_per_task.is_nan());
        if p.mode == ReconfigMode::Full {
            prop_assert_eq!(m.phases.partial_configuration, 0);
        }
        if !p.suspension_enabled {
            prop_assert_eq!(m.total_suspensions, 0);
        }
    }

    /// Event-driven and tick-stepped drivers agree on arbitrary
    /// scenarios (the strongest cross-check of the time model).
    #[test]
    fn drivers_equivalent_for_arbitrary_params(mut p in arb_params()) {
        p.total_tasks = p.total_tasks.min(40); // tick driver is O(ticks)
        p.task_time = dreamsim::engine::params::Range::new(5, 300);
        let build = || Simulation::new(
            p.clone(),
            SyntheticSource::from_params(&p),
            CaseStudyScheduler::new(),
        ).unwrap();
        let ev = build().run();
        let tick = build()
            .run_with(&RunOptions { driver: Driver::TickStepped, ..RunOptions::default() })
            .unwrap();
        prop_assert_eq!(ev.metrics, tick.metrics);
        prop_assert_eq!(ev.tasks, tick.tasks);
    }

    /// Task timestamps are always ordered: create ≤ start, and
    /// completion covers the full required time.
    #[test]
    fn task_timestamps_ordered(p in arb_params()) {
        let result = Simulation::new(
            p.clone(),
            SyntheticSource::from_params(&p),
            CaseStudyScheduler::new(),
        ).unwrap().run();
        for t in &result.tasks {
            prop_assert!(t.is_terminal());
            if let Some(s) = t.start_time {
                prop_assert!(s >= t.create_time);
            }
            if let (Some(s), Some(c)) = (t.start_time, t.completion_time) {
                prop_assert!(c >= s + t.required_time);
            }
            // A completed task must have been assigned a configuration
            // compatible with its resolution.
            if t.completion_time.is_some() {
                prop_assert!(t.assigned_config.is_some());
                if let (Some(a), Some(r)) = (t.assigned_config, t.resolved_config) {
                    prop_assert_eq!(a, r);
                }
            }
        }
    }

    /// Snapshots of arbitrary mid-run states survive a full
    /// serialize → disk → restore round trip: the restored state passes
    /// the invariant auditor, and continuing from it reproduces the
    /// uninterrupted run's report byte for byte.
    #[test]
    fn checkpoints_restore_to_audited_bit_identical_states(
        mut p in arb_params(),
        every in 50u64..2_000,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        p.total_tasks = p.total_tasks.min(40);
        // Faults exercise the RNG-heavy paths the checkpoint must capture.
        p.faults.node_mttf = Some(2_000);
        p.faults.reconfig_fail_prob = 0.1;
        // lint: allow(r2) -- scratch directory for test artifacts, never simulator state
        let dir = std::env::temp_dir().join(format!(
            "dreamsim-prop-cp-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let build = || Simulation::new(
            p.clone(),
            SyntheticSource::from_params(&p),
            CaseStudyScheduler::new(),
        ).unwrap();
        let opts = RunOptions {
            checkpoint_every: Some(every),
            checkpoint_dir: Some(dir.clone()),
            audit: true,
            ..RunOptions::default()
        };
        let reference = build().run_with(&opts).unwrap();
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        // Resuming re-runs the remainder of the simulation, so sample a
        // handful of snapshots instead of replaying from every one.
        let step = (files.len() / 4).max(1);
        for file in files.iter().step_by(step) {
            let cp = read_checkpoint(file).unwrap();
            let sim = Simulation::resume(
                cp,
                SyntheticSource::from_params(&p),
                CaseStudyScheduler::new(),
            ).unwrap();
            // `resume` audits internally; re-assert explicitly so a
            // future relaxation of that behaviour fails loudly here.
            prop_assert!(sim.audit().is_ok());
            let resumed = sim.run_with(&RunOptions::default()).unwrap();
            prop_assert_eq!(&resumed.metrics, &reference.metrics);
            prop_assert_eq!(resumed.report.to_xml(), reference.report.to_xml());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// On arbitrary workloads with faults, the per-event auditor (which
    /// cross-checks the live search index against a from-scratch
    /// rebuild) accepts every state, and auditing changes nothing in
    /// the report.
    #[test]
    fn index_audits_clean_after_every_event(mut p in arb_params()) {
        p.total_tasks = p.total_tasks.min(60);
        // Faults exercise the purge/repair index hooks.
        p.faults.node_mttf = Some(2_000);
        p.faults.reconfig_fail_prob = 0.1;
        let run = |audit: bool| {
            Simulation::new(
                p.clone(),
                SyntheticSource::from_params(&p),
                CaseStudyScheduler::new(),
            )
            .unwrap()
            .run_with(&RunOptions { audit, ..RunOptions::default() })
            .unwrap()
        };
        let audited = run(true);
        let plain = run(false);
        prop_assert_eq!(audited.report.to_xml(), plain.report.to_xml());
        prop_assert_eq!(audited.tasks, plain.tasks);
    }

    /// Phantom-preferring tasks are only ever assigned a configuration
    /// strictly larger than their preferred area (the closest-match
    /// criterion).
    #[test]
    fn closest_match_assignments_dominate_preferred_area(mut p in arb_params()) {
        p.closest_match_fraction = 1.0; // all phantom
        let result = Simulation::new(
            p.clone(),
            SyntheticSource::from_params(&p),
            CaseStudyScheduler::new(),
        ).unwrap().run();
        // Reconstruct config areas from a fresh simulation's resources.
        let probe = Simulation::new(
            p.clone(),
            SyntheticSource::from_params(&p),
            CaseStudyScheduler::new(),
        ).unwrap();
        let areas: Vec<u64> = probe.resources().configs().iter().map(|c| c.req_area).collect();
        for t in &result.tasks {
            if let (PreferredConfig::Phantom { area }, Some(assigned)) =
                (t.preferred, t.assigned_config)
            {
                prop_assert!(
                    areas[assigned.index()] > area,
                    "assigned area {} not strictly above preferred {area}",
                    areas[assigned.index()]
                );
            }
        }
    }
}
