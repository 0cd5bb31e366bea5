//! Reproducibility guarantees: identical seeds give identical runs,
//! sweeps are independent of thread count, and the event-driven and
//! tick-stepped drivers are observationally equivalent.

use dreamsim::engine::params::MAX_TICKS;
use dreamsim::engine::{
    DomainParams, Driver, Observer, ReconfigMode, RunOptions, SimParams, Simulation,
};
use dreamsim::model::{NodeId, Task, Ticks};
use dreamsim::sched::CaseStudyScheduler;
use dreamsim::sweep::runner::{run_batch, run_point, SweepPoint};
use dreamsim::workload::SyntheticSource;
use std::cell::RefCell;
use std::rc::Rc;

fn params(seed: u64) -> SimParams {
    let mut p = SimParams::paper(30, 300, ReconfigMode::Partial);
    p.seed = seed;
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
fn same_seed_same_everything() {
    let a = run_point(&SweepPoint::new("a", params(1)));
    let b = run_point(&SweepPoint::new("b", params(1)));
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.to_xml(), b.to_xml());
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn different_seed_different_schedule() {
    let a = run_point(&SweepPoint::new("a", params(1)));
    let b = run_point(&SweepPoint::new("b", params(2)));
    // Total simulation time depends on every arrival draw; collision is
    // implausible for different streams.
    assert_ne!(
        a.metrics.total_simulation_time,
        b.metrics.total_simulation_time
    );
}

#[test]
fn batch_results_independent_of_thread_count() {
    let points: Vec<SweepPoint> = (0..5)
        .map(|i| SweepPoint::new(format!("p{i}"), params(100 + i)))
        .collect();
    let t1 = run_batch(&points, 1);
    let t2 = run_batch(&points, 2);
    let t8 = run_batch(&points, 8);
    for i in 0..points.len() {
        assert_eq!(t1[i].metrics, t2[i].metrics, "point {i}: 1 vs 2 threads");
        assert_eq!(t1[i].metrics, t8[i].metrics, "point {i}: 1 vs 8 threads");
    }
}

#[test]
fn event_driven_equals_tick_stepped_across_modes_and_seeds() {
    for mode in [ReconfigMode::Full, ReconfigMode::Partial] {
        for seed in [3u64, 4, 5] {
            let mut p = SimParams::paper(15, 120, mode);
            p.seed = seed;
            let build = || {
                Simulation::new(
                    p.clone(),
                    SyntheticSource::from_params(&p),
                    CaseStudyScheduler::new(),
                )
                .unwrap()
            };
            let ev = build().run();
            let tick = build().run_with(&tick_stepped()).unwrap();
            assert_eq!(ev.metrics, tick.metrics, "{mode} seed {seed}");
            assert_eq!(ev.tasks, tick.tasks, "{mode} seed {seed}");
        }
    }
}

fn fault_params(seed: u64) -> SimParams {
    let mut p = params(seed);
    p.faults.node_mttf = Some(50_000);
    p.faults.node_mttr = 5_000;
    p.faults.reconfig_fail_prob = 0.2;
    p.faults.task_fail_prob = 0.05;
    p.faults.suspension_deadline = Some(200_000);
    p
}

#[test]
fn same_seed_same_fault_injection() {
    let build = |p: SimParams| {
        Simulation::new(
            p.clone(),
            SyntheticSource::from_params(&p),
            CaseStudyScheduler::new(),
        )
        .unwrap()
        .run()
    };
    let a = build(fault_params(11));
    let b = build(fault_params(11));
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.tasks, b.tasks);
    // The run actually exercised the fault machinery.
    assert!(a.metrics.node_failures > 0, "failures should fire");
    assert!(a.metrics.node_downtime > 0, "downtime should accrue");
    assert!(
        a.metrics.reconfig_failures > 0,
        "bitstream loads should fail"
    );
    assert_eq!(a.metrics.node_failures, b.metrics.node_failures);
    assert_eq!(a.metrics.reconfig_failures, b.metrics.reconfig_failures);
    assert_eq!(a.metrics.resubmissions, b.metrics.resubmissions);
    assert_eq!(a.metrics.tasks_lost, b.metrics.tasks_lost);
    assert_eq!(a.metrics.node_downtime, b.metrics.node_downtime);
}

#[test]
fn disabled_fault_params_do_not_perturb_the_run() {
    // `FaultParams::default()` is all-off; constructing the fault model
    // must not consume randomness or alter any metric relative to the
    // same seed. (The struct literal spells the defaults out so a future
    // change to the defaults would be caught here.)
    let mut explicit = params(42);
    explicit.faults = dreamsim::engine::FaultParams {
        node_mttf: None,
        node_mttr: 1_000,
        reconfig_fail_prob: 0.0,
        task_fail_prob: 0.0,
        max_retries: 3,
        retry_backoff_base: 8,
        retry_backoff_cap: 512,
        resubmit: true,
        suspension_deadline: None,
    };
    let build = |p: SimParams| {
        Simulation::new(
            p.clone(),
            SyntheticSource::from_params(&p),
            CaseStudyScheduler::new(),
        )
        .unwrap()
        .run()
    };
    let base = build(params(42));
    let with_disabled = build(explicit);
    assert_eq!(base.metrics, with_disabled.metrics);
    assert_eq!(base.tasks, with_disabled.tasks);
    assert_eq!(base.metrics.node_failures, 0);
    assert_eq!(base.metrics.tasks_lost, 0);
    assert_eq!(base.metrics.node_downtime, 0);
}

/// Positions, in callback order, of the last completion and the first
/// node failure.
#[derive(Default)]
struct FailureOrder {
    seen: u64,
    last_completion: Option<u64>,
    first_failure: Option<u64>,
}

struct OrderLog(Rc<RefCell<FailureOrder>>);

impl Observer for OrderLog {
    fn on_completion(&mut self, _now: Ticks, _task: &Task) {
        let mut o = self.0.borrow_mut();
        o.seen += 1;
        o.last_completion = Some(o.seen);
    }

    fn on_node_failure(&mut self, _now: Ticks, _node: NodeId) {
        let mut o = self.0.borrow_mut();
        o.seen += 1;
        let seen = o.seen;
        o.first_failure.get_or_insert(seen);
    }
}

#[test]
fn enabled_failure_processes_do_not_perturb_the_workload() {
    // Failure draws come from their own streams, so turning a failure
    // process on leaves workload and platform generation alone (DESIGN
    // §9). With failures too rare to strike while work remains, every
    // task row is the fault-free run's.
    let base = Simulation::new(
        params(42),
        SyntheticSource::from_params(&params(42)),
        CaseStudyScheduler::new(),
    )
    .unwrap()
    .run();
    let mut node_mttf = params(42);
    node_mttf.faults.node_mttf = Some(MAX_TICKS);
    let mut domain_mttf = params(42);
    domain_mttf.domains = Some(DomainParams {
        count: 3,
        mttf: Some(MAX_TICKS),
        ..DomainParams::default()
    });
    for (name, p) in [("node mttf", node_mttf), ("domain mttf", domain_mttf)] {
        let order = Rc::new(RefCell::new(FailureOrder::default()));
        let run = Simulation::new(
            p.clone(),
            SyntheticSource::from_params(&p),
            CaseStudyScheduler::new(),
        )
        .unwrap()
        .with_observer(Box::new(OrderLog(Rc::clone(&order))))
        .run();
        let o = order.borrow();
        let last_completion = o.last_completion.expect("tasks complete");
        assert!(
            o.first_failure.is_none_or(|f| f > last_completion),
            "{name}: a node failed while work remained, so the premise fails"
        );
        assert_eq!(run.tasks, base.tasks, "{name}");
    }
}

#[test]
fn fault_runs_agree_across_drivers() {
    let mut p = SimParams::paper(15, 120, ReconfigMode::Partial);
    p.seed = 9;
    p.faults.node_mttf = Some(20_000);
    p.faults.node_mttr = 2_000;
    p.faults.reconfig_fail_prob = 0.15;
    p.faults.task_fail_prob = 0.05;
    let build = || {
        Simulation::new(
            p.clone(),
            SyntheticSource::from_params(&p),
            CaseStudyScheduler::new(),
        )
        .unwrap()
    };
    let ev = build().run();
    let tick = build().run_with(&tick_stepped()).unwrap();
    assert_eq!(ev.metrics, tick.metrics);
    assert_eq!(ev.tasks, tick.tasks);
    assert!(
        ev.metrics.node_failures > 0,
        "faults should fire in both drivers"
    );
}

#[test]
fn fault_run_completes_every_task_terminally() {
    let p = fault_params(123);
    let result = Simulation::new(
        p.clone(),
        SyntheticSource::from_params(&p),
        CaseStudyScheduler::new(),
    )
    .unwrap()
    .run();
    let m = &result.metrics;
    assert_eq!(
        m.total_tasks_completed + m.total_discarded_tasks,
        m.total_tasks_generated
    );
    for t in &result.tasks {
        assert!(t.is_terminal(), "{:?} not terminal", t.id);
    }
}

#[test]
fn tasks_terminal_and_timestamps_consistent() {
    let result = {
        let p = params(77);
        Simulation::new(
            p.clone(),
            SyntheticSource::from_params(&p),
            CaseStudyScheduler::new(),
        )
        .unwrap()
        .run()
    };
    for t in &result.tasks {
        assert!(t.is_terminal(), "{:?}", t.id);
        if let (Some(start), Some(done)) = (t.start_time, t.completion_time) {
            assert!(start >= t.create_time, "{:?}: starts after creation", t.id);
            assert!(
                done >= start + t.required_time,
                "{:?}: runs at least its required time",
                t.id
            );
        }
    }
}
