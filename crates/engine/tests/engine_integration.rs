//! Engine-level integration tests with scripted sources and policies:
//! exact timing semantics (Eq. 8), failure-injection bookkeeping, and
//! observer event ordering.

use dreamsim_engine::sim::{
    Decision, DiscardReason, Placement, Resume, SchedCtx, SchedulePolicy, SourceYield, TaskSource,
    TaskSpec,
};
use dreamsim_engine::{Observer, PhaseKind, ReconfigMode, SimParams, Simulation};
use dreamsim_model::{ConfigId, EntryRef, PreferredConfig, Task, TaskId, TaskState, Ticks};
use dreamsim_rng::Rng;

/// Scripted source yielding a fixed list of specs.
struct Script(Vec<TaskSpec>, usize);

impl Script {
    fn new(specs: Vec<TaskSpec>) -> Self {
        Self(specs, 0)
    }
}

impl TaskSource for Script {
    fn next_task(&mut self, _now: Ticks, _rng: &mut Rng) -> SourceYield {
        match self.0.get(self.1) {
            Some(&s) => {
                self.1 += 1;
                SourceYield::Task(s)
            }
            None => SourceYield::Exhausted,
        }
    }
}

fn spec(interarrival: Ticks, required_time: Ticks) -> TaskSpec {
    TaskSpec {
        interarrival,
        required_time,
        preferred: PreferredConfig::Known(ConfigId(0)),
        needed_area: 0,
        data_bytes: 0,
    }
}

/// Policy that always configures node 0 and reports a fixed config time.
struct PinToNodeZero;

impl SchedulePolicy for PinToNodeZero {
    fn name(&self) -> &'static str {
        "pin-to-zero"
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Decision {
        let config = ConfigId(0);
        let ct = ctx.resources.config(config).config_time;
        match ctx
            .resources
            .configure_slot(dreamsim_model::NodeId(0), config, ctx.steps)
        {
            Ok(entry) => {
                ctx.resources.assign_task(entry, task, ctx.steps).unwrap();
                Decision::Placed(Placement {
                    task,
                    entry,
                    config,
                    config_time: ct,
                    phase: PhaseKind::Configuration,
                })
            }
            Err(_) => Decision::Discarded(DiscardReason::NoFeasibleNode),
        }
    }

    fn on_slot_freed(&mut self, _ctx: &mut SchedCtx<'_>, _freed: EntryRef) -> Vec<Resume> {
        Vec::new()
    }
}

fn one_node_params() -> SimParams {
    let mut p = SimParams::paper(1, 1, ReconfigMode::Partial);
    p.seed = 1;
    // Pin the random ranges so timing is fully predictable.
    p.node_area = dreamsim_engine::params::Range::new(10_000, 10_000);
    p.config_area = dreamsim_engine::params::Range::new(100, 100);
    p.config_time = dreamsim_engine::params::Range::new(10, 10);
    p.network_delay = dreamsim_engine::params::Range::new(3, 3);
    p
}

#[test]
fn eq8_waiting_time_is_exactly_comm_plus_config_for_immediate_placement() {
    let p = one_node_params();
    let result = Simulation::new(p, Script::new(vec![spec(5, 1_000)]), PinToNodeZero)
        .unwrap()
        .run();
    let t = result.tasks.row(TaskId(0));
    assert_eq!(t.create_time, 5);
    assert_eq!(t.start_time, Some(5), "placed at arrival");
    // completion = start + config(10) + comm(3) + required(1000).
    assert_eq!(t.completion_time, Some(5 + 10 + 3 + 1_000));
    // Eq. 8: twait = (start − create) + comm + config = 0 + 3 + 10.
    assert!((result.metrics.avg_waiting_time_per_task - 13.0).abs() < 1e-12);
    // Eq. 5: total simulation time = last event time.
    assert_eq!(result.metrics.total_simulation_time, 1_018);
    // Residence = wait + required.
    assert!((result.metrics.avg_running_time_per_task - 1_013.0).abs() < 1e-12);
}

#[test]
fn multiple_tasks_pack_onto_partial_node_in_parallel() {
    let mut p = one_node_params();
    p.total_tasks = 3;
    let result = Simulation::new(
        p,
        Script::new(vec![spec(1, 100), spec(1, 100), spec(1, 100)]),
        PinToNodeZero,
    )
    .unwrap()
    .run();
    assert_eq!(result.metrics.total_tasks_completed, 3);
    // All three overlap: makespan well under 3 × (100 + overheads).
    let last = result
        .tasks
        .iter()
        .filter_map(|t| t.completion_time)
        .max()
        .unwrap();
    assert!(last < 200, "tasks must run concurrently, makespan {last}");
}

/// Observer that records the event sequence.
#[derive(Default)]
struct EventLog(std::rc::Rc<std::cell::RefCell<Vec<String>>>);

impl Observer for EventLog {
    fn on_arrival(&mut self, now: Ticks, task: &Task) {
        self.0
            .borrow_mut()
            .push(format!("arrive {} @{now}", task.id.0));
    }
    fn on_placement(&mut self, now: Ticks, task: &Task, _p: &Placement) {
        self.0
            .borrow_mut()
            .push(format!("place {} @{now}", task.id.0));
    }
    fn on_completion(&mut self, now: Ticks, task: &Task) {
        self.0
            .borrow_mut()
            .push(format!("done {} @{now}", task.id.0));
    }
}

#[test]
fn observer_sees_arrive_place_done_in_causal_order() {
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let p = one_node_params();
    let _ = Simulation::new(p, Script::new(vec![spec(2, 50)]), PinToNodeZero)
        .unwrap()
        .with_observer(Box::new(EventLog(log.clone())))
        .run();
    let events = log.borrow();
    assert_eq!(
        *events,
        vec![
            "arrive 0 @2".to_string(),
            "place 0 @2".to_string(),
            "done 0 @65".to_string(), // 2 + 10 + 3 + 50
        ]
    );
}

#[test]
fn failure_metrics_accounted() {
    let mut p = SimParams::paper(4, 40, ReconfigMode::Partial);
    p.seed = 12;
    p.faults.node_mttf = Some(800);
    p.faults.node_mttr = 100;
    p.faults.resubmit = false;
    p.task_time = dreamsim_engine::params::Range::new(100, 2_000);
    let source = {
        let specs = (0..40).map(|_| spec(5, 500)).collect();
        Script::new(specs)
    };
    use dreamsim_sched::CaseStudyScheduler;
    let result = Simulation::new(p, source, CaseStudyScheduler::new())
        .unwrap()
        .run();
    let m = &result.metrics;
    assert!(m.node_failures > 0);
    assert_eq!(m.total_tasks_completed + m.total_discarded_tasks, 40);
    assert!(m.failure_killed <= m.total_discarded_tasks);
    // Killed tasks are terminal-discarded with no completion time.
    let killed_or_drained = result
        .tasks
        .iter()
        .filter(|t| t.state == TaskState::Discarded)
        .count() as u64;
    assert_eq!(killed_or_drained, m.total_discarded_tasks);
}
