//! Workload-path integration: trace record/replay through full
//! simulations, and DAG dependency semantics end to end.

use dreamsim::engine::sim::{SourceYield, TaskSource};
use dreamsim::engine::{ReconfigMode, SimParams, Simulation};
use dreamsim::model::{ConfigId, PreferredConfig, TaskId, TaskState};
use dreamsim::rng::Rng;
use dreamsim::sched::CaseStudyScheduler;
use dreamsim::workload::{trace, DagSource, DagSpec, DagTask, SyntheticSource, TraceSource};

fn params(nodes: usize, tasks: usize) -> SimParams {
    let mut p = SimParams::paper(nodes, tasks, ReconfigMode::Partial);
    p.seed = 17;
    p
}

#[test]
fn synthetic_record_then_replay_gives_identical_metrics() {
    let p = params(30, 250);
    // Draw the workload up front.
    let mut synth = SyntheticSource::from_params(&p);
    let mut rng = Rng::seed_from(555);
    let mut specs = Vec::new();
    for _ in 0..p.total_tasks {
        match synth.next_task(0, &mut rng) {
            SourceYield::Task(s) => specs.push(s),
            _ => break,
        }
    }
    let text = trace::write_trace(&specs);
    let run = |text: &str| {
        Simulation::new(
            p.clone(),
            TraceSource::from_text(text).unwrap(),
            CaseStudyScheduler::new(),
        )
        .unwrap()
        .run()
        .metrics
    };
    let a = run(&text);
    let b = run(&text);
    assert_eq!(a, b);
    assert_eq!(a.total_tasks_generated as usize, specs.len());
}

#[test]
fn short_trace_ends_run_early() {
    let mut p = params(10, 1_000); // budget larger than the trace
    p.seed = 3;
    let text = "1 100 c0 0\n2 200 c1 0\n3 300 p500 0\n";
    let result = Simulation::new(
        p,
        TraceSource::from_text(text).unwrap(),
        CaseStudyScheduler::new(),
    )
    .unwrap()
    .run();
    assert_eq!(result.metrics.total_tasks_generated, 3);
    assert_eq!(result.tasks.len(), 3);
}

#[test]
fn dag_chain_respects_dependencies_end_to_end() {
    let n = 6;
    let spec = DagSpec::chain(
        (0..n)
            .map(|_| DagTask::new(500, PreferredConfig::Known(ConfigId(0))))
            .collect(),
    );
    let p = params(8, n);
    let result = Simulation::new(p, DagSource::new(spec).unwrap(), CaseStudyScheduler::new())
        .unwrap()
        .run();
    assert_eq!(result.metrics.total_tasks_completed, n as u64);
    // Strict pipeline: task k+1 must not start before task k completes.
    for (prev, next) in result.tasks.iter().zip(result.tasks.iter().skip(1)) {
        let done = prev.completion_time.expect("completed");
        let next_start = next.start_time.expect("started");
        assert!(
            next_start >= done,
            "task {:?} started at {next_start} before {:?} finished at {done}",
            next.id,
            prev.id
        );
    }
}

#[test]
fn dag_fork_join_sink_starts_after_all_workers() {
    let mk = || DagTask::new(400, PreferredConfig::Known(ConfigId(1)));
    let spec = DagSpec::fork_join(mk(), vec![mk(), mk(), mk()], mk());
    let p = params(8, 5);
    let result = Simulation::new(p, DagSource::new(spec).unwrap(), CaseStudyScheduler::new())
        .unwrap()
        .run();
    assert_eq!(result.metrics.total_tasks_completed, 5);
    let sink_start = result.tasks.start_time(TaskId(4)).expect("sink ran");
    for worker in (1..4).map(TaskId) {
        let done = result
            .tasks
            .completion_time(worker)
            .expect("worker completed");
        assert!(sink_start >= done, "sink started before a worker finished");
    }
}

#[test]
fn dag_tasks_all_terminate_even_with_phantom_preferences() {
    // Phantom preferences route through the closest-match path inside a
    // dependency-gated workload.
    let mut spec = DagSpec::new();
    let a = spec.add_task(DagTask::new(100, PreferredConfig::Phantom { area: 300 }));
    let b = spec.add_task(DagTask::new(100, PreferredConfig::Phantom { area: 1_500 }));
    spec.add_edge(a, b).unwrap();
    let p = params(5, 2);
    let result = Simulation::new(p, DagSource::new(spec).unwrap(), CaseStudyScheduler::new())
        .unwrap()
        .run();
    for t in &result.tasks {
        assert!(
            matches!(t.state, TaskState::Completed | TaskState::Discarded),
            "{:?} in {:?}",
            t.id,
            t.state
        );
    }
}

#[test]
fn trace_parse_failures_surface_cleanly() {
    assert!(TraceSource::from_text("not a trace\n").is_err());
    assert!(TraceSource::from_text("1 2 c0 0\n1 2\n").is_err());
    let empty = TraceSource::from_text("# only comments\n").unwrap();
    assert!(empty.is_empty());
}
