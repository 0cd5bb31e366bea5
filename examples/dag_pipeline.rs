//! Task-graph scheduling (the paper's future-work extension): a video
//! analytics pipeline of fork-join stages mapped onto partially
//! reconfigurable nodes.
//!
//! Stage 1 decodes frames (soft-core friendly), stage 2 fans out to
//! parallel filter workers (systolic-array configurations), stage 3
//! aggregates. Children release only when all parents complete.
//!
//! ```sh
//! cargo run --release --example dag_pipeline
//! ```

use dreamsim::engine::{ReconfigMode, SimParams, Simulation};
use dreamsim::model::{ConfigId, PreferredConfig, TaskId};
use dreamsim::sched::CaseStudyScheduler;
use dreamsim::workload::{DagSource, DagSpec, DagTask};

fn stage_task(required_time: u64, config: u32) -> DagTask {
    DagTask::new(required_time, PreferredConfig::Known(ConfigId(config)))
}

fn main() {
    // Build an 8-frame pipeline: decode -> 4 parallel filters -> merge,
    // chained per frame so merge(frame k) gates decode(frame k+1).
    let mut spec = DagSpec::new();
    let mut prev_merge: Option<usize> = None;
    let frames = 8;
    for _ in 0..frames {
        let decode = spec.add_task(stage_task(2_000, 0));
        if let Some(pm) = prev_merge {
            spec.add_edge(pm, decode).unwrap();
        }
        let mut filters = Vec::new();
        for f in 0..4u32 {
            let filt = spec.add_task(stage_task(5_000, 1 + f));
            spec.add_edge(decode, filt).unwrap();
            filters.push(filt);
        }
        let merge = spec.add_task(stage_task(1_000, 5));
        for f in filters {
            spec.add_edge(f, merge).unwrap();
        }
        prev_merge = Some(merge);
    }
    let levels = spec.validate().expect("pipeline is acyclic");
    let depth = levels.iter().max().copied().unwrap_or(0) + 1;
    let total = spec.len();
    println!("pipeline: {frames} frames, {total} tasks, {depth} topological levels");

    let mut params = SimParams::paper(16, total, ReconfigMode::Partial);
    params.seed = 7;
    // Small cluster: nodes big enough to co-host several filter configs.
    params.node_area = dreamsim::engine::params::Range::new(2000, 4000);
    params.config_area = dreamsim::engine::params::Range::new(300, 900);

    let source = DagSource::new(spec).expect("validated above");
    let result = Simulation::new(params, source, CaseStudyScheduler::new())
        .expect("params validate")
        .run();

    let m = &result.metrics;
    println!(
        "completed {}/{} tasks in {} ticks ({} discarded)",
        m.total_tasks_completed, total, m.total_simulation_time, m.total_discarded_tasks
    );
    println!(
        "placements: {} allocation, {} configuration, {} partial-config, {} reconfig",
        m.phases.allocation,
        m.phases.configuration,
        m.phases.partial_configuration,
        m.phases.partial_reconfiguration
    );

    // Per-frame makespan: the merge task of each frame is every 6th task.
    println!("\nframe completion times:");
    let tasks = &result.tasks;
    for (frame, start) in (0..tasks.len()).step_by(6).enumerate() {
        let merge = TaskId::from_index((start + 6).min(tasks.len()) - 1);
        match tasks.completion_time(merge) {
            Some(ct) => println!("  frame {frame}: merged at tick {ct}"),
            None => println!("  frame {frame}: did not finish"),
        }
    }
}
