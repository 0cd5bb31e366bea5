//! Failure injection (an extension beyond the paper's failure-free
//! evaluation): each node fails with a
//! configurable mean time to failure (MTTF), killing its tasks, and
//! comes back blank after repair.
//!
//! ```sh
//! cargo run --release --example failure_injection
//! ```

use dreamsim::engine::{ReconfigMode, SimParams, Simulation};
use dreamsim::sched::CaseStudyScheduler;
use dreamsim::workload::SyntheticSource;

fn main() {
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "MTTF", "failures", "killed", "completed", "discarded", "avg wait"
    );
    for mttf in [None, Some(50_000_000), Some(10_000_000), Some(2_000_000)] {
        let mut params = SimParams::paper(100, 3_000, ReconfigMode::Partial);
        params.seed = 11;
        params.faults.node_mttf = mttf;
        params.faults.node_mttr = 5_000;
        let source = SyntheticSource::from_params(&params);
        let result = Simulation::new(params, source, CaseStudyScheduler::new())
            .expect("params validate")
            .run();
        let m = &result.metrics;
        let label = mttf.map_or("none".to_string(), |t| t.to_string());
        println!(
            "{label:>12} {:>10} {:>10} {:>10} {:>12} {:>10.0}",
            m.node_failures,
            m.failure_killed,
            m.total_tasks_completed,
            m.total_discarded_tasks,
            m.avg_waiting_time_per_task
        );
    }
}
