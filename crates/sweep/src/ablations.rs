//! Ablation harnesses (DESIGN.md A1–A5): quantify the design choices the
//! paper makes but does not isolate.

use crate::runner::{run_batch, run_point, SweepPoint};
use dreamsim_engine::{Driver, Metrics, RunOptions, SimParams, Simulation};
use dreamsim_sched::{AllocationStrategy, CaseStudyScheduler};
use dreamsim_workload::SyntheticSource;

/// A1 — allocation-strategy comparison: the same workload under each
/// strategy. Returns `(strategy label, metrics)` pairs in strategy
/// order.
#[must_use]
pub fn policy_comparison(base: &SimParams, threads: usize) -> Vec<(&'static str, Metrics)> {
    let strategies = [
        AllocationStrategy::BestFit,
        AllocationStrategy::FirstFit,
        AllocationStrategy::WorstFit,
        AllocationStrategy::Random,
        AllocationStrategy::LeastLoaded,
    ];
    let points: Vec<SweepPoint> = strategies
        .iter()
        .map(|&strategy| {
            SweepPoint::new(strategy.label(), base.clone())
                .with_policy(CaseStudyScheduler::with_strategy(strategy))
        })
        .collect();
    let reports = run_batch(&points, threads);
    strategies
        .iter()
        .zip(reports)
        .map(|(s, r)| (s.label(), r.metrics))
        .collect()
}

/// A2 — data-structure ablation: list-based vs naive full-scan searches.
/// Returns `(with lists, naive)`. Scheduling outcomes are identical;
/// the interesting delta is in the step counters.
#[must_use]
pub fn datastructure_comparison(base: &SimParams) -> (Metrics, Metrics) {
    let with_lists = run_point(&SweepPoint::new("lists", base.clone()));
    let naive = run_point(
        &SweepPoint::new("naive", base.clone())
            .with_policy(CaseStudyScheduler::new().with_naive_search(true)),
    );
    (with_lists.metrics, naive.metrics)
}

/// A3 — suspension-queue ablation: paper behaviour vs
/// discard-instead-of-suspend. Returns `(with suspension, without)`.
#[must_use]
pub fn suspension_comparison(base: &SimParams) -> (Metrics, Metrics) {
    let with_q = run_point(&SweepPoint::new("suspension", base.clone()));
    let mut no_q_params = base.clone();
    no_q_params.suspension_enabled = false;
    let without = run_point(&SweepPoint::new("no-suspension", no_q_params));
    (with_q.metrics, without.metrics)
}

/// A4 — driver ablation: event-driven vs tick-stepped execution of the
/// identical run. Returns `(event-driven, tick-stepped)`; the two metric
/// sets must be equal (asserted by the equivalence tests; the benchmark
/// measures the speed gap). Keep the workload small: the tick-stepped
/// driver is O(total simulated ticks).
#[must_use]
pub fn driver_comparison(base: &SimParams) -> (Metrics, Metrics) {
    let build = || {
        Simulation::new(
            base.clone(),
            SyntheticSource::from_params(base),
            CaseStudyScheduler::new(),
        )
        // INVARIANT: ablation grids are built from the validated
        // Table II defaults; rejection would be a programmer error.
        .expect("ablation parameters must validate")
    };
    let event = build().run();
    let ticked = build()
        .run_with(&RunOptions {
            driver: Driver::TickStepped,
            ..RunOptions::default()
        })
        // INVARIANT: RunError only arises from checkpoint I/O or a
        // failed audit; these options enable neither.
        .expect("a run without checkpoints or audits cannot fail");
    (event.metrics, ticked.metrics)
}

/// A5 — placement-model ablation: the paper's scalar area budget vs
/// contiguous 1-D placement with first-fit gaps. Returns
/// `(scalar, contiguous)`. Contiguity can only reject placements the
/// scalar model admits, so completions can drop and waiting/discards
/// can rise; `mean_fragmentation_end` quantifies the external
/// fragmentation the scalar model hides.
#[must_use]
pub fn placement_comparison(base: &SimParams) -> (Metrics, Metrics) {
    use dreamsim_engine::PlacementModel;
    let scalar = run_point(&SweepPoint::new("scalar", base.clone()));
    let mut contiguous_params = base.clone();
    contiguous_params.placement = PlacementModel::Contiguous;
    let contiguous = run_point(&SweepPoint::new("contiguous", contiguous_params));
    (scalar.metrics, contiguous.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dreamsim_engine::ReconfigMode;

    fn small(mode: ReconfigMode) -> SimParams {
        let mut p = SimParams::paper(20, 150, mode);
        p.seed = 99;
        p
    }

    #[test]
    fn policy_comparison_covers_all_strategies() {
        let rows = policy_comparison(&small(ReconfigMode::Partial), 0);
        assert_eq!(rows.len(), 5);
        let labels: Vec<&str> = rows.iter().map(|(l, _)| *l).collect();
        assert_eq!(
            labels,
            vec![
                "best-fit",
                "first-fit",
                "worst-fit",
                "random",
                "least-loaded"
            ]
        );
        for (_, m) in &rows {
            assert_eq!(m.total_tasks_generated, 150);
        }
    }

    #[test]
    fn datastructure_ablation_same_outcomes_more_steps() {
        let (lists, naive) = datastructure_comparison(&small(ReconfigMode::Partial));
        // Identical scheduling outcomes...
        assert_eq!(lists.total_tasks_completed, naive.total_tasks_completed);
        assert_eq!(lists.total_discarded_tasks, naive.total_discarded_tasks);
        assert_eq!(
            lists.avg_waiting_time_per_task,
            naive.avg_waiting_time_per_task
        );
        // ...but the naive allocation search must never be cheaper.
        assert!(
            naive.scheduler_search_length >= lists.scheduler_search_length,
            "naive {} vs lists {}",
            naive.scheduler_search_length,
            lists.scheduler_search_length
        );
    }

    #[test]
    fn suspension_ablation_trades_discards_for_waiting() {
        let (with_q, without) = suspension_comparison(&small(ReconfigMode::Partial));
        assert!(without.total_suspensions == 0);
        // Without the queue, everything that would suspend is discarded.
        assert!(without.total_discarded_tasks >= with_q.total_discarded_tasks);
    }

    #[test]
    fn driver_ablation_is_an_equivalence() {
        let (event, ticked) = driver_comparison(&small(ReconfigMode::Full));
        assert_eq!(event, ticked);
    }

    #[test]
    fn placement_ablation_scalar_never_fragments() {
        let (scalar, contiguous) = placement_comparison(&small(ReconfigMode::Partial));
        assert_eq!(scalar.mean_fragmentation_end, 0.0);
        assert!(contiguous.mean_fragmentation_end >= 0.0);
        // Both runs account for every task.
        assert_eq!(
            contiguous.total_tasks_completed + contiguous.total_discarded_tasks,
            contiguous.total_tasks_generated
        );
    }
}
