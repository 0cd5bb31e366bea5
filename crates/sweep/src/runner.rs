//! Declarative simulation runs and the parallel batch runner.
//!
//! Every run is fully described by a [`SweepPoint`] (parameters + policy
//! configuration); running it is a pure function of that description, so
//! batches can execute on any number of threads in any order and still
//! produce identical reports — pinned by the determinism tests.

use crate::parallel::{cost_descending_order, effective_jobs, run_ordered};
use dreamsim_engine::{Report, SimParams, Simulation, StatsBackend};
use dreamsim_sched::{AllocationStrategy, CaseStudyScheduler};
use dreamsim_workload::SyntheticSource;

/// Which scheduling policy a run uses (a value-level description, so
/// sweeps can be declared as data).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolicyConfig {
    /// Allocation-phase strategy (paper: best fit).
    pub strategy: AllocationStrategy,
    /// Use naive full-scan searches instead of the idle/busy lists
    /// (ablation A2).
    pub naive_search: bool,
}

impl PolicyConfig {
    /// The paper-faithful configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self::default()
    }

    pub(crate) fn build(self) -> CaseStudyScheduler {
        CaseStudyScheduler::with_strategy(self.strategy).with_naive_search(self.naive_search)
    }
}

/// One point of a sweep: a label, full parameters, and the policy.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Free-form label carried into outputs.
    pub label: String,
    /// Simulation parameters.
    pub params: SimParams,
    /// Policy configuration.
    pub policy: PolicyConfig,
    /// Waiting-time statistics backend. Byte-equivalent up to the
    /// sketch's exact window, error-bounded beyond (DESIGN.md §16).
    pub stats: StatsBackend,
}

impl SweepPoint {
    /// A paper-faithful point with the given label and parameters.
    #[must_use]
    pub fn new(label: impl Into<String>, params: SimParams) -> Self {
        Self {
            label: label.into(),
            params,
            policy: PolicyConfig::paper(),
            stats: StatsBackend::Exact,
        }
    }

    /// Builder-style policy override.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyConfig) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style statistics-backend override.
    #[must_use]
    pub fn with_stats(mut self, stats: StatsBackend) -> Self {
        self.stats = stats;
        self
    }
}

/// Run a single point to completion (synthetic Table II workload).
///
/// # Panics
/// Panics if the parameters fail validation — sweep declarations are
/// programmer input, not user input.
#[must_use]
pub fn run_point(point: &SweepPoint) -> Report {
    let source = SyntheticSource::from_params(&point.params);
    Simulation::new(point.params.clone(), source, point.policy.build())
        // INVARIANT: sweep declarations are programmer input (documented
        // panic above), validated once per point.
        .expect("sweep point parameters must validate")
        .with_stats_backend(point.stats)
        .run()
        .report
}

/// Run a batch across `jobs` OS threads (clamped to the batch size;
/// 0 selects the available parallelism) on the deterministic pool
/// ([`crate::parallel`]). Results are returned in input order and are
/// byte-identical for every thread count; workers claim the costliest
/// points first (LPT) to shrink the straggler tail, which affects
/// wall-clock only.
#[must_use]
pub fn run_batch(points: &[SweepPoint], jobs: usize) -> Vec<Report> {
    if points.is_empty() {
        return Vec::new();
    }
    let jobs = effective_jobs(jobs, points.len());
    let costs: Vec<u64> = points
        .iter()
        .map(|p| (p.params.total_tasks as u64).saturating_mul(p.params.total_nodes as u64))
        .collect();
    let order = cost_descending_order(&costs);
    run_ordered(&order, jobs, |i| run_point(&points[i]))
}

/// Summary of one metric over seed replications.
#[derive(Clone, Debug, PartialEq)]
pub struct Replicated {
    /// Per-replica values, in replica order.
    pub samples: Vec<f64>,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for one replica).
    pub std_dev: f64,
    /// Half-width of the normal-approximation 95 % confidence interval
    /// (`1.96·σ/√n`).
    pub ci95_half_width: f64,
}

impl Replicated {
    fn from_samples(samples: Vec<f64>) -> Self {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n.max(1.0);
        let std_dev = if samples.len() > 1 {
            (samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)).sqrt()
        } else {
            0.0
        };
        let ci95_half_width = if samples.len() > 1 {
            1.96 * std_dev / n.sqrt()
        } else {
            0.0
        };
        Self {
            samples,
            mean,
            std_dev,
            ci95_half_width,
        }
    }
}

/// Run `replicas` seed-replications of `point` (replica `r` uses the
/// seed stream `derive_stream(point.params.seed, r)`) across `threads`
/// threads, and summarize `metric` over them. Replication quantifies
/// how much of a figure's shape is seed noise — the paper reports
/// single runs.
#[must_use]
pub fn replicate(
    point: &SweepPoint,
    replicas: usize,
    threads: usize,
    metric: impl Fn(&dreamsim_engine::Metrics) -> f64,
) -> Replicated {
    let points: Vec<SweepPoint> = (0..replicas.max(1))
        .map(|r| {
            let mut p = point.clone();
            p.params.seed = dreamsim_rng::derive_stream(point.params.seed, r as u64);
            p.label = format!("{}#r{r}", point.label);
            p
        })
        .collect();
    let reports = run_batch(&points, threads);
    Replicated::from_samples(reports.iter().map(|r| metric(&r.metrics)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dreamsim_engine::ReconfigMode;

    fn small(seed: u64, mode: ReconfigMode) -> SweepPoint {
        let mut p = SimParams::paper(20, 200, mode);
        p.seed = seed;
        SweepPoint::new(format!("s{seed}"), p)
    }

    #[test]
    fn run_point_produces_consistent_report() {
        let r = run_point(&small(1, ReconfigMode::Partial));
        assert_eq!(r.metrics.total_tasks_generated, 200);
        assert_eq!(
            r.metrics.total_tasks_completed + r.metrics.total_discarded_tasks,
            200
        );
        assert_eq!(r.params.total_nodes, 20);
    }

    #[test]
    fn batch_results_preserve_input_order() {
        let points: Vec<SweepPoint> = (0..6).map(|i| small(i, ReconfigMode::Partial)).collect();
        let reports = run_batch(&points, 3);
        assert_eq!(reports.len(), 6);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.params.seed, i as u64, "order preserved");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let points: Vec<SweepPoint> = (0..4).map(|i| small(100 + i, ReconfigMode::Full)).collect();
        let seq = run_batch(&points, 1);
        let par = run_batch(&points, 4);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn zero_threads_selects_hardware_parallelism() {
        let points = vec![small(7, ReconfigMode::Partial)];
        let reports = run_batch(&points, 0);
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(run_batch(&[], 4).is_empty());
    }

    #[test]
    fn replication_summary_statistics() {
        let point = small(55, ReconfigMode::Partial);
        let rep = replicate(&point, 4, 0, |m| m.avg_waiting_time_per_task);
        assert_eq!(rep.samples.len(), 4);
        assert!(rep.mean > 0.0);
        assert!(rep.std_dev >= 0.0);
        assert!(rep.ci95_half_width >= 0.0);
        // Different replica seeds should not all coincide.
        let first = rep.samples[0];
        assert!(rep.samples.iter().any(|&s| (s - first).abs() > 1e-9));
        // Deterministic: same call, same summary.
        let rep2 = replicate(&point, 4, 2, |m| m.avg_waiting_time_per_task);
        assert_eq!(rep, rep2);
    }

    #[test]
    fn single_replica_has_zero_spread() {
        let point = small(56, ReconfigMode::Full);
        let rep = replicate(&point, 1, 1, |m| m.total_scheduler_workload as f64);
        assert_eq!(rep.samples.len(), 1);
        assert_eq!(rep.std_dev, 0.0);
        assert_eq!(rep.ci95_half_width, 0.0);
        assert_eq!(rep.mean, rep.samples[0]);
    }

    #[test]
    fn stats_backend_points_report_identically() {
        let point = small(9, ReconfigMode::Partial);
        let base = run_point(&point);
        // 200 placed tasks sit far below the sketch's exact window, so
        // the sketch report is byte-identical.
        let sk = run_point(&point.clone().with_stats(StatsBackend::Sketch));
        assert_eq!(
            base.metrics, sk.metrics,
            "stats backends must be equivalent"
        );
        assert_eq!(base.to_xml(), sk.to_xml());
    }

    #[test]
    fn policy_config_builds_requested_strategy() {
        let p = PolicyConfig {
            strategy: AllocationStrategy::WorstFit,
            naive_search: true,
        };
        let s = p.build();
        assert_eq!(s.strategy(), AllocationStrategy::WorstFit);
    }
}
