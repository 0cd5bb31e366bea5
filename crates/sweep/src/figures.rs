//! The paper's figures (Section VI) as executable definitions.
//!
//! Every figure plots one Table I metric against the number of generated
//! tasks, with two series — **without partial configuration** (full) and
//! **with partial configuration** — at a fixed node count:
//!
//! | Figure | Metric | Nodes |
//! |---|---|---|
//! | 6a / 6b | Average wasted area per task | 100 / 200 |
//! | 7a / 7b | Average reconfiguration count per node | 100 / 200 |
//! | 8a / 8b | Average waiting time per task | 100 / 200 |
//! | 9a | Average scheduling steps per task | 200 |
//! | 9b | Total scheduler workload | 200 |
//! | 10 | Average configuration time per task | 200 |
//!
//! Because all figures read different metrics off the same runs, the
//! harness executes one [`ExperimentGrid`] — the cross product
//! (node count × mode × task count) — and extracts every figure from it.

use crate::runner::{run_batch, SweepPoint};
use dreamsim_engine::{Metrics, ReconfigMode, SimParams};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One of the paper's evaluation figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Figure {
    Fig6a,
    Fig6b,
    Fig7a,
    Fig7b,
    Fig8a,
    Fig8b,
    Fig9a,
    Fig9b,
    Fig10,
}

impl Figure {
    /// Every figure, in paper order.
    pub const ALL: [Figure; 9] = [
        Figure::Fig6a,
        Figure::Fig6b,
        Figure::Fig7a,
        Figure::Fig7b,
        Figure::Fig8a,
        Figure::Fig8b,
        Figure::Fig9a,
        Figure::Fig9b,
        Figure::Fig10,
    ];

    /// Parse a figure id like `"6a"`, `"9b"`, `"10"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Figure> {
        match s.trim().to_ascii_lowercase().as_str() {
            "6a" => Some(Figure::Fig6a),
            "6b" => Some(Figure::Fig6b),
            "7a" => Some(Figure::Fig7a),
            "7b" => Some(Figure::Fig7b),
            "8a" => Some(Figure::Fig8a),
            "8b" => Some(Figure::Fig8b),
            "9a" => Some(Figure::Fig9a),
            "9b" => Some(Figure::Fig9b),
            "10" => Some(Figure::Fig10),
            _ => None,
        }
    }

    /// Paper figure id ("6a" … "10").
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Figure::Fig6a => "6a",
            Figure::Fig6b => "6b",
            Figure::Fig7a => "7a",
            Figure::Fig7b => "7b",
            Figure::Fig8a => "8a",
            Figure::Fig8b => "8b",
            Figure::Fig9a => "9a",
            Figure::Fig9b => "9b",
            Figure::Fig10 => "10",
        }
    }

    /// Node count the figure fixes.
    #[must_use]
    pub fn node_count(self) -> usize {
        match self {
            Figure::Fig6a | Figure::Fig7a | Figure::Fig8a => 100,
            _ => 200,
        }
    }

    /// Human-readable metric name (the figure's y-axis).
    #[must_use]
    pub fn metric_name(self) -> &'static str {
        match self {
            Figure::Fig6a | Figure::Fig6b => "average wasted area per task",
            Figure::Fig7a | Figure::Fig7b => "average reconfiguration count per node",
            Figure::Fig8a | Figure::Fig8b => "average waiting time per task",
            Figure::Fig9a => "average scheduling steps per task",
            Figure::Fig9b => "total scheduler workload",
            Figure::Fig10 => "average configuration time per task",
        }
    }

    /// Extract the figure's metric from a run.
    #[must_use]
    pub fn extract(self, m: &Metrics) -> f64 {
        match self {
            Figure::Fig6a | Figure::Fig6b => m.avg_wasted_area_per_task,
            Figure::Fig7a | Figure::Fig7b => m.avg_reconfig_count_per_node,
            Figure::Fig8a | Figure::Fig8b => m.avg_waiting_time_per_task,
            Figure::Fig9a => m.avg_scheduling_steps_per_task,
            Figure::Fig9b => m.total_scheduler_workload as f64,
            Figure::Fig10 => m.avg_config_time_per_task,
        }
    }

    /// The direction the paper reports: does the partial-reconfiguration
    /// series sit **below** the full series on this figure?
    ///
    /// Partial wins (lower) on wasted area, waiting time, scheduling
    /// steps, and scheduler workload; it is **higher** on
    /// reconfiguration count and configuration time (more
    /// reconfigurations is the price of packing more tasks per node).
    #[must_use]
    pub fn partial_expected_lower(self) -> bool {
        !matches!(self, Figure::Fig7a | Figure::Fig7b | Figure::Fig10)
    }
}

impl std::fmt::Display for Figure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Figure {}", self.id())
    }
}

/// The two series of one figure across the task-count sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct FigureSeries {
    /// Which figure.
    pub figure: Figure,
    /// X axis: total tasks generated.
    pub task_counts: Vec<usize>,
    /// Without partial configuration.
    pub full: Vec<f64>,
    /// With partial configuration.
    pub partial: Vec<f64>,
}

impl FigureSeries {
    /// CSV with header, one row per task count.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("tasks,without_partial,with_partial\n");
        for ((&t, &f), &p) in self.task_counts.iter().zip(&self.full).zip(&self.partial) {
            let _ = writeln!(out, "{t},{f},{p}");
        }
        out
    }

    /// Fraction of sweep points where the partial series is on the side
    /// of the full series that the paper reports (1.0 = every point).
    #[must_use]
    pub fn agreement_with_paper(&self) -> f64 {
        if self.task_counts.is_empty() {
            return 1.0;
        }
        let lower = self.figure.partial_expected_lower();
        let ok = self
            .full
            .iter()
            .zip(&self.partial)
            .filter(|&(&f, &p)| if lower { p <= f } else { p >= f })
            .count();
        ok as f64 / self.task_counts.len() as f64
    }
}

/// Results of the full experiment grid: metrics per
/// (node count, mode, task count).
#[derive(Clone, Debug)]
pub struct ExperimentGrid {
    /// Task counts swept (ascending).
    pub task_counts: Vec<usize>,
    /// Base seed.
    pub seed: u64,
    results: BTreeMap<(usize, &'static str, usize), Metrics>,
}

impl ExperimentGrid {
    /// Run the grid: `node_counts × {full, partial} × task_counts`,
    /// on `threads` threads. Every cell runs the Table II defaults with
    /// a seed derived from `seed` so cells are independent but
    /// reproducible. Pinned by the seed-golden figures test.
    #[must_use]
    pub fn run(node_counts: &[usize], task_counts: &[usize], seed: u64, threads: usize) -> Self {
        let cells = node_counts.len() * 2 * task_counts.len();
        let mut points = Vec::with_capacity(cells);
        let mut keys = Vec::with_capacity(cells);
        for &nodes in node_counts {
            for mode in [ReconfigMode::Full, ReconfigMode::Partial] {
                for &tasks in task_counts {
                    let mut params = SimParams::paper(nodes, tasks, mode);
                    // One seed per (nodes, tasks) cell, shared by both
                    // modes: the paper compares the two scenarios "for
                    // the same set of parameters in each simulation run".
                    params.seed =
                        dreamsim_rng::derive_stream(seed, (nodes as u64) << 32 | tasks as u64);
                    keys.push((nodes, mode.label(), tasks));
                    points.push(SweepPoint::new(
                        format!("n{nodes}-{}-t{tasks}", mode.label()),
                        params,
                    ));
                }
            }
        }
        let reports = run_batch(&points, threads);
        let results = keys
            .into_iter()
            .zip(reports.into_iter().map(|r| r.metrics))
            .collect();
        Self {
            task_counts: task_counts.to_vec(),
            seed,
            results,
        }
    }

    /// Metrics of one cell.
    #[must_use]
    pub fn cell(&self, nodes: usize, mode: ReconfigMode, tasks: usize) -> Option<&Metrics> {
        self.results.get(&(nodes, mode.label(), tasks))
    }

    /// Extract a figure's two series. Panics if the grid was not run
    /// with the figure's node count.
    #[must_use]
    pub fn figure(&self, fig: Figure) -> FigureSeries {
        let nodes = fig.node_count();
        let series = |mode: ReconfigMode| -> Vec<f64> {
            self.task_counts
                .iter()
                .map(|&t| {
                    let m = self
                        .cell(nodes, mode, t)
                        .unwrap_or_else(|| panic!("grid missing {nodes} nodes / {t} tasks"));
                    fig.extract(m)
                })
                .collect()
        };
        FigureSeries {
            figure: fig,
            task_counts: self.task_counts.clone(),
            full: series(ReconfigMode::Full),
            partial: series(ReconfigMode::Partial),
        }
    }

    /// All figures whose node count the grid covers.
    #[must_use]
    pub fn available_figures(&self, node_counts: &[usize]) -> Vec<Figure> {
        Figure::ALL
            .into_iter()
            .filter(|f| node_counts.contains(&f.node_count()))
            .collect()
    }

    /// Deterministic per-cell dump (one line per cell, key order) of
    /// the headline Table I metrics. Unlike
    /// [`figures_csv_bundle`](Self::figures_csv_bundle) this covers
    /// *every* cell, including node counts no paper figure fixes — the
    /// parallel-determinism tests compare it across thread counts, and
    /// the `figures-grid` benchmark workload digests it.
    #[must_use]
    pub fn cells_csv(&self) -> String {
        let mut out = String::from(
            "nodes,mode,tasks,avg_wait,avg_wasted_area,avg_reconfigs,steps,workload\n",
        );
        for (&(n, mode, t), m) in &self.results {
            let _ = writeln!(
                out,
                "{n},{mode},{t},{},{},{},{},{}",
                m.avg_waiting_time_per_task,
                m.avg_wasted_area_per_task,
                m.avg_reconfig_count_per_node,
                m.avg_scheduling_steps_per_task,
                m.total_scheduler_workload,
            );
        }
        out
    }

    /// Deterministic concatenation of every available figure's CSV
    /// (paper order, each prefixed by a `# figure <id>` line). One
    /// string summarizing the whole grid — what the thread-invariance
    /// tests and the CI `grid-parallel` job checksum.
    #[must_use]
    pub fn figures_csv_bundle(&self, node_counts: &[usize]) -> String {
        let mut out = String::new();
        for f in self.available_figures(node_counts) {
            let _ = writeln!(out, "# figure {}", f.id());
            out.push_str(&self.figure(f).to_csv());
        }
        out
    }
}

/// The paper sweeps 1 000 … 100 000 tasks; this returns a geometric
/// subsample capped at `max_tasks` (figure regeneration at full scale
/// takes minutes; scaled-down sweeps preserve the shapes).
#[must_use]
pub fn default_task_counts(max_tasks: usize) -> Vec<usize> {
    let ladder = [1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000];
    let v: Vec<usize> = ladder.into_iter().filter(|&t| t <= max_tasks).collect();
    if v.is_empty() {
        vec![max_tasks.max(1)]
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_metadata_matches_paper() {
        assert_eq!(Figure::Fig6a.node_count(), 100);
        assert_eq!(Figure::Fig6b.node_count(), 200);
        assert_eq!(Figure::Fig9b.metric_name(), "total scheduler workload");
        assert!(Figure::Fig6a.partial_expected_lower());
        assert!(!Figure::Fig7a.partial_expected_lower());
        assert!(!Figure::Fig10.partial_expected_lower());
        assert!(Figure::Fig9a.partial_expected_lower());
        assert_eq!(Figure::ALL.len(), 9);
    }

    #[test]
    fn figure_parse_round_trips() {
        for f in Figure::ALL {
            assert_eq!(Figure::parse(f.id()), Some(f), "{f}");
        }
        assert_eq!(Figure::parse("11"), None);
        assert_eq!(Figure::parse(" 6A "), Some(Figure::Fig6a));
    }

    #[test]
    fn default_task_counts_respect_cap() {
        assert_eq!(default_task_counts(5_000), vec![1_000, 2_000, 5_000]);
        assert_eq!(default_task_counts(100_000).len(), 7);
        assert_eq!(default_task_counts(500), vec![500]);
    }

    #[test]
    fn small_grid_yields_all_200_node_figures() {
        let grid = ExperimentGrid::run(&[200], &[300, 600], 42, 0);
        let figs = grid.available_figures(&[200]);
        assert_eq!(figs.len(), 6, "six 200-node figures");
        for f in figs {
            let s = grid.figure(f);
            assert_eq!(s.task_counts, vec![300, 600]);
            assert_eq!(s.full.len(), 2);
            assert_eq!(s.partial.len(), 2);
            let csv = s.to_csv();
            assert!(csv.starts_with("tasks,"));
            assert_eq!(csv.lines().count(), 3);
        }
    }

    #[test]
    fn grid_cells_reproducible_across_runs() {
        let a = ExperimentGrid::run(&[100], &[200], 7, 2);
        let b = ExperimentGrid::run(&[100], &[200], 7, 1);
        assert_eq!(
            a.cell(100, ReconfigMode::Partial, 200),
            b.cell(100, ReconfigMode::Partial, 200)
        );
        assert_eq!(
            a.cell(100, ReconfigMode::Full, 200),
            b.cell(100, ReconfigMode::Full, 200)
        );
    }

    #[test]
    fn agreement_metric_counts_directions() {
        let s = FigureSeries {
            figure: Figure::Fig6a,
            task_counts: vec![1, 2, 3, 4],
            full: vec![10.0, 10.0, 10.0, 10.0],
            partial: vec![5.0, 5.0, 15.0, 5.0],
        };
        assert!((s.agreement_with_paper() - 0.75).abs() < 1e-12);
    }
}
