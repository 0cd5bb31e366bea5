//! Statistics accumulation and the Table I performance metrics.
//!
//! [`Stats`] is the running accumulator the driver updates as events are
//! processed; [`Metrics`] is the finalized report (`MakeReport()` in the
//! UML), with one field per Table I row plus the extra counters this
//! implementation exposes.
//!
//! ## The wasted-area metric
//!
//! As discussed in DESIGN.md, Eq. 6/7 are reproduced in two forms:
//!
//! * `avg_wasted_area_per_task` (the paper's headline figure metric) —
//!   **per-allocation accumulation**: each time a task is placed, the
//!   chosen node's `AvailableArea` after the placement is added to
//!   `Total_Wasted_Area`; the average divides by tasks generated (Eq. 7).
//! * `wasted_area_snapshot_end` — the literal Eq. 6 sum at the end of the
//!   run, over nodes holding at least one configuration.

use crate::params::SimParams;
use dreamsim_model::{Area, StepCounter, Ticks};
use serde::{Deserialize, Serialize};

/// Which algorithmic phase of Section V placed a task (Fig. 5's four
/// parts plus suspension-queue resumption).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Direct allocation onto an already-configured idle instance.
    Allocation,
    /// Configuration of a blank node.
    Configuration,
    /// Partial configuration into a node's spare area.
    PartialConfiguration,
    /// Partial re-configuration after evicting idle regions
    /// (full-mode re-configuration uses this bucket too).
    PartialReconfiguration,
}

/// Per-phase placement counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseCounts {
    /// Placements by direct allocation.
    pub allocation: u64,
    /// Placements by configuring a blank node.
    pub configuration: u64,
    /// Placements by partial configuration.
    pub partial_configuration: u64,
    /// Placements by (partial) re-configuration.
    pub partial_reconfiguration: u64,
    /// Placements that came out of the suspension queue (these also
    /// count in one of the four phase buckets).
    pub resumed: u64,
}

impl PhaseCounts {
    /// Total placements across the four phases.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.allocation
            + self.configuration
            + self.partial_configuration
            + self.partial_reconfiguration
    }

    /// Bump the counter for `phase`.
    pub fn bump(&mut self, phase: PhaseKind) {
        match phase {
            PhaseKind::Allocation => self.allocation += 1,
            PhaseKind::Configuration => self.configuration += 1,
            PhaseKind::PartialConfiguration => self.partial_configuration += 1,
            PhaseKind::PartialReconfiguration => self.partial_reconfiguration += 1,
        }
    }
}

/// One sliding-window bucket of live service metrics: event counts over
/// `[start, start + window)` ticks of simulated time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowBucket {
    /// First tick the bucket covers (inclusive).
    pub start: Ticks,
    /// Tasks that arrived inside the bucket.
    pub arrivals: u64,
    /// Tasks that completed inside the bucket.
    pub completions: u64,
    /// Tasks discarded inside the bucket.
    pub discards: u64,
    /// Placements inside the bucket.
    pub placements: u64,
    /// Σ waiting time over placements inside the bucket.
    pub wait_sum: u64,
}

/// Sliding-window live metrics for the open-system service driver
/// (`dreamsim serve`): a rolling sequence of fixed-length
/// [`WindowBucket`]s, with bounded retention of closed buckets and
/// lifetime peak counters that survive trimming. `None` in
/// [`Stats::window`] (every batch run) leaves the accumulator — and the
/// serialized checkpoint shape — untouched.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Bucket length, in ticks (nonzero).
    pub window: Ticks,
    /// How many closed buckets to retain; older ones are trimmed.
    pub retain: u64,
    /// The bucket currently accumulating.
    pub current: WindowBucket,
    /// Closed buckets, oldest first, at most `retain` of them.
    pub closed: Vec<WindowBucket>,
    /// Lifetime count of closed buckets (trimming does not decrement).
    pub closed_total: u64,
    /// Lifetime peak `arrivals` over closed buckets.
    pub peak_arrivals: u64,
    /// Lifetime peak `completions` over closed buckets.
    pub peak_completions: u64,
}

impl WindowStats {
    /// Fresh window accounting starting at tick 0.
    #[must_use]
    pub fn new(window: Ticks, retain: u64) -> Self {
        Self {
            window: window.max(1),
            retain: retain.max(1),
            current: WindowBucket::default(),
            closed: Vec::new(),
            closed_total: 0,
            peak_arrivals: 0,
            peak_completions: 0,
        }
    }

    /// Close every bucket that ends at or before `now` (simulated
    /// time), trimming retention as buckets close. Idempotent for a
    /// given `now`; callers roll before recording events at `now`.
    pub fn roll(&mut self, now: Ticks) {
        // BOUND: each iteration advances current.start by window >= 1,
        // so the loop runs at most (now - start) / window times.
        while self.current.start + self.window <= now {
            let next_start = self.current.start + self.window;
            let bucket = std::mem::take(&mut self.current);
            self.closed_total += 1;
            self.peak_arrivals = self.peak_arrivals.max(bucket.arrivals);
            self.peak_completions = self.peak_completions.max(bucket.completions);
            self.closed.push(bucket);
            // BOUND: retain >= 1, enforced in new().
            while self.closed.len() as u64 > self.retain {
                self.closed.remove(0);
            }
            self.current.start = next_start;
        }
    }
}

/// Running accumulator over one simulation.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    /// Tasks created (`TotalCurGenTasks` → `TotalTasks`).
    pub generated: u64,
    /// Tasks completed (`TotalCompletedTasks`).
    pub completed: u64,
    /// Tasks discarded (`TotalDiscardedTasks`).
    pub discarded: u64,
    /// Placements per phase.
    pub phases: PhaseCounts,
    /// Per-allocation wasted-area accumulation (`Total_Wasted_Area`).
    pub total_wasted_area: u64,
    /// Σ `twait` over placed tasks (`Total_Task_Wait_Time`, Eq. 8).
    pub total_wait: u64,
    /// Σ (completion − creation) over completed tasks
    /// (`Total_Tasks_Running_Time`).
    pub total_running_time: u64,
    /// Σ configuration time paid (`Total_Configuration_Time`; equals
    /// Eq. 10 because every reconfiguration is charged as it happens).
    pub total_config_time: u64,
    /// Tasks killed by injected node failures (extension).
    pub failure_killed: u64,
    /// Node failures injected (extension).
    pub node_failures: u64,
    /// Bitstream loads that failed (fault-injection extension).
    pub reconfig_failures: u64,
    /// Reconfiguration retries scheduled after failed bitstream loads
    /// (fault-injection extension).
    pub reconfig_retries: u64,
    /// Tasks that failed mid-execution (fault-injection extension).
    pub task_failures: u64,
    /// Fault-killed tasks resubmitted to the scheduler (fault-injection
    /// extension).
    pub resubmissions: u64,
    /// Tasks discarded because of injected faults: killed by node
    /// failures, failed beyond the retry budget, or timed out in the
    /// suspension queue (fault-injection extension).
    pub tasks_lost: u64,
    /// Tasks shed by load-shedding: admission-policy rejections plus
    /// suspension-deadline timeouts (chaos-layer extension).
    pub tasks_shed: u64,
    /// Tasks placed degraded — on a strictly larger configuration — by
    /// the `degrade-to-closest-match` admission policy (chaos-layer
    /// extension).
    pub tasks_degraded: u64,
    /// Every placed task's waiting time, for distribution statistics
    /// (P50/P95/P99 in [`Metrics`]); one `u64` per placed task. A
    /// checkpoint carries them here, so a resumed run reports the same
    /// percentiles.
    pub wait_samples: Vec<Ticks>,
    /// Sliding-window live metrics (service mode only; `None` in batch
    /// runs, which keeps batch checkpoints shape-stable).
    pub window: Option<WindowStats>,
}

impl Stats {
    /// Record a task arrival.
    pub fn record_arrival(&mut self) {
        self.generated += 1;
        if let Some(w) = &mut self.window {
            w.current.arrivals += 1;
        }
    }

    /// Record a placement: the phase that produced it, the waiting time
    /// (Eq. 8), the configuration time paid, the chosen node's leftover
    /// area, and whether the task came from the suspension queue.
    pub fn record_placement(
        &mut self,
        phase: PhaseKind,
        wait: Ticks,
        config_time: Ticks,
        wasted_after: Area,
        resumed: bool,
    ) {
        self.phases.bump(phase);
        if resumed {
            self.phases.resumed += 1;
        }
        self.total_wait += wait;
        self.total_config_time += config_time;
        // BOUND: wasted_after is a node's available area, at most its
        // total area (Eq. 4), which parameters and checkpoints cap at
        // MAX_AREA = 2^24: the sum cannot reach 2^64 before 2^40 placements.
        self.total_wasted_area += wasted_after;
        self.wait_samples.push(wait);
        if let Some(w) = &mut self.window {
            w.current.placements += 1;
            w.current.wait_sum += wait;
        }
    }

    /// Record a completion with the task's total residence time
    /// (creation → completion).
    pub fn record_completion(&mut self, residence: Ticks) {
        self.completed += 1;
        self.total_running_time += residence;
        if let Some(w) = &mut self.window {
            w.current.completions += 1;
        }
    }

    /// Record a discard.
    pub fn record_discard(&mut self) {
        self.discarded += 1;
        if let Some(w) = &mut self.window {
            w.current.discards += 1;
        }
    }

    /// Record a failed bitstream load. The configuration time was already
    /// spent on the aborted attempt, so it is charged to
    /// `total_config_time` just like a successful reconfiguration
    /// (Eq. 10 counts time paid, not configurations achieved).
    pub fn record_reconfig_failure(&mut self, config_time: Ticks) {
        self.reconfig_failures += 1;
        self.total_config_time += config_time;
    }

    /// Finalize into the Table I metric set. Sorts
    /// [`wait_samples`](Self::wait_samples) in place to rank them.
    #[must_use]
    pub fn finalize(
        &mut self,
        params: &SimParams,
        steps: StepCounter,
        end_time: Ticks,
        wasted_area_snapshot_end: Area,
        total_reconfigurations: u64,
        used_nodes: usize,
        total_suspensions: u64,
        suspension_peak: usize,
        mean_fragmentation_end: f64,
        node_downtime: Ticks,
    ) -> Metrics {
        // TIEBREAK: u64 keys — equal waits are indistinguishable, so an
        // unstable sort cannot reorder anything observable.
        self.wait_samples.sort_unstable();
        let waits = &self.wait_samples;
        let per_task = |x: u64| {
            if self.generated == 0 {
                0.0
            } else {
                x as f64 / self.generated as f64
            }
        };
        let pct = |p: f64| -> Ticks {
            if waits.is_empty() {
                0
            } else {
                // BOUND: p in [0,1], so the index is at most waits.len() - 1.
                let idx = ((waits.len() - 1) as f64 * p).round() as usize;
                waits[idx]
            }
        };
        Metrics {
            mode: params.mode.label().to_string(),
            total_nodes: params.total_nodes as u64,
            total_tasks_generated: self.generated,
            total_tasks_completed: self.completed,
            total_discarded_tasks: self.discarded,
            total_suspensions,
            suspension_peak_len: suspension_peak as u64,
            avg_wasted_area_per_task: per_task(self.total_wasted_area),
            wasted_area_snapshot_end,
            avg_running_time_per_task: if self.completed == 0 {
                0.0
            } else {
                self.total_running_time as f64 / self.completed as f64
            },
            avg_reconfig_count_per_node: total_reconfigurations as f64 / params.total_nodes as f64,
            total_reconfigurations,
            avg_config_time_per_task: per_task(self.total_config_time),
            total_config_time: self.total_config_time,
            avg_waiting_time_per_task: per_task(self.total_wait),
            wait_p50: pct(0.50),
            wait_p95: pct(0.95),
            wait_p99: pct(0.99),
            wait_max: waits.last().copied().unwrap_or(0),
            avg_scheduling_steps_per_task: per_task(steps.scheduling),
            scheduler_search_length: steps.scheduling,
            housekeeping_steps: steps.housekeeping,
            total_scheduler_workload: steps.total_workload(),
            total_used_nodes: used_nodes as u64,
            total_simulation_time: end_time,
            phases: self.phases,
            failure_killed: self.failure_killed,
            node_failures: self.node_failures,
            reconfig_failures: self.reconfig_failures,
            reconfig_retries: self.reconfig_retries,
            task_failures: self.task_failures,
            resubmissions: self.resubmissions,
            tasks_lost: self.tasks_lost,
            tasks_shed: self.tasks_shed,
            tasks_degraded: self.tasks_degraded,
            node_downtime,
            mean_fragmentation_end,
            domain_outages: 0,
            domain_restores: 0,
            domain_downtime: Vec::new(),
            mean_time_to_recover: 0.0,
            windows_closed: self.window.as_ref().map_or(0, |w| w.closed_total),
            window_peak_arrivals: self.window.as_ref().map_or(0, |w| w.peak_arrivals),
            window_peak_completions: self.window.as_ref().map_or(0, |w| w.peak_completions),
        }
    }
}

/// The finalized Table I metric set for one run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Reconfiguration mode label ("full" / "partial").
    pub mode: String,
    /// Node count the run used.
    pub total_nodes: u64,
    /// Tasks generated.
    pub total_tasks_generated: u64,
    /// Tasks completed.
    pub total_tasks_completed: u64,
    /// Table I: *Total discarded tasks*.
    pub total_discarded_tasks: u64,
    /// Number of suspensions performed.
    pub total_suspensions: u64,
    /// Peak suspension-queue length.
    pub suspension_peak_len: u64,
    /// Table I: *Average wasted area per task* (Eq. 7, per-allocation
    /// accumulation).
    pub avg_wasted_area_per_task: f64,
    /// Literal Eq. 6 snapshot at end of run.
    pub wasted_area_snapshot_end: Area,
    /// Table I: *Average running time of each task* (arrival →
    /// completion).
    pub avg_running_time_per_task: f64,
    /// Table I: *Average reconfiguration count per node*.
    pub avg_reconfig_count_per_node: f64,
    /// Total reconfigurations across all nodes.
    pub total_reconfigurations: u64,
    /// Table I: *Average reconfiguration time per task* (Eq. 10 / tasks).
    pub avg_config_time_per_task: f64,
    /// Total configuration time paid (Eq. 10).
    pub total_config_time: Ticks,
    /// Table I: *Average waiting time per task* (Eq. 9).
    pub avg_waiting_time_per_task: f64,
    /// Median waiting time over placed tasks (distribution extension).
    pub wait_p50: Ticks,
    /// 95th-percentile waiting time over placed tasks.
    pub wait_p95: Ticks,
    /// 99th-percentile waiting time over placed tasks.
    pub wait_p99: Ticks,
    /// Maximum waiting time over placed tasks.
    pub wait_max: Ticks,
    /// Table I: *Average scheduling steps per task*.
    pub avg_scheduling_steps_per_task: f64,
    /// Scheduler search length (`Total_Search_Length_Scheduler`).
    pub scheduler_search_length: u64,
    /// Housekeeping steps by the resource information module.
    pub housekeeping_steps: u64,
    /// Table I: *Total scheduler workload* (search + housekeeping).
    pub total_scheduler_workload: u64,
    /// Table I: *Total used nodes* (nodes configured at least once).
    pub total_used_nodes: u64,
    /// Table I: *Total simulation time* (Eq. 5).
    pub total_simulation_time: Ticks,
    /// Placements per algorithmic phase.
    pub phases: PhaseCounts,
    /// Tasks killed by injected node failures (0 in paper runs).
    pub failure_killed: u64,
    /// Node failures injected (0 in paper runs).
    pub node_failures: u64,
    /// Bitstream loads that failed (0 in paper runs).
    #[serde(default)]
    pub reconfig_failures: u64,
    /// Reconfiguration retries scheduled after failed loads (0 in paper
    /// runs).
    #[serde(default)]
    pub reconfig_retries: u64,
    /// Tasks that failed mid-execution (0 in paper runs).
    #[serde(default)]
    pub task_failures: u64,
    /// Fault-killed tasks resubmitted to the scheduler (0 in paper runs).
    #[serde(default)]
    pub resubmissions: u64,
    /// Tasks discarded because of injected faults (0 in paper runs).
    #[serde(default)]
    pub tasks_lost: u64,
    /// Tasks shed by load-shedding — admission-policy rejections plus
    /// suspension-deadline timeouts (0 in paper runs).
    #[serde(default)]
    pub tasks_shed: u64,
    /// Tasks placed degraded on a strictly larger configuration by the
    /// `degrade-to-closest-match` admission policy (0 in paper runs).
    #[serde(default)]
    pub tasks_degraded: u64,
    /// Total ticks nodes spent failed, summed over nodes (0 in paper
    /// runs).
    #[serde(default)]
    pub node_downtime: Ticks,
    /// Mean external fragmentation over configured nodes at the end of
    /// the run (always 0 under the paper's scalar area model; nonzero
    /// only with `PlacementModel::Contiguous`).
    pub mean_fragmentation_end: f64,
    /// Correlated domain outages that started (0 without `--domains`).
    #[serde(default)]
    pub domain_outages: u64,
    /// Domain outages that completed — the domain was restored — before
    /// the run ended (0 without `--domains`).
    #[serde(default)]
    pub domain_restores: u64,
    /// Downtime per failure domain in ticks; open outages accrue to the
    /// end of the run. Empty without `--domains`.
    #[serde(default)]
    pub domain_downtime: Vec<Ticks>,
    /// Mean time-to-recover over completed domain outages (0 when none
    /// completed).
    #[serde(default)]
    pub mean_time_to_recover: f64,
    /// Sliding-window buckets closed over the service window (0 in
    /// batch runs).
    #[serde(default)]
    pub windows_closed: u64,
    /// Lifetime peak arrivals in one sliding-window bucket (0 in batch
    /// runs).
    #[serde(default)]
    pub window_peak_arrivals: u64,
    /// Lifetime peak completions in one sliding-window bucket (0 in
    /// batch runs).
    #[serde(default)]
    pub window_peak_completions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ReconfigMode;

    fn finalize(stats: &Stats, steps: StepCounter) -> Metrics {
        let params = SimParams::paper(100, 1000, ReconfigMode::Partial);
        stats
            .clone()
            .finalize(&params, steps, 5_000, 1234, 321, 77, 12, 4, 0.0, 0)
    }

    #[test]
    fn averages_divide_by_generated_tasks() {
        let mut s = Stats::default();
        for _ in 0..10 {
            s.record_arrival();
        }
        for i in 0..8 {
            s.record_placement(PhaseKind::Allocation, 100 + i, 10, 50, false);
        }
        let m = finalize(
            &s,
            StepCounter {
                scheduling: 500,
                housekeeping: 300,
            },
        );
        assert_eq!(m.total_tasks_generated, 10);
        // Σ wait = 8*100 + (0+..+7) = 828; /10 generated.
        assert!((m.avg_waiting_time_per_task - 82.8).abs() < 1e-9);
        assert!((m.avg_config_time_per_task - 8.0).abs() < 1e-9);
        assert!((m.avg_wasted_area_per_task - 40.0).abs() < 1e-9);
        assert!((m.avg_scheduling_steps_per_task - 50.0).abs() < 1e-9);
        assert_eq!(m.total_scheduler_workload, 800);
    }

    #[test]
    fn running_time_divides_by_completed() {
        let mut s = Stats::default();
        s.record_arrival();
        s.record_arrival();
        s.record_completion(1000);
        let m = finalize(&s, StepCounter::default());
        assert!((m.avg_running_time_per_task - 1000.0).abs() < 1e-9);
        assert_eq!(m.total_tasks_completed, 1);
    }

    #[test]
    fn reconfig_count_divides_by_node_count() {
        let s = Stats::default();
        let m = finalize(&s, StepCounter::default());
        // 321 reconfigs over 100 nodes.
        assert!((m.avg_reconfig_count_per_node - 3.21).abs() < 1e-9);
        assert_eq!(m.total_used_nodes, 77);
        assert_eq!(m.total_simulation_time, 5_000);
        assert_eq!(m.wasted_area_snapshot_end, 1234);
        assert_eq!(m.total_suspensions, 12);
        assert_eq!(m.suspension_peak_len, 4);
    }

    #[test]
    fn empty_run_produces_zeroes_not_nan() {
        let s = Stats::default();
        let m = finalize(&s, StepCounter::default());
        assert_eq!(m.avg_waiting_time_per_task, 0.0);
        assert_eq!(m.avg_running_time_per_task, 0.0);
        assert!(!m.avg_wasted_area_per_task.is_nan());
    }

    #[test]
    fn phase_counts_track_every_phase() {
        let mut s = Stats::default();
        s.record_placement(PhaseKind::Allocation, 0, 0, 0, false);
        s.record_placement(PhaseKind::Configuration, 0, 15, 0, false);
        s.record_placement(PhaseKind::PartialConfiguration, 0, 15, 0, true);
        s.record_placement(PhaseKind::PartialReconfiguration, 0, 15, 0, false);
        assert_eq!(s.phases.total(), 4);
        assert_eq!(s.phases.resumed, 1);
        assert_eq!(s.phases.allocation, 1);
        assert_eq!(s.phases.configuration, 1);
        assert_eq!(s.phases.partial_configuration, 1);
        assert_eq!(s.phases.partial_reconfiguration, 1);
        assert_eq!(s.total_config_time, 45);
    }

    #[test]
    fn wait_percentiles_computed_from_samples() {
        let mut s = Stats::default();
        for w in 1..=100u64 {
            s.record_arrival();
            s.record_placement(PhaseKind::Allocation, w, 0, 0, false);
        }
        let m = finalize(&s, StepCounter::default());
        // Nearest-rank on the 0-based index grid: round(99·0.5) = 50 →
        // the 51st order statistic.
        assert_eq!(m.wait_p50, 51);
        assert_eq!(m.wait_p95, 95);
        assert_eq!(m.wait_p99, 99);
        assert_eq!(m.wait_max, 100);
    }

    #[test]
    fn wait_percentiles_zero_when_nothing_placed() {
        let m = finalize(&Stats::default(), StepCounter::default());
        assert_eq!(m.wait_p50, 0);
        assert_eq!(m.wait_max, 0);
    }

    #[test]
    fn reconfig_failure_charges_config_time() {
        let mut s = Stats::default();
        s.record_reconfig_failure(15);
        s.record_reconfig_failure(15);
        assert_eq!(s.reconfig_failures, 2);
        assert_eq!(s.total_config_time, 30);
    }

    #[test]
    fn fault_counters_flow_into_metrics() {
        let mut s = Stats::default();
        s.record_reconfig_failure(15);
        s.reconfig_retries = 3;
        s.task_failures = 4;
        s.resubmissions = 5;
        s.tasks_lost = 2;
        let params = SimParams::paper(100, 1000, ReconfigMode::Partial);
        let m = s.finalize(
            &params,
            StepCounter::default(),
            5_000,
            0,
            0,
            0,
            0,
            0,
            0.0,
            777,
        );
        assert_eq!(m.reconfig_failures, 1);
        assert_eq!(m.reconfig_retries, 3);
        assert_eq!(m.task_failures, 4);
        assert_eq!(m.resubmissions, 5);
        assert_eq!(m.tasks_lost, 2);
        assert_eq!(m.node_downtime, 777);
    }

    #[test]
    fn window_buckets_roll_trim_and_track_peaks() {
        let mut s = Stats::default();
        s.window = Some(WindowStats::new(100, 2));
        for _ in 0..3 {
            s.record_arrival();
        }
        s.record_placement(PhaseKind::Allocation, 7, 0, 0, false);
        s.record_completion(50);
        let w = s.window.as_mut().unwrap();
        w.roll(100);
        assert_eq!(w.closed.len(), 1);
        assert_eq!(w.closed[0].arrivals, 3);
        assert_eq!(w.closed[0].placements, 1);
        assert_eq!(w.closed[0].wait_sum, 7);
        assert_eq!(w.closed[0].completions, 1);
        assert_eq!(w.current.start, 100);
        s.record_arrival();
        let w = s.window.as_mut().unwrap();
        // A long quiet gap closes (and trims) several empty buckets at once.
        w.roll(450);
        assert_eq!(w.closed.len(), 2);
        assert_eq!(w.closed_total, 4);
        assert_eq!(w.current.start, 400);
        assert_eq!(w.peak_arrivals, 3);
        assert_eq!(w.peak_completions, 1);
        // Rolling again at the same clock is a no-op.
        let before = w.clone();
        w.roll(450);
        assert_eq!(*w, before);
        let m = finalize(&s, StepCounter::default());
        assert_eq!(m.windows_closed, 4);
        assert_eq!(m.window_peak_arrivals, 3);
        assert_eq!(m.window_peak_completions, 1);
    }

    #[test]
    fn window_stats_absent_in_batch_metrics() {
        let m = finalize(&Stats::default(), StepCounter::default());
        assert_eq!(m.windows_closed, 0);
        assert_eq!(m.window_peak_arrivals, 0);
        assert_eq!(m.window_peak_completions, 0);
    }

    #[test]
    fn metrics_serde_round_trip() {
        let s = Stats::default();
        let m = finalize(&s, StepCounter::default());
        let js = serde_json::to_string(&m).unwrap();
        let back: Metrics = serde_json::from_str(&js).unwrap();
        assert_eq!(m, back);
    }
}
