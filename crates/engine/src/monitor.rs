//! The monitoring module: observers that watch simulation events.
//!
//! "The current states of different nodes can be checked by the
//! monitoring module" (Section III). Observers receive every lifecycle
//! event plus periodic resource snapshots; [`RecordingMonitor`] is the
//! bundled implementation that collects a utilization time series and
//! event counts.

use crate::sim::{DiscardReason, Placement};
use dreamsim_model::{NodeId, NodeState, ResourceManager, Task, Ticks};

/// Callbacks invoked by the simulation driver. All default to no-ops so
/// observers implement only what they need.
#[allow(unused_variables)]
pub trait Observer {
    /// A task arrived at the RMS.
    fn on_arrival(&mut self, now: Ticks, task: &Task) {}
    /// A task was placed on a node.
    fn on_placement(&mut self, now: Ticks, task: &Task, placement: &Placement) {}
    /// A task was parked in the suspension queue.
    fn on_suspend(&mut self, now: Ticks, task: &Task) {}
    /// A task was discarded.
    fn on_discard(&mut self, now: Ticks, task: &Task, reason: DiscardReason) {}
    /// A task completed.
    fn on_completion(&mut self, now: Ticks, task: &Task) {}
    /// A node failed (failure-injection extension).
    fn on_node_failure(&mut self, now: Ticks, node: NodeId) {}
    /// A failed node was repaired.
    fn on_node_repair(&mut self, now: Ticks, node: NodeId) {}
    /// A bitstream load failed during placement (fault-injection
    /// extension); `attempt` counts failed attempts for this task so far.
    fn on_reconfig_failed(&mut self, now: Ticks, task: &Task, attempt: u32) {}
    /// A task failed mid-execution (fault-injection extension).
    fn on_task_failed(&mut self, now: Ticks, task: &Task) {}
    /// A fault-killed task was resubmitted to the scheduler
    /// (fault-injection extension); `attempt` counts resubmissions.
    fn on_resubmit(&mut self, now: Ticks, task: &Task, attempt: u32) {}
    /// A correlated failure-domain outage started (chaos-layer
    /// extension). Member nodes report their own
    /// [`on_node_failure`](Self::on_node_failure) calls first.
    fn on_domain_outage(&mut self, now: Ticks, domain: u32) {}
    /// A failure-domain outage ended; member-node
    /// [`on_node_repair`](Self::on_node_repair) calls follow.
    fn on_domain_restore(&mut self, now: Ticks, domain: u32) {}
    /// Periodic resource snapshot (taken at every arrival).
    fn on_snapshot(&mut self, now: Ticks, resources: &ResourceManager, suspended: usize) {}
}

/// Observer that ignores everything (useful as a default).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// One utilization sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UtilizationSample {
    /// Sample time.
    pub time: Ticks,
    /// Fraction of nodes with at least one running task.
    pub busy_fraction: f64,
    /// Fraction of nodes with no configuration.
    pub blank_fraction: f64,
    /// Suspension-queue length.
    pub suspended: usize,
}

/// Bundled monitor recording counts and a utilization time series.
#[derive(Clone, Debug, Default)]
pub struct RecordingMonitor {
    /// Minimum ticks between stored snapshots (0 stores every snapshot).
    pub sample_interval: Ticks,
    last_sample: Option<Ticks>,
    /// Utilization time series.
    pub samples: Vec<UtilizationSample>,
    /// Arrivals seen.
    pub arrivals: u64,
    /// Placements seen.
    pub placements: u64,
    /// Suspensions seen.
    pub suspensions: u64,
    /// Discards seen.
    pub discards: u64,
    /// Completions seen.
    pub completions: u64,
    /// Node failures seen.
    pub failures: u64,
    /// Node repairs seen.
    pub repairs: u64,
    /// Failed bitstream loads seen.
    pub reconfig_failures: u64,
    /// Mid-execution task failures seen.
    pub task_failures: u64,
    /// Resubmissions seen.
    pub resubmissions: u64,
    /// Domain outages seen (chaos-layer extension).
    pub domain_outages: u64,
    /// Domain restores seen.
    pub domain_restores: u64,
}

impl RecordingMonitor {
    /// A monitor storing at most one sample per `sample_interval` ticks.
    #[must_use]
    pub fn new(sample_interval: Ticks) -> Self {
        Self {
            sample_interval,
            ..Self::default()
        }
    }
}

impl Observer for RecordingMonitor {
    fn on_arrival(&mut self, _now: Ticks, _task: &Task) {
        self.arrivals += 1;
    }

    fn on_placement(&mut self, _now: Ticks, _task: &Task, _p: &Placement) {
        self.placements += 1;
    }

    fn on_suspend(&mut self, _now: Ticks, _task: &Task) {
        self.suspensions += 1;
    }

    fn on_discard(&mut self, _now: Ticks, _task: &Task, _reason: DiscardReason) {
        self.discards += 1;
    }

    fn on_completion(&mut self, _now: Ticks, _task: &Task) {
        self.completions += 1;
    }

    fn on_node_failure(&mut self, _now: Ticks, _node: NodeId) {
        self.failures += 1;
    }

    fn on_node_repair(&mut self, _now: Ticks, _node: NodeId) {
        self.repairs += 1;
    }

    fn on_reconfig_failed(&mut self, _now: Ticks, _task: &Task, _attempt: u32) {
        self.reconfig_failures += 1;
    }

    fn on_task_failed(&mut self, _now: Ticks, _task: &Task) {
        self.task_failures += 1;
    }

    fn on_resubmit(&mut self, _now: Ticks, _task: &Task, _attempt: u32) {
        self.resubmissions += 1;
    }

    fn on_domain_outage(&mut self, _now: Ticks, _domain: u32) {
        self.domain_outages += 1;
    }

    fn on_domain_restore(&mut self, _now: Ticks, _domain: u32) {
        self.domain_restores += 1;
    }

    fn on_snapshot(&mut self, now: Ticks, resources: &ResourceManager, suspended: usize) {
        if let Some(last) = self.last_sample {
            if now.saturating_sub(last) < self.sample_interval {
                return;
            }
        }
        self.last_sample = Some(now);
        let nodes = resources.node_store();
        let total = nodes.len().max(1) as f64;
        let busy = (0..nodes.len())
            .filter(|&i| nodes.state(i) == NodeState::Busy)
            .count() as f64;
        let blank = (0..nodes.len()).filter(|&i| nodes.is_blank(i)).count() as f64;
        self.samples.push(UtilizationSample {
            time: now,
            busy_fraction: busy / total,
            blank_fraction: blank / total,
            suspended,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dreamsim_model::{Config, ConfigId, Node, StepCounter, TaskId};

    fn resources() -> ResourceManager {
        let configs = vec![Config::new(ConfigId(0), 400, 10)];
        let nodes = (0..4)
            .map(|i| Node::new(NodeId::from_index(i), 1000, 1))
            .collect();
        ResourceManager::new(nodes, configs)
    }

    #[test]
    fn snapshot_computes_fractions() {
        let mut rm = resources();
        let mut s = StepCounter::new();
        let e = rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        rm.assign_task(e, TaskId(0), &mut s).unwrap();
        rm.configure_slot(NodeId(1), ConfigId(0), &mut s).unwrap();
        let mut mon = RecordingMonitor::new(0);
        mon.on_snapshot(10, &rm, 3);
        assert_eq!(mon.samples.len(), 1);
        let sample = mon.samples[0];
        assert!((sample.busy_fraction - 0.25).abs() < 1e-12);
        assert!((sample.blank_fraction - 0.5).abs() < 1e-12);
        assert_eq!(sample.suspended, 3);
    }

    #[test]
    fn sample_interval_throttles() {
        let rm = resources();
        let mut mon = RecordingMonitor::new(100);
        mon.on_snapshot(0, &rm, 0);
        mon.on_snapshot(50, &rm, 0); // dropped
        mon.on_snapshot(100, &rm, 0); // stored
        mon.on_snapshot(150, &rm, 0); // dropped
        assert_eq!(mon.samples.len(), 2);
        assert_eq!(mon.samples[1].time, 100);
    }

    #[test]
    fn null_observer_compiles_and_ignores() {
        let mut o = NullObserver;
        let rm = resources();
        o.on_snapshot(0, &rm, 0);
        o.on_node_failure(0, NodeId(0));
        o.on_reconfig_failed(0, &fault_task(), 1);
    }

    fn fault_task() -> Task {
        Task::new(
            TaskId(9),
            0,
            100,
            dreamsim_model::PreferredConfig::Known(ConfigId(0)),
            400,
        )
    }

    #[test]
    fn fault_callbacks_bump_counters() {
        let mut mon = RecordingMonitor::new(0);
        let t = fault_task();
        mon.on_node_repair(5, NodeId(1));
        mon.on_reconfig_failed(6, &t, 1);
        mon.on_reconfig_failed(7, &t, 2);
        mon.on_task_failed(8, &t);
        mon.on_resubmit(9, &t, 1);
        mon.on_domain_outage(10, 0);
        mon.on_domain_restore(12, 0);
        assert_eq!(mon.repairs, 1);
        assert_eq!(mon.reconfig_failures, 2);
        assert_eq!(mon.task_failures, 1);
        assert_eq!(mon.resubmissions, 1);
        assert_eq!(mon.domain_outages, 1);
        assert_eq!(mon.domain_restores, 1);
    }
}
