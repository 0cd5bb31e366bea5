//! Load-balancing module.
//!
//! The paper's Section III lists a load-balancing module in the core
//! subsystem and Section VII names "implement load balancing manager to
//! perform a better load distribution among all the nodes" as future
//! work. This module implements that extension as an **analysis tool**
//! ([`LoadBalancer::report`], producing per-node utilization and
//! imbalance indices) — tasks in the DReAMSim model cannot migrate once
//! placed, so balancing acts at placement time through
//! [`AllocationStrategy::LeastLoaded`](crate::AllocationStrategy) and is
//! evaluated with these reports.

use dreamsim_model::{NodeState, ResourceManager};

/// Per-run load-distribution report.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadReport {
    /// Running-task count per node, in node order.
    pub running_per_node: Vec<usize>,
    /// Area utilization per node: configured area / total area.
    pub area_utilization: Vec<f64>,
    /// Fraction of nodes currently busy.
    pub busy_fraction: f64,
    /// Mean running tasks per node.
    pub mean_load: f64,
    /// Coefficient of variation of the per-node load (0 = perfectly
    /// balanced; larger = more skewed).
    pub load_cv: f64,
    /// Gini coefficient of the per-node load in \[0, 1\]
    /// (0 = perfectly equal).
    pub load_gini: f64,
}

/// Computes [`LoadReport`]s from resource-manager state.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadBalancer;

impl LoadBalancer {
    /// Construct the balancer.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Snapshot the current load distribution.
    #[must_use]
    pub fn report(&self, rm: &ResourceManager) -> LoadReport {
        let nodes = rm.node_store();
        let running_per_node: Vec<usize> = (0..nodes.len())
            .map(|i| nodes.running_count(i) as usize)
            .collect();
        let area_utilization: Vec<f64> = (0..nodes.len())
            .map(|i| {
                let used = nodes.total_area(i) - nodes.available_area(i);
                used as f64 / nodes.total_area(i) as f64
            })
            .collect();
        let busy = (0..nodes.len())
            .filter(|&i| nodes.state(i) == NodeState::Busy)
            .count();
        let busy_fraction = busy as f64 / nodes.len().max(1) as f64;
        let (mean_load, load_cv) = mean_cv(&running_per_node);
        let load_gini = gini(&running_per_node);
        LoadReport {
            running_per_node,
            area_utilization,
            busy_fraction,
            mean_load,
            load_cv,
            load_gini,
        }
    }
}

fn mean_cv(xs: &[usize]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
    // lint: allow(r3) -- exact-zero guard on a sum of integer-valued samples, which f64 represents exactly
    if mean == 0.0 {
        return (0.0, 0.0);
    }
    let var = xs
        .iter()
        .map(|&x| {
            let d = x as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    (mean, var.sqrt() / mean)
}

fn gini(xs: &[usize]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let total: f64 = xs.iter().map(|&x| x as f64).sum();
    // lint: allow(r3) -- exact-zero guard on a sum of integer-valued samples, which f64 represents exactly
    if total == 0.0 {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
    sorted.sort_by(f64::total_cmp);
    // Gini = (2 Σ i·xᵢ)/(n Σ xᵢ) − (n+1)/n, with 1-based i over sorted x.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dreamsim_model::{Config, ConfigId, Node, NodeId, StepCounter, TaskId};

    fn rm_with_loads(loads: &[usize]) -> ResourceManager {
        let configs = vec![Config::new(ConfigId(0), 100, 10)];
        let nodes: Vec<Node> = (0..loads.len())
            .map(|i| Node::new(NodeId::from_index(i), 4000, 1))
            .collect();
        let mut rm = ResourceManager::new(nodes, configs);
        let mut s = StepCounter::new();
        let mut tid = 0u32;
        for (i, &l) in loads.iter().enumerate() {
            for _ in 0..l {
                let e = rm
                    .configure_slot(NodeId::from_index(i), ConfigId(0), &mut s)
                    .unwrap();
                rm.assign_task(e, TaskId(tid), &mut s).unwrap();
                tid += 1;
            }
        }
        rm
    }

    #[test]
    fn balanced_load_has_zero_cv_and_gini() {
        let rm = rm_with_loads(&[2, 2, 2, 2]);
        let r = LoadBalancer::new().report(&rm);
        assert_eq!(r.running_per_node, vec![2, 2, 2, 2]);
        assert!(r.load_cv.abs() < 1e-12);
        assert!(r.load_gini.abs() < 1e-12);
        assert!((r.busy_fraction - 1.0).abs() < 1e-12);
        assert!((r.mean_load - 2.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_load_has_positive_indices() {
        let rm = rm_with_loads(&[8, 0, 0, 0]);
        let r = LoadBalancer::new().report(&rm);
        assert!(r.load_cv > 1.0, "cv={}", r.load_cv);
        // All mass on one of four nodes: Gini = 3/4.
        assert!((r.load_gini - 0.75).abs() < 1e-9, "gini={}", r.load_gini);
        assert!((r.busy_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn idle_cluster_is_all_zero() {
        let rm = rm_with_loads(&[0, 0]);
        let r = LoadBalancer::new().report(&rm);
        assert_eq!(r.mean_load, 0.0);
        assert_eq!(r.load_cv, 0.0);
        assert_eq!(r.load_gini, 0.0);
        assert_eq!(r.busy_fraction, 0.0);
    }

    #[test]
    fn area_utilization_reflects_configured_area() {
        let rm = rm_with_loads(&[1, 0]);
        let r = LoadBalancer::new().report(&rm);
        assert!((r.area_utilization[0] - 100.0 / 4000.0).abs() < 1e-12);
        assert_eq!(r.area_utilization[1], 0.0);
    }

    #[test]
    fn gini_of_moderate_skew_between_zero_and_one() {
        let rm = rm_with_loads(&[1, 2, 3, 4]);
        let r = LoadBalancer::new().report(&rm);
        assert!(
            r.load_gini > 0.0 && r.load_gini < 0.5,
            "gini={}",
            r.load_gini
        );
    }
}
