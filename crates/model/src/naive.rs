//! Naive full-scan allocation search, used by the data-structure
//! ablation (DESIGN.md experiment A2).
//!
//! The paper motivates its per-configuration linked lists by the cost of
//! searching node state "if the total number of nodes is very large".
//! [`find_best_idle_naive`] answers the same query as
//! [`ResourceManager::find_best_idle`](crate::store::ResourceManager::find_best_idle)
//! **without** the lists, by scanning every slot of every node —
//! charging the correspondingly larger step counts. Ablation A2 compares
//! the two to quantify what the lists buy.
//!
//! The result is guaranteed to select the same node/area (ties may
//! resolve to a different slot of the same quality, since scan order
//! differs from list order); the equivalence tests below pin that
//! contract.

use crate::ids::{Area, ConfigId, EntryRef, NodeId};
use crate::steps::{StepCounter, StepKind};
use crate::store::ResourceManager;

/// Best-fit idle instance of `config` by scanning all slots of all nodes.
pub fn find_best_idle_naive(
    rm: &ResourceManager,
    config: ConfigId,
    steps: &mut StepCounter,
) -> Option<EntryRef> {
    let nodes = rm.node_store();
    let mut best: Option<(Area, EntryRef)> = None;
    for i in 0..nodes.len() {
        for (idx, slot) in nodes.slots(i) {
            steps.tick(StepKind::Scheduling);
            if slot.config == config && slot.task.is_none() {
                let cand = (
                    nodes.available_area(i),
                    EntryRef::new(NodeId::from_index(i), idx),
                );
                if best.is_none_or(|(a, _)| cand.0 < a) {
                    best = Some(cand);
                }
            }
        }
    }
    best.map(|(_, e)| e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::ids::TaskId;
    use crate::node::Node;

    fn setup() -> (ResourceManager, StepCounter) {
        let configs = vec![
            Config::new(ConfigId(0), 400, 10),
            Config::new(ConfigId(1), 700, 10),
        ];
        let nodes = (0..4)
            .map(|i| Node::new(NodeId::from_index(i), 2000 + 500 * i as u64, 1))
            .collect();
        (ResourceManager::new(nodes, configs), StepCounter::new())
    }

    #[test]
    fn naive_matches_list_based_best_fit() {
        let (mut rm, mut s) = setup();
        for i in 0..4 {
            rm.configure_slot(NodeId(i), ConfigId(0), &mut s).unwrap();
        }
        let via_list = rm.find_best_idle(ConfigId(0), &mut s).unwrap();
        let via_scan = find_best_idle_naive(&rm, ConfigId(0), &mut s).unwrap();
        assert_eq!(via_list.node, via_scan.node);
    }

    #[test]
    fn naive_charges_more_steps_with_many_foreign_slots() {
        let (mut rm, mut s) = setup();
        // Fill nodes with config-1 slots that config-0 searches must skip.
        for i in 0..4 {
            rm.configure_slot(NodeId(i), ConfigId(1), &mut s).unwrap();
        }
        rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        let mut s_list = StepCounter::new();
        rm.find_best_idle(ConfigId(0), &mut s_list);
        let mut s_scan = StepCounter::new();
        find_best_idle_naive(&rm, ConfigId(0), &mut s_scan);
        assert_eq!(
            s_list.scheduling, 1,
            "list search touches only its instances"
        );
        assert_eq!(s_scan.scheduling, 5, "scan touches every live slot");
    }

    #[test]
    fn naive_ignores_busy_instances() {
        let (mut rm, mut s) = setup();
        let e = rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        rm.assign_task(e, TaskId(0), &mut s).unwrap();
        assert!(find_best_idle_naive(&rm, ConfigId(0), &mut s).is_none());
    }

    #[test]
    fn empty_store_returns_none() {
        let (rm, mut s) = setup();
        assert!(find_best_idle_naive(&rm, ConfigId(0), &mut s).is_none());
        assert_eq!(s.scheduling, 0, "no live slots to scan");
    }
}
