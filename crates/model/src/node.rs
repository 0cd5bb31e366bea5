//! Reconfigurable nodes (Eq. 1):
//! `Nodeᵢ(TotalArea, AvailableArea, C, family, caps, state)`.
//!
//! [`Node`] is the construction spec of one node: its id, `TotalArea`,
//! network delay, family, capabilities and placement model. It has no
//! behaviour and no runtime state; [`crate::store::ResourceManager::new`]
//! builds blank nodes from specs. The runtime state — the slab of
//! *config-task-pair* slots (Fig. 3's `Config-Task-Pair List`), free
//! slot indices, the reconfiguration count, the `down` flag, the strip
//! — and the Eq. 4 account
//!
//! ```text
//! AvailableArea = TotalArea − Σ ReqArea(Cᵢ)   over live slots
//! ```
//!
//! live in [`crate::soa::NodeStore`] alone, which checkpoints write and
//! read column by column (DESIGN.md §18.4).

use crate::caps::{Capabilities, DeviceFamily};
use crate::ids::{Area, NodeId, Ticks};
use serde::{Deserialize, Serialize};

/// Coarse node state (the paper's `state` field).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeState {
    /// No configuration instantiated.
    Blank,
    /// At least one configuration, no running task.
    Idle,
    /// At least one running task.
    Busy,
}

/// The construction spec of one reconfigurable processing node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Node {
    /// Node identifier (`NodeNo`).
    pub id: NodeId,
    /// Total reconfigurable area (`TotalArea`).
    pub total_area: Area,
    /// Device family (`family`).
    pub family: DeviceFamily,
    /// Hardware capabilities (`caps`).
    pub caps: Capabilities,
    /// One-way communication delay from the RMS to this node, in
    /// timeticks (`NetworkDelay`; the `tcomm` component of Eq. 8).
    pub network_delay: Ticks,
    /// Contiguous 1-D (first-fit strip) placement, or `false` for the
    /// paper's scalar area model (DESIGN.md experiment A5).
    pub contiguous: bool,
}

impl Node {
    /// The spec of a node with the default family, no capabilities and
    /// scalar placement.
    #[must_use]
    pub fn new(id: NodeId, total_area: Area, network_delay: Ticks) -> Self {
        Self {
            id,
            total_area,
            family: DeviceFamily::default(),
            caps: Capabilities::none(),
            network_delay,
            contiguous: false,
        }
    }

    /// Builder-style family override.
    #[must_use]
    pub fn with_family(mut self, family: DeviceFamily) -> Self {
        self.family = family;
        self
    }

    /// Builder-style capabilities override.
    #[must_use]
    pub fn with_caps(mut self, caps: Capabilities) -> Self {
        self.caps = caps;
        self
    }

    /// Contiguous 1-D placement: configurations must fit into a
    /// contiguous gap of the node's fabric columns, the leftmost that
    /// fits (experiment A5).
    #[must_use]
    pub fn with_contiguous(mut self) -> Self {
        self.contiguous = true;
        self
    }
}

#[cfg(test)]
mod tests {
    //! A node's behaviour (Eq. 1, Eq. 4, Fig. 3's slot reuse), pinned on
    //! the store built from one blank record.

    use super::*;
    use crate::config::Config;
    use crate::ids::{ConfigId, TaskId};
    use crate::soa::{NodeError, NodeStore, SlotView};

    fn cfg(id: u32, area: Area) -> Config {
        Config::new(ConfigId(id), area, 10)
    }

    /// A store holding one blank node of `total` area units, node 0.
    fn node(total: Area) -> NodeStore {
        NodeStore::from_nodes(vec![Node::new(NodeId(0), total, 5)]).unwrap()
    }

    #[test]
    fn blank_node_state_and_area() {
        let n = node(2000);
        assert!(n.is_blank(0));
        assert_eq!(n.state(0), NodeState::Blank);
        assert_eq!(n.available_area(0), 2000);
        assert_eq!((n.live_count(0), n.running_count(0)), (0, 0));
        assert_eq!(n.reconfig_count(0), 0);
        assert!(n.area_invariant_holds(0));
    }

    #[test]
    fn send_bitstream_accounts_area_and_reconfig_count() {
        let mut n = node(2000);
        assert_eq!(n.send_bitstream(0, &cfg(1, 600)), Ok(0));
        assert_eq!(n.send_bitstream(0, &cfg(2, 900)), Ok(1));
        assert_eq!(n.available_area(0), 500);
        assert_eq!(n.reconfig_count(0), 2);
        assert_eq!(n.live_count(0), 2);
        assert_eq!(n.state(0), NodeState::Idle);
        assert!(n.area_invariant_holds(0));
    }

    #[test]
    fn send_bitstream_rejects_oversized_config() {
        let mut n = node(1000);
        n.send_bitstream(0, &cfg(1, 800)).unwrap();
        assert_eq!(
            n.send_bitstream(0, &cfg(2, 300)),
            Err(NodeError::InsufficientArea {
                needed: 300,
                available: 200
            })
        );
        // Failed configuration must not change anything.
        assert_eq!(n.available_area(0), 200);
        assert_eq!(n.reconfig_count(0), 1);
        assert_eq!(n.live_count(0), 1);
    }

    #[test]
    fn exact_fit_leaves_zero_area() {
        let mut n = node(1000);
        n.send_bitstream(0, &cfg(1, 1000)).unwrap();
        assert_eq!(n.available_area(0), 0);
        assert!(n.area_invariant_holds(0));
    }

    #[test]
    fn task_lifecycle_updates_state() {
        let mut n = node(3000);
        let s = n.send_bitstream(0, &cfg(1, 1000)).unwrap();
        assert_eq!(n.state(0), NodeState::Idle);
        n.add_task(0, s, TaskId(7)).unwrap();
        assert_eq!(n.state(0), NodeState::Busy);
        assert_eq!(n.running_count(0), 1);
        let running = SlotView {
            config: ConfigId(1),
            area: 1000,
            task: Some(TaskId(7)),
        };
        assert_eq!(n.slot(0, s), Some(running));
        assert_eq!(n.remove_task(0, s), Ok(TaskId(7)));
        assert_eq!(n.state(0), NodeState::Idle);
        assert_eq!(n.running_count(0), 0);
        assert_eq!(n.slot(0, s).map(|v| v.task), Some(None));
        assert!(n.area_invariant_holds(0));
    }

    #[test]
    fn add_task_to_occupied_slot_fails() {
        let mut n = node(3000);
        let s = n.send_bitstream(0, &cfg(1, 1000)).unwrap();
        n.add_task(0, s, TaskId(1)).unwrap();
        assert_eq!(n.add_task(0, s, TaskId(2)), Err(NodeError::SlotOccupied(0)));
        assert_eq!(n.slot(0, s).map(|v| v.task), Some(Some(TaskId(1))));
        assert_eq!(n.running_count(0), 1);
    }

    #[test]
    fn remove_task_from_idle_slot_fails() {
        let mut n = node(3000);
        let s = n.send_bitstream(0, &cfg(1, 1000)).unwrap();
        assert_eq!(n.remove_task(0, s), Err(NodeError::SlotBusyOrVacant(0)));
        assert_eq!(n.running_count(0), 0);
    }

    #[test]
    fn evict_busy_slot_fails() {
        let mut n = node(3000);
        let s = n.send_bitstream(0, &cfg(1, 1000)).unwrap();
        n.add_task(0, s, TaskId(1)).unwrap();
        assert_eq!(n.evict_slot(0, s), Err(NodeError::SlotBusyOrVacant(0)));
        assert_eq!(n.available_area(0), 2000);
        assert_eq!(n.live_count(0), 1);
    }

    #[test]
    fn evict_reclaims_area_and_recycles_slot_index() {
        let mut n = node(2000);
        for (id, area) in [(1, 600), (2, 700), (3, 300)] {
            n.send_bitstream(0, &cfg(id, area)).unwrap();
        }
        assert_eq!(n.evict_slot(0, 0), Ok(ConfigId(1)));
        assert_eq!(n.evict_slot(0, 2), Ok(ConfigId(3)));
        assert_eq!(n.available_area(0), 1300);
        assert_eq!(n.live_count(0), 1);
        // The most recently freed index is reused first.
        assert_eq!(n.send_bitstream(0, &cfg(4, 100)), Ok(2));
        assert_eq!(n.send_bitstream(0, &cfg(5, 100)), Ok(0));
        assert_eq!(n.send_bitstream(0, &cfg(6, 100)), Ok(3));
        assert!(n.area_invariant_holds(0));
    }

    #[test]
    fn evict_vacant_slot_fails() {
        let mut n = node(2000);
        let s = n.send_bitstream(0, &cfg(1, 600)).unwrap();
        n.evict_slot(0, s).unwrap();
        assert_eq!(n.evict_slot(0, 0), Err(NodeError::NoSuchSlot(0)));
        assert_eq!(n.evict_slot(0, 99), Err(NodeError::NoSuchSlot(99)));
        assert_eq!(n.add_task(0, 0, TaskId(1)), Err(NodeError::NoSuchSlot(0)));
        assert_eq!(n.remove_task(0, 99), Err(NodeError::NoSuchSlot(99)));
        assert_eq!(n.available_area(0), 2000);
    }

    #[test]
    fn slots_iterator_skips_freed_entries() {
        let mut n = node(4000);
        n.send_bitstream(0, &cfg(1, 500)).unwrap();
        n.send_bitstream(0, &cfg(2, 700)).unwrap();
        n.evict_slot(0, 0).unwrap();
        let idle = SlotView {
            config: ConfigId(2),
            area: 700,
            task: None,
        };
        assert_eq!(n.slots(0).collect::<Vec<_>>(), vec![(1, idle)]);
        assert_eq!(n.slot(0, 0), None);
    }

    #[test]
    fn reconfig_count_monotone_across_evictions() {
        let mut n = node(1000);
        for i in 0..5 {
            let s = n.send_bitstream(0, &cfg(i, 400)).unwrap();
            n.evict_slot(0, s).unwrap();
            assert_eq!(n.reconfig_count(0), u64::from(i) + 1);
        }
        assert_eq!(n.reconfig_count(0), 5);
        assert!(n.is_blank(0));
    }
}
