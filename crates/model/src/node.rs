//! Reconfigurable nodes (Eq. 1):
//! `Nodeᵢ(TotalArea, AvailableArea, C, family, caps, state)`.
//!
//! A node owns a slab of *config-task-pair* slots (Fig. 3's
//! `Config-Task-Pair List`). Each live slot holds one instantiated
//! configuration and at most one running task. `AvailableArea` always
//! satisfies Eq. 4:
//!
//! ```text
//! AvailableArea = TotalArea − Σ ReqArea(Cᵢ)   over live slots
//! ```
//!
//! The node enforces that invariant locally; list membership is managed
//! by [`crate::store::ResourceManager`]. `Node` is also the checkpoint
//! form of a node, and there [`Slot::link`] carries the idle/busy list
//! links.

use crate::caps::{Capabilities, DeviceFamily};
use crate::config::Config;
use crate::contiguous::{GapFit, Strip};
use crate::ids::{Area, ConfigId, EntryRef, NodeId, TaskId, Ticks};
use serde::{Deserialize, Serialize};

/// Errors from node-local mutations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeError {
    /// The configuration does not fit in the node's available area.
    InsufficientArea {
        /// Area the configuration needs.
        needed: Area,
        /// Area the node has free.
        available: Area,
    },
    /// Enough scalar area is free, but no contiguous gap fits the
    /// configuration (contiguous placement mode only).
    Fragmented {
        /// Area the configuration needs.
        needed: Area,
        /// Largest contiguous gap available.
        largest_gap: Area,
    },
    /// The slot index does not name a live slot.
    NoSuchSlot(u32),
    /// Tried to add a task to a slot that is already running one.
    SlotOccupied(u32),
    /// Tried to remove a task from a slot that has none, or to evict a
    /// slot whose task is still running.
    SlotBusyOrVacant(u32),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::InsufficientArea { needed, available } => {
                write!(
                    f,
                    "configuration needs {needed} area units, only {available} free"
                )
            }
            NodeError::Fragmented {
                needed,
                largest_gap,
            } => {
                write!(
                    f,
                    "configuration needs {needed} contiguous columns, largest gap is {largest_gap}"
                )
            }
            NodeError::NoSuchSlot(s) => write!(f, "slot {s} is not live"),
            NodeError::SlotOccupied(s) => write!(f, "slot {s} already runs a task"),
            NodeError::SlotBusyOrVacant(s) => {
                write!(f, "slot {s} is busy (evict) or vacant (remove task)")
            }
        }
    }
}

impl std::error::Error for NodeError {}

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

/// One config-task pair (Fig. 3): an instantiated configuration plus the
/// task currently using it, if any.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// The instantiated configuration.
    pub config: ConfigId,
    /// Area the configuration occupies (denormalized from the config
    /// table so area accounting never needs a table lookup).
    pub area: Area,
    /// The running task, or `None` when the slot is idle.
    pub task: Option<TaskId>,
    /// Single link for the idle or busy list of `config` (the paper's
    /// `Inext`/`Bnext`); a slot is in exactly one of the two lists at any
    /// time, so one field serves both. Set only in the checkpoint form,
    /// which derives it from the lists.
    pub link: Option<EntryRef>,
}

/// A reconfigurable processing node.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Node identifier (`NodeNo`).
    pub id: NodeId,
    /// Total reconfigurable area (`TotalArea`).
    pub total_area: Area,
    /// Remaining free area (`AvailableArea`, Eq. 4). Crate-visible so
    /// [`crate::soa::NodeStore`] can convert to and from this AoS form
    /// (the serialization mirror) without going through mutations.
    pub(crate) available_area: Area,
    /// Device family (`family`).
    pub family: DeviceFamily,
    /// Hardware capabilities (`caps`).
    pub caps: Capabilities,
    /// One-way communication delay from the RMS to this node, in
    /// timeticks (`NetworkDelay`; the `tcomm` component of Eq. 8).
    pub network_delay: Ticks,
    /// Number of (re)configurations performed on this node
    /// (`ReconfigCount`; drives Table I's *average reconfiguration count
    /// per node*).
    pub reconfig_count: u64,
    /// Whether the node is failed/offline (failure-injection extension;
    /// always `false` in paper-faithful runs). Down nodes are skipped by
    /// every placement search.
    pub down: bool,
    /// Contiguous 1-D placement state (`None` = the paper's scalar area
    /// model). When present, configurations must fit into a contiguous
    /// gap of fabric columns (DESIGN.md experiment A5).
    pub(crate) strip: Option<Strip>,
    /// Gap-selection policy for contiguous placement.
    pub(crate) gap_fit: GapFit,
    /// Slot slab: `None` entries are free slots awaiting reuse, keeping
    /// `EntryRef`s stable across evictions.
    pub(crate) slots: Vec<Option<Slot>>,
    /// Free-slot indices for O(1) reuse.
    pub(crate) free: Vec<u32>,
    /// Number of live slots.
    pub(crate) live: u32,
    /// Number of slots with a running task.
    pub(crate) running: u32,
}

impl Node {
    /// Create a blank node.
    #[must_use]
    pub fn new(id: NodeId, total_area: Area, network_delay: Ticks) -> Self {
        Self {
            id,
            total_area,
            available_area: total_area,
            family: DeviceFamily::default(),
            caps: Capabilities::none(),
            network_delay,
            reconfig_count: 0,
            down: false,
            strip: None,
            gap_fit: GapFit::FirstFit,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            running: 0,
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

    /// Enable contiguous 1-D placement: configurations must fit into a
    /// contiguous gap of the node's fabric columns (experiment A5).
    /// Only valid on a blank node.
    #[must_use]
    pub fn with_contiguous(mut self, fit: GapFit) -> Self {
        assert!(self.is_blank(), "contiguity must be set before configuring");
        self.strip = Some(Strip::new(self.total_area));
        self.gap_fit = fit;
        self
    }

    /// Whether contiguous placement is active.
    #[must_use]
    pub fn is_contiguous(&self) -> bool {
        self.strip.is_some()
    }

    /// Can a configuration of `area` be instantiated right now?
    /// (Scalar check under the paper's model; gap check under
    /// contiguous placement.)
    #[must_use]
    pub fn can_host(&self, area: Area) -> bool {
        if area > self.available_area {
            return false;
        }
        match &self.strip {
            Some(s) => s.can_fit(area),
            None => true,
        }
    }

    /// Could a configuration of `area` be instantiated after evicting
    /// the given idle slots? (Algorithm 1 feasibility; scalar
    /// accumulation is the caller's job — this adds the contiguity
    /// condition.)
    #[must_use]
    pub fn can_host_after_evicting(&self, area: Area, evict: &[u32]) -> bool {
        match &self.strip {
            Some(s) => s.can_fit_after_removing(area, evict),
            None => true,
        }
    }

    /// External fragmentation in `[0, 1]` (always 0 under the scalar
    /// model).
    #[must_use]
    pub fn fragmentation(&self) -> f64 {
        self.strip.as_ref().map_or(0.0, Strip::fragmentation)
    }

    /// Remaining free reconfigurable area (Eq. 4).
    #[inline]
    #[must_use]
    pub fn available_area(&self) -> Area {
        self.available_area
    }

    /// Number of instantiated configurations (`m`, the cardinality of the
    /// configuration set in Eq. 1).
    #[inline]
    #[must_use]
    pub fn configured_count(&self) -> usize {
        // BOUND: live is a small per-node slot count.
        self.live as usize
    }

    /// Number of running tasks.
    #[inline]
    #[must_use]
    pub fn running_count(&self) -> usize {
        // BOUND: running is a small per-node slot count.
        self.running as usize
    }

    /// Whether the node has no configurations at all.
    #[inline]
    #[must_use]
    pub fn is_blank(&self) -> bool {
        self.live == 0
    }

    /// Coarse state per the paper's `state` field.
    #[must_use]
    pub fn state(&self) -> NodeState {
        if self.running > 0 {
            NodeState::Busy
        } else if self.live > 0 {
            NodeState::Idle
        } else {
            NodeState::Blank
        }
    }

    /// Borrow a live slot.
    #[must_use]
    pub fn slot(&self, idx: u32) -> Option<&Slot> {
        // BOUND: u32 index; usize is at least 32 bits on every supported target.
        self.slots.get(idx as usize).and_then(|s| s.as_ref())
    }

    /// Iterate over live slots as `(slot_index, &Slot)`, in slab order
    /// (the traversal order of Fig. 3's config-task-pair list).
    pub fn slots(&self) -> impl Iterator<Item = (u32, &Slot)> {
        self.slots
            .iter()
            .enumerate()
            // BOUND: slot positions are < slots.len(), itself bounded by u32 slot ids.
            .filter_map(|(i, s)| s.as_ref().map(|s| (i as u32, s)))
    }

    /// `SendBitstream()`: instantiate `config` in free area. Adjusts
    /// `AvailableArea`, bumps the reconfiguration count, and returns the
    /// new slot index. List insertion is the caller's job.
    pub fn send_bitstream(&mut self, config: &Config) -> Result<u32, NodeError> {
        if config.req_area > self.available_area {
            return Err(NodeError::InsufficientArea {
                needed: config.req_area,
                available: self.available_area,
            });
        }
        // Reserve the slot index first so the strip region can be keyed
        // by it; nothing is committed until every check passes.
        let idx = match self.free.last() {
            Some(&idx) => idx,
            // BOUND: slot count is bounded by node area / minimum config area, far below 2^32.
            None => self.slots.len() as u32,
        };
        if let Some(strip) = &mut self.strip {
            if strip.place(config.req_area, idx, self.gap_fit).is_none() {
                return Err(NodeError::Fragmented {
                    needed: config.req_area,
                    largest_gap: strip.largest_gap(),
                });
            }
        }
        self.available_area -= config.req_area;
        self.reconfig_count += 1;
        self.live += 1;
        let slot = Slot {
            config: config.id,
            area: config.req_area,
            task: None,
            link: None,
        };
        if self.free.pop().is_some() {
            // BOUND: u32 index; usize is at least 32 bits on every supported target.
            self.slots[idx as usize] = Some(slot);
        } else {
            self.slots.push(Some(slot));
        }
        Ok(idx)
    }

    /// Evict one idle configuration (a single step of
    /// `MakeNodePartiallyBlank()`), reclaiming its area. Fails if the
    /// slot is vacant or its task is still running.
    pub fn evict_slot(&mut self, idx: u32) -> Result<ConfigId, NodeError> {
        let entry = self
            .slots
            // BOUND: u32 index; usize is at least 32 bits on every supported target.
            .get_mut(idx as usize)
            .ok_or(NodeError::NoSuchSlot(idx))?;
        match entry {
            None => Err(NodeError::NoSuchSlot(idx)),
            Some(slot) if slot.task.is_some() => Err(NodeError::SlotBusyOrVacant(idx)),
            Some(slot) => {
                let config = slot.config;
                // BOUND: slot areas sum to at most total_area by the Eq. 4 invariant.
                self.available_area += slot.area;
                *entry = None;
                self.free.push(idx);
                self.live -= 1;
                if let Some(strip) = &mut self.strip {
                    let freed = strip.free_slot(idx);
                    debug_assert!(freed, "strip region missing for slot {idx}");
                }
                debug_assert!(self.available_area <= self.total_area);
                Ok(config)
            }
        }
    }

    /// `AddTaskToNode()`: start `task` on slot `idx` (which must hold an
    /// idle configuration).
    pub fn add_task(&mut self, idx: u32, task: TaskId) -> Result<(), NodeError> {
        let slot = self
            .slots
            // BOUND: u32 index; usize is at least 32 bits on every supported target.
            .get_mut(idx as usize)
            .and_then(|s| s.as_mut())
            .ok_or(NodeError::NoSuchSlot(idx))?;
        if slot.task.is_some() {
            return Err(NodeError::SlotOccupied(idx));
        }
        slot.task = Some(task);
        self.running += 1;
        Ok(())
    }

    /// `RemoveTaskFromNode()`: finish the task on slot `idx`, leaving the
    /// configuration instantiated and idle.
    pub fn remove_task(&mut self, idx: u32) -> Result<TaskId, NodeError> {
        let slot = self
            .slots
            // BOUND: u32 index; usize is at least 32 bits on every supported target.
            .get_mut(idx as usize)
            .and_then(|s| s.as_mut())
            .ok_or(NodeError::NoSuchSlot(idx))?;
        let task = slot.task.take().ok_or(NodeError::SlotBusyOrVacant(idx))?;
        self.running -= 1;
        Ok(task)
    }

    /// Recompute the Eq. 4 invariant from scratch; used by
    /// `ResourceManager::check_invariants` and property tests.
    #[must_use]
    pub fn area_invariant_holds(&self) -> bool {
        let used: Area = self.slots().map(|(_, s)| s.area).sum();
        let strip_ok = match &self.strip {
            Some(s) => {
                s.is_consistent()
                    && s.total_free() == self.available_area
                    // BOUND: live is a small per-node slot count.
                    && s.placed_count() == self.live as usize
            }
            None => true,
        };
        // BOUND: used + available re-checks Eq. 4; both are at most total_area.
        used + self.available_area == self.total_area
            // BOUND: live is a small per-node slot count.
            && self.slots().count() == self.live as usize
            // BOUND: running is a small per-node slot count.
            && self.slots().filter(|(_, s)| s.task.is_some()).count() == self.running as usize
            && strip_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(id: u32, area: Area) -> Config {
        Config::new(ConfigId(id), area, 10)
    }

    fn node(total: Area) -> Node {
        Node::new(NodeId(0), total, 5)
    }

    #[test]
    fn blank_node_state_and_area() {
        let n = node(2000);
        assert!(n.is_blank());
        assert_eq!(n.state(), NodeState::Blank);
        assert_eq!(n.available_area(), 2000);
        assert!(n.area_invariant_holds());
    }

    #[test]
    fn send_bitstream_accounts_area_and_reconfig_count() {
        let mut n = node(2000);
        let s0 = n.send_bitstream(&cfg(1, 600)).unwrap();
        let s1 = n.send_bitstream(&cfg(2, 900)).unwrap();
        assert_ne!(s0, s1);
        assert_eq!(n.available_area(), 500);
        assert_eq!(n.reconfig_count, 2);
        assert_eq!(n.configured_count(), 2);
        assert_eq!(n.state(), NodeState::Idle);
        assert!(n.area_invariant_holds());
    }

    #[test]
    fn send_bitstream_rejects_oversized_config() {
        let mut n = node(1000);
        n.send_bitstream(&cfg(1, 800)).unwrap();
        let err = n.send_bitstream(&cfg(2, 300)).unwrap_err();
        assert_eq!(
            err,
            NodeError::InsufficientArea {
                needed: 300,
                available: 200
            }
        );
        // Failed configuration must not change anything.
        assert_eq!(n.available_area(), 200);
        assert_eq!(n.reconfig_count, 1);
    }

    #[test]
    fn exact_fit_leaves_zero_area() {
        let mut n = node(1000);
        n.send_bitstream(&cfg(1, 1000)).unwrap();
        assert_eq!(n.available_area(), 0);
        assert!(n.area_invariant_holds());
    }

    #[test]
    fn task_lifecycle_updates_state() {
        let mut n = node(3000);
        let s = n.send_bitstream(&cfg(1, 1000)).unwrap();
        n.add_task(s, TaskId(7)).unwrap();
        assert_eq!(n.state(), NodeState::Busy);
        assert_eq!(n.running_count(), 1);
        assert_eq!(n.slot(s).unwrap().task, Some(TaskId(7)));
        let t = n.remove_task(s).unwrap();
        assert_eq!(t, TaskId(7));
        assert_eq!(n.state(), NodeState::Idle);
        assert!(n.area_invariant_holds());
    }

    #[test]
    fn add_task_to_occupied_slot_fails() {
        let mut n = node(3000);
        let s = n.send_bitstream(&cfg(1, 1000)).unwrap();
        n.add_task(s, TaskId(1)).unwrap();
        assert_eq!(
            n.add_task(s, TaskId(2)).unwrap_err(),
            NodeError::SlotOccupied(s)
        );
    }

    #[test]
    fn remove_task_from_idle_slot_fails() {
        let mut n = node(3000);
        let s = n.send_bitstream(&cfg(1, 1000)).unwrap();
        assert_eq!(
            n.remove_task(s).unwrap_err(),
            NodeError::SlotBusyOrVacant(s)
        );
    }

    #[test]
    fn evict_busy_slot_fails() {
        let mut n = node(3000);
        let s = n.send_bitstream(&cfg(1, 1000)).unwrap();
        n.add_task(s, TaskId(1)).unwrap();
        assert_eq!(n.evict_slot(s).unwrap_err(), NodeError::SlotBusyOrVacant(s));
    }

    #[test]
    fn evict_reclaims_area_and_recycles_slot_index() {
        let mut n = node(2000);
        let s0 = n.send_bitstream(&cfg(1, 600)).unwrap();
        let _s1 = n.send_bitstream(&cfg(2, 700)).unwrap();
        assert_eq!(n.evict_slot(s0).unwrap(), ConfigId(1));
        assert_eq!(n.available_area(), 2000 - 700);
        assert_eq!(n.configured_count(), 1);
        // Freed index is reused.
        let s2 = n.send_bitstream(&cfg(3, 100)).unwrap();
        assert_eq!(s2, s0);
        assert!(n.area_invariant_holds());
    }

    #[test]
    fn evict_vacant_slot_fails() {
        let mut n = node(2000);
        let s = n.send_bitstream(&cfg(1, 600)).unwrap();
        n.evict_slot(s).unwrap();
        assert_eq!(n.evict_slot(s).unwrap_err(), NodeError::NoSuchSlot(s));
        assert_eq!(n.evict_slot(99).unwrap_err(), NodeError::NoSuchSlot(99));
    }

    #[test]
    fn slots_iterator_skips_freed_entries() {
        let mut n = node(4000);
        let s0 = n.send_bitstream(&cfg(1, 500)).unwrap();
        let s1 = n.send_bitstream(&cfg(2, 700)).unwrap();
        n.evict_slot(s0).unwrap();
        let live: Vec<u32> = n.slots().map(|(i, _)| i).collect();
        assert_eq!(live, vec![s1]);
    }

    #[test]
    fn reconfig_count_monotone_across_evictions() {
        let mut n = node(1000);
        for i in 0..5 {
            let s = n.send_bitstream(&cfg(i, 400)).unwrap();
            n.evict_slot(s).unwrap();
        }
        assert_eq!(n.reconfig_count, 5);
    }
}
