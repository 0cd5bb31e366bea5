//! Per-configuration idle and busy lists (Fig. 3).
//!
//! Each configuration keeps two lists of the node slots it is
//! instantiated in: the list of *idle* instances (head: the paper's
//! `Idle_start`) and the list of *busy* instances (`Busy_start`). The
//! paper motivates them as the way to "ease up the search effort needed
//! to get the state information of a certain node" when the node count
//! is large.
//!
//! The paper's lists are singly linked, so removing an arbitrary entry
//! requires a traversal from the head — and those traversals are exactly
//! the housekeeping component of the *total scheduler workload* metric.
//! Here each list is one contiguous vector, oldest entry first and head
//! last. A push appends; a removal scans from the head end, visiting
//! entries in exactly the head-first link order and charging one
//! housekeeping step per visited entry, the same charge as the link walk.
//!
//! The checkpoint writes each vector as it stands, oldest entry first
//! (the store's columns, DESIGN.md §18.4), so a restored list keeps its
//! order, and with it the search index's LIFO tie-breaks.

use crate::ids::{ConfigId, EntryRef};
use crate::steps::{StepCounter, StepKind};

/// Which of the two lists an operation targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListKind {
    /// The idle-instances list (`Idle_start` / `Inext`).
    Idle,
    /// The busy-instances list (`Busy_start` / `Bnext`).
    Busy,
}

/// The idle/busy lists of every configuration.
#[derive(Clone, Debug)]
pub struct ConfigLists {
    /// Per configuration, oldest entry first: the head is the last element.
    idle: Vec<Vec<EntryRef>>,
    /// Busy lists, laid out like `idle`.
    busy: Vec<Vec<EntryRef>>,
}

impl ConfigLists {
    /// Create empty lists for `num_configs` configurations.
    #[must_use]
    pub fn new(num_configs: usize) -> Self {
        Self {
            idle: vec![Vec::new(); num_configs],
            busy: vec![Vec::new(); num_configs],
        }
    }

    /// Number of configurations covered.
    #[must_use]
    pub fn num_configs(&self) -> usize {
        self.idle.len()
    }

    fn list(&self, kind: ListKind, config: ConfigId) -> &Vec<EntryRef> {
        match kind {
            ListKind::Idle => &self.idle[config.index()],
            ListKind::Busy => &self.busy[config.index()],
        }
    }

    fn list_mut(&mut self, kind: ListKind, config: ConfigId) -> &mut Vec<EntryRef> {
        match kind {
            ListKind::Idle => &mut self.idle[config.index()],
            ListKind::Busy => &mut self.busy[config.index()],
        }
    }

    /// Push `entry` at the head of the `kind` list of `config`. O(1);
    /// charges one housekeeping step (the head update).
    pub fn push(
        &mut self,
        kind: ListKind,
        config: ConfigId,
        entry: EntryRef,
        steps: &mut StepCounter,
    ) {
        self.list_mut(kind, config).push(entry);
        steps.tick(StepKind::Housekeeping);
    }

    /// Remove `entry` from the `kind` list of `config`. Visits entries
    /// head first, charging one housekeeping step per entry visited —
    /// the charge of the singly-linked walk. Returns `false` if the
    /// entry was not on the list.
    pub fn remove(
        &mut self,
        kind: ListKind,
        config: ConfigId,
        entry: EntryRef,
        steps: &mut StepCounter,
    ) -> bool {
        let list = self.list_mut(kind, config);
        for i in (0..list.len()).rev() {
            steps.tick(StepKind::Housekeeping);
            if list[i] == entry {
                list.remove(i);
                return true;
            }
        }
        false
    }

    /// Iterate the entries of the `kind` list of `config`, head first.
    /// Does **not** charge steps itself — callers charge per visited
    /// entry with the step kind appropriate to their activity
    /// (scheduling search vs housekeeping).
    pub fn iter(&self, kind: ListKind, config: ConfigId) -> impl Iterator<Item = EntryRef> + '_ {
        self.list(kind, config).iter().rev().copied()
    }

    /// Length of the `kind` list of `config` (charges no steps).
    #[must_use]
    pub fn len(&self, kind: ListKind, config: ConfigId) -> usize {
        self.list(kind, config).len()
    }

    /// Whether the `kind` list of `config` is empty.
    #[must_use]
    pub fn is_empty(&self, kind: ListKind, config: ConfigId) -> bool {
        self.list(kind, config).is_empty()
    }

    /// Every list, oldest entry first: the idle lists of every
    /// configuration, then the busy lists (the checkpoint's order).
    pub(crate) fn vectors(&self) -> impl Iterator<Item = &[EntryRef]> {
        self.idle.iter().chain(&self.busy).map(Vec::as_slice)
    }

    /// The lists [`vectors`](Self::vectors) yields, one idle and one
    /// busy list per configuration.
    pub(crate) fn from_vectors(idle: Vec<Vec<EntryRef>>, busy: Vec<Vec<EntryRef>>) -> Self {
        debug_assert_eq!(idle.len(), busy.len());
        Self { idle, busy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    const CFG: ConfigId = ConfigId(2);

    fn setup(n_nodes: u32) -> (ConfigLists, Vec<EntryRef>) {
        let entries = (0..n_nodes).map(|i| EntryRef::new(NodeId(i), 0)).collect();
        (ConfigLists::new(4), entries)
    }

    fn order(lists: &ConfigLists, kind: ListKind, config: ConfigId) -> Vec<EntryRef> {
        lists.iter(kind, config).collect()
    }

    #[test]
    fn push_builds_lifo_order() {
        let (mut lists, entries) = setup(3);
        let mut steps = StepCounter::new();
        for &e in &entries {
            lists.push(ListKind::Idle, CFG, e, &mut steps);
        }
        assert_eq!(
            order(&lists, ListKind::Idle, CFG),
            vec![entries[2], entries[1], entries[0]]
        );
        assert_eq!(steps.housekeeping, 3);
        assert_eq!(lists.len(ListKind::Idle, CFG), 3);
        assert!(lists.is_empty(ListKind::Busy, CFG));
    }

    #[test]
    fn remove_head_is_one_step() {
        let (mut lists, e) = setup(2);
        let mut steps = StepCounter::new();
        lists.push(ListKind::Idle, CFG, e[0], &mut steps);
        lists.push(ListKind::Idle, CFG, e[1], &mut steps);
        let before = steps.housekeeping;
        assert!(lists.remove(ListKind::Idle, CFG, e[1], &mut steps));
        assert_eq!(steps.housekeeping - before, 1, "head removal is one step");
        assert_eq!(order(&lists, ListKind::Idle, CFG), vec![e[0]]);
    }

    #[test]
    fn remove_tail_traverses_whole_list() {
        let (mut lists, entries) = setup(5);
        let mut steps = StepCounter::new();
        for &e in &entries {
            lists.push(ListKind::Idle, CFG, e, &mut steps);
        }
        let before = steps.housekeeping;
        // entries[0] is at the tail after LIFO pushes.
        assert!(lists.remove(ListKind::Idle, CFG, entries[0], &mut steps));
        assert_eq!(
            steps.housekeeping - before,
            5,
            "tail removal walks all links"
        );
        assert_eq!(lists.len(ListKind::Idle, CFG), 4);
    }

    #[test]
    fn remove_middle_relinks_correctly() {
        let (mut lists, e) = setup(3);
        let mut steps = StepCounter::new();
        for &x in &e {
            lists.push(ListKind::Idle, CFG, x, &mut steps);
        }
        assert!(lists.remove(ListKind::Idle, CFG, e[1], &mut steps));
        assert_eq!(order(&lists, ListKind::Idle, CFG), vec![e[2], e[0]]);
    }

    #[test]
    fn remove_missing_entry_returns_false_after_full_scan() {
        let (mut lists, e) = setup(3);
        let mut steps = StepCounter::new();
        lists.push(ListKind::Idle, CFG, e[0], &mut steps);
        lists.push(ListKind::Idle, CFG, e[1], &mut steps);
        let before = steps.housekeeping;
        assert!(!lists.remove(ListKind::Idle, CFG, e[2], &mut steps));
        assert_eq!(steps.housekeeping - before, 2);
        assert_eq!(lists.len(ListKind::Idle, CFG), 2);
    }

    #[test]
    fn entry_moves_between_idle_and_busy_lists() {
        let (mut lists, e) = setup(1);
        let mut steps = StepCounter::new();
        lists.push(ListKind::Idle, CFG, e[0], &mut steps);
        assert!(lists.remove(ListKind::Idle, CFG, e[0], &mut steps));
        lists.push(ListKind::Busy, CFG, e[0], &mut steps);
        assert!(lists.is_empty(ListKind::Idle, CFG));
        assert_eq!(order(&lists, ListKind::Busy, CFG), vec![e[0]]);
    }

    #[test]
    fn independent_lists_per_config() {
        let (mut lists, e) = setup(2);
        let mut steps = StepCounter::new();
        let (c0, c1) = (ConfigId(0), ConfigId(1));
        lists.push(ListKind::Idle, c0, e[0], &mut steps);
        lists.push(ListKind::Idle, c1, e[1], &mut steps);
        assert_eq!(lists.len(ListKind::Idle, c0), 1);
        assert_eq!(lists.len(ListKind::Idle, c1), 1);
        assert!(lists.remove(ListKind::Idle, c0, e[0], &mut steps));
        assert_eq!(lists.len(ListKind::Idle, c1), 1);
    }

    #[test]
    fn same_node_two_slots_both_listed() {
        // Partial reconfiguration: one node appears twice in the same
        // config's list through different slots — the generalization the
        // per-slot entries exist for.
        let mut lists = ConfigLists::new(4);
        let mut steps = StepCounter::new();
        let e0 = EntryRef::new(NodeId(0), 0);
        let e1 = EntryRef::new(NodeId(0), 1);
        lists.push(ListKind::Idle, CFG, e0, &mut steps);
        lists.push(ListKind::Idle, CFG, e1, &mut steps);
        assert_eq!(lists.len(ListKind::Idle, CFG), 2);
        assert!(lists.remove(ListKind::Idle, CFG, e0, &mut steps));
        assert_eq!(order(&lists, ListKind::Idle, CFG), vec![e1]);
    }
}
