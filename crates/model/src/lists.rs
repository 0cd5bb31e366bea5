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
//! The `Inext`/`Bnext` links exist only in the checkpoint form, the
//! `link` of each slot of a [`Node`] record: the
//! [`ResourceManager`](crate::store::ResourceManager) serializer derives
//! each slot's link from the vectors, and its deserializer rebuilds the
//! vectors by walking each head's links (`ConfigLists::from_links`).

use crate::ids::{ConfigId, EntryRef};
use crate::node::Node;
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

/// The checkpoint form of [`ConfigLists`]: the head of every list. The
/// rest of each list is threaded through the `link` field of the
/// checkpoint's slots.
#[derive(serde::Serialize, serde::Deserialize)]
pub(crate) struct ListHeads {
    idle_head: Vec<Option<EntryRef>>,
    busy_head: Vec<Option<EntryRef>>,
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

    /// Every list, oldest entry first: in the checkpoint form each entry
    /// links to the one before it in its slice.
    pub(crate) fn vectors(&self) -> impl Iterator<Item = &[EntryRef]> {
        self.idle.iter().chain(&self.busy).map(Vec::as_slice)
    }

    /// The head of every list (the checkpoint form).
    pub(crate) fn heads(&self) -> ListHeads {
        let heads = |lists: &[Vec<EntryRef>]| lists.iter().map(|l| l.last().copied()).collect();
        ListHeads {
            idle_head: heads(&self.idle),
            busy_head: heads(&self.busy),
        }
    }

    /// Rebuild the lists from the checkpoint form: `heads`, and the slot
    /// links of the `nodes` records. There must be one head per
    /// configuration per list, and every head and link must name a slot
    /// of the node table. The walk runs before
    /// [`NodeStore::from_nodes`](crate::soa::NodeStore::from_nodes) checks
    /// the records, so it finds slots by position and trusts no field.
    /// A chain longer than the slot table repeats an entry; the walk
    /// stops there and leaves the repeat to the audit.
    pub(crate) fn from_links(
        nodes: &[Node],
        heads: ListHeads,
        num_configs: usize,
    ) -> Result<Self, String> {
        let bound: usize = nodes.iter().map(|n| n.slots.len()).sum();
        let walk = |heads: Vec<Option<EntryRef>>, name: &str| {
            if heads.len() != num_configs {
                return Err(format!(
                    "{name} has {} heads for {num_configs} configurations",
                    heads.len()
                ));
            }
            heads
                .into_iter()
                .map(|mut cur| {
                    let mut chain = Vec::new();
                    while let Some(e) = cur {
                        let slot = nodes
                            .get(e.node.index())
                            // BOUND: u32 slot index; usize is at least as wide.
                            .and_then(|n| n.slots.get(e.slot as usize))
                            .ok_or_else(|| format!("{name}: entry {e} names no slot"))?;
                        chain.push(e);
                        if chain.len() > bound {
                            break;
                        }
                        cur = slot.as_ref().and_then(|s| s.link);
                    }
                    chain.reverse();
                    Ok(chain)
                })
                .collect()
        };
        Ok(Self {
            idle: walk(heads.idle_head, "idle_head")?,
            busy: walk(heads.busy_head, "busy_head")?,
        })
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
