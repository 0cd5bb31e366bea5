//! Per-configuration idle and busy linked lists (Fig. 3).
//!
//! Each configuration keeps two singly-linked lists threaded through the
//! `link` field of the node slots it is instantiated in: the list of
//! *idle* instances (head: the paper's `Idle_start`) and the list of
//! *busy* instances (`Busy_start`). The paper motivates them as the way
//! to "ease up the search effort needed to get the state information of a
//! certain node" when the node count is large.
//!
//! Faithful to the original design, the lists are singly linked, so
//! removing an arbitrary entry requires a traversal from the head — and
//! those traversals are exactly the housekeeping component of the *total
//! scheduler workload* metric. Every visited link charges one
//! housekeeping step.
//!
//! Since the SoA refactor (DESIGN.md §18) the links are threaded through
//! the flat `slot_link` column of [`NodeStore`], so a list splice touches
//! one dense cell per visited entry instead of a whole `Node` struct.
//!
//! Each list additionally keeps a contiguous *shadow* mirror (oldest
//! entry first, head last). Removal locates the entry and its
//! predecessor by scanning the shadow back-to-front — the same visit
//! order and the same one-housekeeping-step-per-visit charge as the
//! link walk, but over a few contiguous cache lines instead of a
//! pointer chase across the whole slot arena. The intrusive links stay
//! fully maintained (iteration and serialization are unchanged); the
//! shadow is derived state, skipped by serde and rebuilt from the links
//! on first use after deserialization.

use crate::ids::{ConfigId, EntryRef};
use crate::soa::NodeStore;
use crate::steps::{StepCounter, StepKind};

/// Which of the two lists an operation targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListKind {
    /// The idle-instances list (`Idle_start` / `Inext`).
    Idle,
    /// The busy-instances list (`Busy_start` / `Bnext`).
    Busy,
}

/// Heads of the idle/busy lists for every configuration.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ConfigLists {
    idle_head: Vec<Option<EntryRef>>,
    busy_head: Vec<Option<EntryRef>>,
    /// Contiguous mirror of each idle list, oldest first (head is the
    /// last element). Derived from the intrusive links; never
    /// serialized, rebuilt lazily after deserialization.
    // REBUILD: derived acceleration state — `ensure_shadows` rebuilds
    // the mirrors from the serialized heads and slot links on the first
    // `push`/`remove` after a resume, before any list is mutated.
    #[serde(skip)]
    idle_shadow: Vec<Vec<EntryRef>>,
    /// Busy-list mirror; see `idle_shadow`.
    // REBUILD: same story as `idle_shadow` — rebuilt by
    // `ensure_shadows` before the first mutation after a resume.
    #[serde(skip)]
    busy_shadow: Vec<Vec<EntryRef>>,
}

// The shadows are derived acceleration state: two lists are equal iff
// their serialized shape (the heads, plus the links in the node store)
// is — exactly the equality the pre-shadow derive expressed.
impl PartialEq for ConfigLists {
    fn eq(&self, other: &Self) -> bool {
        self.idle_head == other.idle_head && self.busy_head == other.busy_head
    }
}

impl Eq for ConfigLists {}

impl Default for ConfigLists {
    fn default() -> Self {
        Self::new(0)
    }
}

impl ConfigLists {
    /// Create empty lists for `num_configs` configurations.
    #[must_use]
    pub fn new(num_configs: usize) -> Self {
        Self {
            idle_head: vec![None; num_configs],
            busy_head: vec![None; num_configs],
            idle_shadow: vec![Vec::new(); num_configs],
            busy_shadow: vec![Vec::new(); num_configs],
        }
    }

    /// Rebuild the shadow mirrors from the intrusive links if they are
    /// missing (the `serde(skip)` default after deserialization). A
    /// populated shadow is maintained incrementally by `push`/`remove`
    /// and never drifts, so the rebuild triggers at most once per
    /// restored store.
    fn ensure_shadows(&mut self, nodes: &NodeStore) {
        if self.idle_shadow.len() == self.idle_head.len()
            && self.busy_shadow.len() == self.busy_head.len()
        {
            return;
        }
        let walk = |heads: &[Option<EntryRef>]| -> Vec<Vec<EntryRef>> {
            heads
                .iter()
                .map(|&head| {
                    let mut chain: Vec<EntryRef> = ListIter { nodes, cur: head }.collect();
                    // The walk is head-first (newest first); the shadow
                    // stores oldest first.
                    chain.reverse();
                    chain
                })
                .collect()
        };
        self.idle_shadow = walk(&self.idle_head);
        self.busy_shadow = walk(&self.busy_head);
    }

    /// Number of configurations covered.
    #[must_use]
    pub fn num_configs(&self) -> usize {
        self.idle_head.len()
    }

    fn head(&self, kind: ListKind, config: ConfigId) -> Option<EntryRef> {
        match kind {
            ListKind::Idle => self.idle_head[config.index()],
            ListKind::Busy => self.busy_head[config.index()],
        }
    }

    fn head_mut(&mut self, kind: ListKind, config: ConfigId) -> &mut Option<EntryRef> {
        match kind {
            ListKind::Idle => &mut self.idle_head[config.index()],
            ListKind::Busy => &mut self.busy_head[config.index()],
        }
    }

    fn shadow_mut(&mut self, kind: ListKind, config: ConfigId) -> &mut Vec<EntryRef> {
        match kind {
            ListKind::Idle => &mut self.idle_shadow[config.index()],
            ListKind::Busy => &mut self.busy_shadow[config.index()],
        }
    }

    /// Push `entry` at the front of the `kind` list of `config`.
    /// O(1); charges one housekeeping step (the head update).
    ///
    /// # Panics
    /// Panics (in debug builds) if the slot is not live or belongs to a
    /// different configuration.
    pub fn push(
        &mut self,
        nodes: &mut NodeStore,
        kind: ListKind,
        config: ConfigId,
        entry: EntryRef,
        steps: &mut StepCounter,
    ) {
        debug_assert_eq!(
            nodes.slot(entry.node.index(), entry.slot).map(|s| s.config),
            Some(config),
            "entry {entry} is not a live slot of {config}"
        );
        self.ensure_shadows(nodes);
        let old_head = *self.head_mut(kind, config);
        // INVARIANT: the debug_assert above pins `entry` to a live slot
        // of `config`; the auditor cross-checks lists ⇔ slot flags on
        // every audited event.
        let linked = nodes.set_slot_link(entry.node.index(), entry.slot, old_head);
        debug_assert!(linked, "entry {entry} is not a live slot");
        *self.head_mut(kind, config) = Some(entry);
        self.shadow_mut(kind, config).push(entry);
        steps.tick(StepKind::Housekeeping);
    }

    /// Remove `entry` from the `kind` list of `config`. Visits entries
    /// in head-first list order (via the shadow mirror), charging one
    /// housekeeping step per entry visited — the same charge the
    /// link-walk of the singly-linked design incurs. Returns `false`
    /// if the entry was not on the list.
    pub fn remove(
        &mut self,
        nodes: &mut NodeStore,
        kind: ListKind,
        config: ConfigId,
        entry: EntryRef,
        steps: &mut StepCounter,
    ) -> bool {
        self.ensure_shadows(nodes);
        let shadow = self.shadow_mut(kind, config);
        let len = shadow.len();
        // Back-to-front over the shadow is head-first in list order.
        let mut found = None;
        for i in (0..len).rev() {
            steps.tick(StepKind::Housekeeping);
            if shadow[i] == entry {
                found = Some(i);
                break;
            }
        }
        let Some(i) = found else {
            return false;
        };
        // List position p maps to shadow index len - p: the successor
        // (toward the tail) sits at i - 1, the predecessor at i + 1.
        let next = if i > 0 { Some(shadow[i - 1]) } else { None };
        let prev = shadow.get(i + 1).copied();
        shadow.remove(i);
        match prev {
            None => *self.head_mut(kind, config) = next,
            Some(p) => {
                // INVARIANT: the shadow mirrors the live list, so the
                // predecessor is a live slot of the same config.
                let relinked = nodes.set_slot_link(p.node.index(), p.slot, next);
                debug_assert!(relinked, "live predecessor");
            }
        }
        nodes.set_slot_link(entry.node.index(), entry.slot, None);
        true
    }

    /// Iterate the entries of the `kind` list of `config`, head first.
    /// Does **not** charge steps itself — callers charge per visited
    /// entry with the step kind appropriate to their activity
    /// (scheduling search vs housekeeping).
    pub fn iter<'a>(
        &'a self,
        nodes: &'a NodeStore,
        kind: ListKind,
        config: ConfigId,
    ) -> ListIter<'a> {
        ListIter {
            nodes,
            cur: self.head(kind, config),
        }
    }

    /// Length of the `kind` list of `config` (test/diagnostic helper;
    /// charges no steps).
    #[must_use]
    pub fn len(&self, nodes: &NodeStore, kind: ListKind, config: ConfigId) -> usize {
        self.iter(nodes, kind, config).count()
    }

    /// Whether the `kind` list of `config` is empty.
    #[must_use]
    pub fn is_empty(&self, kind: ListKind, config: ConfigId) -> bool {
        self.head(kind, config).is_none()
    }
}

/// Iterator over a configuration's idle or busy list.
pub struct ListIter<'a> {
    nodes: &'a NodeStore,
    cur: Option<EntryRef>,
}

impl Iterator for ListIter<'_> {
    type Item = EntryRef;

    fn next(&mut self) -> Option<EntryRef> {
        let c = self.cur?;
        self.cur = self.nodes.slot_link(c.node.index(), c.slot);
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::ids::NodeId;
    use crate::node::Node;

    fn setup(n_nodes: usize) -> (NodeStore, ConfigLists, Config) {
        let nodes = NodeStore::from_nodes(
            (0..n_nodes)
                .map(|i| Node::new(NodeId::from_index(i), 4000, 1))
                .collect(),
        );
        let lists = ConfigLists::new(4);
        let cfg = Config::new(ConfigId(2), 500, 10);
        (nodes, lists, cfg)
    }

    fn instantiate(nodes: &mut NodeStore, cfg: &Config, node: usize) -> EntryRef {
        let slot = nodes.send_bitstream(node, cfg).unwrap();
        EntryRef::new(NodeId::from_index(node), slot)
    }

    #[test]
    fn push_builds_lifo_order() {
        let (mut nodes, mut lists, cfg) = setup(3);
        let mut steps = StepCounter::new();
        let entries: Vec<EntryRef> = (0..3).map(|i| instantiate(&mut nodes, &cfg, i)).collect();
        for &e in &entries {
            lists.push(&mut nodes, ListKind::Idle, cfg.id, e, &mut steps);
        }
        let order: Vec<EntryRef> = lists.iter(&nodes, ListKind::Idle, cfg.id).collect();
        assert_eq!(order, vec![entries[2], entries[1], entries[0]]);
        assert_eq!(steps.housekeeping, 3);
        assert_eq!(lists.len(&nodes, ListKind::Idle, cfg.id), 3);
        assert!(lists.is_empty(ListKind::Busy, cfg.id));
    }

    #[test]
    fn remove_head_is_one_step() {
        let (mut nodes, mut lists, cfg) = setup(2);
        let mut steps = StepCounter::new();
        let a = instantiate(&mut nodes, &cfg, 0);
        let b = instantiate(&mut nodes, &cfg, 1);
        lists.push(&mut nodes, ListKind::Idle, cfg.id, a, &mut steps);
        lists.push(&mut nodes, ListKind::Idle, cfg.id, b, &mut steps);
        let before = steps.housekeeping;
        assert!(lists.remove(&mut nodes, ListKind::Idle, cfg.id, b, &mut steps));
        assert_eq!(steps.housekeeping - before, 1, "head removal is one step");
        let order: Vec<EntryRef> = lists.iter(&nodes, ListKind::Idle, cfg.id).collect();
        assert_eq!(order, vec![a]);
    }

    #[test]
    fn remove_tail_traverses_whole_list() {
        let (mut nodes, mut lists, cfg) = setup(5);
        let mut steps = StepCounter::new();
        let entries: Vec<EntryRef> = (0..5).map(|i| instantiate(&mut nodes, &cfg, i)).collect();
        for &e in &entries {
            lists.push(&mut nodes, ListKind::Idle, cfg.id, e, &mut steps);
        }
        let before = steps.housekeeping;
        // entries[0] is at the tail after LIFO pushes.
        assert!(lists.remove(&mut nodes, ListKind::Idle, cfg.id, entries[0], &mut steps));
        assert_eq!(
            steps.housekeeping - before,
            5,
            "tail removal walks all links"
        );
        assert_eq!(lists.len(&nodes, ListKind::Idle, cfg.id), 4);
    }

    #[test]
    fn remove_middle_relinks_correctly() {
        let (mut nodes, mut lists, cfg) = setup(3);
        let mut steps = StepCounter::new();
        let e: Vec<EntryRef> = (0..3).map(|i| instantiate(&mut nodes, &cfg, i)).collect();
        for &x in &e {
            lists.push(&mut nodes, ListKind::Idle, cfg.id, x, &mut steps);
        }
        assert!(lists.remove(&mut nodes, ListKind::Idle, cfg.id, e[1], &mut steps));
        let order: Vec<EntryRef> = lists.iter(&nodes, ListKind::Idle, cfg.id).collect();
        assert_eq!(order, vec![e[2], e[0]]);
        // Removed entry's link is cleared so it can join another list.
        assert_eq!(nodes.slot(1, e[1].slot).unwrap().link, None);
    }

    #[test]
    fn remove_missing_entry_returns_false_after_full_scan() {
        let (mut nodes, mut lists, cfg) = setup(3);
        let mut steps = StepCounter::new();
        let a = instantiate(&mut nodes, &cfg, 0);
        let b = instantiate(&mut nodes, &cfg, 1);
        let ghost = instantiate(&mut nodes, &cfg, 2);
        lists.push(&mut nodes, ListKind::Idle, cfg.id, a, &mut steps);
        lists.push(&mut nodes, ListKind::Idle, cfg.id, b, &mut steps);
        let before = steps.housekeeping;
        assert!(!lists.remove(&mut nodes, ListKind::Idle, cfg.id, ghost, &mut steps));
        assert_eq!(steps.housekeeping - before, 2);
        assert_eq!(lists.len(&nodes, ListKind::Idle, cfg.id), 2);
    }

    #[test]
    fn entry_moves_between_idle_and_busy_lists() {
        let (mut nodes, mut lists, cfg) = setup(1);
        let mut steps = StepCounter::new();
        let e = instantiate(&mut nodes, &cfg, 0);
        lists.push(&mut nodes, ListKind::Idle, cfg.id, e, &mut steps);
        assert!(lists.remove(&mut nodes, ListKind::Idle, cfg.id, e, &mut steps));
        lists.push(&mut nodes, ListKind::Busy, cfg.id, e, &mut steps);
        assert!(lists.is_empty(ListKind::Idle, cfg.id));
        assert_eq!(
            lists
                .iter(&nodes, ListKind::Busy, cfg.id)
                .collect::<Vec<_>>(),
            vec![e]
        );
    }

    #[test]
    fn independent_lists_per_config() {
        let (mut nodes, mut lists, _) = setup(2);
        let mut steps = StepCounter::new();
        let c0 = Config::new(ConfigId(0), 300, 10);
        let c1 = Config::new(ConfigId(1), 300, 10);
        let e0 = instantiate(&mut nodes, &c0, 0);
        let e1 = instantiate(&mut nodes, &c1, 1);
        lists.push(&mut nodes, ListKind::Idle, c0.id, e0, &mut steps);
        lists.push(&mut nodes, ListKind::Idle, c1.id, e1, &mut steps);
        assert_eq!(lists.len(&nodes, ListKind::Idle, c0.id), 1);
        assert_eq!(lists.len(&nodes, ListKind::Idle, c1.id), 1);
        assert!(lists.remove(&mut nodes, ListKind::Idle, c0.id, e0, &mut steps));
        assert_eq!(lists.len(&nodes, ListKind::Idle, c1.id), 1);
    }

    #[test]
    fn same_node_two_slots_both_listed() {
        // Partial reconfiguration: one node appears twice in the same
        // config's list through different slots — the generalization the
        // per-slot links exist for.
        let (mut nodes, mut lists, cfg) = setup(1);
        let mut steps = StepCounter::new();
        let s0 = nodes.send_bitstream(0, &cfg).unwrap();
        let s1 = nodes.send_bitstream(0, &cfg).unwrap();
        let e0 = EntryRef::new(NodeId(0), s0);
        let e1 = EntryRef::new(NodeId(0), s1);
        lists.push(&mut nodes, ListKind::Idle, cfg.id, e0, &mut steps);
        lists.push(&mut nodes, ListKind::Idle, cfg.id, e1, &mut steps);
        assert_eq!(lists.len(&nodes, ListKind::Idle, cfg.id), 2);
        assert!(lists.remove(&mut nodes, ListKind::Idle, cfg.id, e0, &mut steps));
        assert_eq!(
            lists
                .iter(&nodes, ListKind::Idle, cfg.id)
                .collect::<Vec<_>>(),
            vec![e1]
        );
    }
}
