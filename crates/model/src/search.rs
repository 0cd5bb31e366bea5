//! Pluggable scheduler-search backends (DESIGN.md §11).
//!
//! The paper concedes that "currently, a simple linear search is
//! employed" for every placement query, and the step-count metrics of
//! Table I are *defined* by those linear walks. This module decouples
//! the **model cost** (scheduling steps charged per search, which feed
//! the figures and reports) from the **wall-clock cost** (how long the
//! simulator actually takes to answer the query):
//!
//! * [`SearchBackend::Linear`] — the paper-faithful scans, default.
//! * [`SearchBackend::Indexed`] — ordered indexes that answer the same
//!   queries in `O(log n)` wall-clock time while still charging the
//!   linear backend's exact step counts, so every report, figure
//!   series, and checkpoint stays **byte-identical** between backends
//!   (proven by the differential harness in `tests/differential.rs`).
//!
//! ## Index structures
//!
//! * a config-area table sorted by `(ReqArea, ConfigId)` for
//!   `FindClosestConfig` (the configuration list is immutable, so this
//!   is built once per rebuild);
//! * `BTreeSet<(TotalArea, NodeId)>` over **blank** up-nodes and
//!   `BTreeSet<(AvailableArea, NodeId)>` over **partially blank**
//!   up-nodes, for `FindBestNode` on blank/partially-blank phases;
//! * per configuration, a `BTreeMap<(AvailableArea, Reverse(seq)),
//!   EntryRef>` over the idle instances, where `seq` is a monotone
//!   push sequence number that reproduces the intrusive idle list's
//!   LIFO tie-breaking exactly (see below).
//!
//! ## Tie-break fidelity
//!
//! The linear `find_best_idle` walks the idle list head→tail and keeps
//! the *first* entry of minimal available area; the head is the most
//! recently pushed entry, so among equals the **largest push sequence**
//! wins. Keying the idle index by `(area, Reverse(seq))` makes
//! `BTreeMap::first_key_value` return exactly that entry. Dually,
//! `find_worst_idle` keeps the first entry of maximal area, recovered
//! by ranging into the maximal-area group from `Reverse(u64::MAX)`.
//!
//! ## What stays linear under both backends
//!
//! `find_first_idle` (the list head is already O(1)), `collect_idle`
//! (must return entries in list order for the random policy's RNG
//! stream), `find_any_idle_node` (Algorithm 1's per-slot accumulation
//! with early exit), and `busy_candidate_exists` (its step charge
//! equals the position of the first match, which no order-preserving
//! index can reproduce without doing the scan). Algorithm 1 is different:
//! only the succeeding node's slot position needs the walk, and every
//! node before it is charged its live-slot count. Both backends share
//! the busy-area shortcut that skips the walk on nodes that cannot
//! succeed (DESIGN.md §4). These are documented in DESIGN.md §11; the
//! differential harness covers them anyway because both backends share
//! the same code paths for them.
//!
//! ## Consistency
//!
//! [`ResourceManager`](crate::store::ResourceManager) keeps the index
//! incrementally in sync from every mutation path (configure,
//! assign/release, evict, fail/repair). `check_invariants` — and hence
//! the engine auditor — cross-checks the live index against a
//! from-scratch [`SearchIndex::rebuild`] via [`IndexSnapshot`]
//! equality, which pins membership, keys, *and* tie-break order.
//! Checkpoints never serialize the index (`#[serde(skip)]`); a resumed
//! run rebuilds it when the backend is re-selected.

use crate::config::Config;
use crate::ids::{Area, ConfigId, EntryRef, NodeId};
use crate::lists::{ConfigLists, ListKind};
use crate::soa::NodeStore;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

/// Which implementation answers the store's placement searches.
///
/// Both concrete backends charge identical
/// [`StepCounter`](crate::StepCounter) costs and return identical
/// results; they differ only in wall-clock time. Selected per run (CLI
/// `--search`); never serialized into reports or checkpoints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SearchBackend {
    /// The paper's linear scans (default).
    #[default]
    Linear,
    /// Ordered-index lookups with linear-equivalent step charging.
    Indexed,
    /// Pick [`Linear`](Self::Linear) or [`Indexed`](Self::Indexed) per
    /// run from the node count (see [`Self::resolve`]). The store
    /// resolves this to a concrete backend at selection time, so `Auto`
    /// never answers a query itself.
    Auto,
}

/// Node count at which [`SearchBackend::Auto`] switches from linear to
/// indexed searches.
///
/// The indexed backend's per-query win grows with the node count, but
/// it pays a roughly constant index-maintenance cost on every store
/// mutation. The threshold dates from an end-to-end measurement on one
/// hardware thread, which put the break-even at ≈200 nodes
/// (indexed-over-linear speedup 0.86–0.89× at 100 nodes, 0.98–1.04× at
/// 200). Re-measured on two hardware threads after suspension rescans
/// became cheap, there is no break-even at 100–200 nodes: over nine
/// passes the median end-to-end speedups were 1.05–1.09× at 100 nodes
/// and 1.00–1.02× at 200, each within its passes' spread. DESIGN.md
/// §11.4 has whole-run times at 1k–100k nodes.
pub const AUTO_INDEXED_MIN_NODES: usize = 200;

impl SearchBackend {
    /// Parse a CLI spelling (`"linear"` / `"indexed"` / `"auto"`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "linear" => Some(SearchBackend::Linear),
            "indexed" => Some(SearchBackend::Indexed),
            "auto" => Some(SearchBackend::Auto),
            _ => None,
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SearchBackend::Linear => "linear",
            SearchBackend::Indexed => "indexed",
            SearchBackend::Auto => "auto",
        }
    }

    /// Resolve to a concrete backend for a store of `total_nodes`
    /// nodes: `Auto` picks by [`AUTO_INDEXED_MIN_NODES`]; the explicit
    /// backends return themselves. Backend choice never changes
    /// results, so this affects wall-clock time only.
    #[must_use]
    pub fn resolve(self, total_nodes: usize) -> SearchBackend {
        match self {
            SearchBackend::Auto => {
                if total_nodes >= AUTO_INDEXED_MIN_NODES {
                    SearchBackend::Indexed
                } else {
                    SearchBackend::Linear
                }
            }
            concrete => concrete,
        }
    }
}

impl std::fmt::Display for SearchBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Key of one idle-index entry: the holding node's available area plus
/// a reversed push-sequence number (larger `seq` = pushed more
/// recently = nearer the intrusive list's head).
type IdleKey = (Area, Reverse<u64>);

/// Which of the two node sets a node is currently registered in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SetKind {
    /// `blank`: keyed by `TotalArea`.
    Blank,
    /// `partial`: keyed by `AvailableArea`.
    Partial,
}

/// Per-node bookkeeping so incremental updates can find and re-key the
/// node's index entries without scanning.
#[derive(Clone, Debug, Default)]
struct NodeIndexState {
    /// Which set the node is registered in, with the key area used
    /// (`None` while the node is down).
    set_key: Option<(SetKind, Area)>,
    /// The available area under which this node's idle entries are
    /// currently keyed in the per-config idle maps.
    keyed_avail: Area,
    /// Idle entries of this node as `(slot, config, push sequence)`,
    /// sorted by slot so every traversal (re-keying on area change)
    /// visits slots in a defined order. A sorted `Vec` rather than a
    /// `BTreeMap`: nodes hold a handful of slots, and these entries are
    /// touched on every store mutation — a tree node allocation per
    /// touched node was measurably the wrong trade.
    slots: Vec<(u32, ConfigId, u64)>,
}

impl NodeIndexState {
    /// Insert `(slot, config, seq)` keeping the slot order.
    fn insert_slot(&mut self, slot: u32, config: ConfigId, seq: u64) {
        let pos = self.slots.partition_point(|&(s, _, _)| s < slot);
        debug_assert!(
            self.slots.get(pos).is_none_or(|&(s, _, _)| s != slot),
            "slot {slot} double-indexed"
        );
        self.slots.insert(pos, (slot, config, seq));
    }

    /// Remove the entry for `slot`, returning its `(config, seq)`.
    fn remove_slot(&mut self, slot: u32) -> Option<(ConfigId, u64)> {
        match self.slots.binary_search_by_key(&slot, |&(s, _, _)| s) {
            Ok(pos) => {
                let (_, config, seq) = self.slots.remove(pos);
                Some((config, seq))
            }
            Err(_) => None,
        }
    }
}

/// Comparable, order-preserving summary of a [`SearchIndex`].
///
/// Two indexes describing the same store state — one maintained
/// incrementally, one rebuilt from scratch — produce **equal**
/// snapshots: the idle component lists entries in key order, so
/// equality pins not just membership but the LIFO tie-break order the
/// linear backend would use. Property tests compare these after every
/// mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexSnapshot {
    /// `(TotalArea, NodeId)` of every blank up-node, ascending.
    pub blank: Vec<(Area, NodeId)>,
    /// `(AvailableArea, NodeId)` of every partially-blank up-node,
    /// ascending.
    pub partial: Vec<(Area, NodeId)>,
    /// Per configuration: the idle instances as
    /// `(AvailableArea, EntryRef)` in best-fit-then-recency order.
    pub idle: Vec<Vec<(Area, EntryRef)>>,
    /// The sorted `(ReqArea, ConfigId)` table.
    pub configs_by_area: Vec<(Area, ConfigId)>,
}

/// The ordered indexes backing [`SearchBackend::Indexed`].
///
/// Owned by [`ResourceManager`](crate::store::ResourceManager), which
/// drives all updates; empty (and unused) while the backend is
/// [`SearchBackend::Linear`].
#[derive(Clone, Debug, Default)]
pub struct SearchIndex {
    /// `(ReqArea, ConfigId)` sorted ascending; immutable per rebuild.
    configs_by_area: Vec<(Area, ConfigId)>,
    /// Blank up-nodes keyed by `(TotalArea, NodeId)`.
    blank: BTreeSet<(Area, NodeId)>,
    /// Partially-blank up-nodes keyed by `(AvailableArea, NodeId)`.
    partial: BTreeSet<(Area, NodeId)>,
    /// Per configuration: idle instances keyed by
    /// `(AvailableArea, Reverse(push_seq))`.
    idle: Vec<BTreeMap<IdleKey, EntryRef>>,
    /// Per-node registration bookkeeping.
    node_state: Vec<NodeIndexState>,
    /// Next push sequence number (monotone; never reused).
    seq_next: u64,
}

impl SearchIndex {
    /// Build the index from scratch off the current store state.
    ///
    /// Idle entries get push sequences assigned in list order (head =
    /// largest), so a rebuilt index reproduces the live index's
    /// tie-break order exactly — the property the incremental hooks are
    /// audited against.
    #[must_use]
    pub fn rebuild(nodes: &NodeStore, configs: &[Config], lists: &ConfigLists) -> Self {
        let mut configs_by_area: Vec<(Area, ConfigId)> =
            configs.iter().map(|c| (c.req_area, c.id)).collect();
        // TIEBREAK: ConfigId is unique per element, so the (area, id)
        // keys are all distinct — stability cannot matter.
        configs_by_area.sort_unstable();
        let mut idx = Self {
            configs_by_area,
            blank: BTreeSet::new(),
            partial: BTreeSet::new(),
            idle: vec![BTreeMap::new(); configs.len()],
            node_state: (0..nodes.len())
                .map(|i| NodeIndexState {
                    set_key: None,
                    keyed_avail: nodes.available_area(i),
                    slots: Vec::new(),
                })
                .collect(),
            seq_next: 0,
        };
        // Bulk-build the blank/partial sets: collect the keys into flat
        // vectors and let `FromIterator` sort and bottom-up-build the
        // trees — a million per-element random inserts was the dominant
        // startup cost at the top bench rung.
        let mut blank_keys: Vec<(Area, NodeId)> = Vec::new();
        let mut partial_keys: Vec<(Area, NodeId)> = Vec::new();
        for i in 0..nodes.len() {
            let desired = idx.desired_set_key(nodes, i);
            idx.node_state[i].set_key = desired;
            match desired {
                Some((SetKind::Blank, area)) => blank_keys.push((area, NodeId::from_index(i))),
                Some((SetKind::Partial, area)) => partial_keys.push((area, NodeId::from_index(i))),
                None => {}
            }
        }
        idx.blank = blank_keys.into_iter().collect();
        idx.partial = partial_keys.into_iter().collect();
        for c in configs {
            let entries: Vec<EntryRef> = lists.iter(nodes, ListKind::Idle, c.id).collect();
            let len = entries.len() as u64;
            for (pos, e) in entries.into_iter().enumerate() {
                // Head of the list was pushed last → largest sequence.
                // BOUND: seq_next is monotone over at most one push per
                // list entry, far below u64 range.
                let seq = idx.seq_next + (len - 1 - pos as u64);
                let avail = nodes.available_area(e.node.index());
                idx.idle[c.id.index()].insert((avail, Reverse(seq)), e);
                idx.node_state[e.node.index()].insert_slot(e.slot, c.id, seq);
            }
            // BOUND: total pushes bounded by total idle entries.
            idx.seq_next += len;
        }
        idx
    }

    /// Drop all index contents (switching back to the linear backend).
    pub(crate) fn clear(&mut self) {
        *self = Self::default();
    }

    fn set_mut(&mut self, kind: SetKind) -> &mut BTreeSet<(Area, NodeId)> {
        match kind {
            SetKind::Blank => &mut self.blank,
            SetKind::Partial => &mut self.partial,
        }
    }

    /// The set registration node `i` should currently have.
    fn desired_set_key(&self, nodes: &NodeStore, i: usize) -> Option<(SetKind, Area)> {
        if nodes.is_down(i) {
            None
        } else if nodes.is_blank(i) {
            Some((SetKind::Blank, nodes.total_area(i)))
        } else {
            Some((SetKind::Partial, nodes.available_area(i)))
        }
    }

    /// Re-register `node` after any mutation that may have changed its
    /// blank/partial/down status or its available area: fixes its set
    /// membership and re-keys its idle entries under the new available
    /// area.
    pub(crate) fn refresh_node(&mut self, nodes: &NodeStore, node: NodeId) {
        let i = node.index();
        let desired = self.desired_set_key(nodes, i);
        let current = self.node_state[i].set_key;
        if current != desired {
            if let Some((kind, area)) = current {
                self.set_mut(kind).remove(&(area, node));
            }
            if let Some((kind, area)) = desired {
                self.set_mut(kind).insert((area, node));
            }
            self.node_state[i].set_key = desired;
        }
        let avail = nodes.available_area(i);
        let old = self.node_state[i].keyed_avail;
        if old != avail {
            // Move every idle entry of this node to its new area key,
            // in slot order (the moves commute, but an ordered walk
            // keeps even the intermediate states deterministic). The
            // disjoint field borrows let this walk the slot vector in
            // place, with no scratch allocation.
            let (node_state, idle) = (&mut self.node_state, &mut self.idle);
            for &(_, config, seq) in &node_state[i].slots {
                let map = &mut idle[config.index()];
                if let Some(e) = map.remove(&(old, Reverse(seq))) {
                    map.insert((avail, Reverse(seq)), e);
                } else {
                    debug_assert!(false, "idle entry of {node} missing during re-key");
                }
            }
            node_state[i].keyed_avail = avail;
        }
    }

    /// Register a freshly idle slot (configure or task release). Call
    /// [`refresh_node`](Self::refresh_node) first so the node's keyed
    /// area is current.
    pub(crate) fn add_entry(&mut self, nodes: &NodeStore, entry: EntryRef, config: ConfigId) {
        let i = entry.node.index();
        let avail = nodes.available_area(i);
        debug_assert_eq!(
            self.node_state[i].keyed_avail, avail,
            "add_entry requires a refreshed node"
        );
        let seq = self.seq_next;
        self.seq_next += 1;
        self.idle[config.index()].insert((avail, Reverse(seq)), entry);
        self.node_state[i].insert_slot(entry.slot, config, seq);
    }

    /// Drop one idle entry (task assignment or eviction). Must run
    /// *before* the mutation changes the node's available area.
    pub(crate) fn remove_entry(&mut self, node: NodeId, slot: u32) {
        let i = node.index();
        if let Some((config, seq)) = self.node_state[i].remove_slot(slot) {
            let keyed = self.node_state[i].keyed_avail;
            let removed = self.idle[config.index()].remove(&(keyed, Reverse(seq)));
            debug_assert!(removed.is_some(), "idle entry {node}#{slot} not indexed");
        } else {
            debug_assert!(false, "removing unindexed entry {node}#{slot}");
        }
    }

    /// Drop every trace of `node` (node failure): its idle entries and
    /// its blank/partial registration.
    pub(crate) fn purge_node(&mut self, nodes: &NodeStore, node: NodeId) {
        let i = node.index();
        let keyed = self.node_state[i].keyed_avail;
        let (node_state, idle) = (&mut self.node_state, &mut self.idle);
        for (_, config, seq) in node_state[i].slots.drain(..) {
            idle[config.index()].remove(&(keyed, Reverse(seq)));
        }
        if let Some((kind, area)) = self.node_state[i].set_key.take() {
            self.set_mut(kind).remove(&(area, node));
        }
        self.node_state[i].keyed_avail = nodes.available_area(i);
    }

    // ------------------------------------------------------------------
    // Queries (used by ResourceManager's dispatch; step charging is the
    // caller's responsibility so model cost stays backend-independent).
    // ------------------------------------------------------------------

    /// Number of idle instances of `config` (equals the idle list
    /// length, which is the linear search's step charge).
    #[must_use]
    pub(crate) fn idle_len(&self, config: ConfigId) -> usize {
        self.idle[config.index()].len()
    }

    /// Idle instance with minimal `(AvailableArea, Reverse(seq))` —
    /// the linear best-fit walk's exact pick.
    #[must_use]
    pub(crate) fn best_idle(&self, config: ConfigId) -> Option<EntryRef> {
        self.idle[config.index()].first_key_value().map(|(_, &e)| e)
    }

    /// Idle instance the linear worst-fit walk would pick: the most
    /// recently pushed entry of the maximal-area group.
    #[must_use]
    pub(crate) fn worst_idle(&self, config: ConfigId) -> Option<EntryRef> {
        let map = &self.idle[config.index()];
        let (&(max_area, _), _) = map.last_key_value()?;
        map.range((max_area, Reverse(u64::MAX))..)
            .next()
            .map(|(_, &e)| e)
    }

    /// Blank up-nodes with `TotalArea ≥ min_area`, ascending by
    /// `(TotalArea, NodeId)` — the linear scan's preference order.
    pub(crate) fn blank_candidates(&self, min_area: Area) -> impl Iterator<Item = NodeId> + '_ {
        self.blank.range((min_area, NodeId(0))..).map(|&(_, id)| id)
    }

    /// Partially-blank up-nodes with `AvailableArea ≥ min_area`,
    /// ascending by `(AvailableArea, NodeId)`.
    pub(crate) fn partial_candidates(&self, min_area: Area) -> impl Iterator<Item = NodeId> + '_ {
        self.partial
            .range((min_area, NodeId(0))..)
            .map(|&(_, id)| id)
    }

    /// The configuration the linear `FindClosestConfig` scan would
    /// return: minimal `(ReqArea, ConfigId)` with `ReqArea` strictly
    /// above `needed_area`.
    #[must_use]
    pub(crate) fn closest_config(&self, needed_area: Area) -> Option<ConfigId> {
        let i = self
            .configs_by_area
            .partition_point(|&(a, _)| a <= needed_area);
        self.configs_by_area.get(i).map(|&(_, id)| id)
    }

    /// Order-preserving summary for consistency checks (see
    /// [`IndexSnapshot`]).
    #[must_use]
    pub fn snapshot(&self) -> IndexSnapshot {
        IndexSnapshot {
            blank: self.blank.iter().copied().collect(),
            partial: self.partial.iter().copied().collect(),
            idle: self
                .idle
                .iter()
                .map(|m| m.iter().map(|(&(a, _), &e)| (a, e)).collect())
                .collect(),
            configs_by_area: self.configs_by_area.clone(),
        }
    }
}

impl IndexSnapshot {
    /// First component on which `self` and `other` disagree, for
    /// auditor diagnostics; `None` when equal.
    #[must_use]
    pub fn first_divergence(&self, other: &IndexSnapshot) -> Option<String> {
        if self.blank != other.blank {
            return Some(format!(
                "blank set: live {:?} vs rebuilt {:?}",
                self.blank, other.blank
            ));
        }
        if self.partial != other.partial {
            return Some(format!(
                "partially-blank set: live {:?} vs rebuilt {:?}",
                self.partial, other.partial
            ));
        }
        if self.configs_by_area != other.configs_by_area {
            return Some("config-area table out of order".to_string());
        }
        for (i, (a, b)) in self.idle.iter().zip(&other.idle).enumerate() {
            if a != b {
                return Some(format!(
                    "idle index of ConfigId({i}): live {a:?} vs rebuilt {b:?}"
                ));
            }
        }
        if self.idle.len() != other.idle.len() {
            return Some(format!(
                "idle index covers {} configs, rebuild covers {}",
                self.idle.len(),
                other.idle.len()
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parse_round_trips() {
        for b in [
            SearchBackend::Linear,
            SearchBackend::Indexed,
            SearchBackend::Auto,
        ] {
            assert_eq!(SearchBackend::parse(b.label()), Some(b));
            assert_eq!(b.to_string(), b.label());
        }
        assert_eq!(SearchBackend::parse("btree"), None);
        assert_eq!(SearchBackend::default(), SearchBackend::Linear);
    }

    #[test]
    fn auto_resolves_by_node_count() {
        assert_eq!(
            SearchBackend::Auto.resolve(AUTO_INDEXED_MIN_NODES - 1),
            SearchBackend::Linear
        );
        assert_eq!(
            SearchBackend::Auto.resolve(AUTO_INDEXED_MIN_NODES),
            SearchBackend::Indexed
        );
        assert_eq!(SearchBackend::Auto.resolve(10_000), SearchBackend::Indexed);
        // Explicit backends are fixed points of resolution.
        assert_eq!(SearchBackend::Linear.resolve(10_000), SearchBackend::Linear);
        assert_eq!(SearchBackend::Indexed.resolve(1), SearchBackend::Indexed);
    }

    #[test]
    fn empty_index_answers_nothing() {
        let idx = SearchIndex::rebuild(&NodeStore::default(), &[], &ConfigLists::new(0));
        assert_eq!(idx.closest_config(0), None);
        assert_eq!(idx.blank_candidates(0).next(), None);
        assert_eq!(idx.partial_candidates(0).next(), None);
        let snap = idx.snapshot();
        assert!(snap.blank.is_empty() && snap.partial.is_empty());
        assert_eq!(snap.first_divergence(&idx.snapshot()), None);
    }
}
