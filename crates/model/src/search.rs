//! The ordered search index behind the paper's cost model (DESIGN.md
//! §11).
//!
//! The paper concedes that "currently, a simple linear search is
//! employed" for every placement query, and the step-count metrics of
//! Table I are *defined* by those linear walks. This module decouples
//! the **model cost** (scheduling steps charged per search, which feed
//! the figures and reports) from the **wall-clock cost** (how long the
//! simulator actually takes to answer the query): [`SearchIndex`]
//! answers the store's searches in `O(log n)` wall-clock time, and
//! [`ResourceManager`](crate::store::ResourceManager) charges the exact
//! step counts the paper's linear walk would have charged. The
//! executable paper spec in `tests/paper_spec.rs` replays every run
//! with plain linear scans and checks placements, Table I metrics and
//! both step counters against the engine.
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
//!   push sequence number that reproduces the idle list's LIFO
//!   tie-breaking exactly (see below).
//!
//! The index keeps no per-node state. An idle entry's push sequence
//! lives in its slot record ([`NodeStore`]), and a node's keys (its
//! blank/partial registration and its available area) are functions of
//! the node's record: a mutation reads them before changing the node
//! and hands them to the refresh, which moves the node's entries from
//! the old keys to the new ones.
//!
//! ## Tie-break fidelity
//!
//! The paper's best-fit walk visits the idle list head→tail and keeps
//! the *first* entry of minimal available area; the head is the most
//! recently pushed entry, so among equals the **largest push sequence**
//! wins. Keying the idle index by `(area, Reverse(seq))` makes
//! `BTreeMap::first_key_value` return exactly that entry. Dually,
//! worst fit keeps the first entry of maximal area, recovered by
//! ranging into the maximal-area group from `Reverse(u64::MAX)`.
//!
//! ## What the index does not answer
//!
//! `find_first_idle` (the list head is already O(1)), `collect_idle`
//! (must return entries in list order for the random policy's RNG
//! stream), `find_any_idle_node` (Algorithm 1's per-slot accumulation
//! with early exit), and `busy_candidate_exists` (its step charge
//! equals the position of the first match, which no order-preserving
//! index can reproduce without doing the scan) walk the lists and the
//! node table directly. Algorithm 1 skips the walk on nodes that cannot
//! succeed, using the node record's busy area (DESIGN.md §4).
//!
//! ## Consistency
//!
//! [`ResourceManager`](crate::store::ResourceManager) builds the index
//! with the store, rebuilds it (and re-stamps the slot records' push
//! sequences) when a store is deserialized, and keeps it incrementally
//! in sync from every mutation path (configure, assign/release, evict,
//! fail/repair). `check_invariants` — and hence the engine auditor —
//! checks the live index against the node records and lists in one
//! pass (`SearchIndex::check`): every set entry under its node's key,
//! every idle-list entry under its map key, push sequences falling from
//! head to tail, and each set's and map's size. That pins membership,
//! keys *and* tie-break order, as equality with a from-scratch
//! [`SearchIndex::rebuild`]'s [`IndexSnapshot`] does; the property
//! tests hold the live index to that rebuild after every mutation.
//! Checkpoints never serialize the index.

use crate::config::Config;
use crate::ids::{Area, ConfigId, EntryRef, NodeId};
use crate::lists::{ConfigLists, ListKind};
use crate::soa::NodeStore;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

/// Key of one idle-index entry: the holding node's available area plus
/// a reversed push-sequence number (larger `seq` = pushed more
/// recently = nearer the list's head).
type IdleKey = (Area, Reverse<u64>);

/// Which of the two node sets a node is currently registered in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SetKind {
    /// `blank`: keyed by `TotalArea`.
    Blank,
    /// `partial`: keyed by `AvailableArea`.
    Partial,
}

/// A node's registration in the index, as a function of its store
/// state: the blank/partial set it belongs in with that set's key
/// (`None` while the node is down), and the available area its idle
/// entries are keyed under. A mutation reads it before changing the
/// node and hands it to [`SearchIndex::refresh_node`] afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NodeKey {
    set: Option<(SetKind, Area)>,
    pub(crate) avail: Area,
}

impl NodeKey {
    /// The registration node `i` has in an index in sync with `nodes`.
    pub(crate) fn of(nodes: &NodeStore, i: usize) -> Self {
        let set = if nodes.is_down(i) {
            None
        } else if nodes.is_blank(i) {
            Some((SetKind::Blank, nodes.total_area(i)))
        } else {
            Some((SetKind::Partial, nodes.available_area(i)))
        };
        Self {
            set,
            avail: nodes.available_area(i),
        }
    }
}

/// Comparable, order-preserving summary of a [`SearchIndex`].
///
/// Two indexes describing the same store state — one maintained
/// incrementally, one rebuilt from scratch — produce **equal**
/// snapshots: the idle component lists entries in key order, so
/// equality pins not just membership but the LIFO tie-break order the
/// paper's list walk would use. Property tests compare these after every
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

/// The ordered indexes that answer the store's placement searches.
///
/// Owned by [`ResourceManager`](crate::store::ResourceManager), which
/// drives all updates.
#[derive(Clone, Debug, Default)]
pub struct SearchIndex {
    /// `(ReqArea, ConfigId)` sorted ascending; immutable per rebuild.
    configs_by_area: Vec<(Area, ConfigId)>,
    /// Blank up-nodes keyed by `(TotalArea, NodeId)`.
    blank: BTreeSet<(Area, NodeId)>,
    /// Partially-blank up-nodes keyed by `(AvailableArea, NodeId)`.
    partial: BTreeSet<(Area, NodeId)>,
    /// Per configuration: idle instances keyed by
    /// `(AvailableArea, Reverse(push_seq))`. Each entry's push sequence
    /// is also stored in its slot record, so that a mutation can find
    /// the entry from the slot.
    idle: Vec<BTreeMap<IdleKey, EntryRef>>,
    /// Next push sequence number (monotone; never reused).
    seq_next: u64,
}

impl SearchIndex {
    /// Build the index from scratch off the current store state.
    ///
    /// Idle entries get push sequences assigned in list order (head =
    /// largest), so a rebuilt index reproduces the live index's
    /// tie-break order exactly — the property the incremental hooks are
    /// audited against. The slot records keep their sequences; a store
    /// that adopts the rebuild writes them with `stamp`.
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
            seq_next: 0,
        };
        // Bulk-build the blank/partial sets: collect the keys into flat
        // vectors and let `FromIterator` sort and bottom-up-build the
        // trees — a million per-element random inserts was the dominant
        // startup cost at the top bench rung.
        let mut blank_keys: Vec<(Area, NodeId)> = Vec::new();
        let mut partial_keys: Vec<(Area, NodeId)> = Vec::new();
        for i in 0..nodes.len() {
            match NodeKey::of(nodes, i).set {
                Some((SetKind::Blank, area)) => blank_keys.push((area, NodeId::from_index(i))),
                Some((SetKind::Partial, area)) => partial_keys.push((area, NodeId::from_index(i))),
                None => {}
            }
        }
        idx.blank = blank_keys.into_iter().collect();
        idx.partial = partial_keys.into_iter().collect();
        for c in configs {
            let len = lists.len(ListKind::Idle, c.id) as u64;
            for (pos, e) in lists.iter(ListKind::Idle, c.id).enumerate() {
                // Head of the list was pushed last → largest sequence.
                // BOUND: seq_next is monotone over at most one push per
                // list entry, far below u64 range.
                let seq = idx.seq_next + (len - 1 - pos as u64);
                let avail = nodes.available_area(e.node.index());
                idx.idle[c.id.index()].insert((avail, Reverse(seq)), e);
            }
            // BOUND: total pushes bounded by total idle entries.
            idx.seq_next += len;
        }
        idx
    }

    /// Write every idle entry's push sequence into its slot record, so
    /// that `nodes` can drive this index's incremental updates.
    pub(crate) fn stamp(&self, nodes: &mut NodeStore) {
        for map in &self.idle {
            for (&(_, Reverse(seq)), &e) in map {
                nodes.set_seq(e, seq);
            }
        }
    }

    fn set_mut(&mut self, kind: SetKind) -> &mut BTreeSet<(Area, NodeId)> {
        match kind {
            SetKind::Blank => &mut self.blank,
            SetKind::Partial => &mut self.partial,
        }
    }

    /// Re-register `node` after a mutation that may have changed its
    /// blank/partial/down status or its available area. `before` is the
    /// node's key read before the mutation: the set entry moves to the
    /// new key, and every indexed idle entry of the node moves to the
    /// new available area.
    pub(crate) fn refresh_node(&mut self, nodes: &NodeStore, node: NodeId, before: NodeKey) {
        let i = node.index();
        let after = NodeKey::of(nodes, i);
        if before.set != after.set {
            if let Some((kind, area)) = before.set {
                self.set_mut(kind).remove(&(area, node));
            }
            if let Some((kind, area)) = after.set {
                self.set_mut(kind).insert((area, node));
            }
        }
        if before.avail != after.avail {
            // Move every idle entry of this node to its new area key,
            // in slot order (the moves commute, but an ordered walk
            // keeps even the intermediate states deterministic).
            for (_, cell) in nodes.cells_of(i).filter(|(_, c)| c.task.is_none()) {
                let map = &mut self.idle[cell.config.index()];
                if let Some(e) = map.remove(&(before.avail, Reverse(cell.seq))) {
                    map.insert((after.avail, Reverse(cell.seq)), e);
                } else {
                    debug_assert!(false, "idle entry of {node} missing during re-key");
                }
            }
        }
    }

    /// Register a freshly idle slot (configure or task release) under
    /// the available area `avail`, recording its push sequence in the
    /// slot record.
    pub(crate) fn add_entry(
        &mut self,
        nodes: &mut NodeStore,
        entry: EntryRef,
        config: ConfigId,
        avail: Area,
    ) {
        let seq = self.seq_next;
        self.seq_next += 1;
        nodes.set_seq(entry, seq);
        self.idle[config.index()].insert((avail, Reverse(seq)), entry);
    }

    /// Drop one idle entry (task assignment, eviction or node failure).
    /// Must run *before* the mutation changes the node's available
    /// area, under which the entry is keyed.
    pub(crate) fn remove_entry(&mut self, nodes: &NodeStore, entry: EntryRef) {
        let Some(cell) = nodes.cell(entry) else {
            debug_assert!(false, "removing unindexed entry {entry}");
            return;
        };
        let key = (nodes.available_area(entry.node.index()), Reverse(cell.seq));
        let removed = self.idle[cell.config.index()].remove(&key);
        debug_assert!(removed.is_some(), "idle entry {entry} not indexed");
    }

    // ------------------------------------------------------------------
    // Queries (used by ResourceManager's dispatch; step charging is the
    // caller's responsibility, so the model cost stays the paper's).
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

    /// Check this index against the store state it answers for, in one
    /// pass over the nodes and the idle lists, without building a
    /// second index:
    /// 1. every blank and partial entry's key is its node's [`NodeKey`];
    /// 2. each set holds as many entries as there are nodes that belong
    ///    in it;
    /// 3. each idle list's entries sit in their configuration's map
    ///    under `(available area, Reverse(seq))`, `seq` being the slot's
    ///    push sequence;
    /// 4. push sequences strictly fall from each list's head to its
    ///    tail, all below `seq_next`;
    /// 5. each map holds as many entries as its list;
    /// 6. the config-area table is the configurations sorted by
    ///    `(ReqArea, ConfigId)`.
    ///
    /// 1–2 pin the node sets' membership and keys, and 3–5 the idle
    /// maps' membership, keys and the list walk's tie-break order: what
    /// equality with a rebuild's [`IndexSnapshot`] pins.
    pub(crate) fn check(
        &self,
        nodes: &NodeStore,
        configs: &[Config],
        lists: &ConfigLists,
    ) -> Result<(), String> {
        let (mut blank, mut partial) = (0usize, 0usize);
        for i in 0..nodes.len() {
            match NodeKey::of(nodes, i).set {
                Some((SetKind::Blank, _)) => blank += 1,
                Some((SetKind::Partial, _)) => partial += 1,
                None => {}
            }
        }
        for (set, kind, belong, name) in [
            (&self.blank, SetKind::Blank, blank, "blank"),
            (&self.partial, SetKind::Partial, partial, "partially-blank"),
        ] {
            for &(area, node) in set {
                let key = (node.index() < nodes.len()).then(|| NodeKey::of(nodes, node.index()));
                if key.map(|k| k.set) != Some(Some((kind, area))) {
                    return Err(format!(
                        "{name} set holds ({area}, {node}), but the node's key is {key:?}"
                    ));
                }
            }
            if set.len() != belong {
                return Err(format!(
                    "{name} set holds {} nodes, but {belong} belong in it",
                    set.len()
                ));
            }
        }
        if self.idle.len() != configs.len() {
            return Err(format!(
                "idle index covers {} configs, the table has {}",
                self.idle.len(),
                configs.len()
            ));
        }
        for (c, map) in configs.iter().zip(&self.idle) {
            let mut above = self.seq_next;
            for e in lists.iter(ListKind::Idle, c.id) {
                let Some(cell) = nodes.cell(e) else {
                    return Err(format!("idle list of {} holds dead slot {e}", c.id));
                };
                if cell.seq >= above {
                    return Err(format!(
                        "idle list of {}: {e}'s push sequence {} does not fall below {above}",
                        c.id, cell.seq
                    ));
                }
                above = cell.seq;
                let key = (nodes.available_area(e.node.index()), Reverse(cell.seq));
                if map.get(&key) != Some(&e) {
                    return Err(format!(
                        "idle index of {}: {e} is not under its key {key:?}",
                        c.id
                    ));
                }
            }
            let listed = lists.len(ListKind::Idle, c.id);
            if map.len() != listed {
                return Err(format!(
                    "idle index of {} holds {} entries, its list {listed}",
                    c.id,
                    map.len()
                ));
            }
        }
        let sorted = self.configs_by_area.windows(2).all(|w| w[0] < w[1]);
        let exact = self.configs_by_area.len() == configs.len()
            && self
                .configs_by_area
                .iter()
                .all(|&(area, id)| configs.get(id.index()).is_some_and(|c| c.req_area == area));
        if !(sorted && exact) {
            return Err("config-area table out of order".to_string());
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_index_answers_nothing() {
        let idx = SearchIndex::rebuild(&NodeStore::default(), &[], &ConfigLists::new(0));
        assert_eq!(idx.closest_config(0), None);
        assert_eq!(idx.blank_candidates(0).next(), None);
        assert_eq!(idx.partial_candidates(0).next(), None);
        let snap = idx.snapshot();
        assert!(snap.blank.is_empty() && snap.partial.is_empty());
        assert_eq!(snap, idx.snapshot());
        idx.check(&NodeStore::default(), &[], &ConfigLists::new(0))
            .unwrap();
    }
}
