//! The resource information manager: the single owner of nodes,
//! configurations, and the idle/busy lists, exposing exactly the queries
//! and mutations the scheduling algorithm of Section V needs.
//!
//! All searches charge [`StepKind::Scheduling`] steps (they are issued on
//! behalf of the scheduler); all list maintenance inside mutations
//! charges [`StepKind::Housekeeping`] (the resource information module's
//! own work). The sum of the two is the paper's *total scheduler
//! workload*.
//!
//! Searches are answered from an ordered [`SearchIndex`]
//! ([`crate::search`]) that returns what the paper's linear scans
//! return **and charges the steps those scans charge**, so the model
//! cost is the paper's while the wall-clock cost is logarithmic
//! (DESIGN.md §11).
//!
//! Node state lives in a [`NodeStore`] (DESIGN.md §18.1): one 64-byte
//! record per node and one record per slot, so a mutation touches one
//! node record, one slot record and one list vector. Readers outside
//! the manager borrow it through
//! [`ResourceManager::node_store`] and ask its index accessors; the
//! manager adds no read path of its own. Checkpoints write the store and
//! the idle/busy lists as packed varint columns, straight from the node
//! and slot records, and read them straight back into the records,
//! checking each column against the ones before it (DESIGN.md §18.4).
//! Construction builds blank nodes from [`Node`] specs through
//! [`NodeStore::from_nodes`], which shares the column reader's check of
//! a node's spec.

use crate::caps::Capabilities;
use crate::config::Config;
use crate::ids::{Area, ConfigId, EntryRef, NodeId, TaskId, MAX_AREA};
use crate::lists::{ConfigLists, ListKind};
use crate::node::{Node, NodeState};
use crate::search::{IndexSnapshot, NodeKey, SearchIndex};
use crate::soa::{NodeError, NodeStore};
use crate::steps::{StepCounter, StepKind};
use crate::task::PreferredConfig;

/// What a placement search is looking for: reconfigurable area plus any
/// hardware capabilities the configuration requires of its host node
/// (empty in the paper's evaluation; populated by the
/// capability-constraint extension).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Demand {
    /// Area the configuration occupies.
    pub area: Area,
    /// Capabilities the host node must offer.
    pub caps: Capabilities,
}

impl Demand {
    /// Capability-free demand (the paper's case).
    #[must_use]
    pub fn area(area: Area) -> Self {
        Self {
            area,
            caps: Capabilities::none(),
        }
    }

    /// The demand a configuration places on its host.
    #[must_use]
    pub fn of(config: &Config) -> Self {
        Self {
            area: config.req_area,
            caps: config.required_caps,
        }
    }

    /// Whether a node offering `caps` meets the required capabilities.
    #[inline]
    #[must_use]
    pub fn caps_ok(&self, caps: Capabilities) -> bool {
        caps.is_superset_of(self.caps)
    }
}

/// Owner of all resource state for one simulation run.
///
/// Serialized by hand in the checkpoint form `{nodes, configs}`: the
/// node table, its slots, free stacks and strips, and the idle/busy
/// lists as one packed table of varint columns (DESIGN.md §18.4), and
/// the configuration table as JSON records.
#[derive(Clone, Debug)]
pub struct ResourceManager {
    nodes: NodeStore,
    configs: Vec<Config>,
    lists: ConfigLists,
    /// The ordered indexes that answer placement searches, derived from
    /// the node table and lists.
    // REBUILD: derived state only — deserialization calls
    // `SearchIndex::rebuild` from the restored nodes/lists, and the
    // restore audit pins live-vs-rebuilt snapshot equality.
    index: SearchIndex,
    /// Monotone count of store mutation operations (configure, evict,
    /// assign, release, fail, repair) — the phase profiler's
    /// store-mutate counter. Deterministic: driven entirely by the
    /// simulated schedule, never by wall-clock.
    // REBUILD: diagnostics only — a resumed run restarts the profile
    // window at zero; no simulated state depends on this counter.
    mutation_ops: u64,
}

impl ResourceManager {
    /// Build a manager over the given nodes and configuration list.
    ///
    /// # Panics
    /// Panics if node or configuration ids are not the dense sequence
    /// `0..len` in order (both tables are arena-indexed), or with
    /// [`NodeStore::from_nodes`]'s message if a node spec fails its
    /// other check.
    #[must_use]
    pub fn new(nodes: Vec<Node>, configs: Vec<Config>) -> Self {
        for (i, c) in configs.iter().enumerate() {
            assert_eq!(c.id.index(), i, "config ids must be dense and ordered");
        }
        let nodes = NodeStore::from_nodes(nodes).unwrap_or_else(|e| panic!("{e}"));
        let lists = ConfigLists::new(configs.len());
        let index = SearchIndex::rebuild(&nodes, &configs, &lists);
        Self {
            nodes,
            configs,
            lists,
            index,
            mutation_ops: 0,
        }
    }

    /// Snapshot of the live search index. Property tests compare this
    /// against [`rebuilt_index_snapshot`](Self::rebuilt_index_snapshot).
    #[must_use]
    pub fn search_index_snapshot(&self) -> IndexSnapshot {
        self.index.snapshot()
    }

    /// Snapshot of a from-scratch index rebuild off the current store
    /// state — the ground truth the live index must match.
    #[must_use]
    pub fn rebuilt_index_snapshot(&self) -> IndexSnapshot {
        SearchIndex::rebuild(&self.nodes, &self.configs, &self.lists).snapshot()
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of configurations in the configuration list.
    #[must_use]
    pub fn num_configs(&self) -> usize {
        self.configs.len()
    }

    /// Store mutation operations performed so far (phase profiler's
    /// store-mutate counter; deterministic).
    #[must_use]
    pub fn mutation_ops(&self) -> u64 {
        self.mutation_ops
    }

    /// The node table (read-only): every read of runtime node state
    /// goes through its index accessors.
    #[must_use]
    pub fn node_store(&self) -> &NodeStore {
        &self.nodes
    }

    /// Corrupt a live slot's denormalized `area` **bypassing area
    /// accounting**. Exists solely so tests (e.g. the invariant
    /// auditor's) can damage store state on purpose; production code
    /// must go through the mutation API, which keeps the idle/busy
    /// lists and area sums consistent.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live.
    #[doc(hidden)]
    pub fn debug_set_slot_area(&mut self, node: NodeId, slot: u32, area: Area) {
        self.nodes.debug_set_slot_area(node.index(), slot, area);
    }

    /// Corrupt a node's `TotalArea` without rebalancing (tests only).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[doc(hidden)]
    pub fn debug_set_total_area(&mut self, node: NodeId, area: Area) {
        self.nodes.debug_set_total_area(node.index(), area);
    }

    /// Corrupt a live slot's task field **bypassing list maintenance**
    /// (tests only).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live.
    #[doc(hidden)]
    pub fn debug_set_slot_task(&mut self, node: NodeId, slot: u32, task: Option<TaskId>) {
        self.nodes.debug_set_slot_task(node.index(), slot, task);
    }

    /// Borrow a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range. Config ids are dense (checked at
    /// construction), so any id produced by this store is valid.
    #[must_use]
    pub fn config(&self, id: ConfigId) -> &Config {
        &self.configs[id.index()]
    }

    /// All configurations, in id order.
    #[must_use]
    pub fn configs(&self) -> &[Config] {
        &self.configs
    }

    /// Borrow the idle/busy lists (read-only; for diagnostics/tests).
    #[must_use]
    pub fn lists(&self) -> &ConfigLists {
        &self.lists
    }

    // ------------------------------------------------------------------
    // Searches (Section V / Algorithm 1), charging scheduling steps.
    // ------------------------------------------------------------------

    /// `FindPreferredConfig()`: linear search of the configuration list
    /// for the task's `Cpref`. A [`PreferredConfig::Phantom`] is by
    /// definition absent but still costs the full scan (the paper notes
    /// "currently, a simple linear search is employed").
    pub fn find_preferred_config(
        &self,
        pref: PreferredConfig,
        steps: &mut StepCounter,
    ) -> Option<ConfigId> {
        match pref {
            // Config ids are dense and ordered (checked at construction),
            // so the scan reaches `id` after exactly `index + 1` probes.
            PreferredConfig::Known(id) if id.index() < self.configs.len() => {
                steps.charge(StepKind::Scheduling, id.index() as u64 + 1);
                Some(id)
            }
            PreferredConfig::Known(_) | PreferredConfig::Phantom { .. } => {
                steps.charge(StepKind::Scheduling, self.configs.len() as u64);
                None
            }
        }
    }

    /// `FindClosestConfig()`: the configuration whose `ReqArea` is
    /// minimal among those with `ReqArea` **greater than** the preferred
    /// configuration's area (the paper's criterion, Section IV.C).
    pub fn find_closest_config(
        &self,
        needed_area: Area,
        steps: &mut StepCounter,
    ) -> Option<ConfigId> {
        // The scan visits the whole table.
        steps.charge(StepKind::Scheduling, self.configs.len() as u64);
        self.index.closest_config(needed_area)
    }

    /// `FindBestNode()`: among idle instances of `config`, the node with
    /// minimum `AvailableArea` (best fit — "so that the nodes with larger
    /// AvailableArea are utilized for later re-configurations").
    pub fn find_best_idle(&self, config: ConfigId, steps: &mut StepCounter) -> Option<EntryRef> {
        // The walk visits every list entry; charge the same.
        steps.charge(StepKind::Scheduling, self.index.idle_len(config) as u64);
        self.index.best_idle(config)
    }

    /// First idle instance of `config` in list order (first fit), for the
    /// policy ablation.
    ///
    /// Answered from the idle list, whose head is already O(1). A
    /// probe of an **empty** list charges zero scheduling steps (there
    /// is no entry to examine), pinned by a unit test.
    pub fn find_first_idle(&self, config: ConfigId, steps: &mut StepCounter) -> Option<EntryRef> {
        let e = self.lists.iter(ListKind::Idle, config).next();
        if e.is_some() {
            steps.tick(StepKind::Scheduling);
        }
        e
    }

    /// Among idle instances of `config`, the node with **maximum**
    /// available area (worst fit), for the policy ablation.
    pub fn find_worst_idle(&self, config: ConfigId, steps: &mut StepCounter) -> Option<EntryRef> {
        steps.charge(StepKind::Scheduling, self.index.idle_len(config) as u64);
        self.index.worst_idle(config)
    }

    /// All idle instances of `config`, charging one scheduling step per
    /// visited entry (random-choice policy support).
    ///
    /// Walks the idle list: the caller (the random policy) indexes
    /// into the returned vector with an RNG draw, so the **list order**
    /// of the result is semantically significant. An empty list charges
    /// zero steps.
    pub fn collect_idle(&self, config: ConfigId, steps: &mut StepCounter) -> Vec<EntryRef> {
        let v: Vec<EntryRef> = self.lists.iter(ListKind::Idle, config).collect();
        steps.charge(StepKind::Scheduling, v.len() as u64);
        v
    }

    /// Best **blank** node for the demanded area/capabilities: minimal
    /// `TotalArea` among eligible blank nodes. The paper keeps no blank
    /// list, so it scans the node table.
    pub fn find_best_blank(&self, demand: Demand, steps: &mut StepCounter) -> Option<NodeId> {
        // Charge the full table scan, then answer from the blank index:
        // candidates arrive in ascending (TotalArea, NodeId) order —
        // exactly the scan's preference — so the first one passing the
        // capability and placement filters is the scan's pick.
        steps.charge(StepKind::Scheduling, self.nodes.len() as u64);
        self.index.blank_candidates(demand.area).find(|&id| {
            let i = id.index();
            demand.caps_ok(self.nodes.caps(i)) && self.nodes.can_host(i, demand.area)
        })
    }

    /// Best **partially blank** node: already holds ≥ 1 configuration and
    /// has `AvailableArea ≥ req_area`; minimal sufficient available area
    /// ("the scheduler chooses a node with minimum sufficient region").
    /// Only meaningful under partial reconfiguration.
    pub fn find_best_partially_blank(
        &self,
        demand: Demand,
        steps: &mut StepCounter,
    ) -> Option<NodeId> {
        steps.charge(StepKind::Scheduling, self.nodes.len() as u64);
        self.index.partial_candidates(demand.area).find(|&id| {
            let i = id.index();
            demand.caps_ok(self.nodes.caps(i)) && self.nodes.can_host(i, demand.area)
        })
    }

    /// Algorithm 1, `FindAnyIdleNode`: scan nodes accumulating
    /// `AvailableArea` plus the areas of **idle** config-task entries;
    /// the first node whose reclaimable area reaches `req_area` is
    /// returned together with the idle slots to evict. Each examined
    /// entry charges one scheduling step (the paper increments both
    /// `SearchLength` and `TotalSimWorkLoad`; scheduling steps fold into
    /// the workload total by definition here).
    ///
    /// Only the succeeding node's charge needs the walk (its slot
    /// position); every node before it is charged its live-slot count,
    /// and a node whose idle slots cannot cover the demand is answered
    /// from the node record's busy area without walking
    /// ([`NodeStore::reclaim_idle`], DESIGN.md §4).
    pub fn find_any_idle_node(
        &self,
        demand: Demand,
        steps: &mut StepCounter,
    ) -> Option<(NodeId, Vec<u32>)> {
        for i in 0..self.nodes.len() {
            if self.nodes.is_down(i) || !demand.caps_ok(self.nodes.caps(i)) {
                continue;
            }
            let (evict, visited) = self.nodes.reclaim_idle(i, demand.area);
            steps.charge(StepKind::Scheduling, u64::from(visited));
            if let Some(evict) = evict {
                return Some((NodeId::from_index(i), evict));
            }
        }
        None
    }

    /// "Query busy list for potential candidate": does any currently busy
    /// node have `TotalArea ≥ req_area`, so that suspending the task and
    /// waiting for that node is worthwhile?
    ///
    /// A scan, not an index lookup: the early-exit scan charges exactly
    /// the position of the first match, a quantity only the scan itself
    /// can produce (DESIGN.md §11).
    pub fn busy_candidate_exists(&self, demand: Demand, steps: &mut StepCounter) -> bool {
        for i in 0..self.nodes.len() {
            steps.tick(StepKind::Scheduling);
            if !self.nodes.is_down(i)
                && self.nodes.state(i) == NodeState::Busy
                && demand.caps_ok(self.nodes.caps(i))
                && self.nodes.total_area(i) >= demand.area
            {
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Mutations, maintaining list membership (housekeeping steps).
    // ------------------------------------------------------------------

    /// Instantiate `config` on `node` (`SendBitstream` + idle-list
    /// insertion). Returns the new entry.
    pub fn configure_slot(
        &mut self,
        node: NodeId,
        config: ConfigId,
        steps: &mut StepCounter,
    ) -> Result<EntryRef, NodeError> {
        let before = NodeKey::of(&self.nodes, node.index());
        let slot = self
            .nodes
            .send_bitstream(node.index(), &self.configs[config.index()])?;
        // BOUND: one tick per successful mutation; u64 cannot wrap.
        self.mutation_ops += 1;
        let entry = EntryRef::new(node, slot);
        self.lists.push(ListKind::Idle, config, entry, steps);
        // Index the new entry under the node's old key, so that the
        // refresh re-keys it with the node's other idle entries.
        self.index
            .add_entry(&mut self.nodes, entry, config, before.avail);
        self.index.refresh_node(&self.nodes, node, before);
        Ok(entry)
    }

    /// Evict the given **idle** slots of `node` (one or more steps of
    /// `MakeNodePartiallyBlank` / all of `MakeNodeBlank`), unlinking each
    /// from its configuration's idle list.
    ///
    /// # Panics
    ///
    /// Panics if a named slot is live but missing from its idle list —
    /// that would mean the lists and the slot slab disagree,
    /// i.e. the store was corrupted earlier, and failing fast beats
    /// scheduling on inconsistent state.
    pub fn evict_idle_slots(
        &mut self,
        node: NodeId,
        slots: &[u32],
        steps: &mut StepCounter,
    ) -> Result<(), NodeError> {
        for &idx in slots {
            let config = self
                .nodes
                .slot(node.index(), idx)
                .ok_or(NodeError::NoSuchSlot(idx))?
                .config;
            let entry = EntryRef::new(node, idx);
            let removed = self.lists.remove(ListKind::Idle, config, entry, steps);
            assert!(
                removed,
                "idle slot {entry} missing from idle list of {config}"
            );
            let before = NodeKey::of(&self.nodes, node.index());
            self.index.remove_entry(&self.nodes, entry);
            self.nodes.evict_slot(node.index(), idx)?;
            // BOUND: one tick per successful mutation; u64 cannot wrap.
            self.mutation_ops += 1;
            self.index.refresh_node(&self.nodes, node, before);
        }
        Ok(())
    }

    /// Start `task` on `entry` (`AddTaskToNode` + idle→busy list move).
    ///
    /// # Panics
    ///
    /// Panics if the slot is live yet absent from its configuration's
    /// idle list (store corruption; see
    /// [`evict_idle_slots`](Self::evict_idle_slots)).
    pub fn assign_task(
        &mut self,
        entry: EntryRef,
        task: TaskId,
        steps: &mut StepCounter,
    ) -> Result<(), NodeError> {
        let config = self
            .nodes
            .slot(entry.node.index(), entry.slot)
            .ok_or(NodeError::NoSuchSlot(entry.slot))?
            .config;
        let removed = self.lists.remove(ListKind::Idle, config, entry, steps);
        assert!(removed, "assigning {entry}: not on idle list of {config}");
        // Assignment changes no areas, only list membership.
        self.index.remove_entry(&self.nodes, entry);
        self.nodes.add_task(entry.node.index(), entry.slot, task)?;
        // BOUND: one tick per successful mutation; u64 cannot wrap.
        self.mutation_ops += 1;
        self.lists.push(ListKind::Busy, config, entry, steps);
        Ok(())
    }

    /// Finish the task on `entry` (`RemoveTaskFromNode` + busy→idle list
    /// move). Returns the finished task.
    ///
    /// # Panics
    ///
    /// Panics if the slot is live yet absent from its configuration's
    /// busy list (store corruption; see
    /// [`evict_idle_slots`](Self::evict_idle_slots)).
    pub fn release_task(
        &mut self,
        entry: EntryRef,
        steps: &mut StepCounter,
    ) -> Result<TaskId, NodeError> {
        let config = self
            .nodes
            .slot(entry.node.index(), entry.slot)
            .ok_or(NodeError::NoSuchSlot(entry.slot))?
            .config;
        let removed = self.lists.remove(ListKind::Busy, config, entry, steps);
        assert!(removed, "releasing {entry}: not on busy list of {config}");
        let task = self.nodes.remove_task(entry.node.index(), entry.slot)?;
        // BOUND: one tick per successful mutation; u64 cannot wrap.
        self.mutation_ops += 1;
        self.lists.push(ListKind::Idle, config, entry, steps);
        // Release changes no area, blank or down status, so the node's
        // index registration is already current.
        let avail = self.nodes.available_area(entry.node.index());
        self.index.add_entry(&mut self.nodes, entry, config, avail);
        Ok(task)
    }

    // ------------------------------------------------------------------
    // Failure injection (extension; see DESIGN.md §7).
    // ------------------------------------------------------------------

    /// Fail `node`: every running task is killed (returned for the driver
    /// to mark discarded), every slot is evicted, and the node is marked
    /// down so searches skip it until [`repair_node`](Self::repair_node).
    /// Idempotent on an already-down node.
    ///
    /// # Panics
    ///
    /// Panics only when the store's cross-structure invariants are
    /// already broken — a slot missing from the list its occupancy says
    /// it is on, a busy slot without a task, or a freshly vacated slot
    /// that cannot be evicted. All of these mean earlier corruption, so
    /// the failure path refuses to paper over them.
    pub fn fail_node(&mut self, node: NodeId, steps: &mut StepCounter) -> Vec<TaskId> {
        let i = node.index();
        let before = NodeKey::of(&self.nodes, i);
        let entries: Vec<(u32, ConfigId, bool)> = self
            .nodes
            .slots(i)
            .map(|(idx, s)| (idx, s.config, s.task.is_some()))
            .collect();
        // Drop the idle entries from the index while the node's available
        // area still keys them.
        for &(idx, _, busy) in &entries {
            if !busy {
                self.index
                    .remove_entry(&self.nodes, EntryRef::new(node, idx));
            }
        }
        let mut killed = Vec::new();
        for &(idx, config, busy) in &entries {
            let entry = EntryRef::new(node, idx);
            let kind = if busy { ListKind::Busy } else { ListKind::Idle };
            let removed = self.lists.remove(kind, config, entry, steps);
            assert!(removed, "failing {entry}: missing from {kind:?} list");
            if busy {
                // `busy` was read from this very slot moments ago, so a
                // vanished task means the slab changed under us.
                match self.nodes.remove_task(i, idx) {
                    Ok(task) => killed.push(task),
                    Err(e) => unreachable!("failing {entry}: busy slot lost its task: {e}"),
                }
            }
            // Any task was removed just above, so the slot must be idle
            // and evictable.
            if let Err(e) = self.nodes.evict_slot(i, idx) {
                unreachable!("failing {entry}: cannot evict vacated slot: {e}");
            }
            // BOUND: one tick per evicted slot; u64 cannot wrap.
            self.mutation_ops += 1;
        }
        self.nodes.set_down(i, true);
        // BOUND: one tick per successful mutation; u64 cannot wrap.
        self.mutation_ops += 1;
        self.index.refresh_node(&self.nodes, node, before);
        killed
    }

    /// Bring a failed node back online, blank.
    pub fn repair_node(&mut self, node: NodeId) {
        let before = NodeKey::of(&self.nodes, node.index());
        self.nodes.set_down(node.index(), false);
        // BOUND: one tick per successful mutation; u64 cannot wrap.
        self.mutation_ops += 1;
        self.index.refresh_node(&self.nodes, node, before);
    }

    // ------------------------------------------------------------------
    // Metrics and validation.
    // ------------------------------------------------------------------

    /// Eq. 6: the instantaneous total wasted area — the sum of
    /// `AvailableArea` over all nodes holding at least one configuration.
    #[must_use]
    pub fn wasted_area_snapshot(&self) -> Area {
        // BOUND: at most 2^32 nodes (u32 ids), each with an available
        // area of at most its total area (Eq. 4), at most MAX_AREA = 2^24:
        // the sum stays below 2^56.
        (0..self.nodes.len())
            .filter(|&i| !self.nodes.is_blank(i))
            .map(|i| self.nodes.available_area(i))
            .sum()
    }

    /// Total reconfigurations performed across all nodes.
    #[must_use]
    pub fn total_reconfigurations(&self) -> u64 {
        // BOUND: at most 2^32 nodes (u32 ids), each restored with at most
        // MAX_RECONFIGS = 2^31, sum to at most 2^63; the run adds one per
        // reconfiguration, and cannot perform 2^63 of them.
        (0..self.nodes.len())
            .map(|i| self.nodes.reconfig_count(i))
            .sum()
    }

    /// Number of nodes that were configured at least once
    /// (Table I's *total used nodes*).
    #[must_use]
    pub fn used_nodes(&self) -> usize {
        (0..self.nodes.len())
            .filter(|&i| self.nodes.reconfig_count(i) > 0)
            .count()
    }

    /// Exhaustively validate the cross-structure invariants. Intended
    /// for tests and debug builds; O(nodes × slots).
    ///
    /// Checks:
    /// 1. every node satisfies Eq. 4 (area accounting), and its live and
    ///    running counts and busy area match its slots;
    /// 2. every live slot appears on exactly one list — the idle list of
    ///    its config when vacant, the busy list when running a task;
    /// 3. the lists contain no duplicates, no dangling entries, and no
    ///    entries of the wrong configuration;
    /// 4. the incrementally maintained search index matches a
    ///    from-scratch rebuild — membership, keys, and tie-break order
    ///    ([`IndexSnapshot`] equality).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_structure()?;
        if let Some(divergence) = self
            .index
            .snapshot()
            .first_divergence(&self.rebuilt_index_snapshot())
        {
            return Err(format!("search index out of sync: {divergence}"));
        }
        Ok(())
    }

    /// Checks 1–3 of [`check_invariants`](Self::check_invariants): the
    /// node table and lists alone, without the index derived from them.
    fn check_structure(&self) -> Result<(), String> {
        for i in 0..self.nodes.len() {
            if !self.nodes.area_invariant_holds(i) {
                return Err(format!(
                    "{}: Eq. 4 area invariant violated",
                    NodeId::from_index(i)
                ));
            }
        }
        // One mark per arena cell: the flat index of a live slot names
        // it, so a second mark is an entry on two lists.
        let mut listed = vec![false; self.nodes.arena_len()];
        let mut entries = 0usize;
        for c in &self.configs {
            for (kind, want_busy) in [(ListKind::Idle, false), (ListKind::Busy, true)] {
                for e in self.lists.iter(kind, c.id) {
                    let (i, s) = (e.node.index(), e.slot);
                    let Some((f, slot)) = self.nodes.flat(i, s).zip(self.nodes.slot(i, s)) else {
                        return Err(format!("{}: dangling entry {e}", c.id));
                    };
                    if slot.config != c.id {
                        return Err(format!("{e} on list of {} but holds {}", c.id, slot.config));
                    }
                    if slot.task.is_some() != want_busy {
                        return Err(format!("{e} on {kind:?} list with task={:?}", slot.task));
                    }
                    if std::mem::replace(&mut listed[f], true) {
                        return Err(format!("{e} appears on more than one list"));
                    }
                    entries += 1;
                }
            }
        }
        let live: usize = (0..self.nodes.len())
            // BOUND: live is a small per-node slot count.
            .map(|i| self.nodes.live_count(i) as usize)
            .sum();
        if live != entries {
            return Err(format!("{live} live slots but {entries} listed entries"));
        }
        Ok(())
    }
}

impl serde::Serialize for ResourceManager {
    fn write_json(&self, out: &mut String) {
        let mut packed = Vec::new();
        self.nodes.write_columns(&self.lists, &mut packed);
        out.push_str("{\"nodes\":");
        crate::pack::write_packed(out, self.nodes.len(), &[&packed]);
        out.push_str(",\"configs\":");
        serde::Serialize::write_json(&self.configs, out);
        out.push('}');
    }
}

/// Deserialization reads the node columns straight into the store and
/// its lists, checking them ([`NodeStore`]'s column reader), and
/// rebuilds the search index, which checkpoints never carry. A node
/// table, configuration table or list that cannot be read back without
/// panicking is a decode error; a readable but inconsistent store keeps
/// an empty index instead, so that
/// [`ResourceManager::check_invariants`], which a restore runs next,
/// reports the corruption rather than the rebuild walking it.
impl serde::Deserialize for ResourceManager {
    fn read_json(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let missing =
            |name: &str| serde::Error::custom(format!("ResourceManager: missing field {name}"));
        let invalid = |msg: String| serde::Error::custom(format!("ResourceManager: {msg}"));
        let (mut nodes, mut configs) = (None, None);
        let mut map = r.map().map_err(|_| missing("nodes"))?;
        while let Some(key) = map.next_key(r)? {
            match &*key {
                "nodes" if nodes.is_none() => {
                    let (count, bytes) = crate::pack::read_packed(r, "ResourceManager: nodes")?;
                    nodes = Some(
                        NodeStore::read_columns(&bytes, count)
                            .map_err(|e| invalid(format!("nodes: {e}")))?,
                    );
                }
                "configs" if configs.is_none() => configs = Some(Vec::<Config>::read_json(r)?),
                _ => r.skip_value()?,
            }
        }
        let (nodes, lists) = nodes.ok_or_else(|| missing("nodes"))?;
        let configs = configs.ok_or_else(|| missing("configs"))?;
        if let Some((i, c)) = configs.iter().enumerate().find(|(i, c)| c.id.index() != *i) {
            return Err(invalid(format!(
                "config ids must be dense and ordered (found {} at {i})",
                c.id
            )));
        }
        if let Some(c) = configs.iter().find(|c| c.req_area > MAX_AREA) {
            return Err(invalid(format!(
                "{}: req_area {} exceeds the ceiling of {MAX_AREA} area units",
                c.id, c.req_area
            )));
        }
        if lists.num_configs() != configs.len() {
            return Err(invalid(format!(
                "nodes: {} idle and busy lists for {} configurations",
                lists.num_configs(),
                configs.len()
            )));
        }
        let mut rm = Self {
            nodes,
            configs,
            lists,
            index: SearchIndex::default(),
            mutation_ops: 0,
        };
        if rm.check_structure().is_ok() {
            rm.index = SearchIndex::rebuild(&rm.nodes, &rm.configs, &rm.lists);
            rm.index.stamp(&mut rm.nodes);
        }
        Ok(rm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(configs: &[(u32, Area)], nodes: &[Area]) -> ResourceManager {
        let configs: Vec<Config> = configs
            .iter()
            .map(|&(id, a)| Config::new(ConfigId(id), a, 10))
            .collect();
        let nodes: Vec<Node> = nodes
            .iter()
            .enumerate()
            .map(|(i, &a)| Node::new(NodeId::from_index(i), a, 2))
            .collect();
        ResourceManager::new(nodes, configs)
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn non_dense_node_ids_rejected() {
        let nodes = vec![Node::new(NodeId(1), 100, 0)];
        let _ = ResourceManager::new(nodes, vec![]);
    }

    #[test]
    fn find_preferred_config_counts_steps() {
        let rm = make(&[(0, 300), (1, 500), (2, 700)], &[1000]);
        let mut s = StepCounter::new();
        assert_eq!(
            rm.find_preferred_config(PreferredConfig::Known(ConfigId(2)), &mut s),
            Some(ConfigId(2))
        );
        assert_eq!(
            s.scheduling, 3,
            "linear scan visits 3 entries to reach id 2"
        );
        let mut s2 = StepCounter::new();
        assert_eq!(
            rm.find_preferred_config(PreferredConfig::Phantom { area: 400 }, &mut s2),
            None
        );
        assert_eq!(s2.scheduling, 3, "phantom costs the full scan");
    }

    #[test]
    fn closest_config_is_min_area_strictly_above() {
        let rm = make(&[(0, 300), (1, 500), (2, 700)], &[1000]);
        let mut s = StepCounter::new();
        assert_eq!(rm.find_closest_config(400, &mut s), Some(ConfigId(1)));
        assert_eq!(
            rm.find_closest_config(500, &mut s),
            Some(ConfigId(2)),
            "strictly greater"
        );
        assert_eq!(rm.find_closest_config(700, &mut s), None);
        assert_eq!(rm.find_closest_config(100, &mut s), Some(ConfigId(0)));
    }

    #[test]
    fn configure_and_best_idle_selects_min_available_area() {
        let mut rm = make(&[(0, 400)], &[4000, 2000, 3000]);
        let mut s = StepCounter::new();
        for i in 0..3 {
            rm.configure_slot(NodeId(i), ConfigId(0), &mut s).unwrap();
        }
        // Available areas: 3600, 1600, 2600 → best is node 1.
        let best = rm.find_best_idle(ConfigId(0), &mut s).unwrap();
        assert_eq!(best.node, NodeId(1));
        rm.check_invariants().unwrap();
    }

    #[test]
    fn assign_and_release_move_between_lists() {
        let mut rm = make(&[(0, 400)], &[1000]);
        let mut s = StepCounter::new();
        let e = rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        rm.assign_task(e, TaskId(5), &mut s).unwrap();
        rm.check_invariants().unwrap();
        assert!(rm.find_best_idle(ConfigId(0), &mut s).is_none());
        assert_eq!(rm.node_store().state(0), NodeState::Busy);
        let t = rm.release_task(e, &mut s).unwrap();
        assert_eq!(t, TaskId(5));
        rm.check_invariants().unwrap();
        assert_eq!(rm.find_best_idle(ConfigId(0), &mut s), Some(e));
    }

    #[test]
    fn best_blank_prefers_tightest_fit() {
        let rm = make(&[(0, 900)], &[4000, 1000, 2000, 800]);
        let mut s = StepCounter::new();
        // Blank nodes that fit 900: areas 4000, 1000, 2000 → pick 1000.
        assert_eq!(
            rm.find_best_blank(Demand::area(900), &mut s),
            Some(NodeId(1))
        );
        assert_eq!(s.scheduling, 4, "scans the whole node table");
        // Nothing fits 5000.
        assert_eq!(rm.find_best_blank(Demand::area(5000), &mut s), None);
    }

    #[test]
    fn partially_blank_requires_existing_config() {
        let mut rm = make(&[(0, 400)], &[4000, 3000]);
        let mut s = StepCounter::new();
        assert_eq!(
            rm.find_best_partially_blank(Demand::area(100), &mut s),
            None,
            "all blank"
        );
        rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        // Node 0 now has 3600 available and one config.
        assert_eq!(
            rm.find_best_partially_blank(Demand::area(3600), &mut s),
            Some(NodeId(0))
        );
        assert_eq!(
            rm.find_best_partially_blank(Demand::area(3601), &mut s),
            None
        );
    }

    #[test]
    fn algorithm_one_accumulates_idle_entries() {
        let mut rm = make(&[(0, 400), (1, 600)], &[1200]);
        let mut s = StepCounter::new();
        let e0 = rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        let _e1 = rm.configure_slot(NodeId(0), ConfigId(1), &mut s).unwrap();
        // Node: total 1200, available 200, idle slots areas 400 + 600.
        // Need 700: available(200) + slot0(400) = 600 < 700, + slot1(600)
        // = 1200 ≥ 700 → both slots returned.
        let (node, evict) = rm.find_any_idle_node(Demand::area(700), &mut s).unwrap();
        assert_eq!(node, NodeId(0));
        assert_eq!(evict.len(), 2);
        // Need 500: available + slot0 = 600 ≥ 500 → only first slot.
        let (_, evict) = rm.find_any_idle_node(Demand::area(500), &mut s).unwrap();
        assert_eq!(evict.len(), 1);
        // Busy slots do not contribute.
        rm.assign_task(e0, TaskId(0), &mut s).unwrap();
        assert!(rm.find_any_idle_node(Demand::area(900), &mut s).is_none());
        let (_, evict) = rm.find_any_idle_node(Demand::area(800), &mut s).unwrap();
        assert_eq!(evict.len(), 1, "only the idle 600-slot is reclaimable");
    }

    #[test]
    fn algorithm_one_charges_skipped_nodes_their_live_slots() {
        let mut rm = make(&[(0, 400), (1, 600)], &[4000, 1100, 1200]);
        let mut s = StepCounter::new();
        let mut configure = |rm: &mut ResourceManager, n: u32, c: u32, busy: bool| {
            let e = rm.configure_slot(NodeId(n), ConfigId(c), &mut s).unwrap();
            if busy {
                rm.assign_task(e, TaskId(n * 10 + c), &mut s).unwrap();
            }
        };
        // Node 0: 3000 free but no idle slot.
        configure(&mut rm, 0, 0, true);
        configure(&mut rm, 0, 1, true);
        // Node 1: free 100 plus idle 400 is short of 1200.
        configure(&mut rm, 1, 0, false);
        configure(&mut rm, 1, 1, true);
        // Node 2: free 200 plus idle 400 + 600 is exactly 1200, reached
        // at its second slot.
        configure(&mut rm, 2, 0, false);
        configure(&mut rm, 2, 1, false);
        let live = |n: usize| u64::from(rm.node_store().live_count(n));
        let before = s.scheduling;
        let (node, evict) = rm.find_any_idle_node(Demand::area(1200), &mut s).unwrap();
        assert_eq!((node, evict), (NodeId(2), vec![0, 1]));
        assert_eq!(s.scheduling - before, live(0) + live(1) + 2);
    }

    #[test]
    fn evict_idle_slots_reclaims_area_and_lists() {
        let mut rm = make(&[(0, 400), (1, 600)], &[1200]);
        let mut s = StepCounter::new();
        rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        rm.configure_slot(NodeId(0), ConfigId(1), &mut s).unwrap();
        let (node, evict) = rm.find_any_idle_node(Demand::area(1100), &mut s).unwrap();
        rm.evict_idle_slots(node, &evict, &mut s).unwrap();
        assert_eq!(rm.node_store().available_area(node.index()), 1200);
        assert!(rm.node_store().is_blank(node.index()));
        rm.check_invariants().unwrap();
    }

    #[test]
    fn busy_candidate_scan() {
        let mut rm = make(&[(0, 400)], &[1000, 3000]);
        let mut s = StepCounter::new();
        assert!(
            !rm.busy_candidate_exists(Demand::area(500), &mut s),
            "nothing busy yet"
        );
        let e = rm.configure_slot(NodeId(1), ConfigId(0), &mut s).unwrap();
        rm.assign_task(e, TaskId(0), &mut s).unwrap();
        assert!(rm.busy_candidate_exists(Demand::area(2500), &mut s));
        assert!(
            !rm.busy_candidate_exists(Demand::area(3500), &mut s),
            "too big for any busy node"
        );
    }

    #[test]
    fn wasted_area_snapshot_counts_only_configured_nodes() {
        let mut rm = make(&[(0, 400)], &[1000, 2000]);
        let mut s = StepCounter::new();
        assert_eq!(rm.wasted_area_snapshot(), 0);
        rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        assert_eq!(rm.wasted_area_snapshot(), 600);
        rm.configure_slot(NodeId(1), ConfigId(0), &mut s).unwrap();
        assert_eq!(rm.wasted_area_snapshot(), 600 + 1600);
    }

    #[test]
    fn used_nodes_and_total_reconfigs() {
        let mut rm = make(&[(0, 400)], &[1000, 2000, 3000]);
        let mut s = StepCounter::new();
        let e = rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        rm.evict_idle_slots(NodeId(0), &[e.slot], &mut s).unwrap();
        rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        rm.configure_slot(NodeId(2), ConfigId(0), &mut s).unwrap();
        assert_eq!(rm.total_reconfigurations(), 3);
        assert_eq!(rm.used_nodes(), 2);
    }

    #[test]
    fn first_and_worst_fit_variants() {
        let mut rm = make(&[(0, 400)], &[4000, 2000, 3000]);
        let mut s = StepCounter::new();
        let mut entries = Vec::new();
        for i in 0..3 {
            entries.push(rm.configure_slot(NodeId(i), ConfigId(0), &mut s).unwrap());
        }
        // LIFO list order: node2, node1, node0.
        assert_eq!(
            rm.find_first_idle(ConfigId(0), &mut s).unwrap().node,
            NodeId(2)
        );
        // Worst fit: max available area = node 0 (3600).
        assert_eq!(
            rm.find_worst_idle(ConfigId(0), &mut s).unwrap().node,
            NodeId(0)
        );
        let all = rm.collect_idle(ConfigId(0), &mut s);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn fail_node_kills_tasks_and_hides_node_from_searches() {
        let mut rm = make(&[(0, 400)], &[1000, 1000]);
        let mut s = StepCounter::new();
        let e = rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap(); // second idle slot
        rm.assign_task(e, TaskId(3), &mut s).unwrap();
        let killed = rm.fail_node(NodeId(0), &mut s);
        assert_eq!(killed, vec![TaskId(3)]);
        assert!(rm.node_store().is_blank(0));
        assert!(rm.node_store().is_down(0));
        rm.check_invariants().unwrap();
        // Down node invisible to searches even though blank.
        assert_eq!(
            rm.find_best_blank(Demand::area(100), &mut s),
            Some(NodeId(1))
        );
        assert!(!rm.busy_candidate_exists(Demand::area(100), &mut s));
        assert!(
            rm.find_any_idle_node(Demand::area(100), &mut s)
                .map(|(n, _)| n)
                == Some(NodeId(1))
                || rm.find_any_idle_node(Demand::area(100), &mut s).is_none()
        );
        // Repair restores eligibility.
        rm.repair_node(NodeId(0));
        assert_eq!(
            rm.find_best_blank(Demand::area(100), &mut s),
            Some(NodeId(0))
        );
        // Idempotent failure on an empty down node.
        let killed = rm.fail_node(NodeId(1), &mut s);
        assert!(killed.is_empty());
    }

    #[test]
    fn empty_probe_charges_zero_steps() {
        // `find_first_idle` and `collect_idle` on an empty idle list
        // examine no entries, so they must charge exactly zero
        // scheduling steps; so must the index-answered best and worst
        // fit, whose walk would visit nothing.
        let rm = make(&[(0, 400)], &[1000]);
        let mut s = StepCounter::new();
        assert_eq!(rm.find_first_idle(ConfigId(0), &mut s), None);
        assert!(rm.collect_idle(ConfigId(0), &mut s).is_empty());
        assert_eq!(rm.find_best_idle(ConfigId(0), &mut s), None);
        assert_eq!(rm.find_worst_idle(ConfigId(0), &mut s), None);
        assert_eq!(s.scheduling, 0, "empty probes must be free");
        assert_eq!(s.housekeeping, 0);
    }

    #[test]
    fn fit_ties_go_to_the_newest_idle_entry() {
        // Three idle instances on equal-area nodes: the paper's walk
        // keeps the *first* entry it sees, i.e. the most recently
        // pushed one (LIFO head). The index must pick the same entry.
        let mut rm = make(&[(0, 400)], &[1000, 1000, 1000]);
        let mut s = StepCounter::new();
        for n in 0..3 {
            rm.configure_slot(NodeId(n), ConfigId(0), &mut s).unwrap();
        }
        let head = rm.find_first_idle(ConfigId(0), &mut s).unwrap();
        assert_eq!(head.node, NodeId(2), "the LIFO head");
        assert_eq!(rm.find_worst_idle(ConfigId(0), &mut s), Some(head));
        assert_eq!(rm.find_best_idle(ConfigId(0), &mut s), Some(head));
    }

    #[test]
    fn deserialized_store_rebuilds_its_index() {
        // Checkpoints never carry the index: a store read back must
        // answer exactly like the one written.
        let mut rm = make(&[(0, 400), (1, 600)], &[2000, 1500, 1500]);
        let mut s = StepCounter::new();
        let e = rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        rm.configure_slot(NodeId(1), ConfigId(1), &mut s).unwrap();
        rm.configure_slot(NodeId(2), ConfigId(1), &mut s).unwrap();
        rm.assign_task(e, TaskId(1), &mut s).unwrap();
        let json = serde_json::to_string(&rm).unwrap();
        let back: ResourceManager = serde_json::from_str(&json).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back.search_index_snapshot(), rm.search_index_snapshot());
        let demand = Demand::area(500);
        assert_eq!(
            back.find_best_idle(ConfigId(1), &mut s),
            rm.find_best_idle(ConfigId(1), &mut s)
        );
        assert_eq!(
            back.find_best_partially_blank(demand, &mut s),
            rm.find_best_partially_blank(demand, &mut s)
        );
    }

    #[test]
    fn checkpoint_form_round_trip_is_byte_identical() {
        // A contiguous node, free holes and a busy slot: decoding the
        // checkpoint form and encoding it again gives back every byte,
        // and the holes are reused in the same order.
        let configs = (0..3)
            .map(|i| Config::new(ConfigId(i), 300 + 200 * Area::from(i), 10))
            .collect();
        let nodes = vec![
            Node::new(NodeId(0), 3000, 2),
            Node::new(NodeId(1), 2000, 3).with_contiguous(),
            Node::new(NodeId(2), 1000, 4),
        ];
        let mut rm = ResourceManager::new(nodes, configs);
        let mut s = StepCounter::new();
        for (n, c) in [(0, 0), (0, 2), (1, 1), (1, 2), (2, 0)] {
            rm.configure_slot(NodeId(n), ConfigId(c), &mut s).unwrap();
        }
        rm.evict_idle_slots(NodeId(0), &[0], &mut s).unwrap();
        rm.evict_idle_slots(NodeId(1), &[0], &mut s).unwrap();
        rm.assign_task(EntryRef::new(NodeId(1), 1), TaskId(4), &mut s)
            .unwrap();
        let json = serde_json::to_string(&rm).unwrap();
        let mut back: ResourceManager = serde_json::from_str(&json).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        let st = back.node_store();
        let avail: Vec<Area> = (0..3).map(|i| st.available_area(i)).collect();
        assert_eq!(avail, vec![2300, 1300, 700]);
        assert_eq!(st.slot(0, 0), None);
        let busy = crate::SlotView {
            config: ConfigId(2),
            area: 700,
            task: Some(TaskId(4)),
        };
        assert_eq!(st.slots(1).collect::<Vec<_>>(), vec![(1, busy)]);
        // Gaps of 500 and 800 around the busy strip region: 1 − 800/1300.
        assert_eq!(
            st.fragmentation(1).to_bits(),
            0.384_615_384_615_384_6_f64.to_bits()
        );
        for n in [0, 1] {
            let e = back.configure_slot(NodeId(n), ConfigId(0), &mut s);
            assert_eq!(e.map(|e| e.slot), Ok(0), "{n} reuses its hole");
        }
        back.check_invariants().unwrap();
    }

    #[test]
    fn invariant_checker_catches_corruption() {
        let mut rm = make(&[(0, 400)], &[1000]);
        let mut s = StepCounter::new();
        let e = rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        rm.check_invariants().unwrap();
        // Corrupt: mark the slot busy without moving lists.
        rm.nodes.add_task(0, e.slot, TaskId(9)).unwrap();
        assert!(rm.check_invariants().is_err());
    }

    #[test]
    fn invariant_checker_catches_a_stale_busy_area() {
        // Grow a busy slot's area and the node's total area together:
        // Eq. 4 still balances, but the node's busy area no longer
        // matches the slots.
        let mut rm = make(&[(0, 400)], &[1000]);
        let mut s = StepCounter::new();
        let e = rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        rm.assign_task(e, TaskId(1), &mut s).unwrap();
        rm.debug_set_slot_area(NodeId(0), e.slot, 401);
        rm.debug_set_total_area(NodeId(0), 1001);
        assert!(rm.check_invariants().is_err());
    }

    #[test]
    fn mutation_ops_counter_is_deterministic() {
        let mut rm = make(&[(0, 400)], &[1000]);
        let mut s = StepCounter::new();
        assert_eq!(rm.mutation_ops(), 0);
        let e = rm.configure_slot(NodeId(0), ConfigId(0), &mut s).unwrap();
        rm.assign_task(e, TaskId(1), &mut s).unwrap();
        rm.release_task(e, &mut s).unwrap();
        rm.evict_idle_slots(NodeId(0), &[e.slot], &mut s).unwrap();
        assert_eq!(rm.mutation_ops(), 4);
        // The counter never serializes: a clone round-tripped through
        // JSON restarts at zero (REBUILD note on the field).
        let json = serde_json::to_string(&rm).unwrap();
        let back: ResourceManager = serde_json::from_str(&json).unwrap();
        assert_eq!(back.mutation_ops(), 0);
    }
}
