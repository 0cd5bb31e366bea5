//! Struct-of-arrays node/slot storage (DESIGN.md §18).
//!
//! [`NodeStore`] holds the same state as a `Vec<Node>` — the paper's
//! node table — but split into parallel columns: one dense `Vec` per
//! node scalar (`available_area`, `down`, `caps`, …) plus one flat,
//! globally shared arena per slot field (`config`, `area`, `task`,
//! `link`). The hot paths this layout exists for:
//!
//! * **placement searches** (`FindBestNode` over blank/partially-blank
//!   nodes, `busy_candidate_exists`) stride over 1–3 dense columns
//!   instead of ~130-byte `Node` structs, so a 100k-node scan touches
//!   an order of magnitude fewer cache lines;
//! * **store mutations** (place/evict/complete) and the intrusive
//!   idle/busy list splices touch single cells of the slot columns;
//! * the incremental `SearchIndex` sync reads only the columns it keys.
//!
//! ## Slot arena
//!
//! Each node owns a contiguous *slab* `[base, base + cap)` of the slot
//! columns; slot index `s` of node `n` (the `EntryRef.slot` the
//! intrusive lists link) lives at flat index `base[n] + s`, so
//! `EntryRef`s stay stable across slab growth. A slab that outgrows its
//! capacity is bump-relocated to the end of the arena with doubled
//! capacity (the old region is abandoned — bounded by the doubling to
//! under half the arena, and typical slot counts are 1–4). Free slot
//! indices are kept on an intrusive per-node LIFO stack threaded
//! through [`NodeStore::free_next`], reproducing the AoS store's
//! `free.last()` reuse order **exactly** — slot-index reuse is
//! observable in reports and checkpoints.
//!
//! ## Serialization
//!
//! Checkpoint bytes must not depend on the memory layout, so
//! `NodeStore` serializes as the legacy `Vec<Node>` form, streaming one
//! materialized `Node` at a time through its derived serde —
//! byte-identical to the seed store by construction, pinned by the
//! round-trip tests below, the differential battery and the checkpoint
//! goldens.

use crate::caps::{Capabilities, DeviceFamily};
use crate::config::Config;
use crate::contiguous::{GapFit, Strip};
use crate::ids::{Area, ConfigId, EntryRef, NodeId, TaskId, Ticks};
use crate::node::{Node, NodeError, NodeState, Slot};

/// Sentinel terminating a per-node free-slot stack.
const NIL: u32 = u32::MAX;

/// Struct-of-arrays storage for the node table and its slot slabs.
///
/// All per-node vectors have one entry per node (indexed by
/// `NodeId::index()`); all `slot_*` vectors share the flat slot arena.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeStore {
    // ---- per-node columns ----
    total_area: Vec<Area>,
    available_area: Vec<Area>,
    family: Vec<DeviceFamily>,
    caps: Vec<Capabilities>,
    network_delay: Vec<Ticks>,
    reconfig_count: Vec<u64>,
    down: Vec<bool>,
    strip: Vec<Option<Strip>>,
    gap_fit: Vec<GapFit>,
    occupancy: Vec<Occupancy>,
    // ---- per-node slab bookkeeping ----
    /// First flat arena index of the node's slab.
    base: Vec<usize>,
    /// Slab capacity in slots (cells reserved in the arena).
    cap: Vec<u32>,
    /// Logical slab length: mirrors the AoS `slots.len()`, counting
    /// live slots *and* free holes, so slot-index assignment (and
    /// therefore every downstream tie-break) matches the AoS store.
    slab_len: Vec<u32>,
    /// Top of the node's intrusive free-slot stack (`NIL` = empty).
    free_head: Vec<u32>,
    // ---- flat slot arena columns ----
    slot_config: Vec<ConfigId>,
    slot_area: Vec<Area>,
    slot_task: Vec<Option<TaskId>>,
    slot_link: Vec<Option<EntryRef>>,
    slot_live: Vec<bool>,
    /// Next node-relative slot index on the free stack (valid only
    /// while the cell is dead).
    free_next: Vec<u32>,
}

/// Per-node slot counts and busy area, side by side so that assignment
/// and release update one 16-byte cell (DESIGN.md §18.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Occupancy {
    /// Sum of the occupied slots' areas; derived, not serialized.
    busy_area: Area,
    live: u32,
    running: u32,
}

/// Copy of one live slot's fields (the SoA replacement for `&Slot`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotView {
    /// The instantiated configuration.
    pub config: ConfigId,
    /// Area the configuration occupies.
    pub area: Area,
    /// The running task, or `None` when the slot is idle.
    pub task: Option<TaskId>,
    /// Intrusive idle/busy list link.
    pub link: Option<EntryRef>,
}

impl NodeStore {
    /// Build the columnar store from the AoS node table. Node ids must
    /// be the dense sequence `0..len` in order.
    ///
    /// # Panics
    /// Panics if node ids are not dense and ordered.
    #[must_use]
    pub fn from_nodes(nodes: Vec<Node>) -> Self {
        let mut st = Self::default();
        let count = nodes.len();
        st.total_area.reserve(count);
        st.available_area.reserve(count);
        st.family.reserve(count);
        st.caps.reserve(count);
        st.network_delay.reserve(count);
        st.reconfig_count.reserve(count);
        st.down.reserve(count);
        st.strip.reserve(count);
        st.gap_fit.reserve(count);
        st.occupancy.reserve(count);
        st.base.reserve(count);
        st.cap.reserve(count);
        st.slab_len.reserve(count);
        st.free_head.reserve(count);
        let slot_total: usize = nodes.iter().map(|n| n.slots.len()).sum();
        st.slot_config.reserve(slot_total);
        st.slot_area.reserve(slot_total);
        st.slot_task.reserve(slot_total);
        st.slot_link.reserve(slot_total);
        st.slot_live.reserve(slot_total);
        st.free_next.reserve(slot_total);
        for (i, n) in nodes.into_iter().enumerate() {
            assert_eq!(n.id.index(), i, "node ids must be dense and ordered");
            st.total_area.push(n.total_area);
            st.available_area.push(n.available_area);
            st.family.push(n.family);
            st.caps.push(n.caps);
            st.network_delay.push(n.network_delay);
            st.reconfig_count.push(n.reconfig_count);
            st.down.push(n.down);
            st.strip.push(n.strip);
            st.gap_fit.push(n.gap_fit);
            st.occupancy.push(Occupancy {
                busy_area: n
                    .slots
                    .iter()
                    .flatten()
                    .filter(|s| s.task.is_some())
                    .map(|s| s.area)
                    .sum(),
                live: n.live,
                running: n.running,
            });
            let base = st.slot_config.len();
            // BOUND: slab length is the AoS slots.len(), bounded by u32 slot ids.
            let slab_len = n.slots.len() as u32;
            st.base.push(base);
            st.cap.push(slab_len);
            st.slab_len.push(slab_len);
            for cell in n.slots {
                match cell {
                    Some(s) => {
                        st.slot_config.push(s.config);
                        st.slot_area.push(s.area);
                        st.slot_task.push(s.task);
                        st.slot_link.push(s.link);
                        st.slot_live.push(true);
                        st.free_next.push(NIL);
                    }
                    None => {
                        st.slot_config.push(ConfigId(0));
                        st.slot_area.push(0);
                        st.slot_task.push(None);
                        st.slot_link.push(None);
                        st.slot_live.push(false);
                        st.free_next.push(NIL);
                    }
                }
            }
            // Rebuild the free stack so its pop order matches the AoS
            // `free.last()` order: pushing in Vec order leaves the
            // Vec's last element on top.
            let mut head = NIL;
            for idx in n.free {
                // BOUND: idx < slab_len (a hole of this node's slab), so
                // base + idx stays inside the slab.
                st.free_next[base + idx as usize] = head;
                head = idx;
            }
            st.free_head.push(head);
        }
        st
    }

    /// Materialize the legacy AoS node table.
    #[must_use]
    pub fn to_nodes(&self) -> Vec<Node> {
        (0..self.len()).map(|i| self.to_node(i)).collect()
    }

    /// Materialize node `i` in the legacy AoS form (the serialization
    /// form, built one node at a time).
    fn to_node(&self, i: usize) -> Node {
        let base = self.base[i];
        // BOUND: slab_len is a u32 slot count; usize is at least as wide.
        let slab = self.slab_len[i] as usize;
        let slots: Vec<Option<Slot>> = (0..slab)
            .map(|s| {
                let f = base + s;
                self.slot_live[f].then(|| Slot {
                    config: self.slot_config[f],
                    area: self.slot_area[f],
                    task: self.slot_task[f],
                    link: self.slot_link[f],
                })
            })
            .collect();
        // The intrusive stack walks top→bottom; the AoS `free` Vec
        // stores bottom→top (push order), so reverse.
        let mut free = Vec::new();
        let mut cur = self.free_head[i];
        while cur != NIL {
            free.push(cur);
            // BOUND: cur < slab_len (free-stack entries are holes of
            // this slab), so base + cur stays inside the slab.
            cur = self.free_next[base + cur as usize];
        }
        free.reverse();
        Node {
            id: NodeId::from_index(i),
            total_area: self.total_area[i],
            available_area: self.available_area[i],
            family: self.family[i],
            caps: self.caps[i],
            network_delay: self.network_delay[i],
            reconfig_count: self.reconfig_count[i],
            down: self.down[i],
            strip: self.strip[i].clone(),
            gap_fit: self.gap_fit[i],
            slots,
            free,
            live: self.occupancy[i].live,
            running: self.occupancy[i].running,
        }
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.total_area.len()
    }

    /// Whether the store holds no nodes.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_area.is_empty()
    }

    /// Read proxy for node `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    #[must_use]
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        let i = id.index();
        NodeRef {
            store: self,
            idx: i,
            id,
            total_area: self.total_area[i],
            family: self.family[i],
            caps: self.caps[i],
            network_delay: self.network_delay[i],
            reconfig_count: self.reconfig_count[i],
            down: self.down[i],
        }
    }

    /// Iterate all nodes in id order as [`NodeRef`]s.
    #[must_use]
    pub fn iter(&self) -> Nodes<'_> {
        Nodes {
            store: self,
            range: 0..self.len(),
        }
    }

    // ---- column accessors used by the hot search/list paths ----

    /// `AvailableArea` of node `i` (Eq. 4).
    #[inline]
    #[must_use]
    pub fn available_area(&self, i: usize) -> Area {
        self.available_area[i]
    }

    /// `TotalArea` of node `i`.
    #[inline]
    #[must_use]
    pub fn total_area(&self, i: usize) -> Area {
        self.total_area[i]
    }

    /// Whether node `i` is failed/offline.
    #[inline]
    #[must_use]
    pub fn is_down(&self, i: usize) -> bool {
        self.down[i]
    }

    /// Capabilities of node `i`.
    #[inline]
    #[must_use]
    pub fn caps(&self, i: usize) -> Capabilities {
        self.caps[i]
    }

    /// Whether node `i` holds no configurations.
    #[inline]
    #[must_use]
    pub fn is_blank(&self, i: usize) -> bool {
        self.occupancy[i].live == 0
    }

    /// Number of live slots on node `i`.
    #[inline]
    #[must_use]
    pub fn live_count(&self, i: usize) -> u32 {
        self.occupancy[i].live
    }

    /// Number of running tasks on node `i`.
    #[inline]
    #[must_use]
    pub fn running_count(&self, i: usize) -> u32 {
        self.occupancy[i].running
    }

    /// Reconfigurations performed on node `i`.
    #[inline]
    #[must_use]
    pub fn reconfig_count(&self, i: usize) -> u64 {
        self.reconfig_count[i]
    }

    /// Coarse state of node `i` (the paper's `state` field).
    #[must_use]
    pub fn state(&self, i: usize) -> NodeState {
        if self.occupancy[i].running > 0 {
            NodeState::Busy
        } else if self.occupancy[i].live > 0 {
            NodeState::Idle
        } else {
            NodeState::Blank
        }
    }

    /// Can a configuration of `area` be instantiated on node `i` right
    /// now? (Scalar check; gap check under contiguous placement.)
    #[must_use]
    pub fn can_host(&self, i: usize, area: Area) -> bool {
        if area > self.available_area[i] {
            return false;
        }
        match &self.strip[i] {
            Some(s) => s.can_fit(area),
            None => true,
        }
    }

    /// Feasibility of hosting `area` on node `i` after evicting the
    /// given idle slots (Algorithm 1 under contiguity).
    #[must_use]
    pub fn can_host_after_evicting(&self, i: usize, area: Area, evict: &[u32]) -> bool {
        match &self.strip[i] {
            Some(s) => s.can_fit_after_removing(area, evict),
            None => true,
        }
    }

    /// Algorithm 1's walk over node `i`: the idle slots to evict, in slab
    /// order, until `AvailableArea` plus their areas covers `area` (with
    /// room for it under contiguity), and the count of live slots visited.
    /// A node with no idle slot, or with `TotalArea − busy < area`, cannot
    /// succeed (Eq. 4) and is answered without the walk (DESIGN.md §4).
    #[inline]
    #[must_use]
    pub fn reclaim_idle(&self, i: usize, area: Area) -> (Option<Vec<u32>>, u32) {
        let occ = self.occupancy[i];
        if occ.running == occ.live || self.total_area[i].saturating_sub(occ.busy_area) < area {
            return (None, occ.live);
        }
        self.walk_idle(i, area)
    }

    /// Out of line, so that node scans inline only the early test.
    fn walk_idle(&self, i: usize, area: Area) -> (Option<Vec<u32>>, u32) {
        let mut accum = self.available_area[i];
        let mut evict = Vec::new();
        let mut visited = 0;
        for (idx, slot) in self.slots(i) {
            visited += 1;
            if slot.task.is_none() {
                // BOUND: accumulates slot areas of one node, at most its total_area.
                accum += slot.area;
                evict.push(idx);
                if accum >= area && self.can_host_after_evicting(i, area, &evict) {
                    return (Some(evict), visited);
                }
            }
        }
        (None, visited)
    }

    /// Flat arena index of slot `slot` of node `i`, if live.
    #[inline]
    fn flat(&self, i: usize, slot: u32) -> Option<usize> {
        if slot < self.slab_len[i] {
            // BOUND: slot < slab_len, so base + slot stays inside the node's slab.
            let f = self.base[i] + slot as usize;
            self.slot_live[f].then_some(f)
        } else {
            None
        }
    }

    /// Copy of a live slot's fields.
    #[inline]
    #[must_use]
    pub fn slot(&self, i: usize, slot: u32) -> Option<SlotView> {
        self.flat(i, slot).map(|f| SlotView {
            config: self.slot_config[f],
            area: self.slot_area[f],
            task: self.slot_task[f],
            link: self.slot_link[f],
        })
    }

    /// Intrusive list link of a live slot (`None` also for dead slots).
    #[inline]
    #[must_use]
    pub fn slot_link(&self, i: usize, slot: u32) -> Option<EntryRef> {
        self.flat(i, slot).and_then(|f| self.slot_link[f])
    }

    /// Set the intrusive list link of a live slot. Returns `false`
    /// (changing nothing) if the slot is not live.
    pub fn set_slot_link(&mut self, i: usize, slot: u32, link: Option<EntryRef>) -> bool {
        match self.flat(i, slot) {
            Some(f) => {
                self.slot_link[f] = link;
                true
            }
            None => false,
        }
    }

    /// Iterate the live slots of node `i` as `(slot_index, view)` in
    /// slab order (the traversal order of Fig. 3's config-task-pair
    /// list).
    pub fn slots(&self, i: usize) -> impl Iterator<Item = (u32, SlotView)> + '_ {
        let base = self.base[i];
        (0..self.slab_len[i]).filter_map(move |s| {
            // BOUND: s < slab_len, so base + s stays inside the node's slab.
            let f = base + s as usize;
            self.slot_live[f].then(|| {
                (
                    s,
                    SlotView {
                        config: self.slot_config[f],
                        area: self.slot_area[f],
                        task: self.slot_task[f],
                        link: self.slot_link[f],
                    },
                )
            })
        })
    }

    // ---- mutations (node-local; list maintenance is the caller's) ----

    /// Reserve arena room for one more slot on node `i`, bump-relocating
    /// the slab with doubled capacity when full. Relocation preserves
    /// node-relative slot indices (and therefore every `EntryRef`).
    fn ensure_slot_room(&mut self, i: usize) {
        if self.slab_len[i] < self.cap[i] {
            return;
        }
        let old_base = self.base[i];
        // BOUND: slab_len is a u32 slot count; usize is at least as wide.
        let old_len = self.slab_len[i] as usize;
        let new_cap = (self.cap[i].max(1) * 2).max(2);
        let new_base = self.slot_config.len();
        // BOUND: new_cap is a doubled u32 slot count; usize is at least as wide.
        for s in 0..new_cap as usize {
            if s < old_len {
                let f = old_base + s;
                self.slot_config.push(self.slot_config[f]);
                self.slot_area.push(self.slot_area[f]);
                self.slot_task.push(self.slot_task[f]);
                self.slot_link.push(self.slot_link[f]);
                self.slot_live.push(self.slot_live[f]);
                self.free_next.push(self.free_next[f]);
                // Neutralize the abandoned cell so stale state can
                // never read as live.
                self.slot_live[f] = false;
            } else {
                self.slot_config.push(ConfigId(0));
                self.slot_area.push(0);
                self.slot_task.push(None);
                self.slot_link.push(None);
                self.slot_live.push(false);
                self.free_next.push(NIL);
            }
        }
        self.base[i] = new_base;
        self.cap[i] = new_cap;
    }

    /// `SendBitstream()`: instantiate `config` in free area of node `i`.
    /// Identical semantics (including slot-index reuse order) to
    /// [`Node::send_bitstream`].
    pub fn send_bitstream(&mut self, i: usize, config: &Config) -> Result<u32, NodeError> {
        if config.req_area > self.available_area[i] {
            return Err(NodeError::InsufficientArea {
                needed: config.req_area,
                available: self.available_area[i],
            });
        }
        // Reserve the slot index first so the strip region can be keyed
        // by it; nothing is committed until every check passes.
        let reuse = self.free_head[i];
        let idx = if reuse != NIL {
            reuse
        } else {
            self.slab_len[i]
        };
        if let Some(strip) = &mut self.strip[i] {
            if strip.place(config.req_area, idx, self.gap_fit[i]).is_none() {
                return Err(NodeError::Fragmented {
                    needed: config.req_area,
                    largest_gap: strip.largest_gap(),
                });
            }
        }
        self.available_area[i] -= config.req_area;
        self.reconfig_count[i] += 1;
        self.occupancy[i].live += 1;
        if reuse != NIL {
            // BOUND: reuse < slab_len, so base + reuse stays inside the slab.
            let f = self.base[i] + reuse as usize;
            self.free_head[i] = self.free_next[f];
            self.free_next[f] = NIL;
            self.slot_live[f] = true;
        } else {
            self.ensure_slot_room(i);
            // BOUND: idx == slab_len < cap after ensure_slot_room.
            let f = self.base[i] + idx as usize;
            self.slab_len[i] += 1;
            self.slot_live[f] = true;
        }
        // BOUND: idx is a valid slot of node i by the two branches above.
        let f = self.base[i] + idx as usize;
        self.slot_config[f] = config.id;
        self.slot_area[f] = config.req_area;
        self.slot_task[f] = None;
        self.slot_link[f] = None;
        Ok(idx)
    }

    /// Evict one idle configuration of node `i`, reclaiming its area
    /// (one step of `MakeNodePartiallyBlank()`).
    pub fn evict_slot(&mut self, i: usize, idx: u32) -> Result<ConfigId, NodeError> {
        let Some(f) = self.flat(i, idx) else {
            return Err(NodeError::NoSuchSlot(idx));
        };
        if self.slot_task[f].is_some() {
            return Err(NodeError::SlotBusyOrVacant(idx));
        }
        let config = self.slot_config[f];
        // BOUND: slot areas sum to at most total_area by the Eq. 4 invariant.
        self.available_area[i] += self.slot_area[f];
        self.slot_live[f] = false;
        self.slot_link[f] = None;
        self.free_next[f] = self.free_head[i];
        self.free_head[i] = idx;
        self.occupancy[i].live -= 1;
        if let Some(strip) = &mut self.strip[i] {
            let freed = strip.free_slot(idx);
            debug_assert!(freed, "strip region missing for slot {idx}");
        }
        debug_assert!(self.available_area[i] <= self.total_area[i]);
        Ok(config)
    }

    /// `AddTaskToNode()`: start `task` on slot `idx` of node `i`.
    pub fn add_task(&mut self, i: usize, idx: u32, task: TaskId) -> Result<(), NodeError> {
        let Some(f) = self.flat(i, idx) else {
            return Err(NodeError::NoSuchSlot(idx));
        };
        if self.slot_task[f].is_some() {
            return Err(NodeError::SlotOccupied(idx));
        }
        self.slot_task[f] = Some(task);
        self.occupancy[i].running += 1;
        // BOUND: busy slot areas sum to at most total_area by Eq. 4.
        self.occupancy[i].busy_area += self.slot_area[f];
        Ok(())
    }

    /// `RemoveTaskFromNode()`: finish the task on slot `idx` of node
    /// `i`, leaving the configuration instantiated and idle.
    pub fn remove_task(&mut self, i: usize, idx: u32) -> Result<TaskId, NodeError> {
        let Some(f) = self.flat(i, idx) else {
            return Err(NodeError::NoSuchSlot(idx));
        };
        let task = self.slot_task[f]
            .take()
            .ok_or(NodeError::SlotBusyOrVacant(idx))?;
        self.occupancy[i].running -= 1;
        self.occupancy[i].busy_area -= self.slot_area[f];
        Ok(task)
    }

    /// Mark node `i` failed/offline (or back up).
    pub fn set_down(&mut self, i: usize, down: bool) {
        self.down[i] = down;
    }

    /// Recompute Eq. 4, the slot counts and the busy area of node `i` from
    /// scratch; used by `ResourceManager::check_invariants` and proptests.
    #[must_use]
    pub fn area_invariant_holds(&self, i: usize) -> bool {
        let occ = self.occupancy[i];
        let used: Area = self.slots(i).map(|(_, s)| s.area).sum();
        let busy: Vec<Area> = self
            .slots(i)
            .filter_map(|(_, s)| s.task.map(|_| s.area))
            .collect();
        let strip_ok = match &self.strip[i] {
            Some(s) => {
                s.is_consistent()
                    && s.total_free() == self.available_area[i]
                    // BOUND: live is a small per-node slot count.
                    && s.placed_count() == occ.live as usize
            }
            None => true,
        };
        // BOUND: used + available re-checks Eq. 4; both are at most total_area.
        used + self.available_area[i] == self.total_area[i]
            // BOUND: live is a small per-node slot count.
            && self.slots(i).count() == occ.live as usize
            // BOUND: running is a small per-node slot count.
            && busy.len() == occ.running as usize
            && busy.iter().sum::<Area>() == occ.busy_area
            && strip_ok
    }

    // ---- debug corruption hooks (tests only; bypass all invariants) ----

    /// Overwrite a live slot's denormalized area **without** touching
    /// area accounting. Test-only corruption hook.
    #[doc(hidden)]
    pub fn debug_set_slot_area(&mut self, i: usize, idx: u32, area: Area) {
        // INVARIANT: test-only hook; callers pass a slot they just
        // observed live, and a panic in a test is the desired failure.
        let f = self.flat(i, idx).expect("live slot");
        self.slot_area[f] = area;
    }

    /// Overwrite a node's `TotalArea` without rebalancing. Test-only.
    #[doc(hidden)]
    pub fn debug_set_total_area(&mut self, i: usize, area: Area) {
        self.total_area[i] = area;
    }

    /// Overwrite a live slot's task **without** list maintenance or
    /// running-count updates. Test-only corruption hook.
    #[doc(hidden)]
    pub fn debug_set_slot_task(&mut self, i: usize, idx: u32, task: Option<TaskId>) {
        // INVARIANT: test-only hook; callers pass a slot they just
        // observed live, and a panic in a test is the desired failure.
        let f = self.flat(i, idx).expect("live slot");
        self.slot_task[f] = task;
    }
}

impl serde::Serialize for NodeStore {
    fn write_json(&self, out: &mut String) {
        // Serialize through the legacy AoS form, one node at a time, so
        // checkpoint bytes are identical to the seed layout (pinned by
        // round-trip tests, the differential battery and the checkpoint
        // goldens) without materializing the whole table.
        serde::write_seq(out, (0..self.len()).map(|i| self.to_node(i)));
    }
}

impl serde::Deserialize for NodeStore {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let nodes: Vec<Node> = serde::Deserialize::from_value(value)?;
        for (i, n) in nodes.iter().enumerate() {
            if n.id.index() != i {
                return Err(serde::Error::custom(format!(
                    "NodeStore: node ids must be dense and ordered (found {} at {i})",
                    n.id
                )));
            }
        }
        Ok(Self::from_nodes(nodes))
    }
}

/// Read-only proxy for one node of a [`NodeStore`].
///
/// Scalar fields the AoS `Node` exposed publicly are copied into the
/// proxy at construction so existing call sites (`n.down`,
/// `n.total_area`, `n.network_delay`, …) read them as fields; slot and
/// strip state is answered through the store reference.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    store: &'a NodeStore,
    idx: usize,
    /// Node identifier (`NodeNo`).
    pub id: NodeId,
    /// Total reconfigurable area (`TotalArea`).
    pub total_area: Area,
    /// Device family (`family`).
    pub family: DeviceFamily,
    /// Hardware capabilities (`caps`).
    pub caps: Capabilities,
    /// One-way RMS↔node delay in timeticks (`NetworkDelay`).
    pub network_delay: Ticks,
    /// Number of (re)configurations performed on this node.
    pub reconfig_count: u64,
    /// Whether the node is failed/offline.
    pub down: bool,
}

impl std::fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRef")
            .field("id", &self.id)
            .field("total_area", &self.total_area)
            .field("available_area", &self.available_area())
            .field("down", &self.down)
            .field("live", &self.store.live_count(self.idx))
            .field("running", &self.store.running_count(self.idx))
            .finish_non_exhaustive()
    }
}

impl<'a> NodeRef<'a> {
    /// Remaining free reconfigurable area (Eq. 4).
    #[inline]
    #[must_use]
    pub fn available_area(self) -> Area {
        self.store.available_area(self.idx)
    }

    /// Number of instantiated configurations.
    #[inline]
    #[must_use]
    pub fn configured_count(self) -> usize {
        // BOUND: live is a small per-node slot count.
        self.store.live_count(self.idx) as usize
    }

    /// Number of running tasks.
    #[inline]
    #[must_use]
    pub fn running_count(self) -> usize {
        // BOUND: running is a small per-node slot count.
        self.store.running_count(self.idx) as usize
    }

    /// Whether the node has no configurations at all.
    #[inline]
    #[must_use]
    pub fn is_blank(self) -> bool {
        self.store.is_blank(self.idx)
    }

    /// Coarse state per the paper's `state` field.
    #[must_use]
    pub fn state(self) -> NodeState {
        self.store.state(self.idx)
    }

    /// Whether contiguous placement is active.
    #[must_use]
    pub fn is_contiguous(self) -> bool {
        self.store.strip[self.idx].is_some()
    }

    /// Can a configuration of `area` be instantiated right now?
    #[must_use]
    pub fn can_host(self, area: Area) -> bool {
        self.store.can_host(self.idx, area)
    }

    /// Could a configuration of `area` fit after evicting the given
    /// idle slots?
    #[must_use]
    pub fn can_host_after_evicting(self, area: Area, evict: &[u32]) -> bool {
        self.store.can_host_after_evicting(self.idx, area, evict)
    }

    /// External fragmentation in `[0, 1]` (0 under the scalar model).
    #[must_use]
    pub fn fragmentation(self) -> f64 {
        self.store.strip[self.idx]
            .as_ref()
            .map_or(0.0, Strip::fragmentation)
    }

    /// Copy of a live slot's fields.
    #[inline]
    #[must_use]
    pub fn slot(self, idx: u32) -> Option<SlotView> {
        self.store.slot(self.idx, idx)
    }

    /// Iterate live slots as `(slot_index, view)` in slab order.
    pub fn slots(self) -> impl Iterator<Item = (u32, SlotView)> + 'a {
        self.store.slots(self.idx)
    }

    /// Recompute the Eq. 4 invariant from scratch.
    #[must_use]
    pub fn area_invariant_holds(self) -> bool {
        self.store.area_invariant_holds(self.idx)
    }
}

/// Iterator over all nodes of a [`NodeStore`] as [`NodeRef`]s.
///
/// Also usable as a collection proxy: call sites that held the old
/// `&[Node]` slice keep working through [`Nodes::iter`] and
/// [`Nodes::len`].
#[derive(Clone)]
pub struct Nodes<'a> {
    store: &'a NodeStore,
    range: std::ops::Range<usize>,
}

impl<'a> Nodes<'a> {
    /// A fresh iterator over the same nodes (slice-compat shim).
    #[must_use]
    pub fn iter(&self) -> Nodes<'a> {
        self.clone()
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether there are no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

impl<'a> Iterator for Nodes<'a> {
    type Item = NodeRef<'a>;

    fn next(&mut self) -> Option<NodeRef<'a>> {
        let i = self.range.next()?;
        Some(self.store.node(NodeId::from_index(i)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Nodes<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(id: u32, area: Area) -> Config {
        Config::new(ConfigId(id), area, 10)
    }

    fn aos(total: Area) -> Node {
        Node::new(NodeId(0), total, 5)
    }

    fn soa(total: Area) -> NodeStore {
        NodeStore::from_nodes(vec![aos(total)])
    }

    /// Drive an AoS node and a SoA store through the same mutation
    /// script, comparing results and the serialized mirror at every
    /// step — the SoA layout must be observationally identical.
    #[test]
    fn mirror_script_matches_aos_node_exactly() {
        let mut n = aos(2000);
        let mut st = soa(2000);
        let script: Vec<(u32, Area)> = vec![(1, 600), (2, 300), (3, 500), (4, 100)];
        let mut slots = Vec::new();
        for &(id, area) in &script {
            let a = n.send_bitstream(&cfg(id, area));
            let b = st.send_bitstream(0, &cfg(id, area));
            assert_eq!(a, b, "send_bitstream({id})");
            if let Ok(s) = a {
                slots.push(s);
            }
            assert_eq!(st.to_nodes(), vec![n.clone()]);
        }
        // Evict the middle two, then reconfigure: index reuse must
        // follow the same LIFO order.
        for &s in &[slots[1], slots[2]] {
            assert_eq!(
                n.evict_slot(s).map(|c| c.0),
                st.evict_slot(0, s).map(|c| c.0)
            );
            assert_eq!(st.to_nodes(), vec![n.clone()]);
        }
        let ra = n.send_bitstream(&cfg(9, 50)).unwrap();
        let rb = st.send_bitstream(0, &cfg(9, 50)).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(ra, slots[2], "LIFO reuse takes the most recent hole");
        // Task lifecycle.
        assert_eq!(
            n.add_task(slots[0], TaskId(7)),
            st.add_task(0, slots[0], TaskId(7))
        );
        assert_eq!(st.to_nodes(), vec![n.clone()]);
        assert_eq!(n.remove_task(slots[0]), st.remove_task(0, slots[0]));
        assert_eq!(st.to_nodes(), vec![n.clone()]);
        // Error paths agree too.
        assert_eq!(n.evict_slot(99), st.evict_slot(0, 99));
        assert_eq!(n.remove_task(slots[0]), st.remove_task(0, slots[0]));
        assert!(st.area_invariant_holds(0));
    }

    #[test]
    fn slab_growth_preserves_entry_refs_and_free_order() {
        let mut st = soa(10_000);
        let mut slots = Vec::new();
        for i in 0..9 {
            slots.push(st.send_bitstream(0, &cfg(i, 1000)).unwrap());
        }
        // Dense assignment 0..9 across several relocations.
        assert_eq!(slots, (0..9).collect::<Vec<u32>>());
        for (i, &s) in slots.iter().enumerate() {
            assert_eq!(
                st.slot(0, s).map(|v| v.config),
                Some(ConfigId(i as u32)),
                "slot {s} survived relocation"
            );
        }
        st.evict_slot(0, 3).unwrap();
        st.evict_slot(0, 7).unwrap();
        assert_eq!(st.send_bitstream(0, &cfg(20, 10)).unwrap(), 7);
        assert_eq!(st.send_bitstream(0, &cfg(21, 10)).unwrap(), 3);
        assert!(st.area_invariant_holds(0));
    }

    #[test]
    fn serde_round_trip_is_aos_byte_identical() {
        let mut nodes: Vec<Node> = (0..4)
            .map(|i| Node::new(NodeId::from_index(i), 3000, 2))
            .collect();
        let s0 = nodes[0].send_bitstream(&cfg(0, 500)).unwrap();
        nodes[0].send_bitstream(&cfg(1, 700)).unwrap();
        nodes[0].evict_slot(s0).unwrap();
        nodes[2].send_bitstream(&cfg(2, 900)).unwrap();
        nodes[2].add_task(0, TaskId(3)).unwrap();
        let legacy_json = serde_json::to_string(&nodes).unwrap();
        let st = NodeStore::from_nodes(nodes.clone());
        let soa_json = serde_json::to_string(&st).unwrap();
        assert_eq!(legacy_json, soa_json, "SoA serde must mirror Vec<Node>");
        let back: NodeStore = serde_json::from_str(&soa_json).unwrap();
        assert_eq!(back, st);
        assert_eq!(back.to_nodes(), nodes);
    }

    #[test]
    fn contiguous_strip_behaviour_matches_aos() {
        let mut n = Node::new(NodeId(0), 1000, 1).with_contiguous(GapFit::FirstFit);
        let mut st = NodeStore::from_nodes(vec![n.clone()]);
        for (id, area) in [(0u32, 400u64), (1, 300), (2, 300)] {
            assert_eq!(
                n.send_bitstream(&cfg(id, area)).is_ok(),
                st.send_bitstream(0, &cfg(id, area)).is_ok()
            );
        }
        // Evict the middle region; a too-wide module must fail on both
        // with the same Fragmented error.
        assert_eq!(n.evict_slot(1).is_ok(), st.evict_slot(0, 1).is_ok());
        assert_eq!(
            n.send_bitstream(&cfg(5, 350)),
            st.send_bitstream(0, &cfg(5, 350))
        );
        assert_eq!(st.to_nodes(), vec![n.clone()]);
        assert!(st.node(NodeId(0)).is_contiguous());
        assert_eq!(st.node(NodeId(0)).fragmentation(), n.fragmentation());
    }

    #[test]
    fn node_ref_exposes_aos_surface() {
        let mut st = soa(2000);
        st.send_bitstream(0, &cfg(1, 600)).unwrap();
        let n = st.node(NodeId(0));
        assert_eq!(n.id, NodeId(0));
        assert_eq!(n.total_area, 2000);
        assert_eq!(n.available_area(), 1400);
        assert_eq!(n.network_delay, 5);
        assert!(!n.down);
        assert_eq!(n.reconfig_count, 1);
        assert_eq!(n.configured_count(), 1);
        assert_eq!(n.state(), NodeState::Idle);
        assert!(!n.is_blank());
        let views: Vec<(u32, SlotView)> = n.slots().collect();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].1.config, ConfigId(1));
        assert_eq!(st.iter().len(), 1);
        assert_eq!(st.iter().iter().count(), 1);
    }
}
