//! Node/slot storage (DESIGN.md §18.1).
//!
//! [`NodeStore`] is the paper's node table, and the one implementation
//! of a node's config-task-pair slots (Fig. 3), its Eq. 4 area account
//! and slot-index reuse. It is laid out for the per-event path, so that
//! an assignment or a release touches one node record and one slot
//! record:
//!
//! * **one record per node** (`NodeCell`, one 64-byte cache line): the
//!   slab bookkeeping, the total, available and busy areas, the live and
//!   running counts, the network delay and the `down` flag — every
//!   per-node field a slot lookup, a placement or a completion reads.
//!   The fields assignment and release never read (`family`, `caps`,
//!   `reconfig_count`, `strip`) stay separate columns;
//! * **one record per slot** (`SlotCell`) in a flat arena shared by all
//!   nodes: the configuration, its area, the running task, the search
//!   index's push sequence, and the free-stack link and live flag.
//!
//! Node scans (the placement filters, Algorithm 1,
//! `busy_candidate_exists`) stride over the node records, 64 bytes a
//! node.
//!
//! ## Read API
//!
//! The store is the one read surface for runtime node state. Every
//! reader — the searches, the scheduler, the engine handlers, the
//! auditor and the tests — asks it by node index (`NodeId::index()`):
//! [`available_area`](NodeStore::available_area),
//! [`is_down`](NodeStore::is_down), [`state`](NodeStore::state),
//! [`slots`](NodeStore::slots), [`fragmentation`](NodeStore::fragmentation)
//! and the rest. Each answer reads only the record or column it needs;
//! nothing assembles a per-node view.
//!
//! ## Slot arena
//!
//! Each node owns a contiguous *slab* `[base, base + cap)` of the arena;
//! slot index `s` of node `n` (the `EntryRef.slot` the idle/busy lists
//! hold) lives at flat index `base + s`, so `EntryRef`s stay stable
//! across slab growth. A slab that outgrows its capacity is
//! bump-relocated to the end of the arena with doubled capacity (the old
//! region is abandoned — bounded by the doubling to under half the
//! arena, and typical slot counts are 1–4). Free slot indices are kept
//! on an intrusive per-node LIFO stack threaded through the slot
//! records, so the most recently freed index is reused first — slot-index
//! reuse is observable in reports and checkpoints.
//!
//! ## Checkpoint form
//!
//! Checkpoint bytes must not depend on the memory layout, so the store
//! is written column by column, straight from the node and slot records
//! (the `columns` module, DESIGN.md §18.4), and read back straight into
//! them. The column reader is the one place a node record from outside
//! is checked: free entries that name distinct holes, the area and
//! reconfiguration ceilings, slot areas and strip region ends that do
//! not overflow, list entries that name live slots. Construction from
//! [`Node`] specs and the reader share one spec check (`push_node`).
//! Eq. 4 itself is left to [`NodeStore::area_invariant_holds`], which
//! the restore audit runs.

use crate::caps::{Capabilities, DeviceFamily};
use crate::config::Config;
use crate::contiguous::Strip;
use crate::ids::{Area, ConfigId, EntryRef, NodeId, TaskId, Ticks, MAX_AREA};
use crate::node::{Node, NodeState};

mod columns;

/// Errors from the store's node-local mutations
/// ([`NodeStore::send_bitstream`], [`evict_slot`](NodeStore::evict_slot),
/// [`add_task`](NodeStore::add_task) and
/// [`remove_task`](NodeStore::remove_task)).
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

/// Sentinel terminating a per-node free-slot stack.
const NIL: u32 = u32::MAX;

/// The largest reconfiguration count a node record may carry: 2^31.
/// The checkpoint reader checks it, so the count summed over the at
/// most 2^32 nodes (`u32` ids) starts at or below 2^63, and a run adds
/// one per reconfiguration it performs.
pub(crate) const MAX_RECONFIGS: u64 = 1 << 31;

/// The node records, the remaining per-node columns, and the slot
/// arena. Every per-node vector has one entry per node, indexed by
/// `NodeId::index()`.
#[derive(Clone, Debug, Default)]
pub struct NodeStore {
    records: Vec<NodeCell>,
    family: Vec<DeviceFamily>,
    caps: Vec<Capabilities>,
    reconfig_count: Vec<u64>,
    strip: Vec<Option<Strip>>,
    /// The flat slot arena; node `i`'s slab starts at `records[i].base`.
    cells: Vec<SlotCell>,
}

/// The per-node fields every slot lookup, placement and completion
/// reads, in one cache line (DESIGN.md §18.1).
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct NodeCell {
    /// First flat arena index of the node's slab.
    base: usize,
    /// Slab capacity in slots (cells reserved in the arena).
    cap: u32,
    /// Logical slab length, counting live slots *and* free holes; a new
    /// slot index past every hole is this length.
    slab_len: u32,
    /// Top of the node's intrusive free-slot stack (`NIL` = empty).
    free_head: u32,
    live: u32,
    running: u32,
    down: bool,
    total_area: Area,
    available_area: Area,
    /// Sum of the occupied slots' areas; derived, not serialized (nor
    /// are the counts or the available area).
    busy_area: Area,
    network_delay: Ticks,
}

const _: () = assert!(std::mem::size_of::<NodeCell>() == 64);

/// One slot of the arena: a config-task pair and its bookkeeping.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SlotCell {
    pub(crate) config: ConfigId,
    /// Next node-relative slot index on the free stack (valid only while
    /// the cell is dead).
    free_next: u32,
    pub(crate) area: Area,
    pub(crate) task: Option<TaskId>,
    /// Push sequence of the slot's entry in the search index's idle map
    /// (meaningful only while the slot is idle).
    pub(crate) seq: u64,
    live: bool,
}

impl SlotCell {
    const DEAD: Self = Self {
        config: ConfigId(0),
        free_next: NIL,
        area: 0,
        task: None,
        seq: 0,
        live: false,
    };

    fn view(&self) -> SlotView {
        SlotView {
            config: self.config,
            area: self.area,
            task: self.task,
        }
    }
}

/// Copy of one live slot's fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotView {
    /// The instantiated configuration.
    pub config: ConfigId,
    /// Area the configuration occupies.
    pub area: Area,
    /// The running task, or `None` when the slot is idle.
    pub task: Option<TaskId>,
}

impl NodeStore {
    /// Build the store of blank nodes from their specs.
    ///
    /// # Errors
    /// Names the first spec whose id is not its position in `nodes`, or
    /// whose total area exceeds [`MAX_AREA`].
    pub fn from_nodes(nodes: Vec<Node>) -> Result<Self, String> {
        let mut st = Self::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            if n.id.index() != i {
                return Err(format!(
                    "node ids must be dense and ordered (found {} at {i})",
                    n.id
                ));
            }
            st.push_node(
                n.total_area,
                n.network_delay,
                n.family,
                n.caps,
                n.contiguous,
            )?;
        }
        Ok(st)
    }

    fn with_capacity(nodes: usize) -> Self {
        Self {
            records: Vec::with_capacity(nodes),
            family: Vec::with_capacity(nodes),
            caps: Vec::with_capacity(nodes),
            reconfig_count: Vec::with_capacity(nodes),
            strip: Vec::with_capacity(nodes),
            cells: Vec::new(),
        }
    }

    /// Append one blank node with an empty slab at the arena's end: the
    /// one check of a node's spec, shared by construction and the
    /// checkpoint reader.
    ///
    /// # Errors
    /// A total area above [`MAX_AREA`], named by the node's id.
    fn push_node(
        &mut self,
        total_area: Area,
        network_delay: Ticks,
        family: DeviceFamily,
        caps: Capabilities,
        contiguous: bool,
    ) -> Result<(), String> {
        // Eq. 4, which the restore audit checks, bounds the available
        // and slot areas by the total area.
        if total_area > MAX_AREA {
            return Err(format!(
                "{}: total_area {total_area} exceeds the ceiling of {MAX_AREA} area units",
                NodeId::from_index(self.records.len())
            ));
        }
        self.records.push(NodeCell {
            base: self.cells.len(),
            cap: 0,
            slab_len: 0,
            free_head: NIL,
            live: 0,
            running: 0,
            down: false,
            total_area,
            available_area: total_area,
            busy_area: 0,
            network_delay,
        });
        self.family.push(family);
        self.caps.push(caps);
        self.reconfig_count.push(0);
        self.strip.push(contiguous.then(|| Strip::new(total_area)));
        Ok(())
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no nodes.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Length of the flat slot arena, abandoned regions included: every
    /// [`flat`](Self::flat) index is below it.
    pub(crate) fn arena_len(&self) -> usize {
        self.cells.len()
    }

    // ---- per-node read accessors ----

    /// `AvailableArea` of node `i` (Eq. 4).
    #[inline]
    #[must_use]
    pub fn available_area(&self, i: usize) -> Area {
        self.records[i].available_area
    }

    /// `TotalArea` of node `i`.
    #[inline]
    #[must_use]
    pub fn total_area(&self, i: usize) -> Area {
        self.records[i].total_area
    }

    /// One-way RMS↔node delay of node `i` (`NetworkDelay`).
    #[inline]
    #[must_use]
    pub fn network_delay(&self, i: usize) -> Ticks {
        self.records[i].network_delay
    }

    /// Whether node `i` is failed/offline.
    #[inline]
    #[must_use]
    pub fn is_down(&self, i: usize) -> bool {
        self.records[i].down
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
        self.records[i].live == 0
    }

    /// Number of live slots on node `i`.
    #[inline]
    #[must_use]
    pub fn live_count(&self, i: usize) -> u32 {
        self.records[i].live
    }

    /// Number of running tasks on node `i`.
    #[inline]
    #[must_use]
    pub fn running_count(&self, i: usize) -> u32 {
        self.records[i].running
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
        let r = &self.records[i];
        if r.running > 0 {
            NodeState::Busy
        } else if r.live > 0 {
            NodeState::Idle
        } else {
            NodeState::Blank
        }
    }

    /// Can a configuration of `area` be instantiated on node `i` right
    /// now? (Scalar check; gap check under contiguous placement.)
    #[must_use]
    pub fn can_host(&self, i: usize, area: Area) -> bool {
        if area > self.records[i].available_area {
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

    /// Whether node `i` places configurations contiguously (experiment
    /// A5).
    #[must_use]
    pub fn is_contiguous(&self, i: usize) -> bool {
        self.strip[i].is_some()
    }

    /// External fragmentation of node `i` in `[0, 1]` (0 under the
    /// scalar model).
    #[must_use]
    pub fn fragmentation(&self, i: usize) -> f64 {
        self.strip[i].as_ref().map_or(0.0, Strip::fragmentation)
    }

    /// Algorithm 1's walk over node `i`: the idle slots to evict, in slab
    /// order, until `AvailableArea` plus their areas covers `area` (with
    /// room for it under contiguity), and the count of live slots visited.
    /// A node with no idle slot, or with `TotalArea − busy < area`, cannot
    /// succeed (Eq. 4) and is answered without the walk (DESIGN.md §4).
    #[inline]
    #[must_use]
    pub fn reclaim_idle(&self, i: usize, area: Area) -> (Option<Vec<u32>>, u32) {
        let r = &self.records[i];
        if r.running == r.live || r.total_area.saturating_sub(r.busy_area) < area {
            return (None, r.live);
        }
        self.walk_idle(i, area)
    }

    /// Out of line, so that node scans inline only the early test.
    fn walk_idle(&self, i: usize, area: Area) -> (Option<Vec<u32>>, u32) {
        let mut accum = self.records[i].available_area;
        let mut evict = Vec::new();
        let mut visited = 0;
        for (idx, cell) in self.cells_of(i) {
            visited += 1;
            if cell.task.is_none() {
                // BOUND: accumulates slot areas of one node, at most its total_area.
                accum += cell.area;
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
    pub(crate) fn flat(&self, i: usize, slot: u32) -> Option<usize> {
        let r = &self.records[i];
        if slot < r.slab_len {
            // BOUND: slot < slab_len, so base + slot stays inside the node's slab.
            let f = r.base + slot as usize;
            self.cells[f].live.then_some(f)
        } else {
            None
        }
    }

    /// Record of a live slot.
    #[inline]
    pub(crate) fn cell(&self, entry: EntryRef) -> Option<&SlotCell> {
        self.flat(entry.node.index(), entry.slot)
            .map(|f| &self.cells[f])
    }

    /// Record the search index's push sequence on a live slot.
    pub(crate) fn set_seq(&mut self, entry: EntryRef, seq: u64) {
        match self.flat(entry.node.index(), entry.slot) {
            Some(f) => self.cells[f].seq = seq,
            None => debug_assert!(false, "indexing dead slot {entry}"),
        }
    }

    /// Copy of a live slot's fields.
    #[inline]
    #[must_use]
    pub fn slot(&self, i: usize, slot: u32) -> Option<SlotView> {
        self.flat(i, slot).map(|f| self.cells[f].view())
    }

    /// The slab cells of node `i`, holes included.
    fn slab(&self, i: usize) -> &[SlotCell] {
        let r = &self.records[i];
        // BOUND: slab_len is a u32 slot count; usize is at least as wide.
        &self.cells[r.base..r.base + r.slab_len as usize]
    }

    /// The live slot records of node `i` as `(slot_index, record)`, in
    /// slab order.
    pub(crate) fn cells_of(&self, i: usize) -> impl Iterator<Item = (u32, &SlotCell)> + '_ {
        self.slab(i)
            .iter()
            .zip(0u32..)
            .filter_map(|(c, s)| c.live.then_some((s, c)))
    }

    /// Iterate the live slots of node `i` as `(slot_index, view)` in
    /// slab order (the traversal order of Fig. 3's config-task-pair
    /// list).
    pub fn slots(&self, i: usize) -> impl Iterator<Item = (u32, SlotView)> + '_ {
        self.cells_of(i).map(|(s, c)| (s, c.view()))
    }

    // ---- mutations (node-local; list maintenance is the caller's) ----

    /// Reserve arena room for one more slot on node `i`, bump-relocating
    /// the slab with doubled capacity when full. Relocation preserves
    /// node-relative slot indices (and therefore every `EntryRef`).
    fn ensure_slot_room(&mut self, i: usize) {
        let r = &mut self.records[i];
        if r.slab_len < r.cap {
            return;
        }
        // BOUND: slab_len is a u32 slot count; usize is at least as wide.
        let old = r.base..r.base + r.slab_len as usize;
        let new_cap = (r.cap.max(1) * 2).max(2);
        r.base = self.cells.len();
        r.cap = new_cap;
        self.cells.extend_from_within(old.clone());
        // BOUND: new_cap is a doubled u32 slot count; usize is at least as wide.
        self.cells.resize(r.base + new_cap as usize, SlotCell::DEAD);
        // Neutralize the abandoned cells so stale state can never read
        // as live.
        for c in &mut self.cells[old] {
            c.live = false;
        }
    }

    /// `SendBitstream()`: instantiate `config` in free area of node `i`.
    /// Adjusts `AvailableArea`, bumps the reconfiguration count, and
    /// returns the new slot index: the most recently freed one, else one
    /// past the slab. List insertion is the caller's job.
    pub fn send_bitstream(&mut self, i: usize, config: &Config) -> Result<u32, NodeError> {
        let available = self.records[i].available_area;
        if config.req_area > available {
            return Err(NodeError::InsufficientArea {
                needed: config.req_area,
                available,
            });
        }
        // Reserve the slot index first so the strip region can be keyed
        // by it; nothing is committed until every check passes.
        let reuse = self.records[i].free_head;
        let idx = if reuse != NIL {
            reuse
        } else {
            self.records[i].slab_len
        };
        if let Some(strip) = &mut self.strip[i] {
            if strip.place(config.req_area, idx).is_none() {
                return Err(NodeError::Fragmented {
                    needed: config.req_area,
                    largest_gap: strip.largest_gap(),
                });
            }
        }
        self.reconfig_count[i] += 1;
        if reuse == NIL {
            self.ensure_slot_room(i);
        }
        let r = &mut self.records[i];
        r.available_area -= config.req_area;
        r.live += 1;
        // BOUND: idx is a hole of the slab or its length, below cap after
        // ensure_slot_room, so base + idx stays inside the slab.
        let f = r.base + idx as usize;
        if reuse != NIL {
            r.free_head = self.cells[f].free_next;
        } else {
            r.slab_len += 1;
        }
        self.cells[f] = SlotCell {
            config: config.id,
            area: config.req_area,
            live: true,
            ..SlotCell::DEAD
        };
        Ok(idx)
    }

    /// Evict one idle configuration of node `i`, reclaiming its area
    /// (one step of `MakeNodePartiallyBlank()`).
    pub fn evict_slot(&mut self, i: usize, idx: u32) -> Result<ConfigId, NodeError> {
        let Some(f) = self.flat(i, idx) else {
            return Err(NodeError::NoSuchSlot(idx));
        };
        let cell = &mut self.cells[f];
        if cell.task.is_some() {
            return Err(NodeError::SlotBusyOrVacant(idx));
        }
        let r = &mut self.records[i];
        cell.live = false;
        cell.free_next = r.free_head;
        r.free_head = idx;
        r.live -= 1;
        // BOUND: slot areas sum to at most total_area by the Eq. 4 invariant.
        r.available_area += cell.area;
        debug_assert!(r.available_area <= r.total_area);
        if let Some(strip) = &mut self.strip[i] {
            let freed = strip.free_slot(idx);
            debug_assert!(freed, "strip region missing for slot {idx}");
        }
        Ok(cell.config)
    }

    /// `AddTaskToNode()`: start `task` on slot `idx` of node `i`.
    pub fn add_task(&mut self, i: usize, idx: u32, task: TaskId) -> Result<(), NodeError> {
        let Some(f) = self.flat(i, idx) else {
            return Err(NodeError::NoSuchSlot(idx));
        };
        let cell = &mut self.cells[f];
        if cell.task.is_some() {
            return Err(NodeError::SlotOccupied(idx));
        }
        cell.task = Some(task);
        let r = &mut self.records[i];
        r.running += 1;
        // BOUND: busy slot areas sum to at most total_area by Eq. 4.
        r.busy_area += cell.area;
        Ok(())
    }

    /// `RemoveTaskFromNode()`: finish the task on slot `idx` of node
    /// `i`, leaving the configuration instantiated and idle.
    pub fn remove_task(&mut self, i: usize, idx: u32) -> Result<TaskId, NodeError> {
        let Some(f) = self.flat(i, idx) else {
            return Err(NodeError::NoSuchSlot(idx));
        };
        let cell = &mut self.cells[f];
        let task = cell.task.take().ok_or(NodeError::SlotBusyOrVacant(idx))?;
        let r = &mut self.records[i];
        r.running -= 1;
        r.busy_area -= cell.area;
        Ok(task)
    }

    /// Mark node `i` failed/offline (or back up).
    pub fn set_down(&mut self, i: usize, down: bool) {
        self.records[i].down = down;
    }

    /// Recompute Eq. 4, the slot counts and the busy area of node `i` from
    /// scratch; used by `ResourceManager::check_invariants` and proptests.
    #[must_use]
    pub fn area_invariant_holds(&self, i: usize) -> bool {
        let r = &self.records[i];
        let used: Area = self.cells_of(i).map(|(_, c)| c.area).sum();
        let busy: Vec<Area> = self
            .cells_of(i)
            .filter_map(|(_, c)| c.task.map(|_| c.area))
            .collect();
        let strip_ok = match &self.strip[i] {
            Some(s) => {
                s.is_consistent()
                    && s.total_free() == r.available_area
                    // BOUND: live is a small per-node slot count.
                    && s.placed_count() == r.live as usize
            }
            None => true,
        };
        // The checkpoint reader checked that the slot areas sum, but not
        // that they fit the total area: a restored node whose slots
        // overfill it reads back with no available area, and fails here.
        used.checked_add(r.available_area) == Some(r.total_area)
            // BOUND: live is a small per-node slot count.
            && self.cells_of(i).count() == r.live as usize
            // BOUND: running is a small per-node slot count.
            && busy.len() == r.running as usize
            && busy.iter().sum::<Area>() == r.busy_area
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
        self.cells[f].area = area;
    }

    /// Overwrite a node's `TotalArea` without rebalancing. Test-only.
    #[doc(hidden)]
    pub fn debug_set_total_area(&mut self, i: usize, area: Area) {
        self.records[i].total_area = area;
    }

    /// Overwrite a live slot's task **without** list maintenance or
    /// running-count updates. Test-only corruption hook.
    #[doc(hidden)]
    pub fn debug_set_slot_task(&mut self, i: usize, idx: u32, task: Option<TaskId>) {
        // INVARIANT: test-only hook; callers pass a slot they just
        // observed live, and a panic in a test is the desired failure.
        let f = self.flat(i, idx).expect("live slot");
        self.cells[f].task = task;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(id: u32, area: Area) -> Config {
        Config::new(ConfigId(id), area, 10)
    }

    fn soa(total: Area) -> NodeStore {
        NodeStore::from_nodes(vec![Node::new(NodeId(0), total, 5)]).unwrap()
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

    /// Experiment A5's first-fit strip: 1000 columns hold 400, 300 and
    /// 300, and freeing the first two leaves free area the scalar model
    /// would accept but no gap wide enough.
    #[test]
    fn contiguous_first_fit_script() {
        let strip = Node::new(NodeId(0), 1000, 1).with_contiguous();
        let mut st = NodeStore::from_nodes(vec![strip]).unwrap();
        assert!(st.is_contiguous(0));
        for (id, area) in [(0, 400), (1, 300), (2, 300)] {
            assert_eq!(st.send_bitstream(0, &cfg(id, area)), Ok(id));
        }
        assert_eq!(st.evict_slot(0, 1), Ok(ConfigId(1)));
        assert_eq!(
            st.send_bitstream(0, &cfg(5, 350)),
            Err(NodeError::InsufficientArea {
                needed: 350,
                available: 300
            })
        );
        assert_eq!(st.send_bitstream(0, &cfg(6, 100)), Ok(1), "reuses slot 1");
        assert_eq!(st.evict_slot(0, 0), Ok(ConfigId(0)));
        assert_eq!(st.available_area(0), 600);
        // Gaps of 400 and 200: 1 − 400/600.
        assert_eq!(
            st.fragmentation(0).to_bits(),
            0.333_333_333_333_333_37_f64.to_bits()
        );
        assert_eq!(
            st.send_bitstream(0, &cfg(7, 500)),
            Err(NodeError::Fragmented {
                needed: 500,
                largest_gap: 400
            })
        );
        assert_eq!(st.reconfig_count(0), 4);
        assert!(st.area_invariant_holds(0));
        assert!(!soa(1000).is_contiguous(0));
        assert_eq!(soa(1000).fragmentation(0).to_bits(), 0.0f64.to_bits());
    }
}
