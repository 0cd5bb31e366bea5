//! The checkpoint form of the node store (format v3, DESIGN.md §18.4):
//! the node table, the slot arena, the free stacks, the strips and the
//! idle/busy lists as varint columns, written straight from the node and
//! slot records and read straight back into them.
//!
//! Every column is its length, then that many LEB128 varints
//! ([`crate::pack`]); the reader checks each length against what the
//! earlier columns imply. Columns, in order (`n` nodes, `k`
//! configurations):
//!
//! | # | column           | values          | each value                                   |
//! |---|------------------|-----------------|----------------------------------------------|
//! | 1 | `total_area`     | n               | `TotalArea`, at most `MAX_AREA`              |
//! | 2 | `network_delay`  | n               | ticks                                        |
//! | 3 | `family`         | n               | index in `DeviceFamily::ALL`                 |
//! | 4 | `caps`           | n               | capability bits, below 128                   |
//! | 5 | `reconfig_count` | n               | at most 2^31                                 |
//! | 6 | `down`           | down nodes      | node index, ascending                        |
//! | 7 | `placement`      | 2 × runs        | RLE (code, run): 0 scalar, 1 strip (first fit) |
//! | 8 | `slab_len`       | n               | slot indices in use, holes included          |
//! | 9 | `slot_config`    | Σ slab_len      | per slab cell: 0 = hole, else config + 1     |
//! |10 | `slot_area`      | live slots      | area                                         |
//! |11 | `slot_task`      | live slots      | 0 = idle, else task + 1                      |
//! |12 | `free`           | holes           | per node, its holes in stack order, bottom first |
//! |13 | `strip_regions`  | strip nodes     | region count                                 |
//! |14 | `regions`        | 3 × regions     | per region, in start order: start, width, slot (a distinct live slot of that area) |
//! |15 | `list_len`       | 2k              | idle lists of configs 0..k, then busy lists  |
//! |16 | `list_entries`   | 2 × entries     | per entry, oldest first: node, slot          |
//!
//! Derived state is recomputed, not stored: each node's live and
//! running counts, busy area and available area (total minus the live
//! slot areas; none when the slots overfill the node, which the restore
//! audit then rejects under Eq. 4), the slab capacities, and each
//! strip's width (the node's total area).

use super::{NodeStore, SlotCell, MAX_RECONFIGS, NIL};
use crate::caps::{Capabilities, DeviceFamily};
use crate::contiguous::{Region, Strip};
use crate::ids::{Area, ConfigId, EntryRef, NodeId, TaskId};
use crate::lists::ConfigLists;
use crate::pack::{get_varint, put_u64};

/// Appends columns: each one's values go to a scratch buffer first, so
/// its length can lead.
struct ColumnWriter<'a> {
    out: &'a mut Vec<u8>,
    col: Vec<u8>,
    len: u64,
}

impl ColumnWriter<'_> {
    fn value(&mut self, v: u64) {
        put_u64(&mut self.col, v);
        self.len += 1;
    }

    fn end(&mut self) {
        put_u64(self.out, self.len);
        self.out.extend_from_slice(&self.col);
        self.col.clear();
        self.len = 0;
    }
}

/// Reads columns: [`open`](Self::open) one, then read exactly its
/// length in [`value`](Self::value)s.
struct ColumnReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The open column, for error messages.
    name: &'static str,
}

impl ColumnReader<'_> {
    /// Open the next column and return its length, which must be
    /// `expect` when given.
    fn open(&mut self, name: &'static str, expect: Option<usize>) -> Result<usize, String> {
        self.name = name;
        let len = self.value()?;
        let len = usize::try_from(len).map_err(|_| format!("{name}: length {len}"))?;
        match expect {
            Some(want) if len != want => Err(format!("{name}: {len} values where {want} belong")),
            _ => Ok(len),
        }
    }

    fn value(&mut self) -> Result<u64, String> {
        let v = get_varint(self.buf, &mut self.pos).map_err(|e| format!("{}: {e}", self.name))?;
        u64::try_from(v).map_err(|_| format!("{}: value {v} exceeds u64", self.name))
    }

    fn u32(&mut self) -> Result<u32, String> {
        let v = self.value()?;
        u32::try_from(v).map_err(|_| format!("{}: value {v} exceeds u32", self.name))
    }

    fn usize(&mut self) -> Result<usize, String> {
        let v = self.value()?;
        usize::try_from(v).map_err(|_| format!("{}: value {v} exceeds usize", self.name))
    }

    /// A capacity hint no larger than the bytes left: every value takes
    /// at least one, so a corrupt length cannot balloon an allocation.
    fn cap(&self, len: usize) -> usize {
        len.min(self.buf.len() - self.pos)
    }
}

fn id(i: usize) -> NodeId {
    NodeId::from_index(i)
}

impl NodeStore {
    /// The placement code of node `i` (column 7).
    fn placement(&self, i: usize) -> u64 {
        u64::from(self.strip[i].is_some())
    }

    /// Append the store and `lists` as the checkpoint columns.
    pub(crate) fn write_columns(&self, lists: &ConfigLists, out: &mut Vec<u8>) {
        let mut w = ColumnWriter {
            out,
            col: Vec::new(),
            len: 0,
        };
        let n = self.len();
        for r in &self.records {
            w.value(r.total_area);
        }
        w.end();
        for r in &self.records {
            w.value(r.network_delay);
        }
        w.end();
        for f in &self.family {
            let code = DeviceFamily::ALL.iter().position(|x| x == f);
            // INVARIANT: `ALL` lists every family.
            w.value(code.expect("a listed family") as u64);
        }
        w.end();
        for c in &self.caps {
            w.value(u64::from(c.bits()));
        }
        w.end();
        for &c in &self.reconfig_count {
            w.value(c);
        }
        w.end();
        for (i, r) in self.records.iter().enumerate() {
            if r.down {
                w.value(i as u64);
            }
        }
        w.end();
        let mut start = 0;
        while start < n {
            let code = self.placement(start);
            let run = (start..n)
                .take_while(|&i| self.placement(i) == code)
                .count();
            w.value(code);
            w.value(run as u64);
            start += run;
        }
        w.end();
        for r in &self.records {
            w.value(u64::from(r.slab_len));
        }
        w.end();
        for i in 0..n {
            for c in self.slab(i) {
                w.value(if c.live { u64::from(c.config.0) + 1 } else { 0 });
            }
        }
        w.end();
        for i in 0..n {
            for (_, c) in self.cells_of(i) {
                w.value(c.area);
            }
        }
        w.end();
        for i in 0..n {
            for (_, c) in self.cells_of(i) {
                w.value(c.task.map_or(0, |t| u64::from(t.0) + 1));
            }
        }
        w.end();
        let mut stack = Vec::new();
        for (i, r) in self.records.iter().enumerate() {
            // The stack walks top first; the column holds it bottom first.
            let mut cur = r.free_head;
            while cur != NIL {
                stack.push(cur);
                // BOUND: cur < slab_len (free-stack entries are holes of this slab).
                cur = self.slab(i)[cur as usize].free_next;
            }
            for &s in stack.iter().rev() {
                w.value(u64::from(s));
            }
            stack.clear();
        }
        w.end();
        for strip in self.strip.iter().flatten() {
            w.value(strip.regions.len() as u64);
        }
        w.end();
        for strip in self.strip.iter().flatten() {
            for r in &strip.regions {
                w.value(r.start);
                w.value(r.width);
                w.value(u64::from(r.slot));
            }
        }
        w.end();
        for list in lists.vectors() {
            w.value(list.len() as u64);
        }
        w.end();
        for list in lists.vectors() {
            for e in list {
                w.value(u64::from(e.node.0));
                w.value(u64::from(e.slot));
            }
        }
        w.end();
    }

    /// Read the store and its lists back from the columns
    /// [`write_columns`](Self::write_columns) wrote for `count` nodes:
    /// the one place a node record from outside is checked.
    ///
    /// # Errors
    /// A column whose length or values break the layout (a code or
    /// capability bit no one owns, a count that exceeds its ceiling, a
    /// run or a list past its table, trailing bytes), and, naming the
    /// node: a total area above `MAX_AREA`, a reconfiguration count
    /// above 2^31, a free entry that is not a distinct hole, slot areas
    /// or strip region ends that overflow the area type, a strip region
    /// that is not the placement of a distinct live slot of its width;
    /// naming the list: an entry that names no live slot. A list that repeats an
    /// entry, and slot areas above the total area, read back and are
    /// left to the restore audit.
    pub(crate) fn read_columns(buf: &[u8], count: u64) -> Result<(Self, ConfigLists), String> {
        if count > u64::from(u32::MAX) + 1 {
            return Err(format!("count {count} exceeds the u32 node ids"));
        }
        let mut r = ColumnReader {
            buf,
            pos: 0,
            name: "",
        };
        // BOUND: count <= 2^32, checked above; usize is 64 bits wide on
        // every target that can hold that many nodes.
        let mut st = Self::read_nodes(&mut r, count as usize)?;
        st.read_slots(&mut r)?;
        st.read_strips(&mut r)?;
        let lists = st.read_lists(&mut r)?;
        if r.pos != buf.len() {
            return Err(format!(
                "trailing garbage: {} bytes after the list entries",
                buf.len() - r.pos
            ));
        }
        Ok((st, lists))
    }

    /// Columns 1–7: the per-node fields, as blank nodes.
    fn read_nodes(r: &mut ColumnReader<'_>, count: usize) -> Result<Self, String> {
        let n = r.open("total_area", Some(count))?;
        let mut st = Self::with_capacity(r.cap(n));
        for _ in 0..n {
            let total = r.value()?;
            st.push_node(
                total,
                0,
                DeviceFamily::default(),
                Capabilities::none(),
                false,
            )?;
        }
        r.open("network_delay", Some(n))?;
        for rec in &mut st.records {
            rec.network_delay = r.value()?;
        }
        r.open("family", Some(n))?;
        for (i, f) in st.family.iter_mut().enumerate() {
            let code = r.value()?;
            *f = usize::try_from(code)
                .ok()
                .and_then(|c| DeviceFamily::ALL.get(c).copied())
                .ok_or_else(|| format!("{}: unknown family code {code}", id(i)))?;
        }
        r.open("caps", Some(n))?;
        for (i, c) in st.caps.iter_mut().enumerate() {
            let bits = r.value()?;
            *c = u8::try_from(bits)
                .ok()
                .and_then(Capabilities::from_bits)
                .ok_or_else(|| format!("{}: unknown capability bits {bits}", id(i)))?;
        }
        r.open("reconfig_count", Some(n))?;
        for (i, c) in st.reconfig_count.iter_mut().enumerate() {
            *c = r.value()?;
            if *c > MAX_RECONFIGS {
                return Err(format!(
                    "{}: reconfig_count {c} exceeds the ceiling of {MAX_RECONFIGS}",
                    id(i)
                ));
            }
        }
        let down = r.open("down", None)?;
        let mut next = 0;
        for _ in 0..down {
            let i = r.usize()?;
            if i < next || i >= n {
                return Err(format!("down: node {i} out of order or out of range"));
            }
            st.records[i].down = true;
            next = i + 1;
        }
        let pairs = r.open("placement", None)?;
        let mut start = 0;
        for _ in 0..pairs / 2 {
            let code = r.value()?;
            let run = r.usize()?;
            let contiguous = match code {
                0 => false,
                1 => true,
                _ => return Err(format!("placement: unknown code {code}")),
            };
            if run == 0 || run > n - start {
                return Err(format!("placement: a run of {run} at node {start} of {n}"));
            }
            for i in start..start + run {
                st.strip[i] = contiguous.then(|| Strip::new(st.records[i].total_area));
            }
            start += run;
        }
        if pairs % 2 != 0 || start != n {
            return Err(format!("placement: runs cover {start} of {n} nodes"));
        }
        Ok(st)
    }

    /// Columns 8–12: the slot arena and the free stacks, with each node's
    /// counts and areas recomputed from its slots.
    fn read_slots(&mut self, r: &mut ColumnReader<'_>) -> Result<(), String> {
        r.open("slab_len", Some(self.len()))?;
        let mut cells = 0usize;
        for rec in &mut self.records {
            let len = r.u32()?;
            (rec.base, rec.cap, rec.slab_len) = (cells, len, len);
            // BOUND: u32 slab length; usize is at least as wide.
            let slab = len as usize;
            cells = cells
                .checked_add(slab)
                .ok_or("slab_len: the slabs overflow the arena")?;
        }
        r.open("slot_config", Some(cells))?;
        self.cells.reserve(r.cap(cells));
        let mut live = 0usize;
        for rec in &mut self.records {
            for _ in 0..rec.slab_len {
                let v = r.value()?;
                self.cells.push(if v == 0 {
                    SlotCell::DEAD
                } else {
                    let config = u32::try_from(v - 1)
                        .map_err(|_| format!("slot_config: value {v} exceeds u32"))?;
                    rec.live += 1;
                    SlotCell {
                        config: ConfigId(config),
                        live: true,
                        ..SlotCell::DEAD
                    }
                });
            }
            // BOUND: live <= slab_len, a u32; summed over the arena's cells.
            live += rec.live as usize;
        }
        r.open("slot_area", Some(live))?;
        for (i, rec) in self.records.iter_mut().enumerate() {
            let mut used: Area = 0;
            // BOUND: slab_len is a u32 slot count; usize is at least as wide.
            for c in &mut self.cells[rec.base..rec.base + rec.slab_len as usize] {
                if c.live {
                    c.area = r.value()?;
                    used = used
                        .checked_add(c.area)
                        .ok_or_else(|| format!("{}: slot areas overflow the area type", id(i)))?;
                }
            }
            // Eq. 4 is the audit's: slots that overfill the node leave
            // it no available area, and `area_invariant_holds` fails.
            rec.available_area = rec.total_area.saturating_sub(used);
        }
        r.open("slot_task", Some(live))?;
        for rec in &mut self.records {
            // BOUND: slab_len is a u32 slot count; usize is at least as wide.
            for c in &mut self.cells[rec.base..rec.base + rec.slab_len as usize] {
                if c.live {
                    let v = r.value()?;
                    if v != 0 {
                        let task = u32::try_from(v - 1)
                            .map_err(|_| format!("slot_task: value {v} exceeds u32"))?;
                        c.task = Some(TaskId(task));
                        rec.running += 1;
                        // BOUND: busy slots are live, and the live areas
                        // were just summed without overflow.
                        rec.busy_area += c.area;
                    }
                }
            }
        }
        r.open("free", Some(cells - live))?;
        let mut listed = Vec::new();
        for (i, rec) in self.records.iter_mut().enumerate() {
            // BOUND: slab_len is a u32 slot count; usize is at least as wide.
            let slab = &mut self.cells[rec.base..rec.base + rec.slab_len as usize];
            listed.clear();
            listed.resize(slab.len(), false);
            for _ in rec.live..rec.slab_len {
                let s = r.u32()?;
                // A free entry that is not a hole, or a repeated one,
                // would hand out a live slot index again.
                // BOUND: u32 slot index; usize is at least as wide.
                let f = s as usize;
                if slab.get(f).is_none_or(|c| c.live) || std::mem::replace(&mut listed[f], true) {
                    return Err(format!("{} lists slot {s} as free", id(i)));
                }
                // Pushing bottom first leaves the last entry on top.
                slab[f].free_next = rec.free_head;
                rec.free_head = s;
            }
        }
        Ok(())
    }

    /// Columns 13–14: the regions of every strip node's strip, each the
    /// placement of a distinct live slot of its width.
    fn read_strips(&mut self, r: &mut ColumnReader<'_>) -> Result<(), String> {
        let strips = self.strip.iter().filter(|s| s.is_some()).count();
        r.open("strip_regions", Some(strips))?;
        let mut counts = Vec::with_capacity(r.cap(strips));
        for _ in 0..strips {
            counts.push(r.usize()?);
        }
        let regions = counts
            .iter()
            .try_fold(0usize, |sum, &c| sum.checked_add(c))
            .and_then(|sum| sum.checked_mul(3))
            .ok_or("strip_regions: too many regions")?;
        r.open("regions", Some(regions))?;
        let nodes = self
            .strip
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| Some((i, s.as_mut()?)));
        let mut claimed = Vec::new();
        for ((i, strip), &count) in nodes.zip(&counts) {
            let rec = &self.records[i];
            // BOUND: slab_len is a u32 slot count; usize is at least as wide.
            let slab = &self.cells[rec.base..rec.base + rec.slab_len as usize];
            claimed.clear();
            claimed.resize(slab.len(), false);
            strip.regions.reserve(r.cap(count));
            for _ in 0..count {
                let (start, width, slot) = (r.value()?, r.value()?, r.u32()?);
                if start.checked_add(width).is_none() {
                    return Err(format!(
                        "{}: strip region ends overflow the area type",
                        id(i)
                    ));
                }
                // A region is the placement of one live slot, as wide as
                // it: any other would be freed by the wrong eviction, or
                // by none, and the strip would refuse a placement the
                // area account promises.
                // BOUND: u32 slot index; usize is at least as wide.
                let f = slot as usize;
                if slab.get(f).is_none_or(|c| !c.live || c.area != width)
                    || std::mem::replace(&mut claimed[f], true)
                {
                    return Err(format!(
                        "{}: a strip region of width {width} names slot {slot}",
                        id(i)
                    ));
                }
                strip.regions.push(Region { start, width, slot });
            }
        }
        Ok(())
    }

    /// Columns 15–16: the idle and busy lists, each entry naming a live
    /// slot.
    fn read_lists(&self, r: &mut ColumnReader<'_>) -> Result<ConfigLists, String> {
        let lists = r.open("list_len", None)?;
        if lists % 2 != 0 {
            return Err(format!(
                "list_len: {lists} lists, not two per configuration"
            ));
        }
        let mut lens = Vec::with_capacity(r.cap(lists));
        for _ in 0..lists {
            lens.push(r.usize()?);
        }
        let entries = lens
            .iter()
            .try_fold(0usize, |sum, &l| sum.checked_add(l))
            .and_then(|sum| sum.checked_mul(2))
            .ok_or("list_len: too many entries")?;
        r.open("list_entries", Some(entries))?;
        let mut vectors = Vec::with_capacity(lists);
        for (k, &len) in lens.iter().enumerate() {
            let mut list = Vec::with_capacity(r.cap(len));
            for _ in 0..len {
                let (node, slot) = (r.usize()?, r.u32()?);
                if node >= self.len() || self.flat(node, slot).is_none() {
                    let (kind, config) = if k < lists / 2 {
                        ("idle", k)
                    } else {
                        ("busy", k - lists / 2)
                    };
                    return Err(format!(
                        "{kind} list of ConfigId({config}): entry node {node} slot {slot} \
                         names no slot"
                    ));
                }
                list.push(EntryRef::new(id(node), slot));
            }
            vectors.push(list);
        }
        let busy = vectors.split_off(lists / 2);
        Ok(ConfigLists::from_vectors(vectors, busy))
    }
}
