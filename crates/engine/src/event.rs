//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: the sequence number makes
//! the order of simultaneous events deterministic (insertion order),
//! which in turn makes whole simulation runs reproducible bit-for-bit —
//! a property the reproducibility integration tests pin down.
//!
//! Two interchangeable backends implement that contract
//! ([`EventQueueBackend`]): the seed binary heap (`O(log n)` per
//! operation) and a Brown-style calendar queue (`O(1)` amortized),
//! added for the 1M-node scale ladder. Both pop in exactly the same
//! `(time, seq)` order — the sequence number is unique, so the minimum
//! is unambiguous and no internal layout difference can leak into the
//! event trace. Serialization is backend-independent by construction
//! (entries are written in sorted pop order), so checkpoints are
//! byte-identical across backends; the differential battery in
//! `tests/differential.rs` certifies both properties end to end.

use dreamsim_model::{EntryRef, NodeId, TaskId, Ticks};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulation event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Event {
    /// A task arrives at the resource management system.
    TaskArrival {
        /// The arriving task.
        task: TaskId,
    },
    /// A task finishes on a node slot.
    TaskCompletion {
        /// The finishing task.
        task: TaskId,
        /// Where it ran.
        entry: EntryRef,
        /// When this run of the task was placed. Fault injection can
        /// kill and resubmit a task while its completion is pending, so
        /// handlers match this against `Task::start_time` to discard
        /// events from superseded runs.
        started_at: Ticks,
    },
    /// A node fails (failure-injection extension): all its work is lost.
    NodeFailure {
        /// The failing node.
        node: NodeId,
    },
    /// A failed node comes back blank.
    NodeRepair {
        /// The repaired node.
        node: NodeId,
    },
    /// A bitstream load failed (fault-injection extension); the task
    /// re-enters scheduling after its backoff delay.
    ReconfigFailed {
        /// The task whose reconfiguration failed.
        task: TaskId,
    },
    /// A running task failed mid-execution (fault-injection extension)
    /// and frees its slot without completing.
    TaskFailed {
        /// The failing task.
        task: TaskId,
        /// Where it was running.
        entry: EntryRef,
        /// When this run of the task was placed (staleness stamp, as in
        /// [`Event::TaskCompletion`]).
        started_at: Ticks,
    },
    /// A suspended task exceeded the suspension-queue deadline
    /// (fault-injection extension) and is discarded.
    SuspensionTimeout {
        /// The timed-out task.
        task: TaskId,
        /// When the task entered the suspension queue; a resume and
        /// re-suspension in the meantime makes this event stale.
        enqueued_at: Ticks,
    },
    /// A correlated failure domain goes down (chaos extension): every
    /// member node fails atomically.
    DomainOutage {
        /// The failing domain.
        domain: u32,
        /// Fixed outage length for scripted outages; `None` for
        /// stochastic outages, whose restore delay is drawn from the
        /// domain MTTR stream when the outage fires.
        duration: Option<Ticks>,
    },
    /// A downed failure domain is restored: exactly the nodes the
    /// outage took down come back blank.
    DomainRestore {
        /// The restored domain.
        domain: u32,
    },
}

/// Selects the [`EventQueue`] implementation.
///
/// Both backends pop in exactly the same `(time, seq)` order and
/// serialize to identical bytes, so the choice is pure performance
/// tuning: `Heap` is the seed `BinaryHeap` (`O(log n)` per operation,
/// lowest constant factors at small scale), `Calendar` is a calendar
/// queue (`O(1)` amortized push/pop) for large-scale runs where the
/// heap's `log n` and cache behaviour start to bite.
///
/// The backend is *derived* state, like `SearchBackend`: it is not
/// recorded in checkpoints (deserialization always restores the heap
/// representation) and is re-selected after resume via
/// [`crate::sim::Simulation::with_event_queue_backend`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EventQueueBackend {
    /// Binary heap ordered by inverted `(time, seq)` — the seed
    /// implementation and the serde default.
    #[default]
    Heap,
    /// Brown-style calendar queue: events hash into day buckets by
    /// `time / width`; pop scans the current day's bucket for the
    /// `(time, seq)` minimum.
    Calendar,
}

impl EventQueueBackend {
    /// Parse a CLI flag value. Accepts `heap` and `calendar`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "heap" => Some(Self::Heap),
            "calendar" => Some(Self::Calendar),
            _ => None,
        }
    }

    /// Stable label for reports and bench output.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::Heap => "heap",
            Self::Calendar => "calendar",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Scheduled {
    time: Ticks,
    seq: u64,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Smallest day count a calendar keeps; also the size it starts at.
const MIN_DAYS: usize = 16;

/// A calendar day-bucket array plus the cursor marking the earliest
/// possibly-occupied day.
///
/// Invariants:
/// - `buckets.len()` is a power of two, so `day % buckets.len()` is a
///   mask.
/// - `width >= 1`, so `time / width` is always defined.
/// - `cursor_day` is a lower bound on the day of every pending entry
///   (pushes lower it, pops raise it to the popped entry's day, and a
///   rebuild recomputes it exactly).
/// - `len` is the total entry count across all buckets.
///
/// Entry order *within* a bucket is arbitrary (`swap_remove` history);
/// pop order never depends on it because the `(time, seq)` minimum is
/// selected by value and `seq` is unique.
#[derive(Clone, Debug)]
struct Calendar {
    buckets: Vec<Vec<Scheduled>>,
    width: Ticks,
    cursor_day: u64,
    len: usize,
}

impl Calendar {
    /// Rebuild a calendar holding exactly `entries`, sizing the day
    /// count to the entry count and the day width to the mean gap.
    ///
    /// With `days = next_power_of_two(len)` and
    /// `width = span / len + 1`, one full bucket cycle
    /// (`days * width`) covers the whole pending span, so far-future
    /// entries rarely share a bucket with near ones and the per-pop
    /// bucket scan stays O(1) amortized. All inputs to the sizing are
    /// deterministic functions of the pending entries, so two queues
    /// holding the same entries always land in the same geometry.
    fn assemble(entries: Vec<Scheduled>) -> Self {
        let len = entries.len();
        let days = len.next_power_of_two().max(MIN_DAYS);
        let (mut min_t, mut max_t) = (Ticks::MAX, Ticks::MIN);
        for s in &entries {
            min_t = min_t.min(s.time);
            max_t = max_t.max(s.time);
        }
        let width = if len == 0 {
            1
        } else {
            // BOUND: max_t >= min_t over a non-empty set, and the mean
            // gap of u64 times fits u64; +1 keeps width >= 1.
            (max_t - min_t) / len as u64 + 1
        };
        let mut cal = Self {
            buckets: vec![Vec::new(); days],
            width,
            cursor_day: if len == 0 { 0 } else { min_t / width },
            len,
        };
        for s in entries {
            let b = cal.bucket_of(s.time / cal.width);
            cal.buckets[b].push(s);
        }
        cal
    }

    fn day_of(&self, time: Ticks) -> u64 {
        time / self.width
    }

    fn bucket_of(&self, day: u64) -> usize {
        // BOUND: truncating day to usize is intended — the bucket index
        // is day modulo the power-of-two bucket count, taken via mask.
        (day as usize) & (self.buckets.len() - 1)
    }

    fn push(&mut self, s: Scheduled) {
        let day = self.day_of(s.time);
        if self.len == 0 || day < self.cursor_day {
            self.cursor_day = day;
        }
        let b = self.bucket_of(day);
        self.buckets[b].push(s);
        self.len += 1;
        if self.len > self.buckets.len() * 2 {
            self.rebuild();
        }
    }

    fn rebuild(&mut self) {
        let entries: Vec<Scheduled> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        *self = Self::assemble(entries);
    }

    /// Position `(bucket, slot, day)` of the `(time, seq)` minimum.
    ///
    /// Walks days forward from `cursor_day`; within the first day that
    /// has entries, the minimum over that day is the global minimum
    /// (later days only hold later times). If a full bucket cycle of
    /// days is empty — the pending set is sparse relative to the
    /// current geometry — falls back to a direct scan of every entry.
    fn locate_min(&self) -> Option<(usize, usize, u64)> {
        if self.len == 0 {
            return None;
        }
        for d in 0..self.buckets.len() as u64 {
            let day = self.cursor_day.saturating_add(d);
            let b = self.bucket_of(day);
            // TIEBREAK: seq is unique, so the (time, seq) argmin below
            // is unambiguous — bucket-internal order (which varies with
            // swap_remove history) cannot influence which entry wins.
            let mut best: Option<(usize, Ticks, u64)> = None;
            for (slot, s) in self.buckets[b].iter().enumerate() {
                if self.day_of(s.time) == day
                    && best.is_none_or(|(_, bt, bs)| (s.time, s.seq) < (bt, bs))
                {
                    best = Some((slot, s.time, s.seq));
                }
            }
            if let Some((slot, _, _)) = best {
                return Some((b, slot, day));
            }
        }
        // Sparse fallback: nothing within one bucket cycle of the
        // cursor. Scan every entry for the global minimum directly —
        // O(len), but callers then advance the cursor to the located
        // day, so consecutive operations stay local.
        let mut best: Option<(usize, usize, Ticks, u64)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (slot, s) in bucket.iter().enumerate() {
                if best.is_none_or(|(_, _, bt, bs)| (s.time, s.seq) < (bt, bs)) {
                    best = Some((b, slot, s.time, s.seq));
                }
            }
        }
        best.map(|(b, slot, t, _)| (b, slot, self.day_of(t)))
    }

    fn remove_at(&mut self, bucket: usize, slot: usize) -> Scheduled {
        let s = self.buckets[bucket].swap_remove(slot);
        self.len -= 1;
        if self.buckets.len() > MIN_DAYS && self.len < self.buckets.len() / 8 {
            self.rebuild();
        }
        s
    }

    fn pop(&mut self) -> Option<Scheduled> {
        let (b, slot, day) = self.locate_min()?;
        // The popped entry's day is a valid lower bound for everything
        // that remains: all other times are >= the minimum time.
        self.cursor_day = day;
        Some(self.remove_at(b, slot))
    }

    fn pop_due(&mut self, now: Ticks) -> Option<Scheduled> {
        let (b, slot, day) = self.locate_min()?;
        // Advance the cursor even on a miss, so the tick-stepped
        // driver's once-per-tick probe re-finds the minimum in O(1).
        self.cursor_day = day;
        if self.buckets[b][slot].time <= now {
            Some(self.remove_at(b, slot))
        } else {
            None
        }
    }

    fn peek_time(&self) -> Option<Ticks> {
        self.locate_min()
            .map(|(b, slot, _)| self.buckets[b][slot].time)
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.cursor_day = 0;
        self.len = 0;
    }

    fn capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum()
    }
}

#[derive(Clone, Debug)]
enum Repr {
    Heap(BinaryHeap<Scheduled>),
    Calendar(Calendar),
}

impl Default for Repr {
    fn default() -> Self {
        Self::Heap(BinaryHeap::new())
    }
}

/// Priority queue of scheduled events.
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    repr: Repr,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue (heap backend).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue pre-sized for `capacity` pending events, so the
    /// simulation hot path never reallocates the heap mid-run.
    /// Capacity is invisible to every observable behaviour (pop order,
    /// serialization, checkpoints) — pinned by the capacity regression
    /// test below.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            repr: Repr::Heap(BinaryHeap::with_capacity(capacity)),
            next_seq: 0,
        }
    }

    /// The active backend.
    #[must_use]
    pub fn backend(&self) -> EventQueueBackend {
        match &self.repr {
            Repr::Heap(_) => EventQueueBackend::Heap,
            Repr::Calendar(_) => EventQueueBackend::Calendar,
        }
    }

    /// Switch backends in place, carrying every pending entry (and its
    /// original sequence number) across, so pop order — and therefore
    /// the whole event trace — is unaffected. No-op if `backend` is
    /// already active.
    pub fn set_backend(&mut self, backend: EventQueueBackend) {
        if self.backend() == backend {
            return;
        }
        let entries: Vec<Scheduled> = match std::mem::take(&mut self.repr) {
            Repr::Heap(heap) => heap.into_vec(),
            Repr::Calendar(cal) => cal.buckets.into_iter().flatten().collect(),
        };
        self.repr = match backend {
            EventQueueBackend::Heap => Repr::Heap(BinaryHeap::from(entries)),
            EventQueueBackend::Calendar => Repr::Calendar(Calendar::assemble(entries)),
        };
    }

    /// Grow the queue's capacity to at least `total` entries (no-op if
    /// already that large). Used on checkpoint resume, where
    /// deserialization sizes the heap to exactly the pending entries:
    /// this restores the expected-peak headroom so the resumed run's
    /// pushes do not reallocate either. The calendar backend grows
    /// per-bucket organically and ignores the hint — deliberately, so
    /// scale-ladder runs skip the heap's large up-front reservation.
    pub fn ensure_capacity(&mut self, total: usize) {
        if let Repr::Heap(heap) = &mut self.repr {
            let have = heap.capacity();
            if total > have {
                heap.reserve(total - have);
            }
        }
    }

    /// Remove every pending event and reset the sequence counter,
    /// keeping the allocated capacity. A cleared queue is
    /// indistinguishable from a fresh one (same tie-breaking from seq
    /// 0), which is what lets sweep workers recycle queues across
    /// points.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Heap(heap) => heap.clear(),
            Repr::Calendar(cal) => cal.clear(),
        }
        self.next_seq = 0;
    }

    /// Current allocated capacity (allocation-diet tests only). For the
    /// calendar backend this is the sum of bucket capacities.
    #[must_use]
    pub fn capacity(&self) -> usize {
        match &self.repr {
            Repr::Heap(heap) => heap.capacity(),
            Repr::Calendar(cal) => cal.capacity(),
        }
    }

    /// Schedule `event` at absolute time `time`.
    pub fn push(&mut self, time: Ticks, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled { time, seq, event };
        match &mut self.repr {
            Repr::Heap(heap) => heap.push(s),
            Repr::Calendar(cal) => cal.push(s),
        }
    }

    /// Total events ever pushed onto this queue (the next sequence
    /// number). Monotonic, survives backend switches, and is carried by
    /// checkpoints — the phase profiler reads it as `events_pushed`, and
    /// `pushes() - len()` as `events_popped` (nothing else removes
    /// entries).
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.next_seq
    }

    /// Pop the earliest event, with its time.
    pub fn pop(&mut self) -> Option<(Ticks, Event)> {
        match &mut self.repr {
            Repr::Heap(heap) => heap.pop(),
            Repr::Calendar(cal) => cal.pop(),
        }
        .map(|s| (s.time, s.event))
    }

    /// Time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<Ticks> {
        match &self.repr {
            Repr::Heap(heap) => heap.peek().map(|s| s.time),
            Repr::Calendar(cal) => cal.peek_time(),
        }
    }

    /// Pop the earliest event only if it is due at or before `now`
    /// (tick-stepped driver support).
    pub fn pop_due(&mut self, now: Ticks) -> Option<(Ticks, Event)> {
        match &mut self.repr {
            Repr::Heap(heap) => {
                if heap.peek()?.time <= now {
                    heap.pop()
                } else {
                    None
                }
            }
            Repr::Calendar(cal) => cal.pop_due(now),
        }
        .map(|s| (s.time, s.event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Heap(heap) => heap.len(),
            Repr::Calendar(cal) => cal.len,
        }
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every pending entry, unsorted.
    fn entries(&self) -> Vec<&Scheduled> {
        match &self.repr {
            Repr::Heap(heap) => heap.iter().collect(),
            Repr::Calendar(cal) => cal.buckets.iter().flatten().collect(),
        }
    }

    /// All pending events in pop order (`(time, seq)` ascending), without
    /// disturbing the queue. Used by the invariant auditor and the
    /// checkpoint writer.
    #[must_use]
    pub fn pending(&self) -> Vec<(Ticks, Event)> {
        let mut entries = self.entries();
        entries.sort_by_key(|s| (s.time, s.seq));
        entries.into_iter().map(|s| (s.time, s.event)).collect()
    }
}

// Manual serde: `Scheduled` and the backend layout are private, so the
// queue serializes as its entries in pop order plus the sequence
// counter — identical bytes whichever backend is active. Restoring
// re-pushes the entries with their *original* sequence numbers, so
// same-tick tie-breaking — and therefore the whole event trace — is
// preserved bit-for-bit across a checkpoint. Deserialization always
// rebuilds the heap representation; the backend is derived state,
// re-selected after resume (see [`EventQueueBackend`]).
impl serde::Serialize for EventQueue {
    fn write_json(&self, out: &mut String) {
        let mut entries = self.entries();
        entries.sort_by_key(|s| (s.time, s.seq));
        out.push_str("{\"entries\":");
        serde::write_seq(out, entries.iter().map(|s| (s.time, s.seq, &s.event)));
        out.push_str(",\"next_seq\":");
        serde::Serialize::write_json(&self.next_seq, out);
        out.push('}');
    }
}

impl serde::Deserialize for EventQueue {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("EventQueue: expected object"))?;
        let entries = serde::__find(obj, "entries")
            .and_then(serde::Value::as_array)
            .ok_or_else(|| serde::Error::custom("EventQueue: missing entries array"))?;
        let next_seq: u64 = serde::Deserialize::from_value(
            serde::__find(obj, "next_seq")
                .ok_or_else(|| serde::Error::custom("EventQueue: missing next_seq"))?,
        )?;
        let mut heap = BinaryHeap::with_capacity(entries.len());
        for e in entries {
            let parts = e
                .as_array()
                .ok_or_else(|| serde::Error::custom("EventQueue: entry must be an array"))?;
            if parts.len() != 3 {
                return Err(serde::Error::custom(
                    "EventQueue: entry must be [time, seq, event]",
                ));
            }
            let time: Ticks = serde::Deserialize::from_value(&parts[0])?;
            let seq: u64 = serde::Deserialize::from_value(&parts[1])?;
            if seq >= next_seq {
                return Err(serde::Error::custom(format!(
                    "EventQueue: entry seq {seq} not below next_seq {next_seq}"
                )));
            }
            let event: Event = serde::Deserialize::from_value(&parts[2])?;
            heap.push(Scheduled { time, seq, event });
        }
        Ok(Self {
            repr: Repr::Heap(heap),
            next_seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(i: u32) -> Event {
        Event::TaskArrival { task: TaskId(i) }
    }

    /// A queue pre-switched to `backend`, for running the shared
    /// battery against both implementations.
    fn queue(backend: EventQueueBackend) -> EventQueue {
        let mut q = EventQueue::new();
        q.set_backend(backend);
        assert_eq!(q.backend(), backend);
        q
    }

    const BOTH: [EventQueueBackend; 2] = [EventQueueBackend::Heap, EventQueueBackend::Calendar];

    #[test]
    fn backend_parse_and_label_round_trip() {
        for b in BOTH {
            assert_eq!(EventQueueBackend::parse(b.label()), Some(b));
        }
        assert_eq!(EventQueueBackend::parse("ladder"), None);
        assert_eq!(EventQueueBackend::default(), EventQueueBackend::Heap);
    }

    #[test]
    fn pops_in_time_order() {
        for b in BOTH {
            let mut q = queue(b);
            q.push(30, arrival(0));
            q.push(10, arrival(1));
            q.push(20, arrival(2));
            let order: Vec<Ticks> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
            assert_eq!(order, vec![10, 20, 30]);
        }
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        for b in BOTH {
            let mut q = queue(b);
            for i in 0..10 {
                q.push(5, arrival(i));
            }
            let order: Vec<TaskId> = std::iter::from_fn(|| {
                q.pop().map(|(_, e)| match e {
                    Event::TaskArrival { task } => task,
                    _ => unreachable!(),
                })
            })
            .collect();
            assert_eq!(order, (0..10).map(TaskId).collect::<Vec<_>>());
        }
    }

    #[test]
    fn peek_and_pop_due() {
        for b in BOTH {
            let mut q = queue(b);
            q.push(10, arrival(0));
            q.push(20, arrival(1));
            assert_eq!(q.peek_time(), Some(10));
            assert!(q.pop_due(9).is_none());
            assert_eq!(q.pop_due(10).unwrap().0, 10);
            assert_eq!(q.pop_due(100).unwrap().0, 20);
            assert!(q.pop_due(u64::MAX).is_none());
        }
    }

    #[test]
    fn len_and_empty() {
        for b in BOTH {
            let mut q = queue(b);
            assert!(q.is_empty());
            q.push(1, arrival(0));
            q.push(2, arrival(1));
            assert_eq!(q.len(), 2);
            q.pop();
            q.pop();
            assert!(q.is_empty());
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn pop_due_preserves_insertion_order_for_same_tick_events() {
        // Mixed event kinds scheduled for the same tick must drain in
        // exactly the order they were pushed — the determinism contract
        // the tick-stepped driver relies on.
        for b in BOTH {
            let mut q = queue(b);
            let same_tick: Vec<Event> = vec![
                Event::TaskArrival { task: TaskId(3) },
                Event::NodeFailure { node: NodeId(1) },
                Event::ReconfigFailed { task: TaskId(9) },
                Event::SuspensionTimeout {
                    task: TaskId(4),
                    enqueued_at: 2,
                },
                Event::DomainOutage {
                    domain: 1,
                    duration: Some(40),
                },
                Event::DomainRestore { domain: 0 },
                Event::NodeRepair { node: NodeId(1) },
                Event::TaskArrival { task: TaskId(5) },
            ];
            for e in &same_tick {
                q.push(7, *e);
            }
            let mut drained = Vec::new();
            while let Some((t, e)) = q.pop_due(7) {
                assert_eq!(t, 7);
                drained.push(e);
            }
            assert_eq!(drained, same_tick);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn pop_due_tie_break_is_stable_across_earlier_pops() {
        // Sequence numbers keep incrementing across pops, so later
        // same-tick pushes still drain in insertion order even after
        // the queue has been partially consumed.
        for b in BOTH {
            let mut q = queue(b);
            q.push(1, arrival(0));
            assert_eq!(q.pop_due(1).unwrap().0, 1);
            q.push(4, arrival(10));
            q.push(4, arrival(11));
            q.push(3, arrival(12));
            q.push(4, arrival(13));
            let order: Vec<u32> = std::iter::from_fn(|| {
                q.pop_due(4).map(|(_, e)| match e {
                    Event::TaskArrival { task } => task.0,
                    _ => unreachable!(),
                })
            })
            .collect();
            assert_eq!(order, vec![12, 10, 11, 13]);
        }
    }

    #[test]
    fn capacity_is_invisible_to_pop_order_and_serialization() {
        // The allocation-diet contract: a pre-sized queue and a fresh
        // queue fed the same pushes drain identically and serialize to
        // identical bytes.
        let mut plain = EventQueue::new();
        let mut sized = EventQueue::with_capacity(64);
        assert!(sized.capacity() >= 64);
        let pushes: Vec<(Ticks, Event)> =
            (0..20).map(|i| ((i * 13) % 7, arrival(i as u32))).collect();
        for &(t, e) in &pushes {
            plain.push(t, e);
            sized.push(t, e);
        }
        assert_eq!(plain.pending(), sized.pending());
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&sized).unwrap()
        );
        let plain_order: Vec<(Ticks, Event)> = std::iter::from_fn(|| plain.pop()).collect();
        let sized_order: Vec<(Ticks, Event)> = std::iter::from_fn(|| sized.pop()).collect();
        assert_eq!(plain_order, sized_order);
    }

    #[test]
    fn clear_resets_sequencing_but_keeps_capacity() {
        for b in BOTH {
            let mut q = queue(b);
            for i in 0..100 {
                q.push(u64::from(i % 13), arrival(i));
            }
            let cap = q.capacity();
            assert!(cap > 0);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.capacity(), cap, "clear must keep the allocation");
            // A cleared queue tie-breaks exactly like a fresh one:
            // same-tick insertion order restarts from sequence 0.
            let mut fresh = EventQueue::new();
            for i in 0..6 {
                q.push(3, arrival(100 + i));
                fresh.push(3, arrival(100 + i));
            }
            assert_eq!(q.pending(), fresh.pending());
            assert_eq!(
                serde_json::to_string(&q).unwrap(),
                serde_json::to_string(&fresh).unwrap()
            );
        }
    }

    #[test]
    fn ensure_capacity_grows_but_never_shrinks() {
        let mut q = EventQueue::new();
        q.ensure_capacity(100);
        let grown = q.capacity();
        assert!(grown >= 100);
        q.ensure_capacity(10);
        assert_eq!(q.capacity(), grown, "ensure_capacity never shrinks");
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        for b in BOTH {
            let mut q = queue(b);
            q.push(50, arrival(0));
            q.push(10, arrival(1));
            assert_eq!(q.pop().unwrap().0, 10);
            q.push(5, arrival(2));
            q.push(60, arrival(3));
            assert_eq!(q.pop().unwrap().0, 5);
            assert_eq!(q.pop().unwrap().0, 50);
            assert_eq!(q.pop().unwrap().0, 60);
        }
    }

    /// Deterministic mixed workload driven by a splitmix64 stream:
    /// bursts of pushes (with clustered times to force ties) alternate
    /// with drains and occasional serialization snapshots. Both
    /// backends must agree on every pop and every snapshot byte.
    #[test]
    fn backends_agree_on_mixed_workload_and_snapshots() {
        let mut heap = queue(EventQueueBackend::Heap);
        let mut cal = queue(EventQueueBackend::Calendar);
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rand = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut next_id = 0u32;
        for round in 0..200u32 {
            let pushes = (rand() % 17) as usize;
            for _ in 0..pushes {
                // Cluster times into a narrow band (ties!) with an
                // occasional far-future outlier to stress bucket
                // wraparound and the sparse fallback.
                let r = rand();
                let t = if r % 19 == 0 {
                    1_000_000_000 + r % 100_000
                } else {
                    u64::from(round) * 10 + r % 7
                };
                heap.push(t, arrival(next_id));
                cal.push(t, arrival(next_id));
                next_id += 1;
            }
            let pops = (rand() % 13) as usize;
            for _ in 0..pops {
                assert_eq!(heap.pop(), cal.pop());
            }
            assert_eq!(heap.len(), cal.len());
            assert_eq!(heap.peek_time(), cal.peek_time());
            if round % 37 == 0 {
                assert_eq!(heap.pending(), cal.pending());
                assert_eq!(
                    serde_json::to_string(&heap).unwrap(),
                    serde_json::to_string(&cal).unwrap(),
                    "mid-stream snapshots must be byte-identical"
                );
            }
        }
        // Full drain: every remaining pop identical.
        loop {
            let (h, c) = (heap.pop(), cal.pop());
            assert_eq!(h, c);
            if h.is_none() {
                break;
            }
        }
    }

    #[test]
    fn calendar_survives_resize_and_sparse_spans() {
        // Grow through several rebuilds, then drain a sparse residue
        // whose gaps exceed one bucket cycle (exercising the fallback
        // scan), asserting full sorted order throughout.
        let mut q = queue(EventQueueBackend::Calendar);
        let mut expect: Vec<(Ticks, u32)> = Vec::new();
        for i in 0..3000u32 {
            let t = u64::from(i.wrapping_mul(2_654_435_761) % 1000) * 1_000_003;
            q.push(t, arrival(i));
            expect.push((t, i));
        }
        expect.sort_by_key(|&(t, i)| (t, i));
        let drained: Vec<(Ticks, u32)> = std::iter::from_fn(|| {
            q.pop().map(|(t, e)| match e {
                Event::TaskArrival { task } => (t, task.0),
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(drained, expect);
    }

    #[test]
    fn set_backend_mid_stream_preserves_order_and_bytes() {
        // Heap → Calendar → Heap with pending entries at every switch:
        // serialization bytes and the final drain order never change.
        let mut reference = queue(EventQueueBackend::Heap);
        let mut switched = queue(EventQueueBackend::Heap);
        for i in 0..50 {
            reference.push(u64::from(i % 11), arrival(i));
            switched.push(u64::from(i % 11), arrival(i));
        }
        switched.set_backend(EventQueueBackend::Calendar);
        assert_eq!(
            serde_json::to_string(&reference).unwrap(),
            serde_json::to_string(&switched).unwrap()
        );
        for i in 50..80 {
            reference.push(u64::from(i % 5), arrival(i));
            switched.push(u64::from(i % 5), arrival(i));
        }
        switched.set_backend(EventQueueBackend::Heap);
        assert_eq!(
            serde_json::to_string(&reference).unwrap(),
            serde_json::to_string(&switched).unwrap()
        );
        let a: Vec<(Ticks, Event)> = std::iter::from_fn(|| reference.pop()).collect();
        let b: Vec<(Ticks, Event)> = std::iter::from_fn(|| switched.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn deserialized_queue_restores_heap_backend() {
        let mut q = queue(EventQueueBackend::Calendar);
        for i in 0..10 {
            q.push(u64::from(i), arrival(i));
        }
        let json = serde_json::to_string(&q).unwrap();
        let restored: EventQueue = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.backend(), EventQueueBackend::Heap);
        assert_eq!(restored.pending(), q.pending());
    }
}
