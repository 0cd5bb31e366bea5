//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: the sequence number makes
//! the order of simultaneous events deterministic (insertion order),
//! which in turn makes whole simulation runs reproducible bit-for-bit —
//! a property the reproducibility integration tests pin down. The
//! queue is a binary heap over that key; it serializes as its entries
//! in pop order, so checkpoint bytes never depend on the heap's
//! internal layout.

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

/// Priority queue of scheduled events.
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
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
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Grow the queue's capacity to at least `total` entries (no-op if
    /// already that large). Used on checkpoint resume, where
    /// deserialization sizes the heap to exactly the pending entries:
    /// this restores the expected-peak headroom so the resumed run's
    /// pushes do not reallocate either.
    pub fn ensure_capacity(&mut self, total: usize) {
        let have = self.heap.capacity();
        if total > have {
            self.heap.reserve(total - have);
        }
    }

    /// Current allocated capacity (capacity tests only).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Schedule `event` at absolute time `time`.
    pub fn push(&mut self, time: Ticks, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Total events ever pushed onto this queue (the next sequence
    /// number). Monotonic and carried by checkpoints — the phase
    /// profiler reads it as `events_pushed`, and `pushes() - len()` as
    /// `events_popped` (nothing else removes entries).
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.next_seq
    }

    /// Pop the earliest event, with its time.
    pub fn pop(&mut self) -> Option<(Ticks, Event)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// Pop the earliest event only if it is due at or before `now`
    /// (tick-stepped driver support).
    pub fn pop_due(&mut self, now: Ticks) -> Option<(Ticks, Event)> {
        if self.heap.peek()?.time <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every pending entry in pop order (`(time, seq)` ascending).
    fn sorted(&self) -> Vec<&Scheduled> {
        let mut entries: Vec<&Scheduled> = self.heap.iter().collect();
        entries.sort_by_key(|s| (s.time, s.seq));
        entries
    }

    /// All pending events in pop order (`(time, seq)` ascending), without
    /// disturbing the queue. Used by the invariant auditor and the
    /// checkpoint writer.
    #[must_use]
    pub fn pending(&self) -> Vec<(Ticks, Event)> {
        self.sorted()
            .into_iter()
            .map(|s| (s.time, s.event))
            .collect()
    }
}

// Manual serde: `Scheduled` is private, so the queue serializes as its
// entries in pop order plus the sequence counter — bytes that never
// depend on the heap's internal layout. Restoring re-pushes the entries
// with their *original* sequence numbers, so same-tick tie-breaking —
// and therefore the whole event trace — is preserved bit-for-bit across
// a checkpoint.
impl serde::Serialize for EventQueue {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"entries\":");
        serde::write_seq(out, self.sorted().iter().map(|s| (s.time, s.seq, &s.event)));
        out.push_str(",\"next_seq\":");
        serde::Serialize::write_json(&self.next_seq, out);
        out.push('}');
    }
}

impl serde::Deserialize for EventQueue {
    fn read_json(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let no_entries = || serde::Error::custom("EventQueue: missing entries array");
        let (mut entries, mut next_seq) = (None, None);
        let mut map = r
            .map()
            .map_err(|_| serde::Error::custom("EventQueue: expected object"))?;
        while let Some(key) = map.next_key(r)? {
            match &*key {
                "entries" if entries.is_none() => {
                    let mut seq = r.seq().map_err(|_| no_entries())?;
                    let mut list = Vec::new();
                    while seq.next(r)? {
                        list.push(read_entry(r)?);
                    }
                    entries = Some(list);
                }
                "next_seq" if next_seq.is_none() => {
                    next_seq = Some(<u64 as serde::Deserialize>::read_json(r)?);
                }
                _ => r.skip_value()?,
            }
        }
        let entries = entries.ok_or_else(no_entries)?;
        let next_seq =
            next_seq.ok_or_else(|| serde::Error::custom("EventQueue: missing next_seq"))?;
        let mut heap = BinaryHeap::with_capacity(entries.len());
        for entry in entries {
            if entry.seq >= next_seq {
                return Err(serde::Error::custom(format!(
                    "EventQueue: entry seq {} not below next_seq {next_seq}",
                    entry.seq
                )));
            }
            heap.push(entry);
        }
        Ok(Self { heap, next_seq })
    }
}

/// One `[time, seq, event]` queue entry.
fn read_entry(r: &mut serde::Reader<'_>) -> Result<Scheduled, serde::Error> {
    let shape = || serde::Error::custom("EventQueue: entry must be [time, seq, event]");
    let mut parts = r
        .seq()
        .map_err(|_| serde::Error::custom("EventQueue: entry must be an array"))?;
    let mut next = |r: &mut serde::Reader<'_>| parts.next(r)?.then_some(()).ok_or_else(shape);
    next(r)?;
    let time: Ticks = serde::Deserialize::read_json(r)?;
    next(r)?;
    let seq: u64 = serde::Deserialize::read_json(r)?;
    next(r)?;
    let event: Event = serde::Deserialize::read_json(r)?;
    if parts.next(r)? {
        return Err(shape());
    }
    Ok(Scheduled { time, seq, event })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(i: u32) -> Event {
        Event::TaskArrival { task: TaskId(i) }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, arrival(0));
        q.push(10, arrival(1));
        q.push(20, arrival(2));
        let order: Vec<Ticks> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        let mut q = EventQueue::new();
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

    #[test]
    fn peek_and_pop_due() {
        let mut q = EventQueue::new();
        q.push(10, arrival(0));
        q.push(20, arrival(1));
        assert!(q.pop_due(9).is_none());
        assert_eq!(q.pop_due(10).unwrap().0, 10);
        assert_eq!(q.pop_due(100).unwrap().0, 20);
        assert!(q.pop_due(u64::MAX).is_none());
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, arrival(0));
        q.push(2, arrival(1));
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_due_preserves_insertion_order_for_same_tick_events() {
        // Mixed event kinds scheduled for the same tick must drain in
        // exactly the order they were pushed — the determinism contract
        // the tick-stepped driver relies on.
        let mut q = EventQueue::new();
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

    #[test]
    fn pop_due_tie_break_is_stable_across_earlier_pops() {
        // Sequence numbers keep incrementing across pops, so later
        // same-tick pushes still drain in insertion order even after
        // the queue has been partially consumed.
        let mut q = EventQueue::new();
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

    #[test]
    fn capacity_is_invisible_to_pop_order_and_serialization() {
        // The pre-sizing contract: a pre-sized queue and a fresh queue
        // fed the same pushes drain identically and serialize to
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
        let mut q = EventQueue::new();
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
