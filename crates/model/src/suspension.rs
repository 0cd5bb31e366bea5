//! The suspension queue (the paper's `SusList`).
//!
//! When no node can take a task *now* but some busy node could after its
//! current work drains, the scheduler parks the task here
//! (`AddTaskToSusQueue`). Every task completion rescans the queue
//! (`SearchSusQueue` / `RemoveTaskFromSusQueue`) for a parked task the
//! freed capacity can serve. Rescans are FIFO, so earlier-suspended tasks
//! get first claim — and every examined entry charges one housekeeping
//! step. Even in saturated runs those steps are a small part of the
//! *total scheduler workload* metric (0.5 % of the housekeeping steps of
//! eight 200-node, 5 000-task Table II cells in partial mode): the
//! per-tick polling charge while the queue is non-empty (DESIGN.md §4)
//! dominates it.
//!
//! Beside each queued [`TaskId`] the queue keeps a *config column*: the
//! `resolved_config` the task had when it was pushed.
//! [`push`](SuspensionQueue::push) takes the id with the task's
//! `resolved_config` as the caller reads it from the table, and nothing
//! rewrites a queued task's `resolved_config` while it waits.
//!
//! Every rescan decides on the configuration alone, so the queue also
//! indexes its entries by configuration. Each entry carries a *stamp*
//! that rises strictly front to back; each configuration (and the
//! unresolved entries) has a FIFO of its entries' stamps; and the
//! *heads*, the fronts of the non-empty FIFOs, are kept in ascending
//! stamp order. [`SuspensionQueue::remove_first_match`] walks the heads,
//! not the entries: it asks `accept` about each distinct configuration
//! at most once, in the order of its earliest queued entry, and the first
//! accepted head is the first entry a linear walk would have accepted.
//! The walk's housekeeping charge is kept exactly: the match's rank + 1,
//! found by binary search on the stamp column, or the queue length on a
//! miss (DESIGN.md §4, "Rescans ask each configuration once").
//!
//! The config column and the index are derived state: checkpoints carry
//! only the ids and the counters, and resume refills the column from the
//! task table and rebuilds the index over it
//! ([`SuspensionQueue::rebuild_configs`]) before the restore audit
//! checks both ([`SuspensionQueue::check_index`]). Equality sees only
//! what a checkpoint carries plus the column, so a resumed queue equals
//! the live one whatever their stamps.

use crate::ids::{ConfigId, TaskId};
use crate::steps::{StepCounter, StepKind};
use std::collections::VecDeque;

/// How the config column stores an unresolved configuration (a task
/// parked before its configuration was resolved, as a third-party
/// policy may do). Configuration ids are dense indices into the
/// configuration table, so no id of a table below 2^32 entries equals it.
const UNRESOLVED: u32 = u32::MAX;

/// FIFO queue of suspended tasks.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct SuspensionQueue {
    queue: VecDeque<TaskId>,
    /// The config column: `configs[i]` is the `resolved_config` of the
    /// task at `queue[i]`, captured at push, as its raw id or
    /// [`UNRESOLVED`].
    // REBUILD: derived from the task table — `Simulation::resume` calls
    // `rebuild_configs` before the restore audit, which pins the column
    // against every queued task's `resolved_config`.
    #[serde(skip)]
    configs: VecDeque<u32>,
    /// The stamp column: `stamps[i]` is the stamp of `queue[i]`. Stamps
    /// rise strictly front to back and stay below `next_stamp`, so an
    /// entry's rank is a binary search away. `u32`, like the other two
    /// columns: a counter about to wrap re-stamps the queue from 0
    /// instead (`reindex`), once per 2^32 pushes.
    // REBUILD: derived from the config column — `rebuild_configs`
    // re-stamps the queue 0, 1, … on resume; the restore audit checks
    // it (`check_index`).
    #[serde(skip)]
    stamps: VecDeque<u32>,
    /// The per-configuration FIFOs: `fifos[slot(c)]` holds, in queue
    /// order, the stamps of the entries whose config column reads `c`
    /// (slot 0 the unresolved entries, slot `k + 1` configuration `k`).
    /// Sized on first use, so a fresh queue allocates nothing.
    // REBUILD: derived from the config column by `rebuild_configs`.
    #[serde(skip)]
    fifos: Vec<VecDeque<u32>>,
    /// The heads: `(stamp, config column value)` of each non-empty
    /// FIFO's front, in ascending stamp order.
    // REBUILD: derived from the config column by `rebuild_configs`.
    #[serde(skip)]
    heads: Vec<(u32, u32)>,
    /// The stamp the next push takes.
    // REBUILD: `rebuild_configs` sets it to the queue length.
    #[serde(skip)]
    next_stamp: u32,
    /// High-water mark, reported by the monitoring module.
    peak_len: usize,
    /// Total number of suspensions performed (tasks may re-enter).
    total_suspensions: u64,
}

/// Equal when what a checkpoint carries (ids and counters) and the
/// config column are: the stamps only order the entries, and a resumed
/// queue numbers them afresh.
impl PartialEq for SuspensionQueue {
    fn eq(&self, other: &Self) -> bool {
        self.queue == other.queue
            && self.configs == other.configs
            && self.peak_len == other.peak_len
            && self.total_suspensions == other.total_suspensions
    }
}

impl Eq for SuspensionQueue {}

impl SuspensionQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current queue length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Largest length ever reached.
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Total `AddTaskToSusQueue` calls over the run.
    #[must_use]
    pub fn total_suspensions(&self) -> u64 {
        self.total_suspensions
    }

    /// `AddTaskToSusQueue()`: park `task` at the tail, recording its
    /// current `resolved_config` in the config column.
    pub fn push(&mut self, task: TaskId, resolved: Option<ConfigId>, steps: &mut StepCounter) {
        if self.next_stamp == u32::MAX {
            self.reindex();
        }
        let stamp = self.next_stamp;
        self.next_stamp = stamp + 1;
        let code = encode(resolved);
        self.queue.push_back(task);
        self.configs.push_back(code);
        self.append(stamp, code);
        self.total_suspensions += 1;
        self.peak_len = self.peak_len.max(self.queue.len());
        steps.tick(StepKind::Housekeeping);
    }

    /// `SearchSusQueue()` + `RemoveTaskFromSusQueue()`: remove and return
    /// the first queued task whose configuration `accept` is willing to
    /// take. Charges one housekeeping step per entry a front-to-back walk
    /// examines: the match's position + 1 on a hit, the queue length on a
    /// miss.
    ///
    /// `accept` must decide on the configuration alone: it is called at
    /// most once per distinct configuration (`None` for unresolved
    /// entries), in the order of each one's earliest queued entry, and
    /// not at all for configurations queued behind the first accepted
    /// one.
    pub fn remove_first_match(
        &mut self,
        steps: &mut StepCounter,
        mut accept: impl FnMut(Option<ConfigId>) -> bool,
    ) -> Option<TaskId> {
        let Some(&(stamp, _)) = self.heads.iter().find(|&&(_, c)| accept(decode(c))) else {
            steps.charge(StepKind::Housekeeping, self.queue.len() as u64);
            return None;
        };
        self.remove_stamped(stamp, steps)
    }

    /// [`remove_first_match`](Self::remove_first_match) with
    /// `|c| c == Some(config)`, probing one FIFO front instead of asking
    /// about every configuration queued before it. Charges the same
    /// steps.
    pub fn remove_first_of(&mut self, config: ConfigId, steps: &mut StepCounter) -> Option<TaskId> {
        let front = self
            .fifos
            .get(slot(encode(Some(config))))
            .and_then(|f| f.front().copied());
        let Some(stamp) = front else {
            steps.charge(StepKind::Housekeeping, self.queue.len() as u64);
            return None;
        };
        self.remove_stamped(stamp, steps)
    }

    /// Iterate the queued tasks front-to-back without removing them
    /// (monitoring; charges no steps).
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.queue.iter().copied()
    }

    /// Iterate the config column front-to-back (the auditor compares it
    /// against the task rows; charges no steps).
    pub fn configs(&self) -> impl ExactSizeIterator<Item = Option<ConfigId>> + '_ {
        self.configs.iter().map(|&c| decode(c))
    }

    /// Refill the config column from `resolved`, called with each queued
    /// id front-to-back, and rebuild the index over it. Resume calls this
    /// on a deserialized queue, whose column and index the checkpoint
    /// does not carry.
    pub fn rebuild_configs(&mut self, mut resolved: impl FnMut(TaskId) -> Option<ConfigId>) {
        self.configs = self.queue.iter().map(|&t| encode(resolved(t))).collect();
        self.reindex();
    }

    /// Remove a specific task wherever it sits (used by failure
    /// injection when a task is killed while suspended). Charges one
    /// housekeeping step per examined entry.
    pub fn remove_task(&mut self, task: TaskId, steps: &mut StepCounter) -> bool {
        let Some(i) = self.queue.iter().position(|&t| t == task) else {
            steps.charge(StepKind::Housekeeping, self.queue.len() as u64);
            return false;
        };
        steps.charge(StepKind::Housekeeping, i as u64 + 1);
        self.remove_at(i).is_some()
    }

    /// Check the index against the columns in one pass: stamps rise
    /// strictly and stay below the next push's, each FIFO holds exactly
    /// its configuration's stamps in queue order, and the heads are the
    /// FIFOs' fronts in ascending order. The error names the first
    /// disagreement.
    pub fn check_index(&self) -> Result<(), String> {
        let len = self.queue.len();
        if self.configs.len() != len || self.stamps.len() != len {
            return Err(format!(
                "the queue holds {len} entries, its config column {} and its stamp column {}",
                self.configs.len(),
                self.stamps.len()
            ));
        }
        // Per FIFO, how many of its stamps the walk has met.
        let mut met = vec![0usize; self.fifos.len()];
        let mut heads = self.heads.iter();
        let mut prev = None;
        for (i, (&stamp, &code)) in self.stamps.iter().zip(&self.configs).enumerate() {
            if let Some(p) = prev.filter(|&p| p >= stamp) {
                return Err(format!(
                    "entry {i} has stamp {stamp}, not above the previous entry's {p}"
                ));
            }
            if stamp >= self.next_stamp {
                return Err(format!(
                    "entry {i} has stamp {stamp}, not below the next push's {}",
                    self.next_stamp
                ));
            }
            prev = Some(stamp);
            let s = slot(code);
            let k = met.get(s).copied().unwrap_or(0);
            let indexed = self.fifos.get(s).and_then(|f| f.get(k));
            if indexed != Some(&stamp) {
                return Err(format!(
                    "entry {i} ({:?}, stamp {stamp}) is {k} into its configuration's \
                     FIFO, which holds {indexed:?} there",
                    decode(code)
                ));
            }
            if k == 0 && heads.next() != Some(&(stamp, code)) {
                return Err(format!(
                    "entry {i} ({:?}, stamp {stamp}) is its configuration's earliest, \
                     but not the next head",
                    decode(code)
                ));
            }
            met[s] = k + 1;
        }
        if let Some(&(stamp, code)) = heads.next() {
            return Err(format!(
                "head ({:?}, stamp {stamp}) is no configuration's earliest entry",
                decode(code)
            ));
        }
        for (s, fifo) in self.fifos.iter().enumerate() {
            if fifo.len() != met[s] {
                return Err(format!(
                    "the FIFO of {:?} holds {} stamps for {} queued entries",
                    s.checked_sub(1).map(ConfigId::from_index),
                    fifo.len(),
                    met[s]
                ));
            }
        }
        Ok(())
    }

    /// Overwrite the stamp of the entry at `i` **without** index
    /// maintenance. Test-only corruption hook.
    #[doc(hidden)]
    pub fn debug_set_stamp(&mut self, i: usize, stamp: u32) {
        self.stamps[i] = stamp;
    }

    /// Remove the entry stamped `stamp`, charging its rank + 1.
    fn remove_stamped(&mut self, stamp: u32, steps: &mut StepCounter) -> Option<TaskId> {
        let i = self
            .stamps
            .binary_search(&stamp)
            // INVARIANT: every FIFO stamp is a queued entry's (the index
            // is kept in step with every push and removal), and the stamp
            // column is sorted.
            .expect("an indexed stamp is queued");
        steps.charge(StepKind::Housekeeping, i as u64 + 1);
        self.remove_at(i)
    }

    /// Remove the entry at position `i` from the columns and the index.
    fn remove_at(&mut self, i: usize) -> Option<TaskId> {
        let (stamp, code) = (self.stamps.remove(i)?, self.configs.remove(i)?);
        let fifo = &mut self.fifos[slot(code)];
        if fifo.front() == Some(&stamp) {
            fifo.pop_front();
            let h = self
                .heads
                .binary_search(&(stamp, code))
                // INVARIANT: a FIFO's front is a head, and the heads are
                // sorted by their distinct stamps.
                .expect("a FIFO front is a head");
            match fifo.front() {
                // The FIFO's next entry becomes its head: move the heads
                // between the old and the new stamp down one place.
                Some(&next) => {
                    let end = h + 1 + self.heads[h + 1..].partition_point(|&(s, _)| s < next);
                    self.heads[h..end].rotate_left(1);
                    self.heads[end - 1] = (next, code);
                }
                None => {
                    self.heads.remove(h);
                }
            }
        } else {
            let j = fifo
                .binary_search(&stamp)
                // INVARIANT: the FIFO holds every stamp of its
                // configuration's entries, in rising order.
                .expect("a queued stamp is in its FIFO");
            fifo.remove(j);
        }
        self.queue.remove(i)
    }

    /// Index the entry stamped `stamp` with config column value `code`,
    /// stamped above every entry indexed so far.
    fn append(&mut self, stamp: u32, code: u32) {
        self.stamps.push_back(stamp);
        let s = slot(code);
        if s >= self.fifos.len() {
            self.fifos.resize_with(s + 1, VecDeque::new);
        }
        let fifo = &mut self.fifos[s];
        if fifo.is_empty() {
            self.heads.push((stamp, code));
        }
        fifo.push_back(stamp);
    }

    /// Re-stamp the queue 0, 1, … and rebuild the index from the config
    /// column.
    fn reindex(&mut self) {
        self.stamps.clear();
        self.heads.clear();
        self.fifos.iter_mut().for_each(VecDeque::clear);
        for i in 0..self.configs.len() {
            let code = self.configs[i];
            // BOUND: i < len < u32::MAX — the queue holds one entry per
            // parked task, and task ids are u32.
            self.append(i as u32, code);
        }
        // BOUND: as above.
        self.next_stamp = self.configs.len() as u32;
    }
}

fn encode(config: Option<ConfigId>) -> u32 {
    config.map_or(UNRESOLVED, |c| c.0)
}

fn decode(c: u32) -> Option<ConfigId> {
    (c != UNRESOLVED).then_some(ConfigId(c))
}

/// The FIFO slot of config column value `code`: 0 for [`UNRESOLVED`],
/// `k + 1` for configuration `k`.
fn slot(code: u32) -> usize {
    // BOUND: u32 value; usize is at least 32 bits on every supported target.
    code.wrapping_add(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push tasks `0..n`, task `i` resolved to configuration `i`.
    fn queue_of(n: u32, s: &mut StepCounter) -> SuspensionQueue {
        let mut q = SuspensionQueue::new();
        for i in 0..n {
            q.push(TaskId(i), Some(ConfigId(i)), s);
        }
        q
    }

    /// The queue's (id, config) entries, after checking its index.
    fn pairs(q: &SuspensionQueue) -> Vec<(u32, Option<u32>)> {
        q.check_index().unwrap();
        q.iter()
            .zip(q.configs())
            .map(|(t, c)| (t.0, c.map(|c| c.0)))
            .collect()
    }

    #[test]
    fn fifo_order_preserved() {
        let mut s = StepCounter::new();
        let q = queue_of(5, &mut s);
        let order: Vec<TaskId> = q.iter().collect();
        assert_eq!(order, (0..5).map(TaskId).collect::<Vec<_>>());
        assert_eq!(
            q.configs().collect::<Vec<_>>(),
            (0..5).map(|c| Some(ConfigId(c))).collect::<Vec<_>>()
        );
        assert_eq!(q.len(), 5);
        assert_eq!(s.housekeeping, 5);
    }

    #[test]
    fn remove_first_match_takes_earliest_acceptable() {
        let mut s = StepCounter::new();
        let mut q = queue_of(6, &mut s);
        let before = s.housekeeping;
        // Accept only even-numbered configurations greater than 1.
        let got = q.remove_first_match(&mut s, |c| c.is_some_and(|c| c.0 > 1 && c.0 % 2 == 0));
        assert_eq!(got, Some(TaskId(2)));
        assert_eq!(s.housekeeping - before, 3, "examined entries 0,1,2");
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn remove_first_match_none_scans_everything() {
        let mut s = StepCounter::new();
        let mut q = queue_of(4, &mut s);
        let before = s.housekeeping;
        assert_eq!(q.remove_first_match(&mut s, |_| false), None);
        assert_eq!(s.housekeeping - before, 4);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn remove_first_match_passes_unresolved_entries_as_none() {
        // A third-party policy may park a task it never resolved; the
        // walk hands the closure `None` for it, and callers skip it.
        let mut s = StepCounter::new();
        let mut q = SuspensionQueue::new();
        q.push(TaskId(0), None, &mut s);
        q.push(TaskId(1), Some(ConfigId(4)), &mut s);
        let mut seen = Vec::new();
        let got = q.remove_first_match(&mut s, |c| {
            seen.push(c);
            c.is_some()
        });
        assert_eq!(got, Some(TaskId(1)));
        assert_eq!(seen, vec![None, Some(ConfigId(4))]);
        assert_eq!(pairs(&q), vec![(0, None)]);
    }

    #[test]
    fn peak_and_total_counters() {
        let mut q = SuspensionQueue::new();
        let mut s = StepCounter::new();
        q.push(TaskId(0), Some(ConfigId(0)), &mut s);
        q.push(TaskId(1), Some(ConfigId(1)), &mut s);
        q.remove_first_match(&mut s, |_| true);
        q.push(TaskId(2), Some(ConfigId(2)), &mut s);
        assert_eq!(q.peak_len(), 2);
        assert_eq!(q.total_suspensions(), 3);
    }

    #[test]
    fn remove_task_targets_specific_entry() {
        let mut s = StepCounter::new();
        let mut q = queue_of(4, &mut s);
        assert!(q.remove_task(TaskId(2), &mut s));
        assert!(!q.remove_task(TaskId(2), &mut s));
        let order: Vec<TaskId> = q.iter().collect();
        assert_eq!(order, vec![TaskId(0), TaskId(1), TaskId(3)]);
    }

    #[test]
    fn remove_task_absent_id_scans_whole_queue_without_change() {
        let mut s = StepCounter::new();
        let mut q = queue_of(4, &mut s);
        let before = s.housekeeping;
        assert!(!q.remove_task(TaskId(99), &mut s));
        assert_eq!(
            s.housekeeping - before,
            4,
            "a miss still examines every entry"
        );
        assert_eq!(q.len(), 4);
        assert_eq!(
            q.iter().collect::<Vec<_>>(),
            (0..4).map(TaskId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn remove_task_duplicate_id_removes_only_the_first() {
        // The driver never parks the same task twice concurrently, but
        // the queue itself must stay well-behaved if it happens: one
        // removal takes exactly one (the earliest) occurrence.
        let mut q = SuspensionQueue::new();
        let mut s = StepCounter::new();
        q.push(TaskId(7), Some(ConfigId(1)), &mut s);
        q.push(TaskId(3), Some(ConfigId(2)), &mut s);
        q.push(TaskId(7), Some(ConfigId(3)), &mut s);
        assert!(q.remove_task(TaskId(7), &mut s));
        assert_eq!(pairs(&q), vec![(3, Some(2)), (7, Some(3))]);
        assert!(q.remove_task(TaskId(7), &mut s));
        assert_eq!(pairs(&q), vec![(3, Some(2))]);
        assert!(!q.remove_task(TaskId(7), &mut s));
    }

    #[test]
    fn remove_first_match_duplicate_ids_take_front_occurrence() {
        let mut q = SuspensionQueue::new();
        let mut s = StepCounter::new();
        q.push(TaskId(5), Some(ConfigId(2)), &mut s);
        q.push(TaskId(5), Some(ConfigId(2)), &mut s);
        q.push(TaskId(1), Some(ConfigId(1)), &mut s);
        assert_eq!(
            q.remove_first_match(&mut s, |c| c == Some(ConfigId(2))),
            Some(TaskId(5))
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![TaskId(5), TaskId(1)]);
    }

    #[test]
    fn remove_first_match_charges_steps_up_to_the_match_only() {
        let mut s = StepCounter::new();
        let mut q = queue_of(8, &mut s);
        let before = s.housekeeping;
        assert_eq!(
            q.remove_first_match(&mut s, |c| c == Some(ConfigId(0))),
            Some(TaskId(0))
        );
        assert_eq!(s.housekeeping - before, 1, "front hit examines one entry");
    }

    #[test]
    fn walk_across_the_wrap_point_charges_position_plus_one() {
        let mut s = StepCounter::new();
        let mut q = queue_of(8, &mut s);
        // Pop fronts so the head moves off the buffer start, then push
        // until the tail has wrapped round past it by two entries.
        for _ in 0..5 {
            q.remove_first_match(&mut s, |_| true);
        }
        let mut next = 8;
        while q.configs.as_slices().1.len() < 2 {
            assert!(next < 64, "the tail never wrapped");
            q.push(TaskId(next), Some(ConfigId(next)), &mut s);
            next += 1;
        }
        let (front_len, len) = (q.configs.as_slices().0.len(), q.len());
        assert!(front_len >= 2, "both sides of the wrap hold entries");
        assert!(pairs(&q).iter().all(|&(t, c)| c == Some(t)));
        // A hit at the last entry, past the wrap point.
        let last = decode(q.configs[len - 1]).expect("pushed resolved");
        let before = s.housekeeping;
        assert_eq!(
            q.remove_first_match(&mut s, |c| c == Some(last)),
            Some(TaskId(last.0))
        );
        assert_eq!(s.housekeeping - before, len as u64);
        // A hit at the last entry before the wrap point.
        let edge = decode(q.configs[front_len - 1]).expect("pushed resolved");
        let before = s.housekeeping;
        assert_eq!(
            q.remove_first_match(&mut s, |c| c == Some(edge)),
            Some(TaskId(edge.0))
        );
        assert_eq!(s.housekeeping - before, front_len as u64);
        // A miss examines every remaining entry, on both sides.
        let before = s.housekeeping;
        assert_eq!(q.remove_first_match(&mut s, |_| false), None);
        assert_eq!(s.housekeeping - before, len as u64 - 2);
        assert_eq!(q.len(), len - 2);
        assert!(pairs(&q).iter().all(|&(t, c)| c == Some(t)));
    }

    #[test]
    fn column_stays_aligned_after_middle_removals() {
        let mut s = StepCounter::new();
        let mut q = queue_of(6, &mut s);
        assert_eq!(
            q.remove_first_match(&mut s, |c| c == Some(ConfigId(3))),
            Some(TaskId(3))
        );
        assert!(q.remove_task(TaskId(1), &mut s));
        assert_eq!(
            pairs(&q),
            vec![(0, Some(0)), (2, Some(2)), (4, Some(4)), (5, Some(5))]
        );
        q.push(TaskId(9), None, &mut s);
        assert_eq!(
            q.remove_first_match(&mut s, |c| c == Some(ConfigId(4))),
            Some(TaskId(4))
        );
        assert_eq!(
            pairs(&q),
            vec![(0, Some(0)), (2, Some(2)), (5, Some(5)), (9, None)]
        );
    }

    #[test]
    fn rebuild_configs_refills_the_column_in_queue_order() {
        let mut s = StepCounter::new();
        let mut q = queue_of(3, &mut s);
        q.configs.clear();
        q.rebuild_configs(|t| (t.0 != 1).then_some(ConfigId(t.0 + 10)));
        assert_eq!(pairs(&q), vec![(0, Some(10)), (1, None), (2, Some(12))]);
    }

    #[test]
    fn accept_sees_each_configuration_once_in_first_appearance_order() {
        let mut s = StepCounter::new();
        let mut q = SuspensionQueue::new();
        for (t, c) in [
            (0, Some(3)),
            (1, Some(1)),
            (2, Some(3)),
            (3, None),
            (4, Some(1)),
        ] {
            q.push(TaskId(t), c.map(ConfigId), &mut s);
        }
        q.push(TaskId(5), Some(ConfigId(7)), &mut s);
        let mut seen = Vec::new();
        let before = s.housekeeping;
        let got = q.remove_first_match(&mut s, |c| {
            seen.push(c);
            c == Some(ConfigId(7))
        });
        assert_eq!(got, Some(TaskId(5)));
        assert_eq!(
            seen,
            vec![
                Some(ConfigId(3)),
                Some(ConfigId(1)),
                None,
                Some(ConfigId(7))
            ]
        );
        assert_eq!(s.housekeeping - before, 6, "the walk's charge: rank 5 + 1");
        // Taking configuration 3's head moves its next entry into the
        // heads behind configuration 1's.
        seen.clear();
        let before = s.housekeeping;
        assert_eq!(
            q.remove_first_match(&mut s, |c| {
                seen.push(c);
                c == Some(ConfigId(3))
            }),
            Some(TaskId(0))
        );
        assert_eq!(seen, vec![Some(ConfigId(3))]);
        assert_eq!(s.housekeeping - before, 1);
        seen.clear();
        assert_eq!(
            q.remove_first_match(&mut s, |c| {
                seen.push(c);
                false
            }),
            None
        );
        assert_eq!(seen, vec![Some(ConfigId(1)), Some(ConfigId(3)), None]);
        assert_eq!(
            pairs(&q),
            vec![(1, Some(1)), (2, Some(3)), (3, None), (4, Some(1))]
        );
    }

    #[test]
    fn exact_probe_charges_like_the_walk() {
        let mut s = StepCounter::new();
        let mut q = SuspensionQueue::new();
        for (t, c) in [(0, 2), (1, 5), (2, 2), (3, 5)] {
            q.push(TaskId(t), Some(ConfigId(c)), &mut s);
        }
        let before = s.housekeeping;
        assert_eq!(q.remove_first_of(ConfigId(5), &mut s), Some(TaskId(1)));
        assert_eq!(s.housekeeping - before, 2);
        let before = s.housekeeping;
        assert_eq!(q.remove_first_of(ConfigId(5), &mut s), Some(TaskId(3)));
        assert_eq!(s.housekeeping - before, 3, "rank 2 once task 1 left");
        // A configuration never queued, or beyond every queued one, is a
        // miss that charges the whole queue.
        for absent in [ConfigId(5), ConfigId(3), ConfigId(40)] {
            let before = s.housekeeping;
            assert_eq!(q.remove_first_of(absent, &mut s), None);
            assert_eq!(s.housekeeping - before, 2);
        }
        assert_eq!(pairs(&q), vec![(0, Some(2)), (2, Some(2))]);
    }

    #[test]
    fn stamps_restart_before_they_wrap() {
        let mut s = StepCounter::new();
        let mut q = queue_of(4, &mut s);
        assert!(q.remove_task(TaskId(1), &mut s));
        // Jump the counter to just below the wrap: the entries keep their
        // small stamps, the next two pushes take the last two values and
        // the third re-stamps the queue from 0.
        q.next_stamp = u32::MAX - 2;
        q.push(TaskId(4), Some(ConfigId(2)), &mut s);
        q.push(TaskId(5), None, &mut s);
        assert_eq!(q.next_stamp, u32::MAX);
        assert_eq!(q.stamps.back(), Some(&(u32::MAX - 1)));
        q.check_index().unwrap();
        q.push(TaskId(6), Some(ConfigId(0)), &mut s);
        assert_eq!(q.stamps, (0..6).collect::<VecDeque<u32>>());
        assert_eq!(q.next_stamp, 6);
        assert_eq!(
            pairs(&q),
            vec![
                (0, Some(0)),
                (2, Some(2)),
                (3, Some(3)),
                (4, Some(2)),
                (5, None),
                (6, Some(0))
            ]
        );
        let before = s.housekeeping;
        assert_eq!(q.remove_first_of(ConfigId(2), &mut s), Some(TaskId(2)));
        assert_eq!(q.remove_first_of(ConfigId(2), &mut s), Some(TaskId(4)));
        assert_eq!(s.housekeeping - before, 2 + 3);
        assert_eq!(
            q.remove_first_match(&mut s, |c| c.is_none()),
            Some(TaskId(5))
        );
        assert_eq!(pairs(&q), vec![(0, Some(0)), (3, Some(3)), (6, Some(0))]);
    }

    #[test]
    fn check_index_reports_each_corruption() {
        let mut s = StepCounter::new();
        let mut q = SuspensionQueue::new();
        for (t, c) in [(0, Some(1)), (1, Some(2)), (2, Some(1)), (3, None)] {
            q.push(TaskId(t), c.map(ConfigId), &mut s);
        }
        q.check_index().unwrap();
        let expect_err = |q: &SuspensionQueue, needle: &str| {
            let err = q.check_index().expect_err(needle);
            assert!(err.contains(needle), "{needle:?} not in {err:?}");
        };
        let mut bad = q.clone();
        bad.stamps[2] = bad.stamps[1];
        expect_err(&bad, "not above the previous entry's");
        let mut bad = q.clone();
        bad.next_stamp = 3;
        expect_err(&bad, "not below the next push's 3");
        let mut bad = q.clone();
        bad.fifos[slot(1)].pop_back();
        expect_err(&bad, "entry 2 (Some(ConfigId(1)), stamp 2) is 1 into");
        let mut bad = q.clone();
        bad.fifos[slot(2)].push_back(9);
        expect_err(&bad, "the FIFO of Some(ConfigId(2)) holds 2 stamps for 1");
        let mut bad = q.clone();
        bad.heads.swap(0, 1);
        expect_err(&bad, "but not the next head");
        let mut bad = q.clone();
        bad.heads.push((9, 7));
        expect_err(&bad, "is no configuration's earliest entry");
        let mut bad = q.clone();
        bad.stamps.pop_back();
        expect_err(&bad, "its stamp column 3");
    }

    #[test]
    fn rebuilt_queue_equals_the_live_one() {
        // A live queue whose stamps have gaps, against the same ids
        // serialized, read back and rebuilt: the rebuilt index stamps
        // 0, 1, … and answers every rescan the same way.
        let mut s = StepCounter::new();
        let mut live = queue_of(8, &mut s);
        live.push(TaskId(8), Some(ConfigId(3)), &mut s);
        live.remove_first_match(&mut s, |c| c.is_some_and(|c| c.0 % 3 == 0));
        assert!(live.remove_task(TaskId(5), &mut s));
        let json = serde_json::to_string(&live).unwrap();
        assert!(!json.contains("stamp") && !json.contains("heads"), "{json}");
        let mut resumed: SuspensionQueue = serde_json::from_str(&json).unwrap();
        resumed.rebuild_configs(|t| Some(ConfigId(if t.0 == 8 { 3 } else { t.0 })));
        assert_eq!(resumed, live);
        assert_ne!(resumed.stamps, live.stamps);
        resumed.check_index().unwrap();
        let (mut a, mut b) = (StepCounter::new(), StepCounter::new());
        loop {
            let t = live.remove_first_match(&mut a, |c| c != Some(ConfigId(3)));
            assert_eq!(
                resumed.remove_first_match(&mut b, |c| c != Some(ConfigId(3))),
                t
            );
            if t.is_none() {
                break;
            }
        }
        assert_eq!(resumed, live);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = SuspensionQueue::new();
        let mut s = StepCounter::new();
        assert!(q.is_empty());
        assert_eq!(q.remove_first_match(&mut s, |_| true), None);
        assert_eq!(q.remove_first_of(ConfigId(0), &mut s), None);
        assert!(!q.remove_task(TaskId(0), &mut s));
        assert_eq!(s.housekeeping, 0);
        assert_eq!(q.check_index(), Ok(()));
    }
}
