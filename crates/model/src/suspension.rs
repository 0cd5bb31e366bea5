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
//! `resolved_config` the task had when it was pushed. A rescan decides
//! on the configuration alone, so [`SuspensionQueue::remove_first_match`]
//! walks that column and reads an id only at the match — no per-entry
//! load from the task table. [`push`](SuspensionQueue::push) takes the
//! id with the task's `resolved_config` as the caller reads it from the
//! table, and nothing rewrites a queued task's `resolved_config` while
//! it waits. The column is derived state: checkpoints carry only the
//! ids, and resume refills it from the task table
//! ([`SuspensionQueue::rebuild_configs`]) before the restore audit
//! compares it against the table.

use crate::ids::{ConfigId, TaskId};
use crate::steps::{StepCounter, StepKind};
use std::collections::VecDeque;

/// How the config column stores an unresolved configuration (a task
/// parked before its configuration was resolved, as a third-party
/// policy may do). Configuration ids are dense indices into the
/// configuration table, so no id of a table below 2^32 entries equals it.
const UNRESOLVED: u32 = u32::MAX;

/// FIFO queue of suspended tasks.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SuspensionQueue {
    queue: VecDeque<TaskId>,
    /// The config column: `configs[i]` is the `resolved_config` of the
    /// task at `queue[i]`, captured at push, as its raw id or
    /// [`UNRESOLVED`]. Four bytes an entry rather than the eight of an
    /// `Option<ConfigId>`: a rescan reads the column end to end, so its
    /// width is the walk's cost.
    // REBUILD: derived from the task table — `Simulation::resume` calls
    // `rebuild_configs` before the restore audit, which pins the column
    // against every queued task's `resolved_config`.
    #[serde(skip)]
    configs: VecDeque<u32>,
    /// High-water mark, reported by the monitoring module.
    peak_len: usize,
    /// Total number of suspensions performed (tasks may re-enter).
    total_suspensions: u64,
}

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
        self.queue.push_back(task);
        self.configs.push_back(encode(resolved));
        self.total_suspensions += 1;
        self.peak_len = self.peak_len.max(self.queue.len());
        steps.tick(StepKind::Housekeeping);
    }

    /// `SearchSusQueue()` + `RemoveTaskFromSusQueue()`: scan from the
    /// front for the first task whose configuration `accept` is willing
    /// to take, remove and return it. Charges one housekeeping step per
    /// examined entry: the match's position + 1 on a hit, the queue
    /// length on a miss.
    pub fn remove_first_match(
        &mut self,
        steps: &mut StepCounter,
        mut accept: impl FnMut(Option<ConfigId>) -> bool,
    ) -> Option<TaskId> {
        let (front, back) = self.configs.as_slices();
        let hit = match front.iter().position(|&c| accept(decode(c))) {
            Some(i) => Some(i),
            None => back
                .iter()
                .position(|&c| accept(decode(c)))
                .map(|i| front.len() + i),
        };
        let Some(i) = hit else {
            steps.charge(StepKind::Housekeeping, self.configs.len() as u64);
            return None;
        };
        steps.charge(StepKind::Housekeeping, i as u64 + 1);
        self.configs.remove(i);
        self.queue.remove(i)
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
    /// id front-to-back. Resume calls this on a deserialized queue,
    /// whose column the checkpoint does not carry.
    pub fn rebuild_configs(&mut self, mut resolved: impl FnMut(TaskId) -> Option<ConfigId>) {
        self.configs = self.queue.iter().map(|&t| encode(resolved(t))).collect();
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
        self.configs.remove(i);
        self.queue.remove(i);
        true
    }
}

fn encode(config: Option<ConfigId>) -> u32 {
    config.map_or(UNRESOLVED, |c| c.0)
}

fn decode(c: u32) -> Option<ConfigId> {
    (c != UNRESOLVED).then_some(ConfigId(c))
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

    fn pairs(q: &SuspensionQueue) -> Vec<(u32, Option<u32>)> {
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
    fn empty_queue_behaviour() {
        let mut q = SuspensionQueue::new();
        let mut s = StepCounter::new();
        assert!(q.is_empty());
        assert_eq!(q.remove_first_match(&mut s, |_| true), None);
        assert!(!q.remove_task(TaskId(0), &mut s));
        assert_eq!(s.housekeeping, 0);
    }
}
