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

use crate::ids::TaskId;
use crate::steps::{StepCounter, StepKind};
use std::collections::VecDeque;

/// FIFO queue of suspended tasks.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SuspensionQueue {
    queue: VecDeque<TaskId>,
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

    /// `AddTaskToSusQueue()`: park a task at the tail.
    pub fn push(&mut self, task: TaskId, steps: &mut StepCounter) {
        self.queue.push_back(task);
        self.total_suspensions += 1;
        self.peak_len = self.peak_len.max(self.queue.len());
        steps.tick(StepKind::Housekeeping);
    }

    /// `SearchSusQueue()` + `RemoveTaskFromSusQueue()`: scan from the
    /// front for the first task `accept` is willing to take, remove and
    /// return it. Charges one housekeeping step per examined entry.
    pub fn remove_first_match(
        &mut self,
        steps: &mut StepCounter,
        mut accept: impl FnMut(TaskId) -> bool,
    ) -> Option<TaskId> {
        for i in 0..self.queue.len() {
            steps.tick(StepKind::Housekeeping);
            if accept(self.queue[i]) {
                return self.queue.remove(i);
            }
        }
        None
    }

    /// Iterate the queued tasks front-to-back without removing them
    /// (monitoring; charges no steps).
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.queue.iter().copied()
    }

    /// Remove a specific task wherever it sits (used by failure
    /// injection when a task is killed while suspended). Charges one
    /// housekeeping step per examined entry.
    pub fn remove_task(&mut self, task: TaskId, steps: &mut StepCounter) -> bool {
        for i in 0..self.queue.len() {
            steps.tick(StepKind::Housekeeping);
            if self.queue[i] == task {
                self.queue.remove(i);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut q = SuspensionQueue::new();
        let mut s = StepCounter::new();
        for i in 0..5 {
            q.push(TaskId(i), &mut s);
        }
        let order: Vec<TaskId> = q.iter().collect();
        assert_eq!(order, (0..5).map(TaskId).collect::<Vec<_>>());
        assert_eq!(q.len(), 5);
        assert_eq!(s.housekeeping, 5);
    }

    #[test]
    fn remove_first_match_takes_earliest_acceptable() {
        let mut q = SuspensionQueue::new();
        let mut s = StepCounter::new();
        for i in 0..6 {
            q.push(TaskId(i), &mut s);
        }
        let before = s.housekeeping;
        // Accept only even-numbered tasks greater than 1.
        let got = q.remove_first_match(&mut s, |t| t.0 > 1 && t.0 % 2 == 0);
        assert_eq!(got, Some(TaskId(2)));
        assert_eq!(s.housekeeping - before, 3, "examined tasks 0,1,2");
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn remove_first_match_none_scans_everything() {
        let mut q = SuspensionQueue::new();
        let mut s = StepCounter::new();
        for i in 0..4 {
            q.push(TaskId(i), &mut s);
        }
        let before = s.housekeeping;
        assert_eq!(q.remove_first_match(&mut s, |_| false), None);
        assert_eq!(s.housekeeping - before, 4);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn peak_and_total_counters() {
        let mut q = SuspensionQueue::new();
        let mut s = StepCounter::new();
        q.push(TaskId(0), &mut s);
        q.push(TaskId(1), &mut s);
        q.remove_first_match(&mut s, |_| true);
        q.push(TaskId(2), &mut s);
        assert_eq!(q.peak_len(), 2);
        assert_eq!(q.total_suspensions(), 3);
    }

    #[test]
    fn remove_task_targets_specific_entry() {
        let mut q = SuspensionQueue::new();
        let mut s = StepCounter::new();
        for i in 0..4 {
            q.push(TaskId(i), &mut s);
        }
        assert!(q.remove_task(TaskId(2), &mut s));
        assert!(!q.remove_task(TaskId(2), &mut s));
        let order: Vec<TaskId> = q.iter().collect();
        assert_eq!(order, vec![TaskId(0), TaskId(1), TaskId(3)]);
    }

    #[test]
    fn remove_task_absent_id_scans_whole_queue_without_change() {
        let mut q = SuspensionQueue::new();
        let mut s = StepCounter::new();
        for i in 0..4 {
            q.push(TaskId(i), &mut s);
        }
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
        q.push(TaskId(7), &mut s);
        q.push(TaskId(3), &mut s);
        q.push(TaskId(7), &mut s);
        assert!(q.remove_task(TaskId(7), &mut s));
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![TaskId(3), TaskId(7)]);
        assert!(q.remove_task(TaskId(7), &mut s));
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![TaskId(3)]);
        assert!(!q.remove_task(TaskId(7), &mut s));
    }

    #[test]
    fn remove_first_match_duplicate_ids_take_front_occurrence() {
        let mut q = SuspensionQueue::new();
        let mut s = StepCounter::new();
        q.push(TaskId(5), &mut s);
        q.push(TaskId(5), &mut s);
        q.push(TaskId(1), &mut s);
        assert_eq!(
            q.remove_first_match(&mut s, |t| t == TaskId(5)),
            Some(TaskId(5))
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![TaskId(5), TaskId(1)]);
    }

    #[test]
    fn remove_first_match_charges_steps_up_to_the_match_only() {
        let mut q = SuspensionQueue::new();
        let mut s = StepCounter::new();
        for i in 0..8 {
            q.push(TaskId(i), &mut s);
        }
        let before = s.housekeeping;
        assert_eq!(
            q.remove_first_match(&mut s, |t| t == TaskId(0)),
            Some(TaskId(0))
        );
        assert_eq!(s.housekeeping - before, 1, "front hit examines one entry");
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
