//! Deterministic hand-rolled worker pool for sweep batches.
//!
//! The pool fans independent work items across `jobs` OS threads
//! (`std::thread::scope`, no external runtime) and merges results **in
//! item-index order**, so the merged output is byte-identical for any
//! thread count — the property the `-j1/-j2/-j8` invariance suite pins.
//!
//! ## Determinism argument (DESIGN.md §13)
//!
//! 1. Every item is a pure function of its own inputs: a sweep point
//!    carries its own derived seed, and the worker builds a fresh
//!    `Simulation` (own RNG, own store, own buffers) per item. Nothing
//!    survives an item, so nothing is shared between items.
//! 2. Workers claim items from an atomic counter, so *which* worker
//!    runs an item and *when* is scheduling-dependent — but each result
//!    is written into the slot of its original index, and the merged
//!    vector is read out in ascending index order after every worker
//!    has joined. Claim order therefore affects wall-clock only.
//! 3. The claim order itself may be permuted (longest-item-first, see
//!    [`cost_descending_order`]) to shrink the straggler tail; the
//!    merge order never changes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolve a requested job count against the batch size and the
/// machine: `0` selects the available hardware parallelism, and the
/// result is clamped to `[1, work]`.
#[must_use]
pub fn effective_jobs(requested: usize, work: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let j = if requested == 0 { hw } else { requested };
    j.min(work).max(1)
}

/// Claim order visiting the highest-cost items first (LPT scheduling),
/// with ascending index as the tiebreak. Feeding this to
/// [`run_ordered`] shrinks the end-of-batch straggler tail; the merged
/// result order is unaffected by construction.
#[must_use]
pub fn cost_descending_order(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    // TIEBREAK: the key includes the index, so equal costs keep their
    // ascending-index order and the permutation is fully deterministic.
    order.sort_unstable_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    order
}

/// Run `work(i)` for every index `i` in `order` (a permutation of
/// `0..order.len()`), fanned across `jobs` workers, and return the
/// results **indexed by `i` in ascending order** regardless of claim
/// order, worker assignment, or thread count.
///
/// Results are buffered worker-locally and flushed into their slots
/// under a single mutex when the worker drains, so the lock is taken
/// once per worker, not once per item.
///
/// # Panics
/// Panics if `order` is not a permutation of `0..order.len()` (a slot
/// would be left unfilled or written twice), or if a worker panics.
pub fn run_ordered<T: Send>(
    order: &[usize],
    jobs: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let n = order.len();
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.min(n).max(1);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    if jobs == 1 {
        // Serial fast path: same claim order, same merge order, no
        // threads — the baseline the invariance tests compare against.
        for &i in order {
            assert!(slots[i].is_none(), "claim order visits index {i} twice");
            slots[i] = Some(work(i));
        }
    } else {
        let next = AtomicUsize::new(0);
        let merged = Mutex::new(&mut slots);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        let i = order[k];
                        local.push((i, work(i)));
                    }
                    // INVARIANT: the mutex is poisoned only if a worker
                    // panicked, which already aborts the batch.
                    let slots = &mut *merged.lock().expect("pool worker panicked");
                    for (i, r) in local {
                        assert!(slots[i].is_none(), "claim order visits index {i} twice");
                        slots[i] = Some(r);
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .enumerate()
        // INVARIANT: the counter hands out each position of `order`
        // exactly once and the scope joins every worker, so a hole
        // means `order` skipped that index — rejected above as a
        // non-permutation.
        .map(|(i, r)| r.unwrap_or_else(|| panic!("claim order never visits index {i}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let order: Vec<usize> = (0..10).collect();
        for jobs in [1, 2, 8] {
            let out = run_ordered(&order, jobs, |i| i * i);
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>(), "-j{jobs}");
        }
    }

    #[test]
    fn permuted_claim_order_does_not_change_output() {
        let costs: Vec<u64> = vec![3, 9, 1, 9, 5, 0];
        let order = cost_descending_order(&costs);
        assert_eq!(order, vec![1, 3, 4, 0, 2, 5], "LPT with index tiebreak");
        for jobs in [1, 3] {
            let out = run_ordered(&order, jobs, |i| costs[i]);
            assert_eq!(out, costs, "-j{jobs}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u32> = run_ordered(&[], 4, |_| 0);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "visits index 0 twice")]
    fn duplicate_claim_order_is_rejected() {
        let _ = run_ordered(&[0, 0, 1], 1, |i| i);
    }

    #[test]
    fn effective_jobs_clamps_sensibly() {
        assert_eq!(effective_jobs(4, 2), 2, "no more workers than items");
        assert_eq!(effective_jobs(2, 100), 2);
        assert!(effective_jobs(0, 100) >= 1, "0 = hardware parallelism");
        assert_eq!(effective_jobs(1, 0).max(1), 1);
    }
}
