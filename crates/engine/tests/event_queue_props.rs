//! Property test for event-queue checkpoints: an arbitrary batch of
//! events — heavy on timestamp ties — must survive a serialize /
//! deserialize round trip with its `(time, seq)` pop order and its
//! bytes intact.

use dreamsim_engine::{Event, EventQueue};
use dreamsim_model::TaskId;
use proptest::prelude::*;

/// Distinct payloads per push so a mis-ordered pop cannot hide behind
/// identical events.
fn payload(i: u32) -> Event {
    Event::TaskArrival { task: TaskId(i) }
}

fn snapshot(q: &EventQueue) -> String {
    serde_json::to_string(q).expect("event queue serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checkpoint_round_trip_preserves_pop_order(
        times in prop::collection::vec(0u64..100_000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, payload(i as u32));
        }
        let bytes = snapshot(&q);
        let mut restored: EventQueue = serde_json::from_str(&bytes).expect("round-trip");
        prop_assert_eq!(snapshot(&restored), bytes);
        prop_assert_eq!(restored.len(), q.len());
        while let Some(orig) = q.pop() {
            prop_assert_eq!(Some(orig), restored.pop());
        }
        prop_assert!(restored.is_empty());
    }
}
