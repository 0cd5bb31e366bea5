//! r8 fixture (clean): every reachable type serializes — by derive or
//! by hand — and every live field documents its rebuild story.
use serde::{Deserialize, Serialize};

/// The serialized snapshot root.
#[derive(Serialize, Deserialize)]
pub struct Checkpoint {
    pub clock: u64,
    pub stats: Stats,
    pub queue: EventQueue,
}

#[derive(Serialize, Deserialize)]
pub struct Stats {
    pub completed: u64,
}

/// Serialized by hand: the impl below owns field coverage (the proof
/// treats hand-serialized types as opaque leaves).
pub struct EventQueue {
    heap: Vec<u64>,
}

impl Serialize for EventQueue {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.heap.serialize(s)
    }
}

/// Live state: the captured members live in the embedded snapshot, and
/// every field carries a `// REBUILD:` audit note.
pub struct Simulation {
    // REBUILD: resume adopts the decoded checkpoint as this state.
    pub state: Checkpoint,
    // REBUILD: observers are process-local hooks; callers re-register
    // them after resume.
    pub observers: Vec<u32>,
}
