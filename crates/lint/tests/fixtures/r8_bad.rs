//! r8 fixture: checkpoint-reachable state the snapshot provably
//! misses — one reachable type without Serialize capability, and one
//! live field with no rebuild story.
use serde::{Deserialize, Serialize};

/// The serialized snapshot root.
#[derive(Serialize, Deserialize)]
pub struct Checkpoint {
    pub clock: u64,
    pub stats: Stats,
}

/// Reachable from the snapshot but not serializable.
pub struct Stats {
    pub completed: u64,
}

/// Live state: `scratch` has no `// REBUILD:` note, so a resume would
/// silently lose it.
pub struct Simulation {
    // REBUILD: resume adopts the decoded checkpoint as this state.
    pub state: Checkpoint,
    pub scratch: Vec<u64>,
}
