//! Strongly typed identifiers and scalar units.
//!
//! The paper measures reconfigurable area in abstract *area units* ("e.g.
//! area slices") and time in *timeticks*; both are plain `u64` aliases
//! here. Entity identifiers are newtypes over dense indices into the
//! respective arenas, so a `TaskId` can never be used where a `NodeId` is
//! expected.

use serde::{Deserialize, Serialize};

/// Reconfigurable area, in abstract area units (Table II uses e.g. node
/// `TotalArea` ∈ \[1000..4000\]).
pub type Area = u64;

/// The largest area a node or configuration may have: 2^24 area units,
/// about 4 000 times Table II's largest node.
///
/// Parameters and checkpoints are checked against it, so a sum of areas
/// over the at most 2^32 nodes (`u32` ids) stays below 2^56, and a sum
/// of one area per placement cannot reach 2^64 before 2^40 placements.
pub const MAX_AREA: Area = 1 << 24;

/// Simulated time, in timeticks (Eq. 5: total simulation time is the
/// total number of timeticks).
pub type Ticks = u64;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The dense index this id wraps.
            #[inline]
            #[must_use]
            pub fn index(self) -> usize {
                // BOUND: u32 id; usize is at least 32 bits on every supported target.
                self.0 as usize
            }

            /// Construct from a dense index.
            ///
            /// # Panics
            /// Panics if `index` exceeds `u32::MAX`.
            #[inline]
            #[must_use]
            pub fn from_index(index: usize) -> Self {
                // INVARIANT: arenas are dense and sized at init from the
                // validated SimParams, which cap every entity count far
                // below u32::MAX (documented panic for hand-built ids).
                Self(u32::try_from(index).expect("id index overflow"))
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type! {
    /// Identifier of a reconfigurable node (the paper's `NodeNo`).
    NodeId
}
id_type! {
    /// Identifier of a processor configuration (the paper's `ConfigNo`).
    ConfigId
}
id_type! {
    /// Identifier of an application task (the paper's `TaskNo`).
    TaskId
}

/// Reference to one config-task-pair slot on a node: the unit the
/// per-configuration idle/busy lists link together. Ordered by
/// `(node, slot)` so entry sets can live in deterministic ordered
/// collections.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntryRef {
    /// The node holding the slot.
    pub node: NodeId,
    /// Index into the node's slot slab.
    pub slot: u32,
}

impl EntryRef {
    /// Convenience constructor.
    #[inline]
    #[must_use]
    pub fn new(node: NodeId, slot: u32) -> Self {
        Self { node, slot }
    }
}

impl std::fmt::Display for EntryRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.node, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_through_indices() {
        for i in [0usize, 1, 77, 1_000_000] {
            assert_eq!(NodeId::from_index(i).index(), i);
            assert_eq!(ConfigId::from_index(i).index(), i);
            assert_eq!(TaskId::from_index(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "id index overflow")]
    fn oversized_index_panics() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(TaskId(3));
        set.insert(TaskId(3));
        set.insert(TaskId(4));
        assert_eq!(set.len(), 2);
        assert!(TaskId(3) < TaskId(4));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(7).to_string(), "NodeId(7)");
        assert_eq!(EntryRef::new(NodeId(7), 2).to_string(), "NodeId(7)#2");
    }

    #[test]
    fn entry_ref_equality() {
        let a = EntryRef::new(NodeId(1), 0);
        let b = EntryRef::new(NodeId(1), 0);
        let c = EntryRef::new(NodeId(1), 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn serde_round_trip() {
        let r = EntryRef::new(NodeId(9), 4);
        let json = serde_json::to_string(&r).unwrap();
        let back: EntryRef = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
