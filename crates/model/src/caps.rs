//! Node capabilities and device families.
//!
//! The paper's node tuple carries `family` ("the group of compatible
//! nodes which share similar types of resources and performance") and
//! `caps` ("a list of different capabilities available on a node. For
//! example ... embedded memory, DSP slices, configuration bandwidth").
//! The case-study evaluation does not constrain placement by family or
//! capability, but the model carries them so richer policies can (and the
//! scheduler trait exposes them).

use serde::{Deserialize, Serialize};

/// A single hardware capability a reconfigurable node may offer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Capability {
    /// On-chip block RAM / embedded memory.
    EmbeddedMemory,
    /// Hard DSP slices.
    DspSlices,
    /// High-bandwidth configuration port (fast partial bitstream loads).
    ConfigBandwidth,
    /// Hard multiplier blocks.
    HardMultipliers,
    /// High-speed serial transceivers.
    Transceivers,
    /// External DDR memory interface.
    ExternalMemory,
    /// Partial-reconfiguration capable fabric region layout.
    PartialReconfig,
}

impl Capability {
    /// All capabilities, in declaration order (used when generating
    /// random capability sets).
    pub const ALL: [Capability; 7] = [
        Capability::EmbeddedMemory,
        Capability::DspSlices,
        Capability::ConfigBandwidth,
        Capability::HardMultipliers,
        Capability::Transceivers,
        Capability::ExternalMemory,
        Capability::PartialReconfig,
    ];

    fn bit(self) -> u8 {
        match self {
            Capability::EmbeddedMemory => 0,
            Capability::DspSlices => 1,
            Capability::ConfigBandwidth => 2,
            Capability::HardMultipliers => 3,
            Capability::Transceivers => 4,
            Capability::ExternalMemory => 5,
            Capability::PartialReconfig => 6,
        }
    }
}

/// A compact set of [`Capability`] flags. The order is that of the bit
/// patterns: arbitrary, but fixed, so a set can key a `BTreeMap`. Only
/// the seven capability bits are ever set, so a set is one of
/// [`Capabilities::SETS`] values and can index an array.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Capabilities(u8);

/// A set reads back from its bit pattern; a bit no capability owns is a
/// decode error.
impl Deserialize for Capabilities {
    fn read_json(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let bits = u8::read_json(r)?;
        Self::from_bits(bits).ok_or_else(|| {
            serde::Error::custom(format!("Capabilities: unknown capability bits in {bits}"))
        })
    }
}

impl Capabilities {
    /// The number of distinct sets, `2^7`: [`bits`](Self::bits) is
    /// always below it.
    pub const SETS: usize = 1 << Capability::ALL.len();

    /// The set's bit pattern, below [`SETS`](Self::SETS).
    #[must_use]
    pub fn bits(self) -> u8 {
        self.0
    }

    /// The set with bit pattern `bits`, or `None` if a bit no capability
    /// owns is set.
    #[must_use]
    pub fn from_bits(bits: u8) -> Option<Self> {
        (usize::from(bits) < Self::SETS).then_some(Self(bits))
    }

    /// The empty capability set.
    #[must_use]
    pub fn none() -> Self {
        Self(0)
    }

    /// A set containing every capability.
    #[must_use]
    pub fn all() -> Self {
        let mut s = Self(0);
        for c in Capability::ALL {
            s.insert(c);
        }
        s
    }

    /// Insert a capability.
    pub fn insert(&mut self, cap: Capability) {
        self.0 |= 1 << cap.bit();
    }

    /// Remove a capability.
    pub fn remove(&mut self, cap: Capability) {
        self.0 &= !(1 << cap.bit());
    }

    /// Whether the set contains `cap`.
    #[must_use]
    pub fn contains(self, cap: Capability) -> bool {
        self.0 & (1 << cap.bit()) != 0
    }

    /// Whether every capability in `other` is present in `self`.
    #[must_use]
    pub fn is_superset_of(self, other: Capabilities) -> bool {
        self.0 & other.0 == other.0
    }

    /// Number of capabilities present.
    #[must_use]
    pub fn len(self) -> usize {
        // BOUND: count_ones() of a word is at most 128.
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate over present capabilities in declaration order.
    pub fn iter(self) -> impl Iterator<Item = Capability> {
        Capability::ALL
            .into_iter()
            .filter(move |&c| self.contains(c))
    }
}

impl FromIterator<Capability> for Capabilities {
    fn from_iter<I: IntoIterator<Item = Capability>>(iter: I) -> Self {
        let mut s = Self::none();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// Device family: nodes in the same family accept the same bitstreams and
/// deliver comparable performance (the paper's `family` field).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DeviceFamily {
    /// Generic mid-range fabric (the default used by the evaluation,
    /// which does not differentiate families).
    #[default]
    Generic,
    /// Low-cost, small-area fabric.
    LowCost,
    /// High-density compute fabric.
    HighDensity,
    /// Fabric with hardened CPU cores alongside the programmable logic.
    HybridSoC,
}

impl DeviceFamily {
    /// All families, for random generation.
    pub const ALL: [DeviceFamily; 4] = [
        DeviceFamily::Generic,
        DeviceFamily::LowCost,
        DeviceFamily::HighDensity,
        DeviceFamily::HybridSoC,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full_sets() {
        let none = Capabilities::none();
        assert!(none.is_empty());
        assert_eq!(none.len(), 0);
        let all = Capabilities::all();
        assert_eq!(all.len(), Capability::ALL.len());
        for c in Capability::ALL {
            assert!(!none.contains(c));
            assert!(all.contains(c));
        }
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = Capabilities::none();
        s.insert(Capability::DspSlices);
        s.insert(Capability::EmbeddedMemory);
        assert!(s.contains(Capability::DspSlices));
        assert_eq!(s.len(), 2);
        s.remove(Capability::DspSlices);
        assert!(!s.contains(Capability::DspSlices));
        assert!(s.contains(Capability::EmbeddedMemory));
        // Removing an absent capability is a no-op.
        s.remove(Capability::Transceivers);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn superset_semantics() {
        let need: Capabilities = [Capability::DspSlices, Capability::EmbeddedMemory]
            .into_iter()
            .collect();
        let mut have = need;
        have.insert(Capability::ConfigBandwidth);
        assert!(have.is_superset_of(need));
        assert!(!need.is_superset_of(have));
        assert!(need.is_superset_of(Capabilities::none()));
    }

    #[test]
    fn iter_yields_inserted_caps() {
        let s: Capabilities = [Capability::Transceivers, Capability::PartialReconfig]
            .into_iter()
            .collect();
        let v: Vec<Capability> = s.iter().collect();
        assert_eq!(
            v,
            vec![Capability::Transceivers, Capability::PartialReconfig]
        );
    }

    #[test]
    fn idempotent_insert() {
        let mut s = Capabilities::none();
        s.insert(Capability::DspSlices);
        s.insert(Capability::DspSlices);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn family_default_is_generic() {
        assert_eq!(DeviceFamily::default(), DeviceFamily::Generic);
        assert_eq!(DeviceFamily::ALL.len(), 4);
    }
}
