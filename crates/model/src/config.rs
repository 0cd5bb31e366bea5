//! Processor configurations (Eq. 2):
//! `Cᵢ(ReqArea, Ptype, param, BSize, ConfigTime)`.
//!
//! A configuration is a synthesizable soft processor that can be
//! instantiated on any node with enough free reconfigurable area. `Ptype`
//! names the processor class (the paper's examples: multipliers, systolic
//! arrays, soft cores such as the parameterizable ρ-VEX VLIW, custom
//! signal processors); `param` carries its architectural parameters.

use crate::caps::Capabilities;
use crate::ids::{Area, ConfigId, Ticks};
use serde::{Deserialize, Serialize};

/// The processor class a configuration instantiates (the paper's
/// `Ptype`).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
#[derive(Default)]
pub enum ProcessorType {
    /// Hardware multiplier array.
    Multiplier {
        /// Operand width in bits.
        width_bits: u16,
    },
    /// Systolic array.
    SystolicArray {
        /// Grid rows.
        rows: u16,
        /// Grid columns.
        cols: u16,
    },
    /// Parameterizable soft-core VLIW in the style of ρ-VEX
    /// (Wong, van As & Brown, ICFPT 2008), the paper's running example.
    SoftCoreVliw {
        /// Issue width.
        issues: u8,
        /// Number of ALUs.
        alus: u8,
        /// Number of multiplier units.
        multipliers: u8,
        /// Number of memory slots.
        memory_slots: u8,
        /// Number of cluster cores.
        clusters: u8,
    },
    /// Custom-made signal processor.
    SignalProcessor {
        /// Number of filter taps.
        taps: u16,
    },
    /// Generic placeholder used by synthetic workloads that do not care
    /// about the processor class.
    #[default]
    Generic,
}

impl ProcessorType {
    /// A short stable label, used in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ProcessorType::Multiplier { .. } => "multiplier",
            ProcessorType::SystolicArray { .. } => "systolic-array",
            ProcessorType::SoftCoreVliw { .. } => "softcore-vliw",
            ProcessorType::SignalProcessor { .. } => "signal-processor",
            ProcessorType::Generic => "generic",
        }
    }
}

/// A named architectural parameter of a `Ptype`
/// (the paper's `param = {parameter₁, …, parameterₖ}`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name (e.g. "issues").
    pub name: String,
    /// Parameter value.
    pub value: i64,
}

/// A processor configuration (Eq. 2).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// This configuration's identifier (`ConfigNo`).
    pub id: ConfigId,
    /// Reconfigurable area the configuration occupies (`ReqArea`).
    pub req_area: Area,
    /// Processor class (`Ptype`).
    pub ptype: ProcessorType,
    /// Architectural parameter list (`param`).
    pub params: Vec<Param>,
    /// Bitstream file size in bytes (`BSize`).
    pub bitstream_bytes: u64,
    /// Time to configure a node region with this configuration, in
    /// timeticks (`ConfigTime`).
    pub config_time: Ticks,
    /// Capabilities the configuration requires from its host node.
    /// Empty in the paper's evaluation; richer policies may use it.
    pub required_caps: Capabilities,
}

impl Config {
    /// Construct a minimal configuration with the fields the evaluation
    /// exercises; `ptype` defaults to [`ProcessorType::Generic`], bitstream
    /// size is estimated from area (one kilobyte per area unit, a typical
    /// frame-per-slice scaling).
    #[must_use]
    pub fn new(id: ConfigId, req_area: Area, config_time: Ticks) -> Self {
        Self {
            id,
            req_area,
            ptype: ProcessorType::Generic,
            params: Vec::new(),
            // BOUND: req_area <= MAX_AREA = 2^24 (checked in parameters and
            // checkpoints), so the product stays below 2^34.
            bitstream_bytes: req_area * 1024,
            config_time,
            required_caps: Capabilities::none(),
        }
    }

    /// Builder-style override of the processor type.
    #[must_use]
    pub fn with_ptype(mut self, ptype: ProcessorType) -> Self {
        self.ptype = ptype;
        self
    }

    /// Builder-style override of the parameter list.
    #[must_use]
    pub fn with_params(mut self, params: Vec<Param>) -> Self {
        self.params = params;
        self
    }

    /// Builder-style override of the bitstream size.
    #[must_use]
    pub fn with_bitstream_bytes(mut self, bytes: u64) -> Self {
        self.bitstream_bytes = bytes;
        self
    }

    /// Builder-style override of required capabilities.
    #[must_use]
    pub fn with_required_caps(mut self, caps: Capabilities) -> Self {
        self.required_caps = caps;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caps::Capability;

    #[test]
    fn new_fills_defaults() {
        let c = Config::new(ConfigId(3), 500, 15);
        assert_eq!(c.id, ConfigId(3));
        assert_eq!(c.req_area, 500);
        assert_eq!(c.config_time, 15);
        assert_eq!(c.ptype, ProcessorType::Generic);
        assert_eq!(c.bitstream_bytes, 500 * 1024);
        assert!(c.params.is_empty());
        assert!(c.required_caps.is_empty());
    }

    #[test]
    fn builder_overrides() {
        let c = Config::new(ConfigId(0), 100, 10)
            .with_ptype(ProcessorType::SoftCoreVliw {
                issues: 4,
                alus: 4,
                multipliers: 2,
                memory_slots: 1,
                clusters: 1,
            })
            .with_params(vec![Param {
                name: "issues".into(),
                value: 4,
            }])
            .with_bitstream_bytes(4096)
            .with_required_caps([Capability::DspSlices].into_iter().collect());
        assert_eq!(c.ptype.label(), "softcore-vliw");
        assert_eq!(c.params.len(), 1);
        assert_eq!(c.bitstream_bytes, 4096);
        assert!(c.required_caps.contains(Capability::DspSlices));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            ProcessorType::Multiplier { width_bits: 32 }.label(),
            "multiplier"
        );
        assert_eq!(
            ProcessorType::SystolicArray { rows: 4, cols: 4 }.label(),
            "systolic-array"
        );
        assert_eq!(
            ProcessorType::SignalProcessor { taps: 64 }.label(),
            "signal-processor"
        );
        assert_eq!(ProcessorType::Generic.label(), "generic");
    }

    #[test]
    fn serde_round_trip() {
        let c = Config::new(ConfigId(9), 1234, 12);
        let js = serde_json::to_string(&c).unwrap();
        let back: Config = serde_json::from_str(&js).unwrap();
        assert_eq!(c, back);
    }
}
