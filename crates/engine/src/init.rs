//! Resource generation (the user-defined resource specification module
//! of the input subsystem): `InitNodes()` and `InitConfigs()`.
//!
//! Nodes receive a `TotalArea` uniformly from the node-area range and a
//! network delay from the network-delay range; configurations receive a
//! `ReqArea` and `ConfigTime` from their ranges (Table II). For workload
//! realism the generator also assigns processor types, parameters, device
//! families, and capability sets, none of which constrain the paper's
//! case-study scheduler.

use crate::params::SimParams;
use dreamsim_model::caps::{Capabilities, Capability, DeviceFamily};
use dreamsim_model::config::{Config, Param, ProcessorType};
use dreamsim_model::{ConfigId, Node, NodeId};
use dreamsim_rng::Rng;

/// Generate the configuration list (`InitConfigs()`).
#[must_use]
pub fn generate_configs(params: &SimParams, rng: &mut Rng) -> Vec<Config> {
    (0..params.total_configs)
        .map(|i| {
            let req_area = rng.uniform_inclusive(params.config_area.lo, params.config_area.hi);
            let config_time = rng.uniform_inclusive(params.config_time.lo, params.config_time.hi);
            let (ptype, cfg_params) = random_ptype(rng);
            // Capability-constraint extension: each configuration may
            // demand hardware features of its host (never the
            // PartialReconfig pseudo-capability, which every node has).
            let mut required = Capabilities::none();
            if params.capability_requirement_prob > 0.0 {
                for c in Capability::ALL {
                    if c != Capability::PartialReconfig
                        && rng.bernoulli(params.capability_requirement_prob)
                    {
                        required.insert(c);
                    }
                }
            }
            Config::new(ConfigId::from_index(i), req_area, config_time)
                .with_ptype(ptype)
                .with_params(cfg_params)
                .with_required_caps(required)
        })
        .collect()
}

/// Generate the node table (`InitNodes()`).
#[must_use]
pub fn generate_nodes(params: &SimParams, rng: &mut Rng) -> Vec<Node> {
    (0..params.total_nodes)
        .map(|i| {
            let total_area = rng.uniform_inclusive(params.node_area.lo, params.node_area.hi);
            let delay = rng.uniform_inclusive(params.network_delay.lo, params.network_delay.hi);
            let family = DeviceFamily::ALL[rng.index(DeviceFamily::ALL.len())];
            let mut caps = Capabilities::none();
            for c in Capability::ALL {
                if rng.bernoulli(0.5) {
                    caps.insert(c);
                }
            }
            // Every node in the partial-reconfiguration experiments can
            // partially reconfigure.
            caps.insert(Capability::PartialReconfig);
            let node = Node::new(NodeId::from_index(i), total_area, delay)
                .with_family(family)
                .with_caps(caps);
            match params.placement {
                crate::params::PlacementModel::Scalar => node,
                crate::params::PlacementModel::Contiguous => node.with_contiguous(),
            }
        })
        .collect()
}

/// Draw a random processor type with plausible parameters (the paper's
/// `Ptype` examples: multipliers, systolic arrays, soft-core processors
/// such as ρ-VEX, custom signal processors).
fn random_ptype(rng: &mut Rng) -> (ProcessorType, Vec<Param>) {
    match rng.index(4) {
        0 => {
            let width = [16u16, 32, 64][rng.index(3)];
            (
                ProcessorType::Multiplier { width_bits: width },
                vec![Param {
                    name: "width_bits".into(),
                    value: i64::from(width),
                }],
            )
        }
        1 => {
            // BOUND: uniform_below(7) < 7; both draws fit u16.
            let rows = 2 + rng.uniform_below(7) as u16;
            // BOUND: uniform_below(7) < 7, fits u16.
            let cols = 2 + rng.uniform_below(7) as u16;
            (
                ProcessorType::SystolicArray { rows, cols },
                vec![
                    Param {
                        name: "rows".into(),
                        value: i64::from(rows),
                    },
                    Param {
                        name: "cols".into(),
                        value: i64::from(cols),
                    },
                ],
            )
        }
        2 => {
            // ρ-VEX-style VLIW parameterization.
            let issues = [1u8, 2, 4, 8][rng.index(4)];
            let alus = issues;
            let multipliers = (issues / 2).max(1);
            let memory_slots = (issues / 2).max(1);
            let clusters = [1u8, 2][rng.index(2)];
            (
                ProcessorType::SoftCoreVliw {
                    issues,
                    alus,
                    multipliers,
                    memory_slots,
                    clusters,
                },
                vec![
                    Param {
                        name: "issues".into(),
                        value: i64::from(issues),
                    },
                    Param {
                        name: "clusters".into(),
                        value: i64::from(clusters),
                    },
                ],
            )
        }
        _ => {
            // BOUND: uniform_below(16) < 16; 8 + 8*15 fits u16.
            let taps = 8 + 8 * rng.uniform_below(16) as u16;
            (
                ProcessorType::SignalProcessor { taps },
                vec![Param {
                    name: "taps".into(),
                    value: i64::from(taps),
                }],
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ReconfigMode;

    fn params() -> SimParams {
        SimParams::paper(200, 1000, ReconfigMode::Partial)
    }

    #[test]
    fn configs_respect_table_ii_ranges() {
        let p = params();
        let mut rng = Rng::seed_from(1);
        let configs = generate_configs(&p, &mut rng);
        assert_eq!(configs.len(), 50);
        for (i, c) in configs.iter().enumerate() {
            assert_eq!(c.id.index(), i, "ids dense and ordered");
            assert!(p.config_area.contains(c.req_area), "area {}", c.req_area);
            assert!(p.config_time.contains(c.config_time));
        }
    }

    #[test]
    fn nodes_respect_table_ii_ranges() {
        let p = params();
        let mut rng = Rng::seed_from(2);
        let nodes = generate_nodes(&p, &mut rng);
        assert_eq!(nodes.len(), 200);
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id.index(), i);
            assert!(p.node_area.contains(n.total_area));
            assert!(p.network_delay.contains(n.network_delay));
            assert!(n.caps.contains(Capability::PartialReconfig));
        }
        let store = dreamsim_model::NodeStore::from_nodes(nodes).unwrap();
        for i in 0..store.len() {
            assert!(store.is_blank(i));
            assert_eq!(store.available_area(i), store.total_area(i));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = params();
        let mut a = Rng::seed_from(42);
        let mut b = Rng::seed_from(42);
        assert_eq!(generate_configs(&p, &mut a), generate_configs(&p, &mut b));
        assert_eq!(generate_nodes(&p, &mut a), generate_nodes(&p, &mut b));
    }

    #[test]
    fn ptype_variety_appears() {
        let p = params();
        let mut rng = Rng::seed_from(3);
        let configs = generate_configs(&p, &mut rng);
        let labels: std::collections::HashSet<&str> =
            configs.iter().map(|c| c.ptype.label()).collect();
        assert!(
            labels.len() >= 3,
            "expected several Ptype classes, got {labels:?}"
        );
    }

    #[test]
    fn degenerate_single_point_ranges() {
        let mut p = params();
        p.config_area = crate::params::Range::new(500, 500);
        p.config_time = crate::params::Range::new(12, 12);
        let mut rng = Rng::seed_from(4);
        for c in generate_configs(&p, &mut rng) {
            assert_eq!(c.req_area, 500);
            assert_eq!(c.config_time, 12);
        }
    }
}
