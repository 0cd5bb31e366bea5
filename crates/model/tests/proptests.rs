//! Property tests for the resource-management substrate: arbitrary
//! operation sequences must never violate the structural invariants
//! (Eq. 4 area accounting, idle/busy list partition, no leaks).

use dreamsim_model::{
    Capabilities, Capability, Config, ConfigId, Demand, EntryRef, GapFit, Node, NodeId,
    ResourceManager, SearchBackend, StepCounter, TaskId,
};
use proptest::prelude::*;

/// An abstract operation to apply to the store.
#[derive(Clone, Debug)]
enum Op {
    /// Configure config `c % configs` on node `n % nodes` (may fail for
    /// lack of area; failure must be a clean no-op).
    Configure { n: usize, c: usize },
    /// Assign a fresh task to the `k`-th currently idle entry, if any.
    Assign { k: usize },
    /// Release the `k`-th currently busy entry, if any.
    Release { k: usize },
    /// Evict the `k`-th currently idle entry, if any.
    Evict { k: usize },
    /// Fail node `n % nodes`.
    Fail { n: usize },
    /// Repair node `n % nodes`.
    Repair { n: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..64, 0usize..64).prop_map(|(n, c)| Op::Configure { n, c }),
        3 => (0usize..64).prop_map(|k| Op::Assign { k }),
        3 => (0usize..64).prop_map(|k| Op::Release { k }),
        2 => (0usize..64).prop_map(|k| Op::Evict { k }),
        1 => (0usize..64).prop_map(|n| Op::Fail { n }),
        1 => (0usize..64).prop_map(|n| Op::Repair { n }),
    ]
}

fn build(nodes: usize, configs: usize) -> ResourceManager {
    let configs: Vec<Config> = (0..configs)
        .map(|i| Config::new(ConfigId::from_index(i), 100 + (i as u64 * 211) % 900, 10))
        .collect();
    let nodes: Vec<Node> = (0..nodes)
        .map(|i| Node::new(NodeId::from_index(i), 500 + (i as u64 * 307) % 2500, 1))
        .collect();
    ResourceManager::new(nodes, configs)
}

/// Like [`build`], but bit `i` of `strips` puts node `i` under
/// contiguous placement and bit `i` of `dsp` gives it DSP slices.
fn build_mixed(nodes: usize, configs: usize, strips: u16, dsp: u16) -> ResourceManager {
    let configs: Vec<Config> = (0..configs)
        .map(|i| Config::new(ConfigId::from_index(i), 100 + (i as u64 * 211) % 900, 10))
        .collect();
    let nodes: Vec<Node> = (0..nodes)
        .map(|i| {
            let mut n = Node::new(NodeId::from_index(i), 500 + (i as u64 * 307) % 2500, 1);
            if strips >> i & 1 == 1 {
                n = n.with_contiguous(GapFit::FirstFit);
            }
            if dsp >> i & 1 == 1 {
                let mut caps = Capabilities::none();
                caps.insert(Capability::DspSlices);
                n = n.with_caps(caps);
            }
            n
        })
        .collect();
    ResourceManager::new(nodes, configs)
}

/// Algorithm 1 as a plain walk over every slot of every node, against
/// the public `NodeRef` API: the answer and the scheduling steps it
/// charges (one per visited slot).
fn reference_any_idle_node(
    rm: &ResourceManager,
    demand: Demand,
) -> (Option<(NodeId, Vec<u32>)>, u64) {
    let mut steps = 0;
    for n in rm.nodes() {
        if n.down || !demand.caps_ok(n) {
            continue;
        }
        let mut accum = n.available_area();
        let mut evict = Vec::new();
        for (idx, slot) in n.slots() {
            steps += 1;
            if slot.task.is_none() {
                accum += slot.area;
                evict.push(idx);
                if accum >= demand.area && n.can_host_after_evicting(demand.area, &evict) {
                    return (Some((n.id, evict)), steps);
                }
            }
        }
    }
    (None, steps)
}

fn idle_entries(rm: &ResourceManager) -> Vec<EntryRef> {
    rm.nodes()
        .iter()
        .flat_map(|n| {
            n.slots()
                .filter(|(_, s)| s.task.is_none())
                .map(move |(i, _)| EntryRef::new(n.id, i))
        })
        .collect()
}

fn busy_entries(rm: &ResourceManager) -> Vec<EntryRef> {
    rm.nodes()
        .iter()
        .flat_map(|n| {
            n.slots()
                .filter(|(_, s)| s.task.is_some())
                .map(move |(i, _)| EntryRef::new(n.id, i))
        })
        .collect()
}

/// Apply one abstract op to a store. Both stores in the differential
/// test receive the identical sequence, so index-based entry picks
/// resolve to the same slots on each side.
fn apply(
    rm: &mut ResourceManager,
    op: &Op,
    steps: &mut StepCounter,
    next_task: &mut u32,
    nodes: usize,
    configs: usize,
) {
    match *op {
        Op::Configure { n, c } => {
            let node = NodeId::from_index(n % nodes);
            let config = ConfigId::from_index(c % configs);
            if !rm.node(node).down {
                let _ = rm.configure_slot(node, config, steps);
            }
        }
        Op::Assign { k } => {
            let idle = idle_entries(rm);
            if !idle.is_empty() {
                rm.assign_task(idle[k % idle.len()], TaskId(*next_task), steps)
                    .unwrap();
                *next_task += 1;
            }
        }
        Op::Release { k } => {
            let busy = busy_entries(rm);
            if !busy.is_empty() {
                rm.release_task(busy[k % busy.len()], steps).unwrap();
            }
        }
        Op::Evict { k } => {
            let idle = idle_entries(rm);
            if !idle.is_empty() {
                let e = idle[k % idle.len()];
                rm.evict_idle_slots(e.node, &[e.slot], steps).unwrap();
            }
        }
        Op::Fail { n } => {
            let _ = rm.fail_node(NodeId::from_index(n % nodes), steps);
        }
        Op::Repair { n } => {
            rm.repair_node(NodeId::from_index(n % nodes));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn invariants_survive_arbitrary_op_sequences(
        nodes in 1usize..12,
        configs in 1usize..8,
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let mut rm = build(nodes, configs);
        let mut steps = StepCounter::new();
        let mut next_task = 0u32;
        for op in ops {
            match op {
                Op::Configure { n, c } => {
                    let node = NodeId::from_index(n % nodes);
                    let config = ConfigId::from_index(c % configs);
                    if !rm.node(node).down {
                        let _ = rm.configure_slot(node, config, &mut steps);
                    }
                }
                Op::Assign { k } => {
                    let idle = idle_entries(&rm);
                    if !idle.is_empty() {
                        let e = idle[k % idle.len()];
                        rm.assign_task(e, TaskId(next_task), &mut steps).unwrap();
                        next_task += 1;
                    }
                }
                Op::Release { k } => {
                    let busy = busy_entries(&rm);
                    if !busy.is_empty() {
                        let e = busy[k % busy.len()];
                        rm.release_task(e, &mut steps).unwrap();
                    }
                }
                Op::Evict { k } => {
                    let idle = idle_entries(&rm);
                    if !idle.is_empty() {
                        let e = idle[k % idle.len()];
                        rm.evict_idle_slots(e.node, &[e.slot], &mut steps).unwrap();
                    }
                }
                Op::Fail { n } => {
                    let node = NodeId::from_index(n % nodes);
                    let _ = rm.fail_node(node, &mut steps);
                }
                Op::Repair { n } => {
                    rm.repair_node(NodeId::from_index(n % nodes));
                }
            }
            if let Err(e) = rm.check_invariants() {
                prop_assert!(false, "invariant violated after {op:?}: {e}");
            }
        }
    }

    /// Failed configure (insufficient area) must leave everything
    /// untouched, including the reconfiguration counter.
    #[test]
    fn failed_configure_is_a_clean_noop(extra in 1u64..10_000) {
        let configs = vec![Config::new(ConfigId(0), 1_000 + extra, 10)];
        let nodes = vec![Node::new(NodeId(0), 1_000, 1)];
        let mut rm = ResourceManager::new(nodes, configs);
        let mut steps = StepCounter::new();
        let before_steps = steps;
        let r = rm.configure_slot(NodeId(0), ConfigId(0), &mut steps);
        prop_assert!(r.is_err());
        prop_assert_eq!(rm.node(NodeId(0)).reconfig_count, 0);
        prop_assert_eq!(rm.node(NodeId(0)).available_area(), 1_000);
        prop_assert_eq!(steps.housekeeping, before_steps.housekeeping);
        rm.check_invariants().unwrap();
    }

    /// Search results agree between the list-based and naive paths on
    /// arbitrary store states (same node; ties may differ in slot).
    #[test]
    fn naive_and_list_search_agree(
        nodes in 1usize..10,
        configs in 1usize..6,
        ops in prop::collection::vec(arb_op(), 0..60),
        probe in 0usize..6,
    ) {
        let mut rm = build(nodes, configs);
        let mut steps = StepCounter::new();
        let mut next_task = 0u32;
        for op in ops {
            match op {
                Op::Configure { n, c } => {
                    let node = NodeId::from_index(n % nodes);
                    if !rm.node(node).down {
                        let _ = rm.configure_slot(node, ConfigId::from_index(c % configs), &mut steps);
                    }
                }
                Op::Assign { k } => {
                    let idle = idle_entries(&rm);
                    if !idle.is_empty() {
                        rm.assign_task(idle[k % idle.len()], TaskId(next_task), &mut steps).unwrap();
                        next_task += 1;
                    }
                }
                _ => {}
            }
        }
        let config = ConfigId::from_index(probe % configs);
        let via_list = rm.find_best_idle(config, &mut steps);
        let via_scan = dreamsim_model::naive::find_best_idle_naive(&rm, config, &mut steps);
        match (via_list, via_scan) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert_eq!(
                    rm.node(a.node).available_area(),
                    rm.node(b.node).available_area(),
                    "best-fit quality must agree"
                );
            }
            other => prop_assert!(false, "presence disagrees: {other:?}"),
        }
    }

    /// The incremental index equals a from-scratch rebuild after every
    /// single mutation, every query answers exactly like the linear
    /// walk, and both backends charge identical model step counts.
    #[test]
    fn indexed_backend_tracks_linear_through_arbitrary_ops(
        nodes in 1usize..12,
        configs in 1usize..8,
        ops in prop::collection::vec(arb_op(), 1..120),
        probe_cfg in 0usize..8,
        probe_area in 1u64..4_000,
    ) {
        let mut lin = build(nodes, configs);
        let mut idx = build(nodes, configs);
        idx.set_search_backend(SearchBackend::Indexed);
        let mut lin_steps = StepCounter::new();
        let mut idx_steps = StepCounter::new();
        let mut lin_task = 0u32;
        let mut idx_task = 0u32;
        let probe = ConfigId::from_index(probe_cfg % configs);
        let demand = Demand::area(probe_area);
        for op in &ops {
            apply(&mut lin, op, &mut lin_steps, &mut lin_task, nodes, configs);
            apply(&mut idx, op, &mut idx_steps, &mut idx_task, nodes, configs);
            // Structural health first: list/area invariants on both
            // sides, and the live index vs a from-scratch rebuild
            // (membership *and* tie-break order, via IndexSnapshot).
            if let Err(e) = lin.check_invariants() {
                prop_assert!(false, "linear invariant after {op:?}: {e}");
            }
            if let Err(e) = idx.check_invariants() {
                prop_assert!(false, "indexed invariant after {op:?}: {e}");
            }
            let live = idx.search_index_snapshot();
            let rebuilt = idx.rebuilt_index_snapshot();
            prop_assert_eq!(live, Some(rebuilt), "index != rebuild after {:?}", op);
            // Every search path answers identically and charges the
            // same model steps.
            prop_assert_eq!(
                lin.find_closest_config(probe_area, &mut lin_steps),
                idx.find_closest_config(probe_area, &mut idx_steps)
            );
            prop_assert_eq!(
                lin.find_best_idle(probe, &mut lin_steps),
                idx.find_best_idle(probe, &mut idx_steps)
            );
            prop_assert_eq!(
                lin.find_worst_idle(probe, &mut lin_steps),
                idx.find_worst_idle(probe, &mut idx_steps)
            );
            prop_assert_eq!(
                lin.find_first_idle(probe, &mut lin_steps),
                idx.find_first_idle(probe, &mut idx_steps)
            );
            prop_assert_eq!(
                lin.find_best_blank(demand, &mut lin_steps),
                idx.find_best_blank(demand, &mut idx_steps)
            );
            prop_assert_eq!(
                lin.find_best_partially_blank(demand, &mut lin_steps),
                idx.find_best_partially_blank(demand, &mut idx_steps)
            );
            prop_assert_eq!(
                lin.busy_candidate_exists(demand, &mut lin_steps),
                idx.busy_candidate_exists(demand, &mut idx_steps)
            );
            prop_assert_eq!(lin_steps.scheduling, idx_steps.scheduling,
                "scheduling steps diverged after {:?}", op);
            prop_assert_eq!(lin_steps.housekeeping, idx_steps.housekeeping,
                "housekeeping steps diverged after {:?}", op);
        }
    }

    /// `find_any_idle_node`, which answers hopeless nodes from the busy
    /// area without walking them, returns what the plain walk returns
    /// and charges the same steps, after every op, on stores mixing
    /// scalar and strip nodes, with and without a capability demand.
    /// Besides a random area, each node's exact reclaimable area
    /// (`TotalArea` minus busy slots) is probed, the boundary of the
    /// shortcut.
    #[test]
    fn algorithm_one_matches_the_plain_walk(
        nodes in 1usize..12,
        configs in 1usize..8,
        strips in any::<u16>(),
        dsp in any::<u16>(),
        indexed in any::<bool>(),
        ops in prop::collection::vec(arb_op(), 1..120),
        probe_area in 1u64..4_000,
    ) {
        let mut rm = build_mixed(nodes, configs, strips, dsp);
        if indexed {
            rm.set_search_backend(SearchBackend::Indexed);
        }
        let mut steps = StepCounter::new();
        let mut next_task = 0u32;
        let mut dsp_caps = Capabilities::none();
        dsp_caps.insert(Capability::DspSlices);
        for op in &ops {
            apply(&mut rm, op, &mut steps, &mut next_task, nodes, configs);
            if let Err(e) = rm.check_invariants() {
                prop_assert!(false, "invariant violated after {op:?}: {e}");
            }
            let reclaimable = rm.nodes().map(|n| {
                let busy: u64 = n.slots().filter(|(_, s)| s.task.is_some()).map(|(_, s)| s.area).sum();
                n.total_area - busy
            });
            for area in reclaimable.chain([probe_area]) {
                for caps in [Capabilities::none(), dsp_caps] {
                    let demand = Demand { area, caps };
                    let (want, want_steps) = reference_any_idle_node(&rm, demand);
                    let before = steps.scheduling;
                    let got = rm.find_any_idle_node(demand, &mut steps);
                    prop_assert_eq!(&got, &want, "answer for {:?} after {:?}", demand, op);
                    prop_assert_eq!(steps.scheduling - before, want_steps,
                        "steps for {:?} after {:?}", demand, op);
                }
            }
        }
    }

    /// Eq. 6 snapshot equals the hand-computed sum on arbitrary states.
    #[test]
    fn wasted_area_snapshot_matches_definition(
        nodes in 1usize..10,
        configs in 1usize..6,
        ops in prop::collection::vec(arb_op(), 0..80),
    ) {
        let mut rm = build(nodes, configs);
        let mut steps = StepCounter::new();
        let mut next_task = 0u32;
        for op in ops {
            match op {
                Op::Configure { n, c } => {
                    let node = NodeId::from_index(n % nodes);
                    if !rm.node(node).down {
                        let _ = rm.configure_slot(node, ConfigId::from_index(c % configs), &mut steps);
                    }
                }
                Op::Assign { k } => {
                    let idle = idle_entries(&rm);
                    if !idle.is_empty() {
                        rm.assign_task(idle[k % idle.len()], TaskId(next_task), &mut steps).unwrap();
                        next_task += 1;
                    }
                }
                Op::Evict { k } => {
                    let idle = idle_entries(&rm);
                    if !idle.is_empty() {
                        let e = idle[k % idle.len()];
                        rm.evict_idle_slots(e.node, &[e.slot], &mut steps).unwrap();
                    }
                }
                _ => {}
            }
        }
        let expected: u64 = rm
            .nodes()
            .iter()
            .filter(|n| !n.is_blank())
            .map(|n| n.available_area())
            .sum();
        prop_assert_eq!(rm.wasted_area_snapshot(), expected);
    }
}
