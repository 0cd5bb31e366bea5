//! Property tests for the resource-management substrate: arbitrary
//! operation sequences must never violate the structural invariants
//! (Eq. 4 area accounting, idle/busy list partition, no leaks).

use dreamsim_model::lists::ListKind;
use dreamsim_model::{
    Capabilities, Capability, Config, ConfigId, Demand, EntryRef, Node, NodeId, NodeState,
    PreferredConfig, ResourceManager, StepCounter, TaskId,
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
                n = n.with_contiguous();
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
/// the public `NodeStore` read API: the answer and the scheduling steps
/// it charges (one per visited slot).
fn reference_any_idle_node(
    rm: &ResourceManager,
    demand: Demand,
) -> (Option<(NodeId, Vec<u32>)>, u64) {
    let nodes = rm.node_store();
    let mut steps = 0;
    for i in 0..nodes.len() {
        if nodes.is_down(i) || !demand.caps_ok(nodes.caps(i)) {
            continue;
        }
        let mut accum = nodes.available_area(i);
        let mut evict = Vec::new();
        for (idx, slot) in nodes.slots(i) {
            steps += 1;
            if slot.task.is_none() {
                accum += slot.area;
                evict.push(idx);
                if accum >= demand.area && nodes.can_host_after_evicting(i, demand.area, &evict) {
                    return (Some((NodeId::from_index(i), evict)), steps);
                }
            }
        }
    }
    (None, steps)
}

/// `FindPreferredConfig` as a plain scan of the configuration table:
/// the answer and the steps it charges.
fn reference_preferred_config(
    rm: &ResourceManager,
    pref: PreferredConfig,
) -> (Option<ConfigId>, u64) {
    let mut steps = 0;
    for c in rm.configs() {
        steps += 1;
        if pref == PreferredConfig::Known(c.id) {
            return (Some(c.id), steps);
        }
    }
    (None, steps)
}

/// `FindClosestConfig` as a plain scan: the smallest configuration
/// strictly larger than `area`, lowest id first.
fn reference_closest_config(rm: &ResourceManager, area: u64) -> (Option<ConfigId>, u64) {
    let mut best: Option<&Config> = None;
    for c in rm.configs() {
        if c.req_area > area && best.is_none_or(|b| c.req_area < b.req_area) {
            best = Some(c);
        }
    }
    (best.map(|c| c.id), rm.configs().len() as u64)
}

/// The idle list of `config`, head first.
fn idle_list(rm: &ResourceManager, config: ConfigId) -> Vec<EntryRef> {
    rm.lists().iter(ListKind::Idle, config).collect()
}

/// Best fit (or worst fit) as a walk of the idle list from its head,
/// keeping the first entry with the strictly smallest (largest)
/// available area.
fn reference_fit(rm: &ResourceManager, config: ConfigId, worst: bool) -> (Option<EntryRef>, u64) {
    let list = idle_list(rm, config);
    let mut best: Option<(u64, EntryRef)> = None;
    for &e in &list {
        let avail = rm.node_store().available_area(e.node.index());
        let better = match best {
            None => true,
            Some((b, _)) if worst => avail > b,
            Some((b, _)) => avail < b,
        };
        if better {
            best = Some((avail, e));
        }
    }
    (best.map(|(_, e)| e), list.len() as u64)
}

/// The configuration (blank) or partial-configuration (configured)
/// phase as a scan of the node table: the eligible node with the
/// smallest `TotalArea` (blank) or `AvailableArea` (configured).
fn reference_best_node(rm: &ResourceManager, demand: Demand, blank: bool) -> (Option<NodeId>, u64) {
    let nodes = rm.node_store();
    let mut best: Option<(u64, NodeId)> = None;
    for i in 0..nodes.len() {
        if !nodes.is_down(i)
            && nodes.is_blank(i) == blank
            && demand.caps_ok(nodes.caps(i))
            && nodes.can_host(i, demand.area)
        {
            let key = if blank {
                nodes.total_area(i)
            } else {
                nodes.available_area(i)
            };
            if best.is_none_or(|(b, _)| key < b) {
                best = Some((key, NodeId::from_index(i)));
            }
        }
    }
    (best.map(|(_, id)| id), rm.num_nodes() as u64)
}

/// "Query busy list for potential candidate" as an early-exit scan.
fn reference_busy_candidate(rm: &ResourceManager, demand: Demand) -> (bool, u64) {
    let nodes = rm.node_store();
    let mut steps = 0;
    for i in 0..nodes.len() {
        steps += 1;
        if !nodes.is_down(i)
            && nodes.state(i) == NodeState::Busy
            && demand.caps_ok(nodes.caps(i))
            && nodes.total_area(i) >= demand.area
        {
            return (true, steps);
        }
    }
    (false, steps)
}

/// Every live slot whose occupancy is `busy`, in node then slab order.
fn entries(rm: &ResourceManager, busy: bool) -> Vec<EntryRef> {
    let nodes = rm.node_store();
    (0..nodes.len())
        .flat_map(|i| {
            nodes
                .slots(i)
                .filter(move |(_, s)| s.task.is_some() == busy)
                .map(move |(slot, _)| EntryRef::new(NodeId::from_index(i), slot))
        })
        .collect()
}

fn idle_entries(rm: &ResourceManager) -> Vec<EntryRef> {
    entries(rm, false)
}

fn busy_entries(rm: &ResourceManager) -> Vec<EntryRef> {
    entries(rm, true)
}

/// Apply one abstract op to a store.
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
            if !rm.node_store().is_down(node.index()) {
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
                    if !rm.node_store().is_down(node.index()) {
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
        prop_assert_eq!(rm.node_store().reconfig_count(0), 0);
        prop_assert_eq!(rm.node_store().available_area(0), 1_000);
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
                    if !rm.node_store().is_down(node.index()) {
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
                    rm.node_store().available_area(a.node.index()),
                    rm.node_store().available_area(b.node.index()),
                    "best-fit quality must agree"
                );
            }
            other => prop_assert!(false, "presence disagrees: {other:?}"),
        }
    }

    /// The incremental index equals a from-scratch rebuild after every
    /// single mutation, and every search answers exactly like the plain
    /// scan of the paper and charges the steps that scan charges — on
    /// stores mixing scalar and strip nodes, with and without a DSP
    /// capability demand, through failures and repairs.
    #[test]
    fn index_answers_like_the_plain_scans_through_arbitrary_ops(
        nodes in 1usize..12,
        configs in 1usize..8,
        strips in any::<u16>(),
        dsp in any::<u16>(),
        ops in prop::collection::vec(arb_op(), 1..120),
        probe_cfg in 0usize..9,
        probe_area in 1u64..4_000,
    ) {
        let mut rm = build_mixed(nodes, configs, strips, dsp);
        let mut steps = StepCounter::new();
        let mut next_task = 0u32;
        // One past the table: a known id the table does not hold.
        let probe = ConfigId::from_index(probe_cfg % (configs + 1));
        let mut dsp_caps = Capabilities::none();
        dsp_caps.insert(Capability::DspSlices);
        for op in &ops {
            apply(&mut rm, op, &mut steps, &mut next_task, nodes, configs);
            // Structural health first: list/area invariants, and the
            // live index vs a from-scratch rebuild (membership *and*
            // tie-break order, via IndexSnapshot).
            if let Err(e) = rm.check_invariants() {
                prop_assert!(false, "invariant violated after {op:?}: {e}");
            }
            prop_assert_eq!(rm.search_index_snapshot(), rm.rebuilt_index_snapshot(),
                "index != rebuild after {:?}", op);
            // Each search against its reference, answer and steps.
            macro_rules! same {
                ($got:expr, $want:expr, $what:expr) => {{
                    let (want, want_steps) = $want;
                    let before = steps.scheduling;
                    let got = $got;
                    prop_assert_eq!(&got, &want, "{} after {:?}", $what, op);
                    prop_assert_eq!(steps.scheduling - before, want_steps,
                        "steps of {} after {:?}", $what, op);
                }};
            }
            for pref in [PreferredConfig::Known(probe), PreferredConfig::Phantom { area: probe_area }] {
                same!(rm.find_preferred_config(pref, &mut steps),
                    reference_preferred_config(&rm, pref), "preferred config");
            }
            same!(rm.find_closest_config(probe_area, &mut steps),
                reference_closest_config(&rm, probe_area), "closest config");
            if probe.index() < configs {
                same!(rm.find_best_idle(probe, &mut steps),
                    reference_fit(&rm, probe, false), "best fit");
                same!(rm.find_worst_idle(probe, &mut steps),
                    reference_fit(&rm, probe, true), "worst fit");
                let list = idle_list(&rm, probe);
                same!(rm.find_first_idle(probe, &mut steps),
                    (list.first().copied(), u64::from(!list.is_empty())), "first fit");
                same!(rm.collect_idle(probe, &mut steps),
                    (list.clone(), list.len() as u64), "collect idle");
            }
            for caps in [Capabilities::none(), dsp_caps] {
                let demand = Demand { area: probe_area, caps };
                same!(rm.find_best_blank(demand, &mut steps),
                    reference_best_node(&rm, demand, true), "best blank");
                same!(rm.find_best_partially_blank(demand, &mut steps),
                    reference_best_node(&rm, demand, false), "best partially blank");
                same!(rm.busy_candidate_exists(demand, &mut steps),
                    reference_busy_candidate(&rm, demand), "busy candidate");
            }
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
        ops in prop::collection::vec(arb_op(), 1..120),
        probe_area in 1u64..4_000,
    ) {
        let mut rm = build_mixed(nodes, configs, strips, dsp);
        let mut steps = StepCounter::new();
        let mut next_task = 0u32;
        let mut dsp_caps = Capabilities::none();
        dsp_caps.insert(Capability::DspSlices);
        for op in &ops {
            apply(&mut rm, op, &mut steps, &mut next_task, nodes, configs);
            if let Err(e) = rm.check_invariants() {
                prop_assert!(false, "invariant violated after {op:?}: {e}");
            }
            let store = rm.node_store();
            let reclaimable = (0..store.len()).map(|i| {
                let busy: u64 = store.slots(i).filter(|(_, s)| s.task.is_some()).map(|(_, s)| s.area).sum();
                store.total_area(i) - busy
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

    /// A store read back from its checkpoint form is the store written,
    /// on stores mixing scalar and strip nodes, with and without DSP
    /// slices, after arbitrary operations including failures and
    /// repairs: the copy passes the invariants, iterates every list
    /// identically, has an equal index snapshot and re-serializes to the
    /// same bytes. Further operations applied to both keep them equal,
    /// which pins the push sequences the read-back store re-stamps.
    #[test]
    fn serde_round_trip_preserves_the_store(
        nodes in 1usize..12,
        configs in 1usize..8,
        strips in any::<u16>(),
        dsp in any::<u16>(),
        ops in prop::collection::vec(arb_op(), 0..120),
        more in prop::collection::vec(arb_op(), 0..40),
    ) {
        let mut rm = build_mixed(nodes, configs, strips, dsp);
        let mut steps = StepCounter::new();
        let mut next_task = 0u32;
        for op in &ops {
            apply(&mut rm, op, &mut steps, &mut next_task, nodes, configs);
        }
        let json = serde_json::to_string(&rm).unwrap();
        let mut back: ResourceManager = serde_json::from_str(&json).unwrap();
        if let Err(e) = back.check_invariants() {
            prop_assert!(false, "read-back store: {e}");
        }
        for c in (0..configs).map(ConfigId::from_index) {
            for kind in [ListKind::Idle, ListKind::Busy] {
                prop_assert_eq!(
                    back.lists().iter(kind, c).collect::<Vec<_>>(),
                    rm.lists().iter(kind, c).collect::<Vec<_>>(),
                    "{:?} list of {}", kind, c
                );
            }
        }
        prop_assert_eq!(back.search_index_snapshot(), rm.search_index_snapshot());
        prop_assert_eq!(&serde_json::to_string(&back).unwrap(), &json);
        let mut back_steps = steps;
        let mut back_next = next_task;
        for op in &more {
            apply(&mut rm, op, &mut steps, &mut next_task, nodes, configs);
            apply(&mut back, op, &mut back_steps, &mut back_next, nodes, configs);
            if let Err(e) = back.check_invariants() {
                prop_assert!(false, "read-back store after {op:?}: {e}");
            }
        }
        prop_assert_eq!(steps, back_steps);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&rm).unwrap());
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
                    if !rm.node_store().is_down(node.index()) {
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
        let store = rm.node_store();
        let expected: u64 = (0..store.len())
            .filter(|&i| !store.is_blank(i))
            .map(|i| store.available_area(i))
            .sum();
        prop_assert_eq!(rm.wasted_area_snapshot(), expected);
    }
}
