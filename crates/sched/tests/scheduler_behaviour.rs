//! Behavioural tests of the case-study scheduler against hand-built
//! resource states: each Fig. 5 phase is exercised in isolation through
//! a minimal driver harness.

use dreamsim_engine::sim::{
    Decision, DiscardReason, Placement, Resume, SchedCtx, SchedulePolicy, SourceYield, TaskSource,
    TaskSpec,
};
use dreamsim_engine::{PhaseKind, ReconfigMode, SimParams, Simulation};
use dreamsim_model::{Capabilities, Capability, Config, EntryRef, Node, NodeId};
use dreamsim_model::{
    ConfigId, PreferredConfig, ResourceManager, StepCounter, SuspensionQueue, TaskId, TaskTable,
    Ticks,
};
use dreamsim_rng::Rng;
use dreamsim_sched::CaseStudyScheduler;

/// Hand-built scheduling context for direct policy unit tests.
struct Harness {
    resources: ResourceManager,
    suspension: SuspensionQueue,
    tasks: TaskTable,
    steps: StepCounter,
    rng: Rng,
    mode: ReconfigMode,
}

impl Harness {
    fn new(mode: ReconfigMode, configs: &[(u32, u64, u64)], nodes: &[u64]) -> Self {
        let configs: Vec<Config> = configs
            .iter()
            .map(|&(id, area, ct)| Config::new(ConfigId(id), area, ct))
            .collect();
        let nodes: Vec<Node> = nodes
            .iter()
            .enumerate()
            .map(|(i, &a)| Node::new(NodeId::from_index(i), a, 2))
            .collect();
        Self::with_parts(mode, configs, nodes)
    }

    /// A harness over prebuilt configurations and nodes, for tests that
    /// set capabilities.
    fn with_parts(mode: ReconfigMode, configs: Vec<Config>, nodes: Vec<Node>) -> Self {
        Self {
            resources: ResourceManager::new(nodes, configs),
            suspension: SuspensionQueue::new(),
            tasks: TaskTable::new(),
            steps: StepCounter::new(),
            rng: Rng::seed_from(1),
            mode,
        }
    }

    fn add_task(&mut self, pref: PreferredConfig, needed_area: u64) -> TaskId {
        self.tasks.create(0, 100, pref, needed_area, 0).unwrap()
    }

    /// Park a task whose configuration already resolved to `config`,
    /// as `schedule` leaves it after a suspension.
    fn suspend(&mut self, config: ConfigId) -> TaskId {
        let area = self.resources.config(config).req_area;
        let t = self.add_task(PreferredConfig::Known(config), area);
        self.tasks.set_resolved_config(t, Some(config));
        self.suspension.push(t, Some(config), &mut self.steps);
        t
    }

    /// Configure an idle slot of `config` on `node`.
    fn idle_slot(&mut self, node: NodeId, config: ConfigId) -> EntryRef {
        self.resources
            .configure_slot(node, config, &mut self.steps)
            .unwrap()
    }

    /// Configure a slot of `config` on `node` and start a task on it.
    fn busy_slot(&mut self, node: NodeId, config: ConfigId) {
        let e = self.idle_slot(node, config);
        self.resources
            .assign_task(e, TaskId(99), &mut self.steps)
            .unwrap();
    }

    fn ctx(&mut self) -> SchedCtx<'_> {
        SchedCtx {
            now: 0,
            mode: self.mode,
            suspension_enabled: true,
            max_sus_retries: None,
            resources: &mut self.resources,
            suspension: &mut self.suspension,
            tasks: &mut self.tasks,
            steps: &mut self.steps,
            rng: &mut self.rng,
        }
    }

    fn schedule(&mut self, policy: &mut CaseStudyScheduler, task: TaskId) -> Decision {
        policy.schedule(&mut self.ctx(), task)
    }

    /// The completion hook: offer the idle slot `freed` to the queue.
    fn on_slot_freed(&mut self, policy: &mut CaseStudyScheduler, freed: EntryRef) -> Vec<Resume> {
        policy.on_slot_freed(&mut self.ctx(), freed)
    }

    fn queued(&self) -> Vec<TaskId> {
        self.suspension.iter().collect()
    }

    fn sus_retries(&self, tasks: &[TaskId]) -> Vec<u64> {
        tasks
            .iter()
            .map(|&t| u64::from(self.tasks.sus_retry(t)))
            .collect()
    }
}

fn placed_phase(d: &Decision) -> PhaseKind {
    match d {
        Decision::Placed(p) => p.phase,
        other => panic!("expected placement, got {other:?}"),
    }
}

/// The single placement a successful rescan returns.
fn resumed(out: &[Resume]) -> &Placement {
    match out {
        [Resume::Placed(p)] => p,
        other => panic!("expected one resumed task, got {other:?}"),
    }
}

/// Housekeeping steps the store charges to enact `p` from `before`:
/// evicting `evict`, configuring a fresh slot unless `p` reuses one, and
/// assigning the task. Measured on a copy, so a rescan's own charge is
/// its total minus this.
fn enact_cost(before: &ResourceManager, p: &Placement, evict: &[u32]) -> u64 {
    let mut r = before.clone();
    let mut s = StepCounter::new();
    let node = p.entry.node;
    r.evict_idle_slots(node, evict, &mut s).unwrap();
    let entry = if p.phase == PhaseKind::Allocation {
        p.entry
    } else {
        r.configure_slot(node, p.config, &mut s).unwrap()
    };
    assert_eq!(entry, p.entry);
    r.assign_task(entry, p.task, &mut s).unwrap();
    s.housekeeping
}

#[test]
fn phase_configuration_used_on_blank_cluster() {
    let mut h = Harness::new(ReconfigMode::Partial, &[(0, 500, 12)], &[2000, 1000]);
    let mut policy = CaseStudyScheduler::new();
    let t = h.add_task(PreferredConfig::Known(ConfigId(0)), 500);
    let d = h.schedule(&mut policy, t);
    assert_eq!(placed_phase(&d), PhaseKind::Configuration);
    // Best blank = tightest fit = node 1 (1000).
    if let Decision::Placed(p) = d {
        assert_eq!(p.entry.node, NodeId(1));
        assert_eq!(p.config_time, 12);
    }
    h.resources.check_invariants().unwrap();
}

#[test]
fn phase_allocation_reuses_idle_instance() {
    let mut h = Harness::new(ReconfigMode::Partial, &[(0, 500, 12)], &[2000]);
    let mut policy = CaseStudyScheduler::new();
    // Pre-configure the node and leave the slot idle.
    let e = h.idle_slot(NodeId(0), ConfigId(0));
    let t = h.add_task(PreferredConfig::Known(ConfigId(0)), 500);
    let d = h.schedule(&mut policy, t);
    assert_eq!(placed_phase(&d), PhaseKind::Allocation);
    if let Decision::Placed(p) = d {
        assert_eq!(p.entry, e);
        assert_eq!(p.config_time, 0, "allocation pays no configuration time");
    }
}

#[test]
fn phase_partial_configuration_packs_alongside_running_task() {
    let mut h = Harness::new(
        ReconfigMode::Partial,
        &[(0, 600, 10), (1, 700, 11)],
        &[2000],
    );
    let mut policy = CaseStudyScheduler::new();
    // Occupy the node with a running task on config 0.
    h.busy_slot(NodeId(0), ConfigId(0));
    let t = h.add_task(PreferredConfig::Known(ConfigId(1)), 700);
    let d = h.schedule(&mut policy, t);
    assert_eq!(placed_phase(&d), PhaseKind::PartialConfiguration);
    assert_eq!(h.resources.node_store().live_count(0), 2);
    assert_eq!(h.resources.node_store().running_count(0), 2);
    h.resources.check_invariants().unwrap();
}

#[test]
fn full_mode_never_partially_configures() {
    let mut h = Harness::new(ReconfigMode::Full, &[(0, 600, 10), (1, 700, 11)], &[2000]);
    let mut policy = CaseStudyScheduler::new();
    h.busy_slot(NodeId(0), ConfigId(0));
    // Plenty of spare area, but full mode may not co-host: the only
    // remaining option is suspension (node is busy and big enough).
    let t = h.add_task(PreferredConfig::Known(ConfigId(1)), 700);
    let d = h.schedule(&mut policy, t);
    assert_eq!(d, Decision::Suspended);
    assert_eq!(h.suspension.len(), 1);
}

#[test]
fn phase_partial_reconfiguration_evicts_idle_regions() {
    let mut h = Harness::new(
        ReconfigMode::Partial,
        &[(0, 900, 10), (1, 800, 11), (2, 1_200, 12)],
        &[2000],
    );
    let mut policy = CaseStudyScheduler::new();
    // Fill the node with two idle configs (900 + 800, 300 spare), one
    // busy would block; keep both idle.
    h.idle_slot(NodeId(0), ConfigId(0));
    h.idle_slot(NodeId(0), ConfigId(1));
    // Config 2 needs 1200: not blank, spare 300 < 1200, so Algorithm 1
    // must evict idle regions.
    let t = h.add_task(PreferredConfig::Known(ConfigId(2)), 1_200);
    let d = h.schedule(&mut policy, t);
    assert_eq!(placed_phase(&d), PhaseKind::PartialReconfiguration);
    assert!(h.resources.node_store().live_count(0) >= 1);
    h.resources.check_invariants().unwrap();
}

#[test]
fn closest_match_path_and_discard_without_candidates() {
    let mut h = Harness::new(
        ReconfigMode::Partial,
        &[(0, 500, 10), (1, 900, 11)],
        &[1000],
    );
    let mut policy = CaseStudyScheduler::new();
    // Phantom area 600 → closest match is config 1 (900 > 600).
    let t = h.add_task(PreferredConfig::Phantom { area: 600 }, 600);
    let d = h.schedule(&mut policy, t);
    assert_eq!(placed_phase(&d), PhaseKind::Configuration);
    assert_eq!(h.tasks.resolved_config(t), Some(ConfigId(1)));

    // Phantom area 900 → nothing strictly larger → discard.
    let t2 = h.add_task(PreferredConfig::Phantom { area: 900 }, 900);
    let d2 = h.schedule(&mut policy, t2);
    assert_eq!(d2, Decision::Discarded(DiscardReason::NoClosestConfig));
}

#[test]
fn discard_when_nothing_ever_fits() {
    // Node too small for the only config, nothing busy → NoFeasibleNode.
    let mut h = Harness::new(ReconfigMode::Partial, &[(0, 1_500, 10)], &[1000]);
    let mut policy = CaseStudyScheduler::new();
    let t = h.add_task(PreferredConfig::Known(ConfigId(0)), 1_500);
    let d = h.schedule(&mut policy, t);
    assert_eq!(d, Decision::Discarded(DiscardReason::NoFeasibleNode));
}

#[test]
fn retry_limit_discards_via_driver() {
    // End-to-end: a tiny cluster with a retry limit discards tasks that
    // keep failing rescans instead of holding them forever.
    struct BigThenSmall(usize);
    impl TaskSource for BigThenSmall {
        fn next_task(&mut self, _now: Ticks, _rng: &mut Rng) -> SourceYield {
            self.0 += 1;
            match self.0 {
                // Long-running task that hogs the single node.
                1 => SourceYield::Task(TaskSpec {
                    interarrival: 1,
                    required_time: 10_000,
                    preferred: PreferredConfig::Known(ConfigId(0)),
                    needed_area: 0,
                    data_bytes: 0,
                }),
                // A stream of short tasks that must suspend behind it.
                2..=20 => SourceYield::Task(TaskSpec {
                    interarrival: 1,
                    required_time: 10,
                    preferred: PreferredConfig::Known(ConfigId(0)),
                    needed_area: 0,
                    data_bytes: 0,
                }),
                _ => SourceYield::Exhausted,
            }
        }
    }
    let mut p = SimParams::paper(1, 20, ReconfigMode::Full);
    p.seed = 9;
    p.max_sus_retries = Some(2);
    let result = Simulation::new(p, BigThenSmall(0), CaseStudyScheduler::new())
        .unwrap()
        .run();
    // With one node, one config instance, and a retry cap, the queue
    // drains one task per completion; everything still terminates.
    assert_eq!(
        result.metrics.total_tasks_completed + result.metrics.total_discarded_tasks,
        result.metrics.total_tasks_generated
    );
}

/// Partial mode, one node of 1 500: a busy 500 slot, the freed idle
/// slot of Y (300) and 700 free. X (1 100) needs more than the free area
/// plus the idle area, so it cannot run here.
fn partial_rescan_harness() -> (Harness, EntryRef) {
    let mut h = Harness::new(
        ReconfigMode::Partial,
        &[(0, 1_100, 10), (1, 300, 11), (2, 500, 12)],
        &[1_500],
    );
    h.busy_slot(NodeId(0), ConfigId(2));
    let freed = h.idle_slot(NodeId(0), ConfigId(1));
    (h, freed)
}

#[test]
fn rescan_resumes_earliest_placeable_task_past_infeasible_configs() {
    let (mut h, freed) = partial_rescan_harness();
    let (x, y) = (ConfigId(0), ConfigId(1));
    let queue = [h.suspend(x), h.suspend(x), h.suspend(y), h.suspend(y)];
    let [a, b, c, d] = queue;
    let (before, hk) = (h.resources.clone(), h.steps.housekeeping);
    let mut policy = CaseStudyScheduler::new();
    let out = h.on_slot_freed(&mut policy, freed);
    let p = resumed(&out);
    assert_eq!(
        (p.task, p.entry, p.phase),
        (c, freed, PhaseKind::Allocation)
    );
    assert_eq!(
        h.steps.housekeeping - hk,
        3 + enact_cost(&before, p, &[]),
        "A, B and C examined, one step each"
    );
    assert_eq!(h.queued(), vec![a, b, d]);
    assert_eq!(h.sus_retries(&queue), vec![0; 4], "a hit bumps no retries");
    h.resources.check_invariants().unwrap();
}

#[test]
fn failed_rescan_charges_every_entry_and_bumps_every_retry() {
    let (mut h, freed) = partial_rescan_harness();
    let x = ConfigId(0);
    let queue = [h.suspend(x), h.suspend(x), h.suspend(x)];
    for _ in 0..5 {
        h.tasks.bump_sus_retry(queue[1]);
    }
    let (hk, sched) = (h.steps.housekeeping, h.steps.scheduling);
    let mut policy = CaseStudyScheduler::new();
    assert!(h.on_slot_freed(&mut policy, freed).is_empty());
    assert_eq!(h.steps.housekeeping - hk, 3, "one step per queued task");
    assert_eq!(h.steps.scheduling, sched);
    assert_eq!(h.queued(), queue.to_vec());
    assert_eq!(h.sus_retries(&queue), vec![1, 6, 1]);
}

#[test]
fn rescan_tells_configs_of_equal_area_apart_by_caps() {
    // P and Q have the same area; only P needs a capability the node
    // lacks. Rejecting P must not reject Q.
    let caps = Capabilities::from_iter([Capability::DspSlices]);
    let configs = vec![
        Config::new(ConfigId(0), 400, 10).with_required_caps(caps),
        Config::new(ConfigId(1), 400, 11),
        Config::new(ConfigId(2), 300, 12),
    ];
    let nodes = vec![Node::new(NodeId(0), 1_000, 2)];
    let mut h = Harness::with_parts(ReconfigMode::Partial, configs, nodes);
    let freed = h.idle_slot(NodeId(0), ConfigId(2));
    let (p_task, q_task) = (h.suspend(ConfigId(0)), h.suspend(ConfigId(1)));
    let mut policy = CaseStudyScheduler::new();
    let out = h.on_slot_freed(&mut policy, freed);
    let p = resumed(&out);
    assert_eq!((p.task, p.phase), (q_task, PhaseKind::PartialConfiguration));
    assert_eq!(h.queued(), vec![p_task]);
    h.resources.check_invariants().unwrap();
}

#[test]
fn full_rescan_prefers_exact_config_reuse_over_earlier_reconfiguration() {
    // X would fit after evicting the freed Y slot, but pass 1 finds B,
    // which runs on Y as is.
    let mut h = Harness::new(ReconfigMode::Full, &[(0, 600, 10), (1, 500, 11)], &[1_000]);
    let freed = h.idle_slot(NodeId(0), ConfigId(1));
    let (a, b) = (h.suspend(ConfigId(0)), h.suspend(ConfigId(1)));
    let (before, hk) = (h.resources.clone(), h.steps.housekeeping);
    let mut policy = CaseStudyScheduler::new();
    let out = h.on_slot_freed(&mut policy, freed);
    let p = resumed(&out);
    assert_eq!(
        (p.task, p.entry, p.phase),
        (b, freed, PhaseKind::Allocation)
    );
    assert_eq!(p.config_time, 0);
    assert_eq!(h.steps.housekeeping - hk, 2 + enact_cost(&before, p, &[]));
    assert_eq!(h.queued(), vec![a]);
}

#[test]
fn full_rescan_without_exact_match_reconfigures_for_first_feasible_task() {
    // The freed slot holds Y; nobody wants Y. W (1 100) cannot fit the
    // 1 000 node even after eviction; X (600) can.
    let mut h = Harness::new(
        ReconfigMode::Full,
        &[(0, 500, 10), (1, 1_100, 11), (2, 600, 12)],
        &[1_000],
    );
    let freed = h.idle_slot(NodeId(0), ConfigId(0));
    let (w, x) = (ConfigId(1), ConfigId(2));
    let queue = [h.suspend(w), h.suspend(x), h.suspend(x), h.suspend(w)];
    let [a, b, c, d] = queue;
    let (before, hk) = (h.resources.clone(), h.steps.housekeeping);
    let mut policy = CaseStudyScheduler::new();
    let out = h.on_slot_freed(&mut policy, freed);
    let p = resumed(&out);
    assert_eq!(
        (p.task, p.config, p.phase),
        (b, x, PhaseKind::PartialReconfiguration)
    );
    assert_eq!(p.config_time, 12);
    assert_eq!(
        h.steps.housekeeping - hk,
        4 + 2 + enact_cost(&before, p, &[freed.slot]),
        "pass 1 examines all four, pass 2 stops at B"
    );
    assert_eq!(h.queued(), vec![a, c, d]);
    assert_eq!(h.sus_retries(&queue), vec![0; 4]);
    h.resources.check_invariants().unwrap();
}
