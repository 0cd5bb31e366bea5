//! The Section V case-study scheduling algorithm (Fig. 5 + Algorithm 1).
//!
//! For every incoming task:
//!
//! 1. **Config lookup** — `FindPreferredConfig()`; if the preferred
//!    configuration is absent, `FindClosestConfig()` (smallest
//!    configuration strictly larger than the preferred one's area); if
//!    neither exists, **discard**.
//! 2. **Allocation** — the best idle instance of the target
//!    configuration (minimum `AvailableArea` under the default
//!    [`AllocationStrategy::BestFit`]); no reconfiguration cost.
//! 3. **Configuration** — the best blank node that fits; pays
//!    `ConfigTime`.
//! 4. **Partial configuration** *(partial mode only)* — the node with
//!    the minimum sufficient spare region; pays `ConfigTime`.
//! 5. **(Partial) re-configuration** — `FindAnyIdleNode` (Algorithm 1):
//!    the first node whose free area plus reclaimable idle regions covers
//!    the configuration; evicts those regions and configures.
//! 6. **Suspension** — if some busy node could eventually host
//!    (`TotalArea` large enough), park in the suspension queue;
//!    otherwise **discard**.
//!
//! On every task completion the freed node is offered to the suspension
//! queue: the earliest suspended task that can run on that node — by
//! direct allocation onto the freed slot, by partial configuration into
//! spare area, or by evicting the node's idle regions — is resumed
//! (`RemoveTaskFromSusQueue`).

use dreamsim_engine::sim::{Decision, DiscardReason, Placement, Resume, SchedCtx, SchedulePolicy};
use dreamsim_engine::{PhaseKind, ReconfigMode};
use dreamsim_model::naive;
use dreamsim_model::store::Demand;
use dreamsim_model::{ConfigId, EntryRef, NodeId, TaskId};

/// How the **allocation** phase picks among idle instances of the target
/// configuration. The paper uses best fit; the others exist for the
/// policy ablation (DESIGN.md A1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AllocationStrategy {
    /// Minimum `AvailableArea` (the paper's choice).
    #[default]
    BestFit,
    /// First instance in list order.
    FirstFit,
    /// Maximum `AvailableArea`.
    WorstFit,
    /// Uniformly random idle instance.
    Random,
    /// Node with the fewest running tasks (load-balancing bias).
    LeastLoaded,
}

impl AllocationStrategy {
    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AllocationStrategy::BestFit => "best-fit",
            AllocationStrategy::FirstFit => "first-fit",
            AllocationStrategy::WorstFit => "worst-fit",
            AllocationStrategy::Random => "random",
            AllocationStrategy::LeastLoaded => "least-loaded",
        }
    }

    /// Parse a [`label`](Self::label).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "best-fit" => Some(AllocationStrategy::BestFit),
            "first-fit" => Some(AllocationStrategy::FirstFit),
            "worst-fit" => Some(AllocationStrategy::WorstFit),
            "random" => Some(AllocationStrategy::Random),
            "least-loaded" => Some(AllocationStrategy::LeastLoaded),
            _ => None,
        }
    }
}

/// The case-study scheduler.
#[derive(Clone, Debug, Default)]
pub struct CaseStudyScheduler {
    strategy: AllocationStrategy,
    /// Data-structure ablation (DESIGN.md A2): answer allocation
    /// searches by scanning every slot of every node instead of the
    /// per-configuration idle lists.
    naive_search: bool,
}

/// A feasible way to run a task on a specific node, computed read-only
/// during suspension-queue scans and enacted only for the chosen task.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Plan {
    /// The freed slot itself already holds the right configuration.
    Allocate(EntryRef),
    /// Spare area fits the configuration (partial mode).
    PartialConfigure,
    /// Evicting these idle slots frees enough area.
    Reconfigure(Vec<u32>),
}

impl CaseStudyScheduler {
    /// Paper-faithful scheduler: best-fit allocation, list-based search.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the allocation strategy (ablation A1).
    #[must_use]
    pub fn with_strategy(strategy: AllocationStrategy) -> Self {
        Self {
            strategy,
            naive_search: false,
        }
    }

    /// Answer allocation searches with naive full scans (ablation A2).
    #[must_use]
    pub fn with_naive_search(mut self, naive: bool) -> Self {
        self.naive_search = naive;
        self
    }

    /// The active allocation strategy.
    #[must_use]
    pub fn strategy(&self) -> AllocationStrategy {
        self.strategy
    }

    /// The scheduler whose [`state_label`](SchedulePolicy::state_label)
    /// is `label` (its inverse, `/naive` suffix included); `None` for
    /// any other string.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        let rest = label.strip_prefix("case-study/")?;
        let (strategy, naive) = match rest.strip_suffix("/naive") {
            Some(strategy) => (strategy, true),
            None => (rest, false),
        };
        let strategy = AllocationStrategy::parse(strategy)?;
        Some(Self::with_strategy(strategy).with_naive_search(naive))
    }

    /// Step 1: resolve the task's preferred configuration to a concrete
    /// entry of the configuration list, caching the result on the task.
    fn resolve_config(&self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Option<ConfigId> {
        if let Some(c) = ctx.tasks.resolved_config(task) {
            return Some(c);
        }
        let needed = ctx.tasks.needed_area(task);
        let resolved = ctx
            .resources
            .find_preferred_config(ctx.tasks.preferred(task), ctx.steps)
            .or_else(|| ctx.resources.find_closest_config(needed, ctx.steps));
        ctx.tasks.set_resolved_config(task, resolved);
        resolved
    }

    /// The allocation-phase search, honouring strategy and the naive
    /// ablation.
    fn pick_idle(&self, ctx: &mut SchedCtx<'_>, config: ConfigId) -> Option<EntryRef> {
        if self.naive_search {
            return naive::find_best_idle_naive(ctx.resources, config, ctx.steps);
        }
        match self.strategy {
            AllocationStrategy::BestFit => ctx.resources.find_best_idle(config, ctx.steps),
            AllocationStrategy::FirstFit => ctx.resources.find_first_idle(config, ctx.steps),
            AllocationStrategy::WorstFit => ctx.resources.find_worst_idle(config, ctx.steps),
            AllocationStrategy::Random => {
                let all = ctx.resources.collect_idle(config, ctx.steps);
                if all.is_empty() {
                    None
                } else {
                    Some(all[ctx.rng.index(all.len())])
                }
            }
            AllocationStrategy::LeastLoaded => {
                let mut best: Option<(u32, EntryRef)> = None;
                for e in ctx.resources.collect_idle(config, ctx.steps) {
                    let load = ctx.resources.node_store().running_count(e.node.index());
                    if best.is_none_or(|(l, _)| load < l) {
                        best = Some((load, e));
                    }
                }
                best.map(|(_, e)| e)
            }
        }
    }

    /// Phases 2–5 of Fig. 5. Returns the placement if any phase
    /// succeeded; resources are already mutated.
    fn try_place(
        &mut self,
        ctx: &mut SchedCtx<'_>,
        task: TaskId,
        config: ConfigId,
    ) -> Option<Placement> {
        // Phase: Allocation.
        if let Some(entry) = self.pick_idle(ctx, config) {
            ctx.resources
                .assign_task(entry, task, ctx.steps)
                // INVARIANT: `pick_idle` only returns entries drawn from
                // the idle lists (or a naive scan for idle slots), and
                // nothing runs between the search and the assignment, so
                // the slot cannot have become busy. A failure here is
                // store corruption, which the engine's auditor reports
                // as a typed error before the policy ever sees the slot.
                .expect("idle entry accepts a task");
            return Some(Placement {
                task,
                entry,
                config,
                config_time: 0,
                phase: PhaseKind::Allocation,
            });
        }
        let (demand, ct) = {
            let c = ctx.resources.config(config);
            (Demand::of(c), c.config_time)
        };
        // Phase: Configuration (blank node).
        if let Some(node) = ctx.resources.find_best_blank(demand, ctx.steps) {
            return Some(self.configure_and_assign(
                ctx,
                task,
                config,
                node,
                ct,
                PhaseKind::Configuration,
            ));
        }
        // Phase: Partial configuration (partial mode only).
        if ctx.mode == ReconfigMode::Partial {
            if let Some(node) = ctx.resources.find_best_partially_blank(demand, ctx.steps) {
                return Some(self.configure_and_assign(
                    ctx,
                    task,
                    config,
                    node,
                    ct,
                    PhaseKind::PartialConfiguration,
                ));
            }
        }
        // Phase: (Partial) re-configuration — Algorithm 1.
        if let Some((node, evict)) = ctx.resources.find_any_idle_node(demand, ctx.steps) {
            ctx.resources
                .evict_idle_slots(node, &evict, ctx.steps)
                // INVARIANT: Algorithm 1 selected `evict` from the
                // node's currently idle slots and holds the mutable
                // borrow until eviction, so every listed slot is still
                // idle.
                .expect("Algorithm 1 returns idle slots");
            return Some(self.configure_and_assign(
                ctx,
                task,
                config,
                node,
                ct,
                PhaseKind::PartialReconfiguration,
            ));
        }
        None
    }

    fn configure_and_assign(
        &self,
        ctx: &mut SchedCtx<'_>,
        task: TaskId,
        config: ConfigId,
        node: NodeId,
        config_time: u64,
        phase: PhaseKind,
    ) -> Placement {
        let entry = ctx
            .resources
            .configure_slot(node, config, ctx.steps)
            // INVARIANT: every caller reaches this point straight from a
            // search (or eviction) that established the node has enough
            // free area for `config`.
            .expect("search guaranteed the area fits");
        ctx.resources
            .assign_task(entry, task, ctx.steps)
            // INVARIANT: a just-configured slot is idle by construction.
            .expect("fresh slot is idle");
        Placement {
            task,
            entry,
            config,
            config_time,
            phase,
        }
    }
}

impl SchedulePolicy for CaseStudyScheduler {
    fn name(&self) -> &'static str {
        "case-study"
    }

    fn state_label(&self) -> String {
        // Encodes the ablation knobs so that resuming a checkpoint with
        // a differently-configured scheduler is rejected up front: the
        // strategy changes placement order, and the naive-search
        // ablation changes StepCounter accounting.
        format!(
            "case-study/{}{}",
            self.strategy.label(),
            if self.naive_search { "/naive" } else { "" }
        )
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Decision {
        let Some(config) = self.resolve_config(ctx, task) else {
            return Decision::Discarded(DiscardReason::NoClosestConfig);
        };
        if let Some(placement) = self.try_place(ctx, task, config) {
            return Decision::Placed(placement);
        }
        let demand = Demand::of(ctx.resources.config(config));
        if ctx.suspension_enabled && ctx.resources.busy_candidate_exists(demand, ctx.steps) {
            ctx.suspension.push(task, Some(config), ctx.steps);
            return Decision::Suspended;
        }
        Decision::Discarded(DiscardReason::NoFeasibleNode)
    }

    fn on_slot_freed(&mut self, ctx: &mut SchedCtx<'_>, freed: EntryRef) -> Vec<Resume> {
        let mut out = Vec::new();
        if ctx.suspension.is_empty() {
            return out;
        }
        let node = freed.node;
        // Scan the queue for a task this node can serve. Mode asymmetry
        // (see DESIGN.md §4): under FULL reconfiguration the freed node
        // already holds a complete, reusable configuration, so the
        // scheduler first looks for a queued task that runs on it as-is
        // (pure allocation — reconfiguring would throw away a good
        // bitstream); only if no queued task matches does it fall back
        // to FIFO-first reconfiguration. Under PARTIAL reconfiguration
        // the scheduler has "more options" (Sec. VI): it serves the
        // earliest queued task that fits the node at all, reconfiguring
        // regions as needed — which is exactly why the paper reports
        // higher reconfiguration counts for the partial scenario.
        let mut chosen: Option<(TaskId, (ConfigId, Plan))> = None;
        let mut over_limit: Vec<TaskId> = Vec::new();
        {
            let SchedCtx {
                resources,
                tasks,
                suspension,
                steps,
                mode,
                max_sus_retries,
                ..
            } = ctx;
            let view = PlanView {
                resources,
                mode: *mode,
            };
            let freed_config = view
                .resources
                .node_store()
                .slot(node.index(), freed.slot)
                .map(|s| s.config);
            // Full mode, pass 1: exact configuration reuse, a probe of
            // the freed configuration's earliest queued task.
            if *mode == ReconfigMode::Full {
                if let Some(fc) = freed_config {
                    chosen = suspension
                        .remove_first_of(fc, steps)
                        .map(|tid| (tid, (fc, Plan::Allocate(freed))));
                }
            }
            // The partial-mode scan, or full mode's pass 2 (FIFO-first
            // reconfiguration fallback). Nothing is mutated until a task
            // is chosen, so for this node and freed slot `plan` is a
            // function of the configuration alone, and the queue asks it
            // once per queued configuration, earliest first (DESIGN.md
            // §4). Every entry a linear walk would examine is still
            // charged its step.
            if chosen.is_none() {
                let mut accepted = None;
                let picked = suspension.remove_first_match(steps, |c| {
                    accepted = c.and_then(|config| {
                        view.plan(node, freed, config).map(|plan| (config, plan))
                    });
                    accepted.is_some()
                });
                chosen = picked.zip(accepted);
            }
            // A fully failed rescan means every queued task was examined
            // and found unplaceable: each accrues one retry (`SusRetry`).
            // On a successful pick only a prefix was examined; those
            // retries are not charged (the task list no longer encodes
            // the prefix boundary after removal).
            if chosen.is_none() {
                for tid in suspension.iter() {
                    let retries = tasks.bump_sus_retry(tid);
                    if max_sus_retries.is_some_and(|limit| u64::from(retries) > limit) {
                        over_limit.push(tid);
                    }
                }
            }
        }
        // Enact the chosen plan.
        if let Some((tid, (config, plan))) = chosen {
            let ct = ctx.resources.config(config).config_time;
            let placement = match plan {
                Plan::Allocate(entry) => {
                    ctx.resources
                        .assign_task(entry, tid, ctx.steps)
                        // INVARIANT: `entry` is the slot whose task just
                        // completed; it was freed before this hook ran
                        // and only one plan is enacted per freed slot.
                        .expect("freed slot is idle");
                    Placement {
                        task: tid,
                        entry,
                        config,
                        config_time: 0,
                        phase: PhaseKind::Allocation,
                    }
                }
                Plan::PartialConfigure => self.configure_and_assign(
                    ctx,
                    tid,
                    config,
                    node,
                    ct,
                    PhaseKind::PartialConfiguration,
                ),
                Plan::Reconfigure(evict) => {
                    ctx.resources
                        .evict_idle_slots(node, &evict, ctx.steps)
                        // INVARIANT: the plan listed slots that were
                        // idle during the read-only scan, and no
                        // placement has touched this node since (one
                        // plan per freed slot).
                        .expect("planned slots are idle");
                    self.configure_and_assign(
                        ctx,
                        tid,
                        config,
                        node,
                        ct,
                        PhaseKind::PartialReconfiguration,
                    )
                }
            };
            out.push(Resume::Placed(placement));
        }
        // Discard over-limit tasks.
        for tid in over_limit {
            if ctx.suspension.remove_task(tid, ctx.steps) {
                out.push(Resume::Discarded {
                    task: tid,
                    reason: DiscardReason::RetryLimit,
                });
            }
        }
        out
    }

    fn on_node_repaired(&mut self, ctx: &mut SchedCtx<'_>, node: NodeId) -> Vec<Resume> {
        // A repaired node is blank: offer it to the earliest suspended
        // task that fits its total area.
        let mut out = Vec::new();
        let total = ctx.resources.node_store().total_area(node.index());
        let caps = ctx.resources.node_store().caps(node.index());
        let resources = &*ctx.resources;
        let mut accepted = None;
        let picked = ctx.suspension.remove_first_match(ctx.steps, |c| {
            let Some(config) = c else {
                return false;
            };
            let cfg = resources.config(config);
            if cfg.req_area <= total && Demand::of(cfg).caps_ok(caps) {
                accepted = Some(config);
                true
            } else {
                false
            }
        });
        if let Some((tid, config)) = picked.zip(accepted) {
            let ct = ctx.resources.config(config).config_time;
            out.push(Resume::Placed(self.configure_and_assign(
                ctx,
                tid,
                config,
                node,
                ct,
                PhaseKind::Configuration,
            )));
        }
        out
    }
}

/// Read-only planning helper used inside the suspension-scan closure,
/// where the mutable context is partially borrowed.
struct PlanView<'a> {
    resources: &'a dreamsim_model::ResourceManager,
    mode: ReconfigMode,
}

impl PlanView<'_> {
    fn plan(&self, node: NodeId, freed: EntryRef, config: ConfigId) -> Option<Plan> {
        let (nodes, i) = (self.resources.node_store(), node.index());
        if nodes.is_down(i) {
            return None;
        }
        if let Some(slot) = nodes.slot(i, freed.slot) {
            if slot.config == config && slot.task.is_none() {
                return Some(Plan::Allocate(freed));
            }
        }
        // Fresh (re)configuration requires the node to offer the
        // configuration's capabilities (always true in paper runs).
        let demand = Demand::of(self.resources.config(config));
        if !demand.caps_ok(nodes.caps(i)) {
            return None;
        }
        let req = demand.area;
        if self.mode == ReconfigMode::Partial && nodes.can_host(i, req) {
            return Some(Plan::PartialConfigure);
        }
        let (evict, _) = nodes.reclaim_idle(i, req);
        evict.map(Plan::Reconfigure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dreamsim_engine::{AdmissionPolicy, ArrivalDistribution, DomainOutageKind, PlacementModel};

    const STRATEGIES: [AllocationStrategy; 5] = [
        AllocationStrategy::BestFit,
        AllocationStrategy::FirstFit,
        AllocationStrategy::WorstFit,
        AllocationStrategy::Random,
        AllocationStrategy::LeastLoaded,
    ];

    #[test]
    fn strategy_labels() {
        assert_eq!(AllocationStrategy::BestFit.label(), "best-fit");
        assert_eq!(AllocationStrategy::LeastLoaded.label(), "least-loaded");
        assert_eq!(AllocationStrategy::default(), AllocationStrategy::BestFit);
    }

    /// Every enum a front end reads from text parses its own labels back,
    /// and nothing else.
    #[test]
    fn every_label_parses_back_to_its_variant() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(
            variants: &[T],
            label: fn(T) -> &'static str,
            parse: fn(&str) -> Option<T>,
        ) {
            for &v in variants {
                assert_eq!(parse(label(v)), Some(v), "{v:?}");
            }
            for unknown in ["", "bogus", "Full", "best_fit", "partial "] {
                assert_eq!(parse(unknown), None, "{unknown:?}");
            }
        }
        check(
            &[ReconfigMode::Full, ReconfigMode::Partial],
            ReconfigMode::label,
            ReconfigMode::parse,
        );
        check(
            &[PlacementModel::Scalar, PlacementModel::Contiguous],
            PlacementModel::label,
            PlacementModel::parse,
        );
        check(
            &[DomainOutageKind::Fail, DomainOutageKind::Partition],
            DomainOutageKind::label,
            DomainOutageKind::parse,
        );
        check(
            &[
                AdmissionPolicy::Block,
                AdmissionPolicy::ShedOldest,
                AdmissionPolicy::DegradeClosest,
            ],
            AdmissionPolicy::label,
            AdmissionPolicy::parse,
        );
        check(
            &STRATEGIES,
            AllocationStrategy::label,
            AllocationStrategy::parse,
        );
        for (label, v) in [
            ("uniform", ArrivalDistribution::Uniform),
            ("poisson", ArrivalDistribution::Poisson),
            ("exponential", ArrivalDistribution::Exponential),
        ] {
            assert_eq!(ArrivalDistribution::parse(label), Some(v));
        }
        assert_eq!(ArrivalDistribution::parse("gamma"), None);
    }

    #[test]
    fn from_label_inverts_state_label() {
        for strategy in STRATEGIES {
            for naive in [false, true] {
                let s = CaseStudyScheduler::with_strategy(strategy).with_naive_search(naive);
                let label = s.state_label();
                let back = CaseStudyScheduler::from_label(&label)
                    .unwrap_or_else(|| panic!("{label:?} does not parse"));
                assert_eq!(back.state_label(), label);
                assert_eq!(back.strategy(), strategy);
            }
        }
        for label in [
            "",
            "case-study",
            "case-study/",
            "case-study/naive",
            "case-study/best-fit/",
            "case-study/best-fit/naive/naive",
            "case-study/best-fit/fast",
            "other/best-fit",
        ] {
            assert!(CaseStudyScheduler::from_label(label).is_none(), "{label:?}");
        }
    }
}
