//! Fault injection: node failures, bitstream-load failures, task
//! execution failures, and suspension deadlines.
//!
//! The paper's evaluation assumes every node, bitstream load, and task
//! execution succeeds; at the scale it targets (thousands of
//! reconfigurable nodes) failures are the common case. [`FaultModel`]
//! owns all fault randomness and bookkeeping:
//!
//! - **Node failures** — each node fails independently with an
//!   exponentially distributed time-to-failure (mean
//!   [`FaultParams::node_mttf`]) and is repaired after an exponentially
//!   distributed time-to-repair (mean [`FaultParams::node_mttr`]).
//! - **Reconfiguration failures** — each bitstream-load attempt fails
//!   with probability [`FaultParams::reconfig_fail_prob`]; the driver
//!   retries with bounded exponential [`backoff`](FaultModel::backoff)
//!   before degrading to the closest-match configuration.
//! - **Execution failures** — each placed task fails mid-run with
//!   probability [`FaultParams::task_fail_prob`], at a point uniformly
//!   distributed over its required time.
//! - **Suspension deadline** — suspended tasks are discarded after
//!   [`FaultParams::suspension_deadline`] ticks in the queue.
//!
//! All draws come from a dedicated RNG stream derived from the run seed
//! (`Rng::derive(seed, FAULT_STREAM)`), so enabling or disabling faults
//! never perturbs workload or platform generation, and a disabled model
//! draws nothing at all — failure-free runs stay bit-identical to the
//! pre-fault simulator.

use crate::params::{DomainOutageKind, DomainParams, ScriptedOutage, SimParams};
use dreamsim_model::{NodeId, Ticks};
use dreamsim_rng::Rng;

/// Stream index for the fault RNG, far away from the small indices the
/// sweep harness uses for seed replication.
const FAULT_STREAM: u64 = 0xFA17;

/// Stream index for the failure-domain RNG. Domain outage/restore draws
/// live on their own stream so enabling domains never perturbs the
/// per-node fault process, and vice versa.
const DOMAIN_STREAM: u64 = 0xD017;

/// Correlated failure-domain state: the domain layout, the dedicated
/// outage RNG, and per-domain downtime/recovery accounting. Present only
/// when `SimParams::domains` is configured; serialized wholesale inside
/// [`FaultModel`] so checkpoints capture open outages exactly.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct DomainState {
    params: DomainParams,
    rng: Rng,
    /// Total node count, for the contiguous-block member mapping.
    node_count: usize,
    /// `down_since[d] = Some(t)` while domain `d` is down.
    down_since: Vec<Option<Ticks>>,
    /// Per-domain accrued downtime from completed outages.
    downtime: Vec<Ticks>,
    /// Nodes each currently-open outage took down (exactly these are
    /// restored — nodes that were already down for their own reasons
    /// keep their own repair schedule).
    victims: Vec<Vec<u32>>,
    /// Outages started / outages completed.
    outages: u64,
    restores: u64,
    /// Sum of completed outage durations (time-to-recover accumulator).
    recover_total: Ticks,
}

/// Per-run fault state: parameters, the dedicated RNG stream, and node
/// downtime accounting.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct FaultModel {
    params: crate::params::FaultParams,
    enabled: bool,
    rng: Rng,
    /// `down_since[node] = Some(t)` while the node is down; empty when
    /// no failure process (per-node or domain) is configured.
    down_since: Vec<Option<Ticks>>,
    downtime: Ticks,
    /// Correlated failure-domain state; `None` when domains are not
    /// configured.
    domains: Option<DomainState>,
}

impl FaultModel {
    /// Build the model for one run. Downtime tracking is allocated when
    /// a failure process (per-node `node_mttf` or failure domains) can
    /// take nodes down.
    #[must_use]
    pub fn new(params: &SimParams) -> Self {
        let f = params.faults;
        let track_downtime = f.node_mttf.is_some() || params.domains.is_some();
        Self {
            params: f,
            // Configured domains count as a fault feature: domain-killed
            // tasks follow the same resubmission path as node failures.
            enabled: f.enabled() || params.domains.is_some(),
            rng: Rng::derive(params.seed, FAULT_STREAM),
            down_since: if track_downtime {
                vec![None; params.total_nodes]
            } else {
                Vec::new()
            },
            downtime: 0,
            domains: params.domains.as_ref().map(|d| DomainState {
                params: d.clone(),
                rng: Rng::derive(params.seed, DOMAIN_STREAM),
                node_count: params.total_nodes,
                down_since: vec![None; d.count],
                downtime: vec![0; d.count],
                victims: vec![Vec::new(); d.count],
                outages: 0,
                restores: 0,
                recover_total: 0,
            }),
        }
    }

    /// Whether any fault feature is active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the per-node MTTF failure process is active.
    #[must_use]
    pub fn mttf_active(&self) -> bool {
        self.params.node_mttf.is_some()
    }

    /// Whether bitstream-load attempts can fail.
    #[must_use]
    pub fn reconfig_faults_enabled(&self) -> bool {
        self.params.reconfig_fail_prob > 0.0
    }

    /// Whether task executions can fail.
    #[must_use]
    pub fn task_faults_enabled(&self) -> bool {
        self.params.task_fail_prob > 0.0
    }

    /// Whether killed/failed tasks are resubmitted (within the retry
    /// budget) rather than discarded. Always false when the model is
    /// disabled.
    #[must_use]
    pub fn resubmit_enabled(&self) -> bool {
        self.enabled && self.params.resubmit
    }

    /// Retry budget shared by reconfiguration retries and task
    /// resubmissions.
    #[must_use]
    pub fn max_retries(&self) -> u32 {
        self.params.max_retries
    }

    /// Suspension-queue deadline, if one is configured.
    #[must_use]
    pub fn suspension_deadline(&self) -> Option<Ticks> {
        self.params.suspension_deadline
    }

    /// Draw a time-to-failure for one node (≥ 1 tick).
    ///
    /// # Panics
    /// Panics if the MTTF process is not configured.
    pub fn draw_ttf(&mut self) -> Ticks {
        // INVARIANT: the engine schedules NodeFailure events only when
        // `node_faults_enabled()` (node_mttf is Some); documented panic
        // for direct misuse.
        let mttf = self.params.node_mttf.expect("draw_ttf requires node_mttf");
        draw_exp(&mut self.rng, mttf)
    }

    /// Draw a time-to-repair for one node (≥ 1 tick).
    pub fn draw_ttr(&mut self) -> Ticks {
        draw_exp(&mut self.rng, self.params.node_mttr)
    }

    /// Whether this bitstream-load attempt fails. Draws only when
    /// reconfiguration faults are enabled.
    pub fn reconfig_attempt_fails(&mut self) -> bool {
        self.reconfig_faults_enabled() && self.rng.bernoulli(self.params.reconfig_fail_prob)
    }

    /// Whether this task execution fails. Draws only when task faults
    /// are enabled.
    pub fn task_attempt_fails(&mut self) -> bool {
        self.task_faults_enabled() && self.rng.bernoulli(self.params.task_fail_prob)
    }

    /// How far into a `required`-tick execution the failure strikes:
    /// uniform over `[1, required]` (at least one tick runs).
    pub fn draw_fail_point(&mut self, required: Ticks) -> Ticks {
        self.rng.uniform_inclusive(1, required.max(1))
    }

    /// Backoff delay before retry attempt `attempt` (1-based):
    /// `base << (attempt-1)`, capped at `retry_backoff_cap`.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Ticks {
        let base = self.params.retry_backoff_base;
        let cap = self.params.retry_backoff_cap;
        if attempt >= 64 {
            return cap;
        }
        // `checked_shl` only rejects shifts ≥ 64, not value overflow, so
        // saturating multiplication is used instead (attempt < 64 keeps
        // the `1 << …` itself in range).
        base.saturating_mul(1u64 << attempt.saturating_sub(1))
            .min(cap)
            .max(1)
    }

    /// Record that `node` went down at `now` (no-op unless downtime
    /// tracking is configured).
    pub fn mark_down(&mut self, node: NodeId, now: Ticks) {
        if let Some(slot) = self.down_since.get_mut(node.index()) {
            debug_assert!(slot.is_none(), "node marked down twice");
            *slot = Some(now);
        }
    }

    /// Record that `node` came back up at `now`, accruing its downtime.
    pub fn mark_up(&mut self, node: NodeId, now: Ticks) {
        if let Some(slot) = self.down_since.get_mut(node.index()) {
            if let Some(since) = slot.take() {
                // BOUND: downtime accrues at most makespan ticks per node; the sum stays far below 2^64.
                self.downtime += now.saturating_sub(since);
            }
        }
    }

    /// Total node downtime in node·ticks; nodes still down at `end`
    /// accrue up to `end`.
    #[must_use]
    pub fn total_downtime(&self, end: Ticks) -> Ticks {
        self.downtime
            // BOUND: same bound as the accumulator above: at most nodes x makespan node-ticks.
            + self
                .down_since
                .iter()
                .flatten()
                .map(|&since| end.saturating_sub(since))
                .sum::<Ticks>()
    }

    // ------------------------------------------------------------------
    // Correlated failure domains (chaos layer).
    // ------------------------------------------------------------------

    /// Number of configured failure domains (0 when disabled).
    #[must_use]
    pub fn num_domains(&self) -> usize {
        self.domains.as_ref().map_or(0, |d| d.params.count)
    }

    /// Whether the stochastic (MTTF-driven) domain outage process runs.
    #[must_use]
    pub fn domain_mttf_active(&self) -> bool {
        self.domains
            .as_ref()
            .is_some_and(|d| d.params.mttf.is_some())
    }

    /// What an outage does to member nodes.
    #[must_use]
    pub fn domain_kind(&self) -> DomainOutageKind {
        self.domains
            .as_ref()
            .map_or(DomainOutageKind::Fail, |d| d.params.kind)
    }

    /// The pre-scheduled outages from the chaos scenario (empty when
    /// none are scripted).
    #[must_use]
    pub fn scripted_outages(&self) -> &[ScriptedOutage] {
        self.domains
            .as_ref()
            .map_or(&[][..], |d| &d.params.scripted)
    }

    /// The node-index range belonging to domain `d`: nodes are split
    /// into contiguous blocks whose sizes differ by at most one
    /// (`[d·n/count, (d+1)·n/count)`), so every node belongs to exactly
    /// one domain and no domain is empty while `count ≤ n`.
    #[must_use]
    pub fn domain_members(&self, d: u32) -> std::ops::Range<usize> {
        let Some(ds) = &self.domains else {
            return 0..0;
        };
        let (n, count) = (ds.node_count, ds.params.count);
        // BOUND: u32 domain index; usize is at least 32 bits on every supported target.
        let d = d as usize;
        if d >= count {
            return 0..0;
        }
        (d * n / count)..((d + 1) * n / count)
    }

    /// Whether domain `d` is currently down.
    #[must_use]
    pub fn domain_is_down(&self, d: u32) -> bool {
        self.domains
            .as_ref()
            // BOUND: u32 domain index; usize is at least 32 bits on every supported target.
            .is_some_and(|ds| ds.down_since.get(d as usize).copied().flatten().is_some())
    }

    /// Draw a time-to-failure for one domain (≥ 1 tick), from the
    /// dedicated domain stream.
    ///
    /// # Panics
    /// Panics if no stochastic domain process is configured.
    pub fn draw_domain_ttf(&mut self) -> Ticks {
        // INVARIANT: the engine schedules stochastic DomainOutage events
        // only when `domain_mttf_active()`; documented panic for direct
        // misuse.
        let ds = self.domains.as_mut().expect("draw_domain_ttf: no domains");
        // INVARIANT: same gate — `domain_mttf_active()` implies mttf is set.
        let mttf = ds.params.mttf.expect("draw_domain_ttf requires mttf");
        draw_exp(&mut ds.rng, mttf)
    }

    /// Draw a time-to-restore for one domain (≥ 1 tick), from the
    /// dedicated domain stream.
    ///
    /// # Panics
    /// Panics if domains are not configured.
    pub fn draw_domain_ttr(&mut self) -> Ticks {
        // INVARIANT: only the domain-outage handler calls this, and it
        // runs only when domains are configured.
        let ds = self.domains.as_mut().expect("draw_domain_ttr: no domains");
        draw_exp(&mut ds.rng, ds.params.mttr)
    }

    /// Record that domain `d` went down at `now`, taking exactly
    /// `victims` (node indices) with it.
    pub fn mark_domain_down(&mut self, d: u32, now: Ticks, victims: Vec<u32>) {
        if let Some(ds) = &mut self.domains {
            // BOUND: u32 domain index; usize is at least 32 bits on every supported target.
            if let Some(slot) = ds.down_since.get_mut(d as usize) {
                debug_assert!(slot.is_none(), "domain marked down twice");
                *slot = Some(now);
                // BOUND: u32 domain index; usize is at least 32 bits on every supported target.
                ds.victims[d as usize] = victims;
                ds.outages += 1;
            }
        }
    }

    /// Record that domain `d` was restored at `now`: accrues its
    /// downtime and time-to-recover, and returns the nodes the outage
    /// had taken down (exactly these must be repaired).
    pub fn mark_domain_up(&mut self, d: u32, now: Ticks) -> Vec<u32> {
        let Some(ds) = &mut self.domains else {
            return Vec::new();
        };
        // BOUND: u32 domain index; usize is at least 32 bits on every supported target.
        let Some(slot) = ds.down_since.get_mut(d as usize) else {
            return Vec::new();
        };
        let Some(since) = slot.take() else {
            return Vec::new();
        };
        let dur = now.saturating_sub(since);
        // BOUND: u32 index; per-domain downtime is at most the makespan, far below 2^64.
        ds.downtime[d as usize] += dur;
        ds.recover_total += dur;
        ds.restores += 1;
        // BOUND: u32 domain index; usize is at least 32 bits on every supported target.
        std::mem::take(&mut ds.victims[d as usize])
    }

    /// Outages started over the run.
    #[must_use]
    pub fn domain_outages(&self) -> u64 {
        self.domains.as_ref().map_or(0, |d| d.outages)
    }

    /// Outages completed (restored) over the run.
    #[must_use]
    pub fn domain_restores(&self) -> u64 {
        self.domains.as_ref().map_or(0, |d| d.restores)
    }

    /// Per-domain downtime in ticks; domains still down at `end` accrue
    /// up to `end`. Empty when domains are disabled.
    #[must_use]
    pub fn domain_downtime(&self, end: Ticks) -> Vec<Ticks> {
        let Some(ds) = &self.domains else {
            return Vec::new();
        };
        ds.downtime
            .iter()
            .zip(&ds.down_since)
            .map(|(&dt, open)| dt + open.map_or(0, |since| end.saturating_sub(since)))
            .collect()
    }

    /// Mean time-to-recover over completed outages (0 when none
    /// completed).
    #[must_use]
    pub fn mean_time_to_recover(&self) -> f64 {
        let Some(ds) = &self.domains else {
            return 0.0;
        };
        if ds.restores == 0 {
            0.0
        } else {
            ds.recover_total as f64 / ds.restores as f64
        }
    }
}

/// Exponential draw with the given mean, rounded to whole ticks and
/// clamped to at least 1 so events always make progress.
fn draw_exp(rng: &mut Rng, mean: u64) -> Ticks {
    (rng.exponential_with_mean(mean as f64).round() as Ticks).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FaultParams;

    fn params_with(f: impl FnOnce(&mut FaultParams)) -> SimParams {
        let mut p = SimParams::default();
        p.total_nodes = 4;
        f(&mut p.faults);
        p
    }

    #[test]
    fn disabled_model_reports_every_feature_off() {
        let m = FaultModel::new(&SimParams::default());
        assert!(!m.enabled());
        assert!(!m.mttf_active());
        assert!(!m.reconfig_faults_enabled());
        assert!(!m.task_faults_enabled());
        assert!(!m.resubmit_enabled());
        assert_eq!(m.total_downtime(1_000_000), 0);
    }

    #[test]
    fn disabled_probability_draws_never_touch_the_rng() {
        let p = SimParams::default();
        let mut m = FaultModel::new(&p);
        let before = m.rng.clone();
        for _ in 0..32 {
            assert!(!m.reconfig_attempt_fails());
            assert!(!m.task_attempt_fails());
        }
        // The generator state is untouched: both streams continue
        // identically.
        let mut after = m.rng;
        let mut before = before;
        for _ in 0..8 {
            assert_eq!(before.rand_int64(), after.rand_int64());
        }
    }

    #[test]
    fn fault_stream_is_independent_of_the_main_stream() {
        let p = SimParams::default();
        let mut main = Rng::seed_from(p.seed);
        let mut fault = FaultModel::new(&p).rng;
        let a: Vec<u64> = (0..8).map(|_| main.rand_int64()).collect();
        let b: Vec<u64> = (0..8).map(|_| fault.rand_int64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn ttf_and_ttr_draws_are_positive_and_deterministic() {
        let p = params_with(|f| {
            f.node_mttf = Some(500);
            f.node_mttr = 50;
        });
        let mut a = FaultModel::new(&p);
        let mut b = FaultModel::new(&p);
        for _ in 0..64 {
            let (ta, tb) = (a.draw_ttf(), b.draw_ttf());
            assert_eq!(ta, tb);
            assert!(ta >= 1);
            let (ra, rb) = (a.draw_ttr(), b.draw_ttr());
            assert_eq!(ra, rb);
            assert!(ra >= 1);
        }
    }

    #[test]
    fn certain_failure_probability_always_fires() {
        let p = params_with(|f| {
            f.reconfig_fail_prob = 1.0;
            f.task_fail_prob = 1.0;
        });
        let mut m = FaultModel::new(&p);
        for _ in 0..16 {
            assert!(m.reconfig_attempt_fails());
            assert!(m.task_attempt_fails());
        }
    }

    #[test]
    fn fail_point_lies_within_the_execution() {
        let p = params_with(|f| f.task_fail_prob = 0.5);
        let mut m = FaultModel::new(&p);
        for required in [1u64, 2, 17, 100_000] {
            for _ in 0..16 {
                let at = m.draw_fail_point(required);
                assert!((1..=required).contains(&at));
            }
        }
        assert_eq!(
            m.draw_fail_point(0),
            1,
            "zero-length runs still take a tick"
        );
    }

    #[test]
    fn backoff_doubles_then_saturates() {
        let p = params_with(|f| {
            f.retry_backoff_base = 8;
            f.retry_backoff_cap = 100;
        });
        let m = FaultModel::new(&p);
        assert_eq!(m.backoff(1), 8);
        assert_eq!(m.backoff(2), 16);
        assert_eq!(m.backoff(3), 32);
        assert_eq!(m.backoff(4), 64);
        assert_eq!(m.backoff(5), 100);
        assert_eq!(m.backoff(63), 100);
        assert_eq!(m.backoff(64), 100);
        assert_eq!(m.backoff(u32::MAX), 100);
    }

    #[test]
    fn downtime_accrues_per_node_and_to_run_end() {
        let p = params_with(|f| {
            f.node_mttf = Some(1_000);
            f.node_mttr = 10;
        });
        let mut m = FaultModel::new(&p);
        m.mark_down(NodeId(0), 100);
        m.mark_up(NodeId(0), 150);
        assert_eq!(m.total_downtime(200), 50);
        m.mark_down(NodeId(1), 180);
        // Node 1 is still down at the end of the run.
        assert_eq!(m.total_downtime(200), 50 + 20);
        m.mark_up(NodeId(1), 190);
        assert_eq!(m.total_downtime(200), 50 + 10);
    }

    #[test]
    fn downtime_tracking_is_inert_without_a_failure_process() {
        let p = params_with(|f| f.task_fail_prob = 0.5);
        let mut m = FaultModel::new(&p);
        m.mark_down(NodeId(0), 10);
        m.mark_up(NodeId(0), 20);
        assert_eq!(m.total_downtime(100), 0);
    }

    fn params_with_domains(count: usize, f: impl FnOnce(&mut DomainParams)) -> SimParams {
        let mut p = SimParams::default();
        p.total_nodes = 10;
        let mut d = DomainParams {
            count,
            ..DomainParams::default()
        };
        f(&mut d);
        p.domains = Some(d);
        p
    }

    #[test]
    fn domain_free_model_exposes_no_domain_state() {
        let m = FaultModel::new(&SimParams::default());
        assert_eq!(m.num_domains(), 0);
        assert!(!m.domain_mttf_active());
        assert!(m.scripted_outages().is_empty());
        assert_eq!(m.domain_members(0), 0..0);
        assert!(!m.domain_is_down(0));
        assert!(m.domain_downtime(1_000).is_empty());
        assert_eq!(m.mean_time_to_recover(), 0.0);
    }

    #[test]
    fn domain_members_partition_every_node_exactly_once() {
        for (nodes, count) in [(10usize, 4usize), (10, 10), (10, 1), (7, 3), (5, 4)] {
            let mut p = params_with_domains(count, |_| {});
            p.total_nodes = nodes;
            let m = FaultModel::new(&p);
            let mut covered = vec![0u32; nodes];
            for d in 0..count as u32 {
                let r = m.domain_members(d);
                assert!(!r.is_empty(), "n={nodes} count={count} d={d} empty");
                for i in r {
                    covered[i] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "n={nodes} count={count}");
            assert_eq!(m.domain_members(count as u32), 0..0, "out of range");
        }
    }

    #[test]
    fn domain_draws_come_from_their_own_stream() {
        let p = params_with_domains(2, |d| d.mttf = Some(4_000));
        let mut a = FaultModel::new(&p);
        // Exhausting the node-fault stream must not move the domain
        // stream: interleaved and non-interleaved draws agree.
        let mut b = FaultModel::new(&p);
        let plain: Vec<Ticks> = (0..8).map(|_| a.draw_domain_ttf()).collect();
        let interleaved: Vec<Ticks> = (0..8)
            .map(|_| {
                b.draw_ttr();
                b.draw_domain_ttf()
            })
            .collect();
        assert_eq!(plain, interleaved);
        for t in plain {
            assert!(t >= 1);
        }
        assert!(b.draw_domain_ttr() >= 1);
    }

    #[test]
    fn domain_outage_bookkeeping_and_recovery_stats() {
        let p = params_with_domains(2, |d| d.mttr = 100);
        let mut m = FaultModel::new(&p);
        assert!(m.enabled(), "configured domains are a fault feature");
        m.mark_domain_down(0, 1_000, vec![0, 1, 2]);
        assert!(m.domain_is_down(0));
        assert!(!m.domain_is_down(1));
        assert_eq!(m.domain_outages(), 1);
        assert_eq!(m.domain_restores(), 0);
        // Still open: accrues to the queried end.
        assert_eq!(m.domain_downtime(1_300), vec![300, 0]);
        let victims = m.mark_domain_up(0, 1_250);
        assert_eq!(victims, vec![0, 1, 2]);
        assert!(!m.domain_is_down(0));
        assert_eq!(m.domain_restores(), 1);
        assert_eq!(m.domain_downtime(9_999), vec![250, 0]);
        assert_eq!(m.mean_time_to_recover(), 250.0);
        // Restoring an up domain is a no-op.
        assert!(m.mark_domain_up(0, 1_300).is_empty());
        assert_eq!(m.domain_restores(), 1);
    }

    #[test]
    fn domain_state_survives_serde_round_trip() {
        let p = params_with_domains(3, |d| {
            d.mttf = Some(2_000);
            d.kind = DomainOutageKind::Partition;
        });
        let mut m = FaultModel::new(&p);
        m.draw_domain_ttf();
        m.mark_domain_down(1, 500, vec![4, 5]);
        let js = serde_json::to_string(&m).unwrap();
        let mut back: FaultModel = serde_json::from_str(&js).unwrap();
        assert!(back.domain_is_down(1));
        assert_eq!(back.domain_kind(), DomainOutageKind::Partition);
        assert_eq!(back.mark_domain_up(1, 600), vec![4, 5]);
        assert_eq!(back.domain_downtime(600), vec![0, 100, 0]);
        // RNG position carried over: next draws agree with the original.
        assert_eq!(back.draw_domain_ttf(), m.draw_domain_ttf());
    }
}
