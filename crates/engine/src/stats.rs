//! Statistics accumulation and the Table I performance metrics.
//!
//! [`Stats`] is the running accumulator the driver updates as events are
//! processed; [`Metrics`] is the finalized report (`MakeReport()` in the
//! UML), with one field per Table I row plus the extra counters this
//! implementation exposes.
//!
//! ## The wasted-area metric
//!
//! As discussed in DESIGN.md, Eq. 6/7 are reproduced in two forms:
//!
//! * `avg_wasted_area_per_task` (the paper's headline figure metric) —
//!   **per-allocation accumulation**: each time a task is placed, the
//!   chosen node's `AvailableArea` after the placement is added to
//!   `Total_Wasted_Area`; the average divides by tasks generated (Eq. 7).
//! * `wasted_area_snapshot_end` — the literal Eq. 6 sum at the end of the
//!   run, over nodes holding at least one configuration.

use crate::params::SimParams;
use dreamsim_model::{Area, StepCounter, Ticks};
use serde::{Deserialize, Serialize};

/// Which algorithmic phase of Section V placed a task (Fig. 5's four
/// parts plus suspension-queue resumption).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Direct allocation onto an already-configured idle instance.
    Allocation,
    /// Configuration of a blank node.
    Configuration,
    /// Partial configuration into a node's spare area.
    PartialConfiguration,
    /// Partial re-configuration after evicting idle regions
    /// (full-mode re-configuration uses this bucket too).
    PartialReconfiguration,
}

/// Per-phase placement counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseCounts {
    /// Placements by direct allocation.
    pub allocation: u64,
    /// Placements by configuring a blank node.
    pub configuration: u64,
    /// Placements by partial configuration.
    pub partial_configuration: u64,
    /// Placements by (partial) re-configuration.
    pub partial_reconfiguration: u64,
    /// Placements that came out of the suspension queue (these also
    /// count in one of the four phase buckets).
    pub resumed: u64,
}

impl PhaseCounts {
    /// Total placements across the four phases.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.allocation
            + self.configuration
            + self.partial_configuration
            + self.partial_reconfiguration
    }

    /// Bump the counter for `phase`.
    pub fn bump(&mut self, phase: PhaseKind) {
        match phase {
            PhaseKind::Allocation => self.allocation += 1,
            PhaseKind::Configuration => self.configuration += 1,
            PhaseKind::PartialConfiguration => self.partial_configuration += 1,
            PhaseKind::PartialReconfiguration => self.partial_reconfiguration += 1,
        }
    }
}

/// One sliding-window bucket of live service metrics: event counts over
/// `[start, start + window)` ticks of simulated time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowBucket {
    /// First tick the bucket covers (inclusive).
    pub start: Ticks,
    /// Tasks that arrived inside the bucket.
    pub arrivals: u64,
    /// Tasks that completed inside the bucket.
    pub completions: u64,
    /// Tasks discarded inside the bucket.
    pub discards: u64,
    /// Placements inside the bucket.
    pub placements: u64,
    /// Σ waiting time over placements inside the bucket.
    pub wait_sum: u64,
}

/// Sliding-window live metrics for the open-system service driver
/// (`dreamsim serve`): a rolling sequence of fixed-length
/// [`WindowBucket`]s, with bounded retention of closed buckets and
/// lifetime peak counters that survive trimming. `None` in
/// [`Stats::window`] (every batch run) leaves the accumulator — and the
/// serialized checkpoint shape — untouched.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Bucket length, in ticks (nonzero).
    pub window: Ticks,
    /// How many closed buckets to retain; older ones are trimmed.
    pub retain: u64,
    /// The bucket currently accumulating.
    pub current: WindowBucket,
    /// Closed buckets, oldest first, at most `retain` of them.
    pub closed: Vec<WindowBucket>,
    /// Lifetime count of closed buckets (trimming does not decrement).
    pub closed_total: u64,
    /// Lifetime peak `arrivals` over closed buckets.
    pub peak_arrivals: u64,
    /// Lifetime peak `completions` over closed buckets.
    pub peak_completions: u64,
}

impl WindowStats {
    /// Fresh window accounting starting at tick 0.
    #[must_use]
    pub fn new(window: Ticks, retain: u64) -> Self {
        Self {
            window: window.max(1),
            retain: retain.max(1),
            current: WindowBucket::default(),
            closed: Vec::new(),
            closed_total: 0,
            peak_arrivals: 0,
            peak_completions: 0,
        }
    }

    /// Close every bucket that ends at or before `now` (simulated
    /// time), trimming retention as buckets close. Idempotent for a
    /// given `now`; callers roll before recording events at `now`.
    pub fn roll(&mut self, now: Ticks) {
        // BOUND: each iteration advances current.start by window >= 1,
        // so the loop runs at most (now - start) / window times.
        while self.current.start + self.window <= now {
            let next_start = self.current.start + self.window;
            let bucket = std::mem::take(&mut self.current);
            self.closed_total += 1;
            self.peak_arrivals = self.peak_arrivals.max(bucket.arrivals);
            self.peak_completions = self.peak_completions.max(bucket.completions);
            self.closed.push(bucket);
            // BOUND: retain >= 1, enforced in new().
            while self.closed.len() as u64 > self.retain {
                self.closed.remove(0);
            }
            self.current.start = next_start;
        }
    }
}

/// Selects how [`Stats`] accumulates the waiting-time distribution.
///
/// `Exact` (the seed behaviour and the default) keeps every placed
/// task's wait in [`Stats::wait_samples`] — one `u64` per task, O(n)
/// memory and O(n) checkpoint payload. `Sketch` replaces the vector
/// with the fixed-structure [`WaitSketch`]: O(1) memory in the task
/// count, exact percentiles up to [`WaitSketch::EXACT_WINDOW`] samples
/// and bounded-relative-error percentiles beyond
/// ([`WaitSketch::MAX_REL_ERROR_DENOM`]), which is what makes
/// million-task scale-ladder runs feasible.
///
/// The selection itself is derived state, but the sketch's *contents*
/// are real state and ride inside checkpoints ([`Stats::sketch`]); a resumed run continues
/// accumulating into the restored sketch. Switching a
/// collapsed sketch back to `Exact` is impossible (the individual
/// samples are gone) and is deliberately a no-op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StatsBackend {
    /// Per-task wait samples; exact percentiles (seed behaviour).
    #[default]
    Exact,
    /// Fixed-bucket log-histogram sketch; O(1) memory.
    Sketch,
}

impl StatsBackend {
    /// Parse a CLI flag value. Accepts `exact` and `sketch`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(Self::Exact),
            "sketch" => Some(Self::Sketch),
            _ => None,
        }
    }

    /// Stable label for reports and bench output.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::Sketch => "sketch",
        }
    }
}

/// Deterministic streaming quantile sketch over waiting times: a hybrid
/// of an exact window and a fixed-bucket base-2 log histogram (HDR
/// style, [`WaitSketch::SUB_BITS`] sub-bucket bits per octave).
///
/// The first [`WaitSketch::EXACT_WINDOW`] samples are kept verbatim, so
/// below that size every quantile — and therefore every report byte —
/// is identical to the `Exact` backend (the differential battery pins
/// this). The window overflow *collapses* the sketch: all samples move
/// into the histogram, later samples are bucketed directly, and
/// quantiles become bucket midpoints with relative error at most
/// `1 / MAX_REL_ERROR_DENOM` (plus 1 tick of integer slack; pinned by
/// the adversarial-distribution tests). The maximum is tracked exactly
/// in both regimes.
///
/// Everything is integer arithmetic over a fixed bucket layout, so the
/// collapsed state is independent of insertion order and serialization
/// is canonical: buckets are written sparsely as ascending
/// `[index, count]` pairs, bounding the checkpoint payload by the
/// bucket count — O(1) in the number of tasks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WaitSketch {
    /// Un-collapsed samples in insertion order (empty once collapsed).
    exact: Vec<Ticks>,
    /// Dense bucket counts; empty before collapse,
    /// [`Self::NUM_BUCKETS`] entries after.
    counts: Vec<u64>,
    /// Total samples recorded.
    count: u64,
    /// Exact maximum over all samples.
    max: Ticks,
}

impl WaitSketch {
    /// Samples kept exactly before the sketch collapses to buckets.
    pub const EXACT_WINDOW: usize = 4096;
    /// Sub-bucket bits per octave: 2^6 = 64 log-linear buckets per
    /// power of two.
    const SUB_BITS: u32 = 6;
    /// Values below this are their own (exact) bucket.
    const LINEAR_MAX: u64 = 1 << Self::SUB_BITS;
    /// Total fixed buckets: 64 linear + 64 per octave for the 58
    /// octaves from 2^6 through 2^63.
    // BOUND: LINEAR_MAX = 64 and SUB_BITS = 6, tiny constants.
    const NUM_BUCKETS: usize = (Self::LINEAR_MAX as usize) * (1 + 64 - Self::SUB_BITS as usize);
    /// Collapsed-quantile relative error is at most `1 / this` (plus
    /// one tick of integer rounding slack): bucket width over bucket
    /// base is `1 / 2^SUB_BITS`, and midpoints halve it.
    pub const MAX_REL_ERROR_DENOM: u64 = 1 << (Self::SUB_BITS + 1);

    /// Whether the exact window has collapsed into buckets.
    #[must_use]
    pub fn is_collapsed(&self) -> bool {
        !self.counts.is_empty()
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum over all samples (0 when empty).
    #[must_use]
    pub fn max(&self) -> Ticks {
        self.max
    }

    /// Bucket index for value `v`: identity below
    /// [`Self::LINEAR_MAX`], then 64 log-linear buckets per octave.
    /// Monotone non-decreasing in `v`, which is what lets the
    /// cumulative-count walk in [`Self::quantile`] respect rank order.
    fn bucket_index(v: Ticks) -> usize {
        if v < Self::LINEAR_MAX {
            // BOUND: v < 64, fits usize.
            v as usize
        } else {
            // v >= 64 has at most 57 leading zeros, so exp is in 6..=63.
            let exp = 63 - v.leading_zeros();
            // Top SUB_BITS bits after the leading one select the
            // sub-bucket; the shifted value is in [64, 128).
            // BOUND: (v >> (exp - 6)) < 128, fits usize.
            let sub = (v >> (exp - Self::SUB_BITS)) as usize - Self::LINEAR_MAX as usize;
            // BOUND: exp <= 63 and LINEAR_MAX = 64, so the product and
            // sum stay far below NUM_BUCKETS = 3776.
            Self::LINEAR_MAX as usize * (1 + exp as usize - Self::SUB_BITS as usize) + sub
        }
    }

    /// Representative (midpoint) value for bucket `idx` — the inverse
    /// of [`Self::bucket_index`] up to the pinned error bound.
    fn bucket_value(idx: usize) -> Ticks {
        // BOUND: LINEAR_MAX = 64, fits usize.
        let linear = Self::LINEAR_MAX as usize;
        if idx < linear {
            idx as u64
        } else {
            let octave = (idx - linear) / linear; // exp - SUB_BITS
            let sub = ((idx - linear) % linear) as u64;
            // BOUND: octave <= 57 and (64 + sub) <= 127, so the shifted
            // base and the added half-width both stay below 2^64.
            let lo = (Self::LINEAR_MAX + sub) << octave;
            let width = 1u64 << octave;
            lo + width / 2
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: Ticks) {
        self.count += 1;
        self.max = self.max.max(v);
        if self.counts.is_empty() {
            self.exact.push(v);
            if self.exact.len() > Self::EXACT_WINDOW {
                self.collapse();
            }
        } else {
            self.counts[Self::bucket_index(v)] += 1;
        }
    }

    /// Move every exact sample into the bucket array. Bucket counts are
    /// commutative, so the collapsed state — and its serialization — is
    /// independent of the order the samples arrived in (pinned by the
    /// insertion-order tests).
    fn collapse(&mut self) {
        self.counts = vec![0; Self::NUM_BUCKETS];
        for &v in &self.exact {
            self.counts[Self::bucket_index(v)] += 1;
        }
        self.exact = Vec::new();
    }

    /// Nearest-rank quantile, `p` in `[0, 1]`, using exactly the
    /// `Exact` backend's rank formula so the two backends agree to the
    /// byte while the window holds.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Ticks {
        if self.count == 0 {
            return 0;
        }
        // BOUND: p in [0,1], so the rank is at most count - 1.
        let rank = ((self.count - 1) as f64 * p).round() as u64;
        if self.counts.is_empty() {
            let mut sorted = self.exact.clone();
            // TIEBREAK: u64 keys — equal waits are indistinguishable,
            // so an unstable sort cannot reorder anything observable.
            sorted.sort_unstable();
            // BOUND: rank < count = exact.len() <= EXACT_WINDOW.
            sorted[rank as usize]
        } else {
            let mut seen = 0u64;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen > rank {
                    return Self::bucket_value(i);
                }
            }
            // Unreachable: collapsed bucket counts sum to `count`,
            // which exceeds every valid rank; the exact max is still a
            // correct answer for any quantile of a distribution.
            self.max
        }
    }

    /// Tear down an *un-collapsed* sketch into its samples, insertion
    /// order preserved (backend switch back to `Exact`).
    fn take_exact(&mut self) -> Vec<Ticks> {
        std::mem::take(&mut self.exact)
    }
}

// Manual serde: the dense bucket array is written sparsely (ascending
// `[index, count]` pairs, nonzero only), bounding serialized size by
// the fixed bucket count rather than the task count, and making the
// encoding canonical — two sketches holding the same distribution
// serialize to identical bytes.
impl Serialize for WaitSketch {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"count\":");
        self.count.write_json(out);
        out.push_str(",\"max\":");
        self.max.write_json(out);
        out.push_str(",\"collapsed\":");
        self.is_collapsed().write_json(out);
        out.push_str(",\"exact\":");
        self.exact.write_json(out);
        out.push_str(",\"buckets\":");
        let buckets = self.counts.iter().enumerate().filter(|&(_, &c)| c != 0);
        serde::write_seq(out, buckets.map(|(i, &c)| (i as u64, c)));
        out.push('}');
    }
}

impl Deserialize for WaitSketch {
    fn read_json(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (mut count, mut max, mut collapsed, mut exact, mut pairs) =
            (None, None, None, None, None);
        let mut map = r
            .map()
            .map_err(|_| serde::Error::custom("WaitSketch: expected object"))?;
        while let Some(key) = map.next_key(r)? {
            match &*key {
                "count" if count.is_none() => count = Some(u64::read_json(r)?),
                "max" if max.is_none() => max = Some(Ticks::read_json(r)?),
                "collapsed" if collapsed.is_none() => {
                    let bool_error =
                        |_| serde::Error::custom("WaitSketch: collapsed must be a bool");
                    collapsed = Some(r.bool().map_err(bool_error)?);
                }
                "exact" if exact.is_none() => exact = Some(Vec::<Ticks>::read_json(r)?),
                // Checked against `collapsed` below: fields come in any order.
                "buckets" if pairs.is_none() => pairs = Some(read_buckets(r)?),
                _ => r.skip_value()?,
            }
        }
        let missing = |k: &str| serde::Error::custom(format!("WaitSketch: missing {k}"));
        let count = count.ok_or_else(|| missing("count"))?;
        let max = max.ok_or_else(|| missing("max"))?;
        let collapsed = collapsed.ok_or_else(|| missing("collapsed"))?;
        let exact = exact.ok_or_else(|| missing("exact"))?;
        let pairs = pairs.ok_or_else(|| missing("buckets"))?;
        let mut counts = if collapsed {
            vec![0u64; Self::NUM_BUCKETS]
        } else {
            Vec::new()
        };
        let mut bucket_total = 0u64;
        let mut last_idx: Option<u64> = None;
        for (idx, c) in pairs {
            if !collapsed || idx >= Self::NUM_BUCKETS as u64 || c == 0 {
                return Err(serde::Error::custom(format!(
                    "WaitSketch: invalid bucket entry [{idx}, {c}]"
                )));
            }
            if last_idx.is_some_and(|prev| prev >= idx) {
                return Err(serde::Error::custom(
                    "WaitSketch: bucket indices must be strictly ascending",
                ));
            }
            last_idx = Some(idx);
            // BOUND: idx checked against NUM_BUCKETS above.
            counts[idx as usize] = c;
            bucket_total += c;
        }
        let held = if collapsed {
            bucket_total
        } else {
            exact.len() as u64
        };
        if held != count {
            return Err(serde::Error::custom(format!(
                "WaitSketch: holds {held} samples but count says {count}"
            )));
        }
        Ok(Self {
            exact,
            counts,
            count,
            max,
        })
    }
}

/// The sparse `[[index, count], ..]` bucket pairs of a [`WaitSketch`].
fn read_buckets(r: &mut serde::Reader<'_>) -> Result<Vec<(u64, u64)>, serde::Error> {
    let mut pairs = Vec::new();
    let mut seq = r
        .seq()
        .map_err(|_| serde::Error::custom("WaitSketch: buckets must be an array"))?;
    while seq.next(r)? {
        let shape = || serde::Error::custom("WaitSketch: bucket must be [index, count]");
        let mut parts = r.seq().map_err(|_| shape())?;
        let mut next = |r: &mut serde::Reader<'_>| parts.next(r)?.then_some(()).ok_or_else(shape);
        next(r)?;
        let idx = u64::read_json(r)?;
        next(r)?;
        let c = u64::read_json(r)?;
        if parts.next(r)? {
            return Err(shape());
        }
        pairs.push((idx, c));
    }
    Ok(pairs)
}

/// Running accumulator over one simulation.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    /// Tasks created (`TotalCurGenTasks` → `TotalTasks`).
    pub generated: u64,
    /// Tasks completed (`TotalCompletedTasks`).
    pub completed: u64,
    /// Tasks discarded (`TotalDiscardedTasks`).
    pub discarded: u64,
    /// Placements per phase.
    pub phases: PhaseCounts,
    /// Per-allocation wasted-area accumulation (`Total_Wasted_Area`).
    pub total_wasted_area: u64,
    /// Σ `twait` over placed tasks (`Total_Task_Wait_Time`, Eq. 8).
    pub total_wait: u64,
    /// Σ (completion − creation) over completed tasks
    /// (`Total_Tasks_Running_Time`).
    pub total_running_time: u64,
    /// Σ configuration time paid (`Total_Configuration_Time`; equals
    /// Eq. 10 because every reconfiguration is charged as it happens).
    pub total_config_time: u64,
    /// Tasks killed by injected node failures (extension).
    pub failure_killed: u64,
    /// Node failures injected (extension).
    pub node_failures: u64,
    /// Bitstream loads that failed (fault-injection extension).
    pub reconfig_failures: u64,
    /// Reconfiguration retries scheduled after failed bitstream loads
    /// (fault-injection extension).
    pub reconfig_retries: u64,
    /// Tasks that failed mid-execution (fault-injection extension).
    pub task_failures: u64,
    /// Fault-killed tasks resubmitted to the scheduler (fault-injection
    /// extension).
    pub resubmissions: u64,
    /// Tasks discarded because of injected faults: killed by node
    /// failures, failed beyond the retry budget, or timed out in the
    /// suspension queue (fault-injection extension).
    pub tasks_lost: u64,
    /// Tasks shed by load-shedding: admission-policy rejections plus
    /// suspension-deadline timeouts (chaos-layer extension).
    #[serde(default)]
    pub tasks_shed: u64,
    /// Tasks placed degraded — on a strictly larger configuration — by
    /// the `degrade-to-closest-match` admission policy (chaos-layer
    /// extension).
    #[serde(default)]
    pub tasks_degraded: u64,
    /// Every placed task's waiting time, for distribution statistics
    /// (P50/P95/P99 in [`Metrics`]); one `u64` per placed task.
    // REBUILD: not silently defaulted — `Checkpoint` carries its own
    // `wait_samples` copy and `Simulation::resume` writes it back, so a
    // resumed run reports identical percentiles (pinned by the
    // byte-identical-resume tests).
    #[serde(skip)]
    pub wait_samples: Vec<Ticks>,
    /// Streaming waiting-time sketch ([`StatsBackend::Sketch`]); `None`
    /// under the default `Exact` backend, which keeps exact-mode
    /// checkpoints byte-identical to the seed. Unlike `wait_samples`
    /// the sketch *is* serialized — it is O(1)-sized — so checkpoints
    /// carry it directly and resume needs no rebuild step.
    #[serde(default)]
    pub sketch: Option<WaitSketch>,
    /// Sliding-window live metrics (service mode only; `None` in batch
    /// runs, which keeps batch checkpoints shape-stable).
    #[serde(default)]
    pub window: Option<WindowStats>,
}

impl Stats {
    /// A copy without [`wait_samples`](Self::wait_samples), for a
    /// checkpoint: serde skips them here, and the checkpoint carries its
    /// one copy beside.
    pub(crate) fn clone_without_samples(&self) -> Self {
        Self {
            wait_samples: Vec::new(),
            sketch: self.sketch.clone(),
            window: self.window.clone(),
            ..*self
        }
    }

    /// Record a task arrival.
    pub fn record_arrival(&mut self) {
        self.generated += 1;
        if let Some(w) = &mut self.window {
            w.current.arrivals += 1;
        }
    }

    /// Record a placement: the phase that produced it, the waiting time
    /// (Eq. 8), the configuration time paid, the chosen node's leftover
    /// area, and whether the task came from the suspension queue.
    pub fn record_placement(
        &mut self,
        phase: PhaseKind,
        wait: Ticks,
        config_time: Ticks,
        wasted_after: Area,
        resumed: bool,
    ) {
        self.phases.bump(phase);
        if resumed {
            self.phases.resumed += 1;
        }
        self.total_wait += wait;
        self.total_config_time += config_time;
        // BOUND: per-task wasted area <= node area (Table II <= 4000); sum far below 2^64.
        self.total_wasted_area += wasted_after;
        if let Some(sk) = &mut self.sketch {
            sk.record(wait);
        } else {
            self.wait_samples.push(wait);
        }
        if let Some(w) = &mut self.window {
            w.current.placements += 1;
            w.current.wait_sum += wait;
        }
    }

    /// The active waiting-time accumulation backend.
    #[must_use]
    pub fn backend(&self) -> StatsBackend {
        if self.sketch.is_some() {
            StatsBackend::Sketch
        } else {
            StatsBackend::Exact
        }
    }

    /// Switch the waiting-time backend in place.
    ///
    /// `Exact → Sketch` re-records every held sample into a fresh
    /// sketch (lossless: the sketch keeps an exact window far larger
    /// than any single conversion source) and frees the sample vector.
    /// `Sketch → Exact` restores the samples while the sketch is still
    /// un-collapsed; a *collapsed* sketch no longer has them, so the
    /// request is deliberately a no-op (see [`StatsBackend`]).
    pub fn set_backend(&mut self, backend: StatsBackend) {
        match backend {
            StatsBackend::Sketch => {
                if self.sketch.is_none() {
                    let mut sk = WaitSketch::default();
                    for &w in &self.wait_samples {
                        sk.record(w);
                    }
                    self.wait_samples = Vec::new();
                    self.sketch = Some(sk);
                }
            }
            StatsBackend::Exact => {
                if let Some(sk) = &mut self.sketch {
                    if !sk.is_collapsed() {
                        self.wait_samples = sk.take_exact();
                        self.sketch = None;
                    }
                }
            }
        }
    }

    /// Record a completion with the task's total residence time
    /// (creation → completion).
    pub fn record_completion(&mut self, residence: Ticks) {
        self.completed += 1;
        self.total_running_time += residence;
        if let Some(w) = &mut self.window {
            w.current.completions += 1;
        }
    }

    /// Record a discard.
    pub fn record_discard(&mut self) {
        self.discarded += 1;
        if let Some(w) = &mut self.window {
            w.current.discards += 1;
        }
    }

    /// Record a failed bitstream load. The configuration time was already
    /// spent on the aborted attempt, so it is charged to
    /// `total_config_time` just like a successful reconfiguration
    /// (Eq. 10 counts time paid, not configurations achieved).
    pub fn record_reconfig_failure(&mut self, config_time: Ticks) {
        self.reconfig_failures += 1;
        self.total_config_time += config_time;
    }

    /// Finalize into the Table I metric set.
    #[must_use]
    pub fn finalize(
        &self,
        params: &SimParams,
        steps: StepCounter,
        end_time: Ticks,
        wasted_area_snapshot_end: Area,
        total_reconfigurations: u64,
        used_nodes: usize,
        total_suspensions: u64,
        suspension_peak: usize,
        mean_fragmentation_end: f64,
        node_downtime: Ticks,
    ) -> Metrics {
        let per_task = |x: u64| {
            if self.generated == 0 {
                0.0
            } else {
                x as f64 / self.generated as f64
            }
        };
        let (wait_p50, wait_p95, wait_p99, wait_max) = if let Some(sk) = &self.sketch {
            // Sketch backend: same nearest-rank formula, so identical
            // bytes while the exact window holds (differential-tested);
            // bounded-error midpoints beyond, exact max always.
            (
                sk.quantile(0.50),
                sk.quantile(0.95),
                sk.quantile(0.99),
                sk.max(),
            )
        } else {
            let mut waits = self.wait_samples.clone();
            // TIEBREAK: u64 keys — equal waits are indistinguishable, so an
            // unstable sort cannot reorder anything observable.
            waits.sort_unstable();
            let pct = |p: f64| -> Ticks {
                if waits.is_empty() {
                    0
                } else {
                    // BOUND: p in [0,1], so the index is at most waits.len() - 1.
                    let idx = ((waits.len() - 1) as f64 * p).round() as usize;
                    waits[idx]
                }
            };
            (
                pct(0.50),
                pct(0.95),
                pct(0.99),
                waits.last().copied().unwrap_or(0),
            )
        };
        Metrics {
            mode: params.mode.label().to_string(),
            total_nodes: params.total_nodes as u64,
            total_tasks_generated: self.generated,
            total_tasks_completed: self.completed,
            total_discarded_tasks: self.discarded,
            total_suspensions,
            suspension_peak_len: suspension_peak as u64,
            avg_wasted_area_per_task: per_task(self.total_wasted_area),
            wasted_area_snapshot_end,
            avg_running_time_per_task: if self.completed == 0 {
                0.0
            } else {
                self.total_running_time as f64 / self.completed as f64
            },
            avg_reconfig_count_per_node: total_reconfigurations as f64 / params.total_nodes as f64,
            total_reconfigurations,
            avg_config_time_per_task: per_task(self.total_config_time),
            total_config_time: self.total_config_time,
            avg_waiting_time_per_task: per_task(self.total_wait),
            wait_p50,
            wait_p95,
            wait_p99,
            wait_max,
            avg_scheduling_steps_per_task: per_task(steps.scheduling),
            scheduler_search_length: steps.scheduling,
            housekeeping_steps: steps.housekeeping,
            total_scheduler_workload: steps.total_workload(),
            total_used_nodes: used_nodes as u64,
            total_simulation_time: end_time,
            phases: self.phases,
            failure_killed: self.failure_killed,
            node_failures: self.node_failures,
            reconfig_failures: self.reconfig_failures,
            reconfig_retries: self.reconfig_retries,
            task_failures: self.task_failures,
            resubmissions: self.resubmissions,
            tasks_lost: self.tasks_lost,
            tasks_shed: self.tasks_shed,
            tasks_degraded: self.tasks_degraded,
            node_downtime,
            mean_fragmentation_end,
            domain_outages: 0,
            domain_restores: 0,
            domain_downtime: Vec::new(),
            mean_time_to_recover: 0.0,
            windows_closed: self.window.as_ref().map_or(0, |w| w.closed_total),
            window_peak_arrivals: self.window.as_ref().map_or(0, |w| w.peak_arrivals),
            window_peak_completions: self.window.as_ref().map_or(0, |w| w.peak_completions),
        }
    }
}

/// The finalized Table I metric set for one run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Reconfiguration mode label ("full" / "partial").
    pub mode: String,
    /// Node count the run used.
    pub total_nodes: u64,
    /// Tasks generated.
    pub total_tasks_generated: u64,
    /// Tasks completed.
    pub total_tasks_completed: u64,
    /// Table I: *Total discarded tasks*.
    pub total_discarded_tasks: u64,
    /// Number of suspensions performed.
    pub total_suspensions: u64,
    /// Peak suspension-queue length.
    pub suspension_peak_len: u64,
    /// Table I: *Average wasted area per task* (Eq. 7, per-allocation
    /// accumulation).
    pub avg_wasted_area_per_task: f64,
    /// Literal Eq. 6 snapshot at end of run.
    pub wasted_area_snapshot_end: Area,
    /// Table I: *Average running time of each task* (arrival →
    /// completion).
    pub avg_running_time_per_task: f64,
    /// Table I: *Average reconfiguration count per node*.
    pub avg_reconfig_count_per_node: f64,
    /// Total reconfigurations across all nodes.
    pub total_reconfigurations: u64,
    /// Table I: *Average reconfiguration time per task* (Eq. 10 / tasks).
    pub avg_config_time_per_task: f64,
    /// Total configuration time paid (Eq. 10).
    pub total_config_time: Ticks,
    /// Table I: *Average waiting time per task* (Eq. 9).
    pub avg_waiting_time_per_task: f64,
    /// Median waiting time over placed tasks (distribution extension).
    pub wait_p50: Ticks,
    /// 95th-percentile waiting time over placed tasks.
    pub wait_p95: Ticks,
    /// 99th-percentile waiting time over placed tasks.
    pub wait_p99: Ticks,
    /// Maximum waiting time over placed tasks.
    pub wait_max: Ticks,
    /// Table I: *Average scheduling steps per task*.
    pub avg_scheduling_steps_per_task: f64,
    /// Scheduler search length (`Total_Search_Length_Scheduler`).
    pub scheduler_search_length: u64,
    /// Housekeeping steps by the resource information module.
    pub housekeeping_steps: u64,
    /// Table I: *Total scheduler workload* (search + housekeeping).
    pub total_scheduler_workload: u64,
    /// Table I: *Total used nodes* (nodes configured at least once).
    pub total_used_nodes: u64,
    /// Table I: *Total simulation time* (Eq. 5).
    pub total_simulation_time: Ticks,
    /// Placements per algorithmic phase.
    pub phases: PhaseCounts,
    /// Tasks killed by injected node failures (0 in paper runs).
    pub failure_killed: u64,
    /// Node failures injected (0 in paper runs).
    pub node_failures: u64,
    /// Bitstream loads that failed (0 in paper runs).
    #[serde(default)]
    pub reconfig_failures: u64,
    /// Reconfiguration retries scheduled after failed loads (0 in paper
    /// runs).
    #[serde(default)]
    pub reconfig_retries: u64,
    /// Tasks that failed mid-execution (0 in paper runs).
    #[serde(default)]
    pub task_failures: u64,
    /// Fault-killed tasks resubmitted to the scheduler (0 in paper runs).
    #[serde(default)]
    pub resubmissions: u64,
    /// Tasks discarded because of injected faults (0 in paper runs).
    #[serde(default)]
    pub tasks_lost: u64,
    /// Tasks shed by load-shedding — admission-policy rejections plus
    /// suspension-deadline timeouts (0 in paper runs).
    #[serde(default)]
    pub tasks_shed: u64,
    /// Tasks placed degraded on a strictly larger configuration by the
    /// `degrade-to-closest-match` admission policy (0 in paper runs).
    #[serde(default)]
    pub tasks_degraded: u64,
    /// Total ticks nodes spent failed, summed over nodes (0 in paper
    /// runs).
    #[serde(default)]
    pub node_downtime: Ticks,
    /// Mean external fragmentation over configured nodes at the end of
    /// the run (always 0 under the paper's scalar area model; nonzero
    /// only with `PlacementModel::Contiguous`).
    pub mean_fragmentation_end: f64,
    /// Correlated domain outages that started (0 without `--domains`).
    #[serde(default)]
    pub domain_outages: u64,
    /// Domain outages that completed — the domain was restored — before
    /// the run ended (0 without `--domains`).
    #[serde(default)]
    pub domain_restores: u64,
    /// Downtime per failure domain in ticks; open outages accrue to the
    /// end of the run. Empty without `--domains`.
    #[serde(default)]
    pub domain_downtime: Vec<Ticks>,
    /// Mean time-to-recover over completed domain outages (0 when none
    /// completed).
    #[serde(default)]
    pub mean_time_to_recover: f64,
    /// Sliding-window buckets closed over the service window (0 in
    /// batch runs).
    #[serde(default)]
    pub windows_closed: u64,
    /// Lifetime peak arrivals in one sliding-window bucket (0 in batch
    /// runs).
    #[serde(default)]
    pub window_peak_arrivals: u64,
    /// Lifetime peak completions in one sliding-window bucket (0 in
    /// batch runs).
    #[serde(default)]
    pub window_peak_completions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ReconfigMode;

    fn finalize(stats: &Stats, steps: StepCounter) -> Metrics {
        let params = SimParams::paper(100, 1000, ReconfigMode::Partial);
        stats.finalize(&params, steps, 5_000, 1234, 321, 77, 12, 4, 0.0, 0)
    }

    #[test]
    fn averages_divide_by_generated_tasks() {
        let mut s = Stats::default();
        for _ in 0..10 {
            s.record_arrival();
        }
        for i in 0..8 {
            s.record_placement(PhaseKind::Allocation, 100 + i, 10, 50, false);
        }
        let m = finalize(
            &s,
            StepCounter {
                scheduling: 500,
                housekeeping: 300,
            },
        );
        assert_eq!(m.total_tasks_generated, 10);
        // Σ wait = 8*100 + (0+..+7) = 828; /10 generated.
        assert!((m.avg_waiting_time_per_task - 82.8).abs() < 1e-9);
        assert!((m.avg_config_time_per_task - 8.0).abs() < 1e-9);
        assert!((m.avg_wasted_area_per_task - 40.0).abs() < 1e-9);
        assert!((m.avg_scheduling_steps_per_task - 50.0).abs() < 1e-9);
        assert_eq!(m.total_scheduler_workload, 800);
    }

    #[test]
    fn running_time_divides_by_completed() {
        let mut s = Stats::default();
        s.record_arrival();
        s.record_arrival();
        s.record_completion(1000);
        let m = finalize(&s, StepCounter::default());
        assert!((m.avg_running_time_per_task - 1000.0).abs() < 1e-9);
        assert_eq!(m.total_tasks_completed, 1);
    }

    #[test]
    fn reconfig_count_divides_by_node_count() {
        let s = Stats::default();
        let m = finalize(&s, StepCounter::default());
        // 321 reconfigs over 100 nodes.
        assert!((m.avg_reconfig_count_per_node - 3.21).abs() < 1e-9);
        assert_eq!(m.total_used_nodes, 77);
        assert_eq!(m.total_simulation_time, 5_000);
        assert_eq!(m.wasted_area_snapshot_end, 1234);
        assert_eq!(m.total_suspensions, 12);
        assert_eq!(m.suspension_peak_len, 4);
    }

    #[test]
    fn empty_run_produces_zeroes_not_nan() {
        let s = Stats::default();
        let m = finalize(&s, StepCounter::default());
        assert_eq!(m.avg_waiting_time_per_task, 0.0);
        assert_eq!(m.avg_running_time_per_task, 0.0);
        assert!(!m.avg_wasted_area_per_task.is_nan());
    }

    #[test]
    fn phase_counts_track_every_phase() {
        let mut s = Stats::default();
        s.record_placement(PhaseKind::Allocation, 0, 0, 0, false);
        s.record_placement(PhaseKind::Configuration, 0, 15, 0, false);
        s.record_placement(PhaseKind::PartialConfiguration, 0, 15, 0, true);
        s.record_placement(PhaseKind::PartialReconfiguration, 0, 15, 0, false);
        assert_eq!(s.phases.total(), 4);
        assert_eq!(s.phases.resumed, 1);
        assert_eq!(s.phases.allocation, 1);
        assert_eq!(s.phases.configuration, 1);
        assert_eq!(s.phases.partial_configuration, 1);
        assert_eq!(s.phases.partial_reconfiguration, 1);
        assert_eq!(s.total_config_time, 45);
    }

    #[test]
    fn wait_percentiles_computed_from_samples() {
        let mut s = Stats::default();
        for w in 1..=100u64 {
            s.record_arrival();
            s.record_placement(PhaseKind::Allocation, w, 0, 0, false);
        }
        let m = finalize(&s, StepCounter::default());
        // Nearest-rank on the 0-based index grid: round(99·0.5) = 50 →
        // the 51st order statistic.
        assert_eq!(m.wait_p50, 51);
        assert_eq!(m.wait_p95, 95);
        assert_eq!(m.wait_p99, 99);
        assert_eq!(m.wait_max, 100);
    }

    #[test]
    fn wait_percentiles_zero_when_nothing_placed() {
        let m = finalize(&Stats::default(), StepCounter::default());
        assert_eq!(m.wait_p50, 0);
        assert_eq!(m.wait_max, 0);
    }

    #[test]
    fn reconfig_failure_charges_config_time() {
        let mut s = Stats::default();
        s.record_reconfig_failure(15);
        s.record_reconfig_failure(15);
        assert_eq!(s.reconfig_failures, 2);
        assert_eq!(s.total_config_time, 30);
    }

    #[test]
    fn fault_counters_flow_into_metrics() {
        let mut s = Stats::default();
        s.record_reconfig_failure(15);
        s.reconfig_retries = 3;
        s.task_failures = 4;
        s.resubmissions = 5;
        s.tasks_lost = 2;
        let params = SimParams::paper(100, 1000, ReconfigMode::Partial);
        let m = s.finalize(
            &params,
            StepCounter::default(),
            5_000,
            0,
            0,
            0,
            0,
            0,
            0.0,
            777,
        );
        assert_eq!(m.reconfig_failures, 1);
        assert_eq!(m.reconfig_retries, 3);
        assert_eq!(m.task_failures, 4);
        assert_eq!(m.resubmissions, 5);
        assert_eq!(m.tasks_lost, 2);
        assert_eq!(m.node_downtime, 777);
    }

    #[test]
    fn window_buckets_roll_trim_and_track_peaks() {
        let mut s = Stats::default();
        s.window = Some(WindowStats::new(100, 2));
        for _ in 0..3 {
            s.record_arrival();
        }
        s.record_placement(PhaseKind::Allocation, 7, 0, 0, false);
        s.record_completion(50);
        let w = s.window.as_mut().unwrap();
        w.roll(100);
        assert_eq!(w.closed.len(), 1);
        assert_eq!(w.closed[0].arrivals, 3);
        assert_eq!(w.closed[0].placements, 1);
        assert_eq!(w.closed[0].wait_sum, 7);
        assert_eq!(w.closed[0].completions, 1);
        assert_eq!(w.current.start, 100);
        s.record_arrival();
        let w = s.window.as_mut().unwrap();
        // A long quiet gap closes (and trims) several empty buckets at once.
        w.roll(450);
        assert_eq!(w.closed.len(), 2);
        assert_eq!(w.closed_total, 4);
        assert_eq!(w.current.start, 400);
        assert_eq!(w.peak_arrivals, 3);
        assert_eq!(w.peak_completions, 1);
        // Rolling again at the same clock is a no-op.
        let before = w.clone();
        w.roll(450);
        assert_eq!(*w, before);
        let m = finalize(&s, StepCounter::default());
        assert_eq!(m.windows_closed, 4);
        assert_eq!(m.window_peak_arrivals, 3);
        assert_eq!(m.window_peak_completions, 1);
    }

    #[test]
    fn window_stats_absent_in_batch_metrics() {
        let m = finalize(&Stats::default(), StepCounter::default());
        assert_eq!(m.windows_closed, 0);
        assert_eq!(m.window_peak_arrivals, 0);
        assert_eq!(m.window_peak_completions, 0);
    }

    #[test]
    fn metrics_serde_round_trip() {
        let s = Stats::default();
        let m = finalize(&s, StepCounter::default());
        let js = serde_json::to_string(&m).unwrap();
        let back: Metrics = serde_json::from_str(&js).unwrap();
        assert_eq!(m, back);
    }

    // ---- WaitSketch battery -------------------------------------------

    /// Exact nearest-rank quantile on a sample set, mirroring the
    /// `Exact` backend's formula.
    fn exact_quantile(samples: &[Ticks], p: f64) -> Ticks {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    }

    fn sketch_of(samples: &[Ticks]) -> WaitSketch {
        let mut sk = WaitSketch::default();
        for &v in samples {
            sk.record(v);
        }
        sk
    }

    /// Deterministic splitmix64 stream for sample generation.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    const PCTS: [f64; 3] = [0.50, 0.95, 0.99];

    #[test]
    fn stats_backend_parse_and_label_round_trip() {
        for b in [StatsBackend::Exact, StatsBackend::Sketch] {
            assert_eq!(StatsBackend::parse(b.label()), Some(b));
        }
        assert_eq!(StatsBackend::parse("p2"), None);
        assert_eq!(StatsBackend::default(), StatsBackend::Exact);
    }

    #[test]
    fn sketch_matches_exact_backend_below_window() {
        // The flagship identity: while the exact window holds, sketch
        // percentiles equal the Exact backend's to the byte — including
        // the engine-realistic case of heavy ties and zeros.
        let mut state = 7u64;
        let samples: Vec<Ticks> = (0..WaitSketch::EXACT_WINDOW)
            .map(|_| match splitmix(&mut state) % 5 {
                0 => 0,
                1 => splitmix(&mut state) % 10,
                _ => splitmix(&mut state) % 2_000,
            })
            .collect();
        let sk = sketch_of(&samples);
        assert!(!sk.is_collapsed());
        for p in PCTS {
            assert_eq!(sk.quantile(p), exact_quantile(&samples, p));
        }
        assert_eq!(sk.max(), *samples.iter().max().unwrap());

        // And through a whole Stats accumulator: identical percentile
        // fields in the finalized metrics.
        let mut exact = Stats::default();
        let mut sketchy = Stats::default();
        sketchy.set_backend(StatsBackend::Sketch);
        for &w in &samples {
            exact.record_placement(PhaseKind::Allocation, w, 0, 0, false);
            sketchy.record_placement(PhaseKind::Allocation, w, 0, 0, false);
        }
        let (me, ms) = (
            finalize(&exact, StepCounter::default()),
            finalize(&sketchy, StepCounter::default()),
        );
        assert_eq!(
            (me.wait_p50, me.wait_p95, me.wait_p99, me.wait_max),
            (ms.wait_p50, ms.wait_p95, ms.wait_p99, ms.wait_max)
        );
    }

    #[test]
    fn collapsed_sketch_is_insertion_order_independent() {
        // Three engine-producible arrival orders of the same multiset —
        // ascending (drained suspension queue), descending, and
        // hash-shuffled (interleaved completions) — must produce
        // identical quantiles AND identical serialized bytes once
        // collapsed.
        let n = 3 * WaitSketch::EXACT_WINDOW;
        let base: Vec<Ticks> = (0..n as u64).map(|i| (i * i) % 50_000).collect();
        let mut ascending = base.clone();
        ascending.sort_unstable(); // TIEBREAK: u64 keys, ties identical
        let descending: Vec<Ticks> = ascending.iter().rev().copied().collect();
        let mut shuffled = base.clone();
        let mut state = 41u64;
        for i in (1..shuffled.len()).rev() {
            // BOUND: modulus keeps the index within 0..=i.
            shuffled.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        let (a, b, c) = (
            sketch_of(&ascending),
            sketch_of(&descending),
            sketch_of(&shuffled),
        );
        assert!(a.is_collapsed());
        assert_eq!(a, b);
        assert_eq!(a, c);
        let bytes = serde_json::to_string(&a).unwrap();
        assert_eq!(bytes, serde_json::to_string(&b).unwrap());
        assert_eq!(bytes, serde_json::to_string(&c).unwrap());
        for p in PCTS {
            assert_eq!(a.quantile(p), b.quantile(p));
            assert_eq!(a.quantile(p), c.quantile(p));
        }
    }

    #[test]
    fn sketch_serde_round_trips_byte_identically_in_both_regimes() {
        let mut state = 97u64;
        for n in [0usize, 100, WaitSketch::EXACT_WINDOW + 1000] {
            let samples: Vec<Ticks> = (0..n).map(|_| splitmix(&mut state) % 1_000_000).collect();
            let sk = sketch_of(&samples);
            let js = serde_json::to_string(&sk).unwrap();
            let back: WaitSketch = serde_json::from_str(&js).unwrap();
            assert_eq!(sk, back);
            assert_eq!(js, serde_json::to_string(&back).unwrap());
            for p in PCTS {
                assert_eq!(sk.quantile(p), back.quantile(p));
            }
        }
    }

    #[test]
    fn sketch_rejects_corrupt_encodings() {
        let sk = sketch_of(&(0..5000u64).collect::<Vec<_>>());
        let js = serde_json::to_string(&sk).unwrap();
        // Bucket entries in an un-collapsed sketch, out-of-range
        // indices, zero counts, and count mismatches must all fail
        // loudly rather than deserialize into a lying sketch.
        for bad in [
            js.replace("\"collapsed\":true", "\"collapsed\":false"),
            js.replace("\"count\":5000", "\"count\":4999"),
        ] {
            assert!(
                serde_json::from_str::<WaitSketch>(&bad).is_err(),
                "corrupt sketch must not deserialize: {bad:.60}"
            );
        }
    }

    #[test]
    fn sketch_error_bounds_pinned_on_adversarial_distributions() {
        // Constant, bimodal, and heavy-tail sample sets, all past the
        // collapse point: every percentile must land within the
        // documented relative error of the true nearest-rank value,
        // and the max must be exact.
        let n = WaitSketch::EXACT_WINDOW * 2;
        let constant: Vec<Ticks> = vec![123_457; n];
        let bimodal: Vec<Ticks> = (0..n)
            .map(|i| if i % 2 == 0 { 10 } else { 5_000_000 })
            .collect();
        let mut state = 1234u64;
        let heavy_tail: Vec<Ticks> = (0..n)
            .map(|_| {
                // Pareto-ish: a power of two drawn log-uniformly up to
                // 2^40, times a small jitter — spans 12 octaves.
                let exp = splitmix(&mut state) % 40;
                (1u64 << exp) + splitmix(&mut state) % (1 << exp.min(20))
            })
            .collect();
        for samples in [&constant, &bimodal, &heavy_tail] {
            let sk = sketch_of(samples);
            assert!(sk.is_collapsed());
            assert_eq!(sk.max(), *samples.iter().max().unwrap(), "max stays exact");
            for p in PCTS {
                let truth = exact_quantile(samples, p);
                let got = sk.quantile(p);
                let tolerance = truth / WaitSketch::MAX_REL_ERROR_DENOM + 1;
                assert!(
                    got.abs_diff(truth) <= tolerance,
                    "p{p}: sketch {got} vs exact {truth} exceeds ±{tolerance}"
                );
            }
        }
    }

    #[test]
    fn sketch_checkpoint_payload_is_flat_in_sample_count() {
        // The O(n) memory-hazard regression (satellite: checkpoint size
        // must be flat across the ladder): 100× more samples may not
        // grow the serialized sketch beyond the fixed bucket budget.
        let mut state = 5u64;
        let small = {
            let samples: Vec<Ticks> = (0..10_000)
                .map(|_| splitmix(&mut state) % 100_000)
                .collect();
            serde_json::to_string(&sketch_of(&samples)).unwrap().len()
        };
        let large = {
            let samples: Vec<Ticks> = (0..1_000_000)
                .map(|_| splitmix(&mut state) % 100_000)
                .collect();
            serde_json::to_string(&sketch_of(&samples)).unwrap().len()
        };
        // Every possible bucket of the 100k-range distribution is
        // already populated at 10k samples; the only growth left is
        // digit width on the counts.
        assert!(
            large < small * 2,
            "sketch payload must be flat: {small} bytes at 10k, {large} at 1M"
        );
        // Hard ceiling: sparse encoding is bounded by the bucket count,
        // regardless of the sample count.
        assert!(
            large < 40_000,
            "collapsed sketch payload too large: {large}"
        );
    }

    #[test]
    fn stats_backend_conversions_are_lossless_until_collapse() {
        let mut s = Stats::default();
        for w in [5u64, 9, 9, 1_000, 77] {
            s.record_placement(PhaseKind::Allocation, w, 0, 0, false);
        }
        let before = finalize(&s, StepCounter::default());
        s.set_backend(StatsBackend::Sketch);
        assert_eq!(s.backend(), StatsBackend::Sketch);
        assert!(s.wait_samples.is_empty(), "samples moved into the sketch");
        let via_sketch = finalize(&s, StepCounter::default());
        assert_eq!(before, via_sketch);
        // Round-trip back while un-collapsed: insertion order restored.
        s.set_backend(StatsBackend::Exact);
        assert_eq!(s.backend(), StatsBackend::Exact);
        assert_eq!(s.wait_samples, vec![5, 9, 9, 1_000, 77]);
        // Collapse, then demand Exact: deliberately refused.
        s.set_backend(StatsBackend::Sketch);
        for _ in 0..=WaitSketch::EXACT_WINDOW {
            s.record_placement(PhaseKind::Allocation, 3, 0, 0, false);
        }
        assert!(s.sketch.as_ref().unwrap().is_collapsed());
        s.set_backend(StatsBackend::Exact);
        assert_eq!(
            s.backend(),
            StatsBackend::Sketch,
            "a collapsed sketch cannot be expanded back to samples"
        );
    }

    #[test]
    fn exact_mode_stats_serialization_is_unchanged_by_sketch_field() {
        // Exact-mode checkpoints must stay byte-compatible with the
        // seed: the sketch field is None and a deserializer that has
        // never heard of it (simulated by deleting the key) still
        // produces the same accumulator.
        let mut s = Stats::default();
        s.record_arrival();
        s.record_placement(PhaseKind::Configuration, 4, 15, 100, false);
        let js = serde_json::to_string(&s).unwrap();
        assert!(js.contains("\"sketch\":null"));
        let legacy = js.replace("\"sketch\":null,", "");
        let back: Stats = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.sketch, None);
        assert_eq!(back.generated, s.generated);
        assert_eq!(back.phases, s.phases);
    }
}
