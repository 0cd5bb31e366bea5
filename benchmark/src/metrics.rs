//! The benchmark's metric definitions and the statistics over runs.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; a test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Relative regression bound: a change may worsen the median by at
    /// most this share of the base median...
    pub bound: f64,
    /// ...or by this absolute amount, whichever is larger.
    pub floor: f64,
}

/// End-to-end metrics every workload reports, measured untraced, one
/// value per child process. Times are host-normalised seconds (see
/// `probe.rs`); memory is the child's own peak.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.02,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.005,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        floor: 2.0,
    },
];

/// Ring recovery time: an end-to-end metric of `serve-ring` only, so it
/// is compared by `compare` but is not in `BENCHMARK.json`, whose
/// metrics every workload must report.
pub const RECOVER: EndToEnd = EndToEnd {
    name: "recover_s",
    unit: "s",
    better: Better::Lower,
    bound: 0.25,
    floor: 0.01,
};

/// Every end-to-end metric the full results record and `compare` reads.
pub fn compared() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().chain([&RECOVER])
}

/// A per-layer metric every workload's traced run reports. Per-layer
/// metrics carry no bound.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics that every workload reports. Layers only some
/// workloads pass through (checkpointing, the sweep runner), and
/// `sched.on_slot_freed.ns_per_queued_task`, which has no value when the
/// queue stays empty (`scale-1m`), are reported in the full results only.
pub const PER_LAYER: [PerLayer; 28] = [
    layer("workload.next_task.calls", "count", Better::Lower),
    layer("workload.next_task.self_s", "s", Better::Lower),
    layer("workload.next_task.ns_per_call", "ns", Better::Lower),
    layer("sched.schedule.calls", "count", Better::Lower),
    layer("sched.schedule.self_s", "s", Better::Lower),
    layer("sched.schedule.ns_per_call", "ns", Better::Lower),
    layer("sched.schedule.p99_ns", "ns", Better::Lower),
    layer("sched.schedule.placed_ratio", "ratio", Better::Higher),
    layer("sched.schedule.suspended", "count", Better::Lower),
    layer("sched.schedule.discarded", "count", Better::Lower),
    layer("sched.on_slot_freed.calls", "count", Better::Lower),
    layer("sched.on_slot_freed.self_s", "s", Better::Lower),
    layer("sched.on_slot_freed.ns_per_call", "ns", Better::Lower),
    layer("sched.on_slot_freed.p99_ns", "ns", Better::Lower),
    layer("sched.on_slot_freed.hit_ratio", "ratio", Better::Higher),
    layer("sched.on_slot_freed.queue_len_mean", "count", Better::Lower),
    layer("model.scheduling_steps", "count", Better::Lower),
    layer("model.housekeeping_steps", "count", Better::Lower),
    layer("model.store_mutations", "count", Better::Lower),
    layer("engine.events_pushed", "count", Better::Lower),
    layer("engine.events_popped", "count", Better::Lower),
    layer("engine.stats_samples", "count", Better::Lower),
    layer("model.index_build_s", "s", Better::Lower),
    layer("engine.new_s", "s", Better::Lower),
    layer("engine.dispatch.self_s", "s", Better::Lower),
    layer("engine.dispatch.ns_per_event", "ns", Better::Lower),
    layer("engine.report.to_xml_s", "s", Better::Lower),
    layer("trace.overhead_ratio", "ratio", Better::Lower),
];

/// Median, quartiles, extremes and count of a set of values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Number of values.
    pub n: usize,
}

impl Summary {
    /// Summarise `values`; `None` when there are none. Quartiles follow
    /// Python's `statistics.quantiles(values, n=4)` (the exclusive
    /// method), so they read the same as any script that checks them.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (v[0], v[0])
        } else {
            (quantile(&v, 1), quantile(&v, 3))
        };
        Some(Self {
            median,
            q1,
            q3,
            min: v[0],
            max: v[n - 1],
            n,
        })
    }

    /// Interquartile range as a share of the median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of the four-quantile cut points of sorted `v` (len ≥ 2),
/// computed exactly as Python's exclusive method does, including its
/// extrapolation past the ends of small samples.
fn quantile(v: &[f64], i: usize) -> f64 {
    let len = v.len();
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[]), None);
    }
}
