//! Synthetic task generation (the paper's evaluation workload).
//!
//! Per Table II: inter-arrival interval U\[1..`NextTaskMaxInterval`\],
//! `t_required` U\[100..100 000\], preferred configuration uniform over
//! the configuration list except that a `closest_match_fraction` of
//! tasks (15 %) prefer a phantom configuration whose area is drawn from
//! the configuration-area range, forcing the scheduler down the
//! closest-match path.

use dreamsim_engine::params::{ArrivalDistribution, BurstWindow, SimParams};
use dreamsim_engine::sim::{SourceYield, TaskSource, TaskSpec};
use dreamsim_model::{ConfigId, PreferredConfig, Ticks};
use dreamsim_rng::Rng;

/// Parameterized random task stream.
#[derive(Clone, Debug)]
pub struct SyntheticSource {
    /// Upper bound of the uniform inter-arrival interval.
    max_interval: u64,
    /// Arrival process.
    arrival: ArrivalDistribution,
    /// `t_required` bounds (inclusive).
    time_lo: u64,
    time_hi: u64,
    /// Phantom-preference area bounds (inclusive; the config-area range).
    area_lo: u64,
    area_hi: u64,
    /// Number of configurations preferences index into.
    num_configs: usize,
    /// Fraction of tasks with a phantom preference.
    phantom_fraction: f64,
    /// Overload burst window (chaos layer): inside `[start, end)` the
    /// inter-arrival bound drops to `interval`. `None` leaves the draw
    /// sequence untouched.
    burst: Option<BurstWindow>,
}

impl SyntheticSource {
    /// Build the generator the paper's experiments use, directly from
    /// the simulation parameters.
    #[must_use]
    pub fn from_params(params: &SimParams) -> Self {
        Self {
            max_interval: params.next_task_max_interval,
            arrival: params.arrival,
            time_lo: params.task_time.lo,
            time_hi: params.task_time.hi,
            area_lo: params.config_area.lo,
            area_hi: params.config_area.hi,
            num_configs: params.total_configs,
            phantom_fraction: params.closest_match_fraction,
            burst: params.burst,
        }
    }

    /// One Table II task at `now`: inter-arrival, required time,
    /// phantom flag, then the preference and its area, in that draw
    /// order. `load_permille` scales the arrival rate ([`OpenSource`]'s
    /// diurnal multiplier): above 1000 arrivals compress, below they
    /// stretch, and 1000 leaves the inter-arrival draw unscaled.
    ///
    /// [`OpenSource`]: crate::open::OpenSource
    pub(crate) fn draw(&self, now: Ticks, load_permille: u64, rng: &mut Rng) -> TaskSpec {
        let interarrival = self.draw_interarrival(now, load_permille, rng);
        let required_time = rng.uniform_inclusive(self.time_lo, self.time_hi);
        let phantom = rng.bernoulli(self.phantom_fraction);
        let (preferred, needed_area) = if phantom || self.num_configs == 0 {
            let area = rng.uniform_inclusive(self.area_lo, self.area_hi);
            (PreferredConfig::Phantom { area }, area)
        } else {
            let c = ConfigId::from_index(rng.index(self.num_configs));
            // NeededArea for in-list preferences is filled in by the
            // driver from the configuration table.
            (PreferredConfig::Known(c), 0)
        };
        // Data payload: loosely proportional to compute time (bytes).
        let data_bytes = required_time.saturating_mul(8);
        TaskSpec {
            interarrival,
            required_time,
            preferred,
            needed_area,
            data_bytes,
        }
    }

    fn draw_interarrival(&self, now: Ticks, load_permille: u64, rng: &mut Rng) -> Ticks {
        // Inside a configured burst window the upper bound tightens to
        // the burst interval; the draw count is unchanged either way, so
        // burst-free runs consume the identical RNG sequence.
        let max_interval = match self.burst {
            Some(b) if (b.start..b.end).contains(&now) => b.interval,
            _ => self.max_interval,
        };
        let mean = (1.0 + max_interval as f64) / 2.0;
        // The identity multiplier skips the scaling, so an unmodulated
        // stream draws bit for bit what the unscaled bound and mean do.
        let (bound, mean) = if load_permille == 1000 {
            (max_interval, mean)
        } else {
            // Scale the uniform bound in integer space.
            let bound = (u128::from(max_interval) * 1000 / u128::from(load_permille)).max(1);
            (bound as u64, mean * 1000.0 / load_permille as f64)
        };
        match self.arrival {
            ArrivalDistribution::Uniform => rng.uniform_inclusive(1, bound),
            // Mean-matched alternatives; clamped to ≥ 1 tick.
            ArrivalDistribution::Poisson => rng.poisson(mean).max(1),
            ArrivalDistribution::Exponential => {
                (rng.exponential_with_mean(mean).round() as u64).max(1)
            }
        }
    }
}

impl TaskSource for SyntheticSource {
    fn next_task(&mut self, now: Ticks, rng: &mut Rng) -> SourceYield {
        SourceYield::Task(self.draw(now, 1000, rng))
    }

    fn source_kind(&self) -> &'static str {
        // Fully RNG-driven: the checkpointed RNG position plus the
        // parameters (from which `from_params` rebuilds this source)
        // are the entire state, so the default resume behaviour —
        // ignore the cursor — is exactly right.
        "synthetic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dreamsim_engine::params::ReconfigMode;

    fn specs(n: usize, f: impl FnOnce(&mut SimParams)) -> Vec<TaskSpec> {
        let mut p = SimParams::paper(100, n, ReconfigMode::Partial);
        f(&mut p);
        let mut src = SyntheticSource::from_params(&p);
        let mut rng = Rng::seed_from(9);
        (0..n)
            .map(|_| match src.next_task(0, &mut rng) {
                SourceYield::Task(t) => t,
                other => panic!("synthetic source yielded {other:?}"),
            })
            .collect()
    }

    #[test]
    fn fields_respect_table_ii_ranges() {
        for s in specs(20_000, |_| {}) {
            assert!((1..=50).contains(&s.interarrival));
            assert!((100..=100_000).contains(&s.required_time));
            match s.preferred {
                PreferredConfig::Known(c) => assert!(c.index() < 50),
                PreferredConfig::Phantom { area } => {
                    assert!((200..=2000).contains(&area));
                    assert_eq!(s.needed_area, area);
                }
            }
        }
    }

    #[test]
    fn phantom_fraction_close_to_fifteen_percent() {
        let ss = specs(50_000, |_| {});
        let phantoms = ss
            .iter()
            .filter(|s| matches!(s.preferred, PreferredConfig::Phantom { .. }))
            .count();
        let rate = phantoms as f64 / ss.len() as f64;
        assert!((rate - 0.15).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn known_preferences_cover_the_config_list() {
        let ss = specs(20_000, |_| {});
        let mut seen = [false; 50];
        for s in &ss {
            if let PreferredConfig::Known(c) = s.preferred {
                seen[c.index()] = true;
            }
        }
        assert!(
            seen.iter().all(|&b| b),
            "every config preferred at least once"
        );
    }

    #[test]
    fn zero_phantom_fraction_yields_only_known() {
        let ss = specs(5_000, |p| p.closest_match_fraction = 0.0);
        assert!(ss
            .iter()
            .all(|s| matches!(s.preferred, PreferredConfig::Known(_))));
    }

    #[test]
    fn all_phantom_when_fraction_is_one() {
        let ss = specs(5_000, |p| p.closest_match_fraction = 1.0);
        assert!(ss
            .iter()
            .all(|s| matches!(s.preferred, PreferredConfig::Phantom { .. })));
    }

    #[test]
    fn poisson_and_exponential_arrivals_match_uniform_mean() {
        let mean_of = |d: ArrivalDistribution| {
            let ss = specs(50_000, |p| p.arrival = d);
            ss.iter().map(|s| s.interarrival as f64).sum::<f64>() / ss.len() as f64
        };
        let u = mean_of(ArrivalDistribution::Uniform);
        let p = mean_of(ArrivalDistribution::Poisson);
        let e = mean_of(ArrivalDistribution::Exponential);
        assert!((u - 25.5).abs() < 0.5, "uniform mean {u}");
        assert!((p - 25.5).abs() < 0.5, "poisson mean {p}");
        // The ≥1 clamp slightly inflates the geometric mean.
        assert!((e - 25.5).abs() < 1.5, "exponential mean {e}");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let a = specs(100, |_| {});
        let b = specs(100, |_| {});
        assert_eq!(a, b);
    }

    #[test]
    fn burst_window_tightens_interarrivals_inside_the_window() {
        use dreamsim_engine::params::BurstWindow;
        let mut p = SimParams::paper(100, 1000, ReconfigMode::Partial);
        p.burst = Some(BurstWindow {
            start: 100,
            end: 200,
            interval: 3,
        });
        let mut src = SyntheticSource::from_params(&p);
        let mut rng = Rng::seed_from(9);
        for now in [100u64, 150, 199] {
            for _ in 0..500 {
                match src.next_task(now, &mut rng) {
                    SourceYield::Task(t) => assert!((1..=3).contains(&t.interarrival)),
                    other => panic!("synthetic source yielded {other:?}"),
                }
            }
        }
        // The window end is exclusive: at `end` the normal bound applies.
        let wide = (0..2000).any(|_| match src.next_task(200, &mut rng) {
            SourceYield::Task(t) => t.interarrival > 3,
            other => panic!("synthetic source yielded {other:?}"),
        });
        assert!(wide, "outside the window the full range must return");
    }

    #[test]
    fn zero_length_burst_window_is_never_active() {
        use dreamsim_engine::params::BurstWindow;
        // Validation rejects start >= end, but the source must also be
        // safe by construction: an empty [start, start) range contains
        // no tick, so the draw sequence is bit-identical to burst-free.
        let plain = specs(2_000, |_| {});
        let degenerate = specs(2_000, |p| {
            p.burst = Some(BurstWindow {
                start: 0,
                end: 0,
                interval: 1,
            });
        });
        assert_eq!(plain, degenerate);
    }

    #[test]
    fn burst_window_past_the_horizon_is_rng_neutral() {
        use dreamsim_engine::params::BurstWindow;
        // A window that opens after every arrival in the run has been
        // drawn never activates and never perturbs the RNG stream.
        let plain = specs(2_000, |_| {});
        let future = specs(2_000, |p| {
            p.burst = Some(BurstWindow {
                start: u64::MAX - 1,
                end: u64::MAX,
                interval: 1,
            });
        });
        assert_eq!(plain, future);
    }

    #[test]
    fn burst_window_overlapping_the_stream_boundary_is_half_open() {
        use dreamsim_engine::params::BurstWindow;
        // A window straddling tick 0 is active at its first tick and
        // inactive from `end` onward, and the per-task draw count is
        // one either way: draws outside the window stay bit-identical
        // to the burst-free stream even when the window overlaps the
        // sampled range.
        let mut p = SimParams::paper(100, 1000, ReconfigMode::Partial);
        p.burst = Some(BurstWindow {
            start: 0,
            end: 50,
            interval: 2,
        });
        let mut src = SyntheticSource::from_params(&p);
        let mut rng = Rng::seed_from(11);
        for _ in 0..500 {
            match src.next_task(0, &mut rng) {
                SourceYield::Task(t) => assert!((1..=2).contains(&t.interarrival)),
                other => panic!("synthetic source yielded {other:?}"),
            }
        }
        // From `end` onward the draws match a burst-free source that
        // consumed the same number of draws beforehand.
        let mut plain = SyntheticSource::from_params(&{
            let mut q = p.clone();
            q.burst = None;
            q
        });
        let mut rng_plain = Rng::seed_from(11);
        for _ in 0..500 {
            let _ = plain.next_task(0, &mut rng_plain);
        }
        for _ in 0..500 {
            let a = match src.next_task(50, &mut rng) {
                SourceYield::Task(t) => t,
                other => panic!("synthetic source yielded {other:?}"),
            };
            let b = match plain.next_task(50, &mut rng_plain) {
                SourceYield::Task(t) => t,
                other => panic!("synthetic source yielded {other:?}"),
            };
            assert_eq!(a, b);
        }
    }

    #[test]
    fn burst_outside_the_window_leaves_the_draw_sequence_untouched() {
        use dreamsim_engine::params::BurstWindow;
        // All specs are drawn at now=0, outside this window, so the RNG
        // sequence must be bit-identical to a burst-free source.
        let plain = specs(2_000, |_| {});
        let burst = specs(2_000, |p| {
            p.burst = Some(BurstWindow {
                start: 100,
                end: 200,
                interval: 2,
            });
        });
        assert_eq!(plain, burst);
    }
}
