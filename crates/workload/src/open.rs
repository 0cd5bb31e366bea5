//! Open-system task generation for `dreamsim serve`.
//!
//! [`OpenSource`] is the service-mode sibling of [`SyntheticSource`]: an
//! unbounded stream of arrivals whose inter-arrival bound is modulated
//! by a **diurnal load curve** — a deterministic integer triangle wave
//! over a configurable day length — composed with the chaos layer's
//! burst window. Each task is the synthetic source's own Table II draw
//! with the curve's multiplier passed in; the open source adds only the
//! multiplier, its `"open"` kind and a yielded-task cursor. With
//! amplitude zero the multiplier is the identity, so the two sources
//! consume bit-identical RNG sequences for the same parameters.
//!
//! ## Diurnal curve
//!
//! All modulation arithmetic is integer permille — no trigonometry, so
//! the curve is bit-identical on every platform. The wave rises from the
//! trough at the start of each day to the peak at mid-day and falls
//! back: with `tri(phase) ∈ [-1000, 1000]`, the load multiplier is
//! `m = 1000 + amplitude_permille * tri / 1000`, and the effective mean
//! inter-arrival is the base mean scaled by `1000 / m`. Validation caps
//! the amplitude at 900 ‰, so `m ∈ [100, 1900]` and the mean never
//! collapses to zero.
//!
//! ## Resume cursor
//!
//! The source counts yielded tasks and reports the count as its
//! [`source_cursor`](dreamsim_engine::sim::TaskSource::source_cursor).
//! All draw state lives in the checkpointed RNG, so restoring is just
//! accepting the count; the cursor makes service snapshots
//! self-describing (how far into the stream this snapshot is) and lets
//! the recovery report state the resume position.

use crate::synthetic::SyntheticSource;
use dreamsim_engine::params::SimParams;
use dreamsim_engine::sim::{SourceYield, TaskSource};
use dreamsim_model::Ticks;
use dreamsim_rng::Rng;

/// Unbounded diurnal task stream (the open-system service workload).
#[derive(Clone, Debug)]
pub struct OpenSource {
    /// The Table II draw, burst window included.
    base: SyntheticSource,
    /// Diurnal period in ticks; below 2 the curve is flat.
    day_length: u64,
    /// Diurnal modulation depth in permille (0 = flat).
    amplitude_permille: u32,
    /// Tasks yielded so far (the resume cursor).
    yielded: u64,
}

/// Triangle wave over one day, in permille: `-1000` at the start of the
/// day (trough), `+1000` at mid-day (peak), back down by day's end.
/// Pure integer arithmetic — identical on every platform.
fn triangle_permille(phase: u64, day_length: u64) -> i64 {
    let half = day_length / 2;
    if phase < half {
        // Rising edge: -1000 → +1000 over [0, half).
        (2000u128 * u128::from(phase) / u128::from(half)) as i64 - 1000
    } else {
        // Falling edge: +1000 → -1000 over [half, day_length).
        1000 - (2000u128 * u128::from(phase - half) / u128::from(day_length - half)) as i64
    }
}

impl OpenSource {
    /// Build the service workload from the simulation parameters. The
    /// diurnal fields come from `params.service`; without a service
    /// block the curve is flat and the source degenerates to the
    /// synthetic stream.
    #[must_use]
    pub fn from_params(params: &SimParams) -> Self {
        let (day_length, amplitude_permille) = params
            .service
            .map_or((0, 0), |s| (s.day_length, s.amplitude_permille));
        Self {
            base: SyntheticSource::from_params(params),
            day_length,
            amplitude_permille,
            yielded: 0,
        }
    }

    /// Load multiplier in permille at `now`: 1000 is the identity;
    /// above 1000 arrivals compress (peak), below they stretch (trough).
    fn load_permille(&self, now: Ticks) -> u64 {
        if self.amplitude_permille == 0 || self.day_length < 2 {
            return 1000;
        }
        let tri = triangle_permille(now % self.day_length, self.day_length);
        // amplitude ≤ 900 (validated) and |tri| ≤ 1000, so the product
        // stays within i64 and m ∈ [100, 1900].
        (1000 + i64::from(self.amplitude_permille) * tri / 1000) as u64
    }
}

impl TaskSource for OpenSource {
    fn next_task(&mut self, now: Ticks, rng: &mut Rng) -> SourceYield {
        self.yielded += 1;
        SourceYield::Task(self.base.draw(now, self.load_permille(now), rng))
    }

    fn source_kind(&self) -> &'static str {
        "open"
    }

    fn source_cursor(&self) -> u64 {
        self.yielded
    }

    fn restore_cursor(&mut self, cursor: u64) -> bool {
        // All draw state lives in the checkpointed RNG; the cursor is
        // the yielded-task count, restored so subsequent snapshots keep
        // counting from the right position.
        self.yielded = cursor;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dreamsim_engine::params::{ArrivalDistribution, BurstWindow, ReconfigMode, ServiceParams};
    use dreamsim_engine::sim::TaskSpec;

    fn service_params(day_length: u64, amplitude: u32) -> SimParams {
        let mut p = SimParams::paper(100, 1000, ReconfigMode::Partial);
        p.arrival = ArrivalDistribution::Poisson;
        p.service = Some(ServiceParams {
            horizon: 50_000,
            day_length,
            amplitude_permille: amplitude,
            window: 0,
            window_retain: 0,
        });
        p
    }

    fn draw(src: &mut impl TaskSource, now: Ticks, rng: &mut Rng) -> TaskSpec {
        match src.next_task(now, rng) {
            SourceYield::Task(t) => t,
            other => panic!("open source yielded {other:?}"),
        }
    }

    #[test]
    fn triangle_wave_hits_trough_peak_and_stays_in_range() {
        let day = 1000;
        assert_eq!(triangle_permille(0, day), -1000);
        assert_eq!(triangle_permille(day / 2, day), 1000);
        for phase in 0..day {
            let t = triangle_permille(phase, day);
            assert!((-1000..=1000).contains(&t), "phase {phase}: {t}");
        }
        // Odd day lengths stay in range too.
        for phase in 0..999 {
            let t = triangle_permille(phase, 999);
            assert!((-1000..=1000).contains(&t), "phase {phase}: {t}");
        }
    }

    #[test]
    fn zero_amplitude_matches_the_synthetic_source_bit_for_bit() {
        let p = service_params(2_000, 0);
        let mut open = OpenSource::from_params(&p);
        let mut synth = SyntheticSource::from_params(&p);
        let mut rng_a = Rng::seed_from(42);
        let mut rng_b = Rng::seed_from(42);
        for now in 0..3_000u64 {
            let a = draw(&mut open, now, &mut rng_a);
            let b = match synth.next_task(now, &mut rng_b) {
                SourceYield::Task(t) => t,
                other => panic!("synthetic source yielded {other:?}"),
            };
            assert_eq!(a, b, "divergence at now={now}");
        }
    }

    #[test]
    fn peak_load_compresses_interarrivals_versus_the_trough() {
        let day = 10_000u64;
        let p = service_params(day, 800);
        let mean_at = |now: Ticks| {
            let mut src = OpenSource::from_params(&p);
            let mut rng = Rng::seed_from(7);
            let n = 4_000;
            let sum: u64 = (0..n)
                .map(|_| draw(&mut src, now, &mut rng).interarrival)
                .sum();
            sum as f64 / f64::from(n)
        };
        let trough = mean_at(0); // tri = -1000: slowest arrivals
        let peak = mean_at(day / 2); // tri = +1000: fastest arrivals
        assert!(
            peak * 2.0 < trough,
            "peak mean {peak} should be well under trough mean {trough}"
        );
    }

    #[test]
    fn burst_window_composes_with_the_diurnal_curve() {
        let mut p = service_params(10_000, 0);
        p.burst = Some(BurstWindow {
            start: 100,
            end: 200,
            interval: 3,
        });
        p.arrival = ArrivalDistribution::Uniform;
        let mut src = OpenSource::from_params(&p);
        let mut rng = Rng::seed_from(9);
        for _ in 0..500 {
            let t = draw(&mut src, 150, &mut rng);
            assert!((1..=3).contains(&t.interarrival));
        }
    }

    #[test]
    fn cursor_counts_yields_and_round_trips() {
        let p = service_params(2_000, 300);
        let mut src = OpenSource::from_params(&p);
        let mut rng = Rng::seed_from(5);
        assert_eq!(src.source_cursor(), 0);
        for _ in 0..17 {
            let _ = draw(&mut src, 0, &mut rng);
        }
        assert_eq!(src.source_cursor(), 17);
        let mut fresh = OpenSource::from_params(&p);
        assert!(fresh.restore_cursor(17));
        assert_eq!(fresh.source_cursor(), 17);
        assert_eq!(fresh.source_kind(), "open");
    }
}
