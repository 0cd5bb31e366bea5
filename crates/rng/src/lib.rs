//! # dreamsim-rng
//!
//! From-scratch random number generation substrate for the DReAMSim
//! simulation framework.
//!
//! The original DReAMSim (Nadeem et al., IPDPSW 2012) implements its own
//! `RNG` class "based on the Ziggurat Method \[Marsaglia & Tsang 2000a\]
//! using the algorithm described in \[Marsaglia & Tsang 2000b\] for
//! generating Gamma variables", providing "several random number
//! distributions, such as Poisson, Binomial, Gamma, Uniform random, etc."
//! This crate reproduces that substrate in safe Rust:
//!
//! * [`engine`] — the raw 32/64-bit generator cores (`rand_int32` in the
//!   paper's UML). [`SplitMix64`] for seeding, [`Xoshiro256StarStar`] as
//!   the default engine, and [`Shr3`], the 3-shift-register generator used
//!   in Marsaglia & Tsang's original Ziggurat reference implementation.
//! * [`ziggurat`] — standard normal and exponential variates via the
//!   Ziggurat method (256-layer tables for both densities, computed once
//!   at first use from the method's published layer-area constants).
//! * [`gamma`] — Marsaglia & Tsang's compact gamma generator
//!   (ACM TOMS 26(3), 2000).
//! * [`poisson`] — Knuth multiplication for small means and Hörmann's
//!   PTRS transformed-rejection for large means.
//! * [`binomial`] — Bernoulli summation, BINV inversion, and Hörmann's
//!   BTRS transformed rejection, selected by parameter regime.
//! * [`multinomial`] — conditional-binomial multinomial sampling.
//! * [`uniform`] — unbiased bounded integers (Lemire's method), uniform
//!   floats, and inclusive integer ranges (the form DReAMSim's Table II
//!   parameters use, e.g. node areas in `[1000..4000]`).
//! * [`discrete`] — weighted discrete sampling via Vose's alias method.
//!
//! The simulator proper depends only on this crate for randomness. The
//! independent statistical cross-check in the test suite (Box–Muller over
//! a splitmix64 stream, against the Ziggurat normal) is written inline,
//! so no external generator crate is involved.
//!
//! ## Determinism
//!
//! Every generator is a small, `Clone`able value type with explicit seeding
//! and no global state, so simulation runs are reproducible bit-for-bit
//! given a seed, and parameter sweeps can derive independent per-run
//! streams with [`derive_stream`].
//!
//! ## Quick example
//!
//! ```
//! use dreamsim_rng::Rng;
//!
//! let mut rng = Rng::seed_from(42);
//! let area = rng.uniform_inclusive(1000, 4000);   // node TotalArea, Table II
//! assert!((1000..=4000).contains(&area));
//! let t = rng.gamma(2.0, 1.5);                    // shape 2, scale 1.5
//! assert!(t > 0.0);
//! let n = rng.poisson(7.5);                       // task batch size
//! let _ = (t, n, area);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod discrete;
pub mod engine;
pub mod gamma;
pub mod multinomial;
pub mod poisson;
pub mod special;
pub mod uniform;
pub mod ziggurat;

pub use engine::{derive_stream, RngCore, Shr3, SplitMix64, Xoshiro256StarStar};

/// The paper's `RNG` facade: one seeded generator exposing every
/// distribution the DReAMSim framework draws from.
///
/// Internally this couples the default engine ([`Xoshiro256StarStar`]) with
/// the Ziggurat tables. All distribution methods are also available as free
/// functions over any [`RngCore`] in the per-distribution modules; this
/// struct is the convenient front door mirroring the UML `RNG` class
/// (`poisson`, `binomial`, `gamma`, `multinom`, `rand_int32`).
#[derive(Clone, Debug)]
pub struct Rng {
    core: Xoshiro256StarStar,
}

impl Rng {
    /// Create a generator from a 64-bit seed. Any seed is valid; the seed
    /// is expanded through [`SplitMix64`] so even `0` and small integers
    /// yield well-mixed state.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        Self {
            core: Xoshiro256StarStar::seed_from(seed),
        }
    }

    /// Derive the `index`-th independent sub-stream of this generator's
    /// seed space. Used by the sweep runner to give each simulation run its
    /// own deterministic stream regardless of scheduling order.
    #[must_use]
    pub fn derive(seed: u64, index: u64) -> Self {
        Self {
            core: Xoshiro256StarStar::seed_from(derive_stream(seed, index)),
        }
    }

    /// The paper's `rand_int32()`: next raw 32-bit value.
    #[inline]
    pub fn rand_int32(&mut self) -> u32 {
        self.core.next_u32()
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn rand_int64(&mut self) -> u64 {
        self.core.next_u64()
    }

    /// Uniform float in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        uniform::f64_unit(&mut self.core)
    }

    /// Unbiased uniform integer in `[0, bound)`. Panics if `bound == 0`.
    #[inline]
    pub fn uniform_below(&mut self, bound: u64) -> u64 {
        uniform::below(&mut self.core, bound)
    }

    /// Unbiased uniform integer in the inclusive range `[lo, hi]`.
    /// Panics if `lo > hi`.
    #[inline]
    pub fn uniform_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        uniform::inclusive(&mut self.core, lo, hi)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        uniform::bernoulli(&mut self.core, p)
    }

    /// Standard normal variate via the Ziggurat method.
    #[inline]
    pub fn normal(&mut self) -> f64 {
        ziggurat::normal(&mut self.core)
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Standard exponential variate (mean 1) via the Ziggurat method.
    #[inline]
    pub fn exponential(&mut self) -> f64 {
        ziggurat::exponential(&mut self.core)
    }

    /// Exponential variate with the given mean (`1/rate`).
    #[inline]
    pub fn exponential_with_mean(&mut self, mean: f64) -> f64 {
        mean * self.exponential()
    }

    /// Gamma variate with the given `shape` and `scale`
    /// (Marsaglia–Tsang 2000). Panics if either parameter is not positive
    /// and finite.
    #[inline]
    pub fn gamma(&mut self, shape: f64, scale: f64) -> f64 {
        gamma::gamma(&mut self.core, shape, scale)
    }

    /// Poisson variate with the given mean.
    #[inline]
    pub fn poisson(&mut self, mean: f64) -> u64 {
        poisson::poisson(&mut self.core, mean)
    }

    /// Binomial variate: number of successes in `n` trials of
    /// probability `p`.
    #[inline]
    pub fn binomial(&mut self, p: f64, n: u64) -> u64 {
        binomial::binomial(&mut self.core, p, n)
    }

    /// Multinomial variate: distribute `n` trials over `probs.len()`
    /// categories with the given probabilities (normalized internally).
    #[inline]
    pub fn multinomial(&mut self, n: u64, probs: &[f64]) -> Vec<u64> {
        multinomial::multinomial(&mut self.core, n, probs)
    }

    /// Choose a uniformly random element index for a slice of length
    /// `len`. Panics if `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        uniform::below(&mut self.core, len as u64) as usize
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.uniform_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Borrow the underlying engine, for callers that want to drive a
    /// free-function distribution directly.
    #[inline]
    pub fn core_mut(&mut self) -> &mut Xoshiro256StarStar {
        &mut self.core
    }

    /// Capture the generator's complete state (four 64-bit words) for
    /// checkpointing. Restoring via [`Rng::from_state`] continues the
    /// stream bit-identically.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.core.state()
    }

    /// Rebuild a generator from a captured [`state`](Self::state).
    /// Returns `None` for the invalid all-zero state.
    #[must_use]
    pub fn from_state(s: [u64; 4]) -> Option<Self> {
        Xoshiro256StarStar::from_state(s).map(|core| Self { core })
    }
}

// Manual serde impls: the engine state is four u64 words, serialized as a
// plain JSON array. Distributions are stateless free functions over the
// core, so the word vector is the *entire* stream position.
impl serde::Serialize for Rng {
    fn write_json(&self, out: &mut String) {
        serde::write_seq(out, self.state());
    }
}

impl serde::Deserialize for Rng {
    fn read_json(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let words = <Vec<u64> as serde::Deserialize>::read_json(r)?;
        let s: [u64; 4] = words
            .try_into()
            .map_err(|_| serde::Error::custom("Rng: expected 4 state words"))?;
        Self::from_state(s).ok_or_else(|| serde::Error::custom("Rng: all-zero state is invalid"))
    }
}

impl RngCore for Rng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.core.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_is_deterministic_per_seed() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..1000 {
            assert_eq!(a.rand_int64(), b.rand_int64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.rand_int64() == b.rand_int64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_independent_of_call_order() {
        let mut s3 = Rng::derive(99, 3);
        let mut s7 = Rng::derive(99, 7);
        let a3 = s3.rand_int64();
        let a7 = s7.rand_int64();
        // Recreate in the opposite order; values must not change.
        let mut t7 = Rng::derive(99, 7);
        let mut t3 = Rng::derive(99, 3);
        assert_eq!(a7, t7.rand_int64());
        assert_eq!(a3, t3.rand_int64());
    }

    #[test]
    fn uniform_inclusive_covers_table_ii_ranges() {
        let mut rng = Rng::seed_from(7);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..200_000 {
            let v = rng.uniform_inclusive(1, 50); // task arrival interval
            assert!((1..=50).contains(&v));
            seen_lo |= v == 1;
            seen_hi |= v == 50;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from(11);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clone_forks_identical_future() {
        let mut a = Rng::seed_from(5);
        a.rand_int64();
        let mut b = a.clone();
        assert_eq!(a.normal().to_bits(), b.normal().to_bits());
    }

    #[test]
    fn state_round_trip_restores_stream_position() {
        let mut a = Rng::seed_from(2026);
        for _ in 0..17 {
            a.rand_int64();
        }
        let saved = a.state();
        let expected: Vec<u64> = (0..32).map(|_| a.rand_int64()).collect();
        let mut b = Rng::from_state(saved).expect("saved state is valid");
        let got: Vec<u64> = (0..32).map(|_| b.rand_int64()).collect();
        assert_eq!(expected, got);
        assert!(Rng::from_state([0; 4]).is_none());
    }

    /// Save/restore round trip per distribution stream: after restoring
    /// from a mid-stream snapshot, every subsequent draw must be
    /// bit-identical to the uninterrupted stream (floats compared via
    /// `to_bits`, so even NaN payloads would have to match).
    macro_rules! round_trip_distribution {
        ($name:ident, $draw:expr) => {
            #[test]
            fn $name() {
                let draw: fn(&mut Rng) -> u64 = $draw;
                let mut a = Rng::seed_from(0xD15E);
                // Advance mid-stream so the snapshot is not the seed state.
                for _ in 0..23 {
                    draw(&mut a);
                }
                let snapshot = serde_json::to_string(&a).expect("Rng state serializes");
                let expected: Vec<u64> = (0..64).map(|_| draw(&mut a)).collect();
                let mut b: Rng =
                    serde_json::from_str(&snapshot).expect("serialized Rng state restores");
                let got: Vec<u64> = (0..64).map(|_| draw(&mut b)).collect();
                assert_eq!(expected, got);
            }
        };
    }

    round_trip_distribution!(round_trip_ziggurat_normal, |r| r.normal().to_bits());
    round_trip_distribution!(round_trip_ziggurat_exponential, |r| r
        .exponential()
        .to_bits());
    round_trip_distribution!(round_trip_gamma, |r| r.gamma(2.0, 1.5).to_bits());
    round_trip_distribution!(round_trip_poisson, |r| r.poisson(7.5));
    round_trip_distribution!(round_trip_uniform, |r| r.uniform_inclusive(1, 50));
}
