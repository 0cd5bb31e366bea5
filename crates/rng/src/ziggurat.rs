//! Normal and exponential variates via the Ziggurat method
//! (Marsaglia & Tsang, *The Ziggurat Method for Generating Random
//! Variables*, Journal of Statistical Software 5(8), 2000).
//!
//! We use the 256-layer formulation for both densities. Tables are built
//! once at first use from the layer-area constants published with the
//! method (the same construction as the reference `zigset` routines,
//! carried out in `f64`): the ziggurat covers the density with `N`
//! horizontal layers of equal area `V`, with the base layer absorbing the
//! tail beyond `R`.
//!
//! Sampling draws one 64-bit word, spends its low 8 bits on the layer
//! index and its high 53 bits on the abscissa, accepts immediately when
//! the point falls inside the layer's guaranteed rectangle (the
//! overwhelmingly common case), and otherwise falls back to an exact
//! edge/tail test.

use crate::engine::RngCore;
use crate::uniform;
use std::sync::OnceLock;

const LAYERS: usize = 256;

/// Rightmost layer boundary for the 256-layer normal ziggurat.
pub const NORMAL_R: f64 = 3.654_152_885_361_009;
/// Layer area for the 256-layer normal ziggurat.
pub const NORMAL_V: f64 = 0.004_928_673_233_974_655;
/// Rightmost layer boundary for the 256-layer exponential ziggurat.
pub const EXP_R: f64 = 7.697_117_470_131_487;
/// Layer area for the 256-layer exponential ziggurat.
pub const EXP_V: f64 = 0.003_949_659_822_581_557;

struct Tables {
    /// `x[i]`: right edge of layer `i`; `x[0] = V / f(R)` is the virtual
    /// base-layer width (base rectangle + tail have combined area `V`);
    /// `x[LAYERS] = 0`.
    x: [f64; LAYERS + 1],
    /// `f[i] = pdf(x[i])` (unnormalized).
    f: [f64; LAYERS + 1],
}

fn build_tables(r: f64, v: f64, pdf: fn(f64) -> f64, pdf_inv: fn(f64) -> f64) -> Tables {
    let mut x = [0.0; LAYERS + 1];
    let mut f = [0.0; LAYERS + 1];
    x[0] = v / pdf(r);
    x[1] = r;
    for i in 2..LAYERS {
        // Each layer has area V: x[i-1] * (f(x[i]) - f(x[i-1])) = V.
        let y = pdf(x[i - 1]) + v / x[i - 1];
        x[i] = pdf_inv(y);
        debug_assert!(x[i] < x[i - 1], "layer edges must decrease");
    }
    x[LAYERS] = 0.0;
    for i in 0..=LAYERS {
        f[i] = pdf(x[i]);
    }
    Tables { x, f }
}

fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

fn normal_pdf_inv(y: f64) -> f64 {
    (-2.0 * y.ln()).sqrt()
}

fn exp_pdf(x: f64) -> f64 {
    (-x).exp()
}

fn exp_pdf_inv(y: f64) -> f64 {
    -y.ln()
}

fn normal_tables() -> &'static Tables {
    static T: OnceLock<Tables> = OnceLock::new();
    T.get_or_init(|| build_tables(NORMAL_R, NORMAL_V, normal_pdf, normal_pdf_inv))
}

fn exp_tables() -> &'static Tables {
    static T: OnceLock<Tables> = OnceLock::new();
    T.get_or_init(|| build_tables(EXP_R, EXP_V, exp_pdf, exp_pdf_inv))
}

/// Standard normal variate, mean 0, variance 1.
pub fn normal<R: RngCore>(rng: &mut R) -> f64 {
    let t = normal_tables();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xFF) as usize;
        // Signed abscissa in (-1, 1) from the top 53 bits.
        let u = 2.0 * ((bits >> 11) as f64 / (1u64 << 53) as f64) - 1.0;
        let x = u * t.x[i];
        if x.abs() < t.x[i + 1] {
            return x; // inside the guaranteed rectangle
        }
        if i == 0 {
            // Base layer: sample the tail beyond R by Marsaglia's method.
            return normal_tail(rng, u < 0.0);
        }
        // Edge region: exact acceptance test against the density.
        let fr = uniform::f64_unit(rng);
        if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * fr < normal_pdf(x) {
            return x;
        }
    }
}

fn normal_tail<R: RngCore>(rng: &mut R, negative: bool) -> f64 {
    loop {
        let u1 = uniform::f64_open(rng);
        let u2 = uniform::f64_open(rng);
        let x = -u1.ln() / NORMAL_R;
        let y = -u2.ln();
        if y + y > x * x {
            let v = NORMAL_R + x;
            return if negative { -v } else { v };
        }
    }
}

/// Standard exponential variate, mean 1.
pub fn exponential<R: RngCore>(rng: &mut R) -> f64 {
    let t = exp_tables();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xFF) as usize;
        let u = (bits >> 11) as f64 / (1u64 << 53) as f64;
        let x = u * t.x[i];
        if x < t.x[i + 1] {
            return x;
        }
        if i == 0 {
            // Tail beyond R: memorylessness gives R + Exp(1).
            return EXP_R - uniform::f64_open(rng).ln();
        }
        let fr = uniform::f64_unit(rng);
        if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * fr < exp_pdf(x) {
            return x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Xoshiro256StarStar;

    const N: usize = 200_000;

    fn engine(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from(seed)
    }

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn table_construction_terminates_at_zero_with_unit_density() {
        let t = super::normal_tables();
        assert!(t.x[LAYERS] == 0.0);
        assert!((t.f[LAYERS] - 1.0).abs() < 1e-12, "pdf(0) = 1");
        assert!((t.x[1] - NORMAL_R).abs() < 1e-12);
        for i in 1..LAYERS {
            assert!(t.x[i + 1] < t.x[i], "edges strictly decreasing at {i}");
        }
        // Topmost layer closes the ziggurat: remaining area ≈ V.
        let top_area = t.x[LAYERS - 1] * (1.0 - t.f[LAYERS - 1]);
        assert!(
            (top_area - NORMAL_V).abs() / NORMAL_V < 0.05,
            "top layer area {top_area} vs V {NORMAL_V}"
        );
    }

    #[test]
    fn exp_table_construction_consistent() {
        let t = super::exp_tables();
        assert!((t.x[1] - EXP_R).abs() < 1e-12);
        assert!((t.f[LAYERS] - 1.0).abs() < 1e-12);
        let top_area = t.x[LAYERS - 1] * (1.0 - t.f[LAYERS - 1]);
        assert!((top_area - EXP_V).abs() / EXP_V < 0.05);
    }

    #[test]
    fn normal_mean_and_variance() {
        let mut e = engine(101);
        let xs: Vec<f64> = (0..N).map(|_| normal(&mut e)).collect();
        let (mean, var) = moments(&xs);
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }

    #[test]
    fn normal_symmetry_and_tail_mass() {
        let mut e = engine(102);
        let xs: Vec<f64> = (0..N).map(|_| normal(&mut e)).collect();
        let neg = xs.iter().filter(|&&x| x < 0.0).count() as f64 / N as f64;
        assert!((neg - 0.5).abs() < 0.01, "negative fraction={neg}");
        // P(|X| > 3) ≈ 0.0027.
        let tail = xs.iter().filter(|&&x| x.abs() > 3.0).count() as f64 / N as f64;
        assert!((tail - 0.0027).abs() < 0.0015, "tail={tail}");
        // Tail samples beyond R must occur (exercises normal_tail).
        assert!(xs.iter().any(|&x| x.abs() > NORMAL_R));
    }

    #[test]
    fn normal_quartiles() {
        let mut e = engine(103);
        let mut xs: Vec<f64> = (0..N).map(|_| normal(&mut e)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| xs[(p * N as f64) as usize];
        assert!((q(0.25) + 0.6745).abs() < 0.02, "q25={}", q(0.25));
        assert!((q(0.75) - 0.6745).abs() < 0.02, "q75={}", q(0.75));
        assert!((q(0.975) - 1.96).abs() < 0.05, "q975={}", q(0.975));
    }

    #[test]
    fn exponential_mean_variance_positive() {
        let mut e = engine(104);
        let xs: Vec<f64> = (0..N).map(|_| exponential(&mut e)).collect();
        assert!(xs.iter().all(|&x| x >= 0.0));
        let (mean, var) = moments(&xs);
        assert!((mean - 1.0).abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
        // Median of Exp(1) is ln 2.
        let mut s = xs;
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = s[N / 2];
        assert!((med - std::f64::consts::LN_2).abs() < 0.02, "median={med}");
    }

    #[test]
    fn exponential_tail_beyond_r_occurs_with_correct_mass() {
        // P(X > R) = exp(-R) ≈ 4.54e-4; with 2M draws expect ~900.
        let mut e = engine(105);
        let m = 2_000_000;
        let tail = (0..m).filter(|_| exponential(&mut e) > EXP_R).count();
        let expected = m as f64 * (-EXP_R).exp();
        assert!(
            (tail as f64 - expected).abs() < 6.0 * expected.sqrt() + 30.0,
            "tail={tail} expected≈{expected}"
        );
    }

    /// Cross-check against an independent baseline: Box–Muller over
    /// splitmix64 uniforms — deliberately a different generator from
    /// this crate's xoshiro256** and a different normal method from the
    /// Ziggurat, so agreement is meaningful.
    #[test]
    fn normal_ks_against_box_muller() {
        let mut ours = engine(106);
        let mut xs: Vec<f64> = (0..50_000).map(|_| normal(&mut ours)).collect();
        let mut state = 999u64;
        // splitmix64, mapped to [0, 1) by its top 53 bits.
        let mut unit = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut ys: Vec<f64> = (0..50_000)
            .map(|_| {
                // Clamp away from 0 so the logarithm stays finite.
                let u1 = unit().max(f64::MIN_POSITIVE);
                let u2 = unit();
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            })
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Two-sample KS statistic.
        let (mut i, mut j, mut d) = (0usize, 0usize, 0.0f64);
        while i < xs.len() && j < ys.len() {
            if xs[i] <= ys[j] {
                i += 1;
            } else {
                j += 1;
            }
            let fx = i as f64 / xs.len() as f64;
            let fy = j as f64 / ys.len() as f64;
            d = d.max((fx - fy).abs());
        }
        // Critical value at alpha=0.001 for n=m=50k is ~0.0123.
        assert!(d < 0.0123, "KS statistic {d}");
    }
}
