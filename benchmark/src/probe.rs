//! Host-speed probe: a fixed compute kernel timed between the timed
//! sections of a run, so that each section's time can be divided by how
//! fast the host was running just then.
//!
//! On a host shared with other tenants, throughput-bound code can run up
//! to 1.6x slower in spells of a few seconds to over a minute, as when
//! another tenant keeps the core's other hardware thread busy. The
//! queue rescans that dominate `paper-saturated` and `figures-grid` slow
//! down with it, and so does this kernel (eight independent compare-and-
//! add lanes over a 32 KB table). Latency-bound code such as a pointer
//! chase hardly notices, which is why the kernel is throughput-bound.
//! Workloads that wait on memory or on the disk slow down less than the
//! kernel, so each workload raises the probe's slowdown to its own
//! sensitivity before dividing by it (see `Workload::sensitivity`).

use std::time::Instant;

/// Probe time on the reference host, seconds: the host-normalised times
/// are the seconds a section would take on a host whose probe runs in
/// exactly this long. It is about the probe time of the measuring host
/// (see the README) when its core is not shared.
pub const REFERENCE_S: f64 = 0.001;

const TABLE_LEN: u32 = 8 * 1024;
const ROUNDS: u32 = 500;

/// The probe's table: fixed, scattered values below `TABLE_LEN`.
fn table() -> Vec<u32> {
    (0..TABLE_LEN)
        .map(|i| i.wrapping_mul(0x9e37_79b9).rotate_left(13) % TABLE_LEN)
        .collect()
}

/// One timing of the kernel, seconds.
fn kernel_s(table: &[u32]) -> f64 {
    let t = Instant::now();
    let mut acc = [0u32; 8];
    for r in 0..ROUNDS {
        for lanes in table.chunks_exact(8) {
            for (a, &x) in acc.iter_mut().zip(lanes) {
                *a = a.wrapping_add(u32::from(x > r * 8) + (x ^ r));
            }
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The median of three kernel timings, so that one interrupt does not
/// move the probe.
fn probe_s(table: &[u32]) -> f64 {
    let mut t = [kernel_s(table), kernel_s(table), kernel_s(table)];
    t.sort_by(f64::total_cmp);
    t[1]
}

/// A stopwatch in host-normalised seconds. Every section it times is
/// followed by a probe; the section's raw time is divided by its host
/// factor: the mean of the probes just before and just after it over
/// [`REFERENCE_S`], raised to the clock's sensitivity. The probes
/// themselves are not timed.
pub struct HostClock {
    table: Vec<u32>,
    threads: usize,
    sensitivity: f64,
    last: f64,
    factors: Vec<f64>,
}

impl HostClock {
    /// A clock whose probe runs on `threads` threads at once (the number
    /// the timed sections keep busy), for sections that slow down as the
    /// probe's time to the power `sensitivity`, with its first probe
    /// taken now.
    #[must_use]
    pub fn new(threads: usize, sensitivity: f64) -> Self {
        let mut clock = Self {
            table: table(),
            threads: threads.max(1),
            sensitivity,
            last: 0.0,
            factors: Vec::new(),
        };
        clock.last = clock.probe();
        clock
    }

    /// Probe on every thread at once; the mean over the threads.
    fn probe(&self) -> f64 {
        if self.threads == 1 {
            return probe_s(&self.table);
        }
        let table = &self.table;
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| s.spawn(|| probe_s(table)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(f64::NAN))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }

    /// Run `f` as one section and return its result with the section's
    /// host factor. Raw times measured inside `f` divided by the factor
    /// are host-normalised seconds.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let out = f();
        let after = self.probe();
        let factor = ((self.last + after) / (2.0 * REFERENCE_S)).powf(self.sensitivity);
        self.last = after;
        self.factors.push(factor);
        (out, factor)
    }

    /// Run `f` as one section; its result, raw seconds and host-normalised
    /// seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let ((out, raw), factor) = self.measure(|| {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_secs_f64())
        });
        (out, raw, raw / factor)
    }

    /// Median host factor of the sections timed so far (1 with none).
    #[must_use]
    pub fn median_factor(&self) -> f64 {
        let mut f = self.factors.clone();
        if f.is_empty() {
            return 1.0;
        }
        f.sort_by(f64::total_cmp);
        f[f.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_are_divided_by_their_host_factor() {
        let mut clock = HostClock::new(1, 1.0);
        let (v, raw, norm) = clock.time(|| (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        let factor = clock.median_factor();
        assert!(factor > 0.0 && factor.is_finite());
        assert!((norm * factor - raw).abs() <= 1e-12 * raw.max(1.0));
    }

    #[test]
    fn a_two_thread_probe_gives_a_finite_factor() {
        let mut clock = HostClock::new(2, 0.5);
        let ((), factor) = clock.measure(|| ());
        assert!(factor > 0.0 && factor.is_finite());
    }
}
