//! Runs the workloads in fresh child processes of this binary, strictly
//! one at a time, checks every run, and aggregates the metrics.
//!
//! A child process per run gives each run its own peak RSS and stops
//! runs from inheriting each other's heap. The child prints one JSON
//! line; the parent never times anything itself.

use crate::json::{int, num, obj, pretty, text};
use crate::metrics::{compared, Summary, END_TO_END, PER_LAYER};
use crate::workloads::{self, Outcome, Size, Workload, WORKLOADS};
use serde_json::Value;
use std::io::Read as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The seed the committed baseline and `digests.json` use.
pub const DEFAULT_SEED: u64 = 2012;

/// Full-size report digests of every workload at one seed.
const COMMITTED_DIGESTS: &str = include_str!("../digests.json");

/// A child that runs longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Measured untraced runs a single-workload invocation makes at least.
const MIN_REPS: usize = 3;

/// A single-workload invocation starts no run that could end after
/// this, so it always exits within three minutes.
const INVOCATION_CAP: Duration = Duration::from_secs(150);

// ----------------------------------------------------------------------
// child side
// ----------------------------------------------------------------------

/// Peak resident set size of this process (`VmHWM`), MB; 0 without
/// procfs.
fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
        .unwrap_or(0);
    kb as f64 / 1024.0
}

fn outcome_json(o: &Outcome, peak_rss_mb: f64) -> Value {
    let named = |items: &[(&'static str, f64)]| {
        Value::Object(
            items
                .iter()
                .map(|&(n, v)| (n.to_string(), num(v)))
                .collect(),
        )
    };
    let spans = o
        .spans
        .iter()
        .map(|s| {
            Value::Array(vec![
                text(s.name),
                num(s.start_ns as f64 * 1e-6),
                num(s.end_ns as f64 * 1e-6),
                s.parent.map_or(Value::Null, |p| int(p as u64)),
            ])
        })
        .collect();
    obj(vec![
        ("wall_s", num(o.wall_s)),
        ("raw_wall_s", num(o.raw_wall_s)),
        ("host_factor", num(o.host_factor)),
        ("setup_s", num(o.setup_s)),
        ("run_s", num(o.run_s)),
        ("events", int(o.events)),
        ("recover_s", o.recover_s.map_or(Value::Null, num)),
        ("peak_rss_mb", num(peak_rss_mb)),
        ("digest", text(format!("{:016x}", o.digest))),
        (
            "counters",
            Value::Object(
                o.counters
                    .iter()
                    .map(|&(n, v)| (n.to_string(), int(v)))
                    .collect(),
            ),
        ),
        ("layers", named(&o.layers)),
        (
            "self_s",
            if o.layers.is_empty() {
                Value::Object(Vec::new())
            } else {
                named(&workloads::self_times(o))
            },
        ),
        ("spans", Value::Array(spans)),
    ])
}

/// Body of the hidden `child` subcommand: run `w` once and print the
/// outcome as one JSON line. Returns the exit code.
#[must_use]
pub fn child_main(w: Workload, seed: u64, size: Size, traced: bool) -> i32 {
    match workloads::run(w, seed, size, traced) {
        Ok(o) => {
            let line = outcome_json(&o, peak_rss_mb());
            println!("{}", serde_json::to_string(&line).unwrap_or_default());
            0
        }
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            1
        }
    }
}

// ----------------------------------------------------------------------
// parent side: one run
// ----------------------------------------------------------------------

/// One child run as the parent sees it.
#[derive(Clone, Debug)]
struct Rep {
    /// Whether this was a traced run.
    pub traced: bool,
    /// See [`Outcome::wall_s`].
    pub wall_s: f64,
    /// See [`Outcome::raw_wall_s`].
    pub raw_wall_s: f64,
    /// See [`Outcome::host_factor`].
    pub host_factor: f64,
    /// See [`Outcome::setup_s`].
    pub setup_s: f64,
    /// See [`Outcome::run_s`].
    pub run_s: f64,
    /// See [`Outcome::events`].
    pub events: u64,
    /// See [`Outcome::recover_s`].
    pub recover_s: Option<f64>,
    /// Peak RSS of the child, MB.
    pub peak_rss_mb: f64,
    /// See [`Outcome::digest`].
    pub digest: u64,
    /// Deterministic counters.
    pub counters: Vec<(String, u64)>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<(String, f64)>,
    /// Self time per top-level layer (traced runs).
    pub self_s: Vec<(String, f64)>,
    /// Coarse spans as `[name, start_ms, end_ms, parent]` (traced runs).
    pub spans: Value,
}

impl Rep {
    /// Value of an end-to-end metric.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        match name {
            "wall_s" => Some(self.wall_s),
            "raw_wall_s" => Some(self.raw_wall_s),
            "host_factor" => Some(self.host_factor),
            "setup_s" => Some(self.setup_s),
            "events_per_s" => Some(self.events as f64 / self.run_s),
            "peak_rss_mb" => Some(self.peak_rss_mb),
            "recover_s" => self.recover_s,
            _ => None,
        }
    }

    /// Value of a per-layer metric.
    #[must_use]
    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The top-level layer with the largest self time (traced runs).
    #[must_use]
    pub fn dominant_layer(&self) -> Option<&(String, f64)> {
        self.self_s.iter().max_by(|a, b| a.1.total_cmp(&b.1))
    }

    fn parse(line: &str, traced: bool) -> Result<Self, String> {
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("unreadable child output: {e}"))?;
        let f = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("child output lacks {k}"))
        };
        let pairs = |k: &str| -> Vec<(String, f64)> {
            v.get(k)
                .and_then(Value::as_object)
                .unwrap_or(&[])
                .iter()
                .filter_map(|(n, x)| Some((n.clone(), x.as_f64()?)))
                .collect()
        };
        let digest = v
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .ok_or("child output lacks a digest")?;
        Ok(Self {
            traced,
            wall_s: f("wall_s")?,
            raw_wall_s: f("raw_wall_s")?,
            host_factor: f("host_factor")?,
            setup_s: f("setup_s")?,
            run_s: f("run_s")?,
            events: v
                .get("events")
                .and_then(Value::as_u64)
                .ok_or("child output lacks events")?,
            recover_s: v.get("recover_s").and_then(Value::as_f64),
            peak_rss_mb: f("peak_rss_mb")?,
            digest,
            counters: pairs("counters")
                .into_iter()
                .map(|(n, x)| (n, x as u64))
                .collect(),
            layers: pairs("layers"),
            self_s: pairs("self_s"),
            spans: v.get("spans").cloned().unwrap_or(Value::Null),
        })
    }
}

/// Run `w` once in a fresh child process of this binary and wait for
/// it; a child that outlives [`CHILD_TIMEOUT`] is killed and reaped.
fn spawn(w: Workload, seed: u64, size: Size, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name(), "--seed", &seed.to_string()]);
    // glibc raises its mmap threshold to the size of each mmapped block
    // it frees, so which blocks later come from the heap (and stay in
    // the peak RSS) depends on the order of frees: `serve-ring` peaked
    // at 65, 72 or 75 MB by seed alone. Pinned at glibc's default of
    // 128 KiB, it peaks at 62-63 MB on every seed, with no change in
    // run time. Other allocators ignore the variable.
    cmd.env("MALLOC_MMAP_THRESHOLD_", "131072");
    if traced {
        cmd.arg("--traced");
    }
    if size == Size::Small {
        cmd.arg("--small");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting a child: {e}"))?;
    let mut stdout = child.stdout.take().ok_or("child has no stdout")?;
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("{} run timed out", w.name()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("waiting for a child: {e}"));
            }
        }
    };
    let out = reader.join().unwrap_or_default();
    let status = status?;
    if !status.success() {
        return Err(format!("{} run failed ({status})", w.name()));
    }
    let line = out.lines().last().unwrap_or_default();
    Rep::parse(line, traced)
}

// ----------------------------------------------------------------------
// verification
// ----------------------------------------------------------------------

/// The committed full-size digest of `w` at `seed`, if `digests.json`
/// records that seed.
fn committed_digest(w: Workload, seed: u64) -> Option<u64> {
    let v: Value = serde_json::from_str(COMMITTED_DIGESTS).ok()?;
    if v.get("seed").and_then(Value::as_u64) != Some(seed) {
        return None;
    }
    v.get(w.name())
        .and_then(Value::as_str)
        .and_then(|d| u64::from_str_radix(d, 16).ok())
}

/// Runs of one workload after verification.
#[derive(Debug, Default)]
struct Checked {
    /// Runs attempted.
    pub attempted: usize,
    /// Why each failed run failed.
    pub failures: Vec<String>,
    /// The runs that passed, in run order, each flagged whether it was
    /// measured (warm-up runs are checked but not measured).
    pub passed: Vec<(bool, Rep)>,
    /// The digest every passing run reproduced.
    pub digest: Option<u64>,
}

impl Checked {
    /// Passing measured untraced runs.
    pub fn untraced(&self) -> impl Iterator<Item = &Rep> {
        self.passed
            .iter()
            .filter(|(measured, r)| *measured && !r.traced)
            .map(|(_, r)| r)
    }

    /// Passing traced runs.
    pub fn traced(&self) -> impl Iterator<Item = &Rep> {
        self.passed.iter().filter(|(_, r)| r.traced).map(|(_, r)| r)
    }

    /// Summary of an end-to-end metric over the measured untraced runs.
    #[must_use]
    pub fn summary(&self, metric: &str) -> Option<Summary> {
        let values: Vec<f64> = self.untraced().filter_map(|r| r.metric(metric)).collect();
        Summary::of(&values)
    }

    /// Failed runs over attempted runs.
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

/// Check runs of `w` against each other: every run must reproduce one
/// digest (the committed one, at the committed seed and full size), one
/// event count and one set of deterministic counters. A run that fails
/// any check is left out of the timings.
#[must_use]
fn verify(w: Workload, seed: u64, size: Size, runs: Vec<(bool, Result<Rep, String>)>) -> Checked {
    let committed = (size == Size::Full)
        .then(|| committed_digest(w, seed))
        .flatten();
    let mut checked = Checked {
        attempted: runs.len(),
        digest: committed,
        ..Checked::default()
    };
    let mut events = None;
    let mut counters: Option<Vec<(String, u64)>> = None;
    for (measured, run) in runs {
        let rep = match run {
            Ok(rep) => rep,
            Err(e) => {
                checked.failures.push(e);
                continue;
            }
        };
        let want = *checked.digest.get_or_insert(rep.digest);
        if rep.digest != want {
            checked.failures.push(format!(
                "{}: report digest {:016x}, expected {want:016x}",
                w.name(),
                rep.digest
            ));
            continue;
        }
        if rep.events != *events.get_or_insert(rep.events) {
            checked.failures.push(format!(
                "{}: {} events, another run popped {}",
                w.name(),
                rep.events,
                events.unwrap_or_default()
            ));
            continue;
        }
        if !rep.counters.is_empty() && &rep.counters != counters.get_or_insert(rep.counters.clone())
        {
            checked.failures.push(format!(
                "{}: deterministic counters differ between runs",
                w.name()
            ));
            continue;
        }
        checked.passed.push((measured, rep));
    }
    checked
}

// ----------------------------------------------------------------------
// single workload: the BENCHMARK.json command
// ----------------------------------------------------------------------

fn metric_json(value: f64, unit: &str) -> Value {
    obj(vec![("value", num(value)), ("unit", text(unit))])
}

/// Median of per-layer metric `name` over the traced runs, finishing the
/// ratios that need the untraced raw wall time.
fn layer_median(c: &Checked, name: &str, untraced_wall: f64) -> Option<f64> {
    let values: Vec<f64> = c
        .traced()
        .filter_map(|r| match name {
            "trace.overhead_ratio" => Some(r.wall_s / untraced_wall),
            _ => r.layer(name),
        })
        .collect();
    Summary::of(&values).map(|s| s.median)
}

/// Run one workload for about `seconds` and print the result line:
/// end-to-end medians untraced, or per-layer medians with `trace`. A
/// small-size warm-up run comes first, which loads the binary and the
/// file system paths and must succeed; with `trace`, traced runs
/// alternate with the untraced ones the overhead ratio needs. Returns
/// the exit code.
#[must_use]
pub fn run_workload(w: Workload, seed: u64, seconds: u64, trace: bool, size: Size) -> i32 {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut runs = Vec::new();
    if let Err(e) = spawn(w, seed, Size::Small, false) {
        runs.push((false, Err(format!("warm-up: {e}"))));
    }
    let (mut untraced, mut traced) = (0usize, 0usize);
    let mut last = Duration::ZERO;
    loop {
        let enough = untraced >= MIN_REPS && (!trace || traced >= 1);
        let fits = start.elapsed() + last <= budget;
        if (enough && !fits) || start.elapsed() + last * 2 > INVOCATION_CAP {
            break;
        }
        let as_traced = trace && traced * 2 < untraced;
        let t = Instant::now();
        runs.push((true, spawn(w, seed, size, as_traced)));
        last = t.elapsed();
        if as_traced {
            traced += 1;
        } else {
            untraced += 1;
        }
    }
    let checked = verify(w, seed, size, runs);
    for f in &checked.failures {
        eprintln!("FAILED {f}");
    }
    let mut metrics = Vec::new();
    let untraced_wall = checked.summary("raw_wall_s").map(|s| s.median);
    if trace {
        for m in &PER_LAYER {
            if let Some(v) = untraced_wall.and_then(|u| layer_median(&checked, m.name, u)) {
                metrics.push((m.name.to_string(), metric_json(v, m.unit)));
            }
        }
    } else {
        for m in &END_TO_END {
            if let Some(s) = checked.summary(m.name) {
                metrics.push((m.name.to_string(), metric_json(s.median, m.unit)));
            }
        }
    }
    let expected = if trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    let correct = checked.failures.is_empty() && metrics.len() == expected;
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", int(checked.attempted as u64)),
        ("failed", int(checked.failures.len() as u64)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    i32::from(!correct)
}

// ----------------------------------------------------------------------
// all workloads: the committed baseline
// ----------------------------------------------------------------------

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine block every result set records.
fn machine() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let repo = repo.to_string_lossy();
    obj(vec![
        (
            "nproc",
            int(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("cpu", text(cpu)),
        ("kernel", text(kernel)),
        ("rustc", text(first_line("rustc", &["-V"]))),
        (
            "commit",
            text(first_line("git", &["-C", &repo, "rev-parse", "HEAD"])),
        ),
        ("grid_jobs", int(workloads::grid_jobs() as u64)),
    ])
}

fn summary_json(s: &Summary, unit: &str) -> Value {
    obj(vec![
        ("unit", text(unit)),
        ("median", num(s.median)),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("min", num(s.min)),
        ("max", num(s.max)),
        ("n", int(s.n as u64)),
    ])
}

fn workload_json(w: Workload, c: &Checked) -> (String, Value) {
    let e2e = compared()
        .filter_map(|m| {
            Some((
                m.name.to_string(),
                summary_json(&c.summary(m.name)?, m.unit),
            ))
        })
        .collect();
    let mut fields = vec![
        ("attempted", int(c.attempted as u64)),
        ("failed", int(c.failures.len() as u64)),
        ("fail_ratio", num(c.fail_ratio())),
        (
            "failures",
            Value::Array(c.failures.iter().map(text).collect()),
        ),
        (
            "digest",
            c.digest.map_or(Value::Null, |d| text(format!("{d:016x}"))),
        ),
        ("end_to_end", Value::Object(e2e)),
    ];
    for (name, unit) in [("raw_wall_s", "s"), ("host_factor", "ratio")] {
        if let Some(s) = c.summary(name) {
            fields.push((name, summary_json(&s, unit)));
        }
    }
    let untraced_wall = c.summary("raw_wall_s").map(|s| s.median);
    if let (Some(t), Some(wall)) = (c.traced().next(), untraced_wall) {
        let mut layers: Vec<(String, Value)> =
            t.layers.iter().map(|(n, v)| (n.clone(), num(*v))).collect();
        layers.push(("trace.overhead_ratio".to_string(), num(t.wall_s / wall)));
        if let (Some(sum), Some(largest)) = (
            t.layer("sweep.serial_sum_s"),
            t.layer("sweep.largest_point_s"),
        ) {
            let jobs = workloads::grid_jobs() as f64;
            layers.push((
                "sweep.parallel_efficiency".to_string(),
                num(sum / (jobs * wall)),
            ));
            layers.push(("sweep.straggler_share".to_string(), num(largest / wall)));
        }
        let dominant = t.dominant_layer().map_or("none", |(n, _)| n.as_str());
        let accounted: f64 = t.self_s.iter().map(|(_, s)| s).sum();
        fields.push((
            "trace",
            obj(vec![
                ("wall_s", num(t.wall_s)),
                ("dominant_layer", text(dominant)),
                ("accounted_share", num(accounted / t.wall_s)),
                (
                    "self_s",
                    Value::Object(t.self_s.iter().map(|(n, v)| (n.clone(), num(*v))).collect()),
                ),
                ("layers", Value::Object(layers)),
                ("spans", t.spans.clone()),
            ]),
        ));
    }
    (w.name().to_string(), obj(fields))
}

fn print_table(results: &[(Workload, Checked)]) {
    println!(
        "{:<16} {:<13} {:>14} {:>14} {:>14} {:>4}",
        "workload", "metric", "median", "q1", "q3", "n"
    );
    for (w, c) in results {
        for m in compared() {
            if let Some(s) = c.summary(m.name) {
                println!(
                    "{:<16} {:<13} {:>14.6} {:>14.6} {:>14.6} {:>4}  {}",
                    w.name(),
                    m.name,
                    s.median,
                    s.q1,
                    s.q3,
                    s.n,
                    m.unit
                );
            }
        }
        println!(
            "{:<16} {:<13} {:>14.6}",
            w.name(),
            "fail_ratio",
            c.fail_ratio()
        );
        if let Some(t) = c.traced().next() {
            if let Some((name, s)) = t.dominant_layer() {
                println!(
                    "{:<16} dominant layer {name}: {:.1}% of the traced wall",
                    w.name(),
                    100.0 * s / t.wall_s
                );
            }
        }
    }
}

/// Run every workload: one discarded warm-up round and `reps` measured
/// rounds, rotating the workload order each round, then one traced run
/// per workload. Prints a table, writes the full result set to `out`,
/// and returns the exit code (nonzero if any run failed).
#[must_use]
pub fn run_all(seed: u64, reps: usize, size: Size, out: Option<&Path>, command: &str) -> i32 {
    let mut runs: Vec<Vec<(bool, Result<Rep, String>)>> =
        WORKLOADS.iter().map(|_| Vec::new()).collect();
    for round in 0..=reps {
        for i in 0..WORKLOADS.len() {
            let k = (i + round) % WORKLOADS.len();
            let w = WORKLOADS[k];
            eprintln!("round {round}/{reps}: {}", w.name());
            runs[k].push((round > 0, spawn(w, seed, size, false)));
        }
    }
    for (k, &w) in WORKLOADS.iter().enumerate() {
        eprintln!("traced: {}", w.name());
        runs[k].push((true, spawn(w, seed, size, true)));
    }
    let results: Vec<(Workload, Checked)> = WORKLOADS
        .iter()
        .zip(runs)
        .map(|(&w, r)| (w, verify(w, seed, size, r)))
        .collect();
    print_table(&results);
    let failed: usize = results.iter().map(|(_, c)| c.failures.len()).sum();
    for (_, c) in &results {
        for f in &c.failures {
            eprintln!("FAILED {f}");
        }
    }
    let doc = obj(vec![
        ("benchmark", text("dreamsim")),
        ("command", text(command)),
        ("seed", int(seed)),
        ("reps", int(reps as u64)),
        (
            "size",
            text(if size == Size::Full { "full" } else { "small" }),
        ),
        ("machine", machine()),
        (
            "workloads",
            Value::Object(results.iter().map(|(w, c)| workload_json(*w, c)).collect()),
        ),
    ]);
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, pretty(&doc)) {
            eprintln!("writing {}: {e}", path.display());
            return 1;
        }
    }
    i32::from(failed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(digest: u64, events: u64, counters: &[(&str, u64)]) -> Rep {
        Rep {
            traced: false,
            wall_s: 1.0,
            raw_wall_s: 1.0,
            host_factor: 1.0,
            setup_s: 0.1,
            run_s: 0.9,
            events,
            recover_s: None,
            peak_rss_mb: 10.0,
            digest,
            counters: counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            layers: Vec::new(),
            self_s: Vec::new(),
            spans: Value::Null,
        }
    }

    #[test]
    fn runs_that_disagree_are_failed_and_left_out() {
        let c = [("engine.events_popped", 7)];
        let runs = vec![
            (false, Ok(rep(1, 7, &c))),
            (true, Ok(rep(1, 7, &c))),
            (true, Ok(rep(2, 7, &c))),
            (true, Ok(rep(1, 8, &c))),
            (true, Ok(rep(1, 7, &[("engine.events_popped", 9)]))),
            (true, Err("crashed".to_string())),
            (true, Ok(rep(1, 7, &c))),
        ];
        let checked = verify(Workload::Scale1m, 5, Size::Small, runs);
        assert_eq!(checked.attempted, 7);
        assert_eq!(checked.failures.len(), 4, "{:?}", checked.failures);
        assert_eq!(checked.untraced().count(), 2, "the warm-up is not measured");
        assert_eq!(checked.summary("wall_s").map(|s| s.n), Some(2));
    }

    #[test]
    fn the_committed_digest_is_enforced_at_its_seed_only() {
        let seed = DEFAULT_SEED;
        let committed = committed_digest(Workload::ServeRing, seed).expect("a committed digest");
        let wrong = committed ^ 1;
        let checked = verify(
            Workload::ServeRing,
            seed,
            Size::Full,
            vec![(true, Ok(rep(wrong, 1, &[])))],
        );
        assert_eq!(checked.failures.len(), 1);
        let checked = verify(
            Workload::ServeRing,
            seed + 1,
            Size::Full,
            vec![(true, Ok(rep(wrong, 1, &[])))],
        );
        assert!(checked.failures.is_empty());
        let checked = verify(
            Workload::ServeRing,
            seed,
            Size::Small,
            vec![(true, Ok(rep(wrong, 1, &[])))],
        );
        assert!(checked.failures.is_empty());
    }
}
