//! Chaos campaign harness (`dreamsim chaos`, DESIGN.md §14).
//!
//! A *campaign* is a list of declarative scenarios — correlated
//! failure-domain outages, overload bursts, bounded-queue admission
//! policies — each of which runs as an ordinary audited simulation.
//! The harness adds a *kill-and-resume drill* per scenario: the run is
//! repeated with periodic checkpoints, the live simulator is thrown
//! away, the earliest on-disk snapshot is resumed, and the resumed
//! run's final XML report must be byte-identical to the uninterrupted
//! baseline. A drill that does not reconverge is a hard error, not a
//! report footnote.
//!
//! ## Scenario script format
//!
//! Line-oriented; `#` starts a comment, blank lines separate nothing.
//! Every scenario opens with `scenario <name>`; the directives that
//! follow apply to it until the next `scenario` line. A directive is a
//! `dreamsim run` parameter flag without its `--`, then the flag's value
//! ([`SimParams::FLAGS`] lists them, and [`SimParams::set`] reads them
//! for both front ends):
//!
//! ```text
//! scenario rack-outage
//! nodes 40                      # cluster size          (default 40)
//! tasks 400                     # workload size         (default 400)
//! seed 11                       # master seed           (default 42)
//! domains 4                     # failure domains, before the lines below
//! domain-mttf 3000              # stochastic outages (omit for scripted-only)
//! domain-mttr 400               # mean repair time      (default 1000)
//! domain-kind fail              # fail | partition
//! outages 0:500:800,2:1500:600  # scripted: domain:start:duration, ...
//! mttf 2000                     # per-node failure processes
//! mttr 150
//! burst 0,4000,2                # overload window: start,end,interval
//! suspension-cap 32             # bounded suspension queue
//! admission shed-oldest         # block | shed-oldest | degrade-closest
//! suspension-deadline 2000      # shed parked tasks after this long
//! ```
//!
//! Directives apply in script order, each at most once per scenario,
//! and a scenario is validated ([`SimParams::validate`]) where it ends.

use dreamsim_engine::{
    read_checkpoint, scan_ring, serve, ArrivalDistribution, BurstWindow, CheckpointError,
    ReconfigMode, RunOptions, RunResult, ServiceError, ServiceOptions, ServiceParams, SimParams,
    Simulation,
};
use dreamsim_model::Ticks;
use dreamsim_sched::CaseStudyScheduler;
use dreamsim_workload::{OpenSource, SyntheticSource};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Why a campaign could not be parsed or executed.
#[derive(Debug)]
pub enum ChaosError {
    /// A scenario script line did not parse.
    Parse {
        /// 1-based line number in the script.
        line: usize,
        /// What was wrong.
        detail: String,
    },
    /// A simulation inside the campaign failed (invalid parameters, a
    /// failed audit, or checkpoint I/O during the drill).
    Run(String),
    /// The drill checkpoint could not be read back.
    Checkpoint(CheckpointError),
    /// Filesystem failure in the campaign work directory.
    Io(std::io::Error),
    /// The kill-and-resume drill diverged from the baseline run — the
    /// one error this harness exists to catch.
    DrillMismatch {
        /// Scenario whose drill diverged.
        scenario: String,
        /// Simulation time of the resumed checkpoint.
        checkpoint_at: Ticks,
    },
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Parse { line, detail } => {
                write!(f, "scenario script line {line}: {detail}")
            }
            ChaosError::Run(msg) => write!(f, "campaign run failed: {msg}"),
            ChaosError::Checkpoint(e) => write!(f, "drill checkpoint unreadable: {e}"),
            ChaosError::Io(e) => write!(f, "campaign work dir I/O error: {e}"),
            ChaosError::DrillMismatch {
                scenario,
                checkpoint_at,
            } => write!(
                f,
                "kill-and-resume drill diverged in scenario {scenario:?}: resume from \
                 t={checkpoint_at} did not reproduce the baseline report"
            ),
        }
    }
}

impl std::error::Error for ChaosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChaosError::Checkpoint(e) => Some(e),
            ChaosError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ChaosError {
    fn from(e: std::io::Error) -> Self {
        ChaosError::Io(e)
    }
}

impl From<CheckpointError> for ChaosError {
    fn from(e: CheckpointError) -> Self {
        ChaosError::Checkpoint(e)
    }
}

/// One declarative chaos scenario: a name and the run it describes (see
/// the module docs for the script syntax it parses from).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosScenario {
    /// Scenario name, carried into reports and drill directories.
    pub name: String,
    /// Simulation parameters: Table II defaults for 40 nodes, 400 tasks,
    /// partial mode and seed 42, overridden by the scenario's directives.
    pub params: SimParams,
}

fn parse_err(line: usize, detail: impl Into<String>) -> ChaosError {
    ChaosError::Parse {
        line,
        detail: detail.into(),
    }
}

/// Validate the scenario that opened on line `line`, if any.
fn check_scenario(sc: Option<&ChaosScenario>, line: usize) -> Result<(), ChaosError> {
    match sc {
        Some(sc) => sc
            .params
            .validate()
            .map_err(|e| parse_err(line, format!("scenario {:?}: {e}", sc.name))),
        None => Ok(()),
    }
}

/// Parse a campaign script into scenarios. Errors carry the offending
/// 1-based line number; an invalid scenario names its `scenario` line.
pub fn parse_campaign(text: &str) -> Result<Vec<ChaosScenario>, ChaosError> {
    let mut out: Vec<ChaosScenario> = Vec::new();
    // The open scenario's `scenario` line and the directives it has set.
    let mut opened = 0;
    let mut seen: Vec<&str> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let stripped = raw.split('#').next().unwrap_or("").trim();
        if stripped.is_empty() {
            continue;
        }
        let (key, value) = stripped
            .split_once(char::is_whitespace)
            .map_or((stripped, ""), |(k, v)| (k, v.trim()));
        if key == "scenario" {
            check_scenario(out.last(), opened)?;
            if value.is_empty() || value.contains(char::is_whitespace) {
                return Err(parse_err(line, "`scenario` expects one name"));
            }
            if out.iter().any(|s| s.name == value) {
                return Err(parse_err(
                    line,
                    format!("duplicate scenario name {value:?}"),
                ));
            }
            out.push(ChaosScenario {
                name: value.to_string(),
                params: SimParams::paper(40, 400, ReconfigMode::Partial).with_seed(42),
            });
            opened = line;
            seen.clear();
            continue;
        }
        let sc = out
            .last_mut()
            .ok_or_else(|| parse_err(line, format!("`{key}` before any `scenario` line")))?;
        // A repeat would silently overwrite the earlier line.
        if seen.contains(&key) {
            return Err(parse_err(
                line,
                format!("`{key}` given twice in scenario {:?}", sc.name),
            ));
        }
        seen.push(key);
        sc.params
            .set(key, value)
            .map_err(|e| parse_err(line, e.to_string()))?;
    }
    check_scenario(out.last(), opened)?;
    Ok(out)
}

/// The built-in campaign behind `dreamsim chaos` with no script: one
/// scenario per chaos mechanism, sized to finish in seconds.
pub const BUILTIN_CAMPAIGN: &str = "\
# Built-in chaos campaign: one scenario per chaos mechanism.
scenario rack-outage          # scripted correlated failures
nodes 40
tasks 400
seed 11
domains 4
domain-mttr 400
domain-kind fail
outages 0:500:800,2:1500:600

scenario partition-storm      # stochastic partitions with recovery
nodes 40
tasks 400
seed 12
domains 4
domain-mttf 3000
domain-mttr 300
domain-kind partition
suspension-deadline 1500

scenario overload-shed        # arrival burst against a bounded queue
nodes 24
tasks 600
seed 13
burst 0,4000,2
suspension-cap 32
admission shed-oldest
suspension-deadline 2000
";

/// Campaign execution knobs.
#[derive(Clone, Copy, Debug)]
pub struct CampaignOptions {
    /// Audit the full invariant set every this many ticks (continuous
    /// auditing is the point of a chaos campaign, so this defaults on).
    pub audit_every: Option<Ticks>,
    /// Run the kill-and-resume drill per scenario.
    pub drill: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            audit_every: Some(500),
            drill: true,
        }
    }
}

/// Outcome of one kill-and-resume drill.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct DrillResult {
    /// Simulation time of the resumed snapshot.
    pub checkpoint_at: Ticks,
    /// Whether the resumed report matched the baseline byte-for-byte
    /// (always true in a returned report; a mismatch is an error).
    pub report_identical: bool,
}

/// Per-scenario campaign results: the availability/degradation metric
/// family plus the drill outcome.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct CampaignCase {
    /// Scenario name.
    pub name: String,
    /// Tasks completed.
    pub completed: u64,
    /// Tasks discarded for any reason.
    pub discarded: u64,
    /// Tasks shed by admission control or deadline.
    pub shed: u64,
    /// Tasks degraded to a larger configuration.
    pub degraded: u64,
    /// Tasks lost to faults.
    pub lost: u64,
    /// Correlated domain outages.
    pub domain_outages: u64,
    /// Domain restores.
    pub domain_restores: u64,
    /// Per-domain downtime in ticks.
    pub domain_downtime: Vec<Ticks>,
    /// Mean time-to-recover over closed outages.
    pub mean_time_to_recover: f64,
    /// Total simulated time.
    pub makespan: Ticks,
    /// Drill outcome (absent when drills are disabled).
    pub drill: Option<DrillResult>,
}

/// Full campaign output.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct CampaignReport {
    /// One entry per scenario, in script order.
    pub cases: Vec<CampaignCase>,
}

impl CampaignReport {
    /// CSV rendering (header + one row per scenario).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,completed,discarded,shed,degraded,lost,domain_outages,\
             domain_restores,total_domain_downtime,mean_time_to_recover,makespan,\
             drill_checkpoint_at,drill_report_identical\n",
        );
        for c in &self.cases {
            let downtime: Ticks = c.domain_downtime.iter().sum();
            let (at, ok) = match c.drill {
                Some(d) => (d.checkpoint_at.to_string(), d.report_identical.to_string()),
                None => (String::new(), String::new()),
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                c.name,
                c.completed,
                c.discarded,
                c.shed,
                c.degraded,
                c.lost,
                c.domain_outages,
                c.domain_restores,
                downtime,
                c.mean_time_to_recover,
                c.makespan,
                at,
                ok,
            );
        }
        out
    }

    /// Pretty JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        // INVARIANT: plain data with no maps or non-string keys;
        // serialization cannot fail.
        serde_json::to_string_pretty(self).expect("campaign report serializes")
    }
}

fn run_one(params: &SimParams, opts: &RunOptions) -> Result<RunResult, ChaosError> {
    let source = SyntheticSource::from_params(params);
    Simulation::new(params.clone(), source, CaseStudyScheduler::new())
        .map_err(|e| ChaosError::Run(e.to_string()))?
        .run_with(opts)
        .map_err(|e| ChaosError::Run(e.to_string()))
}

/// Run one scenario: audited baseline, then (optionally) the
/// kill-and-resume drill. `work_dir` holds the drill's checkpoints, in
/// a subdirectory named after the scenario.
pub fn run_scenario(
    sc: &ChaosScenario,
    opts: &CampaignOptions,
    work_dir: &Path,
) -> Result<CampaignCase, ChaosError> {
    sc.params
        .validate()
        .map_err(|e| ChaosError::Run(format!("scenario {:?}: {e}", sc.name)))?;
    let run_opts = RunOptions {
        audit_every: opts.audit_every,
        ..RunOptions::default()
    };
    let base = run_one(&sc.params, &run_opts)?;
    let m = base.report.metrics.clone();
    let drill = if opts.drill {
        Some(drill_scenario(sc, &run_opts, &base, work_dir)?)
    } else {
        None
    };
    Ok(CampaignCase {
        name: sc.name.clone(),
        completed: m.total_tasks_completed,
        discarded: m.total_discarded_tasks,
        shed: m.tasks_shed,
        degraded: m.tasks_degraded,
        lost: m.tasks_lost,
        domain_outages: m.domain_outages,
        domain_restores: m.domain_restores,
        domain_downtime: m.domain_downtime.clone(),
        mean_time_to_recover: m.mean_time_to_recover,
        makespan: m.total_simulation_time,
        drill,
    })
}

/// The kill-and-resume drill: repeat the run with periodic checkpoints
/// (standing in for the process that gets killed), discard its live
/// result, resume the *earliest* on-disk snapshot, and demand the
/// resumed final report match the baseline byte-for-byte.
fn drill_scenario(
    sc: &ChaosScenario,
    run_opts: &RunOptions,
    base: &RunResult,
    work_dir: &Path,
) -> Result<DrillResult, ChaosError> {
    let dir = work_dir.join(&sc.name);
    std::fs::create_dir_all(&dir)?;
    let every = (base.report.metrics.total_simulation_time / 2).max(1);
    let kill_opts = RunOptions {
        checkpoint_every: Some(every),
        checkpoint_dir: Some(dir.clone()),
        ..run_opts.clone()
    };
    // The "killed" process: same run, but leaving snapshots behind. Its
    // in-memory result is discarded — only the files survive the kill.
    let _killed = run_one(&sc.params, &kill_opts)?;
    let snapshots = scan_ring(&dir)?;
    let first = snapshots.first().ok_or_else(|| {
        ChaosError::Run(format!(
            "drill for scenario {:?} produced no checkpoint",
            sc.name
        ))
    })?;
    let cp = read_checkpoint(&first.path)?;
    let checkpoint_at = cp.clock();
    let source = SyntheticSource::from_params(cp.params());
    let resumed = Simulation::resume(cp, source, CaseStudyScheduler::new())?
        .run_with(run_opts)
        .map_err(|e| ChaosError::Run(e.to_string()))?;
    if resumed.report.to_xml() != base.report.to_xml() {
        return Err(ChaosError::DrillMismatch {
            scenario: sc.name.clone(),
            checkpoint_at,
        });
    }
    Ok(DrillResult {
        checkpoint_at,
        report_identical: true,
    })
}

/// Outcome of the kill-and-auto-recover *service* drill (the `serve`
/// counterpart of [`DrillResult`]).
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct ServiceDrillReport {
    /// Simulated clock at which the service was killed mid-window.
    pub killed_at: Ticks,
    /// Snapshot clock the straight recovery resumed from.
    pub recovered_clock: Option<Ticks>,
    /// Ring file deliberately corrupted for the fallback leg.
    pub corrupted_entry: String,
    /// Snapshot clock the fallback recovery resumed from (older than
    /// the corrupted entry).
    pub fallback_clock: Option<Ticks>,
    /// Snapshots the fallback recovery rejected (the corrupted one).
    pub fallback_rejected: u64,
    /// Both recovered windows matched the uninterrupted baseline report
    /// byte for byte (always true in a returned report; a mismatch is a
    /// [`ChaosError::DrillMismatch`]).
    pub report_identical: bool,
}

impl ServiceDrillReport {
    /// Pretty JSON for the CI artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        // INVARIANT: plain strings and integers; serialization cannot
        // fail.
        serde_json::to_string_pretty(self).expect("service drill report serializes")
    }
}

/// The service drill's fixed parameter set: an open-system window with
/// a diurnal curve, a composed burst, and sliding-window metrics — big
/// enough to cross several ring boundaries, small enough for CI.
fn service_drill_params() -> SimParams {
    let horizon = 6_000;
    let mut p = SimParams::paper(20, 0, ReconfigMode::Partial);
    p.seed = 20_260_807;
    p.arrival = ArrivalDistribution::Poisson;
    p.burst = Some(BurstWindow {
        start: 2_000,
        end: 3_000,
        interval: 2,
    });
    p.service = Some(ServiceParams {
        horizon,
        day_length: 2_000,
        amplitude_permille: 400,
        window: 1_000,
        window_retain: 4,
    });
    // Inter-arrival is at least one tick, so horizon + 1 tasks is a
    // true upper bound on arrivals inside the window: the source never
    // exhausts before the horizon.
    p.total_tasks = horizon as usize + 1;
    p
}

fn serve_drill_leg(
    params: &SimParams,
    ring_dir: PathBuf,
    stop_at: Option<Ticks>,
) -> Result<dreamsim_engine::ServiceOutcome, ChaosError> {
    let opts = ServiceOptions {
        ring_every: 1_000,
        audit_every: Some(500),
        stop_at,
        ..ServiceOptions::new(ring_dir)
    };
    serve(
        params,
        OpenSource::from_params,
        CaseStudyScheduler::new,
        &opts,
    )
    .map_err(|e: ServiceError| ChaosError::Run(e.to_string()))
}

fn copy_ring(from: &Path, to: &Path) -> Result<(), ChaosError> {
    std::fs::create_dir_all(to)?;
    for entry in scan_ring(from)? {
        // INVARIANT: scan_ring only yields well-formed checkpoint-*.dsc
        // names, which always have a final path component.
        let name = entry.path.file_name().expect("ring entry has a file name");
        std::fs::copy(&entry.path, to.join(name))?;
    }
    Ok(())
}

/// The kill-and-auto-recover service drill (`dreamsim serve`'s
/// counterpart of [`drill_scenario`], DESIGN.md §15):
///
/// 1. run the service window uninterrupted → baseline report;
/// 2. rerun it with the deterministic kill switch mid-window (no final
///    snapshot survives, exactly like a SIGKILL);
/// 3. auto-recover from the ring and drain: the final report must be
///    byte-identical to the baseline;
/// 4. corrupt the *newest* snapshot in a pristine copy of the killed
///    ring, recover again: recovery must fall back to the older
///    snapshot and still reproduce the baseline byte for byte.
pub fn service_drill(work_dir: &Path) -> Result<ServiceDrillReport, ChaosError> {
    let params = service_drill_params();
    let base_dir = work_dir.join("service-base");
    let crash_dir = work_dir.join("service-crash");
    let fallback_dir = work_dir.join("service-fallback");

    let base = serve_drill_leg(&params, base_dir, None)?;
    let base_xml = base
        .result
        .as_ref()
        .map(|r| r.report.to_xml())
        .ok_or_else(|| ChaosError::Run("baseline service produced no report".into()))?;

    let killed = serve_drill_leg(&params, crash_dir.clone(), Some(3_000))?;
    if !killed.killed || killed.result.is_some() {
        return Err(ChaosError::Run(
            "kill switch did not end the service mid-window".into(),
        ));
    }
    let killed_at = killed.final_clock;
    // Freeze the killed ring for the corruption leg before recovery
    // extends it.
    copy_ring(&crash_dir, &fallback_dir)?;

    // Leg 3: straight auto-recovery.
    let recovered = serve_drill_leg(&params, crash_dir, None)?;
    let recovered_xml = recovered
        .result
        .as_ref()
        .map(|r| r.report.to_xml())
        .ok_or_else(|| ChaosError::Run("recovered service produced no report".into()))?;
    if recovered_xml != base_xml {
        return Err(ChaosError::DrillMismatch {
            scenario: "service".to_string(),
            checkpoint_at: recovered.recovery.recovered_clock.unwrap_or(0),
        });
    }

    // Leg 4: corrupt the newest snapshot, recover past it.
    let entries = scan_ring(&fallback_dir)?;
    let newest = entries
        .last()
        .ok_or_else(|| ChaosError::Run("killed service left no ring snapshot".into()))?;
    let mut bytes = std::fs::read(&newest.path)?;
    let n = bytes.len();
    if n < 2 {
        return Err(ChaosError::Run("ring snapshot impossibly short".into()));
    }
    bytes[n - 2] ^= 0xFF;
    std::fs::write(&newest.path, &bytes)?;
    let corrupted_entry = newest
        .path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();

    let fallback = serve_drill_leg(&params, fallback_dir, None)?;
    let fallback_xml = fallback
        .result
        .as_ref()
        .map(|r| r.report.to_xml())
        .ok_or_else(|| ChaosError::Run("fallback service produced no report".into()))?;
    if fallback_xml != base_xml {
        return Err(ChaosError::DrillMismatch {
            scenario: "service-fallback".to_string(),
            checkpoint_at: fallback.recovery.recovered_clock.unwrap_or(0),
        });
    }
    if !fallback
        .recovery
        .rejected
        .iter()
        .any(|r| r.file == corrupted_entry)
    {
        return Err(ChaosError::Run(format!(
            "fallback recovery did not reject the corrupted snapshot {corrupted_entry:?}"
        )));
    }

    Ok(ServiceDrillReport {
        killed_at,
        recovered_clock: recovered.recovery.recovered_clock,
        corrupted_entry,
        fallback_clock: fallback.recovery.recovered_clock,
        fallback_rejected: fallback.recovery.rejected.len() as u64,
        report_identical: true,
    })
}

/// Run a whole campaign, scenario by scenario.
pub fn run_campaign(
    scenarios: &[ChaosScenario],
    opts: &CampaignOptions,
    work_dir: &Path,
) -> Result<CampaignReport, ChaosError> {
    let mut cases = Vec::with_capacity(scenarios.len());
    for sc in scenarios {
        cases.push(run_scenario(sc, opts, work_dir)?);
    }
    Ok(CampaignReport { cases })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dreamsim_engine::{AdmissionPolicy, DomainOutageKind};

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dreamsim-chaos-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// CRC-32 (IEEE, bitwise), the fingerprint of a pinned parameter set.
    fn crc32(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// Assert that `text`'s scenarios parse to exactly the pinned
    /// parameter sets, by name and by the CRC-32 of their compact JSON.
    fn assert_params_pinned(text: &str, pins: &[(&str, u32)]) {
        let scs = parse_campaign(text).unwrap();
        assert_eq!(scs.len(), pins.len());
        for (sc, &(name, crc)) in scs.iter().zip(pins) {
            assert_eq!(sc.name, name);
            let json = serde_json::to_string(&sc.params).unwrap();
            assert_eq!(
                crc32(json.as_bytes()),
                crc,
                "scenario {name:?} no longer yields its pinned parameters: {json}"
            );
        }
    }

    #[test]
    fn builtin_campaign_parses() {
        let scs = parse_campaign(BUILTIN_CAMPAIGN).unwrap();
        assert_eq!(scs.len(), 3);
        assert_eq!(scs[0].name, "rack-outage");
        let d = scs[0].params.domains.as_ref().unwrap();
        assert_eq!(d.count, 4);
        assert_eq!(d.scripted.len(), 2);
        assert_eq!(d.kind, DomainOutageKind::Fail);
        let d = scs[1].params.domains.as_ref().unwrap();
        assert_eq!(d.mttf, Some(3000));
        assert_eq!(d.kind, DomainOutageKind::Partition);
        assert_eq!(scs[2].params.suspension_cap, Some(32));
        assert_eq!(scs[2].params.admission, AdmissionPolicy::ShedOldest);
        assert!(scs[2].params.burst.is_some());
    }

    /// A parser or Table II change that moves a built-in scenario's run
    /// fails here, and so changes the campaign's reports.
    #[test]
    fn builtin_scenarios_yield_their_pinned_params() {
        assert_params_pinned(
            BUILTIN_CAMPAIGN,
            &[
                ("rack-outage", 0xCCA2_B4E7),
                ("partition-storm", 0xA79B_0BEF),
                ("overload-shed", 0xC90C_C261),
            ],
        );
    }

    /// Each directive writes its own field (`mttr` sets only
    /// `faults.node_mttr`), and a directive-free scenario is the
    /// 40-node, 400-task, seed-42 partial run; pinned like the built-ins.
    #[test]
    fn every_directive_yields_its_pinned_params() {
        assert_params_pinned(
            "scenario every\nnodes 8\ntasks 40\nseed 3\ndomains 2\ndomain-mttf 500\n\
             domain-mttr 60\ndomain-kind partition\noutages 1:10:50\nmttf 2000\n\
             mttr 150\nburst 0,400,2\nsuspension-cap 16\nadmission degrade-closest\n\
             suspension-deadline 900\nscenario plain\n",
            &[("every", 0x580E_2063), ("plain", 0x715E_3563)],
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases = [
            ("nodes 10", 1, "before any `scenario`"),
            ("scenario a\nbogus 1", 2, "unknown flag --bogus"),
            (
                "scenario a\nnodes ten",
                2,
                "--nodes expects a count, got \"ten\"",
            ),
            (
                "scenario a\nnodes 1 2",
                2,
                "--nodes expects a count, got \"1 2\"",
            ),
            (
                "scenario a\nno-suspension 1",
                2,
                "--no-suspension expects no value",
            ),
            (
                "scenario a\noutages 0:1:2",
                2,
                "--outages requires --domains N",
            ),
            (
                "scenario a\ndomains 2\noutages 5:1:2",
                1,
                "only 2 domain(s)",
            ),
            (
                "scenario a\ndomain-kind melt",
                2,
                "--domain-kind requires --domains N",
            ),
            (
                "scenario a\ndomains 2\ndomain-kind melt",
                3,
                "--domain-kind expects fail or partition, got \"melt\"",
            ),
            ("scenario a\nadmission lru", 2, "--admission expects"),
            ("scenario a\nscenario a", 2, "duplicate scenario"),
            ("scenario a b", 1, "`scenario` expects one name"),
            (
                "scenario a\nnodes 0\nscenario b",
                1,
                "total_nodes must be nonzero",
            ),
            (
                "scenario a\nnodes 8\ntasks 40\ndomains 4\ndomain-mttf 500\n\
                 outages 3:10:50\ndomains 2",
                7,
                "`domains` given twice in scenario \"a\"",
            ),
            ("scenario a\nmttf 5\n\nmttf 6", 4, "`mttf` given twice"),
            // Spellings that are not run flags.
            ("scenario a\nnode-mttf 2000", 2, "unknown flag --node-mttf"),
            ("scenario a\nnode-mttr 150", 2, "unknown flag --node-mttr"),
            (
                "scenario a\ndomains 2\noutage 0 500 800",
                3,
                "unknown flag --outage",
            ),
            (
                "scenario a\nburst 0 4000 2",
                2,
                "--burst expects START,END,INTERVAL, got \"0 4000 2\"",
            ),
            (
                "scenario a\nadmission degrade-to-closest-match",
                2,
                "got \"degrade-to-closest-match\"",
            ),
        ];
        for (text, line, needle) in cases {
            match parse_campaign(text) {
                Err(ChaosError::Parse { line: l, detail }) => {
                    assert_eq!(l, line, "line number for {text:?}");
                    assert!(detail.contains(needle), "{text:?} -> {detail:?}");
                }
                other => panic!("{text:?} should fail to parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let scs = parse_campaign("# header\n\nscenario x # trailing\n  nodes 8  # note\n").unwrap();
        assert_eq!(scs.len(), 1);
        assert_eq!(scs[0].params.total_nodes, 8);
    }

    #[test]
    fn scenario_defaults_are_chaos_free() {
        let scs = parse_campaign("scenario plain\n").unwrap();
        let p = &scs[0].params;
        assert!(p.domains.is_none());
        assert!(p.burst.is_none());
        assert!(p.suspension_cap.is_none());
        p.validate().unwrap();
    }

    #[test]
    fn campaign_runs_with_drill_and_reports() {
        // One small scripted-outage scenario, full drill.
        let scs = parse_campaign(
            "scenario mini\nnodes 16\ntasks 120\nseed 5\ndomains 2\n\
             domain-mttr 200\noutages 0:300:400\n",
        )
        .unwrap();
        let dir = temp_dir("drill");
        let report = run_campaign(&scs, &CampaignOptions::default(), &dir).unwrap();
        assert_eq!(report.cases.len(), 1);
        let c = &report.cases[0];
        assert_eq!(c.name, "mini");
        assert_eq!(c.domain_outages, 1);
        assert_eq!(c.domain_restores, 1);
        assert_eq!(c.domain_downtime, vec![400, 0]);
        assert_eq!(c.completed + c.discarded, 120);
        let d = c.drill.expect("drill ran");
        assert!(d.report_identical);
        assert!(d.checkpoint_at > 0 && d.checkpoint_at < c.makespan);
        // Renderings cover the case.
        let csv = report.to_csv();
        assert!(csv.starts_with("scenario,"));
        assert!(csv.contains("mini,"), "{csv}");
        let json = report.to_json();
        assert!(json.contains("\"mini\""), "{json}");
        assert!(json.contains("\"checkpoint_at\""), "{json}");
    }

    #[test]
    fn service_drill_recovers_byte_identically_even_past_corruption() {
        let dir = temp_dir("service");
        let report = service_drill(&dir).unwrap();
        assert!(report.report_identical);
        assert!(report.killed_at >= 3_000, "killed at {}", report.killed_at);
        let straight = report.recovered_clock.expect("straight recovery resumed");
        let fallback = report.fallback_clock.expect("fallback recovery resumed");
        assert!(
            fallback < straight,
            "fallback resumed from {fallback}, straight from {straight}: \
             corrupting the newest snapshot must push recovery further back"
        );
        assert_eq!(report.fallback_rejected, 1);
        assert!(report.corrupted_entry.starts_with("checkpoint-"));
        let json = report.to_json();
        assert!(json.contains("\"corrupted_entry\""), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_without_drill_skips_checkpoints() {
        let scs = parse_campaign("scenario dry\nnodes 12\ntasks 80\n").unwrap();
        let dir = temp_dir("nodrill");
        let opts = CampaignOptions {
            drill: false,
            ..CampaignOptions::default()
        };
        let report = run_campaign(&scs, &opts, &dir).unwrap();
        assert!(report.cases[0].drill.is_none());
        assert!(
            !dir.join("dry").exists(),
            "no drill directory without a drill"
        );
    }
}
