//! `dreamsim` — command-line front end for the DReAMSim framework.
//!
//! Subcommands:
//!
//! * `run` — one simulation with Table II defaults, printing the Table I
//!   metrics (optionally as XML/JSON/CSV, optionally replaying or
//!   recording a workload trace).
//! * `figures` — regenerate the paper's figures (6a–10) as CSV series,
//!   with a per-figure agreement check against the paper's reported
//!   direction.
//! * `ablations` — run the A1–A4 ablation harnesses.
//! * `chaos` — run a chaos campaign (correlated failure-domain outages,
//!   overload bursts) under continuous audit, with a kill-and-resume
//!   drill per scenario.
//! * `serve` — the self-healing open-system service mode: streaming
//!   arrivals with a diurnal load curve, a rolling checkpoint ring,
//!   watchdog-driven auto-recovery, and sliding-window live metrics.
//! * `trace` — generate a synthetic trace file for later replay.
//! * `lint` — the determinism static-analysis pass (see the
//!   `dreamsim-lint` crate); nonzero exit on unsuppressed findings.
//!
//! Run `dreamsim help` for usage.

mod args;

use args::{ArgError, Args};
use dreamsim_engine::{
    read_checkpoint, AdmissionPolicy, ArrivalDistribution, BurstWindow, DomainOutageKind,
    DomainParams, ReconfigMode, Report, RunOptions, RunResult, ScriptedOutage, SimParams,
    Simulation, StatsBackend,
};
use dreamsim_rng::Rng;
use dreamsim_sched::{AllocationStrategy, CaseStudyScheduler};
use dreamsim_sweep::ablations;
use dreamsim_sweep::figures::{default_task_counts, ExperimentGrid, Figure};
use dreamsim_workload::{RecordingSource, SyntheticSource, TraceSource};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
dreamsim — task-scheduling simulator for partially reconfigurable nodes

USAGE:
  dreamsim run [--nodes N] [--tasks N] [--mode full|partial] [--seed S]
               [--policy best-fit|first-fit|worst-fit|random|least-loaded]
               [--arrival uniform|poisson|exponential]
               [--no-suspension] [--mtbf TICKS] [--mttr TICKS]
               [--mttf TICKS] [--reconfig-fail-prob P] [--task-fail-prob P]
               [--max-retries N] [--suspension-deadline TICKS]
               [--no-resubmit]
               [--domains N] [--domain-mttf TICKS] [--domain-mttr TICKS]
               [--domain-kind fail|partition] [--outages D:AT:DUR,...]
               [--suspension-cap N]
               [--admission block|shed-oldest|degrade-closest]
               [--burst START,END,INTERVAL]
               [--placement scalar|contiguous] [--replay TRACE]
               [--swf FILE [--ticks-per-second N] [--max-jobs N]]
               [--checkpoint-every TICKS] [--checkpoint-dir DIR]
               [--audit] [--audit-every TICKS] [--resume-from FILE]
               [--stats exact|sketch]
               [--report table|xml|json|csv] [--out FILE]
  dreamsim figures [--fig 6a|6b|7a|7b|8a|8b|9a|9b|10|all]
                   [--max-tasks N | --tasks N1,N2,...]
                   [--jobs N] [--seed S] [--out-dir DIR]
  dreamsim ablations [--which a1|a2|a3|a4|a5|all] [--nodes N] [--tasks N]
                     [--mode full|partial] [--seed S] [--jobs N]
  dreamsim chaos [--script FILE] [--no-drill] [--audit-every TICKS]
                 [--work-dir DIR] [--report csv|json] [--out FILE]
  dreamsim serve [--nodes N] [--seed S] [--mode full|partial]
                 [--policy best-fit|first-fit|worst-fit|random|least-loaded]
                 [--arrival uniform|poisson|exponential]
                 [--horizon TICKS] [--day-length TICKS]
                 [--amplitude PERMILLE] [--window TICKS]
                 [--window-retain N] [--burst START,END,INTERVAL]
                 [--ring-dir DIR] [--ring-every TICKS] [--ring-retain N]
                 [--audit-every TICKS] [--stall-window TICKS]
                 [--max-restarts N] [--no-watchdog] [--kill-at TICK]
                 [--recovery-report FILE]
                 [--report table|xml|json|csv] [--out FILE]
  dreamsim trace --out FILE [--tasks N] [--seed S]
  dreamsim lint [--root DIR] [--format text|json|sarif] [--out FILE]
                [--list-rules] [FILES...]
  dreamsim help

Defaults follow Table II of the paper: 50 configs, arrival U[1..50],
config area U[200..2000], node area U[1000..4000], task time
U[100..100000], config time U[10..20], 15% closest-match tasks.

Fault injection (all off by default): --mttf enables per-node exponential
failure/repair processes (repair time --mttr, default 1000); it is mutually
exclusive with the legacy global --mtbf process. --reconfig-fail-prob makes
bitstream loads fail with probability P (retried --max-retries times with
exponential backoff, then degraded to the closest larger configuration);
--task-fail-prob kills running tasks mid-execution; --suspension-deadline
discards tasks suspended longer than TICKS. Fault-killed tasks are
resubmitted unless --no-resubmit is given.

Chaos layer (all off by default): --domains N splits the nodes into N
correlated failure domains (racks/zones); --domain-mttf arms stochastic
whole-domain outages, --outages D:AT:DUR,... scripts them, and
--domain-kind picks whether an outage kills the domain's running tasks
(fail) or parks them back into the suspension queue (partition).
--suspension-cap bounds the suspension queue; --admission picks what
happens on overflow: block sheds the newcomer, shed-oldest evicts the
queue head, degrade-closest tries to place the overflow on an idle
instance of the next-larger configuration before blocking. --burst
tightens arrival interarrivals to at most INTERVAL inside
[START, END). Partition outages plus a bounded queue need
--suspension-deadline (or a resuming policy) so parked tasks cannot
stall the run forever. The `chaos` subcommand runs whole campaigns of
such scenarios from a script (see the dreamsim-sweep chaos module docs
for the format; omit --script for the built-in campaign), audits
continuously (--audit-every, default 500), runs a kill-and-resume drill
per scenario (checkpoints into --work-dir, default chaos-work), and
reports availability metrics as CSV or JSON.

Service mode: `serve` runs an open-system window of --horizon ticks of
streaming arrivals (Poisson by default) whose rate follows a diurnal
triangle wave: --day-length sets the period, --amplitude the modulation
depth in permille of the mean rate (0-900; 0 is flat), composable with
--burst. Live metrics roll in sliding windows of --window ticks (the
newest --window-retain buckets are kept; peaks land in the report's
<service> block). The service snapshots into a rolling checkpoint ring
(--ring-dir, default serve-ring) every --ring-every ticks, pruning to
the newest --ring-retain entries — atomically, and never the last valid
snapshot. On startup the ring is scanned newest-first and the service
auto-recovers from the newest snapshot that loads and passes its audit,
falling back past corrupted ones; --recovery-report FILE writes the
typed recovery record as JSON. A deterministic watchdog (simulated
clocks only) restarts the service from the ring on stalled-clock,
zero-progress, or suspension-livelock conditions, at most
--max-restarts times (--stall-window tunes detection; --no-watchdog
disables it). --kill-at T stops the process mid-window with exit code
137 and no final snapshot — exactly a SIGKILL — so rerunning the same
command afterwards demonstrates recovery: the recovered report is
byte-identical to an uninterrupted run's.

Checkpoint/restore: --checkpoint-every writes a versioned snapshot of the
complete simulator state (atomically, into --checkpoint-dir, default .)
every TICKS of simulated time; --resume-from restores one and continues
the run, producing a report bit-identical to the uninterrupted run.
Simulation parameters come from the checkpoint; for trace/SWF runs
re-supply the same --replay/--swf file. --audit cross-checks the internal
state invariants after every dispatched event (and always at checkpoint
boundaries); --audit-every N audits on a period instead.

Statistics backends: --stats selects wait-time statistics. exact
(default) stores every wait sample; sketch replaces the unbounded sample
vector with a fixed-size integer quantile sketch whose percentiles match
exact to within 1/128 relative error (and are byte-identical below the
4096-sample exact window). --stats also applies to --resume-from: the
restored statistics convert to the chosen backend, except that a sketch
past its exact window stays a sketch (its samples are gone).

Parallel sweeps: figures and ablations fan their independent simulation
points across --jobs worker threads (0 or omitted = all hardware
threads; --threads is an alias). Results are merged in point order, so
output is byte-identical for every --jobs value.
";

/// Valued and bare flags [`params_from_args`] reads, space-separated.
const PARAM_FLAGS: (&str, &str) = (
    "nodes tasks mode seed arrival placement mtbf mttr mttf reconfig-fail-prob task-fail-prob \
     max-retries suspension-deadline domains domain-mttf domain-mttr domain-kind outages \
     suspension-cap admission burst",
    "no-suspension no-resubmit",
);

/// The flags each subcommand reads: `(command, builds SimParams from
/// the command line, valued flags, bare flags)`. A subcommand that
/// builds its [`SimParams`] with [`params_from_args`] also accepts
/// [`PARAM_FLAGS`].
#[rustfmt::skip]
const COMMAND_FLAGS: &[(&str, bool, &str, &str)] = &[
    ("run", true,
     "policy replay swf ticks-per-second max-jobs checkpoint-every checkpoint-dir audit-every \
      resume-from stats report out", "audit"),
    ("figures", false, "fig max-tasks tasks jobs threads seed out-dir", ""),
    ("ablations", false, "which nodes tasks mode seed jobs threads", ""),
    ("chaos", false, "script audit-every work-dir report out", "no-drill"),
    ("serve", true,
     "policy horizon day-length amplitude window window-retain ring-dir ring-every ring-retain \
      audit-every stall-window max-restarts kill-at recovery-report report out",
     "no-watchdog"),
    ("trace", false, "out tasks seed", ""),
    ("lint", false, "root format out", "list-rules"),
    ("help", false, "", "help"),
];

/// The flags `command` reads, as `(valued, bare)` for [`Args::check`];
/// `None` for an unknown subcommand.
fn accepted_flags(command: &str) -> Option<(Vec<&'static str>, Vec<&'static str>)> {
    let &(_, params, valued, bare) = COMMAND_FLAGS.iter().find(|(c, ..)| *c == command)?;
    let mut valued: Vec<&str> = valued.split_whitespace().collect();
    let mut bare: Vec<&str> = bare.split_whitespace().collect();
    if params {
        valued.extend(PARAM_FLAGS.0.split_whitespace());
        bare.extend(PARAM_FLAGS.1.split_whitespace());
    }
    Some((valued, bare))
}

/// Reject any flag the subcommand does not read, before any work
/// starts: a misspelled flag must not silently fall back to its
/// default. Dispatch reports an unknown subcommand itself.
fn check_flags(args: &Args) -> Result<(), ArgError> {
    let command = args.command.as_deref().unwrap_or("help");
    match accepted_flags(command) {
        Some((valued, bare)) => args.check(command, &valued, &bare),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let r = check_flags(&args).and_then(|()| match args.command.as_deref() {
        Some("run") => cmd_run(&args),
        Some("figures") => cmd_figures(&args),
        Some("ablations") => cmd_ablations(&args),
        Some("chaos") => cmd_chaos(&args),
        Some("serve") => cmd_serve(&args),
        Some("trace") => cmd_trace(&args),
        Some("lint") => cmd_lint(&args),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(ArgError(format!("unknown subcommand {other:?}"))),
    });
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `dreamsim help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn parse_mode(s: &str) -> Result<ReconfigMode, ArgError> {
    match s {
        "full" => Ok(ReconfigMode::Full),
        "partial" => Ok(ReconfigMode::Partial),
        _ => Err(ArgError(format!(
            "--mode must be full or partial, got {s:?}"
        ))),
    }
}

fn parse_stats(args: &Args) -> Result<StatsBackend, ArgError> {
    let s = args.get("stats", "exact");
    StatsBackend::parse(s)
        .ok_or_else(|| ArgError(format!("--stats must be exact or sketch, got {s:?}")))
}

/// Worker count for parallel sweeps: `--jobs N` (preferred), with
/// `--threads N` kept as an alias; 0 or omitted selects the hardware
/// parallelism.
fn parse_jobs(args: &Args) -> Result<usize, ArgError> {
    if args.has("jobs") {
        args.get_num("jobs", 0usize)
    } else {
        args.get_num("threads", 0usize)
    }
}

fn parse_strategy(s: &str) -> Result<AllocationStrategy, ArgError> {
    match s {
        "best-fit" => Ok(AllocationStrategy::BestFit),
        "first-fit" => Ok(AllocationStrategy::FirstFit),
        "worst-fit" => Ok(AllocationStrategy::WorstFit),
        "random" => Ok(AllocationStrategy::Random),
        "least-loaded" => Ok(AllocationStrategy::LeastLoaded),
        _ => Err(ArgError(format!("unknown --policy {s:?}"))),
    }
}

fn params_from_args(args: &Args) -> Result<SimParams, ArgError> {
    let mode = parse_mode(args.get("mode", "partial"))?;
    let mut p = SimParams::paper(
        args.get_num("nodes", 200usize)?,
        args.get_num("tasks", 10_000usize)?,
        mode,
    );
    p.seed = args.get_num("seed", 0x5EEDu64)?;
    p.arrival = match args.get("arrival", "uniform") {
        "uniform" => ArrivalDistribution::Uniform,
        "poisson" => ArrivalDistribution::Poisson,
        "exponential" => ArrivalDistribution::Exponential,
        other => return Err(ArgError(format!("unknown --arrival {other:?}"))),
    };
    if args.has("no-suspension") {
        p.suspension_enabled = false;
    }
    p.placement = match args.get("placement", "scalar") {
        "scalar" => dreamsim_engine::PlacementModel::Scalar,
        "contiguous" => dreamsim_engine::PlacementModel::Contiguous,
        other => return Err(ArgError(format!("unknown --placement {other:?}"))),
    };
    if args.has("mtbf") {
        p.node_mtbf = Some(args.get_num("mtbf", 0u64)?);
    }
    p.node_mttr = args.get_num("mttr", p.node_mttr)?;
    if args.has("mttf") {
        p.faults.node_mttf = Some(args.get_num("mttf", 0u64)?);
    }
    // --mttr sets the repair time for whichever failure model is active.
    p.faults.node_mttr = args.get_num("mttr", p.faults.node_mttr)?;
    p.faults.reconfig_fail_prob =
        args.get_num("reconfig-fail-prob", p.faults.reconfig_fail_prob)?;
    p.faults.task_fail_prob = args.get_num("task-fail-prob", p.faults.task_fail_prob)?;
    p.faults.max_retries = args.get_num("max-retries", p.faults.max_retries)?;
    if args.has("suspension-deadline") {
        p.faults.suspension_deadline = Some(args.get_num("suspension-deadline", 0u64)?);
    }
    if args.has("no-resubmit") {
        p.faults.resubmit = false;
    }
    if args.has("domains") {
        let mut d = DomainParams {
            count: args.get_num("domains", 0usize)?,
            ..DomainParams::default()
        };
        if args.has("domain-mttf") {
            d.mttf = Some(args.get_num("domain-mttf", 0u64)?);
        }
        d.mttr = args.get_num("domain-mttr", d.mttr)?;
        let kind = args.get("domain-kind", "fail");
        d.kind = DomainOutageKind::parse(kind).ok_or_else(|| {
            ArgError(format!(
                "--domain-kind must be fail or partition, got {kind:?}"
            ))
        })?;
        if args.has("outages") {
            d.scripted = parse_outages(args.get("outages", ""))?;
        }
        p.domains = Some(d);
    } else if args.has("domain-mttf") || args.has("domain-mttr") || args.has("outages") {
        return Err(ArgError(
            "--domain-mttf/--domain-mttr/--outages require --domains N".into(),
        ));
    }
    if args.has("suspension-cap") {
        p.suspension_cap = Some(args.get_num("suspension-cap", 0usize)?);
    }
    let admission = args.get("admission", "block");
    p.admission = AdmissionPolicy::parse(admission).ok_or_else(|| {
        ArgError(format!(
            "--admission must be block, shed-oldest, or degrade-closest, got {admission:?}"
        ))
    })?;
    if args.has("burst") {
        let v = args.get_list("burst", &[])?;
        if v.len() != 3 {
            return Err(ArgError("--burst expects START,END,INTERVAL".into()));
        }
        p.burst = Some(BurstWindow {
            start: v[0] as u64,
            end: v[1] as u64,
            interval: v[2] as u64,
        });
    }
    p.validate().map_err(|e| ArgError(e.to_string()))?;
    Ok(p)
}

/// Parse `--outages D:AT:DUR,...` into scripted domain outages.
fn parse_outages(spec: &str) -> Result<Vec<ScriptedOutage>, ArgError> {
    spec.split(',')
        .map(|entry| {
            let parts: Vec<&str> = entry.trim().split(':').collect();
            let err = || ArgError(format!("--outages entry {entry:?} must be D:AT:DUR"));
            if parts.len() != 3 {
                return Err(err());
            }
            Ok(ScriptedOutage {
                domain: parts[0].parse().map_err(|_| err())?,
                at: parts[1].parse().map_err(|_| err())?,
                duration: parts[2].parse().map_err(|_| err())?,
            })
        })
        .collect()
}

fn write_or_print(out: Option<&str>, content: &str) -> Result<(), ArgError> {
    match out {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| ArgError(format!("writing {path}: {e}")))
        }
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

fn metrics_table(report: &Report) -> String {
    let m = &report.metrics;
    let mut table = format!(
        "mode: {} | nodes: {} | policy defaults Table II\n\
         tasks generated / completed / discarded : {} / {} / {}\n\
         avg wasted area per task                : {:.2}\n\
         avg running time per task               : {:.1}\n\
         avg reconfiguration count per node      : {:.2}\n\
         avg configuration time per task         : {:.3}\n\
         avg waiting time per task               : {:.1}\n\
         avg scheduling steps per task           : {:.1}\n\
         total scheduler workload                : {}\n\
         total used nodes                        : {}\n\
         total simulation time (ticks)           : {}\n\
         suspensions (peak queue)                : {} ({})\n\
         placements [alloc/config/partial/reconf]: {}/{}/{}/{} (+{} resumed)\n",
        m.mode,
        m.total_nodes,
        m.total_tasks_generated,
        m.total_tasks_completed,
        m.total_discarded_tasks,
        m.avg_wasted_area_per_task,
        m.avg_running_time_per_task,
        m.avg_reconfig_count_per_node,
        m.avg_config_time_per_task,
        m.avg_waiting_time_per_task,
        m.avg_scheduling_steps_per_task,
        m.total_scheduler_workload,
        m.total_used_nodes,
        m.total_simulation_time,
        m.total_suspensions,
        m.suspension_peak_len,
        m.phases.allocation,
        m.phases.configuration,
        m.phases.partial_configuration,
        m.phases.partial_reconfiguration,
        m.phases.resumed,
    );
    // Only fault-injection runs get the extra lines, so fault-free output
    // stays byte-identical to earlier releases.
    if m.node_failures != 0 || m.node_downtime != 0 {
        table.push_str(&format!(
            "node failures / killed / downtime       : {} / {} / {}\n",
            m.node_failures, m.failure_killed, m.node_downtime
        ));
    }
    if m.reconfig_failures != 0 {
        table.push_str(&format!(
            "reconfig failures (retries)             : {} ({})\n",
            m.reconfig_failures, m.reconfig_retries
        ));
    }
    if m.task_failures != 0 {
        table.push_str(&format!(
            "task failures                           : {}\n",
            m.task_failures
        ));
    }
    if m.resubmissions != 0 || m.tasks_lost != 0 {
        table.push_str(&format!(
            "resubmissions / tasks lost to faults    : {} / {}\n",
            m.resubmissions, m.tasks_lost
        ));
    }
    if m.domain_outages != 0 || m.domain_restores != 0 {
        let downtime: u64 = m.domain_downtime.iter().sum();
        table.push_str(&format!(
            "domain outages / restores / downtime    : {} / {} / {} (mttr {:.1})\n",
            m.domain_outages, m.domain_restores, downtime, m.mean_time_to_recover
        ));
    }
    if m.tasks_shed != 0 || m.tasks_degraded != 0 {
        table.push_str(&format!(
            "tasks shed / degraded by admission      : {} / {}\n",
            m.tasks_shed, m.tasks_degraded
        ));
    }
    if m.windows_closed != 0 || m.window_peak_arrivals != 0 || m.window_peak_completions != 0 {
        table.push_str(&format!(
            "windows closed / peak arrivals / compl. : {} / {} / {}\n",
            m.windows_closed, m.window_peak_arrivals, m.window_peak_completions
        ));
    }
    table
}

fn render_report(report: &Report, format: &str) -> Result<String, ArgError> {
    match format {
        "table" => Ok(metrics_table(report)),
        "xml" => Ok(report.to_xml()),
        "json" => Ok(report.to_json()),
        "csv" => Ok(format!(
            "{}\n{}\n",
            Report::csv_header(),
            report.to_csv_row()
        )),
        other => Err(ArgError(format!("unknown --report format {other:?}"))),
    }
}

/// Checkpoint/audit options shared by every `run` code path.
fn run_options_from_args(args: &Args) -> Result<RunOptions, ArgError> {
    let mut opts = RunOptions::default();
    if args.has("checkpoint-every") {
        let every = args.get_num("checkpoint-every", 0u64)?;
        if every == 0 {
            return Err(ArgError("--checkpoint-every must be > 0".into()));
        }
        opts.checkpoint_every = Some(every);
    }
    if args.has("checkpoint-dir") {
        opts.checkpoint_dir = Some(std::path::PathBuf::from(args.get("checkpoint-dir", ".")));
    }
    opts.audit = args.has("audit");
    if args.has("audit-every") {
        let every = args.get_num("audit-every", 0u64)?;
        if every == 0 {
            return Err(ArgError("--audit-every must be > 0".into()));
        }
        opts.audit_every = Some(every);
    }
    Ok(opts)
}

/// Load a trace for `run`: either an SWF import or a recorded trace file.
/// Returns the source plus the task count it carries.
fn trace_from_args(args: &Args, num_configs: usize) -> Result<TraceSource, ArgError> {
    if args.has("swf") {
        // Real-workload import: Standard Workload Format (Parallel
        // Workloads Archive).
        let path = args.get("swf", "");
        let text =
            std::fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path}: {e}")))?;
        let swf_opts = dreamsim_workload::SwfOptions {
            ticks_per_second: args.get_num("ticks-per-second", 1u64)?,
            num_configs,
            skip_failed: true,
            max_jobs: args.get_num("max-jobs", 0usize)?,
        };
        let specs =
            dreamsim_workload::import_swf(&text, &swf_opts).map_err(|e| ArgError(e.to_string()))?;
        eprintln!("imported {} jobs from {path}", specs.len());
        Ok(TraceSource::from_specs(specs))
    } else {
        let path = args.get("replay", "");
        let text =
            std::fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path}: {e}")))?;
        TraceSource::from_text(&text).map_err(|e| ArgError(e.to_string()))
    }
}

/// `run --resume-from FILE`: restore a checkpoint and continue. The
/// simulation parameters (and for synthetic workloads the entire task
/// stream) come from the checkpoint itself; trace/SWF runs re-supply the
/// same workload file, which the restored cursor fast-forwards. The
/// `--stats` backend applies to the restored simulation too.
fn resume_run(
    args: &Args,
    run_opts: &RunOptions,
    stats: StatsBackend,
) -> Result<RunResult, ArgError> {
    let path = args.get("resume-from", "");
    let cp = read_checkpoint(Path::new(path))
        .map_err(|e| ArgError(format!("reading checkpoint {path}: {e}")))?;
    eprintln!(
        "resuming {path}: clock {}, policy {}, source {}",
        cp.clock(),
        cp.policy_label(),
        cp.source_kind()
    );
    // Rebuild the exact policy recorded in the checkpoint; `resume`
    // re-verifies the label so a parser drift cannot slip through.
    let label = cp.policy_label().to_string();
    let strategy = label
        .strip_prefix("case-study/")
        .filter(|rest| !rest.contains('/'))
        .ok_or_else(|| {
            ArgError(format!(
                "checkpoint policy {label:?} cannot be rebuilt by the CLI"
            ))
        })
        .and_then(parse_strategy)?;
    let policy = CaseStudyScheduler::with_strategy(strategy);
    let result = match cp.source_kind() {
        "synthetic" => {
            let source = SyntheticSource::from_params(cp.params());
            Simulation::resume(cp, source, policy)
                .map_err(|e| ArgError(format!("restoring {path}: {e}")))?
                .with_stats_backend(stats)
                .run_with(run_opts)
        }
        "trace" => {
            if !args.has("replay") && !args.has("swf") {
                return Err(ArgError(
                    "checkpoint was taken from a trace run: re-supply the same --replay/--swf file"
                        .into(),
                ));
            }
            let source = trace_from_args(args, cp.params().total_configs)?;
            Simulation::resume(cp, source, policy)
                .map_err(|e| ArgError(format!("restoring {path}: {e}")))?
                .with_stats_backend(stats)
                .run_with(run_opts)
        }
        "open" => {
            return Err(ArgError(format!(
                "checkpoint {path} was taken by the service driver: resume it with \
                 `dreamsim serve --ring-dir DIR` and the original service flags instead \
                 of `run --resume-from`"
            )))
        }
        other => {
            return Err(ArgError(format!(
                "checkpoint source kind {other:?} cannot be rebuilt by the CLI"
            )))
        }
    };
    result.map_err(|e| ArgError(e.to_string()))
}

fn cmd_run(args: &Args) -> Result<(), ArgError> {
    let run_opts = run_options_from_args(args)?;
    let stats = parse_stats(args)?;
    let result: RunResult = if args.has("resume-from") {
        resume_run(args, &run_opts, stats)?
    } else {
        let params = params_from_args(args)?;
        let strategy = parse_strategy(args.get("policy", "best-fit"))?;
        let policy = CaseStudyScheduler::with_strategy(strategy);
        if args.has("swf") || args.has("replay") {
            let source = trace_from_args(args, params.total_configs)?;
            let mut p = params;
            // Replay exactly the trace, whatever --tasks said.
            p.total_tasks = source.len();
            Simulation::new(p, source, policy)
                .map_err(|e| ArgError(e.to_string()))?
                .with_stats_backend(stats)
                .run_with(&run_opts)
                .map_err(|e| ArgError(e.to_string()))?
        } else {
            let source = SyntheticSource::from_params(&params);
            Simulation::new(params, source, policy)
                .map_err(|e| ArgError(e.to_string()))?
                .with_stats_backend(stats)
                .run_with(&run_opts)
                .map_err(|e| ArgError(e.to_string()))?
        }
    };
    let rendered = render_report(&result.report, args.get("report", "table"))?;
    write_or_print(args.flags.get("out").map(String::as_str), &rendered)
}

/// `dreamsim serve` — the self-healing open-system service mode:
/// recover from the checkpoint ring (or start fresh), stream the
/// service window with ring snapshots and watchdog supervision, and
/// drain to a final report at the horizon.
fn cmd_serve(args: &Args) -> Result<(), ArgError> {
    use dreamsim_engine::{serve, ServiceOptions, ServiceParams, WatchdogParams};
    use dreamsim_workload::OpenSource;
    let mut params = params_from_args(args)?;
    if !args.has("arrival") {
        // Open-system default: Poisson arrivals (the batch default stays
        // uniform for byte-compatibility of `run`).
        params.arrival = ArrivalDistribution::Poisson;
    }
    let horizon = args.get_num("horizon", 50_000u64)?;
    params.service = Some(ServiceParams {
        horizon,
        day_length: args.get_num("day-length", 0u64)?,
        amplitude_permille: args.get_num("amplitude", 0u32)?,
        window: args.get_num("window", 1_000u64)?,
        window_retain: args.get_num("window-retain", 8u64)?,
    });
    // Inter-arrivals are at least one tick, so horizon + 1 tasks is a
    // true upper bound on arrivals inside the window: the stream never
    // runs dry before the horizon.
    params.total_tasks = horizon as usize + 1;
    params.validate().map_err(|e| ArgError(e.to_string()))?;

    let ring_dir = std::path::PathBuf::from(args.get("ring-dir", "serve-ring"));
    if ring_dir.exists() && !ring_dir.is_dir() {
        return Err(ArgError(format!(
            "--ring-dir {}: exists but is not a directory",
            ring_dir.display()
        )));
    }
    let mut opts = ServiceOptions::new(ring_dir);
    opts.ring_every = args.get_num("ring-every", opts.ring_every)?;
    if opts.ring_every == 0 {
        return Err(ArgError("--ring-every must be > 0".into()));
    }
    opts.ring_retain = args.get_num("ring-retain", opts.ring_retain)?;
    if opts.ring_retain == 0 {
        return Err(ArgError("--ring-retain must be > 0".into()));
    }
    if args.has("audit-every") {
        let every = args.get_num("audit-every", 0u64)?;
        if every == 0 {
            return Err(ArgError("--audit-every must be > 0".into()));
        }
        opts.audit_every = Some(every);
    }
    if args.has("no-watchdog") {
        opts.watchdog = None;
    } else {
        let defaults = WatchdogParams::default();
        opts.watchdog = Some(WatchdogParams {
            stall_window: args.get_num("stall-window", defaults.stall_window)?,
            max_restarts: args.get_num("max-restarts", defaults.max_restarts)?,
            ..defaults
        });
    }
    if args.has("kill-at") {
        opts.stop_at = Some(args.get_num("kill-at", 0u64)?);
    }

    let strategy = parse_strategy(args.get("policy", "best-fit"))?;
    let outcome = serve(
        &params,
        OpenSource::from_params,
        || CaseStudyScheduler::with_strategy(strategy),
        &opts,
    )
    .map_err(|e| ArgError(e.to_string()))?;

    // Recovery/watchdog summary on stderr; stdout carries the report.
    let rec = &outcome.recovery;
    if rec.fresh_start {
        eprintln!(
            "serve: fresh start ({} snapshot(s) scanned, {} rejected)",
            rec.scanned,
            rec.rejected.len()
        );
    } else if let (Some(file), Some(clock)) = (&rec.recovered_from, rec.recovered_clock) {
        eprintln!(
            "serve: recovered from {file} at clock {clock} ({} rejected)",
            rec.rejected.len()
        );
    }
    for r in &rec.rejected {
        eprintln!("serve: rejected snapshot {}: {}", r.file, r.error);
    }
    for t in &outcome.trips {
        eprintln!(
            "serve: watchdog trip ({} restart(s)): {t}",
            outcome.restarts
        );
    }
    if args.has("recovery-report") {
        let path = args.get("recovery-report", "");
        std::fs::write(path, rec.to_json())
            .map_err(|e| ArgError(format!("writing {path}: {e}")))?;
        eprintln!("serve: wrote recovery report to {path}");
    }
    if outcome.killed {
        eprintln!(
            "serve: killed at clock {} (deterministic kill switch); \
             the ring holds the recoverable state",
            outcome.final_clock
        );
        // The crash drill expects a SIGKILL-shaped exit.
        std::process::exit(137);
    }
    let result = outcome
        .result
        .ok_or_else(|| ArgError("service ended without a final report".into()))?;
    let rendered = render_report(&result.report, args.get("report", "table"))?;
    write_or_print(args.flags.get("out").map(String::as_str), &rendered)
}

fn cmd_figures(args: &Args) -> Result<(), ArgError> {
    let which = args.get("fig", "all");
    let figs: Vec<Figure> = if which == "all" {
        Figure::ALL.to_vec()
    } else {
        vec![Figure::parse(which).ok_or_else(|| ArgError(format!("unknown figure {which:?}")))?]
    };
    let max_tasks = args.get_num("max-tasks", 10_000usize)?;
    let jobs = parse_jobs(args)?;
    let seed = args.get_num("seed", 2012u64)?;
    // Explicit --tasks 1000,2000,... overrides the default ladder.
    let task_counts = if args.has("tasks") {
        args.get_list("tasks", &[])?
    } else {
        default_task_counts(max_tasks)
    };
    let mut node_counts: Vec<usize> = figs.iter().map(|f| f.node_count()).collect();
    // TIEBREAK: usize keys with dedup below — equal elements are
    // indistinguishable.
    node_counts.sort_unstable();
    node_counts.dedup();
    eprintln!(
        "running grid: nodes {node_counts:?} x modes [full, partial] x tasks {task_counts:?} \
         (seed {seed}, jobs {})",
        if jobs == 0 {
            "auto".to_string()
        } else {
            jobs.to_string()
        }
    );
    let grid = ExperimentGrid::run(&node_counts, &task_counts, seed, jobs);
    let out_dir = args.get("out-dir", "");
    for fig in figs {
        let series = grid.figure(fig);
        let csv = series.to_csv();
        let agreement = series.agreement_with_paper();
        println!(
            "{fig}: {} nodes, {} — paper-direction agreement {:.0}%",
            fig.node_count(),
            fig.metric_name(),
            agreement * 100.0
        );
        if out_dir.is_empty() {
            print!("{csv}");
        } else {
            std::fs::create_dir_all(out_dir)
                .map_err(|e| ArgError(format!("creating {out_dir}: {e}")))?;
            let path = Path::new(out_dir).join(format!("fig{}.csv", fig.id()));
            std::fs::write(&path, csv)
                .map_err(|e| ArgError(format!("writing {}: {e}", path.display())))?;
            println!("  -> {}", path.display());
        }
    }
    Ok(())
}

fn cmd_ablations(args: &Args) -> Result<(), ArgError> {
    let which = args.get("which", "all");
    let mode = parse_mode(args.get("mode", "partial"))?;
    let mut base = SimParams::paper(
        args.get_num("nodes", 100usize)?,
        args.get_num("tasks", 2_000usize)?,
        mode,
    );
    base.seed = args.get_num("seed", 7u64)?;
    // The harnesses treat parameters as programmer input and panic on
    // invalid ones, so user input is validated here first.
    base.validate().map_err(|e| ArgError(e.to_string()))?;
    let threads = parse_jobs(args)?;
    let run_a1 = which == "all" || which == "a1";
    let run_a2 = which == "all" || which == "a2";
    let run_a3 = which == "all" || which == "a3";
    let run_a4 = which == "all" || which == "a4";
    let run_a5 = which == "all" || which == "a5";
    if !(run_a1 || run_a2 || run_a3 || run_a4 || run_a5) {
        return Err(ArgError(format!("unknown --which {which:?}")));
    }
    if run_a1 {
        println!(
            "A1 — allocation strategies ({} nodes, {} tasks):",
            base.total_nodes, base.total_tasks
        );
        println!("  strategy      wasted-area  waiting-time  sched-steps  discarded");
        for (label, m) in ablations::policy_comparison(&base, threads) {
            println!(
                "  {label:<13} {:>11.2} {:>13.1} {:>12.1} {:>10}",
                m.avg_wasted_area_per_task,
                m.avg_waiting_time_per_task,
                m.avg_scheduling_steps_per_task,
                m.total_discarded_tasks
            );
        }
    }
    if run_a2 {
        let (lists, naive) = ablations::datastructure_comparison(&base);
        println!("A2 — idle/busy lists vs naive scans:");
        println!(
            "  search steps: lists {} vs naive {} ({:.1}x)",
            lists.scheduler_search_length,
            naive.scheduler_search_length,
            naive.scheduler_search_length as f64 / lists.scheduler_search_length.max(1) as f64
        );
    }
    if run_a3 {
        let (with_q, without) = ablations::suspension_comparison(&base);
        println!("A3 — suspension queue on/off:");
        println!(
            "  discarded: with {} vs without {}; avg wait: {:.1} vs {:.1}",
            with_q.total_discarded_tasks,
            without.total_discarded_tasks,
            with_q.avg_waiting_time_per_task,
            without.avg_waiting_time_per_task
        );
    }
    if run_a4 {
        let mut small = base.clone();
        small.total_tasks = small.total_tasks.min(300);
        let (event, ticked) = ablations::driver_comparison(&small);
        println!("A4 — event-driven vs tick-stepped drivers:");
        println!(
            "  metrics identical: {} (simulated {} ticks)",
            event == ticked,
            event.total_simulation_time
        );
    }
    if run_a5 {
        let (scalar, contiguous) = ablations::placement_comparison(&base);
        println!("A5 — scalar area model vs contiguous 1-D placement:");
        println!(
            "  completed: scalar {} vs contiguous {}; discarded: {} vs {}",
            scalar.total_tasks_completed,
            contiguous.total_tasks_completed,
            scalar.total_discarded_tasks,
            contiguous.total_discarded_tasks
        );
        println!(
            "  avg wait: {:.1} vs {:.1}; end-of-run fragmentation: {:.3} vs {:.3}",
            scalar.avg_waiting_time_per_task,
            contiguous.avg_waiting_time_per_task,
            scalar.mean_fragmentation_end,
            contiguous.mean_fragmentation_end
        );
    }
    Ok(())
}

/// `dreamsim chaos` — run a chaos campaign: every scenario executes
/// under continuous audit, followed (unless --no-drill) by a
/// kill-and-resume drill whose resumed report must be byte-identical to
/// the baseline.
fn cmd_chaos(args: &Args) -> Result<(), ArgError> {
    use dreamsim_sweep::chaos;
    let text = if args.has("script") {
        let path = args.get("script", "");
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path}: {e}")))?
    } else {
        chaos::BUILTIN_CAMPAIGN.to_string()
    };
    let scenarios = chaos::parse_campaign(&text).map_err(|e| ArgError(e.to_string()))?;
    let mut opts = chaos::CampaignOptions::default();
    if args.has("no-drill") {
        opts.drill = false;
    }
    if args.has("audit-every") {
        let every = args.get_num("audit-every", 0u64)?;
        if every == 0 {
            return Err(ArgError("--audit-every must be > 0".into()));
        }
        opts.audit_every = Some(every);
    }
    let work_dir = std::path::PathBuf::from(args.get("work-dir", "chaos-work"));
    eprintln!(
        "chaos campaign: {} scenario(s), audit every {} ticks, drills {}",
        scenarios.len(),
        opts.audit_every
            .map_or_else(|| "off".into(), |t| t.to_string()),
        if opts.drill { "on" } else { "off" }
    );
    let report =
        chaos::run_campaign(&scenarios, &opts, &work_dir).map_err(|e| ArgError(e.to_string()))?;
    for c in &report.cases {
        let drill = match c.drill {
            Some(d) => format!(
                "drill resumed t={} {}",
                d.checkpoint_at,
                if d.report_identical {
                    "byte-identical"
                } else {
                    "DIVERGED"
                }
            ),
            None => "drill skipped".to_string(),
        };
        println!(
            "{}: completed {} / discarded {} (shed {}, degraded {}, lost {}) | \
             outages {} downtime {} mttr {:.1} | makespan {} | {}",
            c.name,
            c.completed,
            c.discarded,
            c.shed,
            c.degraded,
            c.lost,
            c.domain_outages,
            c.domain_downtime.iter().sum::<u64>(),
            c.mean_time_to_recover,
            c.makespan,
            drill
        );
    }
    let format = args.get("report", "csv");
    let rendered = match format {
        "csv" => report.to_csv(),
        "json" => report.to_json(),
        other => return Err(ArgError(format!("unknown --report format {other:?}"))),
    };
    write_or_print(args.flags.get("out").map(String::as_str), &rendered)
}

/// `dreamsim lint` — the determinism static-analysis pass, sharing its
/// engine with the standalone `dreamsim-lint` binary and the CI gate.
fn cmd_lint(args: &Args) -> Result<(), ArgError> {
    use dreamsim_lint as lint;
    if args.has("list-rules") {
        print!("{}", lint::rule_catalogue());
        return Ok(());
    }
    let root = Path::new(args.get("root", "."));
    let format: lint::Format = args.get("format", "text").parse().map_err(ArgError)?;
    let report = if args.positionals.is_empty() {
        lint::lint_workspace(root)
    } else {
        let files: Vec<std::path::PathBuf> = args
            .positionals
            .iter()
            .map(std::path::PathBuf::from)
            .collect();
        lint::lint_files(root, &files)
    }
    .map_err(|e| ArgError(format!("lint scan failed: {e}")))?;
    let rendered = lint::render(&report, format);
    match args.flags.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered)
                .map_err(|e| ArgError(format!("writing {path}: {e}")))?;
            println!(
                "lint: {} finding(s), {} suppression(s), {} file(s) -> {path}",
                report.findings.len(),
                report.suppressions.len(),
                report.files_scanned
            );
        }
        None => print!("{rendered}"),
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(ArgError(format!(
            "lint: {} unsuppressed finding(s)",
            report.findings.len()
        )))
    }
}

fn cmd_trace(args: &Args) -> Result<(), ArgError> {
    let out = args.get("out", "");
    if out.is_empty() {
        return Err(ArgError("trace: --out FILE is required".into()));
    }
    let tasks = args.get_num("tasks", 1_000usize)?;
    let seed = args.get_num("seed", 0x5EEDu64)?;
    let mut p = SimParams::default();
    p.total_tasks = tasks;
    p.seed = seed;
    let source = SyntheticSource::from_params(&p);
    let mut recorder = RecordingSource::new(source);
    let mut rng = Rng::seed_from(seed);
    use dreamsim_engine::sim::{SourceYield, TaskSource as _};
    for _ in 0..tasks {
        match recorder.next_task(0, &mut rng) {
            SourceYield::Task(_) => {}
            _ => break,
        }
    }
    std::fs::write(out, recorder.to_trace())
        .map_err(|e| ArgError(format!("writing {out}: {e}")))?;
    println!("wrote {tasks} tasks to {out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(subcommand, USAGE text of its entry)` for every USAGE entry.
    fn usage_entries() -> Vec<(String, String)> {
        let body = USAGE
            .split_once("USAGE:\n")
            .and_then(|(_, rest)| rest.split_once("\n\n"))
            .map(|(entries, _)| entries)
            .expect("USAGE has an entry block");
        let mut entries: Vec<(String, String)> = Vec::new();
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("  dreamsim ") {
                let command = rest.split_whitespace().next().expect("subcommand name");
                entries.push((command.to_string(), rest.to_string()));
            } else {
                let (_, text) = entries.last_mut().expect("continuation follows an entry");
                text.push_str(line);
            }
        }
        entries
    }

    #[test]
    fn every_usage_flag_is_accepted_with_its_arity() {
        let entries = usage_entries();
        assert_eq!(entries.len(), 8, "one entry per subcommand");
        for (command, text) in entries {
            let (valued, bare) = accepted_flags(&command)
                .unwrap_or_else(|| panic!("USAGE lists unknown subcommand {command}"));
            for (start, _) in text.match_indices("--") {
                let rest = &text[start + 2..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
                    .unwrap_or(rest.len());
                let name = &rest[..end];
                // `[--flag]` documents a bare flag; anything else takes a value.
                let list = if rest[end..].starts_with(']') {
                    &bare
                } else {
                    &valued
                };
                assert!(
                    list.contains(&name),
                    "`dreamsim {command}` USAGE lists --{name}, which it does not accept \
                     with that arity"
                );
            }
        }
    }

    #[test]
    fn undocumented_flags_are_accepted_only_where_read() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from)).unwrap();
        // `--threads` aliases `--jobs` only where `parse_jobs` reads it.
        assert!(check_flags(&parse("figures --threads 2")).is_ok());
        assert!(check_flags(&parse("run --threads 2")).is_err());
        // `serve` builds its parameters with `params_from_args`.
        assert!(check_flags(&parse("serve --tasks 10 --no-suspension")).is_ok());
        assert!(check_flags(&parse("--help")).is_ok());
    }
}
