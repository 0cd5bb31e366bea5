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
//! * `ablations` — run the A1–A5 ablation harnesses.
//! * `chaos` — run a chaos campaign (correlated failure-domain outages,
//!   overload bursts) under continuous audit, with a kill-and-resume
//!   drill per scenario.
//! * `serve` — the self-healing open-system service mode: streaming
//!   arrivals with a diurnal load curve, a rolling checkpoint ring,
//!   watchdog-driven auto-recovery, and sliding-window live metrics.
//! * `trace` — generate a synthetic trace file for later replay.
//!
//! Every run parameter flag is read by [`SimParams::set`], the parser
//! chaos scenarios share, and a checkpoint's policy label by
//! [`CaseStudyScheduler::from_label`]. The determinism lint has its own
//! binary, `dreamsim-lint`.
//!
//! Run `dreamsim help` for usage.

mod args;

use args::{ArgError, Args};
use dreamsim_engine::{
    read_checkpoint, ArrivalDistribution, ReconfigMode, Report, RunOptions, RunResult, SimParams,
    Simulation,
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
               [--no-suspension] [--mttf TICKS] [--mttr TICKS]
               [--reconfig-fail-prob P] [--task-fail-prob P]
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
  dreamsim help

Defaults follow Table II of the paper: 50 configs, arrival U[1..50],
config area U[200..2000], node area U[1000..4000], task time
U[100..100000], config time U[10..20], 15% closest-match tasks.

Fault injection (all off by default): --mttf enables per-node exponential
failure/repair processes (repair time --mttr, default 1000); the retired
--mtbf X on N nodes is --mttf N*X --no-resubmit. --reconfig-fail-prob
makes bitstream loads fail with probability P (retried --max-retries
times with exponential backoff, then degraded to the closest larger
configuration); --task-fail-prob kills running tasks mid-execution;
--suspension-deadline discards tasks suspended longer than TICKS.
Fault-killed tasks are resubmitted unless --no-resubmit is given.

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
such scenarios from a script (omit --script for the built-in campaign):
`scenario NAME` opens each scenario, and every other line is one of the
run's parameter flags above without its dashes (`domains 4`, `outages
0:500:800,2:1500:600`, `no-resubmit`), at most once per scenario. It
audits continuously (--audit-every, default 500), runs a kill-and-resume
drill per scenario (checkpoints into --work-dir, default chaos-work),
and reports availability metrics as CSV or JSON.

Service mode: `serve` runs an open-system window of --horizon ticks of
streaming arrivals (Poisson by default; the horizon bounds the task
count, so `serve` takes no --tasks) whose rate follows a diurnal
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

Parallel sweeps: figures and ablations fan their independent simulation
points across --jobs worker threads (0 or omitted = all hardware
threads). Results are merged in point order, so output is byte-identical
for every --jobs value.
";

/// The flags each subcommand reads: `(command, run parameter flags,
/// valued flags, bare flags)`. The run parameter flags are
/// [`SimParams::FLAGS`]: `None` for a command that reads none of them,
/// else the ones it does not read (`serve` derives its task budget from
/// `--horizon`); `ablations` and `trace` list the few they accept, and
/// [`params_from_args`] applies whichever are given.
#[rustfmt::skip]
const COMMAND_FLAGS: &[(&str, Option<&str>, &str, &str)] = &[
    ("run", Some(""),
     "policy replay swf ticks-per-second max-jobs checkpoint-every checkpoint-dir audit-every \
      resume-from report out", "audit"),
    ("figures", None, "fig max-tasks tasks jobs seed out-dir", ""),
    ("ablations", None, "which nodes tasks mode seed jobs", ""),
    ("chaos", None, "script audit-every work-dir report out", "no-drill"),
    ("serve", Some("tasks"),
     "policy horizon day-length amplitude window window-retain ring-dir ring-every ring-retain \
      audit-every stall-window max-restarts kill-at recovery-report report out",
     "no-watchdog"),
    ("trace", None, "out tasks seed", ""),
    ("help", None, "", "help"),
];

/// The flags `command` reads, as `(valued, bare)` for [`Args::check`];
/// `None` for an unknown subcommand.
fn accepted_flags(command: &str) -> Option<(Vec<&'static str>, Vec<&'static str>)> {
    let &(_, params, valued, bare) = COMMAND_FLAGS.iter().find(|(c, ..)| *c == command)?;
    let mut valued: Vec<&str> = valued.split_whitespace().collect();
    let mut bare: Vec<&str> = bare.split_whitespace().collect();
    if let Some(unread) = params {
        let unread: Vec<&str> = unread.split_whitespace().collect();
        for f in SimParams::FLAGS
            .iter()
            .filter(|f| !unread.contains(&f.name))
        {
            match f.value {
                Some(_) => valued.push(f.name),
                None => bare.push(f.name),
            }
        }
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

/// The scheduler `--policy` names (`run` and `serve`).
fn policy_from_args(args: &Args) -> Result<CaseStudyScheduler, ArgError> {
    let s = args.get("policy", "best-fit");
    let strategy =
        AllocationStrategy::parse(s).ok_or_else(|| ArgError(format!("unknown --policy {s:?}")))?;
    Ok(CaseStudyScheduler::with_strategy(strategy))
}

/// `base` with every run parameter flag on the command line set through
/// [`SimParams::set`], in [`SimParams::FLAGS`] order, and validated.
fn params_from_args(args: &Args, mut base: SimParams) -> Result<SimParams, ArgError> {
    for f in SimParams::FLAGS {
        if let Some(value) = args.flags.get(f.name) {
            base.set(f.name, value)
                .map_err(|e| ArgError(e.to_string()))?;
        }
    }
    base.validate().map_err(|e| ArgError(e.to_string()))?;
    Ok(base)
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
/// same workload file, which the restored cursor fast-forwards.
fn resume_run(args: &Args, run_opts: &RunOptions) -> Result<RunResult, ArgError> {
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
    let label = cp.policy_label();
    let policy = CaseStudyScheduler::from_label(label).ok_or_else(|| {
        ArgError(format!(
            "checkpoint policy {label:?} cannot be rebuilt by the CLI"
        ))
    })?;
    let result = match cp.source_kind() {
        "synthetic" => {
            let source = SyntheticSource::from_params(cp.params());
            Simulation::resume(cp, source, policy)
                .map_err(|e| ArgError(format!("restoring {path}: {e}")))?
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
    let result: RunResult = if args.has("resume-from") {
        resume_run(args, &run_opts)?
    } else {
        let params = params_from_args(args, SimParams::default())?;
        let policy = policy_from_args(args)?;
        if args.has("swf") || args.has("replay") {
            let source = trace_from_args(args, params.total_configs)?;
            let mut p = params;
            // Replay exactly the trace, whatever --tasks said.
            p.total_tasks = source.len();
            Simulation::new(p, source, policy)
                .map_err(|e| ArgError(e.to_string()))?
                .run_with(&run_opts)
                .map_err(|e| ArgError(e.to_string()))?
        } else {
            let source = SyntheticSource::from_params(&params);
            Simulation::new(params, source, policy)
                .map_err(|e| ArgError(e.to_string()))?
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
    // Open-system default: Poisson arrivals (the batch default stays
    // uniform for byte-compatibility of `run`).
    let open = SimParams {
        arrival: ArrivalDistribution::Poisson,
        ..SimParams::default()
    };
    let mut params = params_from_args(args, open)?;
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

    let policy = policy_from_args(args)?;
    let outcome = serve(&params, OpenSource::from_params, || policy.clone(), &opts)
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
    let jobs = args.get_num("jobs", 0usize)?;
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
    // The harnesses treat parameters as programmer input and panic on
    // invalid ones; `params_from_args` validates user input first.
    let base = params_from_args(
        args,
        SimParams::paper(100, 2_000, ReconfigMode::Partial).with_seed(7),
    )?;
    let threads = args.get_num("jobs", 0usize)?;
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

fn cmd_trace(args: &Args) -> Result<(), ArgError> {
    let out = args.get("out", "");
    if out.is_empty() {
        return Err(ArgError("trace: --out FILE is required".into()));
    }
    let p = params_from_args(
        args,
        SimParams {
            total_tasks: 1_000,
            ..SimParams::default()
        },
    )?;
    let tasks = p.total_tasks;
    let source = SyntheticSource::from_params(&p);
    let mut recorder = RecordingSource::new(source);
    let mut rng = Rng::seed_from(p.seed);
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
        assert_eq!(entries.len(), 7, "one entry per subcommand");
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

    fn parse(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn undocumented_flags_are_accepted_only_where_read() {
        // The retired `--threads` alias of `--jobs` is unknown everywhere.
        for command in ["figures", "ablations", "run"] {
            let err = check_flags(&parse(&format!("{command} --threads 2"))).unwrap_err();
            assert_eq!(
                err.0,
                format!("unknown flag --threads for `dreamsim {command}`")
            );
        }
        // `serve` builds its parameters with `params_from_args`, but
        // sets the task budget from `--horizon` itself.
        assert!(check_flags(&parse("serve --nodes 10 --no-suspension")).is_ok());
        let err = check_flags(&parse("serve --tasks 7")).unwrap_err();
        assert_eq!(err.0, "unknown flag --tasks for `dreamsim serve`");
        assert!(check_flags(&parse("--help")).is_ok());
    }

    /// A value off its default for every run parameter flag, in
    /// [`SimParams::FLAGS`] order.
    const SAMPLES: [(&str, &str); 22] = [
        ("nodes", "8"),
        ("tasks", "40"),
        ("mode", "full"),
        ("seed", "3"),
        ("arrival", "poisson"),
        ("placement", "contiguous"),
        ("no-suspension", ""),
        ("mttf", "2000"),
        ("mttr", "150"),
        ("reconfig-fail-prob", "0.25"),
        ("task-fail-prob", "0.125"),
        ("max-retries", "5"),
        ("suspension-deadline", "900"),
        ("no-resubmit", ""),
        ("domains", "3"),
        ("domain-mttf", "500"),
        ("domain-mttr", "60"),
        ("domain-kind", "partition"),
        ("outages", "1:10:50,0:20:5"),
        ("suspension-cap", "16"),
        ("admission", "degrade-closest"),
        ("burst", "0,400,2"),
    ];

    /// Every run parameter flag sets the same parameters as a `run` flag
    /// and as a chaos directive.
    #[test]
    fn every_param_flag_parses_alike_as_run_flag_and_chaos_directive() {
        use dreamsim_sweep::chaos::parse_campaign;
        let names: Vec<&str> = SimParams::FLAGS.iter().map(|f| f.name).collect();
        assert_eq!(names, SAMPLES.map(|(flag, _)| flag));
        let base = SimParams::paper(40, 400, ReconfigMode::Partial).with_seed(42);
        assert_eq!(parse_campaign("scenario s").unwrap()[0].params, base);
        let mut with_domains = base.clone();
        with_domains.set("domains", "2").unwrap();
        for (flag, value) in SAMPLES {
            let needs_domains = matches!(
                base.clone().set(flag, value),
                Err(dreamsim_engine::ParamsError::NeedsDomains(_))
            );
            let (unset, cli_domains, script_domains) = if needs_domains {
                (&with_domains, "--domains 2", "domains 2")
            } else {
                (&base, "", "")
            };
            let run = parse(&format!("run {cli_domains} --{flag} {value}"));
            let cli = params_from_args(&run, base.clone()).unwrap();
            let script = format!("scenario s\n{script_domains}\n{flag} {value}\n");
            let scenario = parse_campaign(&script).unwrap().remove(0).params;
            assert_eq!(cli, scenario, "--{flag} {value}");
            assert_ne!(&cli, unset, "--{flag} {value} sets nothing");
        }
        // Table order, not command-line order, puts `domains` first.
        let run = parse("run --outages 0:500:800 --domain-kind partition --domains 2");
        let d = params_from_args(&run, SimParams::default())
            .unwrap()
            .domains;
        assert_eq!(d.map(|d| (d.count, d.scripted.len())), Some((2, 1)));
        // The retired admission spelling is an error naming it.
        let run = parse("run --admission degrade-to-closest-match");
        let err = params_from_args(&run, SimParams::default()).unwrap_err();
        assert_eq!(
            err.0,
            "--admission expects block, shed-oldest or degrade-closest, \
             got \"degrade-to-closest-match\""
        );
    }
}
