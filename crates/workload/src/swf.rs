//! Standard Workload Format (SWF) import — the "real workloads" input
//! path the paper names as future work ("we will test the simulation
//! framework with real workloads").
//!
//! SWF is the plain-text format of the Parallel Workloads Archive: one
//! job per line, 18 whitespace-separated fields, `;` header/comment
//! lines. This importer consumes the fields DReAMSim can represent:
//!
//! | SWF field | index | Used as |
//! |---|---|---|
//! | submit time (s) | 1 | arrival time → inter-arrival ticks |
//! | run time (s) | 3 | `t_required` (scaled by `ticks_per_second`) |
//! | requested processors | 7 | mapped to a preferred configuration |
//! | status | 10 | jobs with status 0 (failed) optionally skipped |
//!
//! Processor counts map onto the configuration list by rank: jobs are
//! bucketed by `requested processors` quantile, and bucket *k* prefers
//! configuration *k* — preserving the real trace's size heterogeneity
//! while staying within the framework's configuration model. Jobs with
//! missing (−1) run time or submit time are skipped.
//!
//! Every failure is an [`SwfError`], never a panic: a malformed line,
//! zero `ticks_per_second` or `num_configs`, and a scaled inter-arrival
//! or run time above [`MAX_TICKS`], the ceiling every tick parameter
//! obeys so that the engine's clock sums cannot wrap (DESIGN.md §14.4).

use dreamsim_engine::params::MAX_TICKS;
use dreamsim_engine::sim::TaskSpec;
use dreamsim_model::{ConfigId, PreferredConfig, Ticks};

/// Import options.
#[derive(Clone, Copy, Debug)]
pub struct SwfOptions {
    /// Simulation timeticks per SWF second (SWF times are in seconds;
    /// DReAMSim's Table II operates at finer granularity).
    pub ticks_per_second: u64,
    /// Number of configurations to spread job sizes across.
    pub num_configs: usize,
    /// Skip jobs whose SWF status field is 0 (failed/cancelled).
    pub skip_failed: bool,
    /// Import at most this many jobs (0 = no limit).
    pub max_jobs: usize,
}

impl Default for SwfOptions {
    fn default() -> Self {
        Self {
            ticks_per_second: 1,
            num_configs: 50,
            skip_failed: true,
            max_jobs: 0,
        }
    }
}

/// SWF import error with 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwfError {
    /// 1-based line number, or 0 when the [`SwfOptions`] are at fault.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "SWF options: {}", self.message)
        } else {
            write!(f, "SWF line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SwfError {}

#[derive(Clone, Copy, Debug)]
struct SwfJob {
    line: usize,
    submit: u64,
    runtime: u64,
    procs: u64,
}

fn parse_jobs(text: &str, opts: &SwfOptions) -> Result<Vec<SwfJob>, SwfError> {
    let mut jobs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let body = raw.trim();
        if body.is_empty() || body.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = body.split_whitespace().collect();
        if fields.len() < 11 {
            return Err(SwfError {
                line,
                message: format!("expected ≥11 SWF fields, found {}", fields.len()),
            });
        }
        let num = |idx: usize, what: &str| -> Result<i64, SwfError> {
            fields[idx].parse().map_err(|_| SwfError {
                line,
                message: format!("invalid {what}: {:?}", fields[idx]),
            })
        };
        let submit = num(1, "submit time")?;
        let runtime = num(3, "run time")?;
        let procs = num(7, "requested processors")?;
        let status = num(10, "status")?;
        if submit < 0 || runtime <= 0 {
            continue; // missing data per SWF convention (−1)
        }
        if opts.skip_failed && status == 0 {
            continue;
        }
        jobs.push(SwfJob {
            line,
            submit: submit as u64,
            runtime: runtime as u64,
            procs: procs.max(1) as u64,
        });
        if opts.max_jobs > 0 && jobs.len() >= opts.max_jobs {
            break;
        }
    }
    // SWF files are submit-ordered in principle, but archives contain
    // out-of-order records; sort to recover a valid arrival sequence.
    jobs.sort_by_key(|j| j.submit);
    Ok(jobs)
}

/// Convert SWF text into DReAMSim task specs (replayable through
/// [`TraceSource::from_specs`](crate::trace::TraceSource::from_specs)).
pub fn import_swf(text: &str, opts: &SwfOptions) -> Result<Vec<TaskSpec>, SwfError> {
    for (value, name) in [
        (opts.num_configs as u64, "num_configs"),
        (opts.ticks_per_second, "ticks_per_second"),
    ] {
        if value == 0 {
            return Err(SwfError {
                line: 0,
                message: format!("{name} must be nonzero"),
            });
        }
    }
    let jobs = parse_jobs(text, opts)?;
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    // Rank job sizes into `num_configs` quantile buckets.
    let mut sizes: Vec<u64> = jobs.iter().map(|j| j.procs).collect();
    // TIEBREAK: u64 keys with dedup below — equal elements are
    // indistinguishable.
    sizes.sort_unstable();
    sizes.dedup();
    let bucket_of = |procs: u64| -> usize {
        let rank = sizes.partition_point(|&s| s < procs);
        rank * opts.num_configs / sizes.len().max(1)
    };
    let mut specs = Vec::with_capacity(jobs.len());
    let mut last_submit = jobs[0].submit;
    for j in &jobs {
        let scale = |seconds: u64, what: &str| -> Result<Ticks, SwfError> {
            seconds
                .checked_mul(opts.ticks_per_second)
                .filter(|&ticks| ticks <= MAX_TICKS)
                .ok_or_else(|| SwfError {
                    line: j.line,
                    message: format!(
                        "{what} of {seconds} s at {} ticks per second exceeds the ceiling \
                         of {MAX_TICKS} ticks",
                        opts.ticks_per_second
                    ),
                })
        };
        let interarrival = scale(j.submit - last_submit, "inter-arrival")?;
        last_submit = j.submit;
        let config = ConfigId::from_index(bucket_of(j.procs).min(opts.num_configs - 1));
        specs.push(TaskSpec {
            // Zero gaps (the first job, and simultaneous submissions)
            // become one tick so arrivals stay strictly ordered.
            interarrival: interarrival.max(1),
            required_time: scale(j.runtime, "run time")?,
            preferred: PreferredConfig::Known(config),
            needed_area: 0,
            data_bytes: j.procs * 1024,
        });
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Version: 2.2
; Computer: test cluster
;
1 0 -1 120 4 -1 -1 8 -1 -1 1 1 1 -1 -1 -1 -1 -1
2 60 -1 300 16 -1 -1 32 -1 -1 1 1 1 -1 -1 -1 -1 -1
3 90 -1 -1 4 -1 -1 8 -1 -1 1 1 1 -1 -1 -1 -1 -1
4 120 -1 50 1 -1 -1 1 -1 -1 0 1 1 -1 -1 -1 -1 -1
5 180 -1 600 64 -1 -1 128 -1 -1 1 1 1 -1 -1 -1 -1 -1
";

    fn opts() -> SwfOptions {
        SwfOptions {
            ticks_per_second: 10,
            num_configs: 4,
            skip_failed: true,
            max_jobs: 0,
        }
    }

    #[test]
    fn imports_valid_jobs_and_skips_missing_and_failed() {
        let specs = import_swf(SAMPLE, &opts()).unwrap();
        // Job 3 has runtime −1 (skipped); job 4 has status 0 (skipped).
        assert_eq!(specs.len(), 3);
        // Runtimes scaled by ticks_per_second.
        assert_eq!(specs[0].required_time, 1_200);
        assert_eq!(specs[1].required_time, 3_000);
        assert_eq!(specs[2].required_time, 6_000);
        // Inter-arrivals from submit gaps: 0→max(1), 60 s → 600 ticks,
        // 120 s gap (60→180) → 1200 ticks.
        assert_eq!(specs[0].interarrival, 1);
        assert_eq!(specs[1].interarrival, 600);
        assert_eq!(specs[2].interarrival, 1_200);
    }

    #[test]
    fn size_buckets_are_monotone_in_processor_count() {
        let specs = import_swf(SAMPLE, &opts()).unwrap();
        let cfg = |i: usize| match specs[i].preferred {
            PreferredConfig::Known(c) => c.index(),
            PreferredConfig::Phantom { .. } => panic!("SWF import emits known prefs"),
        };
        // procs 8 < 32 < 128 → non-decreasing config ranks.
        assert!(cfg(0) <= cfg(1));
        assert!(cfg(1) <= cfg(2));
        assert!(cfg(2) < 4, "within num_configs");
    }

    #[test]
    fn keep_failed_jobs_when_asked() {
        let mut o = opts();
        o.skip_failed = false;
        let specs = import_swf(SAMPLE, &o).unwrap();
        assert_eq!(specs.len(), 4, "status-0 job kept");
    }

    #[test]
    fn max_jobs_caps_import() {
        let mut o = opts();
        o.max_jobs = 2;
        let specs = import_swf(SAMPLE, &o).unwrap();
        assert_eq!(specs.len(), 2);
    }

    #[test]
    fn out_of_order_submits_are_sorted() {
        let text = "\
10 100 -1 50 1 -1 -1 2 -1 -1 1 1 1 -1 -1 -1 -1 -1
11 40 -1 50 1 -1 -1 2 -1 -1 1 1 1 -1 -1 -1 -1 -1
";
        let specs = import_swf(text, &opts()).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[1].interarrival, 600, "sorted: 40 → 100 is a 60 s gap");
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let err = import_swf("; header\n1 2 3\n", &opts()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("≥11"), "{}", err.message);
        let err = import_swf("1 x -1 50 1 -1 -1 2 -1 -1 1\n", &opts()).unwrap_err();
        assert!(err.message.contains("submit time"), "{}", err.message);
    }

    #[test]
    fn zero_options_are_errors_not_panics() {
        let mut zero_rate = opts();
        zero_rate.ticks_per_second = 0;
        let mut no_configs = opts();
        no_configs.num_configs = 0;
        for (o, name) in [(zero_rate, "ticks_per_second"), (no_configs, "num_configs")] {
            let err = import_swf(SAMPLE, &o).unwrap_err();
            assert_eq!(err.line, 0);
            assert_eq!(
                err.to_string(),
                format!("SWF options: {name} must be nonzero")
            );
        }
    }

    /// Scaled times above the ceiling, or past `u64`, are errors naming
    /// the job's line; the ceiling itself is accepted.
    #[test]
    fn scaled_times_above_the_ceiling_are_errors() {
        let job = |submit: u64, runtime: u64| {
            format!("1 {submit} -1 {runtime} 1 -1 -1 2 -1 -1 1 1 1 -1 -1 -1 -1 -1\n")
        };
        let mut o = opts();
        o.ticks_per_second = 1;
        let max = i64::MAX as u64;
        for (text, what, line) in [
            (job(0, MAX_TICKS + 1), "run time", 1),
            (job(0, 1) + &job(MAX_TICKS + 1, 1), "inter-arrival", 2),
        ] {
            let err = import_swf(&text, &o).unwrap_err();
            assert_eq!(err.line, line, "{text}");
            assert!(err.message.starts_with(what), "{}", err.message);
            assert!(
                err.message.contains("exceeds the ceiling"),
                "{}",
                err.message
            );
        }
        o.ticks_per_second = 1_000;
        let err = import_swf(&job(0, max), &o).unwrap_err();
        assert!(err.message.starts_with("run time"), "{}", err.message);
        let err = import_swf(&(job(0, 1) + &job(max, 1)), &o).unwrap_err();
        assert!(err.message.starts_with("inter-arrival"), "{}", err.message);
        o.ticks_per_second = 1;
        let at = import_swf(&(job(0, MAX_TICKS) + &job(MAX_TICKS, 1)), &o).unwrap();
        assert_eq!(at[0].required_time, MAX_TICKS);
        assert_eq!(at[1].interarrival, MAX_TICKS);
    }

    #[test]
    fn empty_and_comment_only_files_import_empty() {
        assert!(import_swf("", &opts()).unwrap().is_empty());
        assert!(import_swf("; nothing\n;\n", &opts()).unwrap().is_empty());
    }

    #[test]
    fn replays_through_a_simulation() {
        use dreamsim_engine::{ReconfigMode, SimParams, Simulation};
        use dreamsim_sched_shim::CaseStudyShim;
        // No dreamsim-sched dev-dependency here; drive with the trace
        // source through the engine's public trait via a tiny shim.
        let specs = import_swf(SAMPLE, &opts()).unwrap();
        let mut p = SimParams::paper(10, specs.len(), ReconfigMode::Partial);
        p.total_configs = 4;
        p.seed = 3;
        let src = crate::trace::TraceSource::from_specs(specs);
        let result = Simulation::new(p, src, CaseStudyShim).unwrap().run();
        assert_eq!(
            result.metrics.total_tasks_completed + result.metrics.total_discarded_tasks,
            3
        );
    }

    /// Minimal greedy policy so the workload crate's tests don't need a
    /// dev-dependency cycle on `dreamsim-sched`.
    mod dreamsim_sched_shim {
        use dreamsim_engine::sim::{
            Decision, DiscardReason, Placement, Resume, SchedCtx, SchedulePolicy,
        };
        use dreamsim_engine::PhaseKind;
        use dreamsim_model::{Demand, EntryRef, PreferredConfig, TaskId};

        #[derive(Default)]
        pub struct CaseStudyShim;

        impl SchedulePolicy for CaseStudyShim {
            fn name(&self) -> &'static str {
                "swf-test-shim"
            }

            fn schedule(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Decision {
                let PreferredConfig::Known(config) = ctx.tasks.preferred(task) else {
                    return Decision::Discarded(DiscardReason::NoClosestConfig);
                };
                if let Some(entry) = ctx.resources.find_best_idle(config, ctx.steps) {
                    ctx.resources.assign_task(entry, task, ctx.steps).unwrap();
                    return Decision::Placed(Placement {
                        task,
                        entry,
                        config,
                        config_time: 0,
                        phase: PhaseKind::Allocation,
                    });
                }
                let demand = Demand::of(ctx.resources.config(config));
                let ct = ctx.resources.config(config).config_time;
                if let Some(node) = ctx.resources.find_best_blank(demand, ctx.steps) {
                    let entry = ctx
                        .resources
                        .configure_slot(node, config, ctx.steps)
                        .unwrap();
                    ctx.resources.assign_task(entry, task, ctx.steps).unwrap();
                    return Decision::Placed(Placement {
                        task,
                        entry,
                        config,
                        config_time: ct,
                        phase: PhaseKind::Configuration,
                    });
                }
                Decision::Discarded(DiscardReason::NoFeasibleNode)
            }

            fn on_slot_freed(&mut self, _ctx: &mut SchedCtx<'_>, _freed: EntryRef) -> Vec<Resume> {
                Vec::new()
            }
        }
    }
}
