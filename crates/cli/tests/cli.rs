//! End-to-end tests of the `dreamsim` binary.

use std::process::Command;

fn dreamsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dreamsim"))
}

fn run_ok(args: &[&str]) -> String {
    let out = dreamsim().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "dreamsim {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn help_prints_usage() {
    let out = run_ok(&["help"]);
    assert!(out.contains("USAGE"));
    assert!(out.contains("dreamsim run"));
    assert!(out.contains("figures"));
}

#[test]
fn no_args_prints_usage() {
    let out = run_ok(&[]);
    assert!(out.contains("USAGE"));
}

#[test]
fn run_table_report() {
    let out = run_ok(&[
        "run", "--nodes", "20", "--tasks", "100", "--mode", "partial", "--seed", "3",
    ]);
    assert!(
        out.contains("tasks generated / completed / discarded : 100 /"),
        "{out}"
    );
    assert!(out.contains("avg waiting time per task"));
}

#[test]
fn run_xml_and_json_reports() {
    let xml = run_ok(&[
        "run", "--nodes", "15", "--tasks", "50", "--report", "xml", "--seed", "4",
    ]);
    assert!(xml.starts_with("<?xml"));
    assert!(xml.contains("</dreamsim-report>"));
    let json = run_ok(&[
        "run", "--nodes", "15", "--tasks", "50", "--report", "json", "--seed", "4",
    ]);
    let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(v["metrics"]["total_tasks_generated"], 50);
}

#[test]
fn run_csv_report_matches_header() {
    let csv = run_ok(&[
        "run", "--nodes", "10", "--tasks", "30", "--report", "csv", "--seed", "5",
    ]);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(
        lines[0].split(',').count(),
        lines[1].split(',').count(),
        "row arity matches header"
    );
}

#[test]
fn unknown_subcommand_fails_with_message() {
    // The retired benchmark subcommands are unknown like any typo; the
    // `benchmark/` crate replaces them, and the `dreamsim-lint` binary
    // is the one lint front end.
    for command in [
        "bogus",
        "bench-search",
        "bench-grid",
        "bench-scale",
        "bench-profile",
        "lint",
    ] {
        let out = dreamsim().arg(command).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "dreamsim {command}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown subcommand"),
            "dreamsim {command}: {err}"
        );
    }
}

#[test]
fn invalid_flag_value_fails() {
    let out = dreamsim().args(["run", "--tasks", "abc"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--tasks"));
}

#[test]
fn trace_generate_then_replay_roundtrip() {
    let dir = std::env::temp_dir().join(format!("dreamsim-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("wl.trace");
    let trace_str = trace.to_str().unwrap();
    let out = run_ok(&["trace", "--out", trace_str, "--tasks", "40", "--seed", "8"]);
    assert!(out.contains("wrote 40 tasks"));
    let replay = run_ok(&[
        "run", "--replay", trace_str, "--nodes", "10", "--tasks", "40", "--seed", "8", "--report",
        "csv",
    ]);
    assert!(replay.lines().nth(1).unwrap().contains(",40,"), "{replay}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figures_single_figure_to_dir() {
    let dir = std::env::temp_dir().join(format!("dreamsim-figs-{}", std::process::id()));
    let dir_str = dir.to_str().unwrap();
    let out = run_ok(&[
        "figures",
        "--fig",
        "9b",
        "--tasks",
        "100,200",
        "--seed",
        "6",
        "--out-dir",
        dir_str,
    ]);
    assert!(out.contains("Figure 9b"), "{out}");
    let csv = std::fs::read_to_string(dir.join("fig9b.csv")).expect("csv written");
    assert!(csv.starts_with("tasks,without_partial,with_partial"));
    assert_eq!(csv.lines().count(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swf_import_runs_end_to_end() {
    let dir = std::env::temp_dir().join(format!("dreamsim-swf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let swf = dir.join("trace.swf");
    std::fs::write(
        &swf,
        "; Version: 2.2\n\
         1 0 -1 120 4 -1 -1 8 -1 -1 1 1 1 -1 -1 -1 -1 -1\n\
         2 60 -1 300 16 -1 -1 32 -1 -1 1 1 1 -1 -1 -1 -1 -1\n",
    )
    .unwrap();
    let out = run_ok(&[
        "run",
        "--swf",
        swf.to_str().unwrap(),
        "--nodes",
        "10",
        "--seed",
        "2",
        "--report",
        "csv",
    ]);
    assert!(
        out.lines().nth(1).unwrap().contains(",2,"),
        "two jobs imported: {out}"
    );
    // Malformed SWF fails cleanly.
    std::fs::write(&swf, "1 2 3\n").unwrap();
    let bad = dreamsim()
        .args(["run", "--swf", swf.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("SWF line 1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_resume_reproduces_fault_run_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("dreamsim-cli-cp-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let dir_str = dir.to_str().unwrap();
    let full = dir.join("full.xml");
    // Uninterrupted fault-injection run, auditing continuously and
    // dropping periodic checkpoints along the way.
    run_ok(&[
        "run",
        "--nodes",
        "12",
        "--tasks",
        "120",
        "--seed",
        "42",
        "--mttf",
        "4000",
        "--reconfig-fail-prob",
        "0.1",
        "--task-fail-prob",
        "0.05",
        "--audit",
        "--checkpoint-every",
        "3000",
        "--checkpoint-dir",
        dir_str,
        "--report",
        "xml",
        "--out",
        full.to_str().unwrap(),
    ]);
    let mut cps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "dsc"))
        .collect();
    cps.sort();
    assert!(cps.len() >= 2, "expected several checkpoints, got {cps:?}");
    // No leftover temp files from the atomic write protocol.
    assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
        .unwrap()
        .file_name()
        .to_string_lossy()
        .ends_with(".tmp")));
    // Resume from a mid-run checkpoint: the report must be bit-identical.
    let mid = &cps[cps.len() / 2];
    let resumed = dir.join("resumed.xml");
    let out = dreamsim()
        .args([
            "run",
            "--resume-from",
            mid.to_str().unwrap(),
            "--report",
            "xml",
            "--out",
            resumed.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let full_bytes = std::fs::read(&full).unwrap();
    let resumed_bytes = std::fs::read(&resumed).unwrap();
    assert_eq!(full_bytes, resumed_bytes, "resumed report diverged");
    // A corrupted checkpoint is rejected with a CRC diagnostic.
    let mut bytes = std::fs::read(mid).unwrap();
    let last = bytes.len() - 2;
    bytes[last] ^= 0x01;
    let bad = dir.join("bad.dsc");
    std::fs::write(&bad, bytes).unwrap();
    let out = dreamsim()
        .args(["run", "--resume-from", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("CRC"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace-fed run resumes from every one of its checkpoints byte for
/// byte: the trace source's replay cursor travels in each snapshot, so
/// re-supplying the same `--replay` file continues the stream exactly
/// where the checkpoint left it.
#[test]
fn trace_fed_resume_from_every_checkpoint_reproduces_the_report() {
    let dir = std::env::temp_dir().join(format!("dreamsim-cli-trace-cp-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("w.trace");
    let trace = trace.to_str().unwrap();
    let cps_dir = dir.join("cps");
    let full = dir.join("full.xml");
    run_ok(&["trace", "--out", trace, "--tasks", "400", "--seed", "3"]);
    run_ok(&[
        "run",
        "--replay",
        trace,
        "--nodes",
        "20",
        "--seed",
        "3",
        "--mttf",
        "20000",
        "--checkpoint-every",
        "20000",
        "--checkpoint-dir",
        cps_dir.to_str().unwrap(),
        "--report",
        "xml",
        "--out",
        full.to_str().unwrap(),
    ]);
    let full_bytes = std::fs::read(&full).unwrap();
    let mut cps: Vec<_> = std::fs::read_dir(&cps_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    cps.sort();
    assert!(cps.len() >= 10, "expected many checkpoints, got {cps:?}");
    let resumed = dir.join("resumed.xml");
    for cp in &cps {
        run_ok(&[
            "run",
            "--resume-from",
            cp.to_str().unwrap(),
            "--replay",
            trace,
            "--report",
            "xml",
            "--out",
            resumed.to_str().unwrap(),
        ]);
        assert!(
            std::fs::read(&resumed).unwrap() == full_bytes,
            "resuming {} diverged from the uninterrupted run",
            cp.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figures_output_invariant_across_jobs() {
    let base = std::env::temp_dir().join(format!("dreamsim-figs-jobs-{}", std::process::id()));
    let csv_at = |jobs: &str| {
        let dir = base.join(format!("j{jobs}"));
        run_ok(&[
            "figures",
            "--fig",
            "9b",
            "--tasks",
            "100,200",
            "--seed",
            "6",
            "--jobs",
            jobs,
            "--out-dir",
            dir.to_str().unwrap(),
        ]);
        std::fs::read_to_string(dir.join("fig9b.csv")).expect("csv written")
    };
    let j1 = csv_at("1");
    assert_eq!(j1, csv_at("2"), "figures diverged at --jobs 2");
    assert_eq!(j1, csv_at("8"), "figures diverged at --jobs 8");
    std::fs::remove_dir_all(&base).ok();
}

/// Misspelled and removed flags fail before any simulation starts, and
/// the error names both the flag and the subcommand.
#[test]
fn unknown_flags_are_rejected_before_any_work() {
    let dir = std::env::temp_dir().join(format!("dreamsim-unknown-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("out");
    for (line, flag) in [
        ("run --nodes 20 --tasks 100 --sead 5", "--sead"),
        (
            "run --nodes 20 --tasks 100 --event-queue calendar",
            "--event-queue",
        ),
        ("run --nodes 20 --tasks 100 --search linear", "--search"),
        ("run --nodes 20 --tasks 100 --stats sketch", "--stats"),
        ("run --nodes 20 --tasks 100 --mtbf 1000", "--mtbf"),
        ("trace --tasks 20 --sead 5", "--sead"),
        ("serve --horizon 500 --kill-att 200", "--kill-att"),
        // `serve` derives its task budget from --horizon.
        (
            "serve --nodes 12 --seed 5 --horizon 5000 --arrival uniform --tasks 7",
            "--tasks",
        ),
    ] {
        let out = dreamsim()
            .args(line.split_whitespace())
            .arg("--out")
            .arg(&out_path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let command = line.split_whitespace().next().unwrap();
        assert!(!out.status.success(), "dreamsim {line} must fail");
        assert!(
            stderr.contains(&format!("unknown flag {flag} for `dreamsim {command}`")),
            "dreamsim {line}: {stderr}"
        );
        assert!(
            out.stdout.is_empty() && !out_path.exists(),
            "dreamsim {line} did work before rejecting {flag}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag given twice fails before any simulation starts, naming the
/// flag, whichever spelling either occurrence uses.
#[test]
fn repeated_flags_are_rejected_before_any_work() {
    let dir = std::env::temp_dir().join(format!("dreamsim-cli-twice-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("out");
    for line in [
        "run --nodes 5 --nodes 6 --tasks 10",
        "run --nodes=5 --tasks 10 --nodes 6",
    ] {
        let out = dreamsim()
            .args(line.split_whitespace())
            .arg("--out")
            .arg(&out_path)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "dreamsim {line}: {err}");
        assert!(
            err.contains("--nodes given twice"),
            "dreamsim {line}: {err}"
        );
        assert!(
            out.stdout.is_empty() && !out_path.exists(),
            "dreamsim {line} did work before rejecting the repeat"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tick_parameters_near_u64_max_are_typed_errors_not_panics() {
    // Each of these, if accepted, overflows a `clock + delay` sum in the
    // engine: a panic under overflow checks, a wrapped clock otherwise.
    let m = u64::MAX.to_string();
    let outages = format!("0:{m}:{m}");
    for (flags, name) in [
        (
            vec!["--suspension-deadline", &m],
            "faults.suspension_deadline",
        ),
        (vec!["--mttf", &m], "faults.node_mttf"),
        (vec!["--mttf", "1", "--mttr", &m], "faults.node_mttr"),
        (
            vec!["--domains", "5", "--domain-mttf", "1", "--domain-mttr", &m],
            "domains.mttr",
        ),
        (
            vec!["--domains", "5", "--outages", &outages],
            "domains.scripted.at",
        ),
    ] {
        let out = dreamsim()
            .args(["run", "--nodes", "5", "--tasks", "20"])
            .args(&flags)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(
            stderr.contains(&format!("parameter {name}: {m} ticks exceeds the ceiling")),
            "{flags:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
    }
}

#[test]
fn trace_and_swf_tick_values_are_typed_errors_not_panics() {
    // A zero tick rate panicked on an assertion; a trace value near
    // `u64::MAX` wrapped the engine's arrival or completion sum and the
    // run exited 0 with a garbled report.
    let dir = std::env::temp_dir().join(format!("dreamsim-trace-ticks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let swf = dir.join("s.swf");
    std::fs::write(&swf, "1 0 -1 120 4 -1 -1 8 -1 -1 1 1 1 -1 -1 -1 -1 -1\n").unwrap();
    let m = u64::MAX;
    let mut probes = vec![(
        vec!["--swf", swf.to_str().unwrap(), "--ticks-per-second", "0"],
        "SWF options: ticks_per_second must be nonzero".to_string(),
    )];
    let traces = [
        (format!("{m} 5000 c7 0\n"), "interarrival"),
        (format!("12 {m} c7 0\n"), "required_time"),
    ];
    let paths: Vec<_> = traces
        .iter()
        .enumerate()
        .map(|(i, (text, _))| {
            let path = dir.join(format!("t{i}.trace"));
            std::fs::write(&path, text).unwrap();
            path
        })
        .collect();
    for (path, (_, field)) in paths.iter().zip(&traces) {
        probes.push((
            vec!["--replay", path.to_str().unwrap()],
            format!("trace line 1: {field} {m} exceeds the ceiling"),
        ));
    }
    for (flags, want) in probes {
        let out = dreamsim()
            .args(["run", "--nodes", "5"])
            .args(&flags)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(&want), "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_a_nonexistent_task_config_is_a_typed_error_not_a_panic() {
    use dreamsim_engine::{write_checkpoint, Checkpoint};
    use dreamsim_model::{compact, pack};
    // A CRC-valid checkpoint whose first queued task resolves to a
    // configuration the table does not have must fail the restore
    // audit with a named error, not index out of bounds in a rescan.
    let dir = std::env::temp_dir().join(format!("dreamsim-cli-badcfg-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    run_ok(&[
        "run",
        "--nodes",
        "20",
        "--tasks",
        "600",
        "--mode",
        "partial",
        "--seed",
        "7",
        "--checkpoint-every",
        "400000",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]);
    let mut cps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    cps.sort();
    let raw = std::fs::read_to_string(&cps[0]).unwrap();
    let mut v: serde_json::Value = serde_json::from_str(raw.split_once('\n').unwrap().1).unwrap();
    let queued = v["suspension"]["queue"][0]
        .as_u64()
        .expect("the first checkpoint has a queued task");
    let configs = v["resources"]["configs"].as_array().unwrap().len();
    let packed = v["tasks"]["packed"].as_str().unwrap();
    let decoded = compact::decode_tasks(&pack::from_base64(packed).unwrap(), 0).unwrap();
    let mut tasks = dreamsim_model::TaskTable::new();
    let bad_config = dreamsim_model::ConfigId::from_index(configs);
    for mut row in &decoded {
        if row.id.index() == usize::try_from(queued).unwrap() {
            row.resolved_config = Some(bad_config);
        }
        tasks.push(row).unwrap();
    }
    let mut repacked = String::new();
    compact::write_tasks(&mut repacked, &tasks);
    let serde_json::Value::Object(fields) = &mut v else {
        panic!("payload is an object")
    };
    let (_, table) = fields.iter_mut().find(|(k, _)| k == "tasks").unwrap();
    *table = serde_json::from_str(&repacked).unwrap();
    let cp: Checkpoint = serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
    let bad = dir.join("bad-config.dsc");
    write_checkpoint(&bad, &cp).unwrap();
    let out = dreamsim()
        .args(["run", "--resume-from", bad.to_str().unwrap(), "--audit"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains(&format!(
            "TaskId({queued}) names a nonexistent configuration"
        )) && err.contains(&bad_config.to_string()),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rebuilds_a_naive_search_checkpoint_byte_for_byte() {
    use dreamsim_engine::{ReconfigMode, RunOptions, SimParams, Simulation};
    use dreamsim_sched::CaseStudyScheduler;
    use dreamsim_workload::SyntheticSource;
    // Ablation A2's scheduler labels its checkpoints
    // `case-study/best-fit/naive`; no CLI flag selects it, but the CLI
    // must still resume such a checkpoint into the same run.
    let dir = std::env::temp_dir().join(format!("dreamsim-cli-naive-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut params = SimParams::paper(12, 150, ReconfigMode::Partial);
    params.seed = 3;
    let opts = RunOptions {
        checkpoint_every: Some(20_000),
        checkpoint_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let full = Simulation::new(
        params.clone(),
        SyntheticSource::from_params(&params),
        CaseStudyScheduler::new().with_naive_search(true),
    )
    .unwrap()
    .run_with(&opts)
    .unwrap();
    let mut cps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    cps.sort();
    assert!(!cps.is_empty(), "the run left no checkpoint");
    let resumed = dir.join("resumed.xml");
    let out = dreamsim()
        .args(["run", "--resume-from"])
        .arg(&cps[cps.len() / 2])
        .args(["--report", "xml", "--out"])
        .arg(&resumed)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(err.contains("policy case-study/best-fit/naive"), "{err}");
    assert_eq!(
        std::fs::read_to_string(&resumed).unwrap(),
        full.report.to_xml(),
        "resumed report diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn domain_kind_without_domains_is_rejected_before_any_work() {
    let dir = std::env::temp_dir().join(format!("dreamsim-cli-domkind-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for command in ["run", "serve"] {
        let out_path = dir.join(format!("{command}.out"));
        let ring = dir.join(format!("{command}-ring"));
        let out = dreamsim()
            .args([command, "--nodes", "5"])
            .args(["--domain-kind", "partition", "--out"])
            .arg(&out_path)
            .args(if command == "serve" {
                vec!["--horizon", "500", "--ring-dir", ring.to_str().unwrap()]
            } else {
                vec!["--tasks", "20"]
            })
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "dreamsim {command}: {err}");
        assert!(
            err.contains("--domain-kind requires --domains N"),
            "dreamsim {command}: {err}"
        );
        assert!(
            out.stdout.is_empty() && !out_path.exists() && !ring.exists(),
            "dreamsim {command} ran before rejecting --domain-kind"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stray_positional_tokens_are_rejected_before_any_work() {
    let dir = std::env::temp_dir().join(format!("dreamsim-cli-stray-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for command in ["run", "serve"] {
        for stray in [&["-seed", "9"][..], &["extra"][..]] {
            let out_path = dir.join(format!("{command}.out"));
            let ring = dir.join(format!("{command}-ring"));
            let out = dreamsim()
                .args([command, "--nodes", "5"])
                .args(stray)
                .arg("--out")
                .arg(&out_path)
                .args(if command == "serve" {
                    vec!["--horizon", "500", "--ring-dir", ring.to_str().unwrap()]
                } else {
                    vec!["--tasks", "20"]
                })
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "dreamsim {command} {stray:?}: {err}"
            );
            let named = format!(
                "unexpected argument {:?} for `dreamsim {command}`",
                stray[0]
            );
            assert!(err.contains(&named), "dreamsim {command} {stray:?}: {err}");
            assert!(
                out.stdout.is_empty() && !out_path.exists() && !ring.exists(),
                "dreamsim {command} {stray:?} ran before rejecting the token"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_from_missing_path_is_a_typed_error_not_a_panic() {
    let missing = "/no/such/dir/checkpoint-000000001000.dsc";
    let out = dreamsim()
        .args(["run", "--resume-from", missing])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(missing), "error names the path: {err}");
    assert!(!err.contains("panicked"), "typed error, not a panic: {err}");
}

#[test]
fn serve_ring_dir_that_is_a_file_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("dreamsim-serve-baddir-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"occupied").unwrap();
    let out = dreamsim()
        .args([
            "serve",
            "--horizon",
            "500",
            "--ring-dir",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(file.to_str().unwrap()),
        "error names the offending path: {err}"
    );
    assert!(!err.contains("panicked"), "typed error, not a panic: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_kill_recover_reproduces_uninterrupted_report() {
    let dir = std::env::temp_dir().join(format!("dreamsim-serve-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let base_ring = dir.join("ring-base");
    let crash_ring = dir.join("ring-crash");
    let base_xml = dir.join("base.xml");
    let recovered_xml = dir.join("recovered.xml");
    let common = |ring: &std::path::Path, extra: &[&str]| {
        let mut v = vec![
            "serve".to_string(),
            "--nodes".into(),
            "12".into(),
            "--seed".into(),
            "9".into(),
            "--horizon".into(),
            "4000".into(),
            "--day-length".into(),
            "1000".into(),
            "--amplitude".into(),
            "300".into(),
            "--window".into(),
            "500".into(),
            "--ring-every".into(),
            "800".into(),
            "--ring-dir".into(),
            ring.to_str().unwrap().into(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };
    // Uninterrupted baseline.
    let out = dreamsim()
        .args(common(
            &base_ring,
            &["--report", "xml", "--out", base_xml.to_str().unwrap()],
        ))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "baseline serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Crash mid-window: exit code 137, no final report.
    let out = dreamsim()
        .args(common(&crash_ring, &["--kill-at", "2000"]))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(137), "kill switch exits 137");
    // Auto-recover by rerunning the same command without the kill.
    let out = dreamsim()
        .args(common(
            &crash_ring,
            &[
                "--report",
                "xml",
                "--out",
                recovered_xml.to_str().unwrap(),
                "--recovery-report",
                dir.join("recovery.json").to_str().unwrap(),
            ],
        ))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "recovery serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("recovered from checkpoint-"), "{err}");
    let base = std::fs::read(&base_xml).unwrap();
    let recovered = std::fs::read(&recovered_xml).unwrap();
    assert_eq!(base, recovered, "recovered report diverged from baseline");
    // The service block made it into the XML.
    assert!(
        String::from_utf8_lossy(&base).contains("<windows-closed>"),
        "service window metrics present"
    );
    // The recovery report is valid JSON naming the ring.
    let rec: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("recovery.json")).unwrap())
            .expect("valid recovery JSON");
    assert_eq!(rec["fresh_start"], false);
    assert!(rec["recovered_from"]
        .as_str()
        .unwrap()
        .starts_with("checkpoint-"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ablations_run_end_to_end() {
    let out = run_ok(&[
        "ablations",
        "--which",
        "all",
        "--nodes",
        "15",
        "--tasks",
        "120",
        "--seed",
        "2",
    ]);
    assert!(out.contains("A1"), "{out}");
    assert!(out.contains("A2"));
    assert!(out.contains("A3"));
    assert!(out.contains("metrics identical: true"), "{out}");
}

#[test]
fn ablations_reject_invalid_parameters_without_panicking() {
    let out = dreamsim()
        .args(["ablations", "--nodes", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("parameter total_nodes must be nonzero"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "typed error, not a panic: {err}");
    assert!(out.stdout.is_empty(), "no harness ran");
}
