//! `dreamsim-benchmark`: the repository benchmark. See `README.md`.

use dreamsim_benchmark::compare;
use dreamsim_benchmark::harness::{self, DEFAULT_SEED};
use dreamsim_benchmark::workloads::{Size, Workload};
use std::collections::BTreeMap;
use std::path::Path;

const USAGE: &str = "usage:
  dreamsim-benchmark run [--seed N] [--reps N] [--out FILE]
      every workload: a warm-up round, N measured rounds, one traced run each
  dreamsim-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      one workload for about S seconds; the last stdout line is the result
  dreamsim-benchmark compare BASE.json CHANGE.json
workloads: paper-saturated, scale-1m, serve-ring, figures-grid";

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("child") => child(&args[1..]),
        _ => Err(String::new()),
    };
    result.unwrap_or_else(|e| {
        if !e.is_empty() {
            eprintln!("error: {e}");
        }
        eprintln!("{USAGE}");
        2
    })
}

/// Parse `--flag value` pairs (flags in `valued`) and bare `--flag`s
/// (flags in `bare`, stored with an empty value).
fn flags(
    args: &[String],
    valued: &[&str],
    bare: &[&str],
) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = if valued.contains(&name) {
            it.next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone()
        } else if bare.contains(&name) {
            String::new()
        } else {
            return Err(format!("unknown flag --{name}"));
        };
        if out.insert(name.to_string(), value).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    f.get(name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("--{name} {v:?} is not a valid number"))
    })
}

fn workload(f: &BTreeMap<String, String>) -> Result<Option<Workload>, String> {
    f.get("workload")
        .map(|n| Workload::parse(n).ok_or_else(|| format!("unknown workload {n:?}")))
        .transpose()
}

fn size(f: &BTreeMap<String, String>) -> Size {
    if f.contains_key("small") {
        Size::Small
    } else {
        Size::Full
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    let f = flags(
        args,
        &["workload", "seed", "seconds", "trace", "reps", "out"],
        &["small"],
    )?;
    let seed = number(&f, "seed", DEFAULT_SEED)?;
    let Some(w) = workload(&f)? else {
        if f.contains_key("seconds") || f.contains_key("trace") {
            return Err("--seconds and --trace need --workload".to_string());
        }
        let reps = number(&f, "reps", 10usize)?;
        if reps == 0 {
            return Err("--reps must be at least 1".to_string());
        }
        // Recorded without the binary's own path, which names the host.
        let command = std::iter::once("dreamsim-benchmark".to_string())
            .chain(std::env::args().skip(1))
            .collect::<Vec<_>>()
            .join(" ");
        return Ok(harness::run_all(
            seed,
            reps,
            size(&f),
            f.get("out").map(Path::new),
            &command,
        ));
    };
    if f.contains_key("reps") || f.contains_key("out") {
        return Err("--reps and --out run every workload; drop --workload".to_string());
    }
    let seconds = number(&f, "seconds", 30u64)?;
    let trace = match f.get("trace").map_or("0", String::as_str) {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(harness::run_workload(w, seed, seconds, trace, size(&f)))
}

fn compare_cmd(args: &[String]) -> Result<i32, String> {
    let [base, change] = args else {
        return Err("compare takes two result files".to_string());
    };
    let read = |p: &String| -> Result<serde_json::Value, String> {
        let s = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        serde_json::from_str(&s).map_err(|e| format!("parsing {p}: {e}"))
    };
    let rows = compare::compare(&read(base)?, &read(change)?)?;
    compare::print(&rows);
    Ok(i32::from(
        rows.iter().any(|r| r.verdict == compare::Verdict::Worse),
    ))
}

fn child(args: &[String]) -> Result<i32, String> {
    let f = flags(args, &["workload", "seed"], &["traced", "small"])?;
    let w = workload(&f)?.ok_or("child needs --workload")?;
    let seed = number(&f, "seed", DEFAULT_SEED)?;
    Ok(harness::child_main(
        w,
        seed,
        size(&f),
        f.contains_key("traced"),
    ))
}
