//! The checkpoint decoder's contract, pinned on real payloads.
//!
//! `read_checkpoint` must decode what `write_checkpoint` writes back to
//! the same state, and it must read the JSON the way the shim always
//! has: field order, whitespace, unknown fields and repeated keys (the
//! first occurrence wins) do not change the result; `-0` for an
//! unsigned integer and `null` for a float are accepted; a float for an
//! integer, a missing member (`Option`-typed included), a malformed
//! unknown field
//! (numbers and `\u` escapes outside RFC 8259's grammar included), a
//! task table whose `count` is not its row count or whose `first +
//! count` passes the `u32` id range, a task row whose
//! needed or phantom area exceeds `MAX_AREA`, trailing characters, a
//! truncated document and bytes that are not UTF-8 are all
//! `CheckpointError::Format`. Two decoded checkpoints are compared by
//! re-encoding them, which is byte-exact (the golden tests pin the
//! encoder).

use dreamsim::engine::sim::{SourceYield, TaskSource, TaskSpec};
use dreamsim::engine::{
    read_checkpoint, serve, ArrivalDistribution, Checkpoint, CheckpointError, DomainOutageKind,
    DomainParams, ReconfigMode, RunOptions, ServiceOptions, ServiceParams, SimParams, Simulation,
    FORMAT_VERSION,
};
use dreamsim::model::{
    compact, ids::MAX_AREA, pack, ConfigId, PreferredConfig, Task, TaskId, TaskState, TaskTable,
    Ticks,
};
use dreamsim::rng::Rng;
use dreamsim::sched::CaseStudyScheduler;
use dreamsim::workload::{OpenSource, SyntheticSource};
use serde_json::{Number, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bitwise CRC-32 (IEEE, reflected), independent of the engine's.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// A new empty directory, distinct for every call (tests run in
/// parallel and build the same scenarios).
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let name = format!("dreamsim-decode-{tag}-{}-{n}", std::process::id());
    // lint: allow(r2) -- scratch directory for test artifacts, never simulator state
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The JSON payload of the checkpoint file at `path`.
fn payload_of(path: &Path) -> String {
    let raw = std::fs::read_to_string(path).unwrap();
    raw.split_once('\n').expect("a header line").1.to_string()
}

/// The payload of the middle `.dsc` file in `dir`.
fn middle_payload(dir: &Path) -> String {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "dsc"))
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "{}: no checkpoint written",
        dir.display()
    );
    payload_of(&files[files.len() / 2])
}

fn batch(tag: &str, p: &SimParams) -> String {
    let dir = fresh_dir(tag);
    let opts = RunOptions {
        checkpoint_every: Some(5_000),
        checkpoint_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    Simulation::new(
        p.clone(),
        SyntheticSource::from_params(p),
        CaseStudyScheduler::new(),
    )
    .unwrap()
    .run_with(&opts)
    .unwrap();
    let payload = middle_payload(&dir);
    std::fs::remove_dir_all(&dir).ok();
    payload
}

fn batch_params(nodes: usize, tasks: usize, seed: u64) -> SimParams {
    let mut p = SimParams::paper(nodes, tasks, ReconfigMode::Partial).with_seed(seed);
    p.task_time = dreamsim::engine::params::Range::new(10, 2_000);
    p
}

/// A paper run with every optional parameter at its default.
fn plain_payload() -> String {
    batch("plain", &batch_params(20, 300, 0xD1A1))
}

/// Fault injection and correlated failure domains with a scripted
/// outage.
fn chaos_payload() -> String {
    let mut p = batch_params(24, 300, 0xC4A05);
    p.faults.node_mttf = Some(20_000);
    p.faults.reconfig_fail_prob = 0.15;
    p.faults.task_fail_prob = 0.05;
    p.faults.suspension_deadline = Some(100_000);
    p.domains = Some(DomainParams {
        count: 4,
        mttf: Some(15_000),
        mttr: 2_000,
        kind: DomainOutageKind::Partition,
        scripted: vec![dreamsim::engine::ScriptedOutage {
            domain: 2,
            at: 4_000,
            duration: 3_000,
        }],
    });
    batch("chaos", &p)
}

/// A mid-window `serve` snapshot: window statistics and an open source.
fn serve_payload() -> String {
    let horizon = 20_000;
    let mut p = SimParams::paper(16, horizon as usize + 1, ReconfigMode::Partial).with_seed(11);
    p.arrival = ArrivalDistribution::Poisson;
    p.service = Some(ServiceParams {
        horizon,
        day_length: 4_000,
        amplitude_permille: 400,
        window: 1_000,
        window_retain: 8,
    });
    let dir = fresh_dir("serve");
    let mut opts = ServiceOptions::new(&dir);
    opts.ring_every = 2_000;
    opts.ring_retain = 1_000;
    serve(&p, OpenSource::from_params, CaseStudyScheduler::new, &opts).unwrap();
    let payload = middle_payload(&dir);
    std::fs::remove_dir_all(&dir).ok();
    payload
}

/// Decode `payload` through `read_checkpoint`, under a header whose
/// CRC matches it.
fn decode(dir: &Path, payload: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let path = dir.join("case.dsc");
    let mut file = format!(
        "DREAMSIM-CHECKPOINT {FORMAT_VERSION} {:08x}\n",
        crc32(payload)
    )
    .into_bytes();
    file.extend_from_slice(payload);
    std::fs::write(&path, file).unwrap();
    read_checkpoint(&path)
}

fn encode(cp: &Checkpoint) -> String {
    serde_json::to_string(cp).unwrap()
}

/// `payload` must decode and re-encode to `expected`.
fn assert_decodes_to(dir: &Path, what: &str, payload: &str, expected: &str) {
    match decode(dir, payload.as_bytes()) {
        Ok(cp) => assert!(
            encode(&cp) == expected,
            "{what}: decoded to a different checkpoint"
        ),
        Err(e) => panic!("{what}: rejected: {e}"),
    }
}

/// `payload` must be rejected as an undecodable payload.
fn assert_rejected(dir: &Path, what: &str, payload: &[u8]) {
    match decode(dir, payload) {
        Err(CheckpointError::Format(_)) => {}
        Err(other) => panic!("{what}: expected a format error, got {other}"),
        Ok(_) => panic!("{what}: was accepted"),
    }
}

/// Whether `fields` are a struct's (snake_case names), not an
/// externally tagged enum variant's single CamelCase tag.
fn is_struct(fields: &[(String, Value)]) -> bool {
    fields
        .first()
        .is_some_and(|(k, _)| k.starts_with(|c: char| c.is_ascii_lowercase()))
}

/// An object's members, in order.
type Members = Vec<(String, Value)>;

/// `v` with `edit` applied to every struct object, innermost first.
fn map_structs(v: &Value, edit: &dyn Fn(&mut Members)) -> Value {
    match v {
        Value::Array(items) => Value::Array(items.iter().map(|i| map_structs(i, edit)).collect()),
        Value::Object(fields) => {
            let mut fields: Members = fields
                .iter()
                .map(|(k, x)| (k.clone(), map_structs(x, edit)))
                .collect();
            if is_struct(&fields) {
                edit(&mut fields);
            }
            Value::Object(fields)
        }
        other => other.clone(),
    }
}

/// `v` with every object's fields in reverse order.
fn reversed(v: &Value) -> Value {
    match v {
        Value::Array(items) => Value::Array(items.iter().map(reversed).collect()),
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .rev()
                .map(|(k, x)| (k.clone(), reversed(x)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The member at `path` (numeric segments index arrays).
fn at<'a>(mut v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    for seg in path {
        v = match v {
            Value::Object(fields) => {
                let found = fields.iter_mut().find(|(k, _)| k == seg);
                &mut found.unwrap_or_else(|| panic!("no member {seg}")).1
            }
            Value::Array(items) => &mut items[seg.parse::<usize>().unwrap()],
            other => panic!("{seg}: not a container: {other:?}"),
        };
    }
    v
}

/// `v` without the member at `path`.
fn without(v: &Value, path: &[&str]) -> Value {
    let mut v = v.clone();
    let (last, parent) = path.split_last().unwrap();
    let Value::Object(fields) = at(&mut v, parent) else {
        panic!("{parent:?} is not an object");
    };
    let before = fields.len();
    fields.retain(|(k, _)| k != last);
    assert_eq!(fields.len(), before - 1, "no member {path:?}");
    v
}

/// `v` with the member at `path` replaced by `x`.
fn with(v: &Value, path: &[&str], x: Value) -> Value {
    let mut v = v.clone();
    *at(&mut v, path) = x;
    v
}

fn text(v: &Value) -> String {
    serde_json::to_string(v).unwrap()
}

/// `v` with its packed task table decoded, edited by `edit` and
/// encoded again.
fn with_tasks(v: &Value, edit: &dyn Fn(&mut Vec<Task>)) -> Value {
    let packed = v["tasks"]["packed"].as_str().unwrap();
    let decoded = compact::decode_tasks(&pack::from_base64(packed).unwrap(), 0).unwrap();
    let mut rows: Vec<Task> = decoded.iter().collect();
    edit(&mut rows);
    let mut tasks = TaskTable::new();
    for row in rows {
        tasks.push(row).unwrap();
    }
    let mut table = String::new();
    compact::write_tasks(&mut table, &tasks);
    with(v, &["tasks"], serde_json::from_str(&table).unwrap())
}

#[test]
fn layout_variants_decode_to_the_same_checkpoint() {
    let dir = fresh_dir("variants");
    for (name, payload) in [
        ("plain", plain_payload()),
        ("chaos", chaos_payload()),
        ("serve", serve_payload()),
    ] {
        let tree: Value = serde_json::from_str(&payload).unwrap();
        assert_eq!(text(&tree), payload, "{name}: the value tree re-renders");
        assert_decodes_to(&dir, &format!("{name}: as written"), &payload, &payload);
        let unknown: Value = serde_json::from_str(
            r#"{"a":[1,-2,3.5e-1,"s\u00e9\"",null,true,false,{"b":{},"c":[]}]}"#,
        )
        .unwrap();
        let variants = [
            (
                "pretty-printed",
                serde_json::to_string_pretty(&tree).unwrap(),
            ),
            ("fields reversed", text(&reversed(&tree))),
            (
                "an unknown field in every struct",
                text(&map_structs(&tree, &|f| {
                    f.insert(f.len() / 2, ("zz_unknown".to_string(), unknown.clone()));
                })),
            ),
            (
                "every key repeated with null",
                text(&map_structs(&tree, &|f| {
                    let repeats: Members =
                        f.iter().map(|(k, _)| (k.clone(), Value::Null)).collect();
                    f.extend(repeats);
                })),
            ),
        ];
        for (what, variant) in &variants {
            assert_ne!(variant, &payload, "{name}, {what}: the variant differs");
            assert_decodes_to(&dir, &format!("{name}, {what}"), variant, &payload);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn what_the_decoder_accepts_stays_accepted() {
    let dir = fresh_dir("accepted");
    let payload = plain_payload();
    let tree: Value = serde_json::from_str(&payload).unwrap();
    // `-0` reads as 0 for an unsigned field.
    let zero = text(&with(&tree, &["created"], Value::Number(Number::U(0))));
    assert_eq!(zero.matches(",\"created\":0,").count(), 1);
    let minus_zero = zero.replace(",\"created\":0,", ",\"created\":-0,");
    assert_decodes_to(&dir, "-0 for an unsigned field", &minus_zero, &zero);
    // `null` reads as NaN for a float, which writes back as `null`.
    let null = text(&with(
        &tree,
        &["params", "closest_match_fraction"],
        Value::Null,
    ));
    assert_decodes_to(&dir, "null for a float", &null, &null);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn what_the_decoder_rejects_stays_rejected() {
    let dir = fresh_dir("rejected");
    let payload = plain_payload();
    let tree: Value = serde_json::from_str(&payload).unwrap();
    let float = |v: f64| Value::Number(Number::F(v));
    let rows = tree["tasks"]["count"].as_u64().unwrap();
    let cases = [
        (
            "a float for an integer",
            text(&with(&tree, &["clock"], float(1.5))),
        ),
        (
            "an integral float for an integer",
            text(&with(&tree, &["params", "total_nodes"], float(20.0))),
        ),
        (
            "a negative number for an unsigned field",
            text(&with(&tree, &["created"], Value::Number(Number::I(-1)))),
        ),
        (
            "a missing required field",
            text(&without(&tree, &["clock"])),
        ),
        (
            "a missing nested required field",
            text(&without(&tree, &["params", "seed"])),
        ),
        (
            "a missing Option-typed required field",
            text(&without(&tree, &["params", "max_sus_retries"])),
        ),
        ("trailing characters", format!("{payload} x")),
        ("a second document", format!("{payload}{{}}")),
        (
            "a truncated document",
            payload[..payload.len() - 1].to_string(),
        ),
        ("half a document", payload[..payload.len() / 2].to_string()),
        (
            "a float task count",
            text(&with(&tree, &["tasks", "count"], float(300.0))),
        ),
        (
            "a string task count",
            text(&with(
                &tree,
                &["tasks", "count"],
                Value::String("300".into()),
            )),
        ),
        (
            "a missing task count",
            text(&without(&tree, &["tasks", "count"])),
        ),
        (
            "a missing first task id",
            text(&without(&tree, &["tasks", "first"])),
        ),
        (
            "a float first task id",
            text(&with(&tree, &["tasks", "first"], float(0.0))),
        ),
        (
            "a task count one above the rows",
            text(&with(
                &tree,
                &["tasks", "count"],
                Value::Number(Number::U(rows + 1)),
            )),
        ),
        (
            "a task row needing MAX_AREA + 1 area units",
            text(&with_tasks(&tree, &|t| t[0].needed_area = MAX_AREA + 1)),
        ),
        (
            "a task row preferring a phantom of MAX_AREA + 1 area units",
            text(&with_tasks(&tree, &|t| {
                let phantom = t
                    .iter_mut()
                    .find(|t| matches!(t.preferred, PreferredConfig::Phantom { .. }))
                    .expect("a phantom preference");
                phantom.preferred = PreferredConfig::Phantom { area: MAX_AREA + 1 };
            })),
        ),
    ];
    for (what, variant) in &cases {
        assert_rejected(&dir, what, variant.as_bytes());
    }
    // Every member is written, so every member is required: one that is
    // missing is an error, never a default. These once defaulted, so
    // that payloads older than the member still decoded.
    let chaos: Value = serde_json::from_str(&chaos_payload()).unwrap();
    let serve: Value = serde_json::from_str(&serve_payload()).unwrap();
    let missing: &[(&Value, &[&str])] = &[
        (&tree, &["stats", "window"]),
        (&tree, &["stats", "tasks_shed"]),
        (&tree, &["stats", "wait_samples"]),
        (&tree, &["params", "faults"]),
        (&tree, &["params", "domains"]),
        (&tree, &["params", "suspension_cap"]),
        (&tree, &["params", "admission"]),
        (&tree, &["params", "burst"]),
        (&tree, &["params", "service"]),
        (&tree, &["fault", "domains"]),
        (&chaos, &["params", "domains", "kind"]),
        (&chaos, &["params", "domains", "scripted"]),
        (&serve, &["params", "service", "window"]),
    ];
    for (v, path) in missing {
        let variant = text(&without(v, path));
        assert_rejected(
            &dir,
            &format!("a missing member {path:?}"),
            variant.as_bytes(),
        );
    }
    // Malformed unknown fields are still syntax-checked.
    for junk in [
        "[1,]",
        "tru",
        "nul",
        "\"\\q\"",
        "\"\\u12\"",
        "\"open",
        "{\"a\" 1}",
        "{1:2}",
        "1.2.3",
        "-",
        "99999999999999999999",
        "[1 2]",
        "}",
        "\"\\u+041\"",
        "1.",
        "1.e5",
        "01",
    ] {
        let variant = format!("{{\"zz_unknown\":{junk},{}", &payload[1..]);
        assert_rejected(&dir, &format!("unknown field {junk}"), variant.as_bytes());
    }
    // Bytes that are not UTF-8, inside a string and outside one.
    let at = payload.find("\"policy\":\"").unwrap() + "\"policy\":\"".len();
    let mut bytes = payload.clone().into_bytes();
    bytes.insert(at, 0xff);
    assert_rejected(&dir, "a non-UTF-8 byte in a string", &bytes);
    let mut bytes = payload.into_bytes();
    bytes.insert(1, 0xc3);
    assert_rejected(&dir, "a non-UTF-8 byte between fields", &bytes);
    std::fs::remove_dir_all(&dir).ok();
}

/// A task table's rows are ids `first..first + count`, so a wrapper
/// whose `first + count` passes `u32::MAX` is a decode error naming
/// both; one that fits but disagrees with the checkpoint's `created`
/// count decodes, and `resume` refuses it as a state error naming both
/// numbers.
#[test]
fn a_task_wrapper_past_the_id_range_or_off_created_is_a_typed_error() {
    let dir = fresh_dir("first");
    let tree: Value = serde_json::from_str(&plain_payload()).unwrap();
    let rows = tree["tasks"]["count"].as_u64().unwrap();
    let created = tree["created"].as_u64().unwrap();
    assert_eq!(
        tree["tasks"]["first"].as_u64(),
        Some(0),
        "a batch run never retires"
    );
    let first = |f: u64| {
        text(&with(
            &tree,
            &["tasks", "first"],
            Value::Number(Number::U(f)),
        ))
    };
    let max = u64::from(u32::MAX);
    for f in [max - rows + 1, max, max + 1, u64::MAX] {
        match decode(&dir, first(f).as_bytes()) {
            Err(CheckpointError::Format(msg)) => assert!(
                msg.contains(&format!(
                    "first {f} + count {rows} exceeds the u32 id range"
                )),
                "first {f}: {msg}"
            ),
            other => panic!("first {f}: expected a format error, got {other:?}"),
        }
    }
    for f in [1, max - rows] {
        let cp = decode(&dir, first(f).as_bytes())
            .unwrap_or_else(|e| panic!("first {f} fits the id range: {e}"));
        let p = cp.params().clone();
        match Simulation::resume(
            cp,
            SyntheticSource::from_params(&p),
            CaseStudyScheduler::new(),
        ) {
            Err(CheckpointError::State(msg)) => assert!(
                msg.contains(&format!(
                    "created count {created} disagrees with the task table's {} tasks",
                    f + rows
                )),
                "first {f}: {msg}"
            ),
            Err(other) => panic!("first {f}: expected a state error, got {other}"),
            Ok(_) => panic!("first {f}: resumed"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A CRC-valid payload nesting an unknown field a million arrays deep
/// is a decode error. The tree-building decoder, and a reader without
/// a depth limit, overflowed the stack and aborted the process.
#[test]
fn a_deeply_nested_payload_is_a_format_error() {
    let dir = fresh_dir("deep");
    let payload = plain_payload();
    let depth = 1_000_000;
    let deep = format!(
        "{{\"zz_unknown\":{}{},{}",
        "[".repeat(depth),
        "]".repeat(depth),
        &payload[1..]
    );
    assert_rejected(&dir, "a million nested arrays", deep.as_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

/// Yields one task every 10 ticks on configuration 0, except that every
/// fifth asks for a phantom configuration of 2^30 area units, above
/// `MAX_AREA`. It replays from its cursor, so a resume can pick it up.
#[derive(Default)]
struct OversizedEveryFifth {
    yielded: u64,
}

impl TaskSource for OversizedEveryFifth {
    fn next_task(&mut self, _now: Ticks, _rng: &mut Rng) -> SourceYield {
        self.yielded += 1;
        let (preferred, needed_area) = if self.yielded.is_multiple_of(5) {
            (PreferredConfig::Phantom { area: 1 << 30 }, 1 << 30)
        } else {
            (PreferredConfig::Known(ConfigId(0)), 0)
        };
        SourceYield::Task(TaskSpec {
            interarrival: 10,
            required_time: 100,
            preferred,
            needed_area,
            data_bytes: 0,
        })
    }

    fn source_kind(&self) -> &'static str {
        "oversized-every-fifth"
    }

    fn source_cursor(&self) -> u64 {
        self.yielded
    }

    fn restore_cursor(&mut self, cursor: u64) -> bool {
        self.yielded = cursor;
        true
    }
}

/// A source's area above `MAX_AREA` is held to it where the task enters
/// the run, so every checkpoint of the run decodes, and a resume from
/// each reproduces the uninterrupted report. Such a task is discarded
/// on arrival either way: no configuration is wider than the ceiling.
#[test]
fn source_areas_above_the_ceiling_still_checkpoint_and_resume() {
    let p = SimParams::paper(10, 50, ReconfigMode::Partial).with_seed(3);
    let sim = || {
        Simulation::new(
            p.clone(),
            OversizedEveryFifth::default(),
            CaseStudyScheduler::new(),
        )
        .unwrap()
    };
    let base = sim().run();
    let m = &base.metrics;
    assert_eq!((m.total_tasks_completed, m.total_discarded_tasks), (40, 10));
    let held = base.tasks.row(TaskId(4));
    assert_eq!(held.preferred, PreferredConfig::Phantom { area: MAX_AREA });
    assert_eq!(held.needed_area, MAX_AREA);
    assert_eq!(held.state, TaskState::Discarded);

    let dir = fresh_dir("oversized");
    let opts = RunOptions {
        checkpoint_every: Some(100),
        checkpoint_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    sim().run_with(&opts).unwrap();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(files.len() >= 5, "{} checkpoints", files.len());
    for path in &files {
        let cp = read_checkpoint(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let resumed = Simulation::resume(
            cp,
            OversizedEveryFifth::default(),
            CaseStudyScheduler::new(),
        )
        .unwrap()
        .run();
        assert_eq!(
            resumed.report.to_xml(),
            base.report.to_xml(),
            "resumed from {}",
            path.display()
        );
        assert_eq!(resumed.tasks, base.tasks, "resumed from {}", path.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}
