//! Golden checkpoint bytes.
//!
//! The checkpoint encoder may change how it produces bytes, but never
//! which bytes it produces: a format change needs a `FORMAT_VERSION`
//! bump. Comparing two runs of the same encoder cannot show that, so
//! these tests pin the length and CRC-32 of real `write_checkpoint`
//! output for fixed-seed states that between them reach every
//! serialized shape: fault injection, correlated failure domains,
//! contiguous strips (experiment A5), and a mid-window `serve`
//! snapshot. Format v3 changed the node table's bytes but not the task
//! table's: one test pins the fault scenario's packed task column to
//! the bytes format v2 wrote for it. The last tests pin that headers
//! of the retired versions 1, 2 and 3 are refused.
//!
//! Each scenario folds every checkpoint file it writes, in name order,
//! into one `(files, bytes, crc32)` triple; on a mismatch the message
//! prints the actual triple. Decoding each file and encoding it again
//! must reproduce its payload byte for byte. The strip scenario also
//! pins its final XML report as `(bytes, crc32)`: its end-of-run
//! fragmentation is computed only when the run finishes, so no
//! checkpoint holds it.

use dreamsim::engine::{
    read_checkpoint, serve, AdmissionPolicy, ArrivalDistribution, CheckpointError,
    DomainOutageKind, DomainParams, PlacementModel, ReconfigMode, RunOptions, ScriptedOutage,
    ServiceOptions, ServiceParams, SimParams, Simulation, FORMAT_VERSION,
};
use dreamsim::sched::CaseStudyScheduler;
use dreamsim::workload::{OpenSource, SyntheticSource};
use std::path::{Path, PathBuf};

/// `(checkpoint files, total bytes, CRC-32 of their concatenation)`.
type Golden = (usize, u64, u32);

const FAULTS: Golden = (14, 500_071, 0x2557_3219);
const CHAOS_DOMAINS: Golden = (6, 129_046, 0x3F0F_A662);
const CONTIGUOUS: Golden = (2, 41_888, 0xC761_1ADB);
/// `(bytes, CRC-32)` of the strip scenario's final XML report.
const CONTIGUOUS_REPORT: (u64, u32) = (2_112, 0x4E97_4CAD);
const SERVE_MID_WINDOW: Golden = (10, 291_301, 0xAC61_572A);

/// Bitwise CRC-32 (IEEE, reflected), written independently of the
/// engine's so the goldens do not trust the code they check.
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

fn fresh_dir(tag: &str) -> PathBuf {
    // lint: allow(r2) -- scratch directory for test artifacts, never simulator state
    let dir = std::env::temp_dir().join(format!("dreamsim-golden-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The `.dsc` files in `dir`, sorted by path.
fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "dsc"))
        .collect();
    files.sort();
    files
}

fn fold(files: &[PathBuf]) -> Golden {
    let mut all = Vec::new();
    for f in files {
        all.extend(std::fs::read(f).unwrap());
    }
    (files.len(), all.len() as u64, crc32(&all))
}

fn check(name: &str, files: &[PathBuf], golden: Golden) {
    let actual = fold(files);
    assert!(actual.0 > 0, "{name}: the scenario wrote no checkpoint");
    assert_eq!(
        actual, golden,
        "{name}: checkpoint bytes changed; actual (files, bytes, crc32) = \
         ({}, {}, 0x{:08X})",
        actual.0, actual.1, actual.2
    );
    for f in files {
        assert_round_trips(f);
    }
}

/// Decoding the checkpoint at `path` and encoding it again must
/// reproduce its payload byte for byte.
fn assert_round_trips(path: &Path) {
    let raw = std::fs::read(path).unwrap();
    let newline = raw.iter().position(|&b| b == b'\n').expect("a header line");
    let cp = read_checkpoint(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let again = serde_json::to_string(&cp).unwrap();
    assert!(
        again.as_bytes() == &raw[newline + 1..],
        "{}: decode then encode changed the payload",
        path.display()
    );
}

fn batch_params(nodes: usize, tasks: usize, seed: u64) -> SimParams {
    let mut p = SimParams::paper(nodes, tasks, ReconfigMode::Partial).with_seed(seed);
    p.task_time = dreamsim::engine::params::Range::new(10, 2_000);
    p
}

/// Run a batch simulation that checkpoints every `every` ticks into a
/// fresh directory; returns the directory and the final XML report.
fn run_batch(tag: &str, p: &SimParams, every: u64) -> (PathBuf, String) {
    let dir = fresh_dir(tag);
    let opts = RunOptions {
        checkpoint_every: Some(every),
        checkpoint_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let result = Simulation::new(
        p.clone(),
        SyntheticSource::from_params(p),
        CaseStudyScheduler::new(),
    )
    .unwrap()
    .run_with(&opts)
    .unwrap();
    (dir, result.report.to_xml())
}

fn fault_params() -> SimParams {
    let mut p = batch_params(20, 300, 0x601D);
    p.faults.node_mttf = Some(20_000);
    p.faults.node_mttr = 2_000;
    p.faults.reconfig_fail_prob = 0.15;
    p.faults.task_fail_prob = 0.05;
    p.faults.suspension_deadline = Some(100_000);
    p
}

#[test]
fn fault_injection_checkpoints_match_golden() {
    let (dir, _) = run_batch("faults", &fault_params(), 5_000);
    check("faults", &checkpoint_files(&dir), FAULTS);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_domain_checkpoints_match_golden() {
    let mut p = batch_params(24, 300, 0xC4A05);
    p.domains = Some(DomainParams {
        count: 4,
        mttf: Some(15_000),
        mttr: 2_000,
        kind: DomainOutageKind::Partition,
        scripted: vec![ScriptedOutage {
            domain: 2,
            at: 4_000,
            duration: 3_000,
        }],
    });
    p.suspension_cap = Some(16);
    p.admission = AdmissionPolicy::ShedOldest;
    let (dir, _) = run_batch("chaos", &p, 5_000);
    check("chaos domains", &checkpoint_files(&dir), CHAOS_DOMAINS);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn contiguous_strip_checkpoints_match_golden() {
    let mut p = batch_params(16, 300, 0xA5);
    p.placement = PlacementModel::Contiguous;
    let (dir, xml) = run_batch("strips", &p, 5_000);
    check("contiguous strips", &checkpoint_files(&dir), CONTIGUOUS);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        !xml.contains("<mean-fragmentation>0</mean-fragmentation>"),
        "the pinned report should end with fragmented strips"
    );
    let actual = (xml.len() as u64, crc32(xml.as_bytes()));
    assert_eq!(
        actual, CONTIGUOUS_REPORT,
        "contiguous strips: final report changed; actual (bytes, crc32) = ({}, 0x{:08X})",
        actual.0, actual.1
    );
}

#[test]
fn mid_window_serve_snapshots_match_golden() {
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
    // Keep every snapshot so all of them are pinned.
    opts.ring_retain = 1_000;
    let outcome = serve(&p, OpenSource::from_params, CaseStudyScheduler::new, &opts).unwrap();
    assert!(outcome.result.is_some(), "the service window drains");
    check("serve", &checkpoint_files(&dir), SERVE_MID_WINDOW);
    std::fs::remove_dir_all(&dir).ok();
}

/// `(checkpoint files, bytes, CRC-32)` of the fault scenario's packed
/// task columns alone (each file's `tasks.packed` text, concatenated in
/// file order): the value format v2 wrote for the same run, which the
/// one-pass encoder must keep byte for byte.
const FAULTS_TASK_COLUMN: Golden = (14, 95_876, 0xE3A0_0BA8);

#[test]
fn packed_task_column_keeps_its_v2_bytes() {
    let (dir, _) = run_batch("taskcol", &fault_params(), 5_000);
    let files = checkpoint_files(&dir);
    let mut all = Vec::new();
    for f in &files {
        let raw = std::fs::read_to_string(f).unwrap();
        let payload = raw.split_once('\n').expect("a header line").1;
        let v: serde_json::Value = serde_json::from_str(payload).unwrap();
        all.extend_from_slice(v["tasks"]["packed"].as_str().unwrap().as_bytes());
    }
    std::fs::remove_dir_all(&dir).ok();
    let actual = (files.len(), all.len() as u64, crc32(&all));
    assert_eq!(
        actual, FAULTS_TASK_COLUMN,
        "the packed task column changed; actual (files, bytes, crc32) = ({}, {}, 0x{:08X})",
        actual.0, actual.1, actual.2
    );
}

/// A real checkpoint whose header is rewritten to `version`, payload and
/// CRC untouched, must be refused with a typed version error before its
/// payload is decoded.
fn assert_version_refused(version: u32) {
    let (dir, _) = run_batch(&format!("v{version}"), &fault_params(), 5_000);
    let files = checkpoint_files(&dir);
    let raw = std::fs::read(&files[files.len() / 2]).unwrap();
    let current = format!("DREAMSIM-CHECKPOINT {FORMAT_VERSION} ");
    let rest = raw
        .strip_prefix(current.as_bytes())
        .expect("checkpoints carry the current header");
    let old = dir.join(format!("v{version}.dsc"));
    let header = format!("DREAMSIM-CHECKPOINT {version} ");
    std::fs::write(&old, [header.as_bytes(), rest].concat()).unwrap();
    match read_checkpoint(&old) {
        Err(CheckpointError::Version { found }) if found == version => {}
        other => panic!("expected a version-{version} rejection, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Version 1, whose task table was a JSON array, is retired.
#[test]
fn version_1_header_is_rejected() {
    assert_version_refused(1);
}

/// Version 2, whose node table was a JSON record per node, is retired:
/// no v2 reader is kept.
#[test]
fn version_2_header_is_rejected() {
    assert_version_refused(2);
}

/// Version 3 is retired too. Its parameters could hold the global
/// failure chain, which a v4 reader would skip as an unknown member,
/// resuming the run without its failure process.
#[test]
fn version_3_header_is_rejected() {
    assert_version_refused(3);
}
