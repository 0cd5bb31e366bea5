//! Deterministic checkpoint/restore of a running simulation.
//!
//! A [`Checkpoint`] captures the complete observable state of a
//! [`Simulation`](crate::Simulation) mid-run: the resource store (nodes,
//! slots, idle/busy lists), the task table, the event queue **with its
//! tie-break sequence numbers**, the suspension queue, step/statistics
//! accumulators, the RNG stream position, and the fault model (its own
//! RNG, per-node down-since stamps, accumulated downtime). Restoring from a checkpoint and running to completion
//! produces bit-identical results — the same XML report, metrics, and
//! fault counters — as the uninterrupted run, on both drivers.
//!
//! **Not captured:** attached [`Observer`](crate::monitor::Observer)s
//! (they are trait objects owned by the caller; a resumed run starts
//! with an empty observer list), the task source / policy internals
//! beyond a cursor and an identity label — sources declare a replay
//! cursor via [`TaskSource`](crate::TaskSource) hooks, and stateless
//! policies are rebuilt from their label — and the store's search
//! index, which is derived state (DESIGN.md §11): deserializing the
//! store rebuilds it from the restored node table and lists.
//!
//! ## File format
//!
//! A checkpoint file is a single header line
//!
//! ```text
//! DREAMSIM-CHECKPOINT <version> <crc32-hex>\n
//! ```
//!
//! followed by the JSON payload. The CRC-32 (IEEE, as in zip/PNG) covers
//! exactly the payload bytes, so truncation and bit-rot are detected
//! before deserialization. Writes go to a sibling `*.tmp` file which is
//! fsynced and atomically renamed into place — a crash mid-write can
//! never leave a half-written file under the checkpoint's final name.
//!
//! There is one format: the reader accepts exactly [`FORMAT_VERSION`]
//! (5: the columnar task and node tables, the waiting-time samples
//! inside `stats`, and the task table's `first` id beside its `count`)
//! and rejects any other header version with
//! [`CheckpointError::Version`] before touching the payload. The retired
//! layouts — version 1, whose task table was a plain JSON array,
//! version 2, whose node table was a JSON record per node, version 3,
//! whose parameters still held the retired global failure chain, and
//! version 4, whose task table always started at id 0 — have no writer
//! and no reader.
//!
//! ## One state value
//!
//! A running simulation keeps its captured state *as* a [`Checkpoint`]:
//! the run loops mutate its fields in place, the snapshot hook
//! serializes it in place (after copying the source's replay cursor
//! into it), [`Simulation::checkpoint`](crate::Simulation::checkpoint)
//! returns a clone, and [`Simulation::resume`](crate::Simulation::resume)
//! adopts a decoded one whole. A new captured member is declared here
//! and initialised in [`Simulation::new`](crate::Simulation::new),
//! nowhere else.

use crate::event::EventQueue;
use crate::fault::FaultModel;
use crate::params::SimParams;
use crate::stats::Stats;
use dreamsim_model::{ResourceManager, StepCounter, SuspensionQueue, TaskTable, Ticks};
use dreamsim_rng::Rng;
use std::io::Write as _;
use std::path::Path;

/// Format version written to the header; bumped on any incompatible
/// payload change. Version 2 packed the task table into the compact
/// columnar form (see [`crate::compact`]); version 3 packed the node
/// table too (DESIGN.md §18.4); version 4 dropped the global failure
/// chain's parameters and the `stats.sketch` slot, and moved the
/// waiting-time samples into `stats`; version 5 added the task table's
/// `first`, the id of its first row, which a service advances as it
/// retires finished rows (DESIGN.md §10.1). Readers accept exactly this
/// version and reject every other one with [`CheckpointError::Version`].
pub const FORMAT_VERSION: u32 = 5;

/// Magic token opening every checkpoint file.
const MAGIC: &str = "DREAMSIM-CHECKPOINT";

/// Why a checkpoint could not be written, read, or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure while writing or reading.
    Io(std::io::Error),
    /// The file is not a checkpoint (bad magic, malformed header, or
    /// undecodable payload).
    Format(String),
    /// The file is a checkpoint of an unsupported format version.
    Version {
        /// Version found in the header.
        found: u32,
    },
    /// The payload bytes do not match the header checksum (truncation or
    /// corruption).
    Crc {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the actual payload bytes.
        found: u32,
    },
    /// The payload decoded but describes a state the simulator refuses
    /// to adopt (invalid parameters, mismatched policy/source, or an
    /// audit failure on restore).
    State(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(msg) => write!(f, "not a valid checkpoint: {msg}"),
            CheckpointError::Version { found } => write!(
                f,
                "unsupported checkpoint format version {found} (this build reads \
                 version {FORMAT_VERSION} only)"
            ),
            CheckpointError::Crc { expected, found } => write!(
                f,
                "checkpoint payload corrupt: header CRC {expected:08x} but payload \
                 hashes to {found:08x}"
            ),
            CheckpointError::State(msg) => write!(f, "checkpoint state rejected: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A complete mid-run snapshot of a simulation.
///
/// Produced by [`Simulation::checkpoint`](crate::Simulation::checkpoint),
/// consumed by [`Simulation::resume`](crate::Simulation::resume);
/// serialized to disk by [`write_checkpoint`] / [`read_checkpoint`].
/// The derived serializer writes the fields in declaration order, which
/// is the payload's member order. A running simulation holds its live
/// state as one of these, so every member is both live state and
/// payload.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Checkpoint {
    pub(crate) params: SimParams,
    /// Identity label of the policy that was running
    /// ([`SchedulePolicy::state_label`](crate::SchedulePolicy::state_label));
    /// resume refuses a different policy.
    pub(crate) policy: String,
    /// Identity of the task source
    /// ([`TaskSource::source_kind`](crate::TaskSource::source_kind)).
    pub(crate) source_kind: String,
    /// Replay cursor of the task source
    /// ([`TaskSource::source_cursor`](crate::TaskSource::source_cursor)).
    /// A running simulation refreshes it just before each snapshot.
    pub(crate) source_cursor: u64,
    pub(crate) resources: ResourceManager,
    pub(crate) tasks: TaskTable,
    pub(crate) events: EventQueue,
    pub(crate) suspension: SuspensionQueue,
    pub(crate) steps: StepCounter,
    pub(crate) stats: Stats,
    pub(crate) rng: Rng,
    pub(crate) fault: FaultModel,
    pub(crate) clock: Ticks,
    /// Tasks the source has yielded so far: the task table's `first`
    /// plus its rows.
    pub(crate) created: u64,
    pub(crate) last_arrival: Ticks,
    /// The source reported `NotYet`; re-poll after the next completion.
    pub(crate) stalled: bool,
}

impl Checkpoint {
    /// Parameters of the checkpointed run.
    #[must_use]
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Identity label of the policy that was running.
    #[must_use]
    pub fn policy_label(&self) -> &str {
        &self.policy
    }

    /// Identity of the task source that was feeding the run.
    #[must_use]
    pub fn source_kind(&self) -> &str {
        &self.source_kind
    }

    /// Simulation time at which the snapshot was taken.
    #[must_use]
    pub fn clock(&self) -> Ticks {
        self.clock
    }
}

/// The reflected IEEE 802.3 CRC-32 polynomial (zip, PNG).
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables for [`crc32`], built at compile time:
/// `CRC_TABLES[0]` is the classic byte-at-a-time table, and
/// `CRC_TABLES[k][b]` is the CRC register after byte `b` followed by `k`
/// zero bytes, so eight table lookups advance the CRC by eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        // BOUND: b < 256.
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            // BOUND: masked to the low byte, so the index is below 256.
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected, as used by zip/PNG), slice-by-8.
///
/// Checkpoint payloads range from tens of kB (paper-scale batch runs)
/// to ~1.5 MB per snapshot of a 20 000-node `serve` ring, and the
/// checksum runs once on every write and once on every read, so it
/// consumes eight bytes per step through [`CRC_TABLES`] rather than
/// one bit per step.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let [a, b, c, d] = (crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
        crc = t[7][usize::from(a)]
            ^ t[6][usize::from(b)]
            ^ t[5][usize::from(c)]
            ^ t[4][usize::from(d)]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(byte ^ crc.to_le_bytes()[0])];
    }
    !crc
}

/// Serialize `cp` and atomically write it to `path`; returns the number
/// of bytes written (header + payload), which the phase profiler
/// accumulates as `checkpoint_bytes`.
///
/// The payload is streamed straight into one buffer by the serde shim
/// (no intermediate value tree) and checksummed. The bytes then go to
/// `path` + `".tmp"`, are flushed and fsynced, and are renamed over
/// `path` — readers never observe a partial file.
pub fn write_checkpoint(path: &Path, cp: &Checkpoint) -> Result<u64, CheckpointError> {
    let payload = serde_json::to_string(cp)
        .map_err(|e| CheckpointError::Format(format!("serialization failed: {e}")))?;
    let header = format!(
        "{MAGIC} {FORMAT_VERSION} {:08x}\n",
        crc32(payload.as_bytes())
    );
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(header.as_bytes())?;
        f.write_all(payload.as_bytes())?;
        f.flush()?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok((header.len() + payload.len()) as u64)
}

/// Read and validate a checkpoint file written by [`write_checkpoint`].
///
/// The file is read as raw bytes. Validation order: magic and header
/// shape ([`CheckpointError::Format`]), format version
/// ([`CheckpointError::Version`]), payload checksum
/// ([`CheckpointError::Crc`]), then decoding ([`CheckpointError::Format`]).
/// The checksum runs before any decoding, so every corruption of the
/// payload — including one that breaks UTF-8 — is reported as a CRC
/// mismatch. The decoder then reads the checked bytes in one pass,
/// straight into the typed [`Checkpoint`] with no intermediate tree,
/// checking UTF-8 inside strings, the only place JSON allows non-ASCII
/// bytes. Semantic validation (parameters, policy/source identity, state
/// invariants) happens later, in
/// [`Simulation::resume`](crate::Simulation::resume).
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, CheckpointError> {
    let raw = std::fs::read(path)?;
    let newline = raw
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| CheckpointError::Format("missing header line".to_string()))?;
    let (header, payload) = (&raw[..newline], &raw[newline + 1..]);
    let header = std::str::from_utf8(header)
        .map_err(|_| CheckpointError::Format("header is not UTF-8".to_string()))?;
    let mut parts = header.split_ascii_whitespace();
    let magic = parts.next().unwrap_or_default();
    if magic != MAGIC {
        return Err(CheckpointError::Format(format!(
            "bad magic {magic:?} (expected {MAGIC:?})"
        )));
    }
    let version: u32 = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CheckpointError::Format("header missing version".to_string()))?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::Version { found: version });
    }
    let expected = parts
        .next()
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| CheckpointError::Format("header missing checksum".to_string()))?;
    if parts.next().is_some() {
        return Err(CheckpointError::Format(
            "trailing header fields".to_string(),
        ));
    }
    let found = crc32(payload);
    if found != expected {
        return Err(CheckpointError::Crc { expected, found });
    }
    serde_json::from_slice(payload)
        .map_err(|e| CheckpointError::Format(format!("payload decode failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition the tables are derived from.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn slice_by_8_matches_bitwise_at_every_length_and_alignment() {
        // Every remainder length 0..8 and several word counts, at every
        // start offset within a word.
        let data: Vec<u8> = (0..300u32)
            .map(|i| i.wrapping_mul(2_654_435_761).to_le_bytes()[3])
            .collect();
        for start in 0..8 {
            for len in 0..=(data.len() - start) {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }
}
