//! Compact columnar encoding for the checkpoint task table.
//!
//! A checkpoint's dominant payload at scale is the task table: a million
//! tasks serialized as a JSON array of objects costs ~300 bytes each,
//! almost all of it repeated field names and base-10 digits. This module
//! re-encodes the table column-by-column into a byte stream — LEB128
//! varints, delta-coded timestamps, a palette for the preferred-config
//! column, and run-length-encoded states — then wraps it in base64 so it
//! still travels inside the JSON checkpoint payload. Typical cost drops
//! to a few bytes per task.
//!
//! The encoding is self-contained and versioned by the checkpoint header
//! (format versions 2 to 5 carry this form, byte for byte; version 3
//! added the columnar node table, version 5 the wrapper's `first`, and
//! version 5 is the only one read or written). The wrapper is
//! `{"first": f, "count": n, "packed": "<base64>"}`: `first` is the id
//! of the first row (0 unless a service retired finished rows), and the
//! stream holds rows `first..first + n`. The [`TaskTable`] already holds
//! one column per field, so
//! the encoder writes each packed column from its in-memory column (the
//! palette and its index column as they are), and its varints and
//! base64 ([`crate::pack`]) go straight into the payload; the decoder
//! fills each in-memory column straight from its packed one. Decoding
//! is defensive: every read is bounds- and range-checked and returns an
//! error instead of panicking, because checkpoint bytes come from disk;
//! a value its column cannot hold is an error naming the task (a needed
//! or phantom area above [`MAX_AREA`], a time or configuration id equal
//! to its column's `None` sentinel).
//!
//! Column order (after a leading task count):
//!
//! | # | column            | encoding                                        |
//! |---|-------------------|-------------------------------------------------|
//! | 1 | `required_time`   | varint per task                                 |
//! | 2 | `preferred`       | palette (tag+value pairs), then varint indices  |
//! | 3 | `needed_area`     | varint per task                                 |
//! | 4 | `data_bytes`      | varint per task                                 |
//! | 5 | `create_time`     | zigzag delta vs previous task                   |
//! | 6 | `start_time`      | 0 = `None`, else 1 + zigzag(start − create)     |
//! | 7 | `completion_time` | 0 = `None`, else 1 + zigzag(completion − start) |
//! | 8 | `assigned_config` | 0 = `None`, else id + 1                         |
//! | 9 | `resolved_config` | 0 = `None`, else id + 1                         |
//! |10 | `sus_retry`       | varint per task                                 |
//! |11 | `fault_retries`   | varint per task                                 |
//! |12 | `suspended_at`    | 0 = `None`, else 1 + zigzag(value − create)     |
//! |13 | `state`           | RLE pairs (state code, run length)              |
//!
//! Task ids are elided entirely: the table is dense, so
//! `id == first + index`.

use crate::ids::{Area, TaskId, MAX_AREA};
use crate::pack::{get_varint, put_u64, put_varint};
use crate::task::{config_cell, config_of, time_cell, time_of, TaskTable};
use crate::{ConfigId, PreferredConfig, TaskState};

// ---------------------------------------------------------------------------
// varints
// ---------------------------------------------------------------------------

/// Map a signed delta onto the unsigned varint domain (zigzag).
fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

/// Narrow a decoded varint to `u64`, with a column name for the error.
fn to_u64(v: u128, what: &str) -> Result<u64, String> {
    u64::try_from(v).map_err(|_| format!("{what}: value {v} exceeds u64"))
}

/// Narrow a decoded varint to `u32`, with a column name for the error.
fn to_u32(v: u128, what: &str) -> Result<u32, String> {
    u32::try_from(v).map_err(|_| format!("{what}: value {v} exceeds u32"))
}

/// Apply a zigzag delta to a base value, rejecting out-of-range results.
fn apply_delta(base: u64, delta: u128, what: &str) -> Result<u64, String> {
    let v = i128::from(base) + unzigzag(delta);
    u64::try_from(v).map_err(|_| format!("{what}: delta lands outside u64 ({v})"))
}

// ---------------------------------------------------------------------------
// column encoders
// ---------------------------------------------------------------------------

/// Encode an optional timestamp as `0 = None`, else `1 + zigzag(v − base)`.
fn put_opt_time(out: &mut Vec<u8>, value: Option<u64>, base: u64) {
    match value {
        None => put_varint(out, 0),
        Some(v) => put_varint(out, 1 + zigzag(i128::from(v) - i128::from(base))),
    }
}

/// State codes for the RLE column.
fn state_code(state: TaskState) -> u128 {
    match state {
        TaskState::Created => 0,
        TaskState::Suspended => 1,
        TaskState::Running => 2,
        TaskState::Completed => 3,
        TaskState::Discarded => 4,
    }
}

/// Inverse of [`state_code`].
fn state_from_code(code: u128) -> Result<TaskState, String> {
    Ok(match code {
        0 => TaskState::Created,
        1 => TaskState::Suspended,
        2 => TaskState::Running,
        3 => TaskState::Completed,
        4 => TaskState::Discarded,
        other => return Err(format!("state column: unknown code {other}")),
    })
}

/// Palette key for a `preferred` entry: a (tag, value) pair.
fn preferred_key(p: PreferredConfig) -> (u8, u64) {
    match p {
        PreferredConfig::Known(id) => (0, u64::from(id.0)),
        PreferredConfig::Phantom { area } => (1, area),
    }
}

/// Rebuild a `preferred` entry from its palette key.
fn preferred_from_key(tag: u128, value: u128) -> Result<PreferredConfig, String> {
    match tag {
        0 => Ok(PreferredConfig::Known(ConfigId(to_u32(
            value,
            "preferred palette id",
        )?))),
        1 => Ok(PreferredConfig::Phantom {
            area: to_u64(value, "preferred palette area")?,
        }),
        other => Err(format!("preferred palette: unknown tag {other}")),
    }
}

// ---------------------------------------------------------------------------
// encode / decode
// ---------------------------------------------------------------------------

impl serde::Serialize for TaskTable {
    fn write_json(&self, out: &mut String) {
        write_tasks(out, self);
    }
}

impl serde::Deserialize for TaskTable {
    fn read_json(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let err = |e: String| serde::Error::custom(format!("TaskTable: {e}"));
        let ([first, count], bytes) = crate::pack::read_packed(r, "TaskTable", ["first", "count"])?;
        // Every row's id, and the next one created, must be a u32.
        let first = u32::try_from(first)
            .ok()
            .filter(|&f| u64::from(f).saturating_add(count) <= u64::from(u32::MAX))
            .ok_or_else(|| {
                err(format!(
                    "first {first} + count {count} exceeds the u32 id range"
                ))
            })?;
        let tasks = decode_tasks(&bytes, first).map_err(err)?;
        if count != tasks.len() as u64 {
            return Err(err(format!(
                "count {count} disagrees with packed length {}",
                tasks.len()
            )));
        }
        Ok(tasks)
    }
}

/// Append `tasks` to `out` as the checkpoint's packed task table,
/// `{"first": f, "count": n, "packed": "<base64>"}`, base64-encoding the
/// columns straight from their buffers.
pub fn write_tasks(out: &mut String, tasks: &TaskTable) {
    let parts = task_columns(tasks);
    let parts: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
    let members = [
        ("first", u64::from(tasks.first)),
        ("count", tasks.len() as u64),
    ];
    crate::pack::write_packed(out, &members, &parts);
}

/// A column of plain varints.
fn varints<T: Copy + Into<u64>>(values: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    for &v in values {
        put_u64(&mut out, v.into());
    }
    out
}

/// An optional-time column: `0 = None`, else `1 + zigzag(v − base)`.
fn times(values: &[u64], base: impl Fn(usize) -> u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    for (i, &v) in values.iter().enumerate() {
        put_opt_time(&mut out, time_of(v), base(i));
    }
    out
}

/// An optional-configuration column: `0 = None`, else id + 1.
fn configs(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    for &c in values {
        put_u64(&mut out, config_of(c).map_or(0, |id| u64::from(id.0) + 1));
    }
    out
}

/// The columnar byte stream in parts, in stream order: the task count,
/// column 1, the palette, then columns 2–13, each written from its
/// in-memory column.
fn task_columns(t: &TaskTable) -> Vec<Vec<u8>> {
    let mut count = Vec::new();
    put_u64(&mut count, t.len() as u64);
    let mut keys = Vec::new();
    put_u64(&mut keys, t.palette.len() as u64);
    for &p in &t.palette {
        let (tag, value) = preferred_key(p);
        put_u64(&mut keys, u64::from(tag));
        put_u64(&mut keys, value);
    }
    // Arrival order makes create_time (near-)nondecreasing, so zigzag
    // deltas against the previous task are tiny.
    let mut create = Vec::with_capacity(t.len());
    let mut prev_create = 0u64;
    for &c in &t.create_time {
        put_varint(&mut create, zigzag(i128::from(c) - i128::from(prev_create)));
        prev_create = c;
    }
    // The state column as RLE (code, run-length) pairs. In a finished
    // or late-stage run almost every task is Completed, so the column
    // collapses to a couple of bytes.
    let mut states = Vec::new();
    let mut rest = &t.state[..];
    while let Some(&first) = rest.first() {
        let len = rest.iter().take_while(|&&s| s == first).count();
        put_varint(&mut states, state_code(first));
        put_u64(&mut states, len as u64);
        rest = &rest[len..];
    }
    vec![
        count,
        varints(&t.required_time),
        keys,
        varints(&t.preferred),
        varints(&t.needed_area),
        varints(&t.data_bytes),
        create,
        times(&t.start_time, |i| t.create_time[i]),
        // Completion deltas against start (fall back to create) stay
        // small because completion = start + required_time for finished
        // tasks.
        times(&t.completion_time, |i| {
            time_of(t.start_time[i]).unwrap_or(t.create_time[i])
        }),
        configs(&t.assigned_config),
        configs(&t.resolved_config),
        varints(&t.sus_retry),
        varints(&t.fault_retries),
        times(&t.suspended_at, |i| t.create_time[i]),
        states,
    ]
}

/// Decode the byte stream whose base64 [`write_tasks`] writes, as the
/// rows from id `first` on; the caller has checked that every id fits a
/// `u32`.
///
/// Every read is checked; malformed input yields a descriptive error, not
/// a panic, because checkpoint payloads come from disk. Each packed
/// column fills its in-memory column, so the decode holds nothing beside
/// the columns.
pub fn decode_tasks(buf: &[u8], first: u32) -> Result<TaskTable, String> {
    let mut pos = 0usize;
    let count = get_varint(buf, &mut pos)?;
    let count = usize::try_from(count).map_err(|_| format!("task count {count} too large"))?;
    // Cap pre-allocation by what the buffer could plausibly hold (each
    // task costs at least one byte per column) so a corrupt count cannot
    // balloon memory before the first truncation error fires.
    let mut t = TaskTable::with_capacity(count.min(buf.len()));
    t.first = first;
    let mut next = |what: &str| get_varint(buf, &mut pos).map_err(|e| format!("{what}: {e}"));
    // Names row `i` in errors; an id past the u32 range is a count the
    // caller's check would have refused, so it saturates harmlessly.
    let id = |i: usize| TaskId(first.saturating_add(u32::try_from(i).unwrap_or(u32::MAX)));
    // A needed or phantom area past the ceiling could overflow the
    // engine's area sums; like a node's or a configuration's, it is a
    // decode error naming the task.
    let ceiling = |i: usize, what: &str, area: Area| {
        if area > MAX_AREA {
            Err(format!(
                "{}: {what} {area} exceeds the ceiling of {MAX_AREA} area units",
                id(i)
            ))
        } else {
            Ok(())
        }
    };
    for _ in 0..count {
        t.required_time
            .push(to_u64(next("required_time")?, "required_time")?);
    }

    let palette_len = next("palette")?;
    let palette_len = u32::try_from(palette_len)
        .map_err(|_| format!("palette length {palette_len} exceeds u32"))?;
    for _ in 0..palette_len {
        let tag = next("palette")?;
        let value = next("palette")?;
        t.push_palette_entry(preferred_from_key(tag, value)?);
    }
    for i in 0..count {
        let idx = next("preferred")?;
        let p = usize::try_from(idx)
            .ok()
            .and_then(|k| t.palette.get(k))
            .ok_or_else(|| format!("palette index {idx} out of range {palette_len}"))?;
        if let PreferredConfig::Phantom { area } = *p {
            ceiling(i, "phantom area", area)?;
        }
        // BOUND: idx indexes the palette, whose length is a u32.
        t.preferred.push(idx as u32);
    }
    for i in 0..count {
        let area = to_u64(next("needed_area")?, "needed_area")?;
        ceiling(i, "needed_area", area)?;
        // BOUND: area <= MAX_AREA = 2^24, checked above.
        t.needed_area.push(area as u32);
    }
    for _ in 0..count {
        t.data_bytes
            .push(to_u64(next("data_bytes")?, "data_bytes")?);
    }
    let mut prev_create = 0u64;
    for _ in 0..count {
        prev_create = apply_delta(prev_create, next("create_time")?, "create_time")?;
        t.create_time.push(prev_create);
    }
    let time = |i: usize, what: &'static str, v: Option<u64>| {
        time_cell(id(i), what, v).map_err(|e| e.to_string())
    };
    for i in 0..count {
        let v = opt_time(next("start_time")?, t.create_time[i], "start_time")?;
        t.start_time.push(time(i, "start_time", v)?);
    }
    for i in 0..count {
        let base = time_of(t.start_time[i]).unwrap_or(t.create_time[i]);
        let v = opt_time(next("completion_time")?, base, "completion_time")?;
        t.completion_time.push(time(i, "completion_time", v)?);
    }
    let config = |i: usize, what: &'static str, v: Option<ConfigId>| {
        config_cell(id(i), what, v).map_err(|e| e.to_string())
    };
    for i in 0..count {
        let v = opt_config(next("assigned_config")?, "assigned_config")?;
        t.assigned_config.push(config(i, "assigned_config", v)?);
    }
    for i in 0..count {
        let v = opt_config(next("resolved_config")?, "resolved_config")?;
        t.resolved_config.push(config(i, "resolved_config", v)?);
    }
    for _ in 0..count {
        t.sus_retry.push(to_u32(next("sus_retry")?, "sus_retry")?);
    }
    for _ in 0..count {
        t.fault_retries
            .push(to_u32(next("fault_retries")?, "fault_retries")?);
    }
    for i in 0..count {
        let v = opt_time(next("suspended_at")?, t.create_time[i], "suspended_at")?;
        t.suspended_at.push(time(i, "suspended_at", v)?);
    }

    while t.state.len() < count {
        let filled = t.state.len();
        let state = state_from_code(next("state")?)?;
        let run = next("state")?;
        let run = usize::try_from(run).map_err(|_| format!("state run length {run}"))?;
        if run == 0 || run > count - filled {
            return Err(format!(
                "state column: run of {run} at {filled} overflows count {count}"
            ));
        }
        t.state.resize(filled + run, state);
    }

    if pos != buf.len() {
        return Err(format!(
            "trailing garbage: {} bytes after the state column",
            buf.len() - pos
        ));
    }
    Ok(t)
}

/// Decode an optional timestamp read by [`get_varint`]: `0 = None`, else
/// `1 + zigzag(v − base)`.
fn opt_time(raw: u128, base: u64, what: &str) -> Result<Option<u64>, String> {
    if raw == 0 {
        return Ok(None);
    }
    apply_delta(base, raw - 1, what).map(Some)
}

/// Decode an optional configuration id: `0 = None`, else id + 1.
fn opt_config(raw: u128, what: &str) -> Result<Option<ConfigId>, String> {
    if raw == 0 {
        return Ok(None);
    }
    to_u32(raw - 1, what).map(|id| Some(ConfigId(id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{from_base64, to_base64};
    use crate::Task;

    /// The table holding `tasks`.
    fn table(tasks: &[Task]) -> TaskTable {
        let mut t = TaskTable::new();
        for task in tasks {
            t.push(task.clone()).unwrap(); // INVARIANT: test rows fit every column.
        }
        t
    }

    /// The columnar byte stream of `tasks`, unwrapped from its base64.
    fn encode_tasks(tasks: &[Task]) -> Vec<u8> {
        task_columns(&table(tasks)).concat()
    }

    fn sample_task(i: usize) -> Task {
        let completed = i.is_multiple_of(3);
        Task {
            id: TaskId::from_index(i),
            required_time: 40 + (i as u64 % 17),
            preferred: if i.is_multiple_of(5) {
                PreferredConfig::Phantom {
                    area: 30 + (i as u64 % 7),
                }
            } else {
                // BOUND: test ids stay below u32::MAX.
                PreferredConfig::Known(ConfigId((i % 4) as u32))
            },
            needed_area: 25 + (i as u64 % 9),
            data_bytes: 1024 * (i as u64 % 31),
            create_time: 10 * i as u64,
            start_time: completed.then(|| 10 * i as u64 + 3),
            completion_time: completed.then(|| 10 * i as u64 + 50),
            assigned_config: completed.then_some(ConfigId((i % 4) as u32)),
            resolved_config: i.is_multiple_of(2).then_some(ConfigId((i % 4) as u32)),
            sus_retry: (i % 6) as u64,
            fault_retries: (i % 3) as u32,
            suspended_at: (i % 7 == 1).then(|| 10 * i as u64 + 1),
            state: if completed {
                TaskState::Completed
            } else if i % 7 == 1 {
                TaskState::Suspended
            } else {
                TaskState::Created
            },
        }
    }

    #[test]
    fn round_trips_mixed_states() {
        let tasks: Vec<Task> = (0..257).map(sample_task).collect();
        let bytes = encode_tasks(&tasks);
        let back = decode_tasks(&bytes, 0).expect("decode"); // INVARIANT: test asserts on decode success.
        assert_eq!(back.iter().collect::<Vec<_>>(), tasks);
        assert_eq!(back, table(&tasks));
    }

    #[test]
    fn round_trips_empty_table() {
        let bytes = encode_tasks(&[]);
        assert_eq!(decode_tasks(&bytes, 0).unwrap(), TaskTable::new()); // INVARIANT: test asserts on decode success.
    }

    #[test]
    fn completed_runs_collapse() {
        // An all-Completed table must spend O(1) bytes on the state column.
        let mut tasks: Vec<Task> = (0..10_000).map(sample_task).collect();
        for t in &mut tasks {
            t.state = TaskState::Completed;
        }
        let baseline = encode_tasks(&tasks[..1]).len();
        let full = encode_tasks(&tasks).len();
        // ~16 bytes per task would already be generous; the state column
        // itself contributes 3 bytes total regardless of count.
        assert!(full < baseline + tasks.len() * 16, "full={full}");
    }

    #[test]
    fn base64_round_trips_all_remainders() {
        for len in 0..=9usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 5) as u8).collect(); // BOUND: small test bytes.
            let enc = to_base64(&bytes);
            assert_eq!(from_base64(&enc).unwrap(), bytes, "len={len}"); // INVARIANT: test asserts on decode success.
        }
    }

    #[test]
    fn base64_rejects_malformed_input() {
        assert!(from_base64("abc").is_err(), "bad length");
        assert!(from_base64("ab=c").is_err(), "interior padding");
        assert!(from_base64("a!cd").is_err(), "bad alphabet");
        assert!(from_base64("ab==cd==").is_err(), "padding mid-stream");
        let err = |s: &str| from_base64(s).unwrap_err();
        assert_eq!(err("abcdefg"), "base64: length 7 not a multiple of 4");
        for bad in ["abcd!bcd", "abcdab\u{7f}d", "abcd ab=", "\u{e9}bc"] {
            assert!(err(bad).starts_with("base64: invalid byte 0x"), "{bad:?}");
        }
        for misplaced in ["ab=cabcd", "abcda=cd", "a===", "====", "abcd===="] {
            assert_eq!(err(misplaced), "base64: misplaced padding", "{misplaced:?}");
        }
        assert_eq!(from_base64("").unwrap(), Vec::<u8>::new());
        assert_eq!(from_base64("YQ==").unwrap(), b"a");
    }

    /// The stream of one task, configuration 0, with the raw varints
    /// `start`, `assigned` and `sus_retry` in those columns.
    fn one_task(start: u128, assigned: u128, sus_retry: u128) -> Vec<u8> {
        let mut out = Vec::new();
        // count, required_time, palette (one Known(0) key), its index,
        // needed_area, data_bytes, create_time.
        for v in [1, 1, 1, 0, 0, 0, 1, 0, 0] {
            put_varint(&mut out, v);
        }
        for v in [start, 0, assigned, 0, sus_retry, 0, 0] {
            put_varint(&mut out, v);
        }
        // One run of Created.
        put_varint(&mut out, 0);
        put_varint(&mut out, 1);
        out
    }

    #[test]
    fn decode_rejects_values_a_column_cannot_hold() {
        assert!(decode_tasks(&one_task(0, 0, 0), 0).is_ok());
        let sentinel_time = 1 + zigzag(i128::from(u64::MAX));
        let sentinel_config = u128::from(u32::MAX) + 1;
        for (bytes, expected) in [
            (
                one_task(sentinel_time, 0, 0),
                "TaskId(0): start_time equals the column's None sentinel",
            ),
            (
                one_task(0, sentinel_config, 0),
                "TaskId(0): assigned_config equals the column's None sentinel",
            ),
            (
                one_task(0, 0, u128::from(u32::MAX) + 1),
                "sus_retry: value 4294967296 exceeds u32",
            ),
        ] {
            let err = decode_tasks(&bytes, 0).unwrap_err();
            assert!(err.starts_with(expected), "got {err}");
        }
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let tasks: Vec<Task> = (0..40).map(sample_task).collect();
        let bytes = encode_tasks(&tasks);
        for cut in [1usize, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_tasks(&bytes[..cut], 0).is_err(), "cut={cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_tasks(&extended, 0).is_err(), "trailing byte");
    }
}
