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
//! (format versions 2 to 4 carry this form, byte for byte; version 3
//! added the columnar node table, and version 4 is the only one read or
//! written). The
//! encoder reads each row once, appending to every column at a time,
//! and its varints and base64 ([`dreamsim_model::pack`]) go straight
//! into the payload. Decoding is defensive: every read is bounds- and
//! range-checked and returns an error instead of panicking, because
//! checkpoint bytes come from disk; a needed or phantom area above
//! [`MAX_AREA`] is an error naming the task.
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
//! Task ids are elided entirely: the table is dense, so `id == index`.

use dreamsim_model::ids::MAX_AREA;
use dreamsim_model::pack::{get_varint, put_u64, put_varint};
use dreamsim_model::{ConfigId, PreferredConfig, Task, TaskId, TaskState};

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

/// Append `tasks` to `out` as the checkpoint's packed task table,
/// `{"count": n, "packed": "<base64>"}`, base64-encoding the columns
/// straight from their buffers.
///
/// The caller guarantees ids are dense (`task.id.index() == index`); the
/// table enforces that on `push`, so this only debug-asserts it.
pub fn write_tasks(out: &mut String, tasks: &[Task]) {
    let parts = task_columns(tasks);
    let parts: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
    dreamsim_model::pack::write_packed(out, tasks.len(), &parts);
}

/// The columnar byte stream in parts, in stream order: the
/// task count, column 1, the palette, then columns 2–13. One pass over
/// the rows appends each row to every column.
fn task_columns(tasks: &[Task]) -> Vec<Vec<u8>> {
    let n = tasks.len();
    let mut count = Vec::new();
    put_u64(&mut count, n as u64);
    let column = || Vec::with_capacity(n);
    let (mut required, mut preferred, mut needed, mut data) =
        (column(), column(), column(), column());
    let (mut create, mut start, mut completion) = (column(), column(), column());
    let (mut assigned, mut resolved, mut sus_retry) = (column(), column(), column());
    let (mut fault_retries, mut suspended_at, mut states) = (column(), column(), Vec::new());
    // The `preferred` palette: distinct keys in first-seen order, and
    // each key's index. Every closest-match task carries its own phantom
    // area, so the palette grows with the table. The index map is never
    // iterated, so its order cannot reach the bytes.
    let mut palette: Vec<(u8, u64)> = Vec::new();
    // lint: allow(r1) -- the palette's index map: lookups only, never iterated
    let mut palette_index = std::collections::HashMap::new();
    let config = |c: Option<ConfigId>| c.map_or(0, |id| u64::from(id.0) + 1);
    // Arrival order makes create_time (near-)nondecreasing, so zigzag
    // deltas against the previous task are tiny.
    let mut prev_create = 0u64;
    // The state column as RLE (code, run-length) pairs. In a finished
    // or late-stage run almost every task is Completed, so the column
    // collapses to a couple of bytes.
    let mut run: Option<(u128, u64)> = None;
    for (i, t) in tasks.iter().enumerate() {
        debug_assert_eq!(t.id.index(), i, "task ids must be dense");
        put_u64(&mut required, t.required_time);
        let key = preferred_key(t.preferred);
        let next = palette.len() as u64;
        let index = *palette_index.entry(key).or_insert_with(|| {
            palette.push(key);
            next
        });
        put_u64(&mut preferred, index);
        put_u64(&mut needed, t.needed_area);
        put_u64(&mut data, t.data_bytes);
        put_varint(
            &mut create,
            zigzag(i128::from(t.create_time) - i128::from(prev_create)),
        );
        prev_create = t.create_time;
        put_opt_time(&mut start, t.start_time, t.create_time);
        // Completion deltas against start (fall back to create) stay
        // small because completion = start + required_time for finished
        // tasks.
        put_opt_time(
            &mut completion,
            t.completion_time,
            t.start_time.unwrap_or(t.create_time),
        );
        put_u64(&mut assigned, config(t.assigned_config));
        put_u64(&mut resolved, config(t.resolved_config));
        put_u64(&mut sus_retry, t.sus_retry);
        put_u64(&mut fault_retries, u64::from(t.fault_retries));
        put_opt_time(&mut suspended_at, t.suspended_at, t.create_time);
        let code = state_code(t.state);
        run = match run {
            Some((c, len)) if c == code => Some((c, len + 1)),
            Some((c, len)) => {
                put_varint(&mut states, c);
                put_u64(&mut states, len);
                Some((code, 1))
            }
            None => Some((code, 1)),
        };
    }
    if let Some((c, len)) = run {
        put_varint(&mut states, c);
        put_u64(&mut states, len);
    }
    let mut keys = Vec::new();
    put_u64(&mut keys, palette.len() as u64);
    for &(tag, value) in &palette {
        put_u64(&mut keys, u64::from(tag));
        put_u64(&mut keys, value);
    }
    vec![
        count,
        required,
        keys,
        preferred,
        needed,
        data,
        create,
        start,
        completion,
        assigned,
        resolved,
        sus_retry,
        fault_retries,
        suspended_at,
        states,
    ]
}

/// Decode the byte stream whose base64 [`write_tasks`] writes.
///
/// Every read is checked; malformed input yields a descriptive error, not
/// a panic, because checkpoint payloads come from disk. The first column
/// creates the rows and every later column fills its field in place, so
/// the decode holds no column beside the rows.
pub fn decode_tasks(buf: &[u8]) -> Result<Vec<Task>, String> {
    let mut pos = 0usize;
    let count = get_varint(buf, &mut pos)?;
    let count = usize::try_from(count).map_err(|_| format!("task count {count} too large"))?;
    // Cap pre-allocation by what the buffer could plausibly hold (each
    // task costs at least one byte per column) so a corrupt count cannot
    // balloon memory before the first truncation error fires.
    let mut tasks: Vec<Task> = Vec::with_capacity(count.min(buf.len()));
    let mut next = |what: &str| get_varint(buf, &mut pos).map_err(|e| format!("{what}: {e}"));
    for i in 0..count {
        tasks.push(Task {
            id: TaskId::from_index(i),
            required_time: to_u64(next("required_time")?, "required_time")?,
            preferred: PreferredConfig::Known(ConfigId(0)),
            needed_area: 0,
            data_bytes: 0,
            create_time: 0,
            start_time: None,
            completion_time: None,
            assigned_config: None,
            resolved_config: None,
            sus_retry: 0,
            fault_retries: 0,
            suspended_at: None,
            state: TaskState::Created,
        });
    }

    let palette_len = next("palette")?;
    let palette_len =
        usize::try_from(palette_len).map_err(|_| format!("palette length {palette_len}"))?;
    let mut palette = Vec::with_capacity(palette_len.min(buf.len()));
    for _ in 0..palette_len {
        let tag = next("palette")?;
        let value = next("palette")?;
        palette.push(preferred_from_key(tag, value)?);
    }
    // A needed or phantom area past the ceiling could overflow the
    // engine's area sums; like a node's or a configuration's, it is a
    // decode error.
    let ceiling = |t: &Task, what: &str, area: u64| {
        if area > MAX_AREA {
            Err(format!(
                "{}: {what} {area} exceeds the ceiling of {MAX_AREA} area units",
                t.id
            ))
        } else {
            Ok(())
        }
    };
    for t in &mut tasks {
        let idx = next("preferred")?;
        let idx = usize::try_from(idx).map_err(|_| format!("palette index {idx}"))?;
        t.preferred = *palette
            .get(idx)
            .ok_or_else(|| format!("palette index {idx} out of range {palette_len}"))?;
        if let PreferredConfig::Phantom { area } = t.preferred {
            ceiling(t, "phantom area", area)?;
        }
    }
    for t in &mut tasks {
        t.needed_area = to_u64(next("needed_area")?, "needed_area")?;
        ceiling(t, "needed_area", t.needed_area)?;
    }
    for t in &mut tasks {
        t.data_bytes = to_u64(next("data_bytes")?, "data_bytes")?;
    }
    let mut prev_create = 0u64;
    for t in &mut tasks {
        prev_create = apply_delta(prev_create, next("create_time")?, "create_time")?;
        t.create_time = prev_create;
    }
    for t in &mut tasks {
        t.start_time = opt_time(next("start_time")?, t.create_time, "start_time")?;
    }
    for t in &mut tasks {
        let base = t.start_time.unwrap_or(t.create_time);
        t.completion_time = opt_time(next("completion_time")?, base, "completion_time")?;
    }
    for t in &mut tasks {
        t.assigned_config = opt_config(next("assigned_config")?, "assigned_config")?;
    }
    for t in &mut tasks {
        t.resolved_config = opt_config(next("resolved_config")?, "resolved_config")?;
    }
    for t in &mut tasks {
        t.sus_retry = to_u64(next("sus_retry")?, "sus_retry")?;
    }
    for t in &mut tasks {
        t.fault_retries = to_u32(next("fault_retries")?, "fault_retries")?;
    }
    for t in &mut tasks {
        t.suspended_at = opt_time(next("suspended_at")?, t.create_time, "suspended_at")?;
    }

    let mut filled = 0;
    while filled < count {
        let state = state_from_code(next("state")?)?;
        let run = next("state")?;
        let run = usize::try_from(run).map_err(|_| format!("state run length {run}"))?;
        if run == 0 || run > count - filled {
            return Err(format!(
                "state column: run of {run} at {filled} overflows count {count}"
            ));
        }
        for t in &mut tasks[filled..filled + run] {
            t.state = state;
        }
        filled += run;
    }

    if pos != buf.len() {
        return Err(format!(
            "trailing garbage: {} bytes after the state column",
            buf.len() - pos
        ));
    }
    Ok(tasks)
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
    use dreamsim_model::pack::{from_base64, to_base64};

    /// The columnar byte stream of `tasks`, unwrapped from its base64.
    fn encode_tasks(tasks: &[Task]) -> Vec<u8> {
        task_columns(tasks).concat()
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
        let back = decode_tasks(&bytes).expect("decode"); // INVARIANT: test asserts on decode success.
        assert_eq!(tasks, back);
    }

    #[test]
    fn round_trips_empty_table() {
        let bytes = encode_tasks(&[]);
        assert_eq!(decode_tasks(&bytes).unwrap(), Vec::<Task>::new()); // INVARIANT: test asserts on decode success.
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

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let tasks: Vec<Task> = (0..40).map(sample_task).collect();
        let bytes = encode_tasks(&tasks);
        for cut in [1usize, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_tasks(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_tasks(&extended).is_err(), "trailing byte");
    }
}
