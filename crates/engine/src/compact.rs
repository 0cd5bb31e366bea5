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
//! (`FORMAT_VERSION` 2, the only version read or written, carries this
//! form). Decoding is defensive: every read is
//! bounds- and range-checked and returns an error instead of panicking,
//! because checkpoint bytes come from disk.
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

use dreamsim_model::{ConfigId, PreferredConfig, Task, TaskId, TaskState};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// varints
// ---------------------------------------------------------------------------

/// Append `v` as an LEB128 varint (7 payload bits per byte, little-endian).
fn put_varint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        // BOUND: masked to the low 7 bits before the cast.
        let mut byte = (v & 0x7f) as u8;
        v >>= 7;
        if v != 0 {
            byte |= 0x80;
        }
        out.push(byte);
        if v == 0 {
            return;
        }
    }
}

/// Read one LEB128 varint from `buf` starting at `*pos`.
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u128, String> {
    let mut v: u128 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| format!("varint truncated at byte {}", *pos))?;
        *pos += 1;
        if shift >= 128 || (shift == 126 && (byte & 0x7f) > 0x03) {
            return Err(format!("varint overflow at byte {}", *pos - 1));
        }
        v |= u128::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

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

/// Decode the counterpart of [`put_opt_time`].
fn get_opt_time(buf: &[u8], pos: &mut usize, base: u64, what: &str) -> Result<Option<u64>, String> {
    let raw = get_varint(buf, pos)?;
    if raw == 0 {
        return Ok(None);
    }
    apply_delta(base, raw - 1, what).map(Some)
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
fn preferred_key(p: PreferredConfig) -> (u128, u128) {
    match p {
        PreferredConfig::Known(id) => (0, u128::from(id.0)),
        PreferredConfig::Phantom { area } => (1, u128::from(area)),
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

/// Encode a dense task table into the columnar byte stream.
///
/// The caller guarantees ids are dense (`task.id.index() == index`); the
/// table enforces that on `push`, so this only debug-asserts it.
#[must_use]
pub fn encode_tasks(tasks: &[Task]) -> Vec<u8> {
    let mut out = Vec::with_capacity(tasks.len() * 8 + 16);
    put_varint(&mut out, tasks.len() as u128);

    for t in tasks {
        put_varint(&mut out, u128::from(t.required_time));
    }

    // Preferred-config palette: the distinct values (first-seen order),
    // then one palette index per task. Known configurations come from a
    // small list, but every closest-match task carries its own phantom
    // area, so the palette grows with the table; the ordered index keeps
    // the lookup logarithmic rather than a scan of the palette per task.
    let mut palette: Vec<(u128, u128)> = Vec::new();
    let mut palette_index: BTreeMap<(u128, u128), usize> = BTreeMap::new();
    let mut indices: Vec<usize> = Vec::with_capacity(tasks.len());
    for t in tasks {
        let key = preferred_key(t.preferred);
        let idx = *palette_index.entry(key).or_insert_with(|| {
            palette.push(key);
            palette.len() - 1
        });
        indices.push(idx);
    }
    put_varint(&mut out, palette.len() as u128);
    for (tag, value) in &palette {
        put_varint(&mut out, *tag);
        put_varint(&mut out, *value);
    }
    for idx in indices {
        put_varint(&mut out, idx as u128);
    }

    for t in tasks {
        put_varint(&mut out, u128::from(t.needed_area));
    }
    for t in tasks {
        put_varint(&mut out, u128::from(t.data_bytes));
    }

    // Arrival order makes create_time (near-)nondecreasing, so zigzag
    // deltas against the previous task are tiny.
    let mut prev_create = 0u64;
    for t in tasks {
        put_varint(
            &mut out,
            zigzag(i128::from(t.create_time) - i128::from(prev_create)),
        );
        prev_create = t.create_time;
    }

    for t in tasks {
        put_opt_time(&mut out, t.start_time, t.create_time);
    }
    for t in tasks {
        // Completion deltas against start (fall back to create) stay small
        // because completion = start + required_time for finished tasks.
        put_opt_time(
            &mut out,
            t.completion_time,
            t.start_time.unwrap_or(t.create_time),
        );
    }

    for t in tasks {
        match t.assigned_config {
            None => put_varint(&mut out, 0),
            Some(id) => put_varint(&mut out, 1 + u128::from(id.0)),
        }
    }
    for t in tasks {
        match t.resolved_config {
            None => put_varint(&mut out, 0),
            Some(id) => put_varint(&mut out, 1 + u128::from(id.0)),
        }
    }

    for t in tasks {
        put_varint(&mut out, u128::from(t.sus_retry));
    }
    for t in tasks {
        put_varint(&mut out, u128::from(t.fault_retries));
    }
    for t in tasks {
        put_opt_time(&mut out, t.suspended_at, t.create_time);
    }

    // State column as RLE (code, run-length) pairs. In a finished or
    // late-stage run almost every task is Completed, so the entire column
    // collapses to a couple of bytes — the "zero-run elision" that makes
    // million-task checkpoints cheap.
    let mut i = 0;
    while i < tasks.len() {
        let code = state_code(tasks[i].state);
        let mut run = 1usize;
        while i + run < tasks.len() && state_code(tasks[i + run].state) == code {
            run += 1;
        }
        put_varint(&mut out, code);
        put_varint(&mut out, run as u128);
        i += run;
    }

    out
}

/// Decode the byte stream produced by [`encode_tasks`].
///
/// Every read is checked; malformed input yields a descriptive error, not
/// a panic, because checkpoint payloads come from disk.
pub fn decode_tasks(buf: &[u8]) -> Result<Vec<Task>, String> {
    let mut pos = 0usize;
    let count = get_varint(buf, &mut pos)?;
    let count = usize::try_from(count).map_err(|_| format!("task count {count} too large"))?;
    // Cap pre-allocation by what the buffer could plausibly hold (each
    // task costs at least one byte per column) so a corrupt count cannot
    // balloon memory before the first truncation error fires.
    let mut tasks: Vec<Task> = Vec::with_capacity(count.min(buf.len()));

    let mut required = Vec::with_capacity(count.min(buf.len()));
    for _ in 0..count {
        required.push(to_u64(get_varint(buf, &mut pos)?, "required_time")?);
    }

    let palette_len = get_varint(buf, &mut pos)?;
    let palette_len =
        usize::try_from(palette_len).map_err(|_| format!("palette length {palette_len}"))?;
    let mut palette = Vec::with_capacity(palette_len.min(buf.len()));
    for _ in 0..palette_len {
        let tag = get_varint(buf, &mut pos)?;
        let value = get_varint(buf, &mut pos)?;
        palette.push(preferred_from_key(tag, value)?);
    }
    let mut preferred = Vec::with_capacity(count.min(buf.len()));
    for _ in 0..count {
        let idx = get_varint(buf, &mut pos)?;
        let idx = usize::try_from(idx).map_err(|_| format!("palette index {idx}"))?;
        preferred.push(
            *palette
                .get(idx)
                .ok_or_else(|| format!("palette index {idx} out of range {palette_len}"))?,
        );
    }

    let mut needed_area = Vec::with_capacity(count.min(buf.len()));
    for _ in 0..count {
        needed_area.push(to_u64(get_varint(buf, &mut pos)?, "needed_area")?);
    }
    let mut data_bytes = Vec::with_capacity(count.min(buf.len()));
    for _ in 0..count {
        data_bytes.push(to_u64(get_varint(buf, &mut pos)?, "data_bytes")?);
    }

    let mut create = Vec::with_capacity(count.min(buf.len()));
    let mut prev_create = 0u64;
    for _ in 0..count {
        let delta = get_varint(buf, &mut pos)?;
        prev_create = apply_delta(prev_create, delta, "create_time")?;
        create.push(prev_create);
    }

    let mut start = Vec::with_capacity(count.min(buf.len()));
    for &c in create.iter().take(count) {
        start.push(get_opt_time(buf, &mut pos, c, "start_time")?);
    }
    let mut completion = Vec::with_capacity(count.min(buf.len()));
    for i in 0..count {
        let base = start[i].unwrap_or(create[i]);
        completion.push(get_opt_time(buf, &mut pos, base, "completion_time")?);
    }

    let mut assigned = Vec::with_capacity(count.min(buf.len()));
    for _ in 0..count {
        let raw = get_varint(buf, &mut pos)?;
        assigned.push(if raw == 0 {
            None
        } else {
            Some(ConfigId(to_u32(raw - 1, "assigned_config")?))
        });
    }
    let mut resolved = Vec::with_capacity(count.min(buf.len()));
    for _ in 0..count {
        let raw = get_varint(buf, &mut pos)?;
        resolved.push(if raw == 0 {
            None
        } else {
            Some(ConfigId(to_u32(raw - 1, "resolved_config")?))
        });
    }

    let mut sus_retry = Vec::with_capacity(count.min(buf.len()));
    for _ in 0..count {
        sus_retry.push(to_u64(get_varint(buf, &mut pos)?, "sus_retry")?);
    }
    let mut fault_retries = Vec::with_capacity(count.min(buf.len()));
    for _ in 0..count {
        fault_retries.push(to_u32(get_varint(buf, &mut pos)?, "fault_retries")?);
    }
    let mut suspended_at = Vec::with_capacity(count.min(buf.len()));
    for &c in create.iter().take(count) {
        suspended_at.push(get_opt_time(buf, &mut pos, c, "suspended_at")?);
    }

    let mut states = Vec::with_capacity(count.min(buf.len()));
    while states.len() < count {
        let code = get_varint(buf, &mut pos)?;
        let state = state_from_code(code)?;
        let run = get_varint(buf, &mut pos)?;
        let run = usize::try_from(run).map_err(|_| format!("state run length {run}"))?;
        if run == 0 || states.len() + run > count {
            return Err(format!(
                "state column: run of {run} at {} overflows count {count}",
                states.len()
            ));
        }
        states.extend(std::iter::repeat_n(state, run));
    }

    if pos != buf.len() {
        return Err(format!(
            "trailing garbage: {} bytes after the state column",
            buf.len() - pos
        ));
    }

    for i in 0..count {
        tasks.push(Task {
            id: TaskId::from_index(i),
            required_time: required[i],
            preferred: preferred[i],
            needed_area: needed_area[i],
            data_bytes: data_bytes[i],
            create_time: create[i],
            start_time: start[i],
            completion_time: completion[i],
            assigned_config: assigned[i],
            resolved_config: resolved[i],
            sus_retry: sus_retry[i],
            fault_retries: fault_retries[i],
            suspended_at: suspended_at[i],
            state: states[i],
        });
    }
    Ok(tasks)
}

// ---------------------------------------------------------------------------
// base64
// ---------------------------------------------------------------------------

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 with `=` padding (RFC 4648), hand-rolled because the
/// build is offline and the payload must live inside a JSON string.
#[must_use]
pub fn to_base64(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = u32::from(chunk[0]);
        let b1 = chunk.get(1).copied().map_or(0, u32::from);
        let b2 = chunk.get(2).copied().map_or(0, u32::from);
        let triple = (b0 << 16) | (b1 << 8) | b2;
        // BOUND: each index is a 6-bit slice of the triple.
        out.push(B64_ALPHABET[(triple >> 18) as usize & 0x3f] as char);
        // BOUND: masked to 6 bits.
        out.push(B64_ALPHABET[(triple >> 12) as usize & 0x3f] as char);
        if chunk.len() > 1 {
            // BOUND: masked to 6 bits.
            out.push(B64_ALPHABET[(triple >> 6) as usize & 0x3f] as char);
        } else {
            out.push('=');
        }
        if chunk.len() > 2 {
            // BOUND: masked to 6 bits.
            out.push(B64_ALPHABET[triple as usize & 0x3f] as char);
        } else {
            out.push('=');
        }
    }
    out
}

/// Decode the output of [`to_base64`]; rejects anything malformed.
pub fn from_base64(s: &str) -> Result<Vec<u8>, String> {
    fn value_of(c: u8) -> Result<u32, String> {
        match c {
            b'A'..=b'Z' => Ok(u32::from(c - b'A')),
            b'a'..=b'z' => Ok(u32::from(c - b'a') + 26),
            b'0'..=b'9' => Ok(u32::from(c - b'0') + 52),
            b'+' => Ok(62),
            b'/' => Ok(63),
            other => Err(format!("base64: invalid byte 0x{other:02x}")),
        }
    }

    let raw = s.as_bytes();
    if !raw.len().is_multiple_of(4) {
        return Err(format!("base64: length {} not a multiple of 4", raw.len()));
    }
    let mut out = Vec::with_capacity(raw.len() / 4 * 3);
    for (i, chunk) in raw.chunks(4).enumerate() {
        let last = i == raw.len() / 4 - 1;
        let pad = chunk.iter().filter(|&&c| c == b'=').count();
        if pad > 0 && (!last || pad > 2 || chunk[..4 - pad].contains(&b'=')) {
            return Err("base64: misplaced padding".to_string());
        }
        let mut triple = 0u32;
        for &c in &chunk[..4 - pad] {
            triple = (triple << 6) | value_of(c)?;
        }
        // BOUND: pad <= 2, far below u32.
        triple <<= 6 * pad as u32;
        // BOUND: each push takes one byte slice of the 24-bit triple.
        out.push((triple >> 16) as u8);
        if pad < 2 {
            // BOUND: one byte slice of the 24-bit triple.
            out.push((triple >> 8) as u8);
        }
        if pad < 1 {
            // BOUND: one byte slice of the 24-bit triple.
            out.push(triple as u8);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
