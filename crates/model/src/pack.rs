//! Byte packing for the checkpoint's columnar tables: LEB128 varints,
//! RFC 4648 base64, and the `{"count": n, "packed": "<base64>"}` object
//! a packed table travels in inside the JSON payload.
//!
//! The node table ([`crate::store::ResourceManager`]'s checkpoint form)
//! and the engine's task table both write their columns as varints into
//! a byte buffer, then base64 the buffer straight into the payload.
//! Decoding is defensive: every read is bounds- and range-checked and
//! returns an error instead of panicking, because checkpoint bytes come
//! from disk.

/// Append `v` as an LEB128 varint (7 payload bits per byte,
/// little-endian).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, v: u128) {
    match u64::try_from(v) {
        Ok(small) => put_u64(out, small),
        Err(_) => {
            // BOUND: masked to the low 7 bits before the cast.
            out.push((v & 0x7f) as u8 | 0x80);
            put_varint(out, v >> 7);
        }
    }
}

/// [`put_varint`] for a value that fits 64 bits, the common case.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        // BOUND: masked to the low 7 bits before the cast.
        out.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    // BOUND: v < 0x80 here.
    out.push(v as u8);
}

/// Read one LEB128 varint from `buf` starting at `*pos`, advancing past
/// it. A varint that runs past the end of `buf` or past 128 bits is an
/// error.
#[inline]
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u128, String> {
    if let Some(&byte) = buf.get(*pos) {
        if byte < 0x80 {
            *pos += 1;
            return Ok(u128::from(byte));
        }
    }
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

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside the base64 alphabet in [`B64_DECODE`].
const INVALID: u8 = 0xff;

/// The value of every byte in the base64 alphabet, [`INVALID`] for every
/// other byte (`=` included: padding is handled by position).
const B64_DECODE: [u8; 256] = {
    let mut t = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        // BOUND: i < 64, so both the index and the value fit a byte.
        t[B64_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    t
};

/// Append the base64 encoding (RFC 4648, `=` padded) of the
/// concatenation of `parts` to `out`, without first joining them.
pub fn push_base64(out: &mut String, parts: &[&[u8]]) {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    out.reserve(total.div_ceil(3) * 4);
    let mut enc = Base64Out {
        buf: [0; 1024],
        len: 0,
        carry: [0; 3],
        held: 0,
    };
    for part in parts {
        enc.feed(out, part);
    }
    enc.finish(out);
}

/// The state of [`push_base64`]: encoded text waits in a small buffer,
/// so it reaches the output one `push_str` per kilobyte rather than one
/// `push` per character, and up to two input bytes wait for the next
/// part to complete their 3-byte group.
struct Base64Out {
    buf: [u8; 1024],
    len: usize,
    carry: [u8; 3],
    held: usize,
}

impl Base64Out {
    /// Encode one 3-byte group of which the first `n` bytes are input.
    fn group(&mut self, out: &mut String, g: [u8; 3], n: usize) {
        if self.len + 4 > self.buf.len() {
            self.flush(out);
        }
        let triple = u32::from(g[0]) << 16 | u32::from(g[1]) << 8 | u32::from(g[2]);
        let sextet = |k: u32| {
            // BOUND: a 6-bit slice of the 24-bit triple.
            B64_ALPHABET[(triple >> (18 - 6 * k)) as usize & 0x3f]
        };
        self.buf[self.len..self.len + 4].copy_from_slice(&[
            sextet(0),
            sextet(1),
            if n > 1 { sextet(2) } else { b'=' },
            if n > 2 { sextet(3) } else { b'=' },
        ]);
        self.len += 4;
    }

    fn flush(&mut self, out: &mut String) {
        // INVARIANT: every byte written to `buf` is from the ASCII
        // alphabet or `=`.
        out.push_str(std::str::from_utf8(&self.buf[..self.len]).expect("base64 is ASCII"));
        self.len = 0;
    }

    fn feed(&mut self, out: &mut String, mut bytes: &[u8]) {
        while (1..3).contains(&self.held) && !bytes.is_empty() {
            self.carry[self.held] = bytes[0];
            self.held += 1;
            bytes = &bytes[1..];
        }
        if self.held == 3 {
            self.group(out, self.carry, 3);
            self.held = 0;
        }
        if self.held > 0 {
            return;
        }
        let mut groups = bytes.chunks_exact(3);
        for g in &mut groups {
            self.group(out, [g[0], g[1], g[2]], 3);
        }
        let tail = groups.remainder();
        self.carry[..tail.len()].copy_from_slice(tail);
        self.held = tail.len();
    }

    fn finish(mut self, out: &mut String) {
        if self.held > 0 {
            self.carry[self.held..].fill(0);
            self.group(out, self.carry, self.held);
        }
        self.flush(out);
    }
}

/// Standard base64 with `=` padding (RFC 4648) of `bytes`.
#[must_use]
pub fn to_base64(bytes: &[u8]) -> String {
    let mut out = String::new();
    push_base64(&mut out, &[bytes]);
    out
}

/// Decode standard base64 with `=` padding. A length that is not a
/// multiple of 4, a byte outside the alphabet, and padding anywhere but
/// the last one or two bytes are errors.
pub fn from_base64(s: &str) -> Result<Vec<u8>, String> {
    let raw = s.as_bytes();
    if !raw.len().is_multiple_of(4) {
        return Err(format!("base64: length {} not a multiple of 4", raw.len()));
    }
    let mut out = Vec::with_capacity(raw.len() / 4 * 3);
    if raw.is_empty() {
        return Ok(out);
    }
    let (body, last) = raw.split_at(raw.len() - 4);
    for chunk in body.chunks_exact(4) {
        let v = chunk.iter().map(|&c| B64_DECODE[usize::from(c)]);
        let mut triple = 0u32;
        let mut bad = false;
        for x in v {
            bad |= x == INVALID;
            triple = triple << 6 | u32::from(x & 0x3f);
        }
        if bad {
            return Err(bad_chunk(chunk));
        }
        out.extend_from_slice(&triple.to_be_bytes()[1..]);
    }
    // Padding: at most two `=`, at the end of the last chunk only.
    let pad = match last {
        [_, _, b'=', b'='] => 2,
        [_, _, _, b'='] => 1,
        _ => 0,
    };
    let mut triple = 0u32;
    for &c in &last[..4 - pad] {
        let x = B64_DECODE[usize::from(c)];
        if x == INVALID {
            return Err(bad_chunk(last));
        }
        triple = triple << 6 | u32::from(x);
    }
    // BOUND: pad <= 2.
    triple <<= 6 * pad as u32;
    out.extend_from_slice(&triple.to_be_bytes()[1..4 - pad]);
    Ok(out)
}

/// The error for a chunk holding a byte outside the alphabet: padding
/// out of place, or a byte that is no base64 at all.
fn bad_chunk(chunk: &[u8]) -> String {
    match chunk
        .iter()
        .find(|&&c| B64_DECODE[usize::from(c)] == INVALID)
    {
        Some(b'=') => "base64: misplaced padding".to_string(),
        Some(c) => format!("base64: invalid byte 0x{c:02x}"),
        None => "base64: invalid chunk".to_string(),
    }
}

/// Append a packed table, `{"count":<count>,"packed":"<base64>"}`, whose
/// bytes are the concatenation of `parts`.
pub fn write_packed(out: &mut String, count: usize, parts: &[&[u8]]) {
    out.push_str("{\"count\":");
    serde::Serialize::write_json(&count, out);
    out.push_str(",\"packed\":\"");
    push_base64(out, parts);
    out.push_str("\"}");
}

/// Read a packed table written by [`write_packed`]: its `count` and its
/// decoded bytes. `count` must be an integer and `packed` a base64
/// string; `what` names the table in errors. The caller checks `count`
/// against what the bytes decode to.
pub fn read_packed(r: &mut serde::Reader<'_>, what: &str) -> Result<(u64, Vec<u8>), serde::Error> {
    let err = |msg: String| serde::Error::custom(format!("{what}: {msg}"));
    let (mut count, mut bytes) = (None, None);
    let mut map = r
        .map()
        .map_err(|_| err("expected a packed table".to_string()))?;
    while let Some(key) = map.next_key(r)? {
        match &*key {
            "count" if count.is_none() => {
                count = Some(r.u64().map_err(|e| err(format!("count: {e}")))?);
            }
            "packed" if bytes.is_none() => {
                if r.kind() != Some("string") {
                    return Err(err("packed must be a string".to_string()));
                }
                // Base64 needs no escapes, so this borrows the payload.
                bytes = Some(from_base64(&r.str()?).map_err(err)?);
            }
            _ => r.skip_value()?,
        }
    }
    let count = count.ok_or_else(|| err("missing field count".to_string()))?;
    let bytes = bytes.ok_or_else(|| err("expected a packed field".to_string()))?;
    Ok((count, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_across_widths() {
        let values = [0u128, 1, 0x7f, 0x80, 300, u128::from(u64::MAX), u128::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), Ok(v));
        }
        assert_eq!(pos, buf.len());
        assert!(get_varint(&buf, &mut pos).is_err(), "past the end");
        let mut pos = 0;
        assert!(get_varint(&[0xff; 20], &mut pos).is_err(), "past 128 bits");
    }

    #[test]
    fn streamed_base64_matches_the_joined_bytes() {
        let bytes: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37)).collect();
        for cut in 0..bytes.len() {
            for cut2 in cut..bytes.len() {
                let mut out = String::from("x");
                push_base64(
                    &mut out,
                    &[&bytes[..cut], &bytes[cut..cut2], &bytes[cut2..]],
                );
                assert_eq!(out[1..], to_base64(&bytes), "cuts {cut} {cut2}");
            }
        }
        let big: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(from_base64(&to_base64(&big)).unwrap(), big);
    }
}
