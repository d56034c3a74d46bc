//! LEB128 variable-length integers and zigzag signed mapping.
//!
//! The chunk codec stores almost everything as varints: small deltas
//! (the common case after per-region delta encoding) cost one byte, and
//! the occasional large jump degrades gracefully to at most ten.

use crate::file::TraceFileError;
use std::io::Read;

/// Appends `value` to `out` as an unsigned LEB128 varint.
pub(crate) fn put_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `value` zigzag-mapped (so small magnitudes of either sign stay
/// short) as an unsigned varint.
pub(crate) fn put_i64(out: &mut Vec<u8>, value: i64) {
    put_u64(out, zigzag(value));
}

/// Maps a signed value to the zigzag unsigned encoding.
pub(crate) fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Decodes an unsigned varint from a byte slice, advancing `pos`.
///
/// Returns `None` on truncation or a varint longer than ten bytes (which
/// can never encode a `u64`).
pub(crate) fn get_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// Decodes a zigzag-mapped signed varint from a byte slice.
pub(crate) fn get_i64(buf: &[u8], pos: &mut usize) -> Option<i64> {
    get_u64(buf, pos).map(unzigzag)
}

/// Reads an unsigned varint from a stream (used for container framing,
/// outside chunk payloads).
///
/// # Errors
///
/// [`TraceFileError::Io`] on read failure; the caller maps EOF to a
/// context-appropriate `Truncated` variant. [`TraceFileError::Corrupt`]
/// on an over-long varint.
pub(crate) fn read_u64<R: Read>(reader: &mut R) -> Result<u64, TraceFileError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(TraceFileError::Corrupt {
                what: "over-long varint",
            });
        }
        value |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_interesting_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_u64(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
            let mut r = &buf[..];
            assert_eq!(read_u64(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_round_trips_signed_values() {
        for v in [0i64, 1, -1, 63, -64, 64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
            let mut buf = Vec::new();
            put_i64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_i64(&buf, &mut pos), Some(v));
        }
    }

    #[test]
    fn small_magnitudes_are_one_byte() {
        for v in [-64i64, -1, 0, 1, 63] {
            let mut buf = Vec::new();
            put_i64(&mut buf, v);
            assert_eq!(buf.len(), 1, "value {v} should fit in one byte");
        }
    }

    #[test]
    fn truncated_varint_is_detected() {
        let buf = [0x80u8, 0x80];
        let mut pos = 0;
        assert_eq!(get_u64(&buf, &mut pos), None);
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(get_u64(&buf, &mut pos), None);
        let mut r = &buf[..];
        assert!(read_u64(&mut r).is_err());
    }
}
