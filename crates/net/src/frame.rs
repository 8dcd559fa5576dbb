//! Length-prefixed, checksummed JSON frames.
//!
//! One frame (protocol v2 and later) is a 4-byte big-endian payload length,
//! that many bytes of UTF-8 JSON (the hand-rolled
//! [`audit_measure::json`] codec — byte-deterministic, no external
//! dependencies), and a 4-byte big-endian CRC32 (IEEE) trailer over the
//! payload bytes. Reads distinguish four endings, mirroring the run
//! journal's torn-tail discipline
//! ([`audit_measure::traceio::TailOutcome`]): a complete frame, a clean
//! EOF at a frame boundary (the peer closed deliberately), a truncated
//! tail (the peer died mid-frame — the partial frame is evidence, not
//! data), and a corrupt frame (length and trailer arrived, but the
//! trailer disagrees with the payload — the bytes were damaged in
//! transit and the frame must be discarded, never acted on).
//!
//! Corruption detection is what makes the broker's re-dispatch defense
//! sound: a flipped bit in an `eval` or `result` frame surfaces as
//! [`FrameOutcome::Corrupt`], the receiver drops the frame, and the
//! broker's dispatch lease re-issues the work at `attempt + 1`.

use std::io::{Read, Write};

use audit_error::AuditError;
use audit_measure::json::JsonValue;

/// Upper bound on a frame payload, in bytes. Generously above any real
/// message (a generation of genomes is a few hundred KiB) while keeping
/// a corrupt or hostile length prefix from looking like a 4 GiB
/// allocation request.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// How a frame read ended.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameOutcome {
    /// A complete frame: the decoded payload.
    Frame(JsonValue),
    /// The stream ended cleanly on a frame boundary.
    Eof,
    /// The stream ended mid-frame (inside the length prefix, the
    /// payload, or the CRC trailer) — the peer was killed or the
    /// connection was cut.
    TruncatedTail,
    /// The frame arrived whole but its CRC32 trailer does not match the
    /// payload: the bytes were damaged in transit. The frame carries no
    /// usable data; the receiver should discard it and keep reading.
    Corrupt,
}

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`.
/// Hand-rolled bitwise form — the trailer guards kilobyte-scale frames,
/// where table lookups buy nothing measurable.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Writes one frame (length prefix + encoded payload + CRC32 trailer)
/// and flushes.
///
/// # Errors
///
/// Returns [`AuditError::Io`] on any socket write failure.
pub fn write_frame(w: &mut impl Write, payload: &JsonValue) -> Result<(), AuditError> {
    write_frame_raw(w, payload, None)
}

/// [`write_frame`], except one payload bit (`flip_bit`, modulo the
/// payload length) is flipped *after* the CRC trailer is computed — the
/// receiver sees a frame whose checksum fails. This is the chaos
/// plan's wire-corruption primitive (`chaos::FrameFate::Corrupt`);
/// nothing outside fault injection (here or in the dispatch pool) should
/// call it.
///
/// # Errors
///
/// Returns [`AuditError::Io`] on any socket write failure.
pub(crate) fn write_corrupted_frame(
    w: &mut impl Write,
    payload: &JsonValue,
    flip_bit: u64,
) -> Result<(), AuditError> {
    write_frame_raw(w, payload, Some(flip_bit))
}

fn write_frame_raw(
    w: &mut impl Write,
    payload: &JsonValue,
    flip_bit: Option<u64>,
) -> Result<(), AuditError> {
    let body = payload.encode();
    let io_err = |e: &std::io::Error| AuditError::io("socket", e);
    let len =
        u32::try_from(body.len()).map_err(|_| AuditError::invalid("frame", "len", "oversized"))?;
    let crc = crc32(body.as_bytes());
    let mut body = body.into_bytes();
    if let Some(bit) = flip_bit {
        if !body.is_empty() {
            let bit = bit % (body.len() as u64 * 8);
            body[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
    }
    w.write_all(&len.to_be_bytes()).map_err(|e| io_err(&e))?;
    w.write_all(&body).map_err(|e| io_err(&e))?;
    w.write_all(&crc.to_be_bytes()).map_err(|e| io_err(&e))?;
    w.flush().map_err(|e| io_err(&e))?;
    Ok(())
}

/// Reads one frame and verifies its CRC32 trailer.
///
/// # Errors
///
/// Returns [`AuditError::Io`] on a socket read failure, and
/// [`AuditError::Journal`] for an oversized length prefix, a non-UTF-8
/// payload, or payload bytes that checksum correctly yet do not parse
/// as JSON (a framing bug — unlike truncation or corruption, never a
/// normal ending). A checksum mismatch is *not* an error: it returns
/// [`FrameOutcome::Corrupt`] so the caller can drop the frame and keep
/// the stream alive.
pub fn read_frame(r: &mut impl Read) -> Result<FrameOutcome, AuditError> {
    let mut header = [0u8; 4];
    match read_exact_or_tail(r, &mut header)? {
        Tail::Complete => {}
        Tail::CleanEof => return Ok(FrameOutcome::Eof),
        Tail::Torn => return Ok(FrameOutcome::TruncatedTail),
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(AuditError::journal(
            0,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    match read_exact_or_tail(r, &mut body)? {
        Tail::Complete => {}
        // Any shortfall inside the payload is a torn frame, including
        // an EOF right after the prefix.
        Tail::CleanEof | Tail::Torn => return Ok(FrameOutcome::TruncatedTail),
    }
    let mut trailer = [0u8; 4];
    match read_exact_or_tail(r, &mut trailer)? {
        Tail::Complete => {}
        Tail::CleanEof | Tail::Torn => return Ok(FrameOutcome::TruncatedTail),
    }
    if u32::from_be_bytes(trailer) != crc32(&body) {
        return Ok(FrameOutcome::Corrupt);
    }
    let text = String::from_utf8(body)
        .map_err(|_| AuditError::journal(0, "frame payload is not UTF-8"))?;
    let value = JsonValue::parse(&text)
        .map_err(|e| AuditError::journal(0, format!("frame payload: {e}")))?;
    Ok(FrameOutcome::Frame(value))
}

enum Tail {
    Complete,
    CleanEof,
    Torn,
}

/// `read_exact`, except an EOF before the first byte is reported as
/// [`Tail::CleanEof`] and an EOF after a partial read as [`Tail::Torn`]
/// instead of an error.
fn read_exact_or_tail(r: &mut impl Read, buf: &mut [u8]) -> Result<Tail, AuditError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Tail::CleanEof
                } else {
                    Tail::Torn
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // A reset/aborted connection mid-frame is the network form
            // of a torn tail.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::BrokenPipe
                ) =>
            {
                return Ok(if filled == 0 {
                    Tail::CleanEof
                } else {
                    Tail::Torn
                });
            }
            Err(e) => return Err(AuditError::io("socket", &e)),
        }
    }
    Ok(Tail::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> JsonValue {
        JsonValue::object(vec![
            ("kind", JsonValue::String("eval".into())),
            ("id", JsonValue::from_u64(7)),
            ("x", JsonValue::from_f64(-0.031)),
        ])
    }

    fn encode_to_bytes(v: &JsonValue) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, v).unwrap();
        buf
    }

    #[test]
    fn frame_round_trips() {
        let bytes = encode_to_bytes(&sample());
        let mut cur = Cursor::new(bytes);
        assert_eq!(read_frame(&mut cur).unwrap(), FrameOutcome::Frame(sample()));
        assert_eq!(read_frame(&mut cur).unwrap(), FrameOutcome::Eof);
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The classic IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_truncation_point_is_a_torn_tail_not_an_error() {
        let bytes = encode_to_bytes(&sample());
        // Cut the stream after every prefix of a valid frame — inside
        // the length, the payload, and the CRC trailer: byte 0 is a
        // clean EOF, every other cut is a torn tail.
        for cut in 1..bytes.len() {
            let mut cur = Cursor::new(bytes[..cut].to_vec());
            assert_eq!(
                read_frame(&mut cur).unwrap(),
                FrameOutcome::TruncatedTail,
                "cut at {cut}"
            );
        }
        let mut empty = Cursor::new(Vec::new());
        assert_eq!(read_frame(&mut empty).unwrap(), FrameOutcome::Eof);
    }

    #[test]
    fn every_single_bit_flip_is_caught_as_corrupt() {
        let clean = encode_to_bytes(&sample());
        let payload_len = clean.len() - 8; // minus length prefix + trailer
        for byte in 0..payload_len {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[4 + byte] ^= 1 << bit;
                let mut cur = Cursor::new(bytes);
                assert_eq!(
                    read_frame(&mut cur).unwrap(),
                    FrameOutcome::Corrupt,
                    "flip at byte {byte} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn a_damaged_trailer_is_corrupt_too() {
        let mut bytes = encode_to_bytes(&sample());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let mut cur = Cursor::new(bytes);
        assert_eq!(read_frame(&mut cur).unwrap(), FrameOutcome::Corrupt);
    }

    #[test]
    fn write_corrupted_frame_fails_checksum_by_construction() {
        for flip in [0u64, 1, 13, 1_000_003] {
            let mut buf = Vec::new();
            write_corrupted_frame(&mut buf, &sample(), flip).unwrap();
            let mut cur = Cursor::new(buf);
            assert_eq!(read_frame(&mut cur).unwrap(), FrameOutcome::Corrupt);
        }
    }

    #[test]
    fn corruption_does_not_poison_the_stream() {
        // A corrupt frame followed by a clean one: the reader reports
        // Corrupt, then decodes the next frame normally.
        let mut buf = Vec::new();
        write_corrupted_frame(&mut buf, &sample(), 9).unwrap();
        buf.extend_from_slice(&encode_to_bytes(&sample()));
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap(), FrameOutcome::Corrupt);
        assert_eq!(read_frame(&mut cur).unwrap(), FrameOutcome::Frame(sample()));
        assert_eq!(read_frame(&mut cur).unwrap(), FrameOutcome::Eof);
    }

    #[test]
    fn garbage_payload_with_a_valid_crc_is_an_error_not_a_tail() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&5u32.to_be_bytes());
        bytes.extend_from_slice(b"nope!");
        bytes.extend_from_slice(&crc32(b"nope!").to_be_bytes());
        let mut cur = Cursor::new(bytes);
        assert!(read_frame(&mut cur).is_err());
    }

    #[test]
    fn garbage_payload_with_a_bad_crc_is_corrupt() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&5u32.to_be_bytes());
        bytes.extend_from_slice(b"nope!");
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
        let mut cur = Cursor::new(bytes);
        assert_eq!(read_frame(&mut cur).unwrap(), FrameOutcome::Corrupt);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let mut cur = Cursor::new(bytes);
        assert!(read_frame(&mut cur).is_err());
    }
}
