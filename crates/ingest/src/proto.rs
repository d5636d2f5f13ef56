//! The ingest session protocol: hello and control records.
//!
//! A session opens with exactly one client **hello** — magic, record
//! type, protocol version, patient id, and the lane set with per-lane
//! resume positions — and the server answers every admission decision
//! with a fixed-size **control** record carrying a typed code, a
//! `Retry-After` hint, and a count whose meaning depends on the code
//! (accepted lanes, frames ingested at goodbye). Both records end in the
//! same CRC-16/CCITT-FALSE the data frames use ([`cs_core::crc16`]), so
//! one checksum implementation covers the whole wire.
//!
//! Wire layouts (all multi-byte integers little-endian):
//!
//! ```text
//! hello:   C5 1D ver patient:u32 lane_count:u8 (lane:u8 resume:u32)* crc:u16
//! control: C5 1E ver code:u8 retry_after_s:u16 count:u32 crc:u16
//! ```
//!
//! Parsing is incremental-friendly: [`hello_len`] names the full record
//! length as soon as the fixed prefix has arrived, so a reader can wait
//! for exactly the right number of bytes under its handshake deadline.
//! [`encode_control`] writes into a caller-provided fixed array — the
//! steady-state server path never allocates to say goodbye.

use cs_core::{crc16, FRAME_MAGIC};

/// Record-type byte for the client hello.
pub const HELLO_TYPE: u8 = 0x1D;
/// Record-type byte for a server control record.
pub const CONTROL_TYPE: u8 = 0x1E;
/// Ingest protocol version (independent of the frame format version).
pub const INGEST_VERSION: u8 = 0x01;
/// Hello bytes before the lane list: magic, type, version, patient, count.
pub const HELLO_FIXED_BYTES: usize = 8;
/// Bytes per lane entry: lane id + resume-from sequence.
pub const HELLO_LANE_BYTES: usize = 5;
/// Most lanes one session may declare (a 12-lead ECG is the clinical max).
pub const MAX_HELLO_LANES: usize = 12;
/// Exact size of a control record.
pub const CONTROL_BYTES: usize = 12;

/// Largest possible hello record; a handshake buffer of this size fits
/// any valid hello.
pub const MAX_HELLO_BYTES: usize = HELLO_FIXED_BYTES + MAX_HELLO_LANES * HELLO_LANE_BYTES + 2;

/// One lane declaration in a hello.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneResume {
    /// ECG lead tag, as carried in frame headers.
    pub lane: u8,
    /// First sequence number the client will (re)send on this lane. The
    /// server does not seek: resume means the client replays its unacked
    /// tail and the engine's reassembler drops what it already emitted.
    pub resume_from: u32,
}

/// A parsed client hello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Patient identity; the server maps it to a dense fleet slot, and a
    /// reconnect under the same id lands on the same slot (that mapping
    /// is what makes resume dedup work).
    pub patient: u32,
    /// Declared lanes, at least one, no duplicates.
    pub lanes: Vec<LaneResume>,
}

/// Typed admission verdicts and session endings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlCode {
    /// Session admitted; `count` echoes the accepted lane count.
    Accept = 1,
    /// Admission refused under load; retry after the carried hint.
    Shed = 2,
    /// The hello was malformed; the client must not blind-retry.
    BadHandshake = 3,
    /// The server is draining: finish sends, close, reconnect later.
    Draining = 4,
    /// Final accounting at session end; `count` is frames ingested.
    Goodbye = 5,
    /// The server evicted the session (idle timeout or read-rate floor).
    Evicted = 6,
}

impl ControlCode {
    fn from_byte(b: u8) -> Option<ControlCode> {
        Some(match b {
            1 => ControlCode::Accept,
            2 => ControlCode::Shed,
            3 => ControlCode::BadHandshake,
            4 => ControlCode::Draining,
            5 => ControlCode::Goodbye,
            6 => ControlCode::Evicted,
            _ => return None,
        })
    }
}

/// A parsed server control record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Control {
    /// What the server decided.
    pub code: ControlCode,
    /// Reconnect hint in seconds (meaningful for `Shed` and `Draining`).
    pub retry_after_secs: u16,
    /// Code-dependent count (lanes accepted, frames ingested, …).
    pub count: u32,
}

/// Why a hello or control record failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Not enough bytes yet (incremental readers keep reading).
    Truncated,
    /// First byte was not [`FRAME_MAGIC`].
    BadMagic(u8),
    /// Second byte named a record type this parser does not speak.
    BadType(u8),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Checksum mismatch.
    BadCrc,
    /// Zero lanes, more than [`MAX_HELLO_LANES`], or a duplicate lane id.
    BadLaneSet,
    /// Unknown control code byte.
    BadCode(u8),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "record truncated"),
            ProtoError::BadMagic(b) => write!(f, "bad magic 0x{b:02X}"),
            ProtoError::BadType(b) => write!(f, "unexpected record type 0x{b:02X}"),
            ProtoError::BadVersion(b) => write!(f, "unsupported ingest protocol version {b}"),
            ProtoError::BadCrc => write!(f, "CRC mismatch"),
            ProtoError::BadLaneSet => write!(f, "lane set empty, oversized, or duplicated"),
            ProtoError::BadCode(b) => write!(f, "unknown control code 0x{b:02X}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Full hello length once the fixed prefix is visible; `None` while
/// fewer than [`HELLO_FIXED_BYTES`] bytes have arrived.
pub fn hello_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < HELLO_FIXED_BYTES {
        return None;
    }
    Some(HELLO_FIXED_BYTES + buf[7] as usize * HELLO_LANE_BYTES + 2)
}

/// Parses a complete hello record.
///
/// # Errors
///
/// [`ProtoError`] naming the first failed check; [`ProtoError::Truncated`]
/// if `buf` is shorter than the length its own lane count implies.
pub fn parse_hello(buf: &[u8]) -> Result<Hello, ProtoError> {
    let len = hello_len(buf).ok_or(ProtoError::Truncated)?;
    if buf.len() < len {
        return Err(ProtoError::Truncated);
    }
    let buf = &buf[..len];
    if buf[0] != FRAME_MAGIC {
        return Err(ProtoError::BadMagic(buf[0]));
    }
    if buf[1] != HELLO_TYPE {
        return Err(ProtoError::BadType(buf[1]));
    }
    if buf[2] != INGEST_VERSION {
        return Err(ProtoError::BadVersion(buf[2]));
    }
    let body = &buf[..len - 2];
    let expected = u16::from_le_bytes([buf[len - 2], buf[len - 1]]);
    if crc16(body) != expected {
        return Err(ProtoError::BadCrc);
    }
    let lane_count = buf[7] as usize;
    if lane_count == 0 || lane_count > MAX_HELLO_LANES {
        return Err(ProtoError::BadLaneSet);
    }
    let patient = u32::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]);
    let mut lanes = Vec::with_capacity(lane_count);
    for entry in buf[HELLO_FIXED_BYTES..len - 2].chunks_exact(HELLO_LANE_BYTES) {
        let lane = entry[0];
        if lanes.iter().any(|l: &LaneResume| l.lane == lane) {
            return Err(ProtoError::BadLaneSet);
        }
        lanes.push(LaneResume {
            lane,
            resume_from: u32::from_le_bytes([entry[1], entry[2], entry[3], entry[4]]),
        });
    }
    Ok(Hello { patient, lanes })
}

/// Serializes a hello (client side).
///
/// # Panics
///
/// Panics if the hello declares more than [`MAX_HELLO_LANES`] lanes: the
/// count travels in one byte and no server would accept the record.
pub fn encode_hello(hello: &Hello) -> Vec<u8> {
    assert!(hello.lanes.len() <= MAX_HELLO_LANES, "encode_hello: more than {MAX_HELLO_LANES} lanes");
    let mut out = Vec::with_capacity(HELLO_FIXED_BYTES + hello.lanes.len() * HELLO_LANE_BYTES + 2);
    out.push(FRAME_MAGIC);
    out.push(HELLO_TYPE);
    out.push(INGEST_VERSION);
    out.extend_from_slice(&hello.patient.to_le_bytes());
    out.push(hello.lanes.len() as u8);
    for lane in &hello.lanes {
        out.push(lane.lane);
        out.extend_from_slice(&lane.resume_from.to_le_bytes());
    }
    let crc = crc16(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Serializes a control record into a fixed buffer (no allocation — the
/// server says goodbye on the steady-state path).
pub fn encode_control(control: Control, out: &mut [u8; CONTROL_BYTES]) {
    out[0] = FRAME_MAGIC;
    out[1] = CONTROL_TYPE;
    out[2] = INGEST_VERSION;
    out[3] = control.code as u8;
    out[4..6].copy_from_slice(&control.retry_after_secs.to_le_bytes());
    out[6..10].copy_from_slice(&control.count.to_le_bytes());
    let crc = crc16(&out[..CONTROL_BYTES - 2]);
    out[10..12].copy_from_slice(&crc.to_le_bytes());
}

/// Parses a complete control record (client side).
///
/// # Errors
///
/// [`ProtoError`] naming the first failed check.
pub fn parse_control(buf: &[u8]) -> Result<Control, ProtoError> {
    if buf.len() < CONTROL_BYTES {
        return Err(ProtoError::Truncated);
    }
    let buf = &buf[..CONTROL_BYTES];
    if buf[0] != FRAME_MAGIC {
        return Err(ProtoError::BadMagic(buf[0]));
    }
    if buf[1] != CONTROL_TYPE {
        return Err(ProtoError::BadType(buf[1]));
    }
    if buf[2] != INGEST_VERSION {
        return Err(ProtoError::BadVersion(buf[2]));
    }
    let expected = u16::from_le_bytes([buf[10], buf[11]]);
    if crc16(&buf[..10]) != expected {
        return Err(ProtoError::BadCrc);
    }
    let code = ControlCode::from_byte(buf[3]).ok_or(ProtoError::BadCode(buf[3]))?;
    Ok(Control {
        code,
        retry_after_secs: u16::from_le_bytes([buf[4], buf[5]]),
        count: u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips() {
        let hello = Hello {
            patient: 0xDEAD_BEEF,
            lanes: vec![
                LaneResume { lane: 0, resume_from: 42 },
                LaneResume { lane: 3, resume_from: 0 },
            ],
        };
        let bytes = encode_hello(&hello);
        assert_eq!(hello_len(&bytes), Some(bytes.len()));
        assert_eq!(parse_hello(&bytes).unwrap(), hello);
    }

    #[test]
    fn hello_rejects_each_failure_mode() {
        let good = encode_hello(&Hello {
            patient: 9,
            lanes: vec![LaneResume { lane: 1, resume_from: 0 }],
        });
        assert_eq!(parse_hello(&good[..4]), Err(ProtoError::Truncated));
        let mut bad = good.clone();
        bad[0] = 0x00;
        assert_eq!(parse_hello(&bad), Err(ProtoError::BadMagic(0x00)));
        let mut bad = good.clone();
        bad[2] = 0x7F;
        assert_eq!(parse_hello(&bad), Err(ProtoError::BadVersion(0x7F)));
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert_eq!(parse_hello(&bad), Err(ProtoError::BadCrc));
        // Duplicate lane ids re-CRC'd so only the lane-set check fires.
        let dup = encode_hello(&Hello {
            patient: 9,
            lanes: vec![
                LaneResume { lane: 1, resume_from: 0 },
                LaneResume { lane: 1, resume_from: 5 },
            ],
        });
        assert_eq!(parse_hello(&dup), Err(ProtoError::BadLaneSet));
    }

    #[test]
    #[should_panic(expected = "more than 12 lanes")]
    fn hello_with_too_many_lanes_is_refused_not_truncated() {
        let lanes = (0..=MAX_HELLO_LANES as u8).map(|lane| LaneResume { lane, resume_from: 0 });
        let _ = encode_hello(&Hello { patient: 1, lanes: lanes.collect() });
    }

    #[test]
    fn control_round_trips_every_code() {
        for code in [
            ControlCode::Accept,
            ControlCode::Shed,
            ControlCode::BadHandshake,
            ControlCode::Draining,
            ControlCode::Goodbye,
            ControlCode::Evicted,
        ] {
            let control = Control { code, retry_after_secs: 7, count: 12345 };
            let mut buf = [0u8; CONTROL_BYTES];
            encode_control(control, &mut buf);
            assert_eq!(parse_control(&buf).unwrap(), control);
        }
        let mut buf = [0u8; CONTROL_BYTES];
        encode_control(Control { code: ControlCode::Accept, retry_after_secs: 0, count: 0 }, &mut buf);
        buf[3] = 0xEE; // unknown code: caught by CRC first? No — re-CRC.
        let crc = cs_core::crc16(&buf[..10]);
        buf[10..12].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(parse_control(&buf), Err(ProtoError::BadCode(0xEE)));
    }
}
