//! Wire-format packets.
//!
//! The mote transmits one [`EncodedPacket`] per 2-second window over the
//! Bluetooth link. The frame is versioned and integrity-checked so that
//! corruption is detected at ingest — before the Huffman decoder ever
//! sees the bytes — while staying lean enough that every header byte is
//! still defensible against the energy model:
//!
//! ```text
//! offset  size  field
//!      0     1  magic (0xC5)
//!      1     1  version (0x01)
//!      2     1  lane (ECG lead tag; 0 for single-lead streams)
//!      3     1  kind ('R' = reference, 'D' = delta)
//!      4     4  sequence number, u32 LE
//!      8     3  payload bit count, u24 LE
//!     11     …  bit-packed payload (padded to a byte boundary)
//!   len-2     2  CRC-16/CCITT-FALSE over bytes[0..len-2], LE
//! ```
//!
//! The CRC covers the header *including* the lane byte, so a corrupted
//! lead tag cannot silently misroute a packet into the wrong decoder
//! lane. Parsing is allocation-free via [`parse_frame`]; the owning
//! [`EncodedPacket::from_bytes`] wraps it for callers that want a copy.

use crate::error::PipelineError;

/// Whether a packet carries a raw reference vector or Huffman-coded deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Raw 16-bit measurement vector (resynchronization point).
    Reference,
    /// Huffman-coded difference symbols.
    Delta,
}

/// One encoded CS-ECG packet as it leaves the mote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedPacket {
    /// Monotone sequence number assigned by the encoder.
    pub index: u64,
    /// Payload interpretation.
    pub kind: PacketKind,
    /// Bit-packed payload (padded to a byte boundary).
    pub payload: Vec<u8>,
    /// Exact number of meaningful payload bits (excludes padding).
    pub payload_bits: usize,
}

/// First frame byte, chosen to be asymmetric and unlikely in silence.
pub const FRAME_MAGIC: u8 = 0xC5;
/// Reserved lane for frames that failed to parse on arrival. No encoder
/// ever emits it: archival sinks and soak harnesses route unattributable
/// bytes here, sequenced by arrival order, so a post-mortem can replay
/// the damage the wire actually delivered.
pub const QUARANTINE_LANE: u8 = 0xFF;
/// Current frame format version.
pub const FRAME_VERSION: u8 = 0x01;
/// Framed header size in bytes:
/// magic (1) + version (1) + lane (1) + kind (1) + seq (4) + bit count (3).
pub const HEADER_BYTES: usize = 11;
/// Frame trailer: CRC-16/CCITT-FALSE, little-endian.
pub const TRAILER_BYTES: usize = 2;

/// Parsed frame header, borrowed view — see [`parse_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// ECG lead tag (0 for single-lead streams).
    pub lane: u8,
    /// Payload interpretation.
    pub kind: PacketKind,
    /// Per-stream sequence number.
    pub index: u64,
    /// Exact number of meaningful payload bits.
    pub payload_bits: usize,
}

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection, no xorout).
///
/// Bitwise and branch-light. On the `edge_no_solve` ledger checking a
/// ~300-byte delta frame (`core.parse_frame_us`) is 1.8 µs of a 20 µs
/// packet, and a byte-table variant sized beside PR 24 read 1.69: at one
/// frame per 2-second window the table-free form is nowhere near the
/// profile, and it costs the mote no 512-byte table.
pub fn crc16(bytes: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in bytes {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// Validates and parses a frame without allocating.
///
/// Returns the header fields and a borrow of the payload bytes. Checks,
/// in order: minimum length, magic, version, CRC, kind byte, bit-count
/// consistency — so a corrupted frame is rejected by the checksum before
/// any field is interpreted.
///
/// # Errors
///
/// Returns [`PipelineError::MalformedPacket`] naming the first check that
/// failed.
pub fn parse_frame(bytes: &[u8]) -> Result<(FrameInfo, &[u8]), PipelineError> {
    if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
        return Err(PipelineError::MalformedPacket(format!(
            "{} bytes is shorter than the {}-byte minimum frame",
            bytes.len(),
            HEADER_BYTES + TRAILER_BYTES
        )));
    }
    if bytes[0] != FRAME_MAGIC {
        return Err(PipelineError::MalformedPacket(format!(
            "bad magic 0x{:02X}",
            bytes[0]
        )));
    }
    if bytes[1] != FRAME_VERSION {
        return Err(PipelineError::MalformedPacket(format!(
            "unsupported frame version {}",
            bytes[1]
        )));
    }
    let body = &bytes[..bytes.len() - TRAILER_BYTES];
    let expected = u16::from_le_bytes([bytes[bytes.len() - 2], bytes[bytes.len() - 1]]);
    let actual = crc16(body);
    if actual != expected {
        return Err(PipelineError::MalformedPacket(format!(
            "CRC mismatch: frame carries 0x{expected:04X}, computed 0x{actual:04X}"
        )));
    }
    let lane = bytes[2];
    let kind = match bytes[3] {
        0x52 => PacketKind::Reference,
        0x44 => PacketKind::Delta,
        k => {
            return Err(PipelineError::MalformedPacket(format!(
                "unknown kind byte 0x{k:02X}"
            )))
        }
    };
    let index = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as u64;
    let payload_bits = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], 0]) as usize;
    let payload = &bytes[HEADER_BYTES..bytes.len() - TRAILER_BYTES];
    if payload_bits > payload.len() * 8 {
        return Err(PipelineError::MalformedPacket(format!(
            "bit count {payload_bits} exceeds payload of {} bytes",
            payload.len()
        )));
    }
    Ok((
        FrameInfo {
            lane,
            kind,
            index,
            payload_bits,
        },
        payload,
    ))
}

impl EncodedPacket {
    /// Total framed size on the radio, header and CRC included.
    pub fn framed_bytes(&self) -> usize {
        HEADER_BYTES + self.payload.len() + TRAILER_BYTES
    }

    /// Serializes the frame with lane tag 0 (single-lead streams).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_tagged(0)
    }

    /// Serializes the frame with an explicit lane (ECG lead) tag.
    pub fn to_bytes_tagged(&self, lane: u8) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.framed_bytes());
        out.push(FRAME_MAGIC);
        out.push(FRAME_VERSION);
        out.push(lane);
        out.push(match self.kind {
            PacketKind::Reference => 0x52, // 'R'
            PacketKind::Delta => 0x44,     // 'D'
        });
        out.extend_from_slice(&(self.index as u32).to_le_bytes());
        let bits = self.payload_bits as u32;
        out.extend_from_slice(&bits.to_le_bytes()[..3]);
        out.extend_from_slice(&self.payload);
        let crc = crc16(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and copies a framed packet, discarding the lane tag.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::MalformedPacket`] on truncation, bad
    /// magic/version, CRC mismatch, an unknown kind byte, or an
    /// inconsistent bit count.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PipelineError> {
        let (info, payload) = parse_frame(bytes)?;
        Ok(EncodedPacket {
            index: info.index,
            kind: info.kind,
            payload: payload.to_vec(),
            payload_bits: info.payload_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EncodedPacket {
        EncodedPacket {
            index: 7,
            kind: PacketKind::Delta,
            payload: vec![0xDE, 0xAD, 0xBE],
            payload_bits: 21,
        }
    }

    #[test]
    fn round_trip() {
        let p = sample();
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), p.framed_bytes());
        let q = EncodedPacket::from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn reference_kind_round_trips() {
        let p = EncodedPacket {
            kind: PacketKind::Reference,
            ..sample()
        };
        assert_eq!(
            EncodedPacket::from_bytes(&p.to_bytes()).unwrap().kind,
            PacketKind::Reference
        );
    }

    #[test]
    fn lane_tag_round_trips_and_is_crc_covered() {
        let p = sample();
        let bytes = p.to_bytes_tagged(5);
        let (info, payload) = parse_frame(&bytes).unwrap();
        assert_eq!(info.lane, 5);
        assert_eq!(info.index, 7);
        assert_eq!(payload, &p.payload[..]);

        // Flipping the lane byte alone must fail the CRC, not misroute.
        let mut b = p.to_bytes_tagged(5);
        b[2] = 6;
        let err = parse_frame(&b).unwrap_err().to_string();
        assert!(err.contains("CRC"), "expected CRC rejection, got: {err}");
    }

    #[test]
    fn truncated_rejected() {
        assert!(EncodedPacket::from_bytes(&[FRAME_MAGIC, FRAME_VERSION, 0]).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut b = sample().to_bytes();
        b[0] = 0x00;
        assert!(EncodedPacket::from_bytes(&b).is_err());
    }

    #[test]
    fn future_version_rejected() {
        let mut b = sample().to_bytes();
        b[1] = 2;
        assert!(EncodedPacket::from_bytes(&b).is_err());
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut b = sample().to_bytes();
        b[3] = 0xFF;
        // Re-seal so the kind check is reached, not masked by the CRC.
        let crc = crc16(&b[..b.len() - TRAILER_BYTES]);
        let n = b.len();
        b[n - 2..].copy_from_slice(&crc.to_le_bytes());
        let err = EncodedPacket::from_bytes(&b).unwrap_err().to_string();
        assert!(err.contains("kind"), "expected kind rejection, got: {err}");
    }

    #[test]
    fn inconsistent_bit_count_rejected() {
        let mut p = sample();
        p.payload_bits = 999;
        let b = p.to_bytes();
        assert!(EncodedPacket::from_bytes(&b).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let p = sample();
        let clean = p.to_bytes();
        for bit in 0..clean.len() * 8 {
            let mut b = clean.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            assert!(
                EncodedPacket::from_bytes(&b).is_err(),
                "single-bit flip at bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn crc_matches_ccitt_false_check_value() {
        // The standard check input "123456789" → 0x29B1 for CRC-16/CCITT-FALSE.
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }
}
