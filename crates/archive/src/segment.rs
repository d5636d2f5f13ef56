//! The on-disk segment format.
//!
//! Everything in this module operates on in-memory byte buffers — file
//! I/O lives in [`crate::writer`] and [`crate::reader`] — so the format
//! round-trips and the torn-tail truncation property can be pinned by
//! proptests without touching a filesystem.
//!
//! ## Layout
//!
//! ```text
//! segment := header record* [footer-record seal-marker]
//! header  := magic "CSAR" | version u8 | patient u32 LE | lane u8
//!          | base_seq u64 LE | capacity u32 LE | crc16 LE | zero pad to 32
//! record  := tag u8 | body_len u32 LE | body | crc16 LE   (crc over tag..body)
//! frame body  := seq u64 LE | wire-frame bytes
//! footer body := min_seq u64 | max_seq u64 | record_count u64
//!              | index_len u32 | (max_seq_before u64, offset u64)*
//! seal-marker := footer_record_len u32 LE | magic "CSAF"
//! ```
//!
//! A sealed segment ends with the footer record and the 8-byte seal
//! marker, so `open` discovers the footer in O(1) from the file tail. A
//! segment without a valid seal marker is *unsealed* — either still being
//! written or orphaned by a crash — and gets a full recovery scan that
//! truncates the torn tail: the first byte position where a record fails
//! to parse ends the valid prefix, and everything after it is dropped.
//! The record CRC reuses CRC-16/CCITT-FALSE from [`cs_core::crc16`], the
//! same polynomial that guards the wire frame inside the body.

use cs_core::crc16;
use std::ops::Range;

/// First four segment bytes.
pub const SEGMENT_MAGIC: [u8; 4] = *b"CSAR";
/// Current segment format version.
pub const SEGMENT_VERSION: u8 = 1;
/// Fixed segment header size (fields + CRC, zero-padded).
pub const SEGMENT_HEADER_BYTES: usize = 32;
/// Per-record framing cost: tag (1) + body length (4) + CRC (2).
pub const RECORD_OVERHEAD_BYTES: usize = 7;
/// Bytes ahead of the body within a record: tag (1) + body length (4).
pub const RECORD_PREFIX_BYTES: usize = 5;
/// A frame record's body carries the sequence number ahead of the frame.
pub const FRAME_RECORD_OVERHEAD_BYTES: usize = RECORD_OVERHEAD_BYTES + 8;
/// Record tag: body is `seq u64 LE` + raw wire-frame bytes.
pub const TAG_FRAME: u8 = 0x01;
/// Record tag: body is an encoded [`Footer`].
pub const TAG_FOOTER: u8 = 0x03;
/// Trailing seal-marker size: footer record length (4) + magic (4).
pub const SEAL_MARKER_BYTES: usize = 8;
/// Last four bytes of a sealed segment.
pub const SEAL_MAGIC: [u8; 4] = *b"CSAF";

/// The `N` bytes of the fixed-width little-endian field at `buf[at..]`.
/// Every such field of the format is read through here, so a slice
/// shorter than its layout promises is the caller's "does not parse",
/// never a panic.
fn field<const N: usize>(buf: &[u8], at: usize) -> Option<[u8; N]> {
    buf.get(at..at.checked_add(N)?)?.try_into().ok()
}

/// Fixed per-segment metadata, written once at offset 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Patient (stream) identifier.
    pub patient: u32,
    /// ECG lead lane, or [`crate::QUARANTINE_LANE`].
    pub lane: u8,
    /// Sequence number of the first frame appended to this segment.
    pub base_seq: u64,
    /// Configured rotation threshold in bytes, recorded for forensics.
    pub capacity: u32,
}

impl SegmentHeader {
    /// Serializes the header into its fixed 32-byte form.
    pub fn encode(&self) -> [u8; SEGMENT_HEADER_BYTES] {
        let mut out = [0u8; SEGMENT_HEADER_BYTES];
        out[0..4].copy_from_slice(&SEGMENT_MAGIC);
        out[4] = SEGMENT_VERSION;
        out[5..9].copy_from_slice(&self.patient.to_le_bytes());
        out[9] = self.lane;
        out[10..18].copy_from_slice(&self.base_seq.to_le_bytes());
        out[18..22].copy_from_slice(&self.capacity.to_le_bytes());
        let crc = crc16(&out[0..22]);
        out[22..24].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates a header from the start of `buf`.
    ///
    /// Returns `None` on short input, bad magic, unknown version, or CRC
    /// mismatch — a segment whose header does not parse is unusable.
    pub fn parse(buf: &[u8]) -> Option<SegmentHeader> {
        if buf.len() < SEGMENT_HEADER_BYTES
            || buf[0..4] != SEGMENT_MAGIC
            || buf[4] != SEGMENT_VERSION
        {
            return None;
        }
        if crc16(&buf[0..22]) != u16::from_le_bytes(field(buf, 22)?) {
            return None;
        }
        Some(SegmentHeader {
            patient: u32::from_le_bytes(field(buf, 5)?),
            lane: buf[9],
            base_seq: u64::from_le_bytes(field(buf, 10)?),
            capacity: u32::from_le_bytes(field(buf, 18)?),
        })
    }
}

/// Appends one record (`tag` + length-prefixed `body` + CRC) to `out`.
pub fn encode_record(tag: u8, body: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    let crc = crc16(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Appends one frame record (`seq` + raw wire-frame bytes) to `out`.
pub fn encode_frame_record(seq: u64, frame: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.push(TAG_FRAME);
    out.extend_from_slice(&((frame.len() + 8) as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(frame);
    let crc = crc16(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The encoded size of a frame record for a frame of `frame_len` bytes.
pub fn frame_record_len(frame_len: usize) -> usize {
    FRAME_RECORD_OVERHEAD_BYTES + frame_len
}

/// A parsed record: borrowed body plus the offset one past its CRC.
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    /// Record tag byte ([`TAG_FRAME`] or [`TAG_FOOTER`]).
    pub tag: u8,
    /// Length-prefixed body bytes.
    pub body: &'a [u8],
    /// Offset of the byte after this record's CRC.
    pub end: usize,
}

/// Parses the record starting at `off`, or `None` if the bytes there do
/// not form a complete CRC-valid record (the torn-tail condition).
pub fn parse_record(buf: &[u8], off: usize) -> Option<Record<'_>> {
    let body_len = u32::from_le_bytes(field(buf, off.checked_add(1)?)?) as usize;
    let end = off.checked_add(RECORD_OVERHEAD_BYTES)?.checked_add(body_len)?;
    let framed = buf.get(off..end - 2)?;
    if crc16(framed) != u16::from_le_bytes(field(buf, end - 2)?) {
        return None;
    }
    Some(Record {
        tag: framed[0],
        body: &framed[RECORD_PREFIX_BYTES..],
        end,
    })
}

impl<'a> Record<'a> {
    /// A frame record's sequence number and wire-frame bytes; `None` for
    /// any other tag, or a body too short to hold the sequence number.
    pub fn frame(&self) -> Option<(u64, &'a [u8])> {
        if self.tag != TAG_FRAME {
            return None;
        }
        Some((u64::from_le_bytes(field(self.body, 0)?), &self.body[8..]))
    }
}

/// Sealed-segment summary: written as the final record so `open` never
/// scans a cleanly closed segment, and seeks skip ahead of the range
/// start without walking every record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footer {
    /// Smallest frame sequence number in the segment.
    pub min_seq: u64,
    /// Largest frame sequence number in the segment.
    pub max_seq: u64,
    /// Number of frame records.
    pub record_count: u64,
    /// Sparse seek index: `(max_seq_before, offset)` pairs, one every K
    /// records. `max_seq_before` is the running maximum of all sequence
    /// numbers *before* `offset`, so a seek may start at the last entry
    /// whose running max is below the range start even when frames
    /// arrived out of order.
    pub index: Vec<(u64, u64)>,
}

impl Footer {
    /// Serializes the footer body (exclusive of record framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(28 + self.index.len() * 16);
        out.extend_from_slice(&self.min_seq.to_le_bytes());
        out.extend_from_slice(&self.max_seq.to_le_bytes());
        out.extend_from_slice(&self.record_count.to_le_bytes());
        out.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for &(max_seq_before, offset) in &self.index {
            out.extend_from_slice(&max_seq_before.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
        }
        out
    }

    /// Parses a footer body produced by [`Footer::encode`].
    pub fn parse(body: &[u8]) -> Option<Footer> {
        let index_len = u32::from_le_bytes(field(body, 24)?) as usize;
        // The length must match before it sizes an allocation.
        if body.len() != index_len.checked_mul(16)?.checked_add(28)? {
            return None;
        }
        let mut index = Vec::with_capacity(index_len);
        for at in (28..body.len()).step_by(16) {
            index.push((
                u64::from_le_bytes(field(body, at)?),
                u64::from_le_bytes(field(body, at + 8)?),
            ));
        }
        Some(Footer {
            min_seq: u64::from_le_bytes(field(body, 0)?),
            max_seq: u64::from_le_bytes(field(body, 8)?),
            record_count: u64::from_le_bytes(field(body, 16)?),
            index,
        })
    }

    /// The record offset a `replay_range` starting at `start_seq` may
    /// seek to: the last index entry whose running-max sequence is still
    /// below `start_seq` (every record before it is provably too early),
    /// or the first record when no entry qualifies.
    pub fn seek_offset(&self, start_seq: u64) -> u64 {
        self.index
            .iter()
            .take_while(|&&(max_before, _)| max_before < start_seq)
            .last()
            .map(|&(_, off)| off)
            .unwrap_or(SEGMENT_HEADER_BYTES as u64)
    }
}

/// Encodes the trailing 8-byte seal marker for a footer record of
/// `footer_record_len` total bytes (framing included).
pub fn encode_seal_marker(footer_record_len: u32) -> [u8; SEAL_MARKER_BYTES] {
    let mut out = [0u8; SEAL_MARKER_BYTES];
    out[0..4].copy_from_slice(&footer_record_len.to_le_bytes());
    out[4..8].copy_from_slice(&SEAL_MAGIC);
    out
}

/// Attempts the O(1) sealed-segment fast path: validates the trailing
/// seal marker and the footer record it points at. `None` means the
/// segment is unsealed (or the seal itself is torn) and needs a scan.
pub fn parse_sealed_footer(buf: &[u8]) -> Option<(Footer, usize)> {
    if buf.len() < SEGMENT_HEADER_BYTES + SEAL_MARKER_BYTES {
        return None;
    }
    let marker = &buf[buf.len() - SEAL_MARKER_BYTES..];
    if marker[4..8] != SEAL_MAGIC {
        return None;
    }
    let footer_len = u32::from_le_bytes(field(marker, 0)?) as usize;
    let footer_off = buf
        .len()
        .checked_sub(SEAL_MARKER_BYTES.checked_add(footer_len)?)
        .filter(|&o| o >= SEGMENT_HEADER_BYTES)?;
    let record = parse_record(buf, footer_off)?;
    if record.tag != TAG_FOOTER || record.end != buf.len() - SEAL_MARKER_BYTES {
        return None;
    }
    Footer::parse(record.body).map(|f| (f, footer_off))
}

/// Why a segment buffer could not be scanned at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// Shorter than the fixed header — nothing recoverable.
    TruncatedHeader,
    /// Header bytes present but magic/version/CRC invalid.
    BadHeader,
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::TruncatedHeader => f.write_str("segment shorter than its fixed header"),
            SegmentError::BadHeader => f.write_str("segment header magic/version/CRC invalid"),
        }
    }
}

impl std::error::Error for SegmentError {}

/// The result of scanning one segment buffer.
#[derive(Debug, Clone)]
pub struct SegmentScan {
    /// Validated fixed header.
    pub header: SegmentHeader,
    /// Every complete frame record, in append order: `(seq, frame byte
    /// range within the buffer)`.
    pub frames: Vec<(u64, Range<usize>)>,
    /// Present iff the segment is cleanly sealed (valid footer record
    /// *and* seal marker).
    pub footer: Option<Footer>,
    /// Byte length of the valid prefix. A recovering writer truncates
    /// the file to this length; equals the buffer length when nothing is
    /// torn.
    pub valid_len: usize,
    /// Bytes past `valid_len` dropped as a torn tail.
    pub torn_bytes: usize,
}

/// Scans a segment buffer, accepting the longest valid prefix.
///
/// Walks records from the header until the first position where no
/// complete CRC-valid record exists; that position ends the valid prefix
/// (the *torn-tail truncation* point). A footer record followed by a
/// complete seal marker marks the segment sealed; a footer with a torn
/// or missing marker is itself discarded as tail, keeping recovery
/// semantics uniform — the valid prefix always ends on a frame-record
/// boundary unless the seal completed.
pub fn scan_segment(buf: &[u8]) -> Result<SegmentScan, SegmentError> {
    if buf.len() < SEGMENT_HEADER_BYTES {
        return Err(SegmentError::TruncatedHeader);
    }
    let header = SegmentHeader::parse(buf).ok_or(SegmentError::BadHeader)?;
    let mut frames = Vec::new();
    let mut off = SEGMENT_HEADER_BYTES;
    let mut footer = None;
    let mut valid_len = off;
    while let Some(record) = parse_record(buf, off) {
        let Some((seq, frame)) = record.frame() else {
            // A footer record seals the segment only with its complete
            // marker behind it. Otherwise it — like an unknown tag or a
            // frame body too short for its sequence number — is torn
            // tail, dropped with everything after it.
            let marker_end = record.end + SEAL_MARKER_BYTES;
            if record.tag == TAG_FOOTER
                && marker_end == buf.len()
                && buf[record.end..marker_end] == encode_seal_marker((record.end - off) as u32)
            {
                footer = Footer::parse(record.body);
                if footer.is_some() {
                    valid_len = marker_end;
                }
            }
            break;
        };
        let frame_end = record.end - 2;
        frames.push((seq, frame_end - frame.len()..frame_end));
        off = record.end;
        valid_len = off;
    }
    Ok(SegmentScan {
        header,
        frames,
        footer,
        torn_bytes: buf.len() - valid_len,
        valid_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + n) as u8).collect()
    }

    fn build_segment(seal: bool) -> Vec<u8> {
        let header = SegmentHeader {
            patient: 7,
            lane: 2,
            base_seq: 100,
            capacity: 4096,
        };
        let mut buf = header.encode().to_vec();
        let mut index = Vec::new();
        let mut running_max = 0u64;
        for (i, seq) in (100u64..108).enumerate() {
            if i > 0 && i % 4 == 0 {
                index.push((running_max, buf.len() as u64));
            }
            encode_frame_record(seq, &frame(16 + i), &mut buf);
            running_max = running_max.max(seq);
        }
        if seal {
            let footer = Footer {
                min_seq: 100,
                max_seq: 107,
                record_count: 8,
                index,
            };
            let start = buf.len();
            encode_record(TAG_FOOTER, &footer.encode(), &mut buf);
            let footer_record_len = (buf.len() - start) as u32;
            buf.extend_from_slice(&encode_seal_marker(footer_record_len));
        }
        buf
    }

    #[test]
    fn header_round_trip_and_rejection() {
        let h = SegmentHeader {
            patient: 42,
            lane: 0xFF,
            base_seq: u64::MAX / 3,
            capacity: 4 << 20,
        };
        let enc = h.encode();
        assert_eq!(SegmentHeader::parse(&enc), Some(h));
        let mut bad = enc;
        bad[5] ^= 1; // patient byte — CRC must catch it
        assert_eq!(SegmentHeader::parse(&bad), None);
        assert_eq!(SegmentHeader::parse(&enc[..31]), None);
    }

    #[test]
    fn unsealed_scan_yields_all_frames() {
        let buf = build_segment(false);
        let scan = scan_segment(&buf).unwrap();
        assert_eq!(scan.frames.len(), 8);
        assert!(scan.footer.is_none());
        assert_eq!(scan.valid_len, buf.len());
        assert_eq!(scan.torn_bytes, 0);
        for (i, (seq, range)) in scan.frames.iter().enumerate() {
            assert_eq!(*seq, 100 + i as u64);
            assert_eq!(&buf[range.clone()], &frame(16 + i)[..]);
        }
    }

    #[test]
    fn sealed_scan_and_fast_path_agree() {
        let buf = build_segment(true);
        let scan = scan_segment(&buf).unwrap();
        let footer = scan.footer.expect("sealed");
        assert_eq!(footer.record_count, 8);
        assert_eq!((footer.min_seq, footer.max_seq), (100, 107));
        assert_eq!(scan.valid_len, buf.len());
        let (fast, _) = parse_sealed_footer(&buf).expect("fast path");
        assert_eq!(fast, footer);
    }

    #[test]
    fn seek_offset_respects_running_max() {
        let buf = build_segment(true);
        let (footer, _) = parse_sealed_footer(&buf).unwrap();
        // Entry at record 4 has running max 103: start_seq 104 may skip there.
        let skip = footer.seek_offset(104);
        assert!(skip > SEGMENT_HEADER_BYTES as u64);
        let scan = scan_segment(&buf).unwrap();
        let record_start = (scan.frames[4].1.start - RECORD_PREFIX_BYTES - 8) as u64;
        assert_eq!(record_start, skip);
        // start_seq at or below min stays at the first record.
        assert_eq!(footer.seek_offset(100), SEGMENT_HEADER_BYTES as u64);
    }

    #[test]
    fn torn_tail_truncates_to_record_boundary() {
        let buf = build_segment(false);
        let scan_full = scan_segment(&buf).unwrap();
        let boundaries: Vec<usize> = std::iter::once(SEGMENT_HEADER_BYTES)
            .chain(scan_full.frames.iter().map(|(_, r)| r.end + 2))
            .collect();
        // Cut mid-record: the valid prefix must end at the last boundary.
        let cut = boundaries[3] + 5;
        let scan = scan_segment(&buf[..cut]).unwrap();
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.valid_len, boundaries[3]);
        assert_eq!(scan.torn_bytes, cut - boundaries[3]);
    }

    #[test]
    fn corrupt_byte_ends_prefix() {
        let mut buf = build_segment(false);
        let scan_full = scan_segment(&buf).unwrap();
        let third_start = scan_full.frames[2].1.start - 15;
        buf[third_start + 9] ^= 0x40; // flip a bit inside record 2's body
        let scan = scan_segment(&buf).unwrap();
        assert_eq!(scan.frames.len(), 2, "prefix stops before the corrupt record");
        assert!(scan.torn_bytes > 0);
    }

    #[test]
    fn torn_seal_discards_footer() {
        let buf = build_segment(true);
        // Drop the final marker byte: the seal is torn, so the segment
        // must come back unsealed with all 8 frames intact.
        let scan = scan_segment(&buf[..buf.len() - 1]).unwrap();
        assert!(scan.footer.is_none());
        assert_eq!(scan.frames.len(), 8);
        assert!(parse_sealed_footer(&buf[..buf.len() - 1]).is_none());
    }
}
