//! Incremental record deframing over a TCP byte stream.
//!
//! TCP deliberately destroys message boundaries: one `write` can arrive
//! as many reads, many writes as one read, and a hostile link can split
//! at every byte. The record layer restores boundaries with a `u16`
//! little-endian length prefix in front of each wire frame
//! ([`cs_core::parse_frame`] format), and [`Deframer`] reassembles
//! records from arbitrary read chunks without allocating: the caller
//! reads straight into [`Deframer::spare`], commits what arrived, and
//! drains complete records with [`Deframer::next_frame`].
//!
//! Damage policy mirrors the fleet engine's: a record whose *frame* is
//! corrupt is still yielded — the engine's CRC check counts and
//! quarantines it, keeping fault accounting exact. Only when the length
//! prefix itself is implausible (out of `[MIN_FRAME_BYTES,
//! MAX_FRAME_BYTES]`, or the byte where the frame should start is not
//! the frame magic) does the deframer **resync**: scan forward for the
//! next plausible boundary, counting every skipped byte. A bit flip in a
//! length prefix therefore costs one garbage record (rejected
//! downstream) plus a counted resync, never a desynced-forever session
//! and never a disconnect.

use cs_core::{FRAME_MAGIC, HEADER_BYTES, TRAILER_BYTES};

/// Length-prefix size in front of every framed record.
pub const RECORD_PREFIX_BYTES: usize = 2;
/// Smallest frame a record may carry (header + CRC, empty payload).
pub const MIN_FRAME_BYTES: usize = HEADER_BYTES + TRAILER_BYTES;
/// Largest frame a record may carry. The paper's geometry emits ~1 kB
/// frames; 4 kB leaves headroom for fatter configs while keeping an
/// implausible prefix detectable.
pub const MAX_FRAME_BYTES: usize = 4096;

/// Internal buffer size: one maximal in-progress record plus a socket
/// read's worth of slack, so [`Deframer::spare`] is never empty after a
/// compaction.
const BUFFER_BYTES: usize = 4 * (RECORD_PREFIX_BYTES + MAX_FRAME_BYTES);

/// Reassembly accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeframeStats {
    /// Complete records yielded (including frames the engine will reject).
    pub records: u64,
    /// Boundary-recovery events after an implausible length prefix.
    pub resyncs: u64,
    /// Bytes discarded while hunting for a plausible boundary.
    pub skipped_bytes: u64,
}

/// Allocation-free incremental record reassembler.
///
/// ```
/// use cs_ingest::{Deframer, RECORD_PREFIX_BYTES};
///
/// let frame = vec![0xC5; 13]; // not a valid frame, but a valid record
/// let mut wire = (frame.len() as u16).to_le_bytes().to_vec();
/// wire.extend_from_slice(&frame);
///
/// let mut deframer = Deframer::new();
/// for byte in wire {
///     deframer.spare()[0] = byte; // worst-case: one byte per read
///     deframer.commit(1);
/// }
/// assert_eq!(deframer.next_frame(), Some(frame.as_slice()));
/// assert_eq!(deframer.next_frame(), None);
/// ```
#[derive(Debug)]
pub struct Deframer {
    buf: Box<[u8]>,
    start: usize,
    end: usize,
    stats: DeframeStats,
}

impl Default for Deframer {
    fn default() -> Self {
        Deframer::new()
    }
}

impl Deframer {
    /// A fresh deframer; the single buffer allocation happens here, at
    /// session setup, never per frame.
    pub fn new() -> Self {
        Deframer {
            buf: vec![0u8; BUFFER_BYTES].into_boxed_slice(),
            start: 0,
            end: 0,
            stats: DeframeStats::default(),
        }
    }

    /// Writable tail to read socket bytes into. Compacts pending bytes
    /// to the buffer front first, so after draining
    /// [`next_frame`](Self::next_frame) the spare is always at least a
    /// maximal record wide.
    pub fn spare(&mut self) -> &mut [u8] {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        &mut self.buf[self.end..]
    }

    /// Declares that `n` bytes were read into [`spare`](Self::spare).
    pub fn commit(&mut self, n: usize) {
        debug_assert!(self.end + n <= self.buf.len());
        self.end += n;
    }

    /// Bytes buffered but not yet yielded as records.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Reassembly accounting so far.
    pub fn stats(&self) -> DeframeStats {
        self.stats
    }

    /// Next complete record's frame bytes, if one is buffered.
    ///
    /// Resyncs past implausible boundaries as a side effect; returns
    /// `None` when the buffered tail holds no complete record yet.
    pub fn next_frame(&mut self) -> Option<&[u8]> {
        loop {
            if self.pending() < RECORD_PREFIX_BYTES {
                return None;
            }
            let len = u16::from_le_bytes([self.buf[self.start], self.buf[self.start + 1]]) as usize;
            let plausible = (MIN_FRAME_BYTES..=MAX_FRAME_BYTES).contains(&len)
                && (self.pending() < 3 || self.buf[self.start + 2] == FRAME_MAGIC);
            if !plausible {
                self.resync();
                continue;
            }
            if self.pending() < RECORD_PREFIX_BYTES + len {
                return None;
            }
            let frame_start = self.start + RECORD_PREFIX_BYTES;
            self.start = frame_start + len;
            self.stats.records += 1;
            return Some(&self.buf[frame_start..frame_start + len]);
        }
    }

    /// Scans forward from one byte past the current (implausible)
    /// boundary for the next position that could start a record: a
    /// plausible length whose frame byte — when already buffered — is
    /// the frame magic. Trailing bytes too short to judge are kept for
    /// the next read.
    fn resync(&mut self) {
        self.stats.resyncs += 1;
        let mut pos = self.start + 1;
        while pos + RECORD_PREFIX_BYTES <= self.end {
            let len = u16::from_le_bytes([self.buf[pos], self.buf[pos + 1]]) as usize;
            if (MIN_FRAME_BYTES..=MAX_FRAME_BYTES).contains(&len)
                && (pos + 2 >= self.end || self.buf[pos + 2] == FRAME_MAGIC)
            {
                break;
            }
            pos += 1;
        }
        // Keep the last prefix-1 bytes: they may be the head of a
        // boundary whose tail has not arrived.
        let pos = pos.min(self.end.saturating_sub(RECORD_PREFIX_BYTES - 1)).max(self.start + 1);
        self.stats.skipped_bytes += (pos - self.start) as u64;
        self.start = pos;
    }
}

/// Frames `frame` as one record: length prefix followed by the bytes.
/// Client-side helper; the server never builds records.
pub fn encode_record(frame: &[u8], out: &mut Vec<u8>) {
    debug_assert!(frame.len() >= MIN_FRAME_BYTES && frame.len() <= MAX_FRAME_BYTES);
    out.extend_from_slice(&(frame.len() as u16).to_le_bytes());
    out.extend_from_slice(frame);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(fill: u8, len: usize) -> Vec<u8> {
        let mut f = vec![fill; len];
        f[0] = FRAME_MAGIC;
        f
    }

    fn wire(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            encode_record(f, &mut out);
        }
        out
    }

    #[test]
    fn coalesced_and_split_reads_yield_identical_records() {
        let frames = vec![frame(1, 13), frame(2, 500), frame(3, MAX_FRAME_BYTES)];
        let bytes = wire(&frames);
        for chunk in [1usize, 2, 3, 7, 4096, bytes.len()] {
            let mut deframer = Deframer::new();
            let mut got = Vec::new();
            for piece in bytes.chunks(chunk) {
                let spare = deframer.spare();
                spare[..piece.len()].copy_from_slice(piece);
                deframer.commit(piece.len());
                while let Some(record) = deframer.next_frame() {
                    got.push(record.to_vec());
                }
            }
            assert_eq!(got, frames, "chunk size {chunk}");
            assert_eq!(deframer.stats().resyncs, 0);
            assert_eq!(deframer.pending(), 0);
        }
    }

    #[test]
    fn implausible_prefix_resyncs_and_counts_skipped_bytes() {
        let tail = vec![frame(7, 40), frame(8, 41)];
        let mut bytes = vec![0x00, 0x00, 0xAA, 0xBB]; // len 0: implausible
        bytes.extend_from_slice(&wire(&tail));
        let mut deframer = Deframer::new();
        let spare = deframer.spare();
        spare[..bytes.len()].copy_from_slice(&bytes);
        deframer.commit(bytes.len());
        let mut got = Vec::new();
        while let Some(record) = deframer.next_frame() {
            got.push(record.to_vec());
        }
        assert_eq!(got, tail, "records after the junk must survive");
        let stats = deframer.stats();
        assert!(stats.resyncs >= 1);
        assert_eq!(stats.skipped_bytes, 4);
    }

    #[test]
    fn corrupt_length_prefix_costs_one_garbage_record_not_the_session() {
        let frames = vec![frame(1, 60), frame(2, 60), frame(3, 60)];
        let mut bytes = wire(&frames);
        bytes[0] ^= 0x04; // first record claims the wrong (plausible) length
        let mut deframer = Deframer::new();
        let spare = deframer.spare();
        spare[..bytes.len()].copy_from_slice(&bytes);
        deframer.commit(bytes.len());
        let mut got = Vec::new();
        while let Some(record) = deframer.next_frame() {
            got.push(record.to_vec());
        }
        // The last frame must come through intact; earlier bytes may be
        // regrouped arbitrarily but every byte is accounted for.
        assert_eq!(got.last().unwrap(), &frames[2]);
        let stats = deframer.stats();
        let yielded: usize = got.iter().map(|r| r.len() + RECORD_PREFIX_BYTES).sum();
        assert_eq!(
            yielded as u64 + stats.skipped_bytes + deframer.pending() as u64,
            bytes.len() as u64,
            "every byte is yielded, skipped, or pending"
        );
    }

    #[test]
    fn spare_is_always_wide_enough_for_a_maximal_record() {
        let mut deframer = Deframer::new();
        // Leave a partial maximal record pending, then demand spare.
        let header = (MAX_FRAME_BYTES as u16).to_le_bytes();
        deframer.spare()[..2].copy_from_slice(&header);
        deframer.commit(2);
        deframer.spare()[0] = FRAME_MAGIC;
        deframer.commit(1);
        assert!(deframer.next_frame().is_none());
        assert!(deframer.spare().len() >= RECORD_PREFIX_BYTES + MAX_FRAME_BYTES);
    }
}
