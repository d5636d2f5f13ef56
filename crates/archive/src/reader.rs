//! The read path: recovery-tolerant `open`, seq-range replay iteration,
//! whole-stream merge for fleet replay, and retention compaction.

use crate::layout::{segment_path, walk_lanes};
use crate::segment::{
    parse_record, parse_sealed_footer, scan_segment, Footer, SEGMENT_HEADER_BYTES,
};
use crate::writer::RecoveryStats;
use crate::QUARANTINE_LANE;
use cs_telemetry::{ArchiveOp, Stage, TelemetryRegistry};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// One frame yielded by a replay iterator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayFrame {
    /// Stored sequence number (the wire seq for parseable frames, an
    /// arrival counter for quarantine-lane frames).
    pub seq: u64,
    /// Lane the frame was archived under.
    pub lane: u8,
    /// The exact bytes that were appended — byte-for-byte, including any
    /// corruption the wire delivered.
    pub bytes: Vec<u8>,
}

/// Per-segment metadata surfaced by [`Archive::segments`].
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// Segment file path.
    pub path: PathBuf,
    /// Monotone segment index within its lane.
    pub index: u64,
    /// Whether a valid footer + seal marker closed the segment.
    pub sealed: bool,
    /// Complete frame records in the valid prefix.
    pub records: u64,
    /// Smallest frame seq (meaningless when `records == 0`).
    pub min_seq: u64,
    /// Largest frame seq (meaningless when `records == 0`).
    pub max_seq: u64,
    /// Bytes in the valid prefix.
    pub valid_bytes: u64,
    footer: Option<Footer>,
}

/// Read-only view over an archive root.
///
/// `open` never fails on a torn tail: an unsealed segment (crashed
/// writer) is scanned and its incomplete trailing record is simply
/// excluded from what replay yields, and a newest segment shorter than
/// its header (a writer killed while creating it) is skipped. Both count
/// as torn tails. The on-disk files are left untouched — truncation and
/// removal are the *writer's* job on resume ([`crate::ArchiveWriter::open`]).
/// A short header in any older segment is an error.
pub struct Archive {
    telemetry: TelemetryRegistry,
    lanes: BTreeMap<(u32, u8), Vec<SegmentInfo>>,
}

impl Archive {
    /// Opens an archive root with telemetry disabled.
    pub fn open(root: impl AsRef<Path>) -> io::Result<(Archive, RecoveryStats)> {
        Self::open_observed(root, TelemetryRegistry::disabled())
    }

    /// Opens an archive root, recording recovery/replay activity
    /// (`cs_archive_total`, [`Stage::ArchiveReplay`] spans) against
    /// `telemetry`.
    pub fn open_observed(
        root: impl AsRef<Path>,
        telemetry: TelemetryRegistry,
    ) -> io::Result<(Archive, RecoveryStats)> {
        let root = root.as_ref();
        let mut lanes = BTreeMap::new();
        let mut stats = RecoveryStats::default();
        for (patient, lane, dir, segments) in walk_lanes(root)? {
            let mut infos = Vec::with_capacity(segments.len());
            let newest = segments.last().copied();
            for index in segments {
                let path = segment_path(&dir, index);
                let buf = fs::read(&path)?;
                if Some(index) == newest && buf.len() < SEGMENT_HEADER_BYTES {
                    // A writer killed between creating its newest segment
                    // and writing the header: nothing to replay.
                    telemetry.record_archive_op(ArchiveOp::TornTail);
                    stats.torn_tails += 1;
                    stats.torn_bytes += buf.len() as u64;
                    continue;
                }
                let info = if let Some((footer, footer_off)) = parse_sealed_footer(&buf) {
                    SegmentInfo {
                        path,
                        index,
                        sealed: true,
                        records: footer.record_count,
                        min_seq: footer.min_seq,
                        max_seq: footer.max_seq,
                        valid_bytes: footer_off as u64,
                        footer: Some(footer),
                    }
                } else {
                    let scan = scan_segment(&buf).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("{}: {e}", path.display()),
                        )
                    })?;
                    telemetry.record_archive_op(ArchiveOp::Recover);
                    stats.segments_scanned += 1;
                    stats.frames_recovered += scan.frames.len() as u64;
                    if scan.torn_bytes > 0 {
                        telemetry.record_archive_op(ArchiveOp::TornTail);
                        stats.torn_tails += 1;
                        stats.torn_bytes += scan.torn_bytes as u64;
                    }
                    let min_seq = scan.frames.iter().map(|&(s, _)| s).min().unwrap_or(u64::MAX);
                    let max_seq = scan.frames.iter().map(|&(s, _)| s).max().unwrap_or(0);
                    SegmentInfo {
                        path,
                        index,
                        sealed: false,
                        records: scan.frames.len() as u64,
                        min_seq,
                        max_seq,
                        valid_bytes: scan.valid_len as u64,
                        footer: None,
                    }
                };
                infos.push(info);
            }
            lanes.insert((patient, lane), infos);
        }
        Ok((Archive { telemetry, lanes }, stats))
    }

    /// Patients present, ascending.
    pub fn patients(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.lanes.keys().map(|&(p, _)| p).collect();
        out.dedup();
        out
    }

    /// Lanes archived for `patient`, ascending (may include
    /// [`QUARANTINE_LANE`]).
    pub fn lanes_of(&self, patient: u32) -> Vec<u8> {
        self.lanes
            .keys()
            .filter(|&&(p, _)| p == patient)
            .map(|&(_, l)| l)
            .collect()
    }

    /// Segment metadata for one lane, in segment order.
    pub fn segments(&self, patient: u32, lane: u8) -> &[SegmentInfo] {
        self.lanes
            .get(&(patient, lane))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total complete frame records across the archive.
    pub fn total_records(&self) -> u64 {
        self.lanes
            .values()
            .flat_map(|infos| infos.iter().map(|i| i.records))
            .sum()
    }

    /// Replays frames for `(patient, lane)` whose stored sequence number
    /// lies in `range`, lazily loading one segment at a time. Sealed
    /// segments outside the range are skipped without being read, and
    /// the sparse footer index skips ahead of `range.start` within a
    /// segment.
    pub fn replay_range(&self, patient: u32, lane: u8, range: Range<u64>) -> io::Result<Replay> {
        let segments: Vec<SegmentInfo> = self
            .segments(patient, lane)
            .iter()
            .filter(|info| info.records > 0 && info.min_seq < range.end && info.max_seq >= range.start)
            .cloned()
            .collect();
        Ok(Replay {
            telemetry: self.telemetry.clone(),
            lane,
            segments,
            range,
            cursor: 0,
            buf: Vec::new(),
            off: 0,
            loaded: false,
        })
    }

    /// Reassembles one patient's full archived session as a datagram
    /// list in original encode order — ready to feed back through
    /// `run_fleet` as `FleetSource::Frames`' `traffic[stream]`.
    ///
    /// Real lanes are merged by `(seq, lane)`: the encoder emits every
    /// lane's frame for window *n* before any frame of window *n + 1*,
    /// so frame-major/lane-minor order reproduces the live interleaving
    /// exactly. Quarantine-lane bytes (unparseable on arrival, archived
    /// for post-mortem) are appended at the end in arrival order: the
    /// ingest path re-rejects them wherever they sit, and keeping them
    /// out of the merge keeps the decodable prefix bit-for-bit stable.
    pub fn replay_stream(&self, patient: u32) -> io::Result<Vec<Vec<u8>>> {
        let mut merged: Vec<ReplayFrame> = Vec::new();
        let mut quarantined: Vec<ReplayFrame> = Vec::new();
        for lane in self.lanes_of(patient) {
            let target = if lane == QUARANTINE_LANE {
                &mut quarantined
            } else {
                &mut merged
            };
            for frame in self.replay_range(patient, lane, 0..u64::MAX)? {
                target.push(frame?);
            }
        }
        merged.sort_by_key(|f| (f.seq, f.lane));
        quarantined.sort_by_key(|f| f.seq);
        Ok(merged
            .into_iter()
            .chain(quarantined)
            .map(|f| f.bytes)
            .collect())
    }

    /// Retention: deletes the oldest segments of `(patient, lane)` until
    /// at most `keep_last_n` remain. Returns how many were removed.
    pub fn compact(&mut self, patient: u32, lane: u8, keep_last_n: usize) -> io::Result<usize> {
        let Some(infos) = self.lanes.get_mut(&(patient, lane)) else {
            return Ok(0);
        };
        let excess = infos.len().saturating_sub(keep_last_n);
        for info in infos.drain(..excess) {
            fs::remove_file(&info.path)?;
            self.telemetry.record_archive_op(ArchiveOp::Compact);
        }
        Ok(excess)
    }
}

/// Lazy frame iterator returned by [`Archive::replay_range`].
pub struct Replay {
    telemetry: TelemetryRegistry,
    lane: u8,
    segments: Vec<SegmentInfo>,
    range: Range<u64>,
    cursor: usize,
    buf: Vec<u8>,
    off: usize,
    loaded: bool,
}

impl Iterator for Replay {
    type Item = io::Result<ReplayFrame>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if !self.loaded {
                let info = self.segments.get(self.cursor)?;
                let _span = self.telemetry.span(Stage::ArchiveReplay);
                match fs::read(&info.path) {
                    Ok(buf) => self.buf = buf,
                    Err(e) => {
                        self.cursor = self.segments.len(); // poison: stop after error
                        return Some(Err(e));
                    }
                }
                self.off = info
                    .footer
                    .as_ref()
                    .map(|f| f.seek_offset(self.range.start) as usize)
                    .unwrap_or(SEGMENT_HEADER_BYTES);
                self.loaded = true;
            }
            let info = &self.segments[self.cursor];
            let valid_end = info.valid_bytes as usize;
            while self.off < valid_end {
                let Some(record) = parse_record(&self.buf, self.off) else {
                    break; // torn tail of an unsealed segment
                };
                self.off = record.end;
                let Some((seq, frame)) = record.frame() else {
                    continue;
                };
                if self.range.contains(&seq) {
                    self.telemetry.record_archive_op(ArchiveOp::Replay);
                    return Some(Ok(ReplayFrame {
                        seq,
                        lane: self.lane,
                        bytes: frame.to_vec(),
                    }));
                }
            }
            self.cursor += 1;
            self.loaded = false;
            self.buf.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{ArchiveConfig, ArchiveWriter};

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cs-archive-reader-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn frame(i: u64) -> Vec<u8> {
        (0..32).map(|b| (b as u64 ^ i) as u8).collect()
    }

    fn small_segments() -> ArchiveConfig {
        ArchiveConfig {
            segment_bytes: 200,
            index_every: 2,
            ..ArchiveConfig::default()
        }
    }

    #[test]
    fn replay_range_filters_and_spans_segments() {
        let root = tmp_root("range");
        let mut w = ArchiveWriter::create(&root, small_segments()).unwrap();
        for seq in 0..30 {
            w.append(1, 0, seq, &frame(seq)).unwrap();
        }
        w.finish().unwrap();
        let (archive, _) = Archive::open(&root).unwrap();
        assert!(archive.segments(1, 0).len() > 2, "rotation happened");
        let frames: Vec<_> = archive
            .replay_range(1, 0, 10..20)
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(frames.len(), 10);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, 10 + i as u64);
            assert_eq!(f.bytes, frame(f.seq));
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn replay_stream_merges_lanes_in_encode_order() {
        let root = tmp_root("merge");
        let mut w = ArchiveWriter::create(&root, small_segments()).unwrap();
        // Interleave two lanes the way the encoder does: lane-minor.
        for seq in 0..8 {
            for lane in 0..2u8 {
                w.append(5, lane, seq, &frame(seq * 2 + lane as u64)).unwrap();
            }
        }
        // A quarantined blob arrives mid-session.
        w.append(5, QUARANTINE_LANE, 0, b"garbage-bytes").unwrap();
        w.finish().unwrap();
        let (archive, _) = Archive::open(&root).unwrap();
        let stream = archive.replay_stream(5).unwrap();
        assert_eq!(stream.len(), 17);
        for seq in 0..8u64 {
            for lane in 0..2u64 {
                assert_eq!(stream[(seq * 2 + lane) as usize], frame(seq * 2 + lane));
            }
        }
        assert_eq!(stream[16], b"garbage-bytes");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn compact_drops_oldest_segments() {
        let root = tmp_root("compact");
        let mut w = ArchiveWriter::create(&root, small_segments()).unwrap();
        for seq in 0..30 {
            w.append(2, 0, seq, &frame(seq)).unwrap();
        }
        w.finish().unwrap();
        let (mut archive, _) = Archive::open(&root).unwrap();
        let before = archive.segments(2, 0).len();
        assert!(before >= 3);
        let removed = archive.compact(2, 0, 2).unwrap();
        assert_eq!(removed, before - 2);
        assert_eq!(archive.segments(2, 0).len(), 2);
        // Reopen from disk: the deleted segments are really gone and the
        // survivors replay.
        let (archive2, _) = Archive::open(&root).unwrap();
        assert_eq!(archive2.segments(2, 0).len(), 2);
        let frames: Vec<_> = archive2
            .replay_range(2, 0, 0..u64::MAX)
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert!(!frames.is_empty());
        assert_eq!(frames.last().unwrap().seq, 29, "newest records survive");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_tolerates_missing_root() {
        let root = tmp_root("missing");
        let (archive, stats) = Archive::open(&root).unwrap();
        assert!(archive.patients().is_empty());
        assert_eq!(stats, RecoveryStats::default());
    }
}
