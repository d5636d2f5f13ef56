//! The append path: per-patient/per-lane segment files with rotation,
//! sealing, fsync policy, and crash-resumable `open`.

use crate::layout::{lane_dir, segment_path, walk_lanes};
use crate::segment::{
    encode_frame_record, encode_record, encode_seal_marker, frame_record_len, scan_segment,
    Footer, SegmentHeader, SEGMENT_HEADER_BYTES, TAG_FOOTER,
};
use cs_telemetry::{ArchiveOp, Stage, TelemetryRegistry};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Default segment rotation threshold: 4 MiB.
pub const DEFAULT_SEGMENT_BYTES: u32 = 4 << 20;
/// Default sparse-index cadence: one entry every 32 records.
pub const DEFAULT_INDEX_EVERY: u32 = 32;

/// When appended records reach the disk.
///
/// The trade-off is the usual one: `Always` bounds loss to the torn tail
/// of the in-flight record at the cost of one `fdatasync` per append;
/// `EveryN` amortizes that to one sync per `n` records and risks losing
/// up to `n − 1` synced-to-page-cache records **only on power loss** (a
/// killed process loses nothing extra — the page cache survives process
/// death); `Never` leaves scheduling entirely to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record.
    Always,
    /// `fdatasync` after every `n` records (clamped to ≥ 1), and always
    /// at seal.
    EveryN(u32),
    /// Only the implicit syncs at seal and close.
    Never,
}

impl FsyncPolicy {
    fn cadence(self) -> Option<u32> {
        match self {
            FsyncPolicy::Always => Some(1),
            FsyncPolicy::EveryN(n) => Some(n.max(1)),
            FsyncPolicy::Never => None,
        }
    }
}

/// Writer-side configuration.
#[derive(Debug, Clone)]
pub struct ArchiveConfig {
    /// Rotation threshold: a segment is sealed once the next record
    /// would push it past this many bytes. A record larger than the
    /// threshold still gets written (in a segment of its own).
    pub segment_bytes: u32,
    /// Sparse-index cadence: one `(running max seq, offset)` entry every
    /// this many records.
    pub index_every: u32,
    /// Durability policy for appends.
    pub fsync: FsyncPolicy,
    /// Telemetry sink for `cs_archive_total` counters and
    /// [`Stage::ArchiveAppend`] spans; pass
    /// [`TelemetryRegistry::disabled`] for zero overhead.
    pub telemetry: TelemetryRegistry,
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        ArchiveConfig {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            index_every: DEFAULT_INDEX_EVERY,
            fsync: FsyncPolicy::EveryN(64),
            telemetry: TelemetryRegistry::disabled(),
        }
    }
}

/// What `ArchiveWriter::open` / `Archive::open` found while recovering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Unsealed tail segments that needed a full scan.
    pub segments_scanned: usize,
    /// Segments whose tail held a torn (incomplete or corrupt) record.
    pub torn_tails: usize,
    /// Total bytes dropped as torn tails.
    pub torn_bytes: u64,
    /// Complete frame records found in scanned segments.
    pub frames_recovered: u64,
}

struct OpenSegment {
    file: File,
    bytes: u64,
    records: u64,
    min_seq: u64,
    max_seq: u64,
    index: Vec<(u64, u64)>,
    appends_since_sync: u32,
}

struct LaneWriter {
    dir: PathBuf,
    next_index: u64,
    current: Option<OpenSegment>,
}

/// Append-only writer over a directory tree of segment files.
///
/// One instance owns a whole archive root; appends fan out to
/// per-`(patient, lane)` segment sequences. Dropping the writer without
/// [`ArchiveWriter::finish`] leaves tail segments unsealed — exactly the
/// state a crash leaves — and `open` recovers from it.
pub struct ArchiveWriter {
    root: PathBuf,
    config: ArchiveConfig,
    lanes: std::collections::BTreeMap<(u32, u8), LaneWriter>,
    scratch: Vec<u8>,
}

impl ArchiveWriter {
    /// Creates (or reuses) the archive root for appending. Existing
    /// segments are left untouched until a lane they belong to sees an
    /// append — use [`ArchiveWriter::open`] to resume into existing
    /// lanes with recovery.
    pub fn create(root: impl Into<PathBuf>, config: ArchiveConfig) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ArchiveWriter {
            root,
            config,
            lanes: std::collections::BTreeMap::new(),
            scratch: Vec::new(),
        })
    }

    /// Opens an existing archive root for continued appending.
    ///
    /// For every lane, the highest-numbered segment is examined: a
    /// sealed segment stays immutable (appends rotate past it); an
    /// unsealed one — the signature of a crashed or killed writer — is
    /// recovery-scanned, **truncated to its last complete record**, and
    /// resumed in place. A newest segment shorter than its header — a
    /// writer killed between creating the file and writing the header —
    /// is removed and counted as a torn tail; its index is reused.
    pub fn open(root: impl Into<PathBuf>, config: ArchiveConfig) -> io::Result<(Self, RecoveryStats)> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let mut writer = ArchiveWriter {
            root: root.clone(),
            config,
            lanes: std::collections::BTreeMap::new(),
            scratch: Vec::new(),
        };
        let mut stats = RecoveryStats::default();
        for (patient, lane, dir, segments) in walk_lanes(&root)? {
            let Some(&last_index) = segments.last() else {
                continue;
            };
            let path = segment_path(&dir, last_index);
            let buf = fs::read(&path)?;
            if buf.len() < SEGMENT_HEADER_BYTES {
                // Killed between creating the newest segment and writing
                // its header: it never held a record. Drop it and create
                // it afresh on the lane's next append.
                writer.config.telemetry.record_archive_op(ArchiveOp::TornTail);
                stats.torn_tails += 1;
                stats.torn_bytes += buf.len() as u64;
                fs::remove_file(&path)?;
                writer.lanes.insert(
                    (patient, lane),
                    LaneWriter {
                        dir,
                        next_index: last_index,
                        current: None,
                    },
                );
                continue;
            }
            let scan = scan_segment(&buf).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            writer.config.telemetry.record_archive_op(ArchiveOp::Recover);
            stats.segments_scanned += 1;
            stats.frames_recovered += scan.frames.len() as u64;
            if scan.torn_bytes > 0 {
                writer.config.telemetry.record_archive_op(ArchiveOp::TornTail);
                stats.torn_tails += 1;
                stats.torn_bytes += scan.torn_bytes as u64;
            }
            let lane_writer = if scan.footer.is_some() {
                // Cleanly sealed: immutable; next append starts a fresh
                // segment.
                LaneWriter {
                    dir,
                    next_index: last_index + 1,
                    current: None,
                }
            } else {
                // Unsealed tail: truncate the torn bytes and resume.
                let file = OpenOptions::new().read(true).write(true).open(&path)?;
                file.set_len(scan.valid_len as u64)?;
                let mut file = file;
                file.seek(SeekFrom::End(0))?;
                let index_every = writer.config.index_every.max(1) as u64;
                let mut index = Vec::new();
                let mut running_max = 0u64;
                let mut min_seq = u64::MAX;
                let mut max_seq = 0u64;
                for (r, (seq, range)) in scan.frames.iter().enumerate() {
                    if r > 0 && (r as u64).is_multiple_of(index_every) {
                        let record_off = range.start - crate::segment::RECORD_PREFIX_BYTES - 8;
                        index.push((running_max, record_off as u64));
                    }
                    running_max = running_max.max(*seq);
                    min_seq = min_seq.min(*seq);
                    max_seq = max_seq.max(*seq);
                }
                LaneWriter {
                    dir,
                    next_index: last_index,
                    current: Some(OpenSegment {
                        file,
                        bytes: scan.valid_len as u64,
                        records: scan.frames.len() as u64,
                        min_seq,
                        max_seq,
                        index,
                        appends_since_sync: 0,
                    }),
                }
            };
            writer.lanes.insert((patient, lane), lane_writer);
        }
        Ok((writer, stats))
    }

    /// The archive root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Appends one wire frame for `(patient, lane)` under sequence
    /// number `seq`, rotating the segment when full.
    pub fn append(&mut self, patient: u32, lane: u8, seq: u64, frame: &[u8]) -> io::Result<()> {
        let config = &self.config;
        let _span = config.telemetry.span(Stage::ArchiveAppend);
        let root = &self.root;
        let writer = self
            .lanes
            .entry((patient, lane))
            .or_insert_with(|| LaneWriter {
                dir: lane_dir(root, patient, lane),
                next_index: 0,
                current: None,
            });

        let record_len = frame_record_len(frame.len()) as u64;
        let needs_rotation = writer
            .current
            .as_ref()
            .is_some_and(|seg| seg.records > 0 && seg.bytes + record_len > config.segment_bytes as u64);
        if needs_rotation {
            Self::seal_lane(writer, config, &mut self.scratch)?;
        }
        let seg = match &mut writer.current {
            Some(seg) => seg,
            vacant @ None => {
                fs::create_dir_all(&writer.dir)?;
                let path = segment_path(&writer.dir, writer.next_index);
                let mut file = File::create(&path)?;
                let header = SegmentHeader {
                    patient,
                    lane,
                    base_seq: seq,
                    capacity: config.segment_bytes,
                };
                file.write_all(&header.encode())?;
                vacant.insert(OpenSegment {
                    file,
                    bytes: SEGMENT_HEADER_BYTES as u64,
                    records: 0,
                    min_seq: u64::MAX,
                    max_seq: 0,
                    index: Vec::new(),
                    appends_since_sync: 0,
                })
            }
        };

        let index_every = config.index_every.max(1) as u64;
        if seg.records > 0 && seg.records.is_multiple_of(index_every) {
            let running_max = seg.max_seq;
            seg.index.push((running_max, seg.bytes));
        }
        self.scratch.clear();
        encode_frame_record(seq, frame, &mut self.scratch);
        seg.file.write_all(&self.scratch)?;
        seg.bytes += self.scratch.len() as u64;
        seg.records += 1;
        seg.min_seq = seg.min_seq.min(seq);
        seg.max_seq = seg.max_seq.max(seq);
        config.telemetry.record_archive_op(ArchiveOp::Append);

        if let Some(cadence) = config.fsync.cadence() {
            seg.appends_since_sync += 1;
            if seg.appends_since_sync >= cadence {
                seg.file.sync_data()?;
                seg.appends_since_sync = 0;
            }
        }
        Ok(())
    }

    fn seal_lane(
        writer: &mut LaneWriter,
        config: &ArchiveConfig,
        scratch: &mut Vec<u8>,
    ) -> io::Result<()> {
        let Some(mut seg) = writer.current.take() else {
            return Ok(());
        };
        let footer = Footer {
            min_seq: seg.min_seq,
            max_seq: seg.max_seq,
            record_count: seg.records,
            index: std::mem::take(&mut seg.index),
        };
        scratch.clear();
        encode_record(TAG_FOOTER, &footer.encode(), scratch);
        let footer_record_len = scratch.len() as u32;
        scratch.extend_from_slice(&encode_seal_marker(footer_record_len));
        seg.file.write_all(scratch)?;
        // Sealing always syncs: the footer is the cheap insurance that
        // makes every earlier record in the segment durable and O(1) to
        // reopen.
        seg.file.sync_data()?;
        config.telemetry.record_archive_op(ArchiveOp::Seal);
        writer.next_index += 1;
        Ok(())
    }

    /// Forces buffered data for every lane to disk without sealing.
    pub fn sync(&mut self) -> io::Result<()> {
        for writer in self.lanes.values_mut() {
            if let Some(seg) = writer.current.as_mut() {
                seg.file.sync_data()?;
                seg.appends_since_sync = 0;
            }
        }
        Ok(())
    }

    /// Seals every open segment and consumes the writer. Archives closed
    /// this way reopen without any recovery scan.
    pub fn finish(mut self) -> io::Result<()> {
        for writer in self.lanes.values_mut() {
            Self::seal_lane(writer, &self.config, &mut self.scratch)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::Archive;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cs-archive-writer-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn frame(i: u64) -> Vec<u8> {
        (0..40).map(|b| (b as u64 * 3 + i) as u8).collect()
    }

    #[test]
    fn rotation_seals_and_reopen_skips_scan() {
        let root = tmp_root("rotate");
        let config = ArchiveConfig {
            segment_bytes: 256,
            ..ArchiveConfig::default()
        };
        let mut w = ArchiveWriter::create(&root, config.clone()).unwrap();
        for seq in 0..20 {
            w.append(1, 0, seq, &frame(seq)).unwrap();
        }
        w.finish().unwrap();
        let (archive, stats) = Archive::open(&root).unwrap();
        assert_eq!(stats.segments_scanned, 0, "all segments sealed");
        let frames: Vec<_> = archive
            .replay_range(1, 0, 0..u64::MAX)
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(frames.len(), 20);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
            assert_eq!(f.bytes, frame(i as u64));
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unsealed_reopen_resumes_without_loss() {
        let root = tmp_root("resume");
        let mut w = ArchiveWriter::create(&root, ArchiveConfig::default()).unwrap();
        for seq in 0..7 {
            w.append(3, 1, seq, &frame(seq)).unwrap();
        }
        drop(w); // simulate a crash: no finish, tail unsealed
        let (mut w, stats) = ArchiveWriter::open(&root, ArchiveConfig::default()).unwrap();
        assert_eq!(stats.segments_scanned, 1);
        assert_eq!(stats.torn_tails, 0);
        assert_eq!(stats.frames_recovered, 7);
        for seq in 7..12 {
            w.append(3, 1, seq, &frame(seq)).unwrap();
        }
        w.finish().unwrap();
        let (archive, _) = Archive::open(&root).unwrap();
        let frames: Vec<_> = archive
            .replay_range(3, 1, 0..u64::MAX)
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(frames.len(), 12);
        assert!(frames.iter().enumerate().all(|(i, f)| f.seq == i as u64));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let root = tmp_root("torn");
        let mut w = ArchiveWriter::create(&root, ArchiveConfig::default()).unwrap();
        for seq in 0..5 {
            w.append(9, 0, seq, &frame(seq)).unwrap();
        }
        drop(w);
        // Tear the tail: append half a record's worth of garbage.
        let (_, _, dir, segments) = walk_lanes(&root).unwrap().pop().unwrap();
        let path = segment_path(&dir, *segments.last().unwrap());
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0xAB; 13]).unwrap();
        drop(file);
        let (mut w, stats) = ArchiveWriter::open(&root, ArchiveConfig::default()).unwrap();
        assert_eq!(stats.torn_tails, 1);
        assert_eq!(stats.torn_bytes, 13);
        assert_eq!(stats.frames_recovered, 5);
        w.append(9, 0, 5, &frame(5)).unwrap();
        w.finish().unwrap();
        let (archive, _) = Archive::open(&root).unwrap();
        let frames: Vec<_> = archive
            .replay_range(9, 0, 0..u64::MAX)
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(frames.len(), 6);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_segment_creation_is_dropped_on_open() {
        let root = tmp_root("torn-create");
        let config = ArchiveConfig {
            segment_bytes: 256,
            ..ArchiveConfig::default()
        };
        let mut w = ArchiveWriter::create(&root, config.clone()).unwrap();
        for seq in 0..3 {
            w.append(4, 2, seq, &frame(seq)).unwrap();
        }
        w.finish().unwrap();
        // A writer killed after `File::create` and before the header write
        // leaves the next segment empty.
        let (_, _, dir, segments) = walk_lanes(&root).unwrap().pop().unwrap();
        assert_eq!(segments, vec![0]);
        let torn = segment_path(&dir, 1);
        File::create(&torn).unwrap();

        let (archive, stats) = Archive::open(&root).unwrap();
        assert_eq!((stats.torn_tails, stats.torn_bytes), (1, 0));
        assert_eq!(archive.segments(4, 2).len(), 1);
        assert_eq!(archive.total_records(), 3);
        assert!(torn.exists(), "the reader leaves the files as they are");

        let (mut w, stats) = ArchiveWriter::open(&root, config).unwrap();
        assert_eq!((stats.torn_tails, stats.torn_bytes), (1, 0));
        assert!(!torn.exists(), "the writer removes the torn segment");
        w.append(4, 2, 3, &frame(3)).unwrap();
        w.finish().unwrap();
        let (_, _, _, segments) = walk_lanes(&root).unwrap().pop().unwrap();
        assert_eq!(segments, vec![0, 1], "the torn index is reused");
        let (archive, stats) = Archive::open(&root).unwrap();
        assert_eq!(stats, RecoveryStats::default());
        let seqs: Vec<u64> = archive
            .replay_range(4, 2, 0..u64::MAX)
            .unwrap()
            .map(|f| f.unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);

        // Only the newest segment may be torn this way: a short header
        // anywhere before it is damage, not a crash.
        fs::write(segment_path(&dir, 0), [0u8; 5]).unwrap();
        assert!(Archive::open(&root).is_err());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fsync_policies_all_produce_readable_archives() {
        for (tag, policy) in [
            ("always", FsyncPolicy::Always),
            ("everyn", FsyncPolicy::EveryN(4)),
            ("never", FsyncPolicy::Never),
        ] {
            let root = tmp_root(&format!("fsync-{tag}"));
            let config = ArchiveConfig {
                fsync: policy,
                ..ArchiveConfig::default()
            };
            let mut w = ArchiveWriter::create(&root, config).unwrap();
            for seq in 0..10 {
                w.append(0, 0, seq, &frame(seq)).unwrap();
            }
            w.finish().unwrap();
            let (archive, _) = Archive::open(&root).unwrap();
            assert_eq!(
                archive
                    .replay_range(0, 0, 0..u64::MAX)
                    .unwrap()
                    .count(),
                10
            );
            fs::remove_dir_all(&root).unwrap();
        }
    }
}
