//! The bridge from the fleet engine to the store: a
//! [`cs_core::FrameSink`] implementation that routes each arrived frame
//! to its `(patient, lane)` segment sequence.

use crate::reader::Archive;
use crate::writer::{ArchiveConfig, ArchiveWriter, RecoveryStats};
use crate::QUARANTINE_LANE;
use cs_core::{parse_frame, FrameSink};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Write-before-decode sink for [`cs_core::run_fleet`].
///
/// Each frame is given a light parse to learn its lane and sequence
/// number for placement. Frames that don't parse — exactly the traffic
/// the ingest path will reject and quarantine — still get archived
/// byte-for-byte under [`QUARANTINE_LANE`], sequenced by a per-patient
/// arrival counter, so a post-mortem can replay the complete arrival
/// history including the damage. (Lane `0xFF` is reserved for this;
/// a parseable frame claiming it is archived there too.)
pub struct ArchiveSink {
    writer: ArchiveWriter,
    quarantine_seqs: HashMap<u32, u64>,
}

impl ArchiveSink {
    /// Creates a sink over a fresh (or existing-but-unscanned) root.
    pub fn create(root: impl Into<PathBuf>, config: ArchiveConfig) -> io::Result<Self> {
        Ok(ArchiveSink {
            writer: ArchiveWriter::create(root, config)?,
            quarantine_seqs: HashMap::new(),
        })
    }

    /// Reopens an existing root, recovering crashed tails (see
    /// [`ArchiveWriter::open`]) and resuming each patient's quarantine
    /// arrival counter past what is already stored.
    pub fn open(
        root: impl Into<PathBuf>,
        config: ArchiveConfig,
    ) -> io::Result<(Self, RecoveryStats)> {
        let root = root.into();
        let (writer, stats) = ArchiveWriter::open(&root, config)?;
        let mut quarantine_seqs = HashMap::new();
        let (archive, _) = Archive::open(&root)?;
        for patient in archive.patients() {
            let segments = archive.segments(patient, QUARANTINE_LANE);
            if let Some(max) = segments
                .iter()
                .filter(|s| s.records > 0)
                .map(|s| s.max_seq)
                .max()
            {
                quarantine_seqs.insert(patient, max + 1);
            }
        }
        Ok((
            ArchiveSink {
                writer,
                quarantine_seqs,
            },
            stats,
        ))
    }

    /// The archive root directory.
    pub fn root(&self) -> &Path {
        self.writer.root()
    }

    /// Seals every open segment; the archive reopens scan-free.
    pub fn finish(self) -> io::Result<()> {
        self.writer.finish()
    }

    /// Forces everything buffered to disk without sealing.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.sync()
    }
}

impl FrameSink for ArchiveSink {
    fn append_frame(&mut self, stream: usize, bytes: &[u8]) -> io::Result<()> {
        let patient = u32::try_from(stream).unwrap_or(u32::MAX);
        match parse_frame(bytes) {
            Ok((info, _)) if info.lane != QUARANTINE_LANE => {
                self.writer.append(patient, info.lane, info.index, bytes)
            }
            _ => {
                let seq = self.quarantine_seqs.entry(patient).or_insert(0);
                let s = *seq;
                *seq += 1;
                self.writer.append(patient, QUARANTINE_LANE, s, bytes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cs-archive-sink-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn unparseable_frames_land_in_quarantine_lane() {
        let root = tmp_root("quarantine");
        let mut sink = ArchiveSink::create(&root, ArchiveConfig::default()).unwrap();
        sink.append_frame(0, b"not a frame at all").unwrap();
        sink.append_frame(0, &[0xC5, 0x01, 0xFF]).unwrap(); // short
        sink.finish().unwrap();
        let (archive, _) = Archive::open(&root).unwrap();
        assert_eq!(archive.lanes_of(0), vec![QUARANTINE_LANE]);
        let frames: Vec<_> = archive
            .replay_range(0, QUARANTINE_LANE, 0..u64::MAX)
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].bytes, b"not a frame at all");
        assert_eq!(frames[0].seq, 0);
        assert_eq!(frames[1].seq, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn quarantine_counter_resumes_on_reopen() {
        let root = tmp_root("resume");
        let mut sink = ArchiveSink::create(&root, ArchiveConfig::default()).unwrap();
        sink.append_frame(2, b"bad-one").unwrap();
        sink.finish().unwrap();
        let (mut sink, _) = ArchiveSink::open(&root, ArchiveConfig::default()).unwrap();
        sink.append_frame(2, b"bad-two").unwrap();
        sink.finish().unwrap();
        let (archive, _) = Archive::open(&root).unwrap();
        let frames: Vec<_> = archive
            .replay_range(2, QUARANTINE_LANE, 0..u64::MAX)
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].seq, 1, "counter resumed, not reset");
        assert_eq!(frames[1].bytes, b"bad-two");
        fs::remove_dir_all(&root).unwrap();
    }
}
