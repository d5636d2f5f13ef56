//! # cs-archive — durable segmented store for encoded CS-ECG packets
//!
//! The paper's mote→phone pipeline is decode-and-forget; a monitoring
//! *service* must keep the signal. The cheap thing to keep is the
//! **compressed representation**: encoded wire frames are already CR
//! ≈ 50 %+ smaller than raw samples, and the supervised fleet decoder
//! ([`cs_core::run_fleet`]) can re-derive samples, concealment and
//! fault accounting from them at any time. So this crate stores exactly
//! the bytes that crossed the wire and decodes on read.
//!
//! ## Shape
//!
//! * **Append-only segments** per `(patient, lane)` —
//!   `p<patient>/l<lane>/seg<n>.csa`, rotated at a configurable size
//!   (default 4 MiB). Every record is length-prefixed and guarded by the
//!   same CRC-16/CCITT-FALSE as the wire frame it contains.
//! * **Crash tolerance by construction**: a killed writer leaves at most
//!   one torn record at the tail of one segment per lane. `open` scans
//!   unsealed tails and truncates the torn record instead of erroring —
//!   pinned by a proptest that truncates an archive at *every* byte
//!   offset.
//! * **Sealed segments carry a footer** (min/max seq, record count,
//!   sparse seq→offset index) found in O(1) from the file tail, so
//!   reopening a cleanly closed archive scans nothing and
//!   [`Archive::replay_range`] seeks without walking every record.
//! * **Write-before-decode**: [`ArchiveSink`] plugs into
//!   [`cs_core::run_fleet`] ahead of frame validation, so
//!   even traffic the pipeline rejects is preserved byte-for-byte under
//!   the reserved [`QUARANTINE_LANE`].
//! * **Retention** is [`Archive::compact`] (keep the newest N segments).
//!
//! ```no_run
//! use cs_archive::{Archive, ArchiveConfig, ArchiveWriter};
//!
//! let mut w = ArchiveWriter::create("/var/lib/cs-ecg", ArchiveConfig::default())?;
//! w.append(0, 0, 0, &[0xC5, 0x01 /* ... wire frame ... */])?;
//! w.finish()?;
//!
//! let (archive, recovery) = Archive::open("/var/lib/cs-ecg")?;
//! assert_eq!(recovery.torn_tails, 0);
//! for frame in archive.replay_range(0, 0, 0..u64::MAX)? {
//!     let frame = frame?;
//!     // feed frame.bytes back through the fleet decoder
//! }
//! # std::io::Result::Ok(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layout;
pub mod reader;
pub mod segment;
pub mod sink;
pub mod writer;

pub use reader::{Archive, Replay, ReplayFrame, SegmentInfo};
pub use segment::{
    scan_segment, Footer, SegmentError, SegmentHeader, SegmentScan, FRAME_RECORD_OVERHEAD_BYTES,
    RECORD_OVERHEAD_BYTES, RECORD_PREFIX_BYTES, SEAL_MARKER_BYTES, SEGMENT_HEADER_BYTES,
};
pub use sink::ArchiveSink;
pub use writer::{
    ArchiveConfig, ArchiveWriter, FsyncPolicy, RecoveryStats, DEFAULT_INDEX_EVERY,
    DEFAULT_SEGMENT_BYTES,
};

/// Reserved lane for frames that failed to parse on arrival: the sink
/// archives their exact bytes here, sequenced by arrival order, so a
/// post-mortem can replay the damage the wire actually delivered.
/// (Defined by `cs_core` so wire producers and consumers agree on the
/// reservation; re-exported here for the archive-facing callers.)
pub use cs_core::QUARANTINE_LANE;
