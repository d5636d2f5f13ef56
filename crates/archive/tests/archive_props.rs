//! Format-level properties of the segment store.
//!
//! Two families:
//!
//! 1. **Round-trip**: arbitrary payload bytes written through the real
//!    writer come back identical through the real reader, across
//!    rotation boundaries, fsync policies, and both sealed and unsealed
//!    (crash-shaped) closes.
//! 2. **Torn tail**: truncating a segment buffer at *every* possible
//!    byte offset (the disk-level analogue of the wire's
//!    every-single-bit-flip test) always yields exactly the complete
//!    prefix of records — never an error, never a partial record, never
//!    a lost complete one.
//! 3. **Mutation**: sealed and unsealed segments with a bit flipped, cut
//!    at every offset, extended with garbage, or with a length field
//!    overwritten (CRC repaired, so the lie reaches the parser) scan to a
//!    typed error or a self-consistent prefix of what was written —
//!    never a panic.

use cs_archive::segment::{
    encode_record, encode_seal_marker, parse_sealed_footer, RECORD_PREFIX_BYTES,
    SEAL_MARKER_BYTES, TAG_FOOTER,
};
use cs_archive::{
    scan_segment, Archive, ArchiveConfig, ArchiveWriter, Footer, FsyncPolicy, SegmentError,
    FRAME_RECORD_OVERHEAD_BYTES, SEGMENT_HEADER_BYTES,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cs-archive-props-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds an in-memory segment buffer with the crate's own encoders.
fn build_segment(payloads: &[Vec<u8>]) -> Vec<u8> {
    let header = cs_archive::SegmentHeader {
        patient: 1,
        lane: 0,
        base_seq: 0,
        capacity: 1 << 20,
    };
    let mut buf = header.encode().to_vec();
    for (seq, payload) in payloads.iter().enumerate() {
        cs_archive::segment::encode_frame_record(seq as u64, payload, &mut buf);
    }
    buf
}

/// Seals [`build_segment`]'s buffer the way the writer does: footer
/// record (one index entry every second frame), then the seal marker.
/// Returns the buffer and the offset of the footer record.
fn build_sealed_segment(payloads: &[Vec<u8>]) -> (Vec<u8>, usize) {
    let mut buf = build_segment(payloads);
    let mut index = Vec::new();
    let mut at = SEGMENT_HEADER_BYTES;
    for (i, p) in payloads.iter().enumerate() {
        if i > 0 && i % 2 == 0 {
            index.push((i as u64 - 1, at as u64));
        }
        at += FRAME_RECORD_OVERHEAD_BYTES + p.len();
    }
    let footer = Footer {
        min_seq: 0,
        max_seq: payloads.len() as u64 - 1,
        record_count: payloads.len() as u64,
        index,
    };
    let footer_off = buf.len();
    encode_record(TAG_FOOTER, &footer.encode(), &mut buf);
    let footer_record_len = (buf.len() - footer_off) as u32;
    buf.extend_from_slice(&encode_seal_marker(footer_record_len));
    (buf, footer_off)
}

/// What any scan of any bytes must satisfy: a typed error that matches
/// the buffer, or a prefix that is self-consistent — accounted to the
/// byte, frames laid out record after record inside it, sealed only when
/// the O(1) tail check agrees, and stable under the truncation a
/// recovering writer performs. Returns the recovered `(seq, frame)`s.
fn scan_is_sound(buf: &[u8]) -> Result<Vec<(u64, Vec<u8>)>, TestCaseError> {
    let sealed = parse_sealed_footer(buf);
    let scan = match scan_segment(buf) {
        Ok(scan) => scan,
        Err(e) => {
            let short = buf.len() < SEGMENT_HEADER_BYTES;
            let expect = if short { SegmentError::TruncatedHeader } else { SegmentError::BadHeader };
            prop_assert_eq!(e, expect);
            return Ok(Vec::new());
        }
    };
    prop_assert_eq!(scan.valid_len + scan.torn_bytes, buf.len());
    let mut at = SEGMENT_HEADER_BYTES;
    for (_, range) in &scan.frames {
        prop_assert_eq!(range.start, at + RECORD_PREFIX_BYTES + 8);
        prop_assert!(range.start <= range.end && range.end + 2 <= scan.valid_len);
        at = range.end + 2;
    }
    match &scan.footer {
        Some(footer) => {
            prop_assert_eq!(scan.valid_len, buf.len());
            prop_assert_eq!(sealed, Some((footer.clone(), at)));
        }
        None => prop_assert_eq!(scan.valid_len, at),
    }
    let again = scan_segment(&buf[..scan.valid_len]).expect("a recovered prefix rescans");
    prop_assert_eq!(again.torn_bytes, 0);
    prop_assert_eq!(&again.frames, &scan.frames);
    prop_assert_eq!(&again.footer, &scan.footer);
    Ok(scan.frames.iter().map(|(seq, range)| (*seq, buf[range.clone()].to_vec())).collect())
}

/// `recovered` is the first `recovered.len()` frames that were written.
fn is_written_prefix(
    recovered: &[(u64, Vec<u8>)],
    payloads: &[Vec<u8>],
) -> Result<(), TestCaseError> {
    prop_assert!(recovered.len() <= payloads.len());
    for (i, (seq, bytes)) in recovered.iter().enumerate() {
        prop_assert_eq!(*seq, i as u64);
        prop_assert_eq!(bytes, &payloads[i]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CRC-16 catches every single-bit error, so one flipped bit anywhere
    /// in a sealed or unsealed segment costs at most the records from the
    /// flip on (or the whole segment, when it lands in the header): what
    /// survives is a prefix of what was written.
    #[test]
    fn a_flipped_bit_leaves_a_written_prefix(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..8),
        seal in any::<bool>(),
        bit in any::<usize>(),
    ) {
        let mut buf = if seal { build_sealed_segment(&payloads).0 } else { build_segment(&payloads) };
        let bit = bit % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        is_written_prefix(&scan_is_sound(&buf)?, &payloads)?;
    }

    /// A sealed segment cut at every offset, and sealed and unsealed ones
    /// with arbitrary bytes appended: the seal no longer ends the buffer,
    /// so the scan falls back to the record walk and recovers every frame
    /// that is still whole.
    #[test]
    fn cuts_and_garbage_tails_leave_the_whole_records(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..8),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let (sealed, footer_off) = build_sealed_segment(&payloads);
        for cut in 0..sealed.len() {
            let recovered = scan_is_sound(&sealed[..cut])?;
            is_written_prefix(&recovered, &payloads)?;
            if cut >= footer_off {
                prop_assert_eq!(recovered.len(), payloads.len(), "cut {} tore only the seal", cut);
            }
        }
        for mut buf in [sealed, build_segment(&payloads)] {
            buf.extend_from_slice(&garbage);
            let recovered = scan_is_sound(&buf)?;
            prop_assert!(recovered.len() >= payloads.len(), "garbage tail cost a whole record");
            is_written_prefix(&recovered[..payloads.len()], &payloads)?;
        }
    }

    /// The two length fields a sealed tail carries, overwritten with
    /// extremes: the footer's `index_len` (record CRC repaired, so the
    /// footer parser itself sees the lie) and the seal marker's
    /// `footer_len`. Neither may size an allocation or an index before it
    /// is checked against the bytes present; every frame survives.
    #[test]
    fn lying_length_fields_cost_only_the_seal(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..8),
        pick in 0_usize..6,
        offset in any::<u32>(),
        lie_about_footer_len in any::<bool>(),
    ) {
        let (mut buf, footer_off) = build_sealed_segment(&payloads);
        let lie = [0, 1, u32::MAX, u32::MAX / 16, buf.len() as u32, offset][pick];
        let marker_off = buf.len() - SEAL_MARKER_BYTES;
        if lie_about_footer_len {
            buf[marker_off..marker_off + 4].copy_from_slice(&lie.to_le_bytes());
        } else {
            let index_len_off = footer_off + RECORD_PREFIX_BYTES + 24;
            buf[index_len_off..index_len_off + 4].copy_from_slice(&lie.to_le_bytes());
            let crc = cs_core::crc16(&buf[footer_off..marker_off - 2]);
            buf[marker_off - 2..marker_off].copy_from_slice(&crc.to_le_bytes());
        }
        let recovered = scan_is_sound(&buf)?;
        prop_assert_eq!(recovered.len(), payloads.len());
        is_written_prefix(&recovered, &payloads)?;
    }

    /// Arbitrary payloads round-trip bit-for-bit through write →
    /// (optionally crash-shaped close) → open → replay, across segment
    /// rotations.
    #[test]
    fn arbitrary_payloads_round_trip(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300),
            1..40,
        ),
        seal in any::<bool>(),
        segment_bytes in 128_u32..2048,
    ) {
        let root = tmp_root("roundtrip");
        let config = ArchiveConfig {
            segment_bytes,
            index_every: 4,
            fsync: FsyncPolicy::Never,
            ..ArchiveConfig::default()
        };
        let mut w = ArchiveWriter::create(&root, config).unwrap();
        for (seq, payload) in payloads.iter().enumerate() {
            w.append(1, 0, seq as u64, payload).unwrap();
        }
        if seal {
            w.finish().unwrap();
        } else {
            drop(w); // crash-shaped: unsealed tail
        }
        let (archive, stats) = Archive::open(&root).unwrap();
        prop_assert_eq!(stats.torn_bytes, 0, "clean close tears nothing");
        let frames: Vec<_> = archive
            .replay_range(1, 0, 0..u64::MAX)
            .unwrap()
            .collect::<std::io::Result<Vec<_>>>()
            .unwrap();
        prop_assert_eq!(frames.len(), payloads.len());
        for (i, f) in frames.iter().enumerate() {
            prop_assert_eq!(f.seq, i as u64);
            prop_assert_eq!(&f.bytes, &payloads[i]);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The crash-recovery property, exhaustively: truncation at EVERY
    /// byte offset of a segment yields exactly the complete record
    /// prefix. Small records keep the offset count (and runtime) modest
    /// while still crossing every field boundary of every record.
    #[test]
    fn truncation_at_every_offset_yields_complete_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..24),
            1..8,
        ),
    ) {
        let buf = build_segment(&payloads);
        // Record end offsets: boundary[i] = end of record i.
        let mut boundaries = Vec::with_capacity(payloads.len() + 1);
        let mut at = SEGMENT_HEADER_BYTES;
        boundaries.push(at);
        for p in &payloads {
            at += FRAME_RECORD_OVERHEAD_BYTES + p.len();
            boundaries.push(at);
        }
        prop_assert_eq!(at, buf.len());

        for cut in 0..=buf.len() {
            let scan = match scan_segment(&buf[..cut]) {
                Ok(scan) => scan,
                Err(e) => {
                    // Only a headerless stub may error.
                    prop_assert!(cut < SEGMENT_HEADER_BYTES, "cut {cut}: {e}");
                    prop_assert_eq!(e, SegmentError::TruncatedHeader);
                    continue;
                }
            };
            // Expected surviving records: those fully inside the cut.
            let complete = boundaries[1..].iter().filter(|&&b| b <= cut).count();
            prop_assert_eq!(
                scan.frames.len(),
                complete,
                "cut at {} of {}",
                cut,
                buf.len()
            );
            prop_assert_eq!(scan.valid_len, boundaries[complete]);
            prop_assert_eq!(scan.torn_bytes, cut - boundaries[complete]);
            for (i, (seq, range)) in scan.frames.iter().enumerate() {
                prop_assert_eq!(*seq, i as u64);
                prop_assert_eq!(&buf[range.clone()], &payloads[i][..]);
            }
        }
    }

    /// Torn tails on disk: write through the real writer, truncate the
    /// real file at an arbitrary offset, and reopen — the writer resumes
    /// with exactly the complete prefix, and appending afterwards works.
    #[test]
    fn on_disk_truncation_recovers_and_resumes(
        npayloads in 1_usize..12,
        cut_back in 0_usize..200,
    ) {
        let root = tmp_root("disk-truncate");
        let mut w = ArchiveWriter::create(&root, ArchiveConfig {
            fsync: FsyncPolicy::Never,
            ..ArchiveConfig::default()
        }).unwrap();
        let payload = |i: u64| -> Vec<u8> { (0..50).map(|b| ((b as u64 * 31) ^ i) as u8).collect() };
        for seq in 0..npayloads as u64 {
            w.append(0, 0, seq, &payload(seq)).unwrap();
        }
        drop(w);
        // Truncate the single segment file somewhere behind its end.
        let seg = archive_file(&root);
        let len = std::fs::metadata(&seg).unwrap().len();
        let cut = len.saturating_sub(cut_back as u64).max(SEGMENT_HEADER_BYTES as u64);
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let (mut w, stats) = ArchiveWriter::open(&root, ArchiveConfig::default()).unwrap();
        let record_len = FRAME_RECORD_OVERHEAD_BYTES as u64 + 50;
        let expect = ((cut - SEGMENT_HEADER_BYTES as u64) / record_len) as usize;
        prop_assert_eq!(stats.frames_recovered as usize, expect);
        // Resume appending after the survivors.
        w.append(0, 0, expect as u64, &payload(expect as u64)).unwrap();
        w.finish().unwrap();
        let (archive, _) = Archive::open(&root).unwrap();
        let frames: Vec<_> = archive
            .replay_range(0, 0, 0..u64::MAX)
            .unwrap()
            .collect::<std::io::Result<Vec<_>>>()
            .unwrap();
        prop_assert_eq!(frames.len(), expect + 1);
        for (i, f) in frames.iter().enumerate() {
            prop_assert_eq!(&f.bytes, &payload(i as u64));
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// The single segment file a one-lane, non-rotated archive holds.
fn archive_file(root: &Path) -> PathBuf {
    root.join("p00000000").join("l000").join("seg000000.csa")
}
