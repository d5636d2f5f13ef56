//! Property tests: socket deframing is equivalent to the in-process path.
//!
//! The contract under test is the tentpole's core robustness claim: a
//! valid multi-frame byte stream split at **any** sequence of chunk
//! boundaries — one byte at a time through jumbo coalesced reads —
//! reassembles into exactly the frames that were written, and
//! [`cs_core::parse_frame`] sees byte-identical input to what an
//! in-process caller would have passed. Mid-frame corruption damages
//! exactly the record it lands in (the engine's CRC rejects it);
//! length-prefix corruption costs bounded, fully-accounted bytes and
//! never desyncs the rest of the session.
//!
//! Arbitrary bytes — no valid stream underneath at all — must still cost
//! nothing but bounded, fully-accounted records and skipped bytes.
//!
//! The handshake and control records (`cs_ingest::proto`) are the other
//! bytes a socket hands this crate before any frame: the last property
//! mutates them every way a hostile or broken peer can and requires a
//! typed [`ProtoError`] or the original value — never a panic, never a
//! different value.

use cs_core::{crc16, parse_frame, FRAME_MAGIC, FRAME_VERSION, HEADER_BYTES};
use cs_ingest::{
    encode_control, encode_hello, encode_record, hello_len, parse_control, parse_hello, Control,
    ControlCode, Deframer, Hello, LaneResume, ProtoError, CONTROL_BYTES, HELLO_FIXED_BYTES,
    HELLO_LANE_BYTES, MAX_FRAME_BYTES, MAX_HELLO_BYTES, MIN_FRAME_BYTES, RECORD_PREFIX_BYTES,
};
use proptest::prelude::*;

/// Hand-assembles a valid wire frame (kind `R`, full payload bits).
fn make_frame(lane: u8, seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len() + 2);
    frame.push(FRAME_MAGIC);
    frame.push(FRAME_VERSION);
    frame.push(lane);
    frame.push(0x52); // Reference
    frame.extend_from_slice(&seq.to_le_bytes());
    let bits = (payload.len() * 8) as u32;
    frame.extend_from_slice(&bits.to_le_bytes()[..3]);
    frame.extend_from_slice(payload);
    let crc = crc16(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Feeds `bytes` through a deframer in the given chunk sizes (cycled),
/// returning every record yielded.
fn reassemble(bytes: &[u8], chunks: &[usize]) -> (Vec<Vec<u8>>, Deframer) {
    let mut deframer = Deframer::new();
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut chunk_idx = 0usize;
    while offset < bytes.len() {
        let want = chunks[chunk_idx % chunks.len()].max(1);
        chunk_idx += 1;
        let spare = deframer.spare();
        let n = want.min(spare.len()).min(bytes.len() - offset);
        assert!(n > 0, "a drained deframer always has spare room");
        spare[..n].copy_from_slice(&bytes[offset..offset + n]);
        deframer.commit(n);
        offset += n;
        while let Some(record) = deframer.next_frame() {
            records.push(record.to_vec());
        }
    }
    (records, deframer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any chunking of a valid stream yields the frames verbatim, and
    /// parsing them gives results identical to the in-process path.
    #[test]
    fn any_chunking_is_equivalent_to_in_process(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..600),
            1..8,
        ),
        chunks in proptest::collection::vec(1usize..1500, 1..40),
    ) {
        let frames: Vec<Vec<u8>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| make_frame((i % 3) as u8, i as u32, p))
            .collect();
        let mut wire = Vec::new();
        for frame in &frames {
            encode_record(frame, &mut wire);
        }
        let (records, deframer) = reassemble(&wire, &chunks);
        prop_assert_eq!(&records, &frames);
        prop_assert_eq!(deframer.stats().resyncs, 0);
        prop_assert_eq!(deframer.pending(), 0);
        for (record, frame) in records.iter().zip(&frames) {
            let socket_parse = parse_frame(record).unwrap();
            let direct_parse = parse_frame(frame).unwrap();
            prop_assert_eq!(socket_parse.0, direct_parse.0, "header fields must match");
            prop_assert_eq!(socket_parse.1, direct_parse.1, "payload bytes must match");
        }
    }

    /// A bit flip inside a frame body corrupts exactly that record: all
    /// other records parse identically to the in-process path, and the
    /// damaged one is rejected by the frame CRC (the engine's job), not
    /// by the deframer.
    #[test]
    fn mid_frame_corruption_damages_exactly_one_record(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 4..200),
            2..6,
        ),
        chunks in proptest::collection::vec(1usize..700, 1..20),
        victim_pick in any::<u16>(),
        offset_pick in any::<u16>(),
        bit in 0u8..8,
    ) {
        let frames: Vec<Vec<u8>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| make_frame(0, i as u32, p))
            .collect();
        let victim = victim_pick as usize % frames.len();
        let mut wire = Vec::new();
        let mut victim_span = 0..0;
        for (i, frame) in frames.iter().enumerate() {
            let start = wire.len();
            encode_record(frame, &mut wire);
            if i == victim {
                // Frame body only, past the magic byte: the length
                // prefix and the magic are boundary signal, and damage
                // there takes the (bounded, accounted) resync path
                // covered by the next property.
                victim_span = start + RECORD_PREFIX_BYTES + 1..wire.len();
            }
        }
        let flip_at = victim_span.start + offset_pick as usize % victim_span.len();
        wire[flip_at] ^= 1 << bit;

        let (records, deframer) = reassemble(&wire, &chunks);
        prop_assert_eq!(records.len(), frames.len(), "boundaries survive body damage");
        prop_assert_eq!(deframer.stats().resyncs, 0);
        for (i, (record, frame)) in records.iter().zip(&frames).enumerate() {
            if i == victim {
                prop_assert!(parse_frame(record).is_err(), "CRC must reject the damage");
            } else {
                prop_assert_eq!(record, frame, "undamaged record {} must be verbatim", i);
            }
        }
    }

    /// A bit flip in a length prefix never desyncs the stream: every
    /// byte is yielded, skipped, or pending, records before the victim
    /// are untouched, and the deframer keeps making progress.
    #[test]
    fn prefix_corruption_is_bounded_and_accounted(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 4..200),
            2..6,
        ),
        chunks in proptest::collection::vec(1usize..700, 1..20),
        victim_pick in any::<u16>(),
        bit in 0u8..16,
    ) {
        let frames: Vec<Vec<u8>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| make_frame(0, i as u32, p))
            .collect();
        let victim = victim_pick as usize % frames.len();
        let mut wire = Vec::new();
        let mut prefix_at = 0usize;
        for (i, frame) in frames.iter().enumerate() {
            if i == victim {
                prefix_at = wire.len();
            }
            encode_record(frame, &mut wire);
        }
        wire[prefix_at + (bit as usize) / 8] ^= 1 << (bit % 8);

        let (records, deframer) = reassemble(&wire, &chunks);
        let stats = deframer.stats();
        let yielded: usize = records.iter().map(|r| r.len() + RECORD_PREFIX_BYTES).sum();
        prop_assert_eq!(
            yielded as u64 + stats.skipped_bytes + deframer.pending() as u64,
            wire.len() as u64,
            "every byte must be yielded, skipped, or pending"
        );
        for (record, frame) in records.iter().zip(&frames).take(victim) {
            prop_assert_eq!(record, frame, "records before the victim must be untouched");
        }
    }

    /// Arbitrary bytes, not a mutated valid stream, in arbitrary chunkings.
    /// Plausible-looking boundaries (a length, then the frame magic) are
    /// planted at arbitrary offsets so that records do come out, with
    /// lengths on both sides of the limits: nothing panics, every record
    /// is within the record-length limits, and every committed byte is
    /// yielded (with its prefix), skipped or pending.
    #[test]
    fn arbitrary_bytes_are_bounded_and_accounted(
        bytes in proptest::collection::vec(any::<u8>(), 0..12_000),
        plants in proptest::collection::vec((any::<u16>(), 0u16..5000), 0..16),
        chunks in proptest::collection::vec(1usize..1500, 1..40),
    ) {
        let mut bytes = bytes;
        for (at, len) in plants {
            let at = at as usize % bytes.len().max(1);
            if at + RECORD_PREFIX_BYTES < bytes.len() {
                bytes[at..at + RECORD_PREFIX_BYTES].copy_from_slice(&len.to_le_bytes());
                bytes[at + RECORD_PREFIX_BYTES] = FRAME_MAGIC;
            }
        }
        let (records, deframer) = reassemble(&bytes, &chunks);
        for record in &records {
            prop_assert!(
                (MIN_FRAME_BYTES..=MAX_FRAME_BYTES).contains(&record.len()),
                "record of {} bytes", record.len()
            );
        }
        let stats = deframer.stats();
        prop_assert_eq!(stats.records, records.len() as u64);
        let yielded: usize = records.iter().map(|r| r.len() + RECORD_PREFIX_BYTES).sum();
        prop_assert_eq!(
            yielded as u64 + stats.skipped_bytes + deframer.pending() as u64,
            bytes.len() as u64,
            "every byte must be yielded, skipped, or pending"
        );
    }

    /// Handshake and control records under mutation: arbitrary bytes, and
    /// valid records with one bit flipped, cut short at every offset,
    /// followed by garbage, or with the lane-count byte overwritten by
    /// counts no session may declare.
    #[test]
    fn handshake_records_survive_mutation(
        garbage in proptest::collection::vec(any::<u8>(), 0..MAX_HELLO_BYTES + 8),
        patient in any::<u32>(),
        resumes in proptest::collection::vec(any::<u32>(), 1..=12),
        first_lane in any::<u8>(),
        code_pick in 0usize..6,
        retry_after_secs in any::<u16>(),
        count in any::<u32>(),
        flip_pick in any::<u16>(),
        bit in 0u8..8,
        tail in proptest::collection::vec(any::<u8>(), 1..300),
    ) {
        // Arbitrary bytes: an answer, whatever it is.
        prop_assert_eq!(hello_len(&garbage).is_some(), garbage.len() >= HELLO_FIXED_BYTES);
        let _ = parse_hello(&garbage);
        let _ = parse_control(&garbage);

        let hello = Hello {
            patient,
            lanes: (0u8..)
                .zip(&resumes)
                .map(|(i, &resume_from)| LaneResume { lane: first_lane.wrapping_add(i), resume_from })
                .collect(),
        };
        let hello_bytes = encode_hello(&hello);
        let hello = Ok(hello);
        let code = [
            ControlCode::Accept,
            ControlCode::Shed,
            ControlCode::BadHandshake,
            ControlCode::Draining,
            ControlCode::Goodbye,
            ControlCode::Evicted,
        ][code_pick];
        let control = Control { code, retry_after_secs, count };
        let mut control_bytes = [0u8; CONTROL_BYTES];
        encode_control(control, &mut control_bytes);
        prop_assert_eq!(&parse_hello(&hello_bytes), &hello);
        prop_assert_eq!(parse_control(&control_bytes), Ok(control));

        // One flipped bit is caught — CRC-16 sees every single-bit error,
        // and a flipped lane count moves the record's end instead — so a
        // parse that still succeeds may only return the original.
        let mut flipped = hello_bytes.clone();
        flipped[flip_pick as usize % hello_bytes.len()] ^= 1 << bit;
        let parsed = parse_hello(&flipped);
        prop_assert!(parsed.is_err() || parsed == hello);
        let mut flipped = control_bytes;
        flipped[flip_pick as usize % CONTROL_BYTES] ^= 1 << bit;
        prop_assert!(parse_control(&flipped).is_err(), "CRC-16 sees every single-bit error");

        // Cut short anywhere: `Truncated`, so an incremental reader keeps
        // reading, and `hello_len` answers as soon as the prefix is in.
        for cut in 0..hello_bytes.len() {
            prop_assert_eq!(parse_hello(&hello_bytes[..cut]), Err(ProtoError::Truncated));
            let len = hello_len(&hello_bytes[..cut]);
            prop_assert_eq!(len, (cut >= HELLO_FIXED_BYTES).then_some(hello_bytes.len()));
        }
        for cut in 0..CONTROL_BYTES {
            prop_assert_eq!(parse_control(&control_bytes[..cut]), Err(ProtoError::Truncated));
        }

        // Whatever follows a complete record is not the record's business.
        let mut extended = hello_bytes.clone();
        extended.extend_from_slice(&tail);
        prop_assert_eq!(&parse_hello(&extended), &hello);
        let mut extended = control_bytes.to_vec();
        extended.extend_from_slice(&tail);
        prop_assert_eq!(parse_control(&extended), Ok(control));

        // A lane count no session may declare is refused whether or not
        // the bytes it asks for ever arrive (and whatever their CRC says).
        for lane_count in [0u8, 13, 255] {
            let mut forged = hello_bytes.clone();
            forged[7] = lane_count;
            let want = HELLO_FIXED_BYTES + lane_count as usize * HELLO_LANE_BYTES + 2;
            prop_assert_eq!(hello_len(&forged), Some(want));
            prop_assert!(parse_hello(&forged).is_err());
            forged.resize(want.max(forged.len()), tail[0]);
            prop_assert!(parse_hello(&forged).is_err());
        }
    }
}
