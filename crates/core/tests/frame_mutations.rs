//! Mutation properties of [`parse_frame`], the first code that reads the
//! bytes a socket or a disk delivers, and of the decode path it feeds:
//! [`WireCore`], which reassembles, decodes, conceals and quarantines.
//!
//! The CRC stops random damage; these properties are about what gets past
//! it. Arbitrary bytes — sealed with a valid CRC or not — and encoder-made
//! frames with one header field rewritten and the CRC re-sealed (the lane,
//! the kind byte, the sequence number, the bit count, the delta's gain
//! shift, the payload's length) must each
//!
//! * parse to a typed [`PipelineError`], or to a frame whose fields
//!   round-trip: re-serialized, it is the same bytes, and its bit count
//!   fits its payload;
//! * once accepted, go through the core between the stream's true frames
//!   without a panic: delivered windows decode or are refused and
//!   concealed (the core debug-asserts that a refused decode wrote no
//!   output), lost ones are concealed, and every emission is a whole
//!   window.

use cs_core::{
    packetize, parse_frame, train_codebook, EncodedPacket, Encoder, FleetConfig, PacketOutcome,
    SolverPolicy, SystemConfig, WireCore, HEADER_BYTES, TRAILER_BYTES,
};
use cs_codec::Codebook;
use cs_ecg_data::{resample_360_to_256, AdcModel, EcgModel, EcgModelConfig};
use cs_recovery::SpectralCache;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Reference, delta, delta, reference — framed on lane 2.
const PACKETS: usize = 4;
const LANE: u8 = 2;

struct Fixture {
    config: SystemConfig,
    codebook: Arc<Codebook>,
    cache: SpectralCache<f32>,
    frames: Vec<Vec<u8>>,
}

/// Built once: encoding the stream and planning the decoder's spectral
/// set-up are the expensive parts, and neither is under test.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let config = SystemConfig::builder()
            .reference_interval(3)
            .build()
            .unwrap();
        let (mv, _) = EcgModel::new(EcgModelConfig::default(), 7).synthesize(12.0);
        let adc = AdcModel::mit_bih();
        let samples: Vec<i16> = resample_360_to_256(&mv)
            .iter()
            .map(|&v| adc.to_signed(adc.quantize(v)))
            .collect();
        let windows = || packetize(&samples, config.packet_len());
        let codebook = Arc::new(train_codebook(&config, windows().map(<[i16]>::to_vec)).unwrap());
        let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).unwrap();
        let frames: Vec<Vec<u8>> = windows()
            .take(PACKETS)
            .map(|w| encoder.encode_packet(w).unwrap().to_bytes_tagged(LANE))
            .collect();
        Fixture { config, codebook, cache: SpectralCache::new(), frames }
    })
}

/// A core with a three-frame reorder window and a short solve: nothing
/// here needs a converged one.
fn core(fx: &Fixture) -> WireCore<'_, f32> {
    let policy = SolverPolicy { max_iterations: 25, ..SolverPolicy::default() };
    let fleet = FleetConfig { reorder_window: 3, ..FleetConfig::default() };
    let telemetry = cs_telemetry::TelemetryRegistry::disabled();
    WireCore::new(&fx.config, Arc::clone(&fx.codebook), policy, &fleet, &fx.cache, telemetry)
}

/// Re-seals `frame`'s CRC over its (possibly rewritten) body.
fn seal(frame: &mut [u8]) {
    let body = frame.len() - TRAILER_BYTES;
    let crc = cs_core::crc16(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
}

/// One header-field rewrite of an encoder-made frame, CRC re-sealed: 0 the
/// lane, 1 the kind byte, 2 the sequence number, 3 the bit count, 4 the
/// delta's 4-bit gain shift (the payload's first bits), 5 the payload cut
/// or 6 extended under an unchanged header.
fn mutate(frame: &mut Vec<u8>, field: u8, pick: u64) {
    let payload = HEADER_BYTES..frame.len() - TRAILER_BYTES;
    match field {
        0 => frame[2] = pick as u8,
        1 => frame[3] = [b'R', b'D', pick as u8][pick as usize % 3],
        2 => frame[4..8].copy_from_slice(&(pick as u32).to_le_bytes()),
        3 => {
            let bits = (payload.len() as u64 * 8).wrapping_add(pick % 17).wrapping_sub(8) as u32;
            let bits = if pick.is_multiple_of(5) { pick as u32 } else { bits };
            frame[8..11].copy_from_slice(&bits.to_le_bytes()[..3]);
        }
        4 => frame[HEADER_BYTES] = (frame[HEADER_BYTES] & 0x0F) | ((pick as u8) << 4),
        5 => {
            let cut = 1 + pick as usize % payload.len();
            frame.drain(payload.end - cut..payload.end);
        }
        _ => {
            let extra: Vec<u8> = (0..1 + pick % 9).map(|i| (pick >> i) as u8).collect();
            frame.splice(payload.end..payload.end, extra);
        }
    }
    seal(frame);
}

/// Whether `bytes` parse, and the check that an accepted frame is
/// self-consistent: re-serialized it is `bytes` again, and its bit count
/// fits its payload.
fn accepted(bytes: &[u8]) -> Result<bool, TestCaseError> {
    let Ok((info, payload)) = parse_frame(bytes) else {
        return Ok(false);
    };
    prop_assert!(
        info.payload_bits <= 8 * payload.len(),
        "{} bits accepted from {} payload bytes",
        info.payload_bits,
        payload.len()
    );
    let packet = EncodedPacket {
        index: info.index,
        kind: info.kind,
        payload: payload.to_vec(),
        payload_bits: info.payload_bits,
    };
    prop_assert_eq!(packet.to_bytes_tagged(info.lane), bytes);
    prop_assert_eq!(EncodedPacket::from_bytes(bytes).ok(), Some(packet));
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, and arbitrary bytes behind a valid header prefix
    /// with the CRC sealed: a typed error, or a self-consistent frame.
    #[test]
    fn arbitrary_bytes_parse_to_an_error_or_a_consistent_frame(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        prefix in any::<bool>(),
        sealed in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if prefix && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(&[cs_core::FRAME_MAGIC, cs_core::FRAME_VERSION, LANE, b'D']);
        }
        if sealed && bytes.len() >= TRAILER_BYTES {
            seal(&mut bytes);
        }
        accepted(&bytes)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every header field of every kind of frame, rewritten and
    /// re-sealed, then the whole stream — the mutant in its true frame's
    /// place — through the decode core.
    #[test]
    fn resealed_header_mutations_are_refused_or_survived(
        target in 0_usize..3,
        field in 0_u8..7,
        pick in any::<u64>(),
    ) {
        let fx = fixture();
        let mut mutant = fx.frames[target].clone();
        mutate(&mut mutant, field, pick);
        if !accepted(&mutant)? {
            return Ok(());
        }
        // The mutant in its true frame's place. The lane byte routes: a
        // frame re-tagged for another lane meets that lane's decoder,
        // fresh, on its own, and leaves a loss behind in this one.
        let n = fx.config.packet_len();
        let mut core = core(fx);
        let mut out = Vec::new();
        for (k, frame) in fx.frames.iter().enumerate() {
            let frame = if k == target { &mutant } else { frame };
            // Duplicates and stragglers are the reassembler's to refuse.
            core.push(0, frame, 0, &mut out).unwrap();
        }
        // A jump past the loss-burst limit emits nothing: the DPCM loop
        // waits for the next reference.
        core.flush(0, &mut out).unwrap();
        for emission in &out {
            let decoded = emission.outcome == PacketOutcome::Decoded;
            prop_assert_eq!(emission.packet.concealed, !decoded, "{:?}", emission.outcome);
            prop_assert_eq!(emission.packet.samples.len(), n);
        }
    }
}
