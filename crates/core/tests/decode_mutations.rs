//! Mutation properties of [`Decoder::decode_packet_with`], the first
//! code that interprets payload bytes after the frame check.
//!
//! `EncodedPacket`'s fields are public, and a CRC collision hands the
//! decoder damaged bytes with a straight face, so every field is
//! hostile: the payload is flipped, truncated and extended, and
//! `payload_bits` is overwritten with 0, 1, `8·len ± 1` and
//! `usize::MAX`. The decoder must
//!
//! * never panic — it answers with a decode or a [`PipelineError`], and
//!   after an error the concealment path still yields a whole window;
//! * refuse any packet whose values do not take exactly the bits it
//!   declares, and be unmoved by what it refuses: the stream continues
//!   `to_bits`-equal to a twin that never saw the mutant;
//! * stay usable whatever it accepted: the next valid reference decodes
//!   `to_bits`-equal to a fresh decoder's.

use cs_core::{
    packetize, train_codebook, DecodeWorkspace, DecodedPacket, Decoder, EncodedPacket, Encoder,
    PacketKind, SolverPolicy, SystemConfig,
};
use cs_ecg_data::{resample_360_to_256, AdcModel, EcgModel, EcgModelConfig};
use cs_recovery::SpectralCache;
use proptest::prelude::*;
use std::sync::Arc;

/// Reference, delta, delta, reference: one of each to damage, one delta
/// to continue with and the reference that must resynchronize anything.
const PACKETS: usize = 4;

struct Fixture {
    config: SystemConfig,
    wire: Vec<EncodedPacket>,
    /// The one that meets the mutant, a twin that does not, and a fresh one.
    decoders: [Decoder<f32>; 3],
}

fn fixture(seed: u64) -> Fixture {
    let config = SystemConfig::builder()
        .reference_interval(3)
        .build()
        .unwrap();
    let (mv, _) = EcgModel::new(EcgModelConfig::default(), seed).synthesize(12.0);
    let adc = AdcModel::mit_bih();
    let samples: Vec<i16> = resample_360_to_256(&mv)
        .iter()
        .map(|&v| adc.to_signed(adc.quantize(v)))
        .collect();
    let windows = || packetize(&samples, config.packet_len());
    let codebook = Arc::new(train_codebook(&config, windows().map(<[i16]>::to_vec)).unwrap());
    let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).unwrap();
    let wire: Vec<EncodedPacket> = windows()
        .take(PACKETS)
        .map(|w| encoder.encode_packet(w).unwrap())
        .collect();
    assert_eq!(
        wire.iter().map(|p| p.kind).collect::<Vec<_>>(),
        [
            PacketKind::Reference,
            PacketKind::Delta,
            PacketKind::Delta,
            PacketKind::Reference
        ]
    );
    // A short solve: equality with the twin does not need a converged one.
    let policy = SolverPolicy {
        max_iterations: 25,
        ..SolverPolicy::default()
    };
    let cache = SpectralCache::new();
    let decoders =
        std::array::from_fn(|_| Decoder::with_cache(&config, Arc::clone(&codebook), policy, &cache).unwrap());
    Fixture {
        config,
        wire,
        decoders,
    }
}

fn bits_of(samples: &[f32]) -> Vec<u32> {
    samples.iter().map(|v| v.to_bits()).collect()
}

/// One mutation of `packet`: 0–2 damage the payload, 3–7 the bit count.
fn mutate(packet: &mut EncodedPacket, mutation: u8, pick: u64) {
    let len = packet.payload.len();
    match mutation {
        0 => packet.payload[(pick as usize / 8) % len] ^= 1 << (pick % 8),
        1 => packet.payload.truncate(pick as usize % len),
        2 => packet
            .payload
            .extend((0..1 + pick % 9).map(|i| (pick >> i) as u8)),
        3 => packet.payload_bits = 0,
        4 => packet.payload_bits = 1,
        5 => packet.payload_bits = 8 * len - 1,
        6 => packet.payload_bits = 8 * len + 1,
        _ => packet.payload_bits = usize::MAX,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn damaged_packets_are_refused_or_survived(
        seed in 0u64..4,
        damage_delta in any::<bool>(),
        mutation in 0u8..8,
        pick in any::<u64>(),
    ) {
        let Fixture { config, wire, decoders: [mut victim, mut twin, mut fresh] } = fixture(seed);
        let n = config.packet_len();
        let mut ws = DecodeWorkspace::for_config(&config);
        let mut out = DecodedPacket::default();

        // Both see the stream up to the packet that gets damaged.
        let target = usize::from(damage_delta);
        for packet in &wire[..target] {
            victim.decode_packet_with(packet, &mut ws, &mut out).unwrap();
            twin.decode_packet_with(packet, &mut ws, &mut out).unwrap();
        }

        let mut mutant = wire[target].clone();
        let original_bits = mutant.payload_bits;
        mutate(&mut mutant, mutation, pick);
        let mut damaged = DecodedPacket::default();
        let verdict = victim.decode_packet_with(&mutant, &mut ws, &mut damaged);

        // A bit count that is not the one the values take is refused
        // (8·len − 1 can be the true count), and so is a payload cut
        // short of its count.
        if mutation == 1 || mutant.payload_bits != original_bits {
            prop_assert!(verdict.is_err(), "mutation {} accepted", mutation);
        }
        match verdict {
            Ok(()) => prop_assert_eq!(damaged.samples.len(), n),
            Err(_) => {
                // On error `out` is untouched, and concealment fills in.
                prop_assert!(damaged.samples.is_empty());
                victim.conceal_packet_with(mutant.index, &mut ws, &mut damaged);
                prop_assert!(damaged.concealed);
                prop_assert_eq!(damaged.samples.len(), n);

                // Refused means unmoved: the true packet and the delta
                // behind it decode as they do for the twin.
                for packet in &wire[target..3] {
                    let mut a = DecodedPacket::default();
                    let mut b = DecodedPacket::default();
                    victim.decode_packet_with(packet, &mut ws, &mut a).unwrap();
                    twin.decode_packet_with(packet, &mut ws, &mut b).unwrap();
                    prop_assert_eq!(bits_of(&a.samples), bits_of(&b.samples));
                }
            }
        }

        // Whatever was accepted, the next reference resynchronizes.
        let mut a = DecodedPacket::default();
        let mut b = DecodedPacket::default();
        victim.decode_packet_with(&wire[3], &mut ws, &mut a).unwrap();
        fresh.decode_packet_with(&wire[3], &mut ws, &mut b).unwrap();
        prop_assert_eq!(bits_of(&a.samples), bits_of(&b.samples));
    }
}
