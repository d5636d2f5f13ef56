//! The integer path at its extremes: full-scale 11-bit and full-range
//! `i16` square, alternating and step windows through
//! [`Encoder::encode_packet`] → frame → [`parse_frame`] → entropy decode
//! → [`DiffDecoder`], with the lossless round trip of the measurement
//! integers as the oracle (arXiv 1407.5173's criterion for an entropy
//! stage): exact in a reference and at gain 0, within `2^{g−1}` at gain
//! `g`; every symbol inside the 512 alphabet; Φ's integer product equal
//! to a dense 64-bit one, so it never wrapped.

use cs_codec::{symbol_to_value, BitReader, Codebook, CodecError, DiffConfig, DiffDecoder};
use cs_core::{parse_frame, Encoder, PacketKind, PipelineError, SystemConfig};
use std::sync::Arc;

/// A trained-shape codebook: residuals near zero get the short codes.
fn skewed_codebook(alphabet: usize) -> Arc<Codebook> {
    let counts: Vec<u64> = (0..alphabet)
        .map(|s| {
            let d = (s as i64 - alphabet as i64 / 2).unsigned_abs();
            1 + 100_000 / (1 + d * d)
        })
        .collect();
    Arc::new(Codebook::from_counts(&counts, alphabet).unwrap())
}

/// The windows of one stream: each shape, then the same shape again (a
/// zero delta), then its mirror image (the largest delta the range
/// allows), then silence.
fn stream(lo: i16, hi: i16, n: usize) -> Vec<Vec<i16>> {
    let square: Vec<i16> = (0..n)
        .map(|i| if (i / 32) % 2 == 0 { hi } else { lo })
        .collect();
    let alternating: Vec<i16> = (0..n).map(|i| if i % 2 == 0 { hi } else { lo }).collect();
    let step: Vec<i16> = (0..n).map(|i| if i < n / 2 { lo } else { hi }).collect();
    let mut windows = Vec::new();
    for shape in [square, alternating, step] {
        let mirrored = shape
            .iter()
            .map(|&v| if v == hi { lo } else { hi })
            .collect();
        windows.extend([shape.clone(), shape, mirrored, vec![0; n]]);
    }
    windows
}

/// What one range's stream did.
#[derive(Default)]
struct Tally {
    refused: usize,
    exact: usize,
    gained: usize,
}

fn run(lo: i16, hi: i16) -> Tally {
    let config = SystemConfig::builder()
        .reference_interval(5)
        .build()
        .unwrap();
    let (m, n, alphabet) = (
        config.measurements(),
        config.packet_len(),
        config.alphabet(),
    );
    let codebook = skewed_codebook(alphabet);
    let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).unwrap();
    let mut decoder = DiffDecoder::new(DiffConfig {
        vector_len: m,
        reference_interval: config.reference_interval(),
        alphabet,
    });
    let mut tally = Tally::default();

    for window in stream(lo, hi, n) {
        // Φ in 64 bits, straight from the support: the sums the mote's
        // 32-bit gather-add must reproduce without wrapping.
        let phi = encoder.sensing();
        let mut dense = vec![0_i64; m];
        for (j, &x) in window.iter().enumerate() {
            for &row in phi.column_support(j) {
                dense[row as usize] += i64::from(x);
            }
        }
        let y = phi.apply_unscaled_i32(&window);
        assert!(y.iter().zip(&dense).all(|(&a, &b)| i64::from(a) == b));

        let packet = match encoder.encode_packet(&window) {
            Ok(packet) => packet,
            // Sixteen bits carry a reference value. Sums past them are
            // refused by name, and only a reference can be.
            Err(PipelineError::Codec(CodecError::ValueOutOfRange { value, .. })) => {
                assert!(i16::try_from(value).is_err() && y.contains(&value));
                tally.refused += 1;
                continue;
            }
            Err(e) => panic!("unexpected encoder error: {e}"),
        };

        let frame = packet.to_bytes();
        let (info, payload) = parse_frame(&frame).unwrap();
        let mut reader = BitReader::new(payload);
        let (rebuilt, gain) = match info.kind {
            PacketKind::Reference => {
                let values: Vec<i32> = (0..m)
                    .map(|_| reader.read_bits(16).unwrap() as u16 as i16 as i32)
                    .collect();
                (decoder.decode_reference(&values).unwrap(), 0)
            }
            PacketKind::Delta => {
                let gain = reader.read_bits(4).unwrap() as u8;
                let deltas: Vec<i16> = codebook
                    .decode(&mut reader, m)
                    .unwrap()
                    .into_iter()
                    .map(|s| symbol_to_value(s, alphabet).unwrap() as i16)
                    .collect();
                (decoder.decode_delta(gain, &deltas).unwrap(), gain)
            }
        };
        assert_eq!(
            payload.len() * 8 - reader.remaining_bits(),
            info.payload_bits
        );

        let worst = rebuilt
            .iter()
            .zip(&y)
            .map(|(a, b)| a.abs_diff(*b))
            .max()
            .unwrap();
        if gain == 0 {
            assert_eq!(worst, 0, "{:?} at gain 0 is not lossless", info.kind);
            tally.exact += 1;
        } else {
            assert!(worst <= 1 << (gain - 1), "off by {worst} at gain {gain}");
            tally.gained += 1;
        }
    }
    tally
}

#[test]
fn full_scale_11_bit_windows_round_trip() {
    let tally = run(-1024, 1023);
    // Every 11-bit window fits the 16-bit reference.
    assert_eq!(tally.refused, 0);
    assert!(tally.exact >= 3 && tally.gained >= 3);
}

#[test]
fn full_range_i16_windows_round_trip_or_are_refused() {
    let tally = run(i16::MIN, i16::MAX);
    // The step's reference sums a row's worth of `i16::MAX`: refused.
    // What is sent still obeys the gain's bound.
    assert!(tally.refused >= 1);
    assert!(tally.exact >= 1 && tally.gained >= 1);
}
