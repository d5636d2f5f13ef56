//! [`Encoder::encode_packet`] codes a delta in one pass — differences,
//! codewords and bits together — and its bytes must be those of the
//! staged composition it replaced: `apply_unscaled_i32` →
//! [`DiffEncoder::encode`] → [`value_to_symbol`] → [`Codebook::codeword`]
//! → a writer that appends one bit at a time. Streams mix quiet windows
//! (gain 0), beats and full-range noise (gains up to 15, differences
//! clamped at the alphabet's edge) and full-scale references that leave 16
//! bits, which both sides refuse before starting over with a reference.

use cs_codec::{value_to_symbol, Codebook, DiffConfig, DiffEncoder, DiffPacket, MAX_DELTA_SHIFT};
use cs_core::{Encoder, PacketKind, SystemConfig};
use cs_sensing::SparseBinarySensing;
use proptest::prelude::*;
use std::sync::Arc;

/// MSB-first bits, one at a time, zero-padded to a byte at the end.
#[derive(Default)]
struct SerialBits {
    bits: Vec<bool>,
}

impl SerialBits {
    fn put(&mut self, value: u32, count: u8) {
        self.bits
            .extend((0..count).rev().map(|k| (value >> k) & 1 == 1));
    }

    fn bytes(&self) -> Vec<u8> {
        self.bits
            .chunks(8)
            .map(|byte| {
                byte.iter()
                    .enumerate()
                    .fold(0u8, |b, (k, &bit)| b | u8::from(bit) << (7 - k))
            })
            .collect()
    }
}

/// What one packet came to: its kind, payload and bit count, or the
/// refusal's debug text.
type Outcome = Result<(u64, PacketKind, Vec<u8>, usize), String>;

/// The encoder as four stages. `last` keeps the differencing stage's
/// output so the tests can see which gains and clamps a stream reached.
struct Staged {
    phi: SparseBinarySensing,
    diff: DiffEncoder,
    codebook: Arc<Codebook>,
    alphabet: usize,
    next_index: u64,
    last: Option<DiffPacket>,
}

impl Staged {
    fn new(config: &SystemConfig, codebook: Arc<Codebook>) -> Self {
        Staged {
            phi: SparseBinarySensing::new(
                config.measurements(),
                config.packet_len(),
                config.sparse_ones_per_column(),
                config.seed(),
            )
            .unwrap(),
            diff: DiffEncoder::new(DiffConfig {
                vector_len: config.measurements(),
                reference_interval: config.reference_interval(),
                alphabet: config.alphabet(),
            }),
            codebook,
            alphabet: config.alphabet(),
            next_index: 0,
            last: None,
        }
    }

    fn encode(&mut self, samples: &[i16]) -> Outcome {
        let y = self.phi.apply_unscaled_i32(samples);
        let packet = self.diff.encode(&y).unwrap();
        let mut bits = SerialBits::default();
        let kind = match &packet {
            DiffPacket::Reference(values) => {
                for &v in values {
                    let Ok(raw) = i16::try_from(v) else {
                        self.diff.reset();
                        self.last = None;
                        return Err(format!(
                            "{:?}",
                            cs_core::PipelineError::from(cs_codec::CodecError::ValueOutOfRange {
                                value: v,
                                alphabet: 1 << 16
                            },)
                        ));
                    };
                    bits.put(u32::from(raw as u16), 16);
                }
                PacketKind::Reference
            }
            DiffPacket::Delta(block) => {
                bits.put(u32::from(block.shift), 4);
                for &d in &block.values {
                    let symbol = value_to_symbol(i32::from(d), self.alphabet).unwrap();
                    let (code, len) = self.codebook.codeword(symbol);
                    bits.put(u32::from(code), len);
                }
                PacketKind::Delta
            }
        };
        self.last = Some(packet);
        let index = self.next_index;
        self.next_index += 1;
        Ok((index, kind, bits.bytes(), bits.bits.len()))
    }
}

fn fused(encoder: &mut Encoder, samples: &[i16]) -> Outcome {
    encoder
        .encode_packet(samples)
        .map(|p| (p.index, p.kind, p.payload, p.payload_bits))
        .map_err(|e| format!("{e:?}"))
}

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

/// xorshift64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn sample(&mut self, reach: i32) -> i16 {
        ((self.next() % (2 * reach as u64 + 1)) as i32 - reach) as i16
    }
}

/// One window: quiet noise, a beat on a baseline, full-range noise, or a
/// full-scale constant.
fn window(rng: &mut Rng, n: usize) -> Vec<i16> {
    match rng.next() % 4 {
        0 => (0..n).map(|_| rng.sample(3)).collect(),
        1 => {
            let at = (rng.next() % n as u64) as usize;
            let base = rng.sample(200);
            (0..n)
                .map(|i| base + if i.abs_diff(at) < 8 { 900 } else { 0 } + rng.sample(20))
                .collect()
        }
        2 => (0..n).map(|_| rng.sample(i16::MAX as i32)).collect(),
        _ => vec![
            if rng.next() & 1 == 0 {
                i16::MAX
            } else {
                i16::MIN
            };
            n
        ],
    }
}

/// The paper's configuration, and one whose small alphabet and dense Φ
/// drive full-range noise to gain 15 and past the alphabet's edge.
fn configs() -> [(SystemConfig, Arc<Codebook>); 2] {
    let paper = SystemConfig::paper_default();
    let dense = SystemConfig::builder()
        .alphabet(16)
        .sparse_ones_per_column(32)
        .reference_interval(5)
        .build()
        .unwrap();
    [(paper, skewed_codebook(512)), (dense, skewed_codebook(16))]
}

/// Runs one seeded stream through both encoders, packet by packet.
fn compare(
    config: &SystemConfig,
    codebook: &Arc<Codebook>,
    seed: u64,
    packets: usize,
) -> Vec<Outcome> {
    let mut encoder = Encoder::new(config, Arc::clone(codebook)).unwrap();
    let mut staged = Staged::new(config, Arc::clone(codebook));
    let mut rng = Rng(seed | 1);
    (0..packets)
        .map(|k| {
            let samples = window(&mut rng, config.packet_len());
            let want = staged.encode(&samples);
            assert_eq!(
                fused(&mut encoder, &samples),
                want,
                "seed {seed}, packet {k}"
            );
            want
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_encoder_writes_the_staged_encoders_bytes(seed in any::<u64>(), dense in any::<bool>()) {
        let [paper, small] = configs();
        let (config, codebook) = if dense { small } else { paper };
        compare(&config, &codebook, seed, 40);
    }
}

/// The streams above reach what they are meant to: a refused reference
/// followed by a reference at the same index, gain 15, and a difference
/// clamped at the alphabet's edge.
#[test]
fn streams_reach_refusal_gain_15_and_clamping() {
    let [_, (config, codebook)] = configs();
    let (mut restarts, mut top_gain, mut clamped) = (0, 0, 0);
    for seed in 1..=8 {
        let mut staged = Staged::new(&config, Arc::clone(&codebook));
        let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).unwrap();
        let mut rng = Rng(seed);
        let mut refused = false;
        for _ in 0..40 {
            let samples = window(&mut rng, config.packet_len());
            let outcome = staged.encode(&samples);
            assert_eq!(fused(&mut encoder, &samples), outcome);
            match (&outcome, refused) {
                (Ok((_, PacketKind::Reference, ..)), true) => restarts += 1,
                (Ok((_, PacketKind::Delta, ..)), true) => panic!("a delta right after a refusal"),
                _ => {}
            }
            refused = outcome.is_err();
            if let Some(DiffPacket::Delta(block)) = &staged.last {
                let edge = |&d: &i16| d == -8 || d == 7;
                top_gain += usize::from(block.shift == MAX_DELTA_SHIFT);
                clamped +=
                    usize::from(block.shift == MAX_DELTA_SHIFT && block.values.iter().any(edge));
            }
        }
    }
    assert!(
        restarts >= 3,
        "{restarts} restarts after a refused reference"
    );
    assert!(
        top_gain >= 3 && clamped >= 3,
        "gain 15 in {top_gain} packets, clamped in {clamped}"
    );
}
