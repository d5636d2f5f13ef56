//! The bit-at-a-time writer and reader that [`crate::bitstream`]'s
//! word-wide ones replaced, kept as reference models together with
//! [`Codebook::decode_symbol_serial`], and the differential properties
//! that hold the production code to them: the same bytes out, and on any
//! bytes in — valid, truncated, flipped, extended or plain garbage — the
//! same symbols or the same error at the same bit, with the reader left
//! at the same place. The damaged streams run past a whole delta payload
//! (M = 256 codewords), so every cut, flip and extension crosses from
//! [`Codebook::decode_into`]'s three-codewords-per-load loop to its
//! one-at-a-time tail. [`DiffEncoder::code_delta`]'s one fused pass is
//! held the same way to the staged composition it replaced:
//! [`DiffEncoder::encode`], [`value_to_symbol`], [`Codebook::codeword`]
//! and the serial writer.

use crate::bitstream::{BitReader, BitWriter};
use crate::diff::{DiffConfig, DiffEncoder, DiffPacket, DiffStep, MAX_DELTA_SHIFT};
use crate::error::CodecError;
use crate::huffman::{value_to_symbol, Codebook, MAX_CODE_LEN};
use proptest::prelude::*;

/// The writer as it was: one bounds-checked `Vec` index per bit.
#[derive(Default)]
struct SerialWriter {
    bytes: Vec<u8>,
    /// Bits already used in the final partial byte (0..8).
    bit_pos: u8,
}

impl SerialWriter {
    fn write_bits(&mut self, value: u32, count: u8) {
        for shift in (0..count).rev() {
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.len() - 1;
            self.bytes[last] |= (((value >> shift) & 1) as u8) << (7 - self.bit_pos);
            self.bit_pos = (self.bit_pos + 1) % 8;
        }
    }

    fn bit_len(&self) -> usize {
        self.bytes.len() * 8 - (8 - self.bit_pos as usize) % 8
    }
}

/// The reader as it was: `read_bits` is `count` calls of `read_bit`.
struct SerialReader<'a> {
    bytes: &'a [u8],
    cursor: usize,
}

impl SerialReader<'_> {
    fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.cursor
    }

    fn read_bit(&mut self) -> Result<u32, CodecError> {
        let byte = self.cursor / 8;
        if byte >= self.bytes.len() {
            return Err(CodecError::UnexpectedEndOfStream { bit: self.cursor });
        }
        let shift = 7 - (self.cursor % 8);
        self.cursor += 1;
        Ok(((self.bytes[byte] >> shift) & 1) as u32)
    }

    fn read_bits(&mut self, count: u8) -> Result<u32, CodecError> {
        if self.remaining_bits() < count as usize {
            return Err(CodecError::UnexpectedEndOfStream { bit: self.cursor });
        }
        (0..count).try_fold(0, |acc, _| Ok((acc << 1) | self.read_bit()?))
    }
}

/// xorshift64, the generator the crate's other properties use.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A codebook over 2…512 symbols from either flat-random counts or a
/// geometric ladder steep enough that plain Huffman would pass 16 bits,
/// so package–merge's cap — and the decoder's long-code walk — is hit.
fn random_codebook(rng: &mut Rng) -> Codebook {
    let n = 2 + rng.below(511);
    let skewed = rng.next() & 1 == 1;
    let ratio = 2 + rng.below(3) as u32;
    let counts: Vec<u64> = (0..n)
        .map(|i| match skewed {
            true => 1 + ((1u64 << 60) >> (ratio * i as u32).min(60)) + rng.next() % 3,
            false => rng.next() % 10_000,
        })
        .collect();
    Codebook::from_counts(&counts, n).expect("2..=512 symbols always fit the cap")
}

fn random_symbols(rng: &mut Rng, cb: &Codebook, count: usize) -> Vec<u16> {
    (0..count)
        .map(|_| rng.below(cb.alphabet_size()) as u16)
        .collect()
}

/// The first `cut` bits of `valid`, zero-padded to a whole byte.
fn cut_at(valid: &[u8], cut: usize) -> Vec<u8> {
    let mut bytes = valid[..cut.div_ceil(8)].to_vec();
    if !cut.is_multiple_of(8) {
        bytes[cut / 8] &= 0xFF << (8 - cut % 8);
    }
    bytes
}

/// Decodes `count` symbols from `bytes` both ways and compares the lot.
fn decoders_agree(cb: &Codebook, bytes: &[u8], count: usize) -> Result<(), TestCaseError> {
    let mut fast = BitReader::new(bytes);
    let mut slow = SerialReader { bytes, cursor: 0 };
    let mut got = Vec::new();
    let mut want = Vec::new();
    let fast_end = cb.decode_into(&mut fast, count, &mut got);
    let slow_end = (0..count).try_for_each(|_| {
        want.push(cb.decode_symbol_serial(|| slow.read_bit())?);
        Ok(())
    });
    // `from_lengths` holds every codebook to Kraft equality, so every
    // 16-bit peek starts with a codeword: damage can only end the stream
    // early or decode other symbols, never miss the code.
    prop_assert_ne!(&fast_end, &Err(CodecError::InvalidCodeword));
    prop_assert_eq!(fast_end, slow_end);
    // On error both hold the symbols decoded so far.
    prop_assert_eq!(got, want);
    prop_assert_eq!(fast.remaining_bits(), slow.remaining_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn writer_matches_the_serial_writer(
        writes in proptest::collection::vec((any::<u32>(), 1u8..=32), 0..96),
        capacity in 0usize..64,
    ) {
        let mut fast = BitWriter::new();
        let mut sized = BitWriter::with_capacity(capacity);
        let mut slow = SerialWriter::default();
        for &(value, count) in &writes {
            let value = if count == 32 { value } else { value & ((1 << count) - 1) };
            fast.write_bits(value, count);
            sized.write_bits(value, count);
            slow.write_bits(value, count);
            prop_assert_eq!(fast.bit_len(), slow.bit_len());
            prop_assert_eq!(sized.bit_len(), slow.bit_len());
        }
        prop_assert_eq!(&fast.finish(), &slow.bytes);
        prop_assert_eq!(sized.finish(), slow.bytes);
    }

    #[test]
    fn huffman_encode_matches_the_serial_writer(seed in any::<u64>(), count in 0usize..400) {
        let mut rng = Rng(seed | 1);
        let cb = random_codebook(&mut rng);
        let symbols = random_symbols(&mut rng, &cb, count);
        let mut fast = BitWriter::new();
        cb.encode(&symbols, &mut fast).unwrap();
        let mut slow = SerialWriter::default();
        for &s in &symbols {
            let (code, len) = cb.codeword(s);
            slow.write_bits(code as u32, len);
        }
        prop_assert_eq!(fast.bit_len(), slow.bit_len());
        prop_assert_eq!(fast.finish(), slow.bytes);
    }

    /// Arbitrary bytes under an arbitrary interleaving of the three read
    /// operations, carrying on past every error.
    #[test]
    fn reader_matches_the_serial_reader_under_any_interleaving(
        seed in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
        ops in proptest::collection::vec((0u8..3, 1u8..=32), 1..160),
    ) {
        let cb = random_codebook(&mut Rng(seed | 1));
        let mut fast = BitReader::new(&bytes);
        let mut slow = SerialReader { bytes: &bytes, cursor: 0 };
        for &(op, count) in &ops {
            match op {
                0 => prop_assert_eq!(fast.read_bit(), slow.read_bit()),
                1 => prop_assert_eq!(fast.read_bits(count), slow.read_bits(count)),
                _ => prop_assert_eq!(
                    cb.decode_symbol(&mut fast).map(u32::from),
                    cb.decode_symbol_serial(|| slow.read_bit()).map(u32::from)
                ),
            }
            prop_assert_eq!(fast.remaining_bits(), slow.remaining_bits());
        }
    }

    /// A valid stream cut at every bit, with one bit flipped, and with
    /// garbage appended (asking for more symbols than were written).
    #[test]
    fn decoder_matches_the_serial_decoder_on_damaged_streams(
        seed in any::<u64>(),
        count in 1usize..300,
        garbage in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut rng = Rng(seed | 1);
        let cb = random_codebook(&mut rng);
        let symbols = random_symbols(&mut rng, &cb, count);
        let mut w = BitWriter::new();
        cb.encode(&symbols, &mut w).unwrap();
        let bits = w.bit_len();
        let valid = w.finish();
        decoders_agree(&cb, &valid, count)?;

        for cut in 0..bits {
            decoders_agree(&cb, &cut_at(&valid, cut), count)?;
        }

        let mut flipped = valid.clone();
        let at = rng.below(bits);
        flipped[at / 8] ^= 0x80 >> (at % 8);
        decoders_agree(&cb, &flipped, count)?;

        let mut extended = valid;
        extended.extend_from_slice(&garbage);
        decoders_agree(&cb, &extended, count + garbage.len())?;
    }
}

/// Codewords longer than the 11-bit table in every slot of a load: all
/// of them long, then long in one slot of three, at every length from 12
/// to 16 bits — whole, cut at every bit and with one bit flipped.
#[test]
fn long_codewords_fill_every_slot_of_a_load() {
    let counts: Vec<u64> = (0..512u32)
        .map(|i| 1 + ((1u64 << 40) >> (i / 8).min(40)))
        .collect();
    let cb = Codebook::from_counts(&counts, 512).unwrap();
    let long: Vec<u16> = (12..=MAX_CODE_LEN)
        .filter_map(|len| (0..512u16).find(|&s| cb.codeword(s).1 == len))
        .collect();
    assert_eq!(
        long.len(),
        5,
        "the ladder must use every length from 12 to 16"
    );
    let short = (0..512u16).min_by_key(|&s| cb.codeword(s).1).unwrap();
    for slot in [None, Some(0), Some(1), Some(2)] {
        let symbols: Vec<u16> = (0..90)
            .map(|i| match slot {
                Some(slot) if i % 3 != slot => short,
                _ => long[i % long.len()],
            })
            .collect();
        let mut w = BitWriter::new();
        cb.encode(&symbols, &mut w).unwrap();
        let bits = w.bit_len();
        let valid = w.finish();
        assert_eq!(
            cb.decode(&mut BitReader::new(&valid), symbols.len())
                .unwrap(),
            symbols
        );
        decoders_agree(&cb, &valid, symbols.len()).unwrap();
        for cut in 0..bits {
            decoders_agree(&cb, &cut_at(&valid, cut), symbols.len()).unwrap();
        }
        for at in (0..bits).step_by(7) {
            let mut flipped = valid.clone();
            flipped[at / 8] ^= 0x80 >> (at % 8);
            decoders_agree(&cb, &flipped, symbols.len()).unwrap();
        }
    }
}

/// Measurement vectors for the differencing stage: quiet drift that
/// needs no gain, jumps that need some, and leaps of up to 2²⁶ that clamp
/// at the alphabet's edge even at gain 15.
fn random_measurements(rng: &mut Rng, len: usize) -> Vec<i32> {
    let reach = match rng.below(4) {
        0 => 8,
        1 => 1 << 12,
        2 => 1 << 20,
        _ => 1 << 26,
    };
    (0..len)
        .map(|_| rng.below(2 * reach) as i32 - reach as i32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packet after packet — references, deltas at every gain, clamped
    /// differences — the fused coder writes the staged coder's bytes and
    /// tracks the same state.
    #[test]
    fn code_delta_matches_the_staged_encoder(
        seed in any::<u64>(),
        len in 1usize..300,
        packets in 1usize..24,
    ) {
        let mut rng = Rng(seed | 1);
        let cb = random_codebook(&mut rng);
        // The alphabet must be even; an odd codebook leaves one symbol spare.
        let alphabet = cb.alphabet_size() & !1;
        let config = DiffConfig { vector_len: len, reference_interval: 1 + rng.below(8), alphabet };
        let mut fused = DiffEncoder::new(config);
        let mut staged = DiffEncoder::new(config);
        for _ in 0..packets {
            let y = random_measurements(&mut rng, len);
            let step = fused.begin(&y).unwrap();
            match staged.encode(&y).unwrap() {
                DiffPacket::Reference(values) => {
                    prop_assert_eq!(step, DiffStep::Reference);
                    prop_assert_eq!(values, y);
                }
                DiffPacket::Delta(block) => {
                    prop_assert_eq!(step, DiffStep::Delta { shift: block.shift });
                    let mut slow = SerialWriter::default();
                    slow.write_bits(u32::from(block.shift), 4);
                    for &d in &block.values {
                        let (code, len) = cb.codeword(value_to_symbol(i32::from(d), alphabet).unwrap());
                        slow.write_bits(u32::from(code), len);
                    }
                    let mut out = vec![0xA5];
                    let bits = fused.code_delta(&y, block.shift, &cb, &mut out).unwrap();
                    prop_assert_eq!(bits, slow.bit_len());
                    prop_assert_eq!(out[0], 0xA5, "the bytes before the packet stay");
                    prop_assert_eq!(&out[1..], &slow.bytes[..]);
                }
            }
        }
    }
}

/// The generator above does reach a clamped difference at gain 15.
#[test]
fn measurements_reach_the_largest_gain_and_clamp() {
    let config = DiffConfig {
        vector_len: 64,
        reference_interval: 64,
        alphabet: 512,
    };
    let (mut clamped, mut rng) = (0, Rng(7));
    for _ in 0..16 {
        let mut enc = DiffEncoder::new(config);
        enc.encode(&random_measurements(&mut rng, 64)).unwrap();
        if let DiffPacket::Delta(block) = enc.encode(&random_measurements(&mut rng, 64)).unwrap() {
            let edge = |d: &i16| *d == -256 || *d == 255;
            clamped += usize::from(block.shift == MAX_DELTA_SHIFT && block.values.iter().any(edge));
        }
    }
    assert!(clamped >= 2, "{clamped} of 16 packets clamp at gain 15");
}

/// The skewed arm of [`random_codebook`] reaches the cap, so the
/// properties above do exercise the walk behind the table.
#[test]
fn skewed_codebooks_reach_the_length_cap() {
    let capped = (1..64u64)
        .filter(|&seed| random_codebook(&mut Rng(seed)).max_length() == MAX_CODE_LEN)
        .count();
    assert!(
        capped >= 8,
        "only {capped} of 63 random codebooks use 16-bit codes"
    );
}
