//! Inter-packet redundancy removal (adaptive-gain closed-loop DPCM).
//!
//! With a *fixed* sensing matrix and a quasi-periodic ECG, consecutive
//! measurement vectors `y` are very similar, so the paper transmits only
//! their difference, coded over a 512-symbol alphabet — i.e. differences
//! in `[−256, 255]` (§II, §IV-A2). Three engineering details matter and
//! are implemented here:
//!
//! * **Closed loop.** The encoder differences against the decoder's
//!   reconstruction rather than the true previous vector (DPCM), so
//!   coding error never accumulates.
//! * **Adaptive gain.** When a beat lands differently in the 2-second
//!   window the raw difference can exceed the alphabet. Rather than hard
//!   clamping (which destroys the packet), each delta packet carries a
//!   4-bit binary gain `g`: differences are transmitted as
//!   `round(diff / 2^g)` with `g` chosen per packet as the smallest shift
//!   that fits the alphabet. The reconstruction error is bounded by
//!   `2^{g−1}` per measurement — a graceful, quantifiable degradation
//!   that preserves the paper's 512-symbol codebook.
//! * **Resynchronization.** Every `reference_interval`-th packet is a raw
//!   reference so a lost packet cannot poison the stream forever.

use crate::error::CodecError;
use crate::huffman::Codebook;

/// Largest supported binary gain (4 bits on the wire).
pub const MAX_DELTA_SHIFT: u8 = 15;

/// Configuration of the differencing stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DiffConfig {
    /// Measurement-vector length M.
    pub vector_len: usize,
    /// A raw reference packet is emitted every this many packets (1 ⇒
    /// every packet is a reference, i.e. differencing disabled).
    pub reference_interval: usize,
    /// Difference alphabet size (512 in the paper ⇒ symbols cover
    /// [−256, 255]).
    pub alphabet: usize,
}

impl DiffConfig {
    /// The paper's configuration for a given measurement count.
    pub fn paper_default(vector_len: usize) -> Self {
        DiffConfig {
            vector_len,
            reference_interval: 16,
            alphabet: 512,
        }
    }

    fn half(&self) -> i32 {
        (self.alphabet / 2) as i32
    }

    fn validate(&self) {
        assert!(self.vector_len > 0, "DiffConfig: zero vector length");
        assert!(
            self.reference_interval > 0,
            "DiffConfig: zero reference interval"
        );
        assert!(
            self.alphabet >= 2 && self.alphabet.is_multiple_of(2),
            "DiffConfig: alphabet must be even and at least 2"
        );
    }
}

/// Scaled differences plus their binary gain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaBlock {
    /// Binary gain `g`: transmitted values are `round(diff / 2^g)`.
    pub shift: u8,
    /// Scaled differences, each within the alphabet range.
    pub values: Vec<i16>,
}

/// One packet leaving the differencing stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffPacket {
    /// A raw measurement vector (resynchronization point).
    Reference(Vec<i32>),
    /// Gain-scaled differences against the decoder-side reconstruction.
    Delta(DeltaBlock),
}

impl DiffPacket {
    /// Whether this packet is a reference.
    pub fn is_reference(&self) -> bool {
        matches!(self, DiffPacket::Reference(_))
    }

    /// Vector length of the payload.
    pub fn len(&self) -> usize {
        match self {
            DiffPacket::Reference(v) => v.len(),
            DiffPacket::Delta(b) => b.values.len(),
        }
    }

    /// Whether the payload is empty (never true for packets produced by
    /// [`DiffEncoder`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What [`DiffEncoder::begin`] decided for the next measurement vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStep {
    /// A raw reference: the vector itself is sent, and is now the state
    /// the deltas after it track.
    Reference,
    /// Differences against the tracked state, sent as `round(diff /
    /// 2^shift)`.
    Delta {
        /// The packet's binary gain `g`.
        shift: u8,
    },
}

/// Encoder side of the differencing stage.
///
/// # Examples
///
/// ```
/// use cs_codec::{DiffConfig, DiffDecoder, DiffEncoder, DiffPacket};
///
/// let cfg = DiffConfig { vector_len: 4, reference_interval: 4, alphabet: 512 };
/// let mut enc = DiffEncoder::new(cfg);
/// let mut dec = DiffDecoder::new(cfg);
///
/// let y1 = vec![100, -50, 7, 0];
/// let y2 = vec![103, -48, 7, -2];
/// let p1 = enc.encode(&y1)?;
/// assert!(p1.is_reference());
/// let p2 = enc.encode(&y2)?;
/// assert!(!p2.is_reference());
/// assert_eq!(dec.decode(&p1)?, y1);
/// assert_eq!(dec.decode(&p2)?, y2); // small diffs are exact (gain 0)
/// # Ok::<(), cs_codec::CodecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DiffEncoder {
    config: DiffConfig,
    /// Decoder-side reconstruction the encoder tracks (closed loop).
    state: Vec<i32>,
    packets_sent: usize,
}

impl DiffEncoder {
    /// Creates an encoder; the first packet is always a reference.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid.
    pub fn new(config: DiffConfig) -> Self {
        config.validate();
        DiffEncoder {
            config,
            state: vec![0; config.vector_len],
            packets_sent: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DiffConfig {
        &self.config
    }

    /// Encodes the next measurement vector: [`DiffEncoder::begin`], then
    /// for a delta the scaled differences as values.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::LengthMismatch`] if `y` has the wrong length.
    pub fn encode(&mut self, y: &[i32]) -> Result<DiffPacket, CodecError> {
        match self.begin(y)? {
            DiffStep::Reference => Ok(DiffPacket::Reference(y.to_vec())),
            DiffStep::Delta { shift } => {
                let mut values = Vec::with_capacity(y.len());
                self.track(y, shift, |d| values.push(d));
                Ok(DiffPacket::Delta(DeltaBlock { shift, values }))
            }
        }
    }

    /// Starts the next packet: counts it and decides whether it is a
    /// reference — which makes `y` the tracked state — or a delta, and at
    /// which gain: the smallest that brings every difference into the
    /// alphabet. A delta's differences are then taken by
    /// [`DiffEncoder::code_delta`] (or inside [`DiffEncoder::encode`]).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::LengthMismatch`] if `y` has the wrong length.
    pub fn begin(&mut self, y: &[i32]) -> Result<DiffStep, CodecError> {
        self.check_len(y)?;
        let is_reference = self.packets_sent.is_multiple_of(self.config.reference_interval);
        self.packets_sent += 1;
        if is_reference {
            self.state.copy_from_slice(y);
            return Ok(DiffStep::Reference);
        }
        let half = self.config.half();
        let max_abs = self
            .state
            .iter()
            .zip(y)
            .map(|(&s, &yi)| (yi - s).unsigned_abs())
            .max()
            .unwrap_or(0);
        let mut shift = 0u8;
        while shift < MAX_DELTA_SHIFT && scaled(max_abs as i32, shift) >= half {
            shift += 1;
        }
        Ok(DiffStep::Delta { shift })
    }

    /// Codes the delta packet [`DiffEncoder::begin`] started for `y`
    /// straight to bits, appended to `out`: the 4-bit gain, then each
    /// scaled difference's codeword in `codebook`, MSB first and the last
    /// byte zero-padded — the bytes [`DiffEncoder::encode`],
    /// [`value_to_symbol`](crate::value_to_symbol),
    /// [`Codebook::codeword`] and a [`BitWriter`](crate::BitWriter) give
    /// together, from one pass with the bit accumulator in registers and
    /// no intermediate vector. Returns the payload's length in bits. A
    /// gain above [`MAX_DELTA_SHIFT`] is taken as that.
    ///
    /// # Errors
    ///
    /// * [`CodecError::LengthMismatch`] if `y` has the wrong length.
    /// * [`CodecError::SymbolOutOfRange`] if `codebook` is smaller than
    ///   the configured alphabet (nothing is written or tracked then).
    pub fn code_delta(
        &mut self,
        y: &[i32],
        shift: u8,
        codebook: &Codebook,
        out: &mut Vec<u8>,
    ) -> Result<usize, CodecError> {
        self.check_len(y)?;
        let shift = shift.min(MAX_DELTA_SHIFT);
        let alphabet = self.config.alphabet;
        if codebook.alphabet_size() < alphabet {
            return Err(CodecError::SymbolOutOfRange {
                symbol: alphabet as i32 - 1,
                alphabet: codebook.alphabet_size(),
            });
        }
        // Room for the gain and a longest codeword per value, written a
        // big-endian word at a time and cut to the bytes used at the end.
        let start = out.len();
        out.resize(start + (4 + y.len() * crate::MAX_CODE_LEN as usize).div_ceil(32) * 4, 0);
        let mut at = start;
        let mut acc = u64::from(shift);
        // Bits of `acc` not yet in `out`: always below 32 after a flush.
        let mut pending = 4u32;
        let half = self.config.half();
        self.track(y, shift, |d| {
            // Clamped into the alphabet, so a codeword exists.
            let (code, len) = codebook.codeword((i32::from(d) + half) as u16);
            acc = (acc << len) | u64::from(code);
            pending += u32::from(len);
            if pending >= 32 {
                pending -= 32;
                out[at..at + 4].copy_from_slice(&((acc >> pending) as u32).to_be_bytes());
                at += 4;
            }
        });
        let bits = (at - start) * 8 + pending as usize;
        let tail = ((acc << (32 - pending)) as u32).to_be_bytes();
        let tail_len = (pending as usize).div_ceil(8);
        out[at..at + tail_len].copy_from_slice(&tail[..tail_len]);
        out.truncate(at + tail_len);
        Ok(bits)
    }

    /// Quantizes each difference of `y` from the tracked state at `shift`,
    /// hands it to `emit` in order, and tracks the decoder's
    /// reconstruction exactly (the closed loop).
    #[inline(always)]
    fn track(&mut self, y: &[i32], shift: u8, mut emit: impl FnMut(i16)) {
        let half = self.config.half();
        for (s, &yi) in self.state.iter_mut().zip(y) {
            let d = quantize_diff(yi - *s, shift, half);
            *s += (d as i32) << shift;
            emit(d);
        }
    }

    fn check_len(&self, y: &[i32]) -> Result<(), CodecError> {
        if y.len() != self.config.vector_len {
            return Err(CodecError::LengthMismatch {
                expected: self.config.vector_len,
                actual: y.len(),
            });
        }
        Ok(())
    }

    /// Resets the stream (next packet becomes a reference).
    pub fn reset(&mut self) {
        self.packets_sent = 0;
        self.state.iter_mut().for_each(|v| *v = 0);
    }
}

/// Magnitude after round-to-nearest scaling by `2^shift`.
fn scaled(v: i32, shift: u8) -> i32 {
    if shift == 0 {
        v.abs()
    } else {
        (v.abs() + (1 << (shift - 1))) >> shift
    }
}

/// Rounds `diff / 2^shift` to nearest, halves away from zero, and
/// clamps into the alphabet. The magnitude rounds and the sign comes back
/// after, with no branch on it: differences change sign at random, so a
/// branch on the sign mispredicts about every other value.
fn quantize_diff(diff: i32, shift: u8, half: i32) -> i16 {
    let bias = (1u32 << shift) >> 1;
    let magnitude = ((diff.unsigned_abs() + bias) >> shift) as i32;
    let q = if diff < 0 { magnitude.wrapping_neg() } else { magnitude };
    q.clamp(-half, half - 1) as i16
}

/// Decoder side of the differencing stage.
#[derive(Debug, Clone)]
pub struct DiffDecoder {
    config: DiffConfig,
    state: Vec<i32>,
    synchronized: bool,
}

impl DiffDecoder {
    /// Creates a decoder. It refuses delta packets until it has seen a
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid.
    pub fn new(config: DiffConfig) -> Self {
        config.validate();
        DiffDecoder {
            config,
            state: vec![0; config.vector_len],
            synchronized: false,
        }
    }

    /// Reconstructs the measurement vector for a packet.
    ///
    /// # Errors
    ///
    /// * [`CodecError::LengthMismatch`] for a wrong-size payload.
    /// * [`CodecError::MissingReference`] for a delta packet before any
    ///   reference has been received.
    pub fn decode(&mut self, packet: &DiffPacket) -> Result<Vec<i32>, CodecError> {
        match packet {
            DiffPacket::Reference(y) => self.decode_reference(y).map(<[i32]>::to_vec),
            DiffPacket::Delta(block) => {
                self.decode_delta(block.shift, &block.values).map(<[i32]>::to_vec)
            }
        }
    }

    /// Accepts a reference payload and returns a borrow of the updated
    /// state — the non-allocating form of [`DiffDecoder::decode`] for
    /// callers that copy (or transform) the vector themselves.
    ///
    /// # Errors
    ///
    /// [`CodecError::LengthMismatch`] for a wrong-size payload.
    pub fn decode_reference<'s>(&'s mut self, y: &[i32]) -> Result<&'s [i32], CodecError> {
        if y.len() != self.config.vector_len {
            return Err(CodecError::LengthMismatch {
                expected: self.config.vector_len,
                actual: y.len(),
            });
        }
        self.state.copy_from_slice(y);
        self.synchronized = true;
        Ok(&self.state)
    }

    /// Accumulates a delta payload and returns a borrow of the updated
    /// state — the non-allocating form of [`DiffDecoder::decode`].
    ///
    /// # Errors
    ///
    /// * [`CodecError::LengthMismatch`] for a wrong-size payload.
    /// * [`CodecError::MissingReference`] before any reference.
    pub fn decode_delta<'s>(
        &'s mut self,
        shift: u8,
        values: &[i16],
    ) -> Result<&'s [i32], CodecError> {
        if values.len() != self.config.vector_len {
            return Err(CodecError::LengthMismatch {
                expected: self.config.vector_len,
                actual: values.len(),
            });
        }
        if !self.synchronized {
            return Err(CodecError::MissingReference);
        }
        // Saturating accumulation: the payload is attacker-controlled wire
        // data, and a crafted run of maximal deltas would otherwise
        // overflow the i32 state (a debug-build panic). Honest encoders
        // track bounded ADC counts and never come near saturation, so the
        // closed loop is unaffected.
        for (s, &di) in self.state.iter_mut().zip(values) {
            *s = s.saturating_add((di as i32) << shift);
        }
        Ok(&self.state)
    }

    /// Drops synchronization (e.g. after detected packet loss); the next
    /// accepted packet must be a reference.
    pub fn desynchronize(&mut self) {
        self.synchronized = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(len: usize, interval: usize) -> DiffConfig {
        DiffConfig {
            vector_len: len,
            reference_interval: interval,
            alphabet: 512,
        }
    }

    #[test]
    fn reference_cadence() {
        let mut enc = DiffEncoder::new(cfg(2, 3));
        let refs: Vec<bool> = (0..7)
            .map(|i| enc.encode(&[i, i]).unwrap().is_reference())
            .collect();
        assert_eq!(refs, [true, false, false, true, false, false, true]);
    }

    #[test]
    fn small_changes_round_trip_exactly() {
        let c = cfg(8, 100);
        let mut enc = DiffEncoder::new(c);
        let mut dec = DiffDecoder::new(c);
        let mut y: Vec<i32> = (0..8).map(|i| i * 100).collect();
        for step in 0..50 {
            let p = enc.encode(&y).unwrap();
            if let DiffPacket::Delta(b) = &p {
                assert_eq!(b.shift, 0, "small diffs need no gain");
            }
            assert_eq!(dec.decode(&p).unwrap(), y, "step {step}");
            for v in &mut y {
                *v += (step % 7) - 3; // stays within the alphabet at gain 0
            }
        }
    }

    #[test]
    fn large_jump_uses_gain_and_stays_close() {
        let c = cfg(1, 1000);
        let mut enc = DiffEncoder::new(c);
        let mut dec = DiffDecoder::new(c);
        assert_eq!(dec.decode(&enc.encode(&[0]).unwrap()).unwrap(), vec![0]);
        // A +10 000 jump exceeds ±256 at gain 0: the encoder raises the
        // gain instead of saturating, and the reconstruction lands within
        // half a quantization step.
        let p = enc.encode(&[10_000]).unwrap();
        let DiffPacket::Delta(block) = &p else {
            panic!("expected delta")
        };
        assert!(block.shift >= 5 && block.shift <= 7, "shift {}", block.shift);
        let r = dec.decode(&p).unwrap();
        let err = (r[0] - 10_000).abs();
        assert!(err <= 1 << (block.shift - 1), "error {err} at shift {}", block.shift);
        // Next packet at the same value is exact (gain drops back to 0).
        let p2 = enc.encode(&[10_000]).unwrap();
        assert_eq!(dec.decode(&p2).unwrap(), vec![10_000]);
    }

    /// The branch-free rounding against the branching form it replaced,
    /// at every gain, around zero, on and beside the halfway points and
    /// near the extremes of what a measurement difference can be.
    #[test]
    fn quantize_diff_matches_the_branching_form() {
        let branching = |diff: i32, shift: u8, half: i32| {
            let q = if shift == 0 {
                diff
            } else {
                let bias = 1 << (shift - 1);
                if diff >= 0 {
                    (diff + bias) >> shift
                } else {
                    -((-diff + bias) >> shift)
                }
            };
            q.clamp(-half, half - 1) as i16
        };
        for shift in 0..=MAX_DELTA_SHIFT {
            let ties = (-4..=4)
                .map(|k: i32| ((2 * k + 1) << shift) >> 1)
                .flat_map(|t| [t - 1, t, t + 1]);
            let edges = [1 << 30, -(1 << 30), i32::MAX - (1 << 15), i32::MIN + (1 << 15)];
            for diff in (-3000..=3000).chain(ties).chain(edges) {
                for half in [8, 256] {
                    assert_eq!(
                        quantize_diff(diff, shift, half),
                        branching(diff, shift, half),
                        "diff {diff}, shift {shift}, half {half}"
                    );
                }
            }
        }
    }

    #[test]
    fn code_delta_refuses_a_codebook_short_of_the_alphabet() {
        let mut enc = DiffEncoder::new(cfg(2, 4));
        let small = Codebook::from_counts(&[1; 256], 256).unwrap();
        assert!(enc.begin(&[0, 0]).unwrap() == DiffStep::Reference);
        let mut out = Vec::new();
        assert_eq!(
            enc.code_delta(&[1, 1], 0, &small, &mut out),
            Err(CodecError::SymbolOutOfRange { symbol: 511, alphabet: 256 })
        );
        assert!(out.is_empty());
    }

    #[test]
    fn delta_before_reference_rejected() {
        let c = cfg(2, 4);
        let mut dec = DiffDecoder::new(c);
        let delta = DiffPacket::Delta(DeltaBlock {
            shift: 0,
            values: vec![1, 2],
        });
        assert!(matches!(
            dec.decode(&delta),
            Err(CodecError::MissingReference)
        ));
    }

    #[test]
    fn desynchronize_forces_reference() {
        let c = cfg(1, 100);
        let mut enc = DiffEncoder::new(c);
        let mut dec = DiffDecoder::new(c);
        dec.decode(&enc.encode(&[5]).unwrap()).unwrap();
        dec.desynchronize();
        let p = enc.encode(&[6]).unwrap(); // a delta
        assert!(dec.decode(&p).is_err());
    }

    #[test]
    fn length_mismatch_detected() {
        let mut enc = DiffEncoder::new(cfg(4, 2));
        assert!(matches!(
            enc.encode(&[1, 2, 3]),
            Err(CodecError::LengthMismatch { expected: 4, actual: 3 })
        ));
    }

    #[test]
    fn reset_restarts_with_reference() {
        let mut enc = DiffEncoder::new(cfg(1, 10));
        let _ = enc.encode(&[1]).unwrap();
        assert!(!enc.encode(&[2]).unwrap().is_reference());
        enc.reset();
        assert!(enc.encode(&[3]).unwrap().is_reference());
    }

    proptest! {
        #[test]
        fn prop_encoder_decoder_stay_in_lockstep(
            seed in any::<u64>(),
            interval in 1_usize..20,
        ) {
            let c = cfg(16, interval);
            let mut enc = DiffEncoder::new(c);
            let mut dec = DiffDecoder::new(c);
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 30000) as i32 - 15000
            };
            let mut y: Vec<i32> = (0..16).map(|_| next()).collect();
            let mut last_recon = Vec::new();
            for _ in 0..40 {
                let p = enc.encode(&y).unwrap();
                last_recon = dec.decode(&p).unwrap();
                for v in &mut y {
                    *v += next() / 4; // arbitrary, often large, jumps
                }
            }
            // Whatever happened, encoder's internal state equals decoder's.
            prop_assert_eq!(&enc.state, &dec.state);
            prop_assert_eq!(last_recon, dec.state.clone());
        }

        #[test]
        fn prop_reconstruction_error_bounded_by_gain(seed in any::<u64>()) {
            let c = cfg(8, 1000);
            let mut enc = DiffEncoder::new(c);
            let mut dec = DiffDecoder::new(c);
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13; state ^= state >> 7; state ^= state << 17;
                (state % 60000) as i32 - 30000
            };
            let first: Vec<i32> = (0..8).map(|_| next()).collect();
            dec.decode(&enc.encode(&first).unwrap()).unwrap();
            for _ in 0..20 {
                let y: Vec<i32> = (0..8).map(|_| next()).collect();
                let p = enc.encode(&y).unwrap();
                let DiffPacket::Delta(block) = &p else { unreachable!() };
                prop_assert!(block.values.iter().all(|&v| (-256..=255).contains(&v)));
                let r = dec.decode(&p).unwrap();
                // One step of adaptive-gain DPCM lands within half a
                // quantization step of the target (unless clamped at the
                // extreme alphabet edge, which the shift choice prevents).
                let bound = if block.shift == 0 { 0 } else { 1_i32 << (block.shift - 1) };
                for (a, b) in r.iter().zip(&y) {
                    prop_assert!((a - b).abs() <= bound, "err {} bound {bound}", a - b);
                }
            }
        }
    }
}
