//! MSB-first bit-level I/O.
//!
//! The Huffman coder emits variable-length codes (up to 16 bits in this
//! system); [`BitWriter`] packs them into bytes for the radio and
//! [`BitReader`] unpacks them on the coordinator. Both work a word at a
//! time: the writer gathers bits in a 64-bit accumulator and appends them
//! four bytes at once, and the reader serves every read from one
//! big-endian 8-byte load at the cursor's byte, zero-padded past the end.
//! Away from the end that load holds at least 57 unread bits, room for
//! three 16-bit codewords.

use crate::error::CodecError;

/// Accumulates bits MSB-first into a byte vector.
///
/// # Examples
///
/// ```
/// use cs_codec::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xABCD, 16);
/// let bytes = w.finish();
///
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert_eq!(r.read_bits(16)?, 0xABCD);
/// # Ok::<(), cs_codec::CodecError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    /// Whole bytes emitted so far.
    bytes: Vec<u8>,
    /// The bits not yet emitted: the low `pending` bits of `acc` (the
    /// bits above them are stale).
    acc: u64,
    /// Always below 32 between calls.
    pending: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Creates an empty writer whose buffer holds `bytes` bytes before it
    /// grows — a writer sized for the largest packet never reallocates.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bytes),
            ..BitWriter::default()
        }
    }

    /// Appends the low `count` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or greater than 32.
    #[inline]
    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!((1..=32).contains(&count), "write_bits: count must be 1..=32");
        debug_assert!(
            count == 32 || value < (1u32 << count),
            "write_bits: value {value} wider than {count} bits"
        );
        // At most 31 + 32 live bits: the shift cannot lose one.
        let mask = (1u64 << count) - 1;
        self.acc = (self.acc << count) | (u64::from(value) & mask);
        self.pending += count;
        if self.pending >= 32 {
            self.pending -= 32;
            let word = (self.acc >> self.pending) as u32;
            self.bytes.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.pending as usize
    }

    /// Pads the final byte with zero bits and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        while self.pending >= 8 {
            self.pending -= 8;
            self.bytes.push((self.acc >> self.pending) as u8);
        }
        if self.pending > 0 {
            self.bytes.push((self.acc << (8 - self.pending)) as u8);
        }
        self.bytes
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor.
    cursor: usize,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, cursor: 0 }
    }

    /// Remaining unread bits.
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.cursor
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEndOfStream`] past the end.
    pub fn read_bit(&mut self) -> Result<u32, CodecError> {
        let byte = self.cursor / 8;
        if byte >= self.bytes.len() {
            return Err(CodecError::UnexpectedEndOfStream { bit: self.cursor });
        }
        let shift = 7 - (self.cursor % 8);
        self.cursor += 1;
        Ok(((self.bytes[byte] >> shift) & 1) as u32)
    }

    /// Reads `count` bits MSB-first.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEndOfStream`] if fewer than `count`
    /// bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or greater than 32.
    #[inline]
    pub fn read_bits(&mut self, count: u8) -> Result<u32, CodecError> {
        assert!((1..=32).contains(&count), "read_bits: count must be 1..=32");
        if self.remaining_bits() < count as usize {
            return Err(CodecError::UnexpectedEndOfStream { bit: self.cursor });
        }
        let value = (self.window() >> (64 - u32::from(count))) as u32;
        self.cursor += count as usize;
        Ok(value)
    }

    /// The next 64 − (cursor mod 8) bits of the stream, left-aligned: one
    /// big-endian 8-byte load from the cursor's byte, shifted so the
    /// cursor's bit is bit 63. Past the end the stream reads as zeros.
    #[inline]
    fn window(&self) -> u64 {
        let tail = self.bytes.get(self.cursor / 8..).unwrap_or(&[]);
        let word = match tail.first_chunk::<8>() {
            Some(word) => *word,
            None => {
                let mut word = [0u8; 8];
                word[..tail.len()].copy_from_slice(tail);
                word
            }
        };
        u64::from_be_bytes(word) << (self.cursor % 8)
    }

    /// The next 16 bits without consuming them, zero-padded past the end
    /// of the stream — the Huffman decoder's table index.
    #[inline]
    pub(crate) fn peek_16(&self) -> u16 {
        (self.window() >> 48) as u16
    }

    /// The next 64 − (cursor mod 8) bits, left-aligned as in
    /// [`BitReader::window`], while eight whole bytes remain from the
    /// cursor's byte; `None` nearer the end. At least 57 of the returned
    /// bits are stream bits, never padding.
    #[inline]
    pub(crate) fn peek_word(&self) -> Option<u64> {
        let word = self.bytes.get(self.cursor / 8..)?.first_chunk::<8>()?;
        Some(u64::from_be_bytes(*word) << (self.cursor % 8))
    }

    /// Consumes `count` bits of a word [`BitReader::peek_word`] returned.
    #[inline]
    pub(crate) fn advance(&mut self, count: u8) {
        debug_assert!(count as usize <= self.remaining_bits());
        self.cursor += count as usize;
    }

    /// Consumes `count` bits a [`BitReader::peek_16`] already looked at.
    ///
    /// # Errors
    ///
    /// If fewer than `count` bits remain the reader is left exhausted and
    /// the error names the end of the stream — what reading them one by
    /// one would have reported.
    #[inline]
    pub(crate) fn consume(&mut self, count: u8) -> Result<(), CodecError> {
        if self.remaining_bits() < count as usize {
            self.cursor = self.bytes.len() * 8;
            return Err(CodecError::UnexpectedEndOfStream { bit: self.cursor });
        }
        self.cursor += count as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_writer() {
        let w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn cross_byte_boundaries() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b0110_1001_0110, 12);
        assert_eq!(w.bit_len(), 13);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(12).unwrap(), 0b0110_1001_0110);
        // Padding bits read as zero.
        assert_eq!(r.remaining_bits(), 3);
    }

    #[test]
    fn end_of_stream_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(matches!(
            r.read_bit(),
            Err(CodecError::UnexpectedEndOfStream { bit: 8 })
        ));
        let mut r2 = BitReader::new(&[0xFF]);
        assert!(r2.read_bits(9).is_err());
    }

    #[test]
    fn full_width_values() {
        let mut w = BitWriter::new();
        w.write_bits(u32::MAX, 32);
        w.write_bits(0, 32);
        let b = w.finish();
        let mut r = BitReader::new(&b);
        assert_eq!(r.read_bits(32).unwrap(), u32::MAX);
        assert_eq!(r.read_bits(32).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "count must be")]
    fn zero_count_write_panics() {
        BitWriter::new().write_bits(0, 0);
    }

    proptest! {
        #[test]
        fn prop_round_trip(values in proptest::collection::vec((0u32..=u32::MAX, 1u8..=32), 1..64)) {
            let mut w = BitWriter::new();
            let mut expected = Vec::new();
            for &(v, c) in &values {
                let masked = if c == 32 { v } else { v & ((1u32 << c) - 1) };
                w.write_bits(masked, c);
                expected.push((masked, c));
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for (v, c) in expected {
                prop_assert_eq!(r.read_bits(c).unwrap(), v);
            }
        }
    }
}
