//! Length-limited canonical Huffman coding.
//!
//! The paper's entropy stage uses "a complete Huffman codebook of size 512
//! … with a maximum codeword length of 16 bits", trained offline and stored
//! on the mote in 1.5 kB (§IV-A2). This module reproduces that design:
//!
//! * code lengths come from the **package–merge** algorithm, which produces
//!   the optimal prefix code subject to the 16-bit length cap (a plain
//!   Huffman tree over 512 skewed symbols can exceed 16 bits);
//! * codewords are assigned **canonically**, so the codebook serializes as
//!   just the 512 length bytes and both sides rebuild identical tables;
//! * the decoder is table-driven, like the one on the iPhone: one lookup in
//!   a 2¹¹-entry `(symbol, length)` table resolves every codeword of up to
//!   11 bits, and only the rare longer ones walk the canonical first-code
//!   table. While eight whole bytes remain it resolves up to three
//!   codewords from one 64-bit load of the stream and moves the reader
//!   once; the last few bytes, and every error, go one codeword at a time.

use crate::bitstream::{BitReader, BitWriter};
use crate::error::CodecError;

/// Maximum codeword length used throughout the system (paper §IV-A2).
pub const MAX_CODE_LEN: u8 = 16;

/// Bits of the stream that index the decode table. 2¹¹ four-byte entries
/// are 8 KB — a quarter of an L1 data cache, shared by every lane through
/// the `Arc<Codebook>` — and a trained 512-symbol book puts all but its
/// rarest residuals at or under 11 bits.
const TABLE_BITS: u8 = 11;

/// One decode-table slot: the symbol whose codeword is a prefix of the
/// slot's index, or `len == 0` where that codeword is longer than
/// [`TABLE_BITS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TableEntry {
    symbol: u16,
    len: u8,
}

/// A trained, canonical, length-limited Huffman codebook over a contiguous
/// alphabet `0..alphabet_size`.
///
/// # Examples
///
/// ```
/// use cs_codec::{BitReader, BitWriter, Codebook};
///
/// // Skewed counts: symbol 0 dominates.
/// let counts = vec![1000_u64, 50, 20, 10, 5, 1, 1, 1];
/// let cb = Codebook::from_counts(&counts, 8)?;
/// let symbols = [0_u16, 0, 1, 2, 0, 7];
/// let mut w = BitWriter::new();
/// cb.encode(&symbols, &mut w)?;
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(cb.decode(&mut r, symbols.len())?, symbols);
/// # Ok::<(), cs_codec::CodecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Codebook {
    /// Code length per symbol (1..=MAX_CODE_LEN).
    lengths: Vec<u8>,
    /// Canonical codeword per symbol (right-aligned).
    codes: Vec<u16>,
    /// Decoder tables: for each length ℓ (1-indexed), the first canonical
    /// code of that length and the index into `sorted_symbols` where codes
    /// of that length start.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    first_index: [u32; MAX_CODE_LEN as usize + 1],
    count_at_len: [u32; MAX_CODE_LEN as usize + 1],
    /// Symbols sorted by (length, symbol).
    sorted_symbols: Vec<u16>,
    /// Indexed by the next [`TABLE_BITS`] bits of the stream.
    table: Box<[TableEntry; 1 << TABLE_BITS]>,
}

impl Codebook {
    /// Trains a codebook from symbol counts with a hard length cap of
    /// [`MAX_CODE_LEN`] bits.
    ///
    /// Counts of zero are smoothed to one so *every* symbol receives a
    /// codeword — the system cannot afford escape codes on the mote, and
    /// the paper's codebook is likewise "complete".
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidCodebook`] if the alphabet has fewer
    /// than two symbols, exceeds `u16` range, or cannot satisfy the length
    /// cap (`alphabet_size > 2^MAX_CODE_LEN`).
    pub fn from_counts(counts: &[u64], alphabet_size: usize) -> Result<Self, CodecError> {
        if alphabet_size < 2 {
            return Err(CodecError::InvalidCodebook(
                "alphabet must have at least two symbols".into(),
            ));
        }
        if alphabet_size > (1 << MAX_CODE_LEN) || alphabet_size > u16::MAX as usize + 1 {
            return Err(CodecError::InvalidCodebook(format!(
                "alphabet of {alphabet_size} cannot satisfy the {MAX_CODE_LEN}-bit cap"
            )));
        }
        if counts.len() != alphabet_size {
            return Err(CodecError::InvalidCodebook(format!(
                "got {} counts for an alphabet of {alphabet_size}",
                counts.len()
            )));
        }
        let weights: Vec<u64> = counts.iter().map(|&c| c.max(1)).collect();
        let lengths = package_merge(&weights, MAX_CODE_LEN);
        Self::from_lengths(&lengths)
    }

    /// Rebuilds the canonical codebook from its serialized form — the
    /// per-symbol length bytes (what the mote actually stores and what both
    /// sides must agree on).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidCodebook`] if any length is zero or
    /// exceeds [`MAX_CODE_LEN`], or the lengths violate Kraft equality
    /// (`Σ 2^{-ℓᵢ} ≠ 1`, which a complete prefix code requires).
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
        if lengths.len() < 2 {
            return Err(CodecError::InvalidCodebook(
                "need at least two symbols".into(),
            ));
        }
        let mut kraft = 0u64; // in units of 2^-MAX_CODE_LEN
        for (i, &l) in lengths.iter().enumerate() {
            if l == 0 || l > MAX_CODE_LEN {
                return Err(CodecError::InvalidCodebook(format!(
                    "symbol {i} has invalid length {l}"
                )));
            }
            kraft += 1u64 << (MAX_CODE_LEN - l);
        }
        if kraft != 1u64 << MAX_CODE_LEN {
            return Err(CodecError::InvalidCodebook(format!(
                "Kraft sum is {kraft}/{} (must be exactly 1)",
                1u64 << MAX_CODE_LEN
            )));
        }

        // Canonical assignment: sort by (length, symbol).
        let mut order: Vec<u16> = (0..lengths.len() as u16).collect();
        order.sort_by_key(|&s| (lengths[s as usize], s));

        let mut codes = vec![0u16; lengths.len()];
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut first_index = [0u32; MAX_CODE_LEN as usize + 1];
        let mut count_at_len = [0u32; MAX_CODE_LEN as usize + 1];
        for &s in &order {
            count_at_len[lengths[s as usize] as usize] += 1;
        }
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            first_code[len] = code;
            first_index[len] = index;
            code += count_at_len[len];
            index += count_at_len[len];
            code <<= 1;
        }
        // Per-symbol codes.
        let mut next_code = first_code;
        for &s in &order {
            let len = lengths[s as usize] as usize;
            codes[s as usize] = next_code[len] as u16;
            next_code[len] += 1;
        }

        // A codeword of ℓ ≤ TABLE_BITS bits owns the 2^(TABLE_BITS − ℓ)
        // slots it prefixes; prefix-freedom makes the runs disjoint.
        let mut table = Box::new([TableEntry::default(); 1 << TABLE_BITS]);
        for (symbol, (&code, &len)) in codes.iter().zip(lengths).enumerate() {
            if len <= TABLE_BITS {
                let span = 1usize << (TABLE_BITS - len);
                let first = code as usize * span;
                table[first..first + span].fill(TableEntry { symbol: symbol as u16, len });
            }
        }

        Ok(Codebook {
            lengths: lengths.to_vec(),
            codes,
            first_code,
            first_index,
            count_at_len,
            sorted_symbols: order,
            table,
        })
    }

    /// Alphabet size.
    pub fn alphabet_size(&self) -> usize {
        self.lengths.len()
    }

    /// Per-symbol code lengths — the codebook's serialized form.
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// The canonical codeword of `symbol` as `(code, length)`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is outside the alphabet.
    pub fn codeword(&self, symbol: u16) -> (u16, u8) {
        (
            self.codes[symbol as usize],
            self.lengths[symbol as usize],
        )
    }

    /// Longest codeword length actually used.
    pub fn max_length(&self) -> u8 {
        self.lengths.iter().copied().max().unwrap_or(0)
    }

    /// Bytes a mote needs to hold this codebook the way the paper stores it:
    /// a 16-bit code per symbol (1 kB for 512 symbols) plus one length byte
    /// per symbol (512 B) — 1.5 kB total at the paper's alphabet.
    pub fn mote_storage_bytes(&self) -> usize {
        self.alphabet_size() * 2 + self.alphabet_size()
    }

    /// Encodes `symbols` into the writer.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::SymbolOutOfRange`] on the first symbol outside
    /// the alphabet.
    pub fn encode(&self, symbols: &[u16], w: &mut BitWriter) -> Result<(), CodecError> {
        for &s in symbols {
            if s as usize >= self.lengths.len() {
                return Err(CodecError::SymbolOutOfRange {
                    symbol: s as i32,
                    alphabet: self.lengths.len(),
                });
            }
            let (code, len) = self.codeword(s);
            w.write_bits(code as u32, len);
        }
        Ok(())
    }

    /// Expected code length in bits under the given counts — the quantity
    /// the compression-ratio model uses.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len()` differs from the alphabet size.
    pub fn expected_length_bits(&self, counts: &[u64]) -> f64 {
        assert_eq!(counts.len(), self.lengths.len(), "expected_length_bits: size mismatch");
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        counts
            .iter()
            .zip(&self.lengths)
            .map(|(&c, &l)| c as f64 * l as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Decodes exactly `count` symbols from the reader.
    ///
    /// Every codebook is Kraft-complete ([`Codebook::from_lengths`]
    /// refuses any other), so every run of 16 bits starts with a codeword:
    /// a corrupt stream decodes to other symbols or ends early, and never
    /// fails to match.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEndOfStream`] if the stream ends inside the
    /// `count` symbols. [`CodecError::InvalidCodeword`] is reserved for a
    /// codeword that matches nothing, which a complete code never meets.
    pub fn decode(&self, r: &mut BitReader<'_>, count: usize) -> Result<Vec<u16>, CodecError> {
        let mut out = Vec::with_capacity(count);
        self.decode_into(r, count, &mut out)?;
        Ok(out)
    }

    /// Decodes exactly `count` symbols into `out` (cleared first). The
    /// buffer's capacity is reused, so a caller that decodes packets in a
    /// loop allocates at most once. While eight whole bytes remain it takes
    /// up to three codewords from each 64-bit load of the stream; the rest
    /// go one at a time through [`Codebook::decode_symbol`], which also
    /// reports every error, so the result is a codeword-at-a-time decode's.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Codebook::decode`]; on error `out` holds the
    /// symbols decoded so far.
    pub fn decode_into(
        &self,
        r: &mut BitReader<'_>,
        count: usize,
        out: &mut Vec<u16>,
    ) -> Result<(), CodecError> {
        out.clear();
        out.reserve(count);
        // Three codewords of at most 16 bits fit the ≥ 57 stream bits of a
        // word, so none of them can run off the end; a corrupt codeword
        // stops the word and is left for `decode_symbol` to report.
        'words: while out.len() < count {
            let Some(mut word) = r.peek_word() else { break };
            let mut used = 0;
            for _ in 0..(count - out.len()).min(3) {
                // Defensive: a complete code always resolves the peek.
                let Some((symbol, len)) = self.lookup((word >> 48) as u16) else {
                    r.advance(used);
                    break 'words;
                };
                out.push(symbol);
                word <<= len;
                used += len;
            }
            r.advance(used);
        }
        while out.len() < count {
            out.push(self.decode_symbol(r)?);
        }
        Ok(())
    }

    /// Decodes a single symbol.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Codebook::decode`]. A stream that ends inside
    /// a codeword leaves the reader exhausted.
    #[inline]
    pub fn decode_symbol(&self, r: &mut BitReader<'_>) -> Result<u16, CodecError> {
        match self.lookup(r.peek_16()) {
            // Zero padding past the end can only complete a codeword
            // longer than what remains, which `consume` refuses.
            Some((symbol, len)) => r.consume(len).map(|()| symbol),
            // Defensive: a complete code always resolves the peek. The
            // error stays a return, not a panic, should a later codebook
            // format admit incomplete codes.
            None => {
                r.consume(MAX_CODE_LEN)?;
                Err(CodecError::InvalidCodeword)
            }
        }
    }

    /// The symbol and length of the codeword that prefixes the 16-bit
    /// `peek`: one table lookup, or for a codeword longer than
    /// [`TABLE_BITS`] the canonical walk. `None` if no codeword does.
    #[inline(always)]
    fn lookup(&self, peek: u16) -> Option<(u16, u8)> {
        let entry = self.table[usize::from(peek >> (MAX_CODE_LEN - TABLE_BITS))];
        if entry.len != 0 {
            return Some((entry.symbol, entry.len));
        }
        self.walk(peek)
    }

    /// [`Codebook::lookup`] for a `peek` no table slot resolves.
    #[inline(never)]
    fn walk(&self, peek: u16) -> Option<(u16, u8)> {
        let peek = u32::from(peek);
        (TABLE_BITS + 1..=MAX_CODE_LEN)
            .find_map(|len| Some((self.symbol_at(peek >> (MAX_CODE_LEN - len), len)?, len)))
    }

    /// The symbol whose canonical codeword is the `len`-bit `code`.
    #[inline]
    fn symbol_at(&self, code: u32, len: u8) -> Option<u16> {
        let len = len as usize;
        let offset = code.wrapping_sub(self.first_code[len]);
        (code >= self.first_code[len] && offset < self.count_at_len[len])
            .then(|| self.sorted_symbols[(self.first_index[len] + offset) as usize])
    }

    /// The bit-at-a-time decoder [`Codebook::decode_symbol`] replaced,
    /// kept as the model the differential tests hold it to.
    #[cfg(test)]
    pub(crate) fn decode_symbol_serial(
        &self,
        mut read_bit: impl FnMut() -> Result<u32, CodecError>,
    ) -> Result<u16, CodecError> {
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN {
            code = (code << 1) | read_bit()?;
            if let Some(symbol) = self.symbol_at(code, len) {
                return Ok(symbol);
            }
        }
        Err(CodecError::InvalidCodeword)
    }
}

/// Package–merge: optimal code lengths for `weights` under a `max_len` cap.
///
/// Returns one length per weight. Standard formulation: build `max_len`
/// levels of "packages"; every time an original item appears in one of the
/// `2·(n−1)` cheapest level-1 packages, its length increases by one.
fn package_merge(weights: &[u64], max_len: u8) -> Vec<u8> {
    let n = weights.len();
    debug_assert!(n >= 2);
    debug_assert!((1usize << max_len) >= n, "cap infeasible");

    // Items sorted by weight; each package carries the multiset of original
    // item indices it contains.
    let mut base: Vec<(u64, Vec<u16>)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| (w, vec![i as u16]))
        .collect();
    base.sort_by_key(|(w, items)| (*w, items[0]));

    // prev = list at level d+1 (starts empty at the deepest level).
    let mut prev: Vec<(u64, Vec<u16>)> = Vec::new();
    for _level in 0..max_len {
        // Package pairs of prev.
        let mut packaged: Vec<(u64, Vec<u16>)> = Vec::with_capacity(prev.len() / 2);
        let mut it = prev.chunks_exact(2);
        for pair in &mut it {
            let mut items = pair[0].1.clone();
            items.extend_from_slice(&pair[1].1);
            packaged.push((pair[0].0 + pair[1].0, items));
        }
        // Merge with the base items (both sorted by weight).
        let mut merged = Vec::with_capacity(base.len() + packaged.len());
        let (mut i, mut j) = (0, 0);
        while i < base.len() || j < packaged.len() {
            let take_base = j >= packaged.len()
                || (i < base.len() && base[i].0 <= packaged[j].0);
            if take_base {
                merged.push(base[i].clone());
                i += 1;
            } else {
                merged.push(std::mem::take(&mut packaged[j]));
                j += 1;
            }
        }
        prev = merged;
    }

    // The 2(n−1) cheapest level-1 entries define the lengths.
    let mut lengths = vec![0u8; n];
    for (_, items) in prev.iter().take(2 * (n - 1)) {
        for &idx in items {
            lengths[idx as usize] += 1;
        }
    }
    lengths
}

/// Maps a clamped difference value in `[-(A/2), A/2 - 1]` to a symbol in
/// `0..A` (two's-complement style offset binary). `A` is the alphabet size,
/// 512 in the paper's system.
///
/// # Errors
///
/// Returns [`CodecError::ValueOutOfRange`] if the value is outside the
/// representable range — wire bytes are attacker-controlled, so the
/// mapping must reject rather than panic.
///
/// # Examples
///
/// ```
/// use cs_codec::{symbol_to_value, value_to_symbol};
/// assert_eq!(value_to_symbol(-256, 512)?, 0);
/// assert_eq!(value_to_symbol(0, 512)?, 256);
/// assert_eq!(value_to_symbol(255, 512)?, 511);
/// assert_eq!(symbol_to_value(value_to_symbol(-100, 512)?, 512)?, -100);
/// assert!(value_to_symbol(256, 512).is_err());
/// # Ok::<(), cs_codec::CodecError>(())
/// ```
pub fn value_to_symbol(value: i32, alphabet: usize) -> Result<u16, CodecError> {
    let half = (alphabet / 2) as i32;
    if value < -half || value >= half {
        return Err(CodecError::ValueOutOfRange { value, alphabet });
    }
    Ok((value + half) as u16)
}

/// Inverse of [`value_to_symbol`].
///
/// # Errors
///
/// Returns [`CodecError::SymbolOutOfRange`] if the symbol is outside the
/// alphabet.
pub fn symbol_to_value(symbol: u16, alphabet: usize) -> Result<i32, CodecError> {
    if symbol as usize >= alphabet {
        return Err(CodecError::SymbolOutOfRange {
            symbol: symbol as i32,
            alphabet,
        });
    }
    Ok(symbol as i32 - (alphabet / 2) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kraft_is_exact(lengths: &[u8]) -> bool {
        let sum: u64 = lengths
            .iter()
            .map(|&l| 1u64 << (MAX_CODE_LEN - l))
            .sum();
        sum == 1u64 << MAX_CODE_LEN
    }

    #[test]
    fn two_symbols_get_one_bit() {
        let cb = Codebook::from_counts(&[10, 1], 2).unwrap();
        assert_eq!(cb.lengths(), &[1, 1]);
    }

    #[test]
    fn skewed_distribution_respects_cap() {
        // Exponentially skewed counts over 512 symbols would drive plain
        // Huffman beyond 16 bits; package-merge must cap it.
        let counts: Vec<u64> = (0..512)
            .map(|i| 1u64 << (30 - (i as u32 / 18).min(30)))
            .collect();
        let cb = Codebook::from_counts(&counts, 512).unwrap();
        assert!(cb.max_length() <= MAX_CODE_LEN);
        assert!(kraft_is_exact(cb.lengths()));
    }

    #[test]
    fn average_length_near_entropy() {
        // Geometric-ish distribution; optimal cap-16 code must be within
        // one bit of entropy (Huffman bound).
        let counts: Vec<u64> = (0..64).map(|i| 4096 >> (i / 8).min(11)).collect();
        let total: u64 = counts.iter().sum();
        let entropy: f64 = counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        let cb = Codebook::from_counts(&counts, 64).unwrap();
        let avg = cb.expected_length_bits(&counts);
        assert!(avg >= entropy - 1e-9, "avg {avg} below entropy {entropy}");
        assert!(avg <= entropy + 1.0, "avg {avg} vs entropy {entropy}");
    }

    #[test]
    fn paper_codebook_storage_is_1_5_kb() {
        let counts = vec![1u64; 512];
        let cb = Codebook::from_counts(&counts, 512).unwrap();
        assert_eq!(cb.mote_storage_bytes(), 1536);
        // Uniform 512 symbols ⇒ exactly 9 bits each.
        assert!(cb.lengths().iter().all(|&l| l == 9));
    }

    #[test]
    fn round_trip_through_lengths() {
        let counts: Vec<u64> = (1..=100).map(|i| i * i).collect();
        let cb = Codebook::from_counts(&counts, 100).unwrap();
        let rebuilt = Codebook::from_lengths(cb.lengths()).unwrap();
        assert_eq!(cb, rebuilt);
    }

    #[test]
    fn decode_rejects_truncated_stream() {
        let cb = Codebook::from_counts(&[100, 1, 1, 1], 4).unwrap();
        let mut w = BitWriter::new();
        cb.encode(&[1, 2, 3, 1, 2], &mut w).unwrap();
        let mut bytes = w.finish();
        bytes.truncate(1);
        let mut r = BitReader::new(&bytes);
        assert!(cb.decode(&mut r, 5).is_err());
    }

    #[test]
    fn invalid_codebooks_rejected() {
        assert!(Codebook::from_counts(&[1], 1).is_err());
        assert!(Codebook::from_lengths(&[0, 1]).is_err());
        assert!(Codebook::from_lengths(&[17, 1]).is_err());
        // Kraft violation: three 1-bit codes.
        assert!(Codebook::from_lengths(&[1, 1, 1]).is_err());
        // Incomplete code (Kraft < 1).
        assert!(Codebook::from_lengths(&[2, 2, 2]).is_err());
    }

    #[test]
    fn symbol_value_mapping() {
        for v in -256..256 {
            assert_eq!(
                symbol_to_value(value_to_symbol(v, 512).unwrap(), 512).unwrap(),
                v
            );
        }
    }

    #[test]
    fn out_of_range_mappings_error_cleanly() {
        assert!(matches!(
            value_to_symbol(256, 512),
            Err(CodecError::ValueOutOfRange { value: 256, alphabet: 512 })
        ));
        assert!(matches!(
            value_to_symbol(-257, 512),
            Err(CodecError::ValueOutOfRange { .. })
        ));
        assert!(matches!(
            symbol_to_value(512, 512),
            Err(CodecError::SymbolOutOfRange { symbol: 512, alphabet: 512 })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_round_trip_random_counts(
            counts in proptest::collection::vec(0u64..10_000, 8..128),
            seed in any::<u64>(),
        ) {
            let n = counts.len();
            let cb = Codebook::from_counts(&counts, n).unwrap();
            prop_assert!(kraft_is_exact(cb.lengths()));
            prop_assert!(cb.max_length() <= MAX_CODE_LEN);

            // Encode a pseudo-random symbol sequence and decode it back.
            let mut state = seed | 1;
            let symbols: Vec<u16> = (0..200)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % n as u64) as u16
                })
                .collect();
            let mut w = BitWriter::new();
            cb.encode(&symbols, &mut w).unwrap();
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let decoded = cb.decode(&mut r, symbols.len()).unwrap();
            prop_assert_eq!(decoded, symbols);
        }

        #[test]
        fn prop_heavier_symbols_get_shorter_codes(scale in 1u64..1000) {
            let counts: Vec<u64> = (0..32).map(|i| scale * (32 - i as u64).pow(3)).collect();
            let cb = Codebook::from_counts(&counts, 32).unwrap();
            // Monotone: counts decrease with index, lengths must not.
            for w in cb.lengths().windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }
}
