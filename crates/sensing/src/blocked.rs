//! Blocked ("SELL-8") gather tables and the AVX2 kernels that walk them —
//! the only module of this crate that contains `unsafe`.
//!
//! The portable products compute one output at a time: `gather_sum` walks
//! one row's (or column's) support with a scalar index load and a scalar
//! value load per sample. Here the eight vector lanes run **across
//! outputs** instead: eight rows (columns) advance through their supports
//! in lock step, one 128-bit load fetching the eight indices of a slot and
//! one `vgatherdps` their eight values. Lane `l` performs exactly the
//! sequence of additions `gather_sum` performs for its row — four
//! accumulators cycled over the support's quads, `(a0 + a1) + (a2 + a3)`,
//! the up-to-three leftover adds, then `× scale` — so every output is
//! bitwise equal to the portable path.
//!
//! Rows have unequal lengths, so a block is as long as its longest row
//! and the shorter rows are padded. A padding lane receives `−0.0` through
//! the masked gather's pass-through operand and never touches memory;
//! `−0.0` is the exact additive identity of IEEE-754 round-to-nearest
//! (`x + −0.0 = x` for every `x`, including both zeros and NaNs), so
//! padding cannot change a lane's sum. Sorting the rows by length before
//! blocking keeps the padding small.
//!
//! Soundness rests on one invariant, established by [`BlockedGather::new`]
//! and protected by the fields being private to this file: every
//! non-padding entry of `col_slots` is `< m`, every non-padding entry of
//! `row_slots` is `< n`, and a `BlockedGather` exists only on a CPU that
//! reported AVX2. The gathers themselves are single instructions that an
//! address sanitizer does not see into, so the tests hold every table
//! built from adversarial input to that invariant directly
//! (`BlockedGather::check_invariant`).

use std::arch::x86_64::{
    __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_castsi256_ps, _mm256_cmpgt_epi32,
    _mm256_cvtepi16_epi32, _mm256_i32gather_ps, _mm256_mask_i32gather_epi32,
    _mm256_mask_i32gather_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps,
    _mm256_setzero_ps, _mm256_setzero_si256, _mm256_srai_epi32, _mm256_storeu_ps,
    _mm256_storeu_si256, _mm_loadu_si128,
};

/// Outputs per block: the `f32` lanes of a 256-bit vector.
const LANES: usize = 8;

/// Index stored in a lane that has run out of support. Any negative value
/// works: the sign bit is what masks the gather.
const PAD: i16 = -1;

/// One block of eight length-sorted rows of Φ.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RowBlock {
    /// Index-vector quads: the longest `len / 4` among the block's rows.
    quads: usize,
    /// Leftover index vectors: the largest `len % 4` among them.
    rest: usize,
}

/// Slot-major index tables for both directions of one sparse binary Φ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockedGather {
    m: usize,
    n: usize,
    d: usize,
    /// Φᵀ: block `b` covers columns `8b .. 8b + 8` (whole blocks only);
    /// entry `(b·d + s)·8 + l` is the row of the `s`-th one of column
    /// `8b + l`. No padding: every column has exactly `d` ones.
    col_slots: Vec<i16>,
    /// Φ: the index vectors of every [`RowBlock`], back to back. Within a
    /// block the quads of all eight rows come first, then the leftovers,
    /// each padded with [`PAD`] to the block's maximum.
    row_slots: Vec<i16>,
    row_blocks: Vec<RowBlock>,
    /// Rows by ascending length (stable): lane `l` of block `b` computes
    /// row `row_order[8b + l]`; the last block may be short.
    row_order: Vec<u16>,
    /// The rows of column 0, which the integer product adds on its own
    /// (see [`BlockedGather::apply_i32`]).
    first_rows: Vec<u16>,
}

impl BlockedGather {
    /// Builds the tables for the support given in CSC (`col_rows`, `d`
    /// sorted row indices per column) and CSR (`row_cols`/`row_ptr`) form,
    /// or returns `None` when this CPU lacks AVX2 or the dimensions do not
    /// fit the 16-bit index format (in which case the portable kernels
    /// serve every product).
    ///
    /// # Panics
    ///
    /// Panics if the CSC/CSR arrays are inconsistent with `m`, `n`, `d` or
    /// hold an out-of-range index — the kernels' memory safety depends on
    /// it, so it is checked here rather than assumed.
    pub(crate) fn new(
        m: usize,
        n: usize,
        d: usize,
        col_rows: &[u32],
        row_cols: &[u32],
        row_ptr: &[u32],
    ) -> Option<Self> {
        if !is_x86_feature_detected!("avx2") || m.max(n) > i16::MAX as usize {
            return None;
        }
        assert!(d > 0, "BlockedGather: no ones per column");
        assert_eq!(col_rows.len(), n * d, "BlockedGather: CSC length mismatch");
        assert_eq!(row_ptr.len(), m + 1, "BlockedGather: CSR offsets mismatch");
        assert!(
            col_rows.iter().all(|&r| (r as usize) < m)
                && row_cols.iter().all(|&c| (c as usize) < n),
            "BlockedGather: support index out of range"
        );

        let mut col_slots = Vec::with_capacity(n / LANES * LANES * d);
        for block in col_rows.chunks_exact(LANES * d) {
            for s in 0..d {
                col_slots.extend((0..LANES).map(|l| block[l * d + s] as i16));
            }
        }

        let support = |row: u16| {
            &row_cols[row_ptr[row as usize] as usize..row_ptr[row as usize + 1] as usize]
        };
        let mut row_order: Vec<u16> = (0..m as u16).collect();
        row_order.sort_by_key(|&row| support(row).len());
        let mut row_slots = Vec::with_capacity(row_cols.len() + row_cols.len() / 4);
        let mut row_blocks = Vec::with_capacity(m.div_ceil(LANES));
        for rows in row_order.chunks(LANES) {
            // A short last block computes empty rows in its spare lanes.
            let lanes: [&[u32]; LANES] =
                std::array::from_fn(|l| rows.get(l).map_or(&[][..], |&row| support(row)));
            let quads = lanes.iter().map(|cols| cols.len() / 4).max().unwrap_or(0);
            let rest = lanes.iter().map(|cols| cols.len() % 4).max().unwrap_or(0);
            row_blocks.push(RowBlock { quads, rest });
            // Every lane's own quads first, then its own leftovers, each
            // padded where the lane has run out.
            for s in 0..4 * quads {
                row_slots.extend(lanes.iter().map(|cols| {
                    let own = &cols[..cols.len() / 4 * 4];
                    own.get(s).map_or(PAD, |&c| c as i16)
                }));
            }
            for s in 0..rest {
                row_slots.extend(lanes.iter().map(|cols| {
                    let own = &cols[cols.len() / 4 * 4..];
                    own.get(s).map_or(PAD, |&c| c as i16)
                }));
            }
        }
        let first_rows = col_rows[..d.min(col_rows.len())]
            .iter()
            .map(|&row| row as u16)
            .collect();
        Some(BlockedGather {
            m,
            n,
            d,
            col_slots,
            row_slots,
            row_blocks,
            row_order,
            first_rows,
        })
    }

    /// `y = Φx · scale`, all `m` rows.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n` or `y.len() != m`.
    pub(crate) fn apply(&self, x: &[f32], y: &mut [f32], scale: f32) {
        assert_eq!(x.len(), self.n, "BlockedGather::apply: x length mismatch");
        assert_eq!(y.len(), self.m, "BlockedGather::apply: y length mismatch");
        // SAFETY: `self` exists only if `new` saw AVX2 on this CPU, and
        // `x.len() == n` was asserted just above.
        unsafe { self.apply_avx2(x, y, scale) }
    }

    /// `y = Φx` in integers, unscaled — the mote's measurement — over all
    /// `m` rows of `y`. Integer sums do not depend on their order, so
    /// walking the row tables gives exactly what scattering each sample
    /// down its column does. The gathers read the `i16` samples where they
    /// are: the 32-bit load ending at sample `c` holds `x[c]` in its high
    /// half, which one arithmetic shift brings down sign-extended, and
    /// `x[c − 1]`, which the shift drops, in its low one. Sample 0 has no
    /// neighbour before it, so its lanes stay masked and its column is
    /// added afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n` or `y.len() != m`.
    pub(crate) fn apply_i32(&self, x: &[i16], y: &mut [i32]) {
        assert_eq!(x.len(), self.n, "BlockedGather::apply_i32: x length mismatch");
        assert_eq!(y.len(), self.m, "BlockedGather::apply_i32: y length mismatch");
        // SAFETY: `self` exists only if `new` saw AVX2 on this CPU, and
        // `x.len() == n` was asserted just above.
        unsafe { self.apply_i32_avx2(x, y) };
        for &row in &self.first_rows {
            y[usize::from(row)] += i32::from(x[0]);
        }
    }

    /// `x[..done] = Φᵀy · scale` for the `done = n − n mod 8` columns that
    /// form whole blocks; returns `done`. The caller computes the rest.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != m` or `x.len() != n`.
    pub(crate) fn adjoint(&self, y: &[f32], x: &mut [f32], scale: f32) -> usize {
        assert_eq!(y.len(), self.m, "BlockedGather::adjoint: y length mismatch");
        assert_eq!(x.len(), self.n, "BlockedGather::adjoint: x length mismatch");
        // SAFETY: `self` exists only if `new` saw AVX2 on this CPU, and
        // `y.len() == m` was asserted just above.
        unsafe { self.adjoint_avx2(y, x, scale) }
        self.n - self.n % LANES
    }

    /// The invariant the kernels' memory safety rests on, entry by entry:
    /// the column table is whole blocks of rows `< m`, every live
    /// row-table slot is a column `< n` and every other one is [`PAD`],
    /// the row blocks account for every slot, and the row order is a
    /// permutation of `0..m`.
    #[cfg(test)]
    pub(crate) fn check_invariant(&self) -> Result<(), String> {
        if self.col_slots.len() != self.n / LANES * LANES * self.d {
            let (len, n, d) = (self.col_slots.len(), self.n, self.d);
            return Err(format!("{len} column slots for n = {n}, d = {d}"));
        }
        let row_ok = |r: i16| (0..self.m as i32).contains(&i32::from(r));
        if let Some(row) = self.col_slots.iter().find(|&&r| !row_ok(r)) {
            return Err(format!("column slot holds row {row}, outside 0..{}", self.m));
        }
        let live = |c: i16| (0..self.n as i32).contains(&i32::from(c));
        if let Some(col) = self.row_slots.iter().find(|&&c| c != PAD && !live(c)) {
            return Err(format!("row slot holds column {col}, outside 0..{}", self.n));
        }
        let slots: usize = self.row_blocks.iter().map(|b| LANES * (4 * b.quads + b.rest)).sum();
        if slots != self.row_slots.len() || self.row_blocks.len() != self.m.div_ceil(LANES) {
            let (blocks, slots) = (self.row_blocks.len(), self.row_slots.len());
            return Err(format!("{blocks} row blocks over {slots} slots"));
        }
        let mut rows = self.row_order.clone();
        rows.sort_unstable();
        if !rows.iter().map(|&r| usize::from(r)).eq(0..self.m) {
            return Err("row order is not a permutation of 0..m".into());
        }
        Ok(())
    }

    /// # Safety
    ///
    /// The CPU must support AVX2, and `x.len()` must be `self.n`.
    #[target_feature(enable = "avx2")]
    unsafe fn apply_avx2(&self, x: &[f32], y: &mut [f32], scale: f32) {
        let scale = _mm256_set1_ps(scale);
        let padding = _mm256_set1_ps(-0.0);
        let minus_one = _mm256_set1_epi32(-1);
        let gather = |slot: &[i16]| {
            debug_assert_eq!(slot.len(), LANES);
            // SAFETY: `slot` is one `chunks_exact(LANES)` item, so its 16
            // bytes are readable. A lane is gathered only where its index
            // is non-negative, and `new` checked every non-negative entry
            // of `row_slots` to be `< n = x.len()`; the masked-off lanes
            // take `padding` and perform no memory access.
            unsafe {
                let idx = _mm256_cvtepi16_epi32(_mm_loadu_si128(slot.as_ptr().cast()));
                let live = _mm256_castsi256_ps(_mm256_cmpgt_epi32(idx, minus_one));
                _mm256_mask_i32gather_ps::<4>(padding, x.as_ptr(), idx, live)
            }
        };
        let mut slots = self.row_slots.chunks_exact(LANES);
        for (block, rows) in self.row_blocks.iter().zip(self.row_order.chunks(LANES)) {
            let slots = slots.by_ref().take(4 * block.quads + block.rest);
            let sum = lane_sums(slots, block.quads, gather);
            let mut lanes = [0.0_f32; LANES];
            // SAFETY: `lanes` is eight `f32`s, the 32 bytes the store writes.
            unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_mul_ps(sum, scale)) };
            for (&row, &v) in rows.iter().zip(&lanes) {
                y[row as usize] = v;
            }
        }
    }

    /// Every row, but without column 0's contribution.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `x.len()` must be `self.n`.
    #[target_feature(enable = "avx2")]
    unsafe fn apply_i32_avx2(&self, x: &[i16], y: &mut [i32]) {
        let zero = _mm256_setzero_si256();
        // Sample `c`'s load starts a sample early, at `x[c − 1]`. The
        // address is only computed here; no lane reads through it below
        // sample 1.
        let base = x.as_ptr().wrapping_sub(1).cast::<i32>();
        let gather = |slot: &[i16]| -> __m256i {
            debug_assert_eq!(slot.len(), LANES);
            // SAFETY: 16 readable bytes of indices, as in `apply_avx2`. A
            // lane loads only if its index `c` has `0 < c < n` (padding is
            // negative, every other index `< n`), so its four bytes,
            // `x[c − 1]` and `x[c]`, lie inside `x`; padding and column 0
            // take `zero` without touching memory. The gather needs no
            // alignment.
            unsafe {
                let idx = _mm256_cvtepi16_epi32(_mm_loadu_si128(slot.as_ptr().cast()));
                let live = _mm256_cmpgt_epi32(idx, zero);
                let pairs = _mm256_mask_i32gather_epi32::<2>(zero, base, idx, live);
                _mm256_srai_epi32::<16>(pairs)
            }
        };
        let mut slots = self.row_slots.chunks_exact(LANES);
        for (block, rows) in self.row_blocks.iter().zip(self.row_order.chunks(LANES)) {
            let mut sum = zero;
            for slot in slots.by_ref().take(4 * block.quads + block.rest) {
                sum = _mm256_add_epi32(sum, gather(slot));
            }
            let mut lanes = [0_i32; LANES];
            // SAFETY: `lanes` is eight `i32`s, the 32 bytes the store writes.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), sum) };
            for (&row, &v) in rows.iter().zip(&lanes) {
                y[row as usize] = v;
            }
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2, and `y.len()` must be `self.m`.
    #[target_feature(enable = "avx2")]
    unsafe fn adjoint_avx2(&self, y: &[f32], x: &mut [f32], scale: f32) {
        let scale = _mm256_set1_ps(scale);
        let gather = |slot: &[i16]| {
            debug_assert_eq!(slot.len(), LANES);
            // SAFETY: `slot` is one `chunks_exact(LANES)` item, so its 16
            // bytes are readable; `col_slots` has no padding and `new`
            // checked every entry to be `< m = y.len()`.
            unsafe {
                let idx = _mm256_cvtepi16_epi32(_mm_loadu_si128(slot.as_ptr().cast()));
                _mm256_i32gather_ps::<4>(y.as_ptr(), idx)
            }
        };
        let blocks = self.col_slots.chunks_exact(LANES * self.d);
        for (block, out) in blocks.zip(x.chunks_exact_mut(LANES)) {
            let sum = lane_sums(block.chunks_exact(LANES), self.d / 4, gather);
            // SAFETY: `out` is one `chunks_exact_mut(LANES)` item: eight
            // `f32`s, the 32 bytes the store writes.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), _mm256_mul_ps(sum, scale)) };
        }
    }
}

/// `gather_sum`'s reduction, eight outputs at a time: the first `quads`
/// quads of `slots` cycle through four accumulators, which combine as
/// `(a0 + a1) + (a2 + a3)`; the remaining slots add on one by one.
#[inline]
#[target_feature(enable = "avx2")]
fn lane_sums<'a>(
    mut slots: impl Iterator<Item = &'a [i16]>,
    quads: usize,
    gather: impl Fn(&[i16]) -> __m256,
) -> __m256 {
    let mut acc = [_mm256_setzero_ps(); 4];
    for _ in 0..quads {
        for a in &mut acc {
            let slot = slots.next().expect("a block holds its quads");
            *a = _mm256_add_ps(*a, gather(slot));
        }
    }
    let mut sum = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
    for slot in slots {
        sum = _mm256_add_ps(sum, gather(slot));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A CSC/CSR support of the shape [`BlockedGather::new`] takes, `d`
    /// seeded rows per column (repeats allowed) for any `m × n`, then one
    /// corruption: 0 none, 1 a row past `m`, 2 a column past `n`, 3 a CSC
    /// length off by one, 4 a CSR offset table one short, 5 offsets out of
    /// order, 6 an offset past the end.
    fn support(m: usize, n: usize, d: usize, seed: u64, corruption: u32) -> [Vec<u32>; 3] {
        let mut state = seed | 1;
        let mut next = move |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below.max(1) as u64) as u32
        };
        let mut col_rows: Vec<u32> = (0..n * d).map(|_| next(m)).collect();
        let mut row_ptr = vec![0_u32; m + 1];
        for &row in col_rows.iter().filter(|&&row| (row as usize) < m) {
            row_ptr[row as usize + 1] += 1;
        }
        for i in 0..m {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut cursor = row_ptr.clone();
        let mut row_cols = vec![0_u32; row_ptr[m] as usize];
        for (j, rows) in col_rows.chunks(d.max(1)).enumerate() {
            // With `m = 0` every row is out of range and in no row's support.
            for &row in rows.iter().filter(|&&row| (row as usize) < m) {
                let slot = &mut cursor[row as usize];
                row_cols[*slot as usize] = j as u32;
                *slot += 1;
            }
        }
        let last = |v: &mut Vec<u32>| v.len().checked_sub(1).map(|i| i % 7);
        match corruption {
            1 => {
                if let Some(i) = last(&mut col_rows).map(|k| k % col_rows.len()) {
                    col_rows[i] = (m + next(3) as usize) as u32;
                }
            }
            2 => {
                if let Some(i) = last(&mut row_cols).map(|k| k % row_cols.len()) {
                    row_cols[i] = (n + next(3) as usize) as u32;
                }
            }
            // The guard pops; only an empty list gets an entry instead.
            3 if col_rows.pop().is_none() => col_rows.push(0),
            4 => {
                row_ptr.pop();
            }
            5 if m >= 2 => row_ptr.swap(0, m),
            6 => row_ptr[m] += 1 + next(4),
            _ => {}
        }
        [col_rows, row_cols, row_ptr]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On adversarial input — indices out of range, inconsistent
        /// lengths, offsets out of order or past the end, empty rows,
        /// `d = 0`, dimensions past `i16::MAX` — the constructor refuses
        /// (`None`) or panics, and every table it does build holds the
        /// invariant the gathers' memory safety rests on. (The gathers are
        /// single instructions an address sanitizer cannot see into: this
        /// is their check.)
        #[test]
        fn prop_adversarial_supports_are_refused_or_sound(
            m_pick in 0_usize..43,
            n_pick in 0_usize..82,
            d in 0_usize..6,
            seed in any::<u64>(),
            corruption in 0_u32..7,
        ) {
            // Mostly small, sometimes right at and just past `i16::MAX`.
            let edge = |pick: usize, small: usize| match pick - small.min(pick) {
                0 => pick,
                1 => i16::MAX as usize,
                _ => i16::MAX as usize + 1,
            };
            let (m, n) = (edge(m_pick, 40), edge(n_pick, 80));
            // Past `i16::MAX` the constructor returns before reading the
            // arrays; a token support keeps that case cheap.
            let huge = m.max(n) > i16::MAX as usize;
            let [col_rows, row_cols, row_ptr] = if huge {
                [vec![0; 4], vec![0; 4], vec![0; 2]]
            } else {
                support(m, n, d, seed, corruption)
            };
            let build = || BlockedGather::new(m, n, d, &col_rows, &row_cols, &row_ptr);
            match std::panic::catch_unwind(build) {
                Ok(Some(table)) => {
                    if let Err(why) = table.check_invariant() {
                        return Err(TestCaseError::fail(why));
                    }
                    prop_assert!(!huge);
                    prop_assert!(
                        matches!(corruption, 0 | 5) || m == 0 || n == 0,
                        "corruption {} built a table",
                        corruption
                    );
                }
                Ok(None) => prop_assert!(huge || !is_x86_feature_detected!("avx2")),
                Err(_) => {
                    let unsound = corruption != 0 || d == 0 || m == 0;
                    prop_assert!(!huge && unsound, "a sound support panicked");
                }
            }
        }
    }
}
