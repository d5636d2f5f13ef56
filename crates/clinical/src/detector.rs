//! Incremental QRS detection.
//!
//! A stateful, window-boundary-safe port of
//! [`cs_ecg_data::detect_r_peaks`]'s Pan–Tompkins pipeline. The offline
//! detector re-filters the whole record on every call; a monitor that
//! receives one 512-sample window every two seconds cannot afford that —
//! nor can it afford missing a beat that straddles a window boundary.
//! This detector carries every piece of pipeline state across pushes:
//!
//! * the 31-tap band-pass FIR's last 30 inputs (the two windowed-sinc
//!   low-passes collapse into one difference kernel, convolution being
//!   linear),
//! * the derivative's last four band values,
//! * the moving-integration accumulator,
//! * and the Pan–Tompkins SPKI/NPKI threshold pair with its refractory
//!   bookkeeping.
//!
//! A push runs a block of up to 256 inputs at a time, as array passes at
//! the CPU's vector width (`cs_dsp::in_arm`): the band-pass, the
//! derivative and energy, and the crest test. The integration's running
//! sum is the one serial chain, with its divisions alongside. The
//! threshold scan then jumps from crest to crest — the local maxima of the
//! integrated signal, plus the one index where the searchback's timer
//! runs out — because no other index can change its state. Every value
//! is computed by the same IEEE operations in the same order as a
//! sample-at-a-time detector would, so the detections and their crest
//! bits are that detector's (the crate's unit tests hold it to a per-sample
//! reference model under every kernel arm).
//!
//! The port is *exact*: for any input and any split of it into pushes,
//! `push_window` + [`StreamingQrsDetector::flush`] emit precisely the
//! indices the offline detector returns on the concatenated record
//! (pinned by the `streaming_parity` integration test). That includes the
//! offline warm-up semantics — thresholds seed from the first two
//! seconds' integrated-energy peak, and the buffered warm-up region is
//! scanned retroactively once they do, so early beats are not lost.
//!
//! Detection lags the newest sample by the FIR group delay plus half the
//! integration window (≈ 115 ms at 256 Hz) — the price of exactness, and
//! far inside any alarm deadline.
//!
//! After construction the detector performs **zero heap allocations**:
//! every ring is sized for the configured sample rate up front (pinned by
//! the crate's counting-allocator test).

use cs_dsp::fir::lowpass_sinc;
use cs_dsp::window::hamming;
use cs_ecg_data::{QrsDetectorConfig, SEARCHBACK_RR_FACTOR};

/// Band-pass FIR length used by the offline detector (odd ⇒ integer
/// group delay of `(LEN − 1) / 2` samples).
const FIR_LEN: usize = 31;
/// Samples the band-pass output lags the input.
const FIR_DELAY: usize = (FIR_LEN - 1) / 2;
/// Inputs the band-pass needs from before the block it filters.
const FIR_HISTORY: usize = FIR_LEN - 1;
/// Inputs filtered in one pass. A window of any length goes through in
/// pieces of at most this many, so every working buffer is a fixed array
/// and no push allocates.
const BLOCK: usize = 256;
/// Outputs the band-pass accumulates side by side: in the AVX-512 arm,
/// four 8-lane accumulators, enough to keep its adders busy through each
/// add's latency. (At baseline width the tile spills a few of its
/// sixteen 2-lane registers; a 16-output tile was ≈ 10 % faster there and
/// ≈ 8 % slower at AVX-512 width.)
const TILE: usize = 32;
// `band_pass` rounds a block up to whole tiles inside `BLOCK` outputs.
const _: () = assert!(BLOCK.is_multiple_of(TILE));
/// Band values the derivative reads before the one it completes:
/// `energy[j − 2]` needs `band[j − 4 ..= j]`.
const DERIV_HISTORY: usize = 4;

/// One detected R peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QrsDetection {
    /// Absolute sample index of the refined peak (band-pass extremum).
    pub sample: usize,
    /// Integrated-energy value at the crest that triggered the
    /// detection — the morphology feature the beat classifier consumes
    /// (wide ectopic complexes integrate hotter than narrow ones).
    pub crest: f64,
}

/// A power-of-two ring indexed by *absolute* stream position. Old entries
/// are silently overwritten; capacity is chosen so every lookback the
/// pipeline performs is still resident.
#[derive(Debug, Clone)]
struct Ring<T> {
    buf: Vec<T>,
    mask: usize,
}

impl<T: Copy + Default> Ring<T> {
    fn new(min_capacity: usize) -> Self {
        let cap = min_capacity.next_power_of_two();
        Ring { buf: vec![T::default(); cap], mask: cap - 1 }
    }

    #[inline]
    fn get(&self, index: usize) -> T {
        self.buf[index & self.mask]
    }

    #[inline]
    fn set(&mut self, index: usize, value: T) {
        self.buf[index & self.mask] = value;
    }

    /// The entries for indices `from..to` — at most the capacity — as two
    /// slices in order, the second empty unless the span wraps.
    #[inline]
    fn span(&self, from: usize, to: usize) -> (&[T], &[T]) {
        let at = from & self.mask;
        match self.buf[at..].split_at_checked(to - from) {
            Some((whole, _)) => (whole, &[]),
            None => (&self.buf[at..], &self.buf[..at + (to - from) - self.buf.len()]),
        }
    }

    /// `values[k]` becomes the entry for index `start + k`.
    #[inline(always)]
    fn write(&mut self, start: usize, values: &[T]) {
        let at = start & self.mask;
        let first = values.len().min(self.buf.len() - at);
        self.buf[at..at + first].copy_from_slice(&values[..first]);
        self.buf[..values.len() - first].copy_from_slice(&values[first..]);
    }
}

/// The incremental Pan–Tompkins detector. See the module docs for the
/// parity contract with [`cs_ecg_data::detect_r_peaks`].
///
/// # Examples
///
/// ```
/// use cs_clinical::StreamingQrsDetector;
/// use cs_ecg_data::{EcgModel, EcgModelConfig, QrsDetectorConfig};
///
/// let (signal, beats) = EcgModel::new(EcgModelConfig::default(), 5).synthesize(20.0);
/// let mut det = StreamingQrsDetector::new(QrsDetectorConfig::at_360_hz());
/// let mut out = Vec::new();
/// for window in signal.chunks(512) {
///     det.push_window(window, &mut out); // windows of any size, any split
/// }
/// det.flush(&mut out);
/// assert!(out.len() >= beats.len().saturating_sub(2));
/// ```
#[derive(Debug, Clone)]
pub struct StreamingQrsDetector {
    config: QrsDetectorConfig,
    /// The collapsed band-pass kernel `lp(20 Hz) − lp(5 Hz)`.
    kernel: [f64; FIR_LEN],
    /// The kernel arm ([`cs_dsp::kernel_arm`]) the block passes run in.
    /// Every arm gives the same bits.
    arm: &'static str,
    /// The band-pass's input line: the last [`FIR_HISTORY`] inputs fed,
    /// then room for the block being filtered. Zero before the record
    /// starts, which is how the offline filter reads `x[−1], x[−2], …`.
    line: [f64; FIR_HISTORY + BLOCK],
    /// The band-pass outputs of the block last filtered, one per input.
    block: [f64; BLOCK],
    /// The derivative's input line: the last [`DERIV_HISTORY`] band
    /// values, then room for the block's.
    band_line: [f64; DERIV_HISTORY + BLOCK],
    /// Inputs fed through the FIR, *including* flush padding.
    fed: usize,
    /// True input samples seen (the record length so far).
    seen: usize,
    band: Ring<f64>,
    /// Band values produced (== next band index).
    band_len: usize,
    /// The integration window's energies: the `w` oldest, which leave it
    /// as the block's enter, then room for the block's.
    energy: Vec<f64>,
    integrated: Ring<f64>,
    /// Bit `c mod 64` of word `⌊c / 64⌋` (mod the ring) is set where the
    /// integrated value `c` is a crest — at least both of its neighbours
    /// and above zero; written once the right neighbour exists.
    crests: Ring<u64>,
    /// The last two integrated values: the crest test's left neighbours
    /// for the next ones.
    integrated_tail: [f64; 2],
    /// Integrated values produced (== energy values produced).
    integrated_len: usize,
    /// Moving-integration running sum.
    acc: f64,
    /// Integration window length in samples.
    w: usize,
    refractory: usize,
    warmup: usize,
    /// Signal-peak and noise-peak running estimates; meaningless until
    /// `primed`.
    spki: f64,
    npki: f64,
    /// Thresholds seeded (the warm-up region has been scanned).
    primed: bool,
    /// The warm-up peak was non-positive (offline: empty result) or the
    /// record was shorter than half a second — emit nothing, ever.
    dead: bool,
    /// Next integrated index the threshold scan will evaluate.
    cursor: usize,
    last_detection: Option<usize>,
    /// Running RR average between accepted beats (searchback timing).
    rr_avg: Option<f64>,
    /// Best sub-threshold crest since the last accepted beat, already
    /// refined to its band-pass extremum: `(refined index, crest)`. The
    /// searchback accepts it when the expected beat fails to show.
    candidate: Option<(usize, f64)>,
    finished: bool,
}

impl StreamingQrsDetector {
    /// Builds a detector; all rings are allocated here, sized from the
    /// sample rate.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive sample rate or a threshold fraction
    /// outside `(0, 1)` — the same contract as the offline detector.
    pub fn new(config: QrsDetectorConfig) -> Self {
        assert!(config.sample_rate_hz > 0.0, "StreamingQrsDetector: bad sample rate");
        assert!(
            config.threshold_fraction > 0.0 && config.threshold_fraction < 1.0,
            "StreamingQrsDetector: threshold fraction outside (0, 1)"
        );
        let fs = config.sample_rate_hz;
        let lp_hi = lowpass_sinc::<f64>((20.0 / fs).min(0.45), &hamming(FIR_LEN));
        let lp_lo = lowpass_sinc::<f64>((5.0 / fs).min(0.4), &hamming(FIR_LEN));
        let mut kernel = [0.0; FIR_LEN];
        for (k, (hi, lo)) in kernel.iter_mut().zip(lp_hi.iter().zip(&lp_lo)) {
            *k = hi - lo;
        }
        let w = ((config.integration_window_s * fs) as usize).max(1);
        let warmup = (2.0 * fs) as usize;
        // The deepest lookbacks: the retroactive warm-up scan reads
        // band/integrated history back to index 0 while the pipeline has
        // advanced up to a block and a couple of samples past `warmup`.
        let history = warmup + w + BLOCK + 64;
        StreamingQrsDetector {
            refractory: (config.refractory_s * fs) as usize,
            config,
            kernel,
            arm: cs_dsp::kernel_arm(),
            line: [0.0; FIR_HISTORY + BLOCK],
            block: [0.0; BLOCK],
            band_line: [0.0; DERIV_HISTORY + BLOCK],
            fed: 0,
            seen: 0,
            band: Ring::new(history),
            band_len: 0,
            // Zero before the record: nothing leaves a window that has
            // not filled, and subtracting +0.0 changes no sum.
            energy: vec![0.0; w + BLOCK],
            integrated: Ring::new(history),
            crests: Ring::new(history.next_power_of_two() / 64),
            integrated_tail: [0.0; 2],
            integrated_len: 0,
            acc: 0.0,
            w,
            warmup,
            spki: 0.0,
            npki: 0.0,
            primed: false,
            dead: false,
            cursor: 1,
            last_detection: None,
            rr_avg: None,
            candidate: None,
            finished: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &QrsDetectorConfig {
        &self.config
    }

    /// True input samples consumed so far.
    pub fn samples_seen(&self) -> usize {
        self.seen
    }

    /// Absolute sample index of the most recent detection, if any.
    pub fn last_detection(&self) -> Option<usize> {
        self.last_detection
    }

    /// Feeds one sample; any newly confirmed detections are appended to
    /// `out` (callers reuse the buffer — with reserved capacity the call
    /// is allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if called after [`StreamingQrsDetector::flush`].
    pub fn push(&mut self, x: f64, out: &mut Vec<QrsDetection>) {
        self.push_window(&[x], out);
    }

    /// Feeds a window of samples (any length — windows need not align
    /// with the encoder's packets).
    ///
    /// # Panics
    ///
    /// Panics if called after [`StreamingQrsDetector::flush`].
    pub fn push_window(&mut self, window: &[f64], out: &mut Vec<QrsDetection>) {
        assert!(!self.finished, "StreamingQrsDetector: push after flush");
        self.seen += window.len();
        // Scan block by block: the rings only hold `history` samples, so
        // a window larger than that would overwrite values the threshold
        // scan has not consumed yet. When the scan runs does not change
        // what it finds — it visits every index it needs to once, as soon
        // as it is called with that index's lookahead in the rings.
        let arm = self.arm;
        cs_dsp::in_arm(arm, #[inline(always)] || self.ingest(window, Some(out)));
    }

    /// Ends the record: drains the FIR/derivative lookahead (with the
    /// same zero padding and edge clamping the offline detector applies)
    /// and emits any detections hiding in the tail. The detector is
    /// finished afterwards; further pushes panic.
    pub fn flush(&mut self, out: &mut Vec<QrsDetection>) {
        if self.finished {
            return;
        }
        self.finished = true;
        let n = self.seen;
        // Offline guard: records under half a second yield nothing.
        if n < (0.5 * self.config.sample_rate_hz) as usize {
            self.dead = true;
            return;
        }
        // Zero-pad the FIR by its delay so band values exist through
        // index n − 1.
        self.ingest(&[0.0; FIR_DELAY], None);
        debug_assert_eq!(self.band_len, n);
        // The offline energy loop leaves the last two entries zero.
        let missing = n - self.integrated_len;
        debug_assert!(missing <= 2);
        self.energy[self.w..self.w + missing].fill(0.0);
        self.integrate(missing);
        self.scan(out, Some(n));
    }

    /// Pushes `xs` through the pipeline a block at a time; band, energy
    /// and integration values appear as their dependencies complete, and
    /// with `out` the threshold scan runs after each block.
    #[inline(always)]
    fn ingest(&mut self, xs: &[f64], mut out: Option<&mut Vec<QrsDetection>>) {
        for chunk in xs.chunks(BLOCK) {
            self.band_pass(chunk);
            self.advance_block(chunk.len());
            if let Some(out) = out.as_deref_mut() {
                self.scan(out, None);
            }
        }
    }

    /// Filters up to [`BLOCK`] inputs into `self.block`:
    /// `block[i] = Σ_k kernel[k] · x[t_i − k]`, summed in ascending `k`
    /// from `+0.0` for every output — the order a sample-at-a-time FIR
    /// adds them in, so the values are bit-equal to one. The taps run
    /// *outside* the outputs: a tile of [`TILE`] sums stays in registers
    /// while each tap adds its product to all of them, one multiply-add
    /// sweep over contiguous inputs that vectorises across outputs
    /// without reordering any single output's sum.
    #[inline(always)]
    fn band_pass(&mut self, xs: &[f64]) {
        let len = xs.len();
        self.line[FIR_HISTORY..FIR_HISTORY + len].copy_from_slice(xs);
        // Whole tiles only: the last one may run past `len`, over inputs
        // left from earlier blocks, into outputs nobody reads.
        for (tile, out) in self.block[..len.next_multiple_of(TILE)]
            .chunks_exact_mut(TILE)
            .enumerate()
        {
            let mut acc = [0.0; TILE];
            for (k, &coeff) in self.kernel.iter().enumerate() {
                // kernel[k] pairs with x[t − k], `k` places up the line.
                let lagged = &self.line[FIR_HISTORY + tile * TILE - k..][..TILE];
                for (v, &x) in acc.iter_mut().zip(lagged) {
                    *v += coeff * x;
                }
            }
            out.copy_from_slice(&acc);
        }
        self.line.copy_within(len..len + FIR_HISTORY, 0);
    }

    /// Accepts the band-pass outputs of the last `len` inputs fed
    /// (`block[..len]`) and extends band, energy and integration by every
    /// value they complete.
    #[inline(always)]
    fn advance_block(&mut self, len: usize) {
        let t0 = self.fed;
        self.fed = t0 + len;
        // The output for input `t` is band[t − FIR_DELAY]
        // (band[j] = Σ_d x[j + d] · kernel[FIR_DELAY − d], d ∈ [−15, 15]);
        // the first FIR_DELAY outputs precede the record.
        let skip = FIR_DELAY.saturating_sub(t0).min(len);
        let count = len - skip;
        if count == 0 {
            return;
        }
        let j0 = t0 + skip - FIR_DELAY;
        let fresh = &self.block[skip..len];
        self.band.write(j0, fresh);
        self.band_len = j0 + count;
        self.band_line[DERIV_HISTORY..DERIV_HISTORY + count].copy_from_slice(fresh);

        // energy[j − 2] = ((2·band[j] + band[j − 1] − band[j − 3]
        // − 2·band[j − 4]) / 8)², one per band value j ≥ 2, straight into
        // the integration's line; the first two entries stay zero.
        let from = 2usize.saturating_sub(j0).min(count);
        let zeros = 4usize.saturating_sub(j0).min(count);
        let line = &self.band_line[from..];
        let n = count - from;
        let (b0, b1) = (&line[..n], &line[1..1 + n]);
        let (b3, b4) = (&line[3..3 + n], &line[4..4 + n]);
        let energies = &mut self.energy[self.w..self.w + n];
        for k in 0..n {
            let d = (2.0 * b4[k] + b3[k] - b1[k] - 2.0 * b0[k]) / 8.0;
            energies[k] = d * d;
        }
        energies[..zeros - from].fill(0.0);
        self.band_line.copy_within(count..count + DERIV_HISTORY, 0);
        self.integrate(n);
    }

    /// Integrates the `count` energies waiting after the window's
    /// (`energy[w..]`), from index `integrated_len` on. The running sum
    /// is the one serial chain. Each division by `w` rides along it, off
    /// the chain's critical path — a separate vector pass measured ≈ 8 %
    /// slower on the whole detector — and the crest tests are one array
    /// pass.
    #[inline(always)]
    fn integrate(&mut self, count: usize) {
        let e0 = self.integrated_len;
        // energy[e − w] leaves the window as energy[e] enters it: the
        // line holds energy[e0 − w + k] at `k`.
        let (leaving, entering) = (&self.energy[..count], &self.energy[self.w..self.w + count]);
        // The last two values, then this block's.
        let mut integrated = [0.0; 2 + BLOCK];
        integrated[..2].copy_from_slice(&self.integrated_tail);
        let (mut acc, w) = (self.acc, self.w as f64);
        for k in 0..count {
            acc += entering[k];
            acc -= leaving[k];
            integrated[2 + k] = acc / w;
        }
        self.acc = acc;
        self.integrated.write(e0, &integrated[2..2 + count]);

        self.energy.copy_within(count..count + self.w, 0);

        // integrated[c] for c = e0 − 1 + k now has its right neighbour.
        for from in (0..count).step_by(64) {
            let mut crests = 0u64;
            for k in from..count.min(from + 64) {
                let (before, v, after) = (integrated[k], integrated[k + 1], integrated[k + 2]);
                crests |= u64::from((v >= before) & (v >= after) & (v > 0.0)) << (k - from);
            }
            // Bit b is integrated[e0 + from − 1 + b]'s; the scan starts at
            // index 1, so index −1's can go.
            match e0 + from {
                0 => self.mark_crests(0, crests >> 1),
                c => self.mark_crests(c - 1, crests),
            }
        }
        self.integrated_tail.copy_from_slice(&integrated[count..count + 2]);
        self.integrated_len = e0 + count;
    }

    /// Records the crest bits of integrated values `c0, c0 + 1, …`: keeps
    /// the bits below `c0` in its word and replaces the rest. Bits past
    /// the block's read as zero until later blocks write them.
    #[inline(always)]
    fn mark_crests(&mut self, c0: usize, bits: u64) {
        let (word, offset) = (c0 / 64, c0 % 64);
        let below = self.crests.get(word) & ((1u64 << offset) - 1);
        self.crests.set(word, below | bits << offset);
        if offset > 0 {
            self.crests.set(word + 1, bits >> (64 - offset));
        }
    }

    /// Runs the threshold scan as far as causality allows. With
    /// `end = Some(n)` (flush) the refinement window clamps at `n − 1`
    /// exactly as the offline loop does at the record edge.
    fn scan(&mut self, out: &mut Vec<QrsDetection>, end: Option<usize>) {
        if self.dead {
            return;
        }
        if !self.primed {
            let have = self.integrated_len;
            let complete = end.is_some();
            if have < self.warmup && !complete {
                return;
            }
            let lim = self.warmup.min(have);
            let mut init_peak = 0.0_f64;
            for i in 0..lim {
                init_peak = init_peak.max(self.integrated.get(i));
            }
            if init_peak <= 0.0 {
                // Offline contract: a flat warm-up kills the whole
                // record. The asystole alarm owns the flat-line case.
                self.dead = true;
                return;
            }
            self.spki = 0.5 * init_peak;
            self.npki = 0.05 * init_peak;
            self.primed = true;
        }
        // The offline loop visits i ∈ [1, len − 2] and refines over
        // band[i − w ..= min(i + w/2, len − 1)]; mid-stream both
        // neighbours and the full refinement window must exist.
        let ready = match end {
            Some(n) => n.saturating_sub(1),
            None => (self.integrated_len.saturating_sub(1))
                .min(self.band_len.saturating_sub(self.w / 2)),
        };
        while self.cursor < ready {
            // Only a crest or the searchback's timer can change the
            // state, so the indices before the first of them are skipped.
            let from = self.cursor;
            let due = self.searchback_due().map_or(ready, |at| at.max(from));
            let i = self.next_crest(from, ready).min(due);
            self.cursor = (i + 1).min(ready);
            if i < ready {
                self.visit(i, out, end);
            }
        }
    }

    /// The first crest at or after `from` and before `to`, else `to`.
    fn next_crest(&self, from: usize, to: usize) -> usize {
        let mut at = from;
        while at < to {
            let bits = self.crests.get(at / 64) >> (at % 64);
            if bits != 0 {
                return (at + bits.trailing_zeros() as usize).min(to);
            }
            at = (at / 64 + 1) * 64;
        }
        to
    }

    /// The first index at which the searchback accepts its candidate, if
    /// one is waiting: where the gap since the last beat first exceeds
    /// 1.66× the RR average. The gap is a whole number of samples, so the
    /// least one that does is ⌊1.66·rr⌋ + 1.
    fn searchback_due(&self) -> Option<usize> {
        let (Some(last), Some(rr), Some((cand, _))) =
            (self.last_detection, self.rr_avg, self.candidate)
        else {
            return None;
        };
        if cand.saturating_sub(last) <= self.refractory {
            return None;
        }
        let gap = ((SEARCHBACK_RR_FACTOR * rr).floor() as usize).saturating_add(1);
        Some(last.saturating_add(gap))
    }

    /// The threshold logic at integrated index `i`, exactly as the
    /// offline loop performs it there.
    fn visit(&mut self, i: usize, out: &mut Vec<QrsDetection>, end: Option<usize>) {
        // Searchback: once the gap since the last beat exceeds 1.66× the
        // RR average, the strongest half-threshold crest in the gap is
        // the missed beat.
        if let (Some(last), Some(rr), Some((cand, cv))) =
            (self.last_detection, self.rr_avg, self.candidate)
        {
            if i.saturating_sub(last) as f64 > SEARCHBACK_RR_FACTOR * rr
                && cand.saturating_sub(last) > self.refractory
            {
                out.push(QrsDetection { sample: cand, crest: cv });
                self.last_detection = Some(cand);
                self.spki = 0.25 * cv.min(2.0 * self.spki) + 0.75 * self.spki;
                self.rr_avg = Some(rr + 0.125 * ((cand - last) as f64 - rr));
                self.candidate = None;
            }
        }
        let v = self.integrated.get(i);
        if !(v >= self.integrated.get(i - 1) && v >= self.integrated.get(i + 1) && v > 0.0) {
            return;
        }
        let frac = self.config.threshold_fraction;
        let threshold = self.npki + frac * (self.spki - self.npki);
        let in_refractory = self
            .last_detection
            .is_some_and(|last| i.saturating_sub(last) <= self.refractory);
        if v > threshold && !in_refractory {
            let refined = self.refine(i, end);
            if self
                .last_detection
                .is_none_or(|last| refined.saturating_sub(last) > self.refractory)
            {
                if let Some(last) = self.last_detection {
                    let rr = (refined - last) as f64;
                    self.rr_avg = Some(match self.rr_avg {
                        Some(avg) => avg + 0.125 * (rr - avg),
                        None => rr,
                    });
                }
                out.push(QrsDetection { sample: refined, crest: v });
                self.last_detection = Some(refined);
                self.candidate = None;
                self.spki = 0.125 * v.min(2.0 * self.spki) + 0.875 * self.spki;
                return;
            }
        }
        if !in_refractory {
            if v > 0.5 * threshold {
                let refined = self.refine(i, end);
                if self.candidate.is_none_or(|(_, cv)| v > cv) {
                    self.candidate = Some((refined, v));
                }
            }
            self.npki = 0.125 * v.min(self.spki) + 0.875 * self.npki;
            self.npki = self.npki.min(0.8 * self.spki);
        }
    }

    /// Refines an integrated-energy crest at `i` to the band-pass
    /// extremum over `[i − w, i + w/2]`, clamped to the record edge when
    /// flushing. Last maximum wins on ties, matching `Iterator::max_by`.
    fn refine(&self, i: usize, end: Option<usize>) -> usize {
        let start = i.saturating_sub(self.w);
        let stop = match end {
            Some(n) => (i + self.w / 2).min(n - 1),
            None => i + self.w / 2,
        };
        // The largest magnitude, then the last index holding it — what a
        // running `mag >= best` update picks. A NaN never wins either way
        // (`f64::max` passes over it), and if nothing beats −∞ the window's
        // first index stands.
        let (head, tail) = self.band.span(start, stop + 1);
        let best = head.iter().chain(tail).fold(f64::NEG_INFINITY, |m, v| m.max(v.abs()));
        let last = |part: &[f64]| part.iter().rposition(|v| v.abs() == best);
        match last(tail) {
            Some(k) => start + head.len() + k,
            None => last(head).map_or(start, |k| start + k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use cs_ecg_data::{detect_r_peaks, resample_360_to_256, EcgModel, EcgModelConfig};

    /// The kernel arms, narrowest first. `in_arm` caps a name at what the
    /// CPU has, so on a narrower host the wider names rerun its widest.
    const ARMS: [&str; 3] = ["baseline", "avx2", "avx512"];

    fn streamed(signal: &[f64], config: QrsDetectorConfig, chunk: usize) -> Vec<usize> {
        let mut det = StreamingQrsDetector::new(config);
        let mut out = Vec::new();
        for window in signal.chunks(chunk) {
            det.push_window(window, &mut out);
        }
        det.flush(&mut out);
        out.iter().map(|d| d.sample).collect()
    }

    /// The sample-at-a-time FIR `band_pass` replaced: a 32-slot ring and
    /// one 31-tap dot product per input, skipping taps that would read
    /// before the record.
    fn band_pass_serial(kernel: &[f64; FIR_LEN], xs: &[f64]) -> Vec<f64> {
        let mut delay = [0.0; FIR_LEN + 1];
        let mut out = Vec::with_capacity(xs.len());
        for (t, &x) in xs.iter().enumerate() {
            delay[t % (FIR_LEN + 1)] = x;
            let mut v = 0.0;
            for (k, &coeff) in kernel.iter().enumerate().take(t + 1) {
                v += coeff * delay[(t - k) % (FIR_LEN + 1)];
            }
            out.push(v);
        }
        out
    }

    #[test]
    fn block_band_pass_is_bit_equal_to_the_serial_fir() {
        let (signal, _) = EcgModel::new(EcgModelConfig::default(), 21).synthesize(6.0);
        for arm in ARMS {
            let mut det = StreamingQrsDetector::new(QrsDetectorConfig::at_360_hz());
            let want = band_pass_serial(&det.kernel, &signal);
            // Uneven pieces, so blocks start at every phase of the history.
            let mut got = Vec::with_capacity(signal.len());
            let mut rest = &signal[..];
            for len in (1..=BLOCK).cycle() {
                let (piece, tail) = rest.split_at(len.min(rest.len()));
                cs_dsp::in_arm(arm, #[inline(always)] || det.band_pass(piece));
                got.extend_from_slice(&det.block[..piece.len()]);
                rest = tail;
                if rest.is_empty() {
                    break;
                }
            }
            assert_eq!(got.len(), want.len());
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{arm}: band-pass output for input {t}");
            }
        }
    }

    /// `(sample, crest bits)` of every detection, with the block passes
    /// run in `arm` and the record pushed in windows of `chunk`.
    fn in_arm(
        arm: &'static str,
        signal: &[f64],
        config: QrsDetectorConfig,
        chunk: usize,
    ) -> Vec<(usize, u64)> {
        let mut det = StreamingQrsDetector::new(config);
        det.arm = arm;
        let mut out = Vec::new();
        for window in signal.chunks(chunk) {
            det.push_window(window, &mut out);
        }
        det.flush(&mut out);
        out.iter().map(|d| (d.sample, d.crest.to_bits())).collect()
    }

    /// A 60-second record at 256 Hz whose every fifth QRS complex from the
    /// fourth on is scaled to 0.4: its integrated energy lands under the
    /// threshold but over half of it, so only the searchback finds it.
    fn dropped_beats(seed: u64) -> Vec<f64> {
        let (at_360, beats) = EcgModel::new(EcgModelConfig::default(), seed).synthesize(60.0);
        let mut signal = resample_360_to_256(&at_360);
        let n = signal.len();
        for beat in beats.iter().skip(3).step_by(5) {
            let r = beat.sample * 256 / 360;
            for x in &mut signal[r.saturating_sub(20)..(r + 20).min(n)] {
                *x *= 0.4;
            }
        }
        signal
    }

    /// How many samples had been pushed, one at a time, when each
    /// detection came out (the record's length for the flush's).
    fn emitted(arm: &'static str, signal: &[f64], config: QrsDetectorConfig) -> Vec<usize> {
        let mut det = StreamingQrsDetector::new(config);
        det.arm = arm;
        let (mut out, mut at) = (Vec::new(), Vec::new());
        for &x in signal {
            det.push(x, &mut out);
            at.resize(out.len(), det.samples_seen());
        }
        det.flush(&mut out);
        at.resize(out.len(), det.samples_seen());
        at
    }

    #[test]
    fn the_searchback_recovers_dropped_beats() {
        let config = QrsDetectorConfig::at_256_hz();
        for seed in [1, 2] {
            let signal = dropped_beats(seed);
            let want = reference::detect(&signal, config);
            assert!(want.searchbacks >= 10, "seed {seed}: {} searchbacks", want.searchbacks);
            for arm in ARMS {
                for chunk in [1, 64, 512] {
                    let got = in_arm(arm, &signal, config, chunk);
                    assert_eq!(got, want.beats, "seed {seed}, {arm}, windows of {chunk}");
                }
                // A searchback beat comes out at the sample its timer
                // runs out, not at the next crest.
                let at = emitted(arm, &signal, config);
                assert_eq!(at, want.emitted, "seed {seed}, {arm}: emission times");
            }
        }
    }

    #[test]
    fn every_arm_detects_what_the_per_sample_model_detects() {
        let mut arrhythmic = EcgModelConfig::default();
        arrhythmic.rhythm.pvc_probability = 0.1;
        let (at_360, _) = EcgModel::new(arrhythmic, 7).synthesize(60.0);
        let records = [
            (resample_360_to_256(&at_360), QrsDetectorConfig::at_256_hz()),
            (at_360, QrsDetectorConfig::at_360_hz()),
        ];
        for (signal, config) in &records {
            let want = reference::detect(signal, *config);
            assert!(want.beats.len() > 50, "degenerate record");
            for arm in ARMS {
                for chunk in [1, 63, 512, 1025, signal.len()] {
                    let got = in_arm(arm, signal, *config, chunk);
                    assert_eq!(got, want.beats, "{arm}, windows of {chunk}");
                }
            }
        }
    }

    #[test]
    fn matches_offline_exactly_across_window_splits() {
        let (signal, _) = EcgModel::new(EcgModelConfig::default(), 11).synthesize(25.0);
        let config = QrsDetectorConfig::at_360_hz();
        let offline = detect_r_peaks(&signal, &config);
        assert!(offline.len() > 20, "degenerate record");
        for chunk in [1, 97, 512, 513, signal.len()] {
            assert_eq!(streamed(&signal, config, chunk), offline, "chunk {chunk}");
        }
    }

    #[test]
    fn flat_line_emits_nothing() {
        let config = QrsDetectorConfig::at_256_hz();
        assert!(streamed(&[0.0; 2000], config, 512).is_empty());
        assert!(streamed(&[0.0; 10], config, 512).is_empty());
    }

    #[test]
    fn short_records_match_offline() {
        let (signal, _) = EcgModel::new(EcgModelConfig::default(), 12).synthesize(1.5);
        let config = QrsDetectorConfig::at_360_hz();
        assert_eq!(streamed(&signal, config, 100), detect_r_peaks(&signal, &config));
    }

    #[test]
    fn crest_values_are_positive() {
        let (signal, _) = EcgModel::new(EcgModelConfig::default(), 13).synthesize(15.0);
        let mut det = StreamingQrsDetector::new(QrsDetectorConfig::at_360_hz());
        let mut out = Vec::new();
        det.push_window(&signal, &mut out);
        det.flush(&mut out);
        assert!(!out.is_empty());
        assert!(out.iter().all(|d| d.crest > 0.0));
    }

    #[test]
    #[should_panic(expected = "push after flush")]
    fn push_after_flush_panics() {
        let mut det = StreamingQrsDetector::new(QrsDetectorConfig::at_256_hz());
        let mut out = Vec::new();
        det.flush(&mut out);
        det.push(0.0, &mut out);
    }

    #[test]
    fn flush_is_idempotent() {
        let (signal, _) = EcgModel::new(EcgModelConfig::default(), 14).synthesize(10.0);
        let mut det = StreamingQrsDetector::new(QrsDetectorConfig::at_360_hz());
        let mut out = Vec::new();
        det.push_window(&signal, &mut out);
        det.flush(&mut out);
        let len = out.len();
        det.flush(&mut out);
        assert_eq!(out.len(), len);
    }
}
