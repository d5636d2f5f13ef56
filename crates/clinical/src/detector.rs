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
//! * the 5-point derivative/squaring lookahead,
//! * the moving-integration accumulator,
//! * and the Pan–Tompkins SPKI/NPKI threshold pair with its refractory
//!   bookkeeping.
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
use cs_ecg_data::QrsDetectorConfig;

/// Band-pass FIR length used by the offline detector (odd ⇒ integer
/// group delay of `(LEN − 1) / 2` samples).
const FIR_LEN: usize = 31;
/// Samples the band-pass output lags the input.
const FIR_DELAY: usize = (FIR_LEN - 1) / 2;
/// Inputs the band-pass needs from before the block it filters.
const FIR_HISTORY: usize = FIR_LEN - 1;
/// Inputs the band-pass filters in one pass. A window of any length goes
/// through in pieces of at most this many, so the two working buffers
/// live in the detector and no push allocates.
const BLOCK: usize = 64;
/// Outputs the band-pass accumulates side by side.
const TILE: usize = 16;
// `band_pass` rounds a block up to whole tiles inside `BLOCK` outputs.
const _: () = assert!(BLOCK.is_multiple_of(TILE));

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
struct Ring {
    buf: Vec<f64>,
    mask: usize,
}

impl Ring {
    fn new(min_capacity: usize) -> Self {
        let cap = min_capacity.next_power_of_two();
        Ring { buf: vec![0.0; cap], mask: cap - 1 }
    }

    #[inline]
    fn set(&mut self, index: usize, value: f64) {
        self.buf[index & self.mask] = value;
    }

    #[inline]
    fn get(&self, index: usize) -> f64 {
        self.buf[index & self.mask]
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
    /// The band-pass's input line: the last [`FIR_HISTORY`] inputs fed,
    /// then room for the block being filtered. Zero before the record
    /// starts, which is how the offline filter reads `x[−1], x[−2], …`.
    line: [f64; FIR_HISTORY + BLOCK],
    /// The band-pass outputs of the block last filtered.
    block: [f64; BLOCK],
    /// Inputs fed through the FIR, *including* flush padding.
    fed: usize,
    /// True input samples seen (the record length so far).
    seen: usize,
    band: Ring,
    /// Band values produced (== next band index).
    band_len: usize,
    energy: Ring,
    integrated: Ring,
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
            line: [0.0; FIR_HISTORY + BLOCK],
            block: [0.0; BLOCK],
            fed: 0,
            seen: 0,
            band: Ring::new(history),
            band_len: 0,
            energy: Ring::new(w + 2),
            integrated: Ring::new(history),
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
        // what it finds — it visits every index once, as soon as it is
        // called with that index's lookahead in the rings.
        self.ingest(window, |det| det.scan(out, None));
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
        self.ingest(&[0.0; FIR_DELAY], |_| {});
        debug_assert_eq!(self.band_len, n);
        // The offline energy loop leaves the last two entries zero.
        for e in [n.saturating_sub(2), n - 1] {
            if e >= self.integrated_len {
                self.advance_integration(e, 0.0);
            }
        }
        self.scan(out, Some(n));
    }

    /// Pushes `xs` through the FIR a block at a time; band, energy and
    /// integration values appear as their dependencies complete, and
    /// `after_block` runs once each block's have.
    fn ingest(&mut self, xs: &[f64], mut after_block: impl FnMut(&mut Self)) {
        for chunk in xs.chunks(BLOCK) {
            self.band_pass(chunk);
            for i in 0..chunk.len() {
                self.advance(self.block[i]);
            }
            after_block(self);
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

    /// Accepts the band-pass output for the next input fed; emits the
    /// band/energy/integration values it completes.
    fn advance(&mut self, v: f64) {
        let t = self.fed;
        self.fed = t + 1;
        // band[j] = Σ_d x[j + d] · kernel[FIR_DELAY − d], d ∈ [−15, 15]:
        // the output for input `t` is band[t − FIR_DELAY].
        if t < FIR_DELAY {
            return;
        }
        let j = t - FIR_DELAY;
        self.band.set(j, v);
        self.band_len = j + 1;

        // energy[e] needs band[e ± 2]; the first two entries stay zero.
        if j >= 2 {
            let e = j - 2;
            let val = if e < 2 {
                0.0
            } else {
                let d = (2.0 * self.band.get(e + 2) + self.band.get(e + 1)
                    - self.band.get(e - 1)
                    - 2.0 * self.band.get(e - 2))
                    / 8.0;
                d * d
            };
            self.advance_integration(e, val);
        }
    }

    /// Extends the moving-window integration by one energy sample.
    fn advance_integration(&mut self, e: usize, energy: f64) {
        debug_assert_eq!(e, self.integrated_len, "integration must advance in order");
        self.energy.set(e, energy);
        self.acc += energy;
        if e >= self.w {
            self.acc -= self.energy.get(e - self.w);
        }
        self.integrated.set(e, self.acc / self.w as f64);
        self.integrated_len = e + 1;
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
        let frac = self.config.threshold_fraction;
        loop {
            let i = self.cursor;
            // The offline loop visits i ∈ [1, len − 2] and refines over
            // band[i − w ..= min(i + w/2, len − 1)]; mid-stream both
            // neighbours and the full refinement window must exist.
            let ready = match end {
                Some(n) => i + 1 < n,
                None => i + 1 < self.integrated_len && i + self.w / 2 < self.band_len,
            };
            if !ready {
                return;
            }
            self.cursor = i + 1;
            // Searchback, exactly as the offline loop performs it: once
            // the gap since the last beat exceeds 1.66× the RR average,
            // the strongest half-threshold crest in the gap is the missed
            // beat.
            if let (Some(last), Some(rr), Some((cand, cv))) =
                (self.last_detection, self.rr_avg, self.candidate)
            {
                if i.saturating_sub(last) as f64 > cs_ecg_data::SEARCHBACK_RR_FACTOR * rr
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
                continue;
            }
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
                    continue;
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
        let mut refined = start;
        let mut best = f64::NEG_INFINITY;
        for idx in start..=stop {
            let mag = self.band.get(idx).abs();
            if mag >= best {
                best = mag;
                refined = idx;
            }
        }
        refined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_ecg_data::{detect_r_peaks, EcgModel, EcgModelConfig};

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
        let mut det = StreamingQrsDetector::new(QrsDetectorConfig::at_360_hz());
        let want = band_pass_serial(&det.kernel, &signal);
        // Uneven pieces, so blocks start at every phase of the history.
        let mut got = Vec::with_capacity(signal.len());
        let mut rest = &signal[..];
        for len in (1..=BLOCK).cycle() {
            let (piece, tail) = rest.split_at(len.min(rest.len()));
            det.band_pass(piece);
            got.extend_from_slice(&det.block[..piece.len()]);
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        assert_eq!(got.len(), want.len());
        for (t, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "band-pass output for input {t}");
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
