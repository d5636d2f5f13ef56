//! The per-sample streaming QRS detector that the block-wise
//! [`StreamingQrsDetector`](crate::StreamingQrsDetector) replaced, kept as
//! the reference model its tests hold it to: a 31-tap dot product per
//! input, one band, energy and integration value per call, and a threshold
//! scan that tests every integrated index. It also counts the beats its
//! searchback accepts, so a test can show that a record exercises that
//! path.
//!
//! The file stands alone — it names only other crates — because two test
//! builds compile it: the crate's own unit tests, which run the new
//! detector under every kernel arm against it, and `tests/split_parity.rs`,
//! which includes it by path.

use cs_dsp::fir::lowpass_sinc;
use cs_dsp::window::hamming;
use cs_ecg_data::QrsDetectorConfig;

const FIR_LEN: usize = 31;
const FIR_DELAY: usize = (FIR_LEN - 1) / 2;

/// A power-of-two ring indexed by absolute stream position.
struct Ring {
    buf: Vec<f64>,
    mask: usize,
}

impl Ring {
    fn new(min_capacity: usize) -> Self {
        let cap = min_capacity.next_power_of_two();
        Ring {
            buf: vec![0.0; cap],
            mask: cap - 1,
        }
    }

    fn set(&mut self, index: usize, value: f64) {
        self.buf[index & self.mask] = value;
    }

    fn get(&self, index: usize) -> f64 {
        self.buf[index & self.mask]
    }
}

/// What the model found in a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detections {
    /// `(sample, crest bits)` of every detection, in order.
    pub beats: Vec<(usize, u64)>,
    /// How many samples had been pushed when each detection came out —
    /// the latency a monitor sees.
    pub emitted: Vec<usize>,
    /// How many of them the searchback accepted.
    pub searchbacks: usize,
}

/// Runs the model over `signal` one sample at a time and flushes it.
pub fn detect(signal: &[f64], config: QrsDetectorConfig) -> Detections {
    let mut det = SerialQrsDetector::new(config);
    for &x in signal {
        det.push(x);
    }
    det.flush();
    Detections {
        beats: det.out,
        emitted: det.emitted,
        searchbacks: det.searchbacks,
    }
}

struct SerialQrsDetector {
    config: QrsDetectorConfig,
    kernel: [f64; FIR_LEN],
    /// The last `FIR_LEN + 1` inputs, by input index modulo its length.
    delay: [f64; FIR_LEN + 1],
    fed: usize,
    seen: usize,
    band: Ring,
    band_len: usize,
    energy: Ring,
    integrated: Ring,
    integrated_len: usize,
    acc: f64,
    w: usize,
    refractory: usize,
    warmup: usize,
    spki: f64,
    npki: f64,
    primed: bool,
    dead: bool,
    cursor: usize,
    last_detection: Option<usize>,
    rr_avg: Option<f64>,
    candidate: Option<(usize, f64)>,
    out: Vec<(usize, u64)>,
    emitted: Vec<usize>,
    searchbacks: usize,
}

impl SerialQrsDetector {
    fn new(config: QrsDetectorConfig) -> Self {
        let fs = config.sample_rate_hz;
        let lp_hi = lowpass_sinc::<f64>((20.0 / fs).min(0.45), &hamming(FIR_LEN));
        let lp_lo = lowpass_sinc::<f64>((5.0 / fs).min(0.4), &hamming(FIR_LEN));
        let mut kernel = [0.0; FIR_LEN];
        for (k, (hi, lo)) in kernel.iter_mut().zip(lp_hi.iter().zip(&lp_lo)) {
            *k = hi - lo;
        }
        let w = ((config.integration_window_s * fs) as usize).max(1);
        let warmup = (2.0 * fs) as usize;
        let history = warmup + w + 128;
        SerialQrsDetector {
            refractory: (config.refractory_s * fs) as usize,
            config,
            kernel,
            delay: [0.0; FIR_LEN + 1],
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
            out: Vec::new(),
            emitted: Vec::new(),
            searchbacks: 0,
        }
    }

    fn push(&mut self, x: f64) {
        self.seen += 1;
        self.feed(x);
        self.scan(None);
    }

    fn flush(&mut self) {
        let n = self.seen;
        if n < (0.5 * self.config.sample_rate_hz) as usize {
            return;
        }
        for _ in 0..FIR_DELAY {
            self.feed(0.0);
        }
        for e in [n.saturating_sub(2), n - 1] {
            if e >= self.integrated_len {
                self.advance_integration(e, 0.0);
            }
        }
        self.scan(Some(n));
    }

    /// One FIR output: `Σ_k kernel[k] · x[t − k]` in ascending `k` from
    /// `+0.0`, skipping taps that would read before the record.
    fn feed(&mut self, x: f64) {
        let t = self.fed;
        self.delay[t % (FIR_LEN + 1)] = x;
        let mut v = 0.0;
        for (k, &coeff) in self.kernel.iter().enumerate().take(t + 1) {
            v += coeff * self.delay[(t - k) % (FIR_LEN + 1)];
        }
        self.advance(v);
    }

    fn advance(&mut self, v: f64) {
        let t = self.fed;
        self.fed = t + 1;
        if t < FIR_DELAY {
            return;
        }
        let j = t - FIR_DELAY;
        self.band.set(j, v);
        self.band_len = j + 1;
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

    fn advance_integration(&mut self, e: usize, energy: f64) {
        self.energy.set(e, energy);
        self.acc += energy;
        if e >= self.w {
            self.acc -= self.energy.get(e - self.w);
        }
        self.integrated.set(e, self.acc / self.w as f64);
        self.integrated_len = e + 1;
    }

    fn scan(&mut self, end: Option<usize>) {
        if self.dead {
            return;
        }
        if !self.primed {
            let have = self.integrated_len;
            if have < self.warmup && end.is_none() {
                return;
            }
            let mut init_peak = 0.0_f64;
            for i in 0..self.warmup.min(have) {
                init_peak = init_peak.max(self.integrated.get(i));
            }
            if init_peak <= 0.0 {
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
            let ready = match end {
                Some(n) => i + 1 < n,
                None => i + 1 < self.integrated_len && i + self.w / 2 < self.band_len,
            };
            if !ready {
                return;
            }
            self.cursor = i + 1;
            if let (Some(last), Some(rr), Some((cand, cv))) =
                (self.last_detection, self.rr_avg, self.candidate)
            {
                if i.saturating_sub(last) as f64 > cs_ecg_data::SEARCHBACK_RR_FACTOR * rr
                    && cand.saturating_sub(last) > self.refractory
                {
                    self.out.push((cand, cv.to_bits()));
                    self.emitted.push(self.seen);
                    self.searchbacks += 1;
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
                    self.out.push((refined, v.to_bits()));
                    self.emitted.push(self.seen);
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
