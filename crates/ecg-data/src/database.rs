//! The synthetic MIT-BIH-like corpus.
//!
//! The paper evaluates on all 48 half-hour, two-channel records of the
//! MIT-BIH Arrhythmia Database. That database cannot be redistributed with
//! this repository, so [`SyntheticDatabase`] generates a 48-record corpus
//! with the same structure — 2 channels, 360 Hz, 11-bit over 10 mV — and a
//! population-like spread of heart rates, noise conditions and arrhythmia
//! content (a subset of records carries PVCs/APCs, as in the original).
//! Records are generated deterministically on demand from a corpus seed, so
//! the full 30-minute corpus never has to be resident in memory at once.

use crate::adc::AdcModel;
use crate::model::{EcgModel, EcgModelConfig};
use crate::noise::{contaminate, noise_trace, NoiseConfig};
use crate::record::Record;

/// Corpus-level configuration.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DatabaseConfig {
    /// Number of records (MIT-BIH has 48).
    pub num_records: usize,
    /// Channels per record (MIT-BIH has 2).
    pub num_channels: usize,
    /// Record duration in seconds (MIT-BIH records are 1800 s; tests and
    /// sweeps typically use 60–120 s).
    pub duration_s: f64,
    /// Sampling rate in Hz.
    pub sample_rate_hz: f64,
    /// Master seed; every record derives its own seed from this.
    pub corpus_seed: u64,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            num_records: 48,
            num_channels: 2,
            duration_s: 60.0,
            sample_rate_hz: 360.0,
            corpus_seed: 0x00EC_60DB,
        }
    }
}

/// A deterministic, lazily generated corpus of synthetic ECG records.
///
/// # Examples
///
/// ```
/// use cs_ecg_data::{DatabaseConfig, SyntheticDatabase};
///
/// let db = SyntheticDatabase::new(DatabaseConfig {
///     num_records: 2,
///     duration_s: 4.0,
///     ..DatabaseConfig::default()
/// });
/// let rec = db.record(0);
/// assert_eq!(rec.num_channels(), 2);
/// assert_eq!(rec.len(), 1440); // 4 s at 360 Hz
/// assert_eq!(db.record(0), db.record(0)); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticDatabase {
    config: DatabaseConfig,
}

impl SyntheticDatabase {
    /// Creates a corpus descriptor (no records are generated yet).
    ///
    /// # Panics
    ///
    /// Panics if any structural parameter is zero/non-positive.
    pub fn new(config: DatabaseConfig) -> Self {
        assert!(config.num_records > 0, "SyntheticDatabase: no records");
        assert!(config.num_channels > 0, "SyntheticDatabase: no channels");
        assert!(config.duration_s > 0.0, "SyntheticDatabase: zero duration");
        assert!(
            config.sample_rate_hz > 0.0,
            "SyntheticDatabase: zero sample rate"
        );
        SyntheticDatabase { config }
    }

    /// The corpus configuration.
    pub fn config(&self) -> &DatabaseConfig {
        &self.config
    }

    /// Number of records in the corpus.
    pub fn len(&self) -> usize {
        self.config.num_records
    }

    /// Whether the corpus is empty (never true — construction forbids it).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The per-record profile (heart rate, ectopy, noise) derived
    /// deterministically from the corpus seed and record index.
    fn profile(&self, index: usize) -> (EcgModelConfig, NoiseConfig, u64) {
        // Cheap splitmix-style hash to decorrelate record parameters.
        let mut h = self
            .config
            .corpus_seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(index as u64 + 1));
        let mut next = move || {
            h ^= h >> 30;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
            h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            h
        };
        let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;

        let mut cfg = EcgModelConfig {
            sample_rate_hz: self.config.sample_rate_hz,
            ..EcgModelConfig::default()
        };
        cfg.rhythm.mean_heart_rate_bpm = 55.0 + 50.0 * unit(next());
        cfg.rhythm.rr_std_s = 0.02 + 0.04 * unit(next());
        // Roughly a third of MIT-BIH records carry significant ectopy.
        match index % 6 {
            0 => cfg.rhythm.pvc_probability = 0.05 + 0.10 * unit(next()),
            3 => cfg.rhythm.apc_probability = 0.05 + 0.08 * unit(next()),
            _ => {}
        }
        let noise = NoiseConfig {
            baseline_wander_mv: 0.02 + 0.06 * unit(next()),
            muscle_artifact_mv: 0.004 + 0.012 * unit(next()),
            mains_mv: 0.002 + 0.006 * unit(next()),
            mains_hz: 60.0,
            white_mv: 0.002 + 0.004 * unit(next()),
        };
        (cfg, noise, next())
    }

    /// Generates record `index` (deterministic for a given corpus).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn record(&self, index: usize) -> Record {
        assert!(index < self.len(), "record index out of range");
        let (cfg, noise_cfg, seed) = self.profile(index);
        let adc = AdcModel::mit_bih();
        let n = (self.config.duration_s * self.config.sample_rate_hz).round() as usize;

        let mut channels = Vec::with_capacity(self.config.num_channels);
        let mut annotations = Vec::new();
        for ch in 0..self.config.num_channels {
            // Same rhythm seed per channel (leads observe the same heart),
            // different projection and independent noise.
            let gains = if ch == 0 {
                [1.0, 1.0, 1.0, 1.0, 1.0]
            } else {
                [0.55, -0.35, 0.85, -0.55, 1.25]
            };
            let mut model = EcgModel::with_lead_gains(cfg.clone(), seed, gains);
            let (clean, beats) = model.synthesize(self.config.duration_s);
            if ch == 0 {
                annotations = beats;
            }
            let noise = noise_trace(
                &noise_cfg,
                self.config.sample_rate_hz,
                n,
                seed ^ (0xA5A5 + ch as u64),
            );
            let noisy = contaminate(&clean[..n.min(clean.len())], &noise[..n.min(clean.len())]);
            channels.push(adc.quantize_trace(&noisy));
        }

        Record::new(
            format!("s{:03}", 100 + index),
            self.config.sample_rate_hz,
            adc,
            channels,
            annotations,
        )
    }

    /// Iterates over all records, generating each lazily.
    pub fn iter(&self) -> impl Iterator<Item = Record> + '_ {
        (0..self.len()).map(move |i| self.record(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BeatType;

    fn small_db(n: usize, secs: f64) -> SyntheticDatabase {
        SyntheticDatabase::new(DatabaseConfig {
            num_records: n,
            duration_s: secs,
            ..DatabaseConfig::default()
        })
    }

    #[test]
    fn records_are_deterministic_and_distinct() {
        let db = small_db(3, 3.0);
        assert_eq!(db.record(1), db.record(1));
        assert_ne!(db.record(0).codes(0), db.record(1).codes(0));
    }

    #[test]
    fn record_shape_matches_mit_bih() {
        let db = small_db(1, 5.0);
        let r = db.record(0);
        assert_eq!(r.num_channels(), 2);
        assert_eq!(r.sample_rate_hz(), 360.0);
        assert_eq!(r.adc().bits(), 11);
        assert_eq!(r.len(), 1800);
        assert!(r.id().starts_with('s'));
    }

    #[test]
    fn corpus_has_heart_rate_diversity() {
        let db = small_db(12, 10.0);
        let rates: Vec<f64> = (0..12)
            .map(|i| {
                let r = db.record(i);
                r.annotations().len() as f64 / r.duration_s() * 60.0
            })
            .collect();
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max - min > 10.0, "rates {rates:?} not diverse");
    }

    #[test]
    fn some_records_have_ectopy() {
        let db = small_db(12, 30.0);
        let mut pvc_records = 0;
        for i in 0..12 {
            let r = db.record(i);
            if r.annotations().iter().any(|b| b.beat == BeatType::Pvc) {
                pvc_records += 1;
            }
        }
        assert!(pvc_records >= 1, "no arrhythmic records in corpus");
    }

    #[test]
    fn iter_yields_all_records() {
        let db = small_db(4, 2.0);
        assert_eq!(db.iter().count(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_record_panics() {
        let _ = small_db(2, 2.0).record(2);
    }
}
