//! Golden digests of the synthetic corpus.
//!
//! Every figure in `results/`, every pipebench gate and every golden
//! decode digest downstream starts from these samples, so the synthesizer
//! may be re-shaped for speed only if its output keeps every bit. Each
//! digest is FNV-1a over the `to_bits()` of the values (integer codes and
//! annotation positions as they are): the ADC codes of two four-channel
//! records (record 0 carries PVCs), the raw model output with identity
//! and with projected lead gains, a noise trace, and three resampling
//! ratios on one input shorter than the filter and one longer.
//!
//! A failure here means floating-point operation order moved somewhere in
//! `model.rs`, `database.rs`, `noise.rs` or `resample.rs`.

use cs_ecg_data::{
    noise_trace, BeatAnnotation, BeatType, DatabaseConfig, EcgModel, EcgModelConfig, NoiseConfig,
    Resampler, SyntheticDatabase,
};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(mut self, values: &[f64]) -> u64 {
        self.mix(values.len() as u64);
        for v in values {
            self.mix(v.to_bits());
        }
        self.0
    }
}

fn beats_digest(beats: &[BeatAnnotation]) -> u64 {
    let mut h = Fnv::new();
    h.mix(beats.len() as u64);
    for b in beats {
        h.mix(b.sample as u64);
        h.mix(match b.beat {
            BeatType::Normal => 0,
            BeatType::Pvc => 1,
            BeatType::Apc => 2,
        });
    }
    h.0
}

/// `(per-channel code digests, annotation digest)` of one record.
fn record_digest(db: &SyntheticDatabase, index: usize) -> (Vec<u64>, u64) {
    let record = db.record(index);
    let channels = (0..record.num_channels())
        .map(|ch| {
            let mut h = Fnv::new();
            h.mix(record.codes(ch).len() as u64);
            for &code in record.codes(ch) {
                h.mix(u64::from(code));
            }
            h.0
        })
        .collect();
    (channels, beats_digest(record.annotations()))
}

#[test]
fn database_records_keep_their_bits() {
    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: 2,
        num_channels: 4,
        duration_s: 60.0,
        ..DatabaseConfig::default()
    });
    assert!(
        db.record(0).annotations().iter().any(|b| b.beat == BeatType::Pvc),
        "record 0 must exercise the ectopic morphology switch"
    );
    assert_eq!(
        record_digest(&db, 0),
        (
            vec![
                0x91df_b18a_ab3e_f961,
                0xc438_32b8_1264_7961,
                0xc6b1_0dd9_5121_4cd1,
                0x9281_0b14_4ee0_e12e,
            ],
            0x9982_054d_0940_2e73,
        )
    );
    assert_eq!(
        record_digest(&db, 1),
        (
            vec![
                0x5f62_923e_172b_4d3b,
                0xcb3e_f8ee_8a58_bb80,
                0xb966_6d09_bdb4_aac5,
                0xd274_f16d_3b17_a894,
            ],
            0xe180_d2c7_c4c8_e3f5,
        )
    );
}

/// A rhythm with both ectopic classes, so every morphology and every
/// θ wrap path is taken.
fn ectopic_config() -> EcgModelConfig {
    let mut config = EcgModelConfig::default();
    config.rhythm.pvc_probability = 0.15;
    config.rhythm.apc_probability = 0.1;
    config
}

#[test]
fn model_output_keeps_its_bits() {
    let (samples, beats) = EcgModel::new(ectopic_config(), 11).synthesize(30.0);
    assert!(beats.iter().any(|b| b.beat == BeatType::Pvc));
    assert!(beats.iter().any(|b| b.beat == BeatType::Apc));
    assert_eq!(
        (Fnv::new().floats(&samples), beats_digest(&beats)),
        (0xf4fd_c39c_01d7_301c, 0x77ea_17cf_88db_15a2)
    );

    let gains = [0.6, -0.4, 0.9, -0.6, 1.3];
    let (samples, beats) = EcgModel::with_lead_gains(ectopic_config(), 12, gains).synthesize(30.0);
    assert_eq!(
        (Fnv::new().floats(&samples), beats_digest(&beats)),
        (0x3bb5_64f0_8549_b384, 0x7a78_e8a8_ba44_0fc6)
    );
}

#[test]
fn noise_trace_keeps_its_bits() {
    let noise = noise_trace(&NoiseConfig::default(), 360.0, 5000, 0xA5A5);
    assert_eq!(Fnv::new().floats(&noise), 0x9bf6_421c_39bb_052e);
}

#[test]
fn resampler_keeps_its_bits() {
    let signal = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                (0.05 * t).sin() + 0.3 * (0.71 * t + 0.002 * t * t).cos()
            })
            .collect()
    };
    // 10 inputs is fewer than any of these filters' span in input samples;
    // 2000 reaches the steady state.
    let mut digests = Vec::new();
    for (to, from) in [(256, 360), (2, 1), (3, 2)] {
        let resampler = Resampler::new(to, from);
        for n in [10, 2000] {
            digests.push(Fnv::new().floats(&resampler.resample(&signal(n))));
        }
    }
    assert_eq!(
        digests,
        vec![
            0x36a8_358b_77c9_75b2,
            0x7770_f768_3071_50d2,
            0xd085_dbf9_33e9_8913,
            0x75ac_60ad_27b6_a8ed,
            0x4c44_3497_33a0_1ce5,
            0x82b0_4791_9b82_f048,
        ]
    );
}
