//! # cs-ecg-data — the ECG data substrate
//!
//! The DATE 2011 CS-ECG paper evaluates on the MIT-BIH Arrhythmia Database
//! (48 half-hour two-channel ambulatory records, 360 Hz, 11-bit over
//! 10 mV), re-sampled to 256 Hz before encoding. That database cannot ship
//! with this repository, so this crate builds the closest synthetic
//! equivalent end to end:
//!
//! * [`EcgModel`] — the McSharry/ECGSYN dynamical model: a limit-cycle ODE
//!   whose Gaussian P-Q-R-S-T events generate realistic, quasi-periodic ECG
//!   with beat-to-beat variability and ectopic (PVC/APC) beats. This
//!   preserves the two properties compressed sensing exploits: wavelet-
//!   domain sparsity and inter-packet redundancy.
//! * [`noise_trace`] — ambulatory contaminants (baseline wander, muscle
//!   artifact, mains hum, white noise).
//! * [`AdcModel`] — the 11-bit/10 mV converter, producing the integer codes
//!   the 16-bit mote encoder actually works on.
//! * [`Record`] / [`SyntheticDatabase`] — a deterministic 48-record corpus
//!   mirroring the original database's structure, generated lazily.
//! * [`Resampler`] — the polyphase 360 Hz → 256 Hz rational resampler
//!   (L/M = 32/45) the paper applies before feeding the mote.
//!
//! ## Example: one packet of mote input
//!
//! ```
//! use cs_ecg_data::{resample_360_to_256, DatabaseConfig, SyntheticDatabase};
//!
//! let db = SyntheticDatabase::new(DatabaseConfig {
//!     num_records: 1,
//!     duration_s: 10.0,
//!     ..DatabaseConfig::default()
//! });
//! let record = db.record(0);
//! let mv = record.signal_mv(0);           // 360 Hz millivolts
//! let at_256 = resample_360_to_256(&mv);  // what the serial port feeds in
//! let packet = &at_256[..512];            // one 2-second CS packet
//! assert_eq!(packet.len(), 512);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adc;
mod database;
mod detect;
mod model;
mod noise;
mod record;
mod resample;
pub mod wfdb;

pub use adc::AdcModel;
pub use database::{DatabaseConfig, SyntheticDatabase};
pub use detect::{detect_r_peaks, score_detections, QrsDetectorConfig, SEARCHBACK_RR_FACTOR};
pub use model::{BeatAnnotation, BeatType, EcgModel, EcgModelConfig, RhythmConfig};
pub use noise::{noise_trace, NoiseConfig};
pub use record::Record;
pub use resample::{resample_360_to_256, Resampler};
