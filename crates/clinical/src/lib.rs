//! # cs-clinical — streaming clinical analysis for the CS-ECG pipeline
//!
//! Everything downstream of reconstruction: the decode side hands this
//! crate in-order per-lead sample windows (via `cs_core::FleetPacket`
//! emissions) and gets back beats, alarms, and adaptive-compression
//! feedback.
//!
//! ```text
//!   FleetPacket ─▶ StreamingQrsDetector ─▶ BeatClassifier ─▶ AlarmEngine
//!        │            (primary lead only)                        │
//!        │                                                       ▼
//!        └──────────◀── TierController ◀── ClinicalEngine ── transitions
//!                     (Routine ⇄ Diagnostic)
//! ```
//!
//! * [`StreamingQrsDetector`] — an incremental port of
//!   `cs_ecg_data::detect::detect_r_peaks` that produces **bit-identical
//!   detections** regardless of how the signal is chunked into windows,
//!   at ~115 ms latency behind the input.
//! * [`BeatClassifier`] — RR-interval + crest-morphology beat typing
//!   (normal / PVC / APC).
//! * [`AlarmEngine`] — per-patient alarm state machine with onset
//!   hysteresis, immediate escalation, latched criticals, and an
//!   asystole silence timeout.
//! * [`ClinicalEngine`] — the fleet-wide assembly: one detector per
//!   patient, on the primary lead (other leads' windows are not
//!   analysed), concealment-aware alarm suppression, live
//!   sensitivity/PPV scoring against registered ground truth, and
//!   closed-loop fidelity control through `cs_core::TierController`.
//!
//! Steady-state analysis performs no heap allocation: detectors use
//! fixed rings sized at construction, and every event buffer is reused.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod alarm;
mod classifier;
mod detector;
mod engine;

pub use alarm::{AlarmConfig, AlarmEngine, AlarmTransition};
pub use classifier::{BeatClassifier, BeatClassifierConfig, ClassifiedBeat};
pub use detector::{QrsDetection, StreamingQrsDetector};
pub use engine::{ClinicalConfig, ClinicalEngine, ClinicalEvent, TruthScorer};
