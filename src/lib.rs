//! # cs-ecg-monitor
//!
//! A complete, from-scratch Rust reproduction of *"A Real-Time Compressed
//! Sensing-Based Personal Electrocardiogram Monitoring System"* (Kanoun,
//! Mamaghanian, Khaled, Atienza — DATE 2011): a computationally light,
//! integer-only CS encoder (the ShimmerTM mote side) and a real-time FISTA
//! decoder (the iPhone coordinator side), together with every substrate
//! the system needs — wavelet bases, sensing matrices, entropy coding,
//! a synthetic MIT-BIH-like ECG corpus, and embedded-platform models.
//!
//! This umbrella crate re-exports the workspace so applications can depend
//! on one name:
//!
//! * [`dsp`] — wavelets, FIR filtering, window design ([`cs_dsp`])
//! * [`sensing`] — Gaussian / Bernoulli / sparse-binary Φ ([`cs_sensing`])
//! * [`recovery`] — ISTA / FISTA / OMP solvers ([`cs_recovery`])
//! * [`codec`] — differencing + length-limited Huffman ([`cs_codec`])
//! * [`metrics`] — CR / PRD / SNR ([`cs_metrics`])
//! * [`ecg`] — synthetic ECG data substrate ([`cs_ecg_data`])
//! * [`system`] — the end-to-end encoder/decoder pipeline ([`cs_core`])
//! * [`platform`] — mote / coordinator / energy models ([`cs_platform`])
//! * [`telemetry`] — zero-dependency tracing, latency histograms and
//!   the Prometheus exporter ([`cs_telemetry`])
//! * [`archive`] — durable segmented packet store with crash recovery
//!   and decode-on-read fleet replay ([`cs_archive`])
//! * [`clinical`] — streaming QRS detection, beat classification and
//!   per-patient alarms ([`cs_clinical`])
//!
//! ## Quickstart
//!
//! ```
//! use cs_ecg_monitor::prelude::*;
//!
//! // Synthesize 8 seconds of ECG at the mote's 256 Hz input rate.
//! let db = SyntheticDatabase::new(DatabaseConfig {
//!     num_records: 1,
//!     duration_s: 8.0,
//!     ..DatabaseConfig::default()
//! });
//! let record = db.record(0);
//! let at_256 = resample_360_to_256(&record.signal_mv(0));
//! let adc = record.adc();
//! let samples: Vec<i16> = at_256.iter().map(|&v| adc.to_signed(adc.quantize(v))).collect();
//!
//! // Run the paper's system at CR 50 and check the reconstruction.
//! let config = SystemConfig::paper_default();
//! let report = train_and_evaluate::<f64>(&config, &samples, 2, SolverPolicy::default())?;
//! assert!(report.prd.mean() < 40.0);
//! # Ok::<(), cs_ecg_monitor::system::PipelineError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries that regenerate every figure and table of the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cs_archive as archive;
pub use cs_clinical as clinical;
pub use cs_codec as codec;
pub use cs_core as system;
pub use cs_dsp as dsp;
pub use cs_ecg_data as ecg;
pub use cs_metrics as metrics;
pub use cs_platform as platform;
pub use cs_recovery as recovery;
pub use cs_sensing as sensing;
pub use cs_telemetry as telemetry;

/// The most common imports for applications built on this system.
pub mod prelude {
    pub use cs_clinical::StreamingQrsDetector;
    pub use cs_codec::Codebook;
    pub use cs_core::{
        evaluate_stream, packetize, run_fleet, train_and_evaluate, train_codebook, uniform_codebook,
        Decoder, Encoder, FleetConfig, FleetSource, FleetStream, PacketOutcome,
        SolverPolicy, SystemConfig,
    };
    pub use cs_ecg_data::{
        resample_360_to_256, score_detections, AdcModel, BeatType, DatabaseConfig, EcgModel,
        EcgModelConfig, QrsDetectorConfig, Record, SyntheticDatabase,
    };
    pub use cs_metrics::{prd, try_prd, DiagnosticQuality};
    pub use cs_platform::{
        analyze_solves, compare_lifetime, encode_cost, encoder_footprint, CoordinatorSpec,
        EnergyModel, FaultSpec, GilbertElliottParams, LossyLink, MoteSpec,
    };
    pub use cs_recovery::{KernelMode, SynthesisOperator};
    pub use cs_sensing::{Sensing, SparseBinarySensing};
    pub use cs_telemetry::{
        HealthState, MetricsServer, SloConfig, Stage, TelemetryRegistry, TraceContext,
    };
}
