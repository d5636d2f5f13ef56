//! # cs-telemetry — zero-dependency observability for the CS-ECG pipeline
//!
//! Lock-free counters, fixed-bucket log2 latency histograms, RAII span
//! guards over every pipeline stage, a bounded convergence-trace journal,
//! and Prometheus/JSON-Lines exporters — with **no dependencies outside
//! `std`**, so the crate sits below every other workspace crate without
//! widening the build surface.
//!
//! The design center is "default-on but cheap": instrumented code paths
//! hold a [`TelemetryRegistry`] unconditionally, and the shared
//! [`TelemetryRegistry::disabled`] handle reduces every span to a single
//! relaxed atomic load. The *enabled* registry's budget, < 2 % of
//! throughput, is read from pipebench's `telemetry.overhead_share` row
//! (`--trace 1`) at full run length; at `--smoke` length it is noise.
//!
//! ```
//! use cs_telemetry::{Stage, TelemetryRegistry};
//!
//! let telemetry = TelemetryRegistry::new();
//! {
//!     let _span = telemetry.span(Stage::FistaSolve);
//!     // ... solve ...
//! }
//! let p50 = telemetry.stage(Stage::FistaSolve).snapshot().quantile(0.5);
//! assert!(p50 >= 1);
//! println!("{}", telemetry.prometheus());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
pub mod label;

pub mod archive;
pub mod clinical;
pub mod export;
pub mod family;
pub mod fault;
pub mod histogram;
pub mod ingest;
pub mod journal;
pub mod mode;
pub mod registry;
pub mod serve;
pub mod slo;
pub mod stage;
pub mod trace;

pub use archive::ArchiveOp;
pub use clinical::{AlarmKind, AlarmSeverity, BeatClass};
pub use export::{escape_label, json_line, prometheus, Every, REPORT_QUANTILES};
pub use family::{Family, FamilyId, Json, Kind, Layer, Presence, FAMILIES};
pub use fault::FaultKind;
pub use histogram::{bucket_upper, Histogram, HistogramSnapshot, BUCKETS};
pub use ingest::{IngestDisconnect, IngestState};
pub use journal::{Journal, SolveTrace};
pub use label::Label;
pub use mode::SolverMode;
pub use registry::{
    Span, TelemetryRegistry, TelemetrySnapshot, DEFAULT_JOURNAL_CAPACITY, MAX_WORKERS,
};
pub use serve::{MetricsServer, ScrapeEndpoint};
pub use slo::{
    HealthState, LaneWatermark, PatientSlo, SloConfig, SloSnapshot, MAX_LANES, MAX_PATIENTS,
};
pub use stage::Stage;
pub use trace::{tracez_json, EmitRecord, TraceContext, TRACEZ_LIMIT};
