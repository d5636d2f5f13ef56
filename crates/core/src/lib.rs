//! # cs-core — the real-time compressed-sensing ECG pipeline
//!
//! This crate assembles the paper's complete system (Fig. 1):
//!
//! ```text
//!  mote (integer only)                    coordinator (f32/f64)
//!  ┌────────────┐ ┌────────────┐ ┌───────┐   ┌────────┐ ┌──────────┐ ┌───────┐
//!  │ sparse     │→│ redundancy │→│Huffman│ ⇒ │Huffman │→│ packet   │→│ FISTA │
//!  │ binary CS  │ │ removal    │ │encode │   │decode  │ │ reconst. │ │ + Ψᵀ  │
//!  └────────────┘ └────────────┘ └───────┘   └────────┘ └──────────┘ └───────┘
//! ```
//!
//! * [`SystemConfig`] — everything both sides must agree on (N, CR, d,
//!   wavelet, seed, alphabet), with the paper's demo system as default.
//! * [`Encoder`] — the mote side; never touches a float.
//! * [`Decoder`] — the coordinator side, generic over `f32`/`f64`.
//! * [`train_codebook`] — the offline Huffman training step.
//! * [`evaluate_stream`] / [`train_and_evaluate`] — round-trip evaluation
//!   returning per-packet CR/PRD/SNR and solver statistics.
//! * [`WireCore`] — the one decode path behind every wire, synchronous:
//!   frames in, windows out, each with its [`PacketOutcome`].
//! * [`run_fleet`] — the coordinator: the calling thread drains one of
//!   three [`FleetSource`]s (raw leads, materialized wire frames or a live
//!   channel) into M workers, each driving a core and delivering its own
//!   windows, with per-stream in-order delivery, shared spectral setup and
//!   an optional write-before-decode [`FrameSink`]. One stream on one
//!   worker is the iPhone app's two-thread structure around the 6-second
//!   ([`SHARED_BUFFER_PACKETS`]) shared buffer.
//!
//! `run_fleet` takes a `cs_telemetry::TelemetryRegistry` and records
//! per-stage latency histograms, worker counters and solve traces into it;
//! the disabled registry costs one atomic load per span.
//!
//! ## Quickstart
//!
//! ```
//! use cs_core::{train_and_evaluate, SolverPolicy, SystemConfig};
//!
//! // A synthetic spiky packet stream standing in for real ECG.
//! let samples: Vec<i16> = (0..512 * 4)
//!     .map(|i| {
//!         let t = (i % 512) as f64 / 512.0;
//!         (800.0 * (-((t - 0.5) * 30.0).powi(2)).exp()) as i16
//!     })
//!     .collect();
//!
//! let config = SystemConfig::paper_default(); // CR 50 %, d = 12, db4
//! let report = train_and_evaluate::<f64>(&config, &samples, 2, SolverPolicy::default())?;
//! assert_eq!(report.packets.len(), 4);
//! assert!(report.cr.mean() > 0.0);
//! # Ok::<(), cs_core::PipelineError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod baseline;
mod codebook;
mod config;
mod decoder;
mod encoder;
mod error;
mod fleet;
mod ingest;
mod multichannel;
mod packet;
mod pipeline;
mod wire;

pub use baseline::{BaselinePacket, DwtThresholdCodec};
pub use codebook::{train_codebook, uniform_codebook};
pub use config::{SystemConfig, SystemConfigBuilder};
pub use decoder::{
    DecodeWorkspace, DecodedPacket, Decoder, PriorMode, Schedule, SolverPolicy, StopRule,
};
pub use encoder::Encoder;
pub use error::PipelineError;
pub use fleet::{
    run_fleet, run_fleet_wire_stream_archived, FleetConfig, FleetPacket, FleetReport, FleetSource,
    FleetStream, FrameSink, WireFrame, SHARED_BUFFER_PACKETS,
};
pub use ingest::{
    ConcealmentReason, FaultStats, PacketOutcome, PushReject, QuarantineRecord,
    QuarantineRing, Reassembler, SequencedEvent, DEFAULT_QUARANTINE_CAPACITY,
    DEFAULT_REORDER_WINDOW, MAX_LOSS_BURST,
};
pub use multichannel::{ChannelPacket, MultiChannelEncoder};
pub use packet::{
    crc16, parse_frame, EncodedPacket, FrameInfo, PacketKind, FRAME_MAGIC, FRAME_VERSION,
    HEADER_BYTES, QUARANTINE_LANE, TRAILER_BYTES,
};
pub use pipeline::{evaluate_stream, packetize, train_and_evaluate, PacketReport, StreamReport};
pub use wire::{Emission, WireCore};
/// Which vector-kernel arm the decoder runs on this CPU (re-exported from
/// `cs-dsp` for services that report it).
pub use cs_dsp::kernel_arm;
