//! # cs-ingest — the socket-fed front door of the CS-ECG fleet
//!
//! Everything between a mote's TCP socket and [`cs_core::run_fleet`]'s
//! [`FleetSource::Channel`](cs_core::FleetSource::Channel): a supervised listener
//! ([`IngestServer`]), per-connection sessions with a versioned
//! handshake and hard lifecycle budgets, an allocation-free incremental
//! record deframer ([`Deframer`]) that survives arbitrary read splits
//! and boundary corruption, and backpressure-aware admission control
//! that sheds *new* connections — with a typed NACK and a `Retry-After`
//! hint — when the decode fleet backs up, instead of queueing without
//! bound.
//!
//! The crate is transport only: it never interprets a frame beyond its
//! record boundary. Corrupt frames travel on to the engine, whose CRC
//! check counts and quarantines them, so the fleet's exact fault
//! accounting (`frames == rejects + duplicates + late + decoded +
//! concealed + quarantined`) holds across the network hop.
//!
//! ## Wiring it up
//!
//! ```no_run
//! use cs_core::{run_fleet, uniform_codebook, FleetConfig, FleetSource, SolverPolicy,
//!               SystemConfig, WireFrame};
//! use cs_ingest::{IngestConfig, IngestServer};
//! use cs_telemetry::TelemetryRegistry;
//! use std::sync::Arc;
//!
//! let config = SystemConfig::paper_default();
//! let codebook = Arc::new(uniform_codebook(config.alphabet())?);
//! let telemetry = TelemetryRegistry::new();
//! let (feed, source) = crossbeam::channel::bounded::<WireFrame>(256);
//!
//! // `run_fleet`'s calling thread drains the feed into its decode workers,
//! // which run the callback: the engine gets a thread of its own.
//! let engine = {
//!     let (config, codebook, telemetry) = (config.clone(), Arc::clone(&codebook), telemetry.clone());
//!     std::thread::spawn(move || {
//!         run_fleet::<f32, _>(
//!             &config, codebook, FleetSource::Channel(source), SolverPolicy::default(),
//!             &FleetConfig::default(), &telemetry, None, |_packet| {},
//!         )
//!     })
//! };
//!
//! let server = IngestServer::bind("127.0.0.1:0", IngestConfig::default(), telemetry, feed)?;
//! // ... serve ...
//! let summary = server.drain(); // graceful: flush sessions, close feed
//! let report = engine.join().expect("engine thread")?;
//! assert_eq!(summary.frames, report.faults.frames);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod client;
pub mod deframe;
pub mod proto;
mod server;
mod session;

pub use admission::AdmissionController;
pub use client::{Connect, IngestClient};
pub use deframe::{
    encode_record, DeframeStats, Deframer, MAX_FRAME_BYTES, MIN_FRAME_BYTES, RECORD_PREFIX_BYTES,
};
pub use proto::{
    encode_control, encode_hello, hello_len, parse_control, parse_hello, Control, ControlCode,
    Hello, LaneResume, ProtoError, CONTROL_BYTES, HELLO_FIXED_BYTES, HELLO_LANE_BYTES,
    INGEST_VERSION, MAX_HELLO_BYTES, MAX_HELLO_LANES,
};
pub use server::{DrainSummary, IngestConfig, IngestServer};
