//! # cs-platform — embedded-platform models for the CS-ECG monitor
//!
//! The paper's evaluation is tied to two pieces of hardware this
//! repository cannot ship: the ShimmerTM mote (TI MSP430F1611) and an
//! iPhone 3GS. Per the reproduction ground rules, their *timing, memory
//! and energy envelopes* are modeled here so every platform-dependent
//! number the paper reports has a measured-or-modeled counterpart:
//!
//! * [`MoteSpec`] / [`encode_cost`] / [`encoder_footprint`] — MSP430-class
//!   cycle and memory model, calibrated once against the paper's "82 ms
//!   per 2-second CS sampling" and then used predictively everywhere else;
//! * [`CoordinatorSpec`] / [`analyze_solves`] — the iPhone's real-time
//!   budget (1 s of solve per 2 s packet), deriving iteration caps and CPU
//!   percentages from measured solver behaviour;
//! * [`RadioSpec`] / [`EnergyModel`] / [`compare_lifetime`] — Bluetooth
//!   airtime and node-lifetime comparison (the 12.9 % extension claim).
//!
//! ## Example: price one packet on the mote
//!
//! ```
//! use cs_core::{uniform_codebook, Encoder, SystemConfig};
//! use cs_platform::{encode_cost, MoteSpec};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let config = SystemConfig::paper_default();
//! let codebook = Arc::new(uniform_codebook(512)?);
//! let mut encoder = Encoder::new(&config, codebook)?;
//! let packet = encoder.encode_packet(&vec![0; 512])?;
//!
//! let spec = MoteSpec::msp430f1611();
//! let cost = encode_cost(&spec, &config, &packet);
//! let util = cost.cpu_utilization(&spec, Duration::from_secs(2));
//! assert!(util < 0.05); // the paper's "<5 % CPU on the node"
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chaos_tcp;
mod coordinator;
mod energy;
mod link;
mod mote;

pub use chaos_tcp::{TcpChaosProxy, TcpChaosSpec, TcpChaosStats};
pub use coordinator::{
    analyze_solves, iteration_budget_ratio, CoordinatorSpec, RealTimeReport, SolveSample,
};
pub use energy::{compare_lifetime, EnergyModel, LifetimeComparison, RadioSpec};
pub use link::{
    ChannelModel, Delivery, FaultSpec, GilbertElliott, GilbertElliottParams, LinkStats,
    LossReport, LossyLink,
};
pub use mote::{dwt_baseline_cost, encode_cost, encoder_footprint, EncodeCost, FootprintReport, MoteSpec};
