//! # cs-metrics — evaluation metrics for the CS-ECG system
//!
//! The DATE 2011 paper evaluates its compression scheme with exactly two
//! quantities (§III): the **compression ratio** (CR, Eq. 7) and the
//! **percentage root-mean-square difference** (PRD) with its associated
//! **SNR**. This crate implements those definitions verbatim, the clinical
//! quality bands Fig. 6 annotates, and the corpus-aggregation helpers the
//! figure-reproduction harness uses ("averaged over all Data").
//!
//! ## Example
//!
//! ```
//! use cs_metrics::{compression_ratio, output_snr, DiagnosticQuality, prd};
//!
//! let x = vec![1.0, 2.0, 3.0, 2.0, 1.0];
//! let recon = vec![1.01, 1.98, 3.02, 1.99, 1.01];
//!
//! let p = prd(&x, &recon);
//! assert_eq!(DiagnosticQuality::from_prd(p), DiagnosticQuality::VeryGood);
//! assert!(output_snr(&x, &recon) > 30.0);
//! assert_eq!(compression_ratio(8 * 512 * 12, 8 * 512 * 6), 50.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod aggregate;
mod quality;

pub use aggregate::{Summary, SweepPoint, SweepSeries};
pub use quality::{
    compression_ratio, output_snr, prd, snr_from_prd, try_prd, DiagnosticQuality,
};
