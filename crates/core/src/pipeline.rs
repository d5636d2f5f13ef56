//! End-to-end round-trip evaluation.
//!
//! The figure harness needs one operation over and over: push a record
//! through encoder + decoder and collect, per packet, the compression
//! ratio, PRD/SNR and solver statistics. [`evaluate_stream`] is that
//! operation, and [`packetize`] is the 2-second windowing that feeds it.

use crate::codebook::train_codebook;
use crate::config::SystemConfig;
use crate::decoder::{Decoder, SolverPolicy};
use crate::encoder::Encoder;
use crate::error::PipelineError;
use cs_dsp::Real;
use cs_metrics::{compression_ratio, prd, snr_from_prd, Summary};
use std::sync::Arc;
use std::time::Duration;

/// Splits a sample stream into whole packets of length `n`, dropping any
/// trailing partial packet (as the real system would buffer it for later).
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// # Examples
///
/// ```
/// let samples: Vec<i16> = (0..1100).map(|i| i as i16).collect();
/// let packets: Vec<&[i16]> = cs_core::packetize(&samples, 512).collect();
/// assert_eq!(packets.len(), 2);
/// assert_eq!(packets[1][0], 512);
/// ```
pub fn packetize(samples: &[i16], n: usize) -> impl Iterator<Item = &[i16]> {
    assert!(n > 0, "packetize: zero packet length");
    samples.chunks_exact(n)
}

/// Per-packet round-trip measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketReport {
    /// Sequence index.
    pub index: u64,
    /// End-to-end compression ratio of this packet in percent (original
    /// `N × sample_bits` vs coded payload bits).
    pub cr_percent: f64,
    /// Percentage RMS difference of the reconstruction.
    pub prd: f64,
    /// Output SNR in dB.
    pub snr_db: f64,
    /// FISTA iterations spent.
    pub iterations: usize,
    /// Wall-clock solver time.
    pub solve_time: Duration,
    /// Coded payload bits (header excluded, matching the paper's CR
    /// definition).
    pub payload_bits: usize,
}

/// Aggregate of a whole stream (one record/channel).
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Per-packet details in order.
    pub packets: Vec<PacketReport>,
    /// Summary of per-packet CR.
    pub cr: Summary,
    /// Summary of per-packet PRD.
    pub prd: Summary,
    /// Summary of per-packet output SNR.
    pub snr_db: Summary,
    /// Summary of per-packet iteration counts.
    pub iterations: Summary,
    /// Summary of per-packet solve times in seconds.
    pub solve_seconds: Summary,
}

impl StreamReport {
    fn from_packets(packets: Vec<PacketReport>) -> Self {
        let cr = packets.iter().map(|p| p.cr_percent).collect();
        let prd = packets.iter().map(|p| p.prd).collect();
        let snr_db = packets.iter().map(|p| p.snr_db).collect();
        let iterations = packets.iter().map(|p| p.iterations as f64).collect();
        let solve_seconds = packets.iter().map(|p| p.solve_time.as_secs_f64()).collect();
        StreamReport {
            packets,
            cr,
            prd,
            snr_db,
            iterations,
            solve_seconds,
        }
    }
}

/// Runs the full encoder → wire → decoder loop over a sample stream at
/// precision `T`, reporting per-packet and aggregate metrics.
///
/// Packets whose original energy is zero (flat-line input) are skipped in
/// the PRD statistics but still counted for CR.
///
/// # Errors
///
/// Propagates construction and decode failures.
pub fn evaluate_stream<T: Real>(
    config: &SystemConfig,
    codebook: Arc<cs_codec::Codebook>,
    samples: &[i16],
    policy: SolverPolicy<T>,
) -> Result<StreamReport, PipelineError> {
    let mut encoder = Encoder::new(config, Arc::clone(&codebook))?;
    let mut decoder: Decoder<T> = Decoder::new(config, codebook, policy)?;
    let original_bits = config.original_packet_bits();

    let mut reports = Vec::new();
    for packet in packetize(samples, config.packet_len()) {
        let wire = encoder.encode_packet(packet)?;
        let decoded = decoder.decode_packet(&wire)?;

        let x: Vec<f64> = packet.iter().map(|&v| v as f64).collect();
        let xhat: Vec<f64> = decoded.samples.iter().map(|&v| v.to_f64()).collect();
        let energy: f64 = x.iter().map(|v| v * v).sum();
        let (p, s) = if energy > 0.0 {
            let p = prd(&x, &xhat);
            (p, snr_from_prd(p))
        } else {
            (0.0, f64::INFINITY)
        };
        reports.push(PacketReport {
            index: wire.index,
            cr_percent: compression_ratio(original_bits, wire.payload_bits as u64),
            prd: p,
            snr_db: s,
            iterations: decoded.iterations,
            solve_time: decoded.solve_time,
            payload_bits: wire.payload_bits,
        });
    }
    Ok(StreamReport::from_packets(reports))
}

/// Convenience wrapper: trains a codebook on the first `training_packets`
/// packets of the stream, then evaluates the whole stream with it — the
/// typical workflow of the figure binaries.
///
/// # Errors
///
/// Propagates construction and decode failures.
pub fn train_and_evaluate<T: Real>(
    config: &SystemConfig,
    samples: &[i16],
    training_packets: usize,
    policy: SolverPolicy<T>,
) -> Result<StreamReport, PipelineError> {
    let training = packetize(samples, config.packet_len())
        .take(training_packets)
        .map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(config, training)?);
    evaluate_stream(config, codebook, samples, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_ecg_data::{DatabaseConfig, SyntheticDatabase};

    fn record_samples(seconds: f64) -> Vec<i16> {
        let db = SyntheticDatabase::new(DatabaseConfig {
            num_records: 1,
            duration_s: seconds,
            ..DatabaseConfig::default()
        });
        let record = db.record(0);
        let mv = record.signal_mv(0);
        let at256 = cs_ecg_data::resample_360_to_256(&mv);
        let adc = record.adc();
        at256
            .iter()
            .map(|&v| adc.to_signed(adc.quantize(v)))
            .collect()
    }

    #[test]
    fn round_trip_on_synthetic_ecg_cr50() {
        let config = SystemConfig::paper_default();
        let samples = record_samples(20.0);
        let report =
            train_and_evaluate::<f64>(&config, &samples, 4, SolverPolicy::default()).unwrap();
        assert!(report.packets.len() >= 9);
        // CR 50 linear stage + entropy coding: average end-to-end CR must
        // exceed the linear stage alone on delta packets.
        assert!(
            report.cr.mean() > 40.0,
            "mean CR {} too low",
            report.cr.mean()
        );
        // Reconstruction is clinically plausible at CR 50.
        assert!(
            report.prd.mean() < 35.0,
            "mean PRD {} too high",
            report.prd.mean()
        );
        assert!(report.iterations.mean() > 0.0);
    }

    #[test]
    fn packetize_drops_partial_tail() {
        let s = vec![0_i16; 1000];
        assert_eq!(packetize(&s, 512).count(), 1);
        assert_eq!(packetize(&s, 500).count(), 2);
    }

    #[test]
    fn higher_cr_means_fewer_bits_and_worse_prd() {
        let samples = record_samples(16.0);
        let run = |cr: f64| {
            let config = SystemConfig::builder()
                .compression_ratio(cr)
                .build()
                .unwrap();
            train_and_evaluate::<f64>(&config, &samples, 3, SolverPolicy::default()).unwrap()
        };
        let lo = run(40.0);
        let hi = run(80.0);
        assert!(hi.cr.mean() > lo.cr.mean() + 20.0);
        assert!(
            hi.prd.mean() > lo.prd.mean(),
            "PRD at CR80 ({}) should exceed CR40 ({})",
            hi.prd.mean(),
            lo.prd.mean()
        );
    }

    #[test]
    fn f32_policy_works_end_to_end() {
        let config = SystemConfig::paper_default();
        let samples = record_samples(8.0);
        let report =
            train_and_evaluate::<f32>(&config, &samples, 2, SolverPolicy::default()).unwrap();
        assert!(!report.packets.is_empty());
        assert!(report.prd.mean() < 40.0);
    }
}
