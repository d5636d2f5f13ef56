//! Threaded producer–consumer streaming, mirroring the iPhone application
//! structure.
//!
//! The paper's coordinator app runs two threads (§IV-B1): one receives
//! Bluetooth data, decodes it and writes 2-second windows into a shared
//! buffer; the other drains the buffer for display. The buffer holds 6
//! seconds — 2 s being written, 2 s being read, 2 s of display latency.
//! [`run_streaming`] reproduces that structure with real threads and a
//! bounded channel whose capacity is that 6-second / 3-packet budget, and
//! reports whether the decoder kept up with real time.

use crate::config::SystemConfig;
use crate::decoder::{DecodedPacket, Decoder, SolverPolicy};
use crate::encoder::Encoder;
use crate::error::PipelineError;
use crate::packet::EncodedPacket;
use cs_dsp::Real;
use std::sync::Arc;
use std::time::Duration;

/// Capacity of the shared buffer in packets: 6 s of ECG at 2 s per packet.
pub const SHARED_BUFFER_PACKETS: usize = 3;

/// Outcome of a streaming run.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Packets that made it through the whole pipeline.
    pub packets_delivered: usize,
    /// Total wall-clock decode time across all packets.
    pub total_decode_time: Duration,
    /// Longest single-packet decode time (the real-time-critical number —
    /// it must stay under the packet period).
    pub max_decode_time: Duration,
    /// The packet period implied by the configuration (N / 256 Hz).
    pub packet_period: Duration,
    /// Whether every packet decoded within one packet period (the paper's
    /// definition of real-time operation).
    pub real_time: bool,
}

/// Runs encoder and decoder on separate threads connected by the bounded
/// shared buffer, pushing the given sample stream through.
///
/// The consumer applies `on_packet` to every decoded packet (the display
/// thread's role). Producer encode stages and consumer decode stages land
/// in `telemetry`'s histograms while the stream runs; pass
/// [`TelemetryRegistry::disabled`] for one atomic load per span.
///
/// [`TelemetryRegistry::disabled`]: cs_telemetry::TelemetryRegistry::disabled
///
/// # Errors
///
/// Propagates construction errors; decode errors abort the consumer and
/// surface here.
pub fn run_streaming<T, F>(
    config: &SystemConfig,
    codebook: Arc<cs_codec::Codebook>,
    samples: &[i16],
    policy: SolverPolicy<T>,
    telemetry: &cs_telemetry::TelemetryRegistry,
    mut on_packet: F,
) -> Result<StreamingReport, PipelineError>
where
    T: Real,
    F: FnMut(&DecodedPacket<T>) + Send,
{
    let mut encoder = Encoder::new(config, Arc::clone(&codebook))?;
    let mut decoder: Decoder<T> = Decoder::new(config, codebook, policy)?;
    encoder.set_telemetry(telemetry.clone());
    decoder.set_telemetry(telemetry.clone());
    let n = config.packet_len();
    let packet_period = Duration::from_secs_f64(n as f64 / 256.0);

    let (tx, rx) = crossbeam::channel::bounded::<EncodedPacket>(SHARED_BUFFER_PACKETS);

    let result: Result<StreamingReport, PipelineError> = std::thread::scope(|scope| {
        // Producer: the mote. Encodes packets and pushes them into the
        // shared buffer, blocking when the buffer is full (back-pressure —
        // in hardware this would be radio buffering).
        let producer = scope.spawn(move || -> Result<(), PipelineError> {
            for chunk in samples.chunks_exact(n) {
                let wire = encoder.encode_packet(chunk)?;
                if tx.send(wire).is_err() {
                    break; // consumer hung up after an error
                }
            }
            Ok(())
        });

        // Consumer: the coordinator. Decodes and "displays".
        let mut delivered = 0usize;
        let mut total = Duration::ZERO;
        let mut max = Duration::ZERO;
        let mut consumer_err = None;
        for wire in rx.iter() {
            match decoder.decode_packet(&wire) {
                Ok(decoded) => {
                    total += decoded.solve_time;
                    max = max.max(decoded.solve_time);
                    delivered += 1;
                    on_packet(&decoded);
                }
                Err(e) => {
                    consumer_err = Some(e);
                    break;
                }
            }
        }
        let producer_result = producer.join().expect("producer thread panicked");
        if let Some(e) = consumer_err {
            return Err(e);
        }
        producer_result?;
        Ok(StreamingReport {
            packets_delivered: delivered,
            total_decode_time: total,
            max_decode_time: max,
            packet_period,
            real_time: max <= packet_period,
        })
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::uniform_codebook;

    fn ecg_like(npackets: usize, n: usize) -> Vec<i16> {
        (0..npackets * n)
            .map(|i| {
                let t = (i % n) as f64 / n as f64;
                (700.0 * (-((t - 0.4) * 25.0).powi(2)).exp() + 50.0 * (t * 10.0).sin()) as i16
            })
            .collect()
    }

    #[test]
    fn streams_all_packets_through_threads() {
        let config = SystemConfig::paper_default();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        let samples = ecg_like(6, 512);
        let mut seen = Vec::new();
        let report = run_streaming::<f64, _>(
            &config,
            cb,
            &samples,
            SolverPolicy::default(),
            &cs_telemetry::TelemetryRegistry::disabled(),
            |p| seen.push(p.index),
        )
        .unwrap();
        assert_eq!(report.packets_delivered, 6);
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]); // in order
        assert!(report.max_decode_time >= Duration::ZERO);
        assert_eq!(report.packet_period, Duration::from_secs(2));
    }

    #[test]
    fn decoder_is_real_time_on_this_host() {
        // A release-mode claim tested loosely in debug: each 2 s packet
        // must decode in far less than 2 s even unoptimized.
        let config = SystemConfig::paper_default();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        let samples = ecg_like(3, 512);
        let report = run_streaming::<f32, _>(
            &config,
            cb,
            &samples,
            SolverPolicy::default(),
            &cs_telemetry::TelemetryRegistry::disabled(),
            |_| {},
        )
        .unwrap();
        assert!(
            report.real_time,
            "max decode {:?} exceeded period {:?}",
            report.max_decode_time, report.packet_period
        );
    }
}
