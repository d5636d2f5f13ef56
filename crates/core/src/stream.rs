//! Threaded producer–consumer streaming, mirroring the iPhone application
//! structure.
//!
//! The paper's coordinator app runs two threads (§IV-B1): one receives
//! Bluetooth data, decodes it and writes 2-second windows into a shared
//! buffer; the other drains the buffer for display. The buffer holds 6
//! seconds — 2 s being written, 2 s being read, 2 s of display latency.
//! [`run_streaming`] reproduces that structure with real threads and a
//! bounded channel whose capacity is that 6-second / 3-packet budget, and
//! reports whether the decoder kept up with real time. The decoding side
//! is the [`WireCore`] every fleet worker drives.

use crate::config::SystemConfig;
use crate::decoder::{DecodedPacket, SolverPolicy};
use crate::encoder::Encoder;
use crate::error::PipelineError;
use crate::fleet::FleetConfig;
use crate::wire::{Emission, WireCore};
use cs_dsp::Real;
use cs_recovery::SpectralCache;
use std::sync::Arc;
use std::time::Duration;

/// Capacity of the shared buffer in packets: 6 s of ECG at 2 s per packet.
pub const SHARED_BUFFER_PACKETS: usize = 3;

/// Outcome of a streaming run.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Windows delivered to the consumer, decoded or concealed.
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
/// The producer thread plays the mote: it encodes each packet and sends
/// its wire frame into the buffer. The calling thread pushes each frame
/// into a [`WireCore`] and applies `on_packet` to every window the core
/// releases (the display thread's role), in order. A frame the core
/// cannot decode is concealed or quarantined like on any other wire — the
/// window is delivered flagged `concealed` — rather than ending the run.
/// Producer encode stages and consumer decode stages land in
/// `telemetry`'s histograms while the stream runs; pass
/// [`TelemetryRegistry::disabled`] for one atomic load per span.
///
/// [`TelemetryRegistry::disabled`]: cs_telemetry::TelemetryRegistry::disabled
///
/// # Errors
///
/// Propagates encoder errors and a decoder that cannot be constructed.
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
    encoder.set_telemetry(telemetry.clone());
    let cache = SpectralCache::new();
    let fleet = &FleetConfig::default();
    let mut core = WireCore::new(config, codebook, policy, fleet, &cache, telemetry.clone());
    let n = config.packet_len();
    let packet_period = Duration::from_secs_f64(n as f64 / 256.0);

    let (tx, rx) = crossbeam::channel::bounded::<Vec<u8>>(SHARED_BUFFER_PACKETS);

    std::thread::scope(|scope| {
        // Producer: the mote. Encodes packets and pushes their frames into
        // the shared buffer, blocking when the buffer is full
        // (back-pressure — in hardware this would be radio buffering).
        let producer = scope.spawn(move || -> Result<(), PipelineError> {
            for chunk in samples.chunks_exact(n) {
                if tx.send(encoder.encode_packet(chunk)?.to_bytes()).is_err() {
                    break; // consumer hung up after an error
                }
            }
            Ok(())
        });

        // Consumer: the coordinator. Decodes and "displays", in order.
        let mut report = StreamingReport {
            packets_delivered: 0,
            total_decode_time: Duration::ZERO,
            max_decode_time: Duration::ZERO,
            packet_period,
            real_time: true,
        };
        let mut display = |pushed: Result<(), PipelineError>, out: &mut Vec<Emission<T>>| {
            for Emission { packet, .. } in out.drain(..) {
                report.packets_delivered += 1;
                report.total_decode_time += packet.solve_time;
                report.max_decode_time = report.max_decode_time.max(packet.solve_time);
                on_packet(&packet);
            }
            pushed
        };
        // Owning iteration: stopping early drops the buffer's receiving
        // end, so a producer blocked on a full buffer wakes and stops.
        let mut out = Vec::new();
        let consumed = rx
            .into_iter()
            .try_for_each(|frame| display(core.push(0, &frame, 0, &mut out), &mut out))
            .and_then(|()| display(core.flush(0, &mut out), &mut out));
        let produced = producer.join().expect("producer thread panicked");
        consumed?;
        produced?;
        report.real_time = report.max_decode_time <= packet_period;
        Ok(report)
    })
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
