//! Integration tests for the fleet decode engine: bit-exactness against
//! the single-stream pipeline, per-stream ordering, warm-start iteration
//! savings, and failure propagation without deadlock.

use cs_ecg_monitor::prelude::*;
use cs_core::{run_fleet_encoded, ChannelPacket, DecodedPacket, MultiChannelEncoder, PipelineError};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 512;

fn ecg_like(npackets: usize, phase: f64) -> Vec<i16> {
    (0..npackets * N)
        .map(|i| {
            let t = (i % N) as f64 / N as f64;
            (700.0 * (-((t - 0.4 + phase) * 25.0).powi(2)).exp() + 50.0 * (t * 10.0).sin()) as i16
        })
        .collect()
}

fn setup() -> (SystemConfig, Arc<Codebook>) {
    let config = SystemConfig::paper_default();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    (config, codebook)
}

/// Every stream decoded by the fleet must be bit-exact against the same
/// stream pushed through the paper's single-stream `run_streaming`
/// pipeline (warm starts off — that is the documented equivalence).
#[test]
fn fleet_output_bit_exact_vs_run_streaming() {
    let (config, codebook) = setup();
    let inputs: Vec<Vec<i16>> = (0..4).map(|s| ecg_like(3, s as f64 * 0.03)).collect();

    // Reference: one run_streaming per stream.
    let mut reference: Vec<Vec<Vec<f64>>> = Vec::new();
    for input in &inputs {
        let mut packets = Vec::new();
        run_streaming::<f64, _>(
            &config,
            Arc::clone(&codebook),
            input,
            SolverPolicy::default(),
            |p| packets.push(p.samples.clone()),
        )
        .unwrap();
        reference.push(packets);
    }

    // Fleet over the same four streams, two workers.
    let streams: Vec<FleetStream<'_>> =
        inputs.iter().map(|i| FleetStream::single(i)).collect();
    let fleet = FleetConfig { workers: 2, ..FleetConfig::default() };
    let mut fleet_out: Vec<Vec<Vec<f64>>> = vec![Vec::new(); inputs.len()];
    let report = run_fleet::<f64, _>(
        &config,
        codebook,
        &streams,
        SolverPolicy::default(),
        &fleet,
        |p| fleet_out[p.stream].push(p.packet.samples.clone()),
    )
    .unwrap();

    assert_eq!(report.packets_decoded, 12);
    for (stream, (fleet_packets, ref_packets)) in
        fleet_out.iter().zip(&reference).enumerate()
    {
        assert_eq!(fleet_packets.len(), ref_packets.len(), "stream {stream}");
        for (i, (a, b)) in fleet_packets.iter().zip(ref_packets).enumerate() {
            assert_eq!(a, b, "stream {stream} packet {i} not bit-exact");
        }
    }
}

/// Packets must arrive strictly in per-stream, frame-major order even
/// when streams outnumber workers and interleave arbitrarily.
#[test]
fn per_stream_order_is_preserved() {
    let (config, codebook) = setup();
    let inputs: Vec<Vec<i16>> = (0..5).map(|s| ecg_like(3, s as f64 * 0.02)).collect();
    let streams: Vec<FleetStream<'_>> = inputs
        .iter()
        .map(|i| FleetStream { leads: vec![i, i] })
        .collect();
    let fleet = FleetConfig { workers: 2, channel_capacity: 1, ..FleetConfig::default() };
    let mut seen: Vec<Vec<(u64, u8)>> = vec![Vec::new(); inputs.len()];
    let report = run_fleet::<f32, _>(
        &config,
        codebook,
        &streams,
        SolverPolicy::default(),
        &fleet,
        |p| seen[p.stream].push((p.packet.index, p.channel)),
    )
    .unwrap();

    assert_eq!(report.packets_decoded, 5 * 3 * 2);
    let expected: Vec<(u64, u8)> =
        (0..3).flat_map(|f| [(f, 0_u8), (f, 1_u8)]).collect();
    for (stream, order) in seen.iter().enumerate() {
        assert_eq!(order, &expected, "stream {stream} out of order");
    }
    // With tiny queues and more streams than workers, producers must have
    // hit backpressure at least once.
    assert!(report.backpressure_stalls > 0, "expected backpressure stalls");
}

/// Warm starts must reduce the fleet's mean iteration count on two-lead
/// streams (the sibling lead is a near-perfect seed) and must never
/// change the packet count or ordering.
#[test]
fn warm_start_reduces_mean_iterations() {
    let (config, codebook) = setup();
    let inputs: Vec<Vec<i16>> = (0..2).map(|s| ecg_like(3, s as f64 * 0.03)).collect();
    let streams: Vec<FleetStream<'_>> = inputs
        .iter()
        .map(|i| FleetStream { leads: vec![i, i] })
        .collect();

    let run = |warm_start: bool| {
        let fleet = FleetConfig { workers: 1, warm_start, ..FleetConfig::default() };
        let mut iterations = Vec::new();
        let report = run_fleet::<f64, _>(
            &config,
            Arc::clone(&codebook),
            &streams,
            SolverPolicy::default(),
            &fleet,
            |p| iterations.push(p.packet.iterations),
        )
        .unwrap();
        (report, iterations)
    };
    let (cold_report, cold_iters) = run(false);
    let (warm_report, warm_iters) = run(true);

    assert_eq!(cold_iters.len(), warm_iters.len());
    assert_eq!(cold_report.streams[0].warm_started, 0);
    assert!(warm_report.streams[0].warm_started > 0, "no packet warm-started");
    let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len() as f64;
    assert!(
        mean(&warm_iters) < mean(&cold_iters),
        "warm {} >= cold {}",
        mean(&warm_iters),
        mean(&cold_iters)
    );
}

/// A corrupt packet mid-traffic must abort the run with a stream-attributed
/// fleet error — and the run must terminate (no deadlocked producers or
/// workers) even with minimal queue capacity.
#[test]
fn decode_error_propagates_and_run_terminates() {
    let (config, codebook) = setup();
    let mut encoder = MultiChannelEncoder::new(&config, Arc::clone(&codebook), 1).unwrap();
    let samples = ecg_like(4, 0.0);
    let mut packets: Vec<ChannelPacket> = samples
        .chunks_exact(N)
        .map(|chunk| encoder.encode_frame(&[chunk]).unwrap().remove(0))
        .collect();
    // Truncate one payload: parsing runs out of bits and decode errors.
    packets[2].packet.payload.truncate(2);

    let streams = vec![packets.clone(), packets.clone()];
    let fleet = FleetConfig { workers: 2, channel_capacity: 1, ..FleetConfig::default() };
    let err = run_fleet_encoded::<f32, _>(
        &config,
        codebook,
        &streams,
        SolverPolicy::default(),
        &fleet,
        |_| {},
    )
    .unwrap_err();
    match err {
        PipelineError::Fleet { stream, cause } => {
            assert!(stream.is_some(), "error must carry stream attribution");
            assert!(!cause.is_empty());
        }
        other => panic!("expected Fleet error, got {other}"),
    }
}

/// Deterministic replay: the encoded-traffic path and the raw-samples
/// path must produce identical reconstructions.
#[test]
fn encoded_path_matches_raw_path() {
    let (config, codebook) = setup();
    let samples = ecg_like(2, 0.0);
    let mut encoder = MultiChannelEncoder::new(&config, Arc::clone(&codebook), 1).unwrap();
    let packets: Vec<ChannelPacket> = samples
        .chunks_exact(N)
        .map(|chunk| encoder.encode_frame(&[chunk]).unwrap().remove(0))
        .collect();

    let fleet = FleetConfig { workers: 1, ..FleetConfig::default() };

    let mut raw_out: Vec<DecodedPacket<f64>> = Vec::new();
    let streams = [FleetStream::single(&samples)];
    run_fleet::<f64, _>(
        &config,
        Arc::clone(&codebook),
        &streams,
        SolverPolicy::default(),
        &fleet,
        |p| raw_out.push(p.packet.clone()),
    )
    .unwrap();

    let mut enc_out: Vec<DecodedPacket<f64>> = Vec::new();
    run_fleet_encoded::<f64, _>(
        &config,
        codebook,
        &[packets],
        SolverPolicy::default(),
        &fleet,
        |p| enc_out.push(p.packet.clone()),
    )
    .unwrap();

    assert_eq!(raw_out.len(), enc_out.len());
    for (a, b) in raw_out.iter().zip(&enc_out) {
        assert_eq!(a.samples, b.samples);
    }
}

/// The fleet report's aggregate accounting must be consistent with its
/// per-stream summaries.
#[test]
fn report_accounting_is_consistent() {
    let (config, codebook) = setup();
    let inputs: Vec<Vec<i16>> = (0..3).map(|s| ecg_like(2, s as f64 * 0.01)).collect();
    let streams: Vec<FleetStream<'_>> =
        inputs.iter().map(|i| FleetStream::single(i)).collect();
    let fleet = FleetConfig { workers: 3, ..FleetConfig::default() };
    let report = run_fleet::<f32, _>(
        &config,
        codebook,
        &streams,
        SolverPolicy::default(),
        &fleet,
        |_| {},
    )
    .unwrap();

    let per_stream: usize = report.streams.iter().map(|s| s.packets).sum();
    assert_eq!(per_stream, report.packets_decoded);
    let per_worker: usize = report.worker_packets.iter().sum();
    assert_eq!(per_worker, report.packets_decoded);
    // Stream affinity: equal-length streams split evenly over the workers.
    assert_eq!(report.worker_packets, [2, 2, 2]);
    let stream_total: Duration = report.streams.iter().map(|s| s.total_decode_time).sum();
    assert_eq!(stream_total, report.total_decode_time);
    assert!(report.packet_period == Duration::from_secs(2));
    assert_eq!(report.spectral_misses, 1);
    assert_eq!(report.spectral_hits as usize, inputs.len() - 1);
}
