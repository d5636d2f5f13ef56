//! End-to-end observability: the pipelines must populate a live
//! telemetry registry with exactly one span per stage per packet,
//! per-worker counters that sum to the packet count, and a solve trace per
//! decode — while changing nothing about the reconstruction itself.

use cs_ecg_monitor::dsp::Real;
use cs_ecg_monitor::prelude::*;
use cs_ecg_monitor::system::{DecodeWorkspace, DecodedPacket, FleetPacket};
use std::sync::Arc;

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

/// The paper's coordinator over `samples`: one stream, one worker.
fn coordinator<T: Real>(
    samples: &[i16],
    telemetry: &TelemetryRegistry,
    on_packet: impl FnMut(&FleetPacket<T>) + Send,
) {
    let (config, codebook) = setup();
    let fleet = FleetConfig { workers: 1, ..FleetConfig::default() };
    let streams = [FleetStream::single(samples)];
    run_fleet(
        &config,
        codebook,
        FleetSource::Leads(&streams),
        SolverPolicy::default(),
        &fleet,
        telemetry,
        None,
        on_packet,
    )
    .unwrap();
}

/// A fleet run against a live registry records every pipeline stage the
/// expected number of times and journals one solve trace per packet.
#[test]
fn observed_fleet_populates_every_stage() {
    let (config, codebook) = setup();
    let inputs: Vec<Vec<i16>> = (0..3).map(|s| ecg_like(2, s as f64 * 0.03)).collect();
    let streams: Vec<FleetStream<'_>> =
        inputs.iter().map(|i| FleetStream::single(i)).collect();
    let packets = 6u64; // 3 streams × 2 packets × 1 lead

    let registry = TelemetryRegistry::new();
    let fleet = FleetConfig { workers: 2, ..FleetConfig::default() };
    let report = run_fleet::<f32, _>(
        &config,
        Arc::clone(&codebook),
        FleetSource::Leads(&streams),
        SolverPolicy::default(),
        &fleet,
        &registry,
        None,
        |_| {},
    )
    .unwrap();
    assert_eq!(report.packets_decoded as u64, packets);

    let snapshot = registry.snapshot();
    for stage in Stage::ALL {
        // Concealment only fires on damaged traffic, and the archive
        // stages when a durable sink or replay source is attached. Every
        // other stage — frame validation included: a `Leads` frame crosses
        // the same wire as any other — records once per packet.
        if matches!(stage, Stage::Concealment | Stage::ArchiveAppend | Stage::ArchiveReplay) {
            assert_eq!(snapshot.stage(stage).count(), 0, "stage {stage} on a clean, untapped run");
            continue;
        }
        assert_eq!(
            snapshot.stage(stage).count(),
            packets,
            "stage {stage} should record once per packet"
        );
        assert!(snapshot.stage(stage).quantile(0.50) >= snapshot.stage(stage).min_ns());
        assert!(snapshot.stage(stage).quantile(0.99) <= snapshot.stage(stage).max_ns());
    }

    let per_worker = registry.worker_packets(report.workers);
    assert_eq!(per_worker.iter().sum::<u64>(), packets);

    let traces = registry.journal().drain();
    assert_eq!(traces.len(), packets as usize);
    assert_eq!(registry.journal().pushed(), packets);
    assert_eq!(registry.journal().dropped(), 0);
    for trace in &traces {
        assert!(trace.iterations > 0);
        assert!(trace.solve_ns > 0);
        assert!(trace.residual.is_finite());
        assert!(!trace.warm_started, "cold fleet must not warm-start");
    }

    // Trace context rode every packet: delivery fed the SLO engine
    // one emission per packet, per patient, and the e2e histograms and
    // freshness watermarks are live.
    let slo = registry.slo_snapshot();
    assert_eq!(slo.patients.len(), 3, "one SLO slot per patient");
    for p in &slo.patients {
        assert_eq!(p.emits, 2, "patient {} emissions", p.patient);
        assert_eq!(p.deadline_misses, 0, "in-process decode beats a 2 s deadline");
        assert_eq!(p.health, HealthState::Healthy);
        assert_eq!(p.lanes.len(), 1, "single-lead stream");
        assert_eq!(p.lanes[0].newest_seq, 1, "two packets → newest seq 1");
    }
    assert_eq!(registry.e2e(0).snapshot().count(), 2);

    let scrape = registry.prometheus();
    assert!(scrape.contains("cs_stage_latency_ns_bucket"));
    assert!(scrape.contains("stage=\"fista_solve\""));
    assert!(scrape.contains("stage=\"queue_wait\""));
    assert!(scrape.contains("stage=\"emit_deliver\""));
    assert!(scrape.contains("cs_worker_packets_total"));
    assert!(scrape.contains("cs_e2e_latency_seconds_bucket{patient=\"0\""));
    assert!(scrape.contains("cs_patient_health{patient=\"0\",state=\"healthy\"} 1"));
}

/// Observation must not perturb the numbers: the observed stream decode
/// is bit-exact against the unobserved default path.
#[test]
fn observation_does_not_change_reconstruction() {
    let samples = ecg_like(3, 0.0);

    let mut plain = Vec::new();
    coordinator::<f64>(&samples, &TelemetryRegistry::disabled(), |p| {
        plain.push(p.packet.samples.clone())
    });

    let registry = TelemetryRegistry::new();
    let mut observed = Vec::new();
    coordinator::<f64>(&samples, &registry, |p| observed.push(p.packet.samples.clone()));

    assert_eq!(plain, observed);
    assert_eq!(
        registry.snapshot().stage(Stage::FistaSolve).count(),
        3,
        "three packets solved under observation"
    );
}

/// Stage timings reconcile with the clock: over 200 packets the spans
/// `encode_packet` and `decode_packet_with` record — sensing, diff,
/// Huffman and packetize; Huffman decode, diff decode, solve and synthesis
/// — add up to what a stopwatch around the calls reads, less the little
/// DESIGN §7 names as unattributed. Ratios of sums taken in one run, so
/// the host's speed cancels.
#[test]
fn stage_histograms_account_for_the_calls_that_record_them() {
    let (config, codebook) = setup();
    let registry = TelemetryRegistry::new();
    let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).unwrap();
    encoder.set_telemetry(registry.clone());
    let mut decoder: Decoder<f32> =
        Decoder::new(&config, codebook, SolverPolicy::default()).unwrap();
    decoder.set_telemetry(registry.clone());
    let mut ws = DecodeWorkspace::for_config(&config);
    let mut out = DecodedPacket::default();

    const PACKETS: usize = 200;
    let (mut encode_wall, mut decode_wall) = (0u128, 0u128);
    for k in 0..PACKETS {
        // The beat drifts through the window, so deltas are not all zero.
        let window = ecg_like(1, 0.002 * k as f64);
        let started = std::time::Instant::now();
        let packet = encoder.encode_packet(&window).unwrap();
        let encoded = std::time::Instant::now();
        decoder.decode_packet_with(&packet, &mut ws, &mut out).unwrap();
        encode_wall += (encoded - started).as_nanos();
        decode_wall += encoded.elapsed().as_nanos();
    }

    let snapshot = registry.snapshot();
    let attributed = |stages: [Stage; 4]| -> u128 {
        stages
            .iter()
            .map(|&stage| {
                assert_eq!(snapshot.stage(stage).count(), PACKETS as u64, "stage {stage}");
                u128::from(snapshot.stage(stage).sum_ns())
            })
            .sum()
    };
    let encode = attributed([
        Stage::SensingProjection,
        Stage::DiffEncode,
        Stage::HuffmanEncode,
        Stage::Packetize,
    ]);
    let decode = attributed([
        Stage::HuffmanDecode,
        Stage::DiffDecode,
        Stage::FistaSolve,
        Stage::WaveletSynthesis,
    ]);
    let share = (encode + decode) as f64 / (encode_wall + decode_wall) as f64;
    assert!(
        (0.9..=1.0).contains(&share),
        "the stage histograms hold {share:.3} of the {} ns the calls took",
        encode_wall + decode_wall
    );
    // The solve is nine tenths of the aggregate, so each side also
    // answers for itself. The mote's floor is lower: its four spans'
    // own clock reads and the release of the measurement and difference
    // vectors after the last span are a tenth of a 4 µs encode.
    let encode_share = encode as f64 / encode_wall as f64;
    let decode_share = decode as f64 / decode_wall as f64;
    assert!((0.8..=1.0).contains(&encode_share), "mote stages hold {encode_share:.3}");
    assert!((0.9..=1.0).contains(&decode_share), "decoder stages hold {decode_share:.3}");
}

/// The process-wide disabled registry must stay empty no matter how
/// much traffic passes through it.
#[test]
fn disabled_registry_records_nothing() {
    let samples = ecg_like(2, 0.01);
    let disabled = TelemetryRegistry::disabled();
    coordinator::<f32>(&samples, &disabled, |_| {});

    assert!(!disabled.is_enabled());
    let snapshot = disabled.snapshot();
    for stage in Stage::ALL {
        assert_eq!(snapshot.stage(stage).count(), 0);
    }
    assert_eq!(snapshot.journal_pushed, 0);
    assert_eq!(snapshot.worker_packets.iter().sum::<u64>(), 0);
}
