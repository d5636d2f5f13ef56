//! End-to-end observability: the pipelines must populate a live
//! telemetry registry with exactly one span per stage per packet,
//! per-worker counters that sum to the packet count, and a solve trace per
//! decode — while changing nothing about the reconstruction itself.

use cs_ecg_monitor::prelude::*;
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

    // Trace context rode every packet: the collector fed the SLO engine
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
    let line = registry.json_line();
    assert!(line.contains("\"stages\"") && !line.contains('\n'));
    assert!(line.contains("\"slo\":[") && line.contains("\"health\":\"healthy\""));
}

/// Observation must not perturb the numbers: the observed stream decode
/// is bit-exact against the unobserved default path.
#[test]
fn observation_does_not_change_reconstruction() {
    let (config, codebook) = setup();
    let samples = ecg_like(3, 0.0);

    let mut plain = Vec::new();
    run_streaming::<f64, _>(
        &config,
        Arc::clone(&codebook),
        &samples,
        SolverPolicy::default(),
        &TelemetryRegistry::disabled(),
        |p| plain.push(p.samples.clone()),
    )
    .unwrap();

    let registry = TelemetryRegistry::new();
    let mut observed = Vec::new();
    run_streaming::<f64, _>(
        &config,
        codebook,
        &samples,
        SolverPolicy::default(),
        &registry,
        |p| observed.push(p.samples.clone()),
    )
    .unwrap();

    assert_eq!(plain, observed);
    assert_eq!(
        registry.snapshot().stage(Stage::FistaSolve).count(),
        3,
        "three packets solved under observation"
    );
}

/// The process-wide disabled registry must stay empty no matter how
/// much traffic passes through it.
#[test]
fn disabled_registry_records_nothing() {
    let (config, codebook) = setup();
    let samples = ecg_like(2, 0.01);
    let disabled = TelemetryRegistry::disabled();
    run_streaming::<f32, _>(&config, codebook, &samples, SolverPolicy::default(), &disabled, |_| {})
        .unwrap();

    assert!(!disabled.is_enabled());
    let snapshot = disabled.snapshot();
    for stage in Stage::ALL {
        assert_eq!(snapshot.stage(stage).count(), 0);
    }
    assert_eq!(snapshot.journal_pushed, 0);
    assert_eq!(snapshot.worker_packets.iter().sum::<u64>(), 0);
}
