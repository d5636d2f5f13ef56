//! Criterion bench for the fleet decode engine: packets/second for one
//! stream through the paper's coordinator (one worker) vs 2/4/8
//! concurrent streams through the default worker pool. On a multi-core
//! host the fleet figures scale with the worker count; on one core they
//! document the pool's overhead. Every row is one `run_fleet` call, so
//! each includes encoding, framing, the queue hop, frame parse,
//! reassembly and the delivery lock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cs_core::{
    run_fleet, uniform_codebook, FleetConfig, FleetSource, FleetStream,
    SolverPolicy, SystemConfig,
};
use cs_telemetry::TelemetryRegistry;
use std::sync::Arc;

const N: usize = 512;
const FRAMES: usize = 2;

fn ecg_like(phase: f64) -> Vec<i16> {
    (0..FRAMES * N)
        .map(|i| {
            let t = (i % N) as f64 / N as f64;
            (700.0 * (-((t - 0.4 + phase) * 25.0).powi(2)).exp() + 50.0 * (t * 10.0).sin()) as i16
        })
        .collect()
}

fn bench_fleet(c: &mut Criterion) {
    let config = SystemConfig::paper_default();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).expect("codebook"));
    let policy: SolverPolicy<f32> = SolverPolicy::default();
    let telemetry = TelemetryRegistry::disabled();

    let mut group = c.benchmark_group("fleet_throughput");

    group.throughput(Throughput::Elements(FRAMES as u64));
    let single = ecg_like(0.0);
    group.bench_function("single_stream", |b| {
        b.iter(|| {
            run_fleet::<f32, _>(
                &config,
                Arc::clone(&codebook),
                FleetSource::Leads(&[FleetStream::single(&single)]),
                policy,
                &FleetConfig { workers: 1, ..FleetConfig::default() },
                &telemetry,
                None,
                |_| {},
            )
            .expect("coordinator run")
        })
    });

    for &nstreams in &[2usize, 4, 8] {
        let leads: Vec<Vec<i16>> =
            (0..nstreams).map(|s| ecg_like(s as f64 * 0.01)).collect();
        let streams: Vec<FleetStream<'_>> =
            leads.iter().map(|l| FleetStream::single(l)).collect();
        group.throughput(Throughput::Elements((nstreams * FRAMES) as u64));
        group.bench_with_input(BenchmarkId::new("fleet_cold", nstreams), &streams, |b, streams| {
            b.iter(|| {
                run_fleet::<f32, _>(
                    &config,
                    Arc::clone(&codebook),
                    FleetSource::Leads(streams),
                    policy,
                    &FleetConfig::default(),
                    &telemetry,
                    None,
                    |_| {},
                )
                .expect("fleet run")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
