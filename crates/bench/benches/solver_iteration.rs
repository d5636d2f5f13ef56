//! Criterion bench behind Fig. 7's time axis and the matrix-free design
//! decision: the cost of a fixed FISTA budget at CR 50, matrix-free vs
//! dense, f32 vs f64.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cs_dsp::wavelet::{Dwt, Wavelet};
use cs_recovery::{
    dot, fista, fista_prior_warm_ws, fista_tail, lambda_max, squared_distance, DenseOperator,
    FistaWorkspace, KernelMode, ProxSpec, ShrinkageConfig, SynthesisOperator,
};
use cs_sensing::{measurements_for_cr, Sensing, SparseBinarySensing};

const N: usize = 512;
const ITERS: usize = 50;

fn packet() -> Vec<f32> {
    (0..N)
        .map(|i| {
            let t = i as f32 / N as f32;
            800.0 * (-((t - 0.4) * 30.0).powi(2)).exp() + 50.0 * (t * 11.0).sin()
        })
        .collect()
}

fn bench_solver(c: &mut Criterion) {
    let m = measurements_for_cr(N, 50.0);
    let phi = SparseBinarySensing::new(m, N, 12, 3).expect("valid Φ");
    let wavelet = Wavelet::daubechies(4).expect("db4");
    let dwt32: Dwt<f32> = Dwt::new(&wavelet, N, 5).expect("plan");
    let dwt64: Dwt<f64> = Dwt::new(&wavelet, N, 5).expect("plan");

    let x32 = packet();
    let x64: Vec<f64> = x32.iter().map(|&v| v as f64).collect();
    let y32: Vec<f32> = phi.apply(x32.as_slice());
    let y64: Vec<f64> = phi.apply(x64.as_slice());

    let op32 = SynthesisOperator::new(&phi, &dwt32);
    let op64 = SynthesisOperator::new(&phi, &dwt64);
    let dense32 = DenseOperator::materialize(&op32, KernelMode::Unrolled4);

    let cfg32 = ShrinkageConfig {
        lambda: 0.01 * lambda_max(&op32, &y32),
        max_iterations: ITERS,
        tolerance: 0.0,
        residual_tolerance: 0.0,
            kernel: KernelMode::Unrolled4,
        record_objective: false,
    };
    let cfg64 = ShrinkageConfig {
        lambda: 0.01 * lambda_max(&op64, &y64),
        max_iterations: ITERS,
        tolerance: 0.0,
        residual_tolerance: 0.0,
            kernel: KernelMode::Unrolled4,
        record_objective: false,
    };

    let mut group = c.benchmark_group("fista_50_iterations_cr50");
    group.bench_function("matrix_free_f32", |b| {
        b.iter(|| fista(&op32, black_box(&y32), &cfg32, Some(60.0)))
    });
    group.bench_function("matrix_free_f64", |b| {
        b.iter(|| fista(&op64, black_box(&y64), &cfg64, Some(60.0)))
    });
    // Fully pooled path: one FistaWorkspace reused across every solve, the
    // retired solution recycled — the fleet decoder's steady state.
    let mut ws32 = FistaWorkspace::for_operator(&op32);
    group.bench_function("matrix_free_f32_ws", |b| {
        b.iter(|| {
            let r = fista_prior_warm_ws(
                &op32,
                black_box(&y32),
                &cfg32,
                Some(60.0),
                ProxSpec::L1,
                false,
                None,
                None,
                &mut ws32,
            );
            ws32.recycle_solution(r.solution);
            r.residual_norm
        })
    });
    let mut ws64 = FistaWorkspace::for_operator(&op64);
    group.bench_function("matrix_free_f64_ws", |b| {
        b.iter(|| {
            let r = fista_prior_warm_ws(
                &op64,
                black_box(&y64),
                &cfg64,
                Some(60.0),
                ProxSpec::L1,
                false,
                None,
                None,
                &mut ws64,
            );
            ws64.recycle_solution(r.solution);
            r.residual_norm
        })
    });
    group.bench_function("dense_f32", |b| {
        b.iter(|| fista(&dense32, black_box(&y32), &cfg32, Some(60.0)))
    });
    group.finish();
}

/// What surrounds the operator pair in one iteration, at the decoder's
/// working size: the fused tail sweep (plain ℓ1 and the block prior's
/// partition — 16 singletons, then groups of four) and the two reductions
/// it replaced (`dot` is also the deflation projection, at M = 256).
fn bench_iteration_tail(c: &mut Criterion) {
    let coeffs: Vec<f32> = (0..N).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.7).collect();
    let grad: Vec<f32> = (0..N).map(|i| ((i * 61 % 103) as f32 - 51.0) * 0.3).collect();
    let mut groups = vec![1usize; 16];
    groups.extend(std::iter::repeat_n(4, (N - 16) / 4));

    let mut group = c.benchmark_group("fista_tail");
    for (name, prox) in [("l1_512_f32", ProxSpec::L1), ("group_512_f32", ProxSpec::Group(&groups))] {
        let (mut point, mut alpha, mut scratch) = (coeffs.clone(), coeffs.clone(), Vec::new());
        group.bench_function(name, |b| {
            b.iter(|| {
                // β = 0.5 and a step that keeps the iterates bounded: the
                // sweep feeds on its own output like the solver's does.
                fista_tail(
                    black_box(&mut point),
                    black_box(&grad),
                    black_box(&mut alpha),
                    0.01,
                    0.5,
                    prox,
                    0.5,
                    &mut scratch,
                    KernelMode::Unrolled4,
                )
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("reduce");
    group.bench_function("dot_512_f32", |b| {
        b.iter(|| dot(black_box(&coeffs), black_box(&grad), KernelMode::Unrolled4))
    });
    group.bench_function("step_norm_512_f32", |b| {
        b.iter(|| squared_distance(black_box(&coeffs), black_box(&grad), KernelMode::Unrolled4))
    });
    group.finish();
}

criterion_group!(benches, bench_solver, bench_iteration_tail);
criterion_main!(benches);
