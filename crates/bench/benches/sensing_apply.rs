//! Criterion bench behind §IV-A2's matrix comparison: the cost of one
//! measurement `y = Φx` under the three Φ implementations the paper
//! evaluated on the mote, plus the pure-integer mote path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cs_sensing::{DenseSensing, Sensing, SparseBinarySensing};

const N: usize = 512;
const M: usize = 256;
const D: usize = 12;

fn bench_sensing(c: &mut Criterion) {
    let sparse = SparseBinarySensing::new(M, N, D, 7).expect("valid Φ");
    let gaussian: DenseSensing<f64> = DenseSensing::gaussian(M, N, 7).expect("valid Φ");
    let quantized: DenseSensing<f64> =
        DenseSensing::quantized_gaussian(M, N, 7).expect("valid Φ");

    let x_f: Vec<f64> = (0..N).map(|i| ((i * 13 % 2047) as f64) - 1024.0).collect();
    let x_i: Vec<i16> = x_f.iter().map(|&v| v as i16).collect();
    // Production decodes in f32, where an AVX2 host takes the blocked
    // gathers; f64 takes the portable loops everywhere.
    let x_f32: Vec<f32> = x_f.iter().map(|&v| v as f32).collect();

    let mut group = c.benchmark_group("sensing_apply_512");
    group.bench_function("sparse_binary_f64", |b| {
        let mut y = vec![0.0_f64; M];
        b.iter(|| sparse.apply_into(black_box(x_f.as_slice()), &mut y))
    });
    group.bench_function("sparse_binary_f32", |b| {
        let mut y = vec![0.0_f32; M];
        b.iter(|| sparse.apply_into(black_box(x_f32.as_slice()), &mut y))
    });
    group.bench_function("sparse_binary_i32_mote_path", |b| {
        b.iter(|| sparse.apply_unscaled_i32(black_box(&x_i)))
    });
    group.bench_function("dense_gaussian_f64", |b| {
        let mut y = vec![0.0_f64; M];
        b.iter(|| gaussian.apply_into(black_box(x_f.as_slice()), &mut y))
    });
    group.bench_function("dense_quantized_gaussian_f64", |b| {
        let mut y = vec![0.0_f64; M];
        b.iter(|| quantized.apply_into(black_box(x_f.as_slice()), &mut y))
    });
    group.finish();

    let mut group = c.benchmark_group("sensing_adjoint_512");
    let y: Vec<f64> = (0..M).map(|i| (i as f64 * 0.3).sin()).collect();
    group.bench_function("sparse_binary_f64", |b| {
        let mut x = vec![0.0_f64; N];
        b.iter(|| sparse.adjoint_into(black_box(y.as_slice()), &mut x))
    });
    group.bench_function("sparse_binary_f32", |b| {
        let y: Vec<f32> = y.iter().map(|&v| v as f32).collect();
        let mut x = vec![0.0_f32; N];
        b.iter(|| sparse.adjoint_into(black_box(y.as_slice()), &mut x))
    });
    group.bench_function("dense_gaussian_f64", |b| {
        let mut x = vec![0.0_f64; N];
        b.iter(|| gaussian.adjoint_into(black_box(y.as_slice()), &mut x))
    });
    group.finish();
}

criterion_group!(benches, bench_sensing);
criterion_main!(benches);
