//! Criterion bench for the DSP substrate: the wavelet transform that
//! dominates each matrix-free FISTA iteration, and the 360→256 Hz
//! resampler that feeds the mote.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cs_dsp::wavelet::{Dwt, Wavelet};
use cs_ecg_data::Resampler;

fn bench_transforms(c: &mut Criterion) {
    let wavelet = Wavelet::daubechies(4).expect("db4");
    let dwt64: Dwt<f64> = Dwt::new(&wavelet, 512, 5).expect("plan");
    let dwt32: Dwt<f32> = Dwt::new(&wavelet, 512, 5).expect("plan");
    let x64: Vec<f64> = (0..512).map(|i| (i as f64 * 0.11).sin()).collect();
    let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();

    let mut group = c.benchmark_group("dwt_512_db4_5level");
    group.bench_function("analyze_f64", |b| {
        let mut out = vec![0.0_f64; 512];
        b.iter(|| dwt64.analyze_into(black_box(&x64), &mut out))
    });
    group.bench_function("synthesize_f64", |b| {
        let c64 = dwt64.analyze(&x64);
        let mut out = vec![0.0_f64; 512];
        b.iter(|| dwt64.synthesize_into(black_box(&c64), &mut out))
    });
    group.bench_function("analyze_f32", |b| {
        let mut out = vec![0.0_f32; 512];
        b.iter(|| dwt32.analyze_into(black_box(&x32), &mut out))
    });
    group.bench_function("synthesize_f32", |b| {
        let c32 = dwt32.analyze(&x32);
        let mut out = vec![0.0_f32; 512];
        b.iter(|| dwt32.synthesize_into(black_box(&c32), &mut out))
    });
    group.finish();

    let mut group = c.benchmark_group("resample_360_to_256");
    let rs = Resampler::new(256, 360);
    let one_second: Vec<f64> = (0..360).map(|i| (i as f64 * 0.2).sin()).collect();
    let ten_seconds: Vec<f64> = (0..3600).map(|i| (i as f64 * 0.2).sin()).collect();
    group.bench_function("1s_block", |b| b.iter(|| rs.resample(black_box(&one_second))));
    group.bench_function("10s_block", |b| b.iter(|| rs.resample(black_box(&ten_seconds))));
    group.finish();

    c.bench_function("wavelet_construction_db4", |b| {
        b.iter(|| Wavelet::daubechies(black_box(4)).expect("db4"))
    });
}

criterion_group!(benches, bench_transforms);
criterion_main!(benches);
