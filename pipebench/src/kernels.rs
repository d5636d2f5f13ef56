//! Kernel micro-timings at the workload's geometry: the inner calls the
//! per-packet rows decompose into, on data from the seeded corpus.
//!
//! Each figure is the 5th percentile of 2 000 repetitions (a repetition is
//! eight back-to-back calls, so the clock read is noise against even the
//! 0.1 µs threshold kernel). The repetitions are taken a hundred at a
//! time between the workload's passes, not in one go: a contention burst
//! lasts seconds, and 2 000 back-to-back repetitions of a 2 µs kernel
//! would all fit inside one. These are properties of the build and the
//! host, not of a workload, and read the same on all four.

use crate::inputs::Inputs;
use crate::stats::{percentile, LOW_PCT};
use crate::workload::{metric, Metric};
use cs_codec::{
    value_to_symbol, BitReader, BitWriter, DiffConfig, DiffDecoder, DiffEncoder, DiffPacket,
};
use cs_dsp::wavelet::{Dwt, Wavelet};
use cs_recovery::{
    group_soft_threshold, soft_threshold, top_singular_pair, DeflatedOperator, KernelMode,
    LinearOperator, SynthesisOperator, Workspace,
};
use cs_sensing::{Sensing, SparseBinarySensing};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per kernel in total, and per round between passes.
pub const REPS: usize = 2000;
pub const ROUND: usize = 100;
const BATCH: u32 = 8;

const NAMES: [&str; 12] = [
    "sensing.apply_f32_us",
    "sensing.adjoint_f32_us",
    "sensing.apply_i32_us",
    "dsp.dwt_analyze_us",
    "dsp.dwt_synthesize_us",
    "recovery.operator_pair_us",
    "recovery.threshold_us",
    "recovery.group_threshold_us",
    "codec.diff_encode_us",
    "codec.huffman_encode_us",
    "codec.huffman_decode_us",
    "codec.diff_decode_us",
];

/// Appends `reps` samples (nanoseconds per call of `f`) to `samples`.
fn sample(samples: &mut Vec<f64>, reps: usize, mut f: impl FnMut()) {
    for _ in 0..reps {
        let started = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        samples.push(started.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
}

/// The kernels' inputs, built once, and the samples taken so far.
pub struct KernelBench {
    phi: SparseBinarySensing,
    dwt: Dwt<f32>,
    codebook: std::sync::Arc<cs_codec::Codebook>,
    /// Top singular direction of `ΦΨᵀ`, for the deflated operator.
    direction: Vec<f32>,
    window: Vec<i16>,
    x: Vec<f32>,
    coeffs: Vec<f32>,
    y: Vec<f32>,
    threshold: f32,
    groups: Vec<usize>,
    /// Second window's measurements, differenced against the first's.
    y1: Vec<i32>,
    primed_encoder: DiffEncoder,
    primed_decoder: DiffDecoder,
    delta: cs_codec::DeltaBlock,
    symbols: Vec<u16>,
    coded: Vec<u8>,
    samples: [Vec<f64>; NAMES.len()],
}

impl KernelBench {
    pub fn new(inputs: &Inputs) -> Result<Self, String> {
        let config = &inputs.config;
        let (n, m) = (config.packet_len(), config.measurements());
        let phi = SparseBinarySensing::new(m, n, config.sparse_ones_per_column(), config.seed())
            .map_err(|e| e.to_string())?;
        let wavelet = Wavelet::new(config.wavelet_family()).map_err(|e| e.to_string())?;
        let dwt = Dwt::<f32>::new(&wavelet, n, config.levels()).map_err(|e| e.to_string())?;

        // A real window, its coefficients and its measurements.
        let window = inputs.window(inputs.ops() / 2).to_vec();
        let x: Vec<f32> = window.iter().map(|&v| f32::from(v)).collect();
        let coeffs = dwt.analyze(&x);
        let mut y = vec![0f32; m];
        Sensing::<f32>::apply_into(&phi, &x, &mut y);
        let peak = coeffs.iter().fold(0f32, |a, &b| a.max(b.abs()));
        let (_, direction) = top_singular_pair(&SynthesisOperator::new(&phi, &dwt), 30);

        // The block prior's partition: singletons over the approximation
        // band, groups of four over every detail band.
        let approx = n >> config.levels();
        let mut groups = vec![1usize; approx];
        groups.extend(std::iter::repeat_n(4, (n - approx) / 4));

        // The codec stages on two consecutive windows of one lane: a
        // reference, then the delta the timings use.
        let lane = &inputs.lanes[0].samples;
        let diff_config = DiffConfig {
            vector_len: m,
            reference_interval: config.reference_interval(),
            alphabet: config.alphabet(),
        };
        let codec = |e: cs_codec::CodecError| e.to_string();
        let y0 = phi.apply_unscaled_i32(&lane[..n]);
        let y1 = phi.apply_unscaled_i32(&lane[n..2 * n]);
        let mut primed_encoder = DiffEncoder::new(diff_config);
        primed_encoder.encode(&y0).map_err(codec)?;
        let DiffPacket::Delta(delta) = primed_encoder.clone().encode(&y1).map_err(codec)? else {
            return Err("second packet of a lane is not a delta".into());
        };
        let symbols: Vec<u16> = delta
            .values
            .iter()
            .map(|&d| value_to_symbol(i32::from(d), config.alphabet()))
            .collect::<Result<_, _>>()
            .map_err(codec)?;
        let mut writer = BitWriter::new();
        inputs
            .codebook
            .encode(&symbols, &mut writer)
            .map_err(codec)?;
        let coded = writer.finish();
        let mut primed_decoder = DiffDecoder::new(diff_config);
        primed_decoder.decode_reference(&y0).map_err(codec)?;
        let mut round_trip = Vec::new();
        inputs
            .codebook
            .decode_into(&mut BitReader::new(&coded), m, &mut round_trip)
            .map_err(codec)?;
        if round_trip != symbols {
            return Err("Huffman round trip changed the symbols".into());
        }

        Ok(KernelBench {
            phi,
            dwt,
            codebook: std::sync::Arc::clone(&inputs.codebook),
            direction,
            window,
            x,
            coeffs,
            y,
            threshold: 0.002 * peak,
            groups,
            y1,
            primed_encoder,
            primed_decoder,
            delta,
            symbols,
            coded,
            samples: std::array::from_fn(|_| Vec::with_capacity(REPS)),
        })
    }

    /// Repetitions taken per kernel so far.
    pub fn taken(&self) -> usize {
        self.samples[0].len()
    }

    /// Takes `reps` more repetitions of every kernel.
    pub fn round(&mut self, reps: usize) {
        let KernelBench {
            phi,
            dwt,
            codebook,
            window,
            x,
            coeffs,
            y,
            groups,
            y1,
            samples,
            ..
        } = self;
        let (n, m) = (x.len(), y.len());
        let t = self.threshold;
        let mut out_n = vec![0f32; n];
        let mut out_m = vec![0f32; m];
        let mut scratch = vec![0f32; n];
        let mut norms = vec![0f32; groups.len()];
        let mut decoded = Vec::with_capacity(m);
        // One FISTA iteration's operator work: A·α then Aᴴ·r on the
        // deflated synthesis operator the decoder solves over.
        let op = SynthesisOperator::new(&*phi, &*dwt);
        let deflated = DeflatedOperator::with_direction_borrowed(&op, &self.direction, 0.15f32);
        let mut ws = Workspace::for_operator(&deflated);
        let [apply, adjoint, apply_i32, analyze, synthesize, pair, threshold, group, diff_enc, huff_enc, huff_dec, diff_dec] =
            samples;

        sample(apply, reps, || {
            Sensing::<f32>::apply_into(&*phi, black_box(x), black_box(&mut out_m))
        });
        sample(adjoint, reps, || {
            Sensing::<f32>::adjoint_into(&*phi, black_box(y), black_box(&mut out_n))
        });
        sample(apply_i32, reps, || {
            black_box(phi.apply_unscaled_i32(black_box(window)));
        });
        sample(analyze, reps, || {
            dwt.analyze_scratch(black_box(x), black_box(&mut out_n), &mut scratch)
        });
        sample(synthesize, reps, || {
            dwt.synthesize_scratch(black_box(coeffs), black_box(&mut out_n), &mut scratch)
        });
        sample(pair, reps, || {
            deflated.apply_into_ws(black_box(coeffs), &mut out_m, &mut ws);
            deflated.adjoint_into_ws(black_box(&out_m), &mut out_n, &mut ws);
        });
        sample(threshold, reps, || {
            soft_threshold(
                black_box(coeffs),
                t,
                black_box(&mut out_n),
                KernelMode::Unrolled4,
            )
        });
        sample(group, reps, || {
            group_soft_threshold(
                black_box(coeffs),
                t,
                groups,
                &mut norms,
                black_box(&mut out_n),
                KernelMode::Unrolled4,
            )
        });
        // The differencing stages are stateful; each call works on a
        // clone primed with the first window (the clone, a 1 KiB copy,
        // is inside the timing).
        sample(diff_enc, reps, || {
            black_box(self.primed_encoder.clone().encode(black_box(y1)).is_ok());
        });
        sample(huff_enc, reps, || {
            let mut w = BitWriter::new();
            black_box(codebook.encode(black_box(&self.symbols), &mut w).is_ok());
            black_box(w.bit_len());
        });
        sample(huff_dec, reps, || {
            let mut r = BitReader::new(black_box(&self.coded));
            black_box(codebook.decode_into(&mut r, m, &mut decoded).is_ok());
        });
        sample(diff_dec, reps, || {
            black_box(
                self.primed_decoder
                    .clone()
                    .decode_delta(self.delta.shift, black_box(&self.delta.values))
                    .is_ok(),
            );
        });
    }

    /// Low-percentile microseconds per call, one row per kernel.
    pub fn metrics(&self) -> Vec<Metric> {
        NAMES
            .iter()
            .zip(&self.samples)
            .map(|(name, samples)| metric(name, percentile(samples, LOW_PCT) / 1e3, "us"))
            .collect()
    }
}
