//! Cross-implementation equivalence tests: every fast path in the
//! workspace has a slow, obviously-correct counterpart, and these tests
//! pin them together.

use cs_ecg_monitor::system::{DecodedPacket, Schedule, StopRule};
use cs_ecg_monitor::dsp::wavelet::{Dwt, Wavelet};
use cs_ecg_monitor::prelude::*;
use cs_ecg_monitor::recovery::DenseOperator;
use cs_ecg_monitor::sensing::MotePrng;
use proptest::prelude::*;

/// The matrix-free periodized DWT must agree with an explicitly
/// materialized orthogonal matrix.
#[test]
fn dwt_matches_materialized_matrix() {
    let n = 64;
    let wavelet = Wavelet::daubechies(3).unwrap();
    let dwt: Dwt<f64> = Dwt::new(&wavelet, n, 3).unwrap();

    // Materialize W row by row: row k = analyze(e_k)ᵀ ... actually
    // column k of the analysis matrix is analyze(e_k).
    let mut w = vec![vec![0.0_f64; n]; n];
    for j in 0..n {
        let mut e = vec![0.0; n];
        e[j] = 1.0;
        let col = dwt.analyze(&e);
        for i in 0..n {
            w[i][j] = col[i];
        }
    }

    // 1. The matrix is orthogonal: WᵀW = I.
    for a in 0..n {
        for b in 0..n {
            let dot: f64 = (0..n).map(|i| w[i][a] * w[i][b]).sum();
            let expect = if a == b { 1.0 } else { 0.0 };
            assert!((dot - expect).abs() < 1e-10, "WᵀW[{a}][{b}] = {dot}");
        }
    }

    // 2. Dense multiply equals the fast transform on random input.
    let mut rng = MotePrng::new(42);
    let x: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
    let fast = dwt.analyze(&x);
    for i in 0..n {
        let dense: f64 = (0..n).map(|j| w[i][j] * x[j]).sum();
        assert!((dense - fast[i]).abs() < 1e-10);
    }

    // 3. Synthesis equals the transpose multiply.
    let c: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
    let slow_synth: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| w[j][i] * c[j]).sum())
        .collect();
    let fast_synth = dwt.synthesize(&c);
    for i in 0..n {
        assert!((slow_synth[i] - fast_synth[i]).abs() < 1e-10);
    }
}

/// The sparse binary apply must agree with its dense materialization, and
/// the adjoint must be the exact transpose.
#[test]
fn sparse_sensing_matches_dense_transpose() {
    let phi = SparseBinarySensing::new(48, 96, 6, 9).unwrap();
    let dense: Vec<f64> = Sensing::<f64>::to_dense(&phi);
    let mut rng = MotePrng::new(7);
    let x: Vec<f64> = (0..96).map(|_| rng.next_gaussian()).collect();
    let y: Vec<f64> = phi.apply(x.as_slice());
    for i in 0..48 {
        let manual: f64 = (0..96).map(|j| dense[i * 96 + j] * x[j]).sum();
        assert!((manual - y[i]).abs() < 1e-12);
    }
    let r: Vec<f64> = (0..48).map(|_| rng.next_gaussian()).collect();
    let bt: Vec<f64> = phi.adjoint(r.as_slice());
    for j in 0..96 {
        let manual: f64 = (0..48).map(|i| dense[i * 96 + j] * r[i]).sum();
        assert!((manual - bt[j]).abs() < 1e-12);
    }
}

/// Huffman code lengths from package–merge must be *optimal* among all
/// prefix codes for small alphabets — verified against brute force over
/// every admissible length assignment.
#[test]
fn package_merge_is_optimal_for_small_alphabets() {
    // All Kraft-complete length multisets for 4 symbols with cap 16 that
    // are achievable by a prefix code: enumerate lengths 1..=4 per symbol
    // and filter by Kraft equality.
    let count_sets = [
        [100u64, 50, 20, 5],
        [1, 1, 1, 1],
        [1000, 1, 1, 1],
        [7, 7, 6, 1],
    ];
    for counts in count_sets {
        let cb = Codebook::from_counts(&counts, 4).unwrap();
        let cost: u64 = counts
            .iter()
            .zip(cb.lengths())
            .map(|(&c, &l)| c * l as u64)
            .sum();
        // Brute force.
        let mut best = u64::MAX;
        for l0 in 1..=4u8 {
            for l1 in 1..=4u8 {
                for l2 in 1..=4u8 {
                    for l3 in 1..=4u8 {
                        let lens = [l0, l1, l2, l3];
                        let kraft: u64 =
                            lens.iter().map(|&l| 1u64 << (16 - l)).sum();
                        if kraft != 1 << 16 {
                            continue;
                        }
                        let c: u64 = counts
                            .iter()
                            .zip(&lens)
                            .map(|(&cnt, &l)| cnt * l as u64)
                            .sum();
                        best = best.min(c);
                    }
                }
            }
        }
        assert_eq!(cost, best, "suboptimal code for {counts:?}");
    }
}

/// The matrix-free composed operator equals its dense materialization
/// inside the solver: FISTA run on both must produce the same iterates.
#[test]
fn fista_identical_on_matrix_free_and_dense() {
    use cs_ecg_monitor::recovery::{fista, lambda_max, ShrinkageConfig};

    let wavelet = Wavelet::daubechies(4).unwrap();
    let dwt: Dwt<f64> = Dwt::new(&wavelet, 128, 3).unwrap();
    let phi = SparseBinarySensing::new(64, 128, 8, 3).unwrap();
    let op = SynthesisOperator::new(&phi, &dwt);
    let dense = DenseOperator::materialize(&op, KernelMode::Unrolled4);

    let x: Vec<f64> = (0..128)
        .map(|i| (i as f64 * 0.17).sin() * 100.0)
        .collect();
    let y: Vec<f64> = phi.apply(x.as_slice());
    let cfg = ShrinkageConfig {
        lambda: 0.01 * lambda_max(&op, &y),
        max_iterations: 120,
        tolerance: 0.0,
        residual_tolerance: 0.0,
        kernel: KernelMode::Unrolled4,
        record_objective: false,
    };
    // Same explicit Lipschitz constant so the trajectories match exactly.
    let a = fista(&op, &y, &cfg, Some(40.0));
    let b = fista(&dense, &y, &cfg, Some(40.0));
    for (u, v) in a.solution.iter().zip(&b.solution) {
        assert!((u - v).abs() < 1e-7, "{u} vs {v}");
    }
}

/// The streaming FIR filter must agree with batch convolution for every
/// chunking of the same input.
#[test]
fn streaming_fir_chunking_invariance() {
    use cs_ecg_monitor::dsp::fir::{convolve, ConvMode, FirFilter};

    let taps = vec![0.3_f64, -0.2, 0.5, 0.1, -0.05];
    let x: Vec<f64> = (0..200).map(|i| ((i * i) as f64 * 0.013).sin()).collect();
    let reference = convolve(&x, &taps, ConvMode::Full);
    for chunk in [1usize, 3, 7, 50, 200] {
        let mut f = FirFilter::new(taps.clone()).unwrap();
        let mut streamed = Vec::new();
        for c in x.chunks(chunk) {
            streamed.extend(f.process(c));
        }
        for (i, (a, b)) in streamed.iter().zip(&reference).enumerate() {
            assert!((a - b).abs() < 1e-12, "chunk {chunk}, sample {i}");
        }
    }
}

/// Resampling then decimating in a different rational decomposition must
/// agree: 360→256 equals 360→720→256 up to filter transients.
#[test]
fn resampler_composition_consistency() {
    use cs_ecg_monitor::ecg::Resampler;

    let x: Vec<f64> = (0..3600)
        .map(|i| (2.0 * std::f64::consts::PI * 8.0 * i as f64 / 360.0).sin())
        .collect();
    let direct = Resampler::new(256, 360).resample(&x);
    let up = Resampler::new(720, 360).resample(&x);
    let two_step = Resampler::new(256, 720).resample(&up);
    let n = direct.len().min(two_step.len());
    // Compare away from the edges (different transient lengths).
    for i in 200..n - 200 {
        assert!(
            (direct[i] - two_step[i]).abs() < 1e-2,
            "sample {i}: {} vs {}",
            direct[i],
            two_step[i]
        );
    }
}

/// The digest corpus: 34 s of one synthetic record at the mote's rate, as
/// signed ADC counts — 16 full windows and change.
fn digest_corpus() -> Vec<i16> {
    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: 1,
        duration_s: 34.0,
        ..DatabaseConfig::default()
    });
    let record = db.record(0);
    let adc = record.adc();
    resample_360_to_256(&record.signal_mv(0))
        .iter()
        .map(|&v| adc.to_signed(adc.quantize(v)))
        .collect()
}

/// `packets` consecutive windows through one production decoder.
fn decode_windows<T: cs_ecg_monitor::dsp::Real>(
    samples: &[i16],
    policy: SolverPolicy<T>,
    warm_start: bool,
    packets: usize,
) -> Vec<DecodedPacket<T>> {
    decode_windows_at(&SystemConfig::paper_default(), samples, policy, warm_start, packets)
}

/// [`decode_windows`] at any geometry.
fn decode_windows_at<T: cs_ecg_monitor::dsp::Real>(
    config: &SystemConfig,
    samples: &[i16],
    policy: SolverPolicy<T>,
    warm_start: bool,
    packets: usize,
) -> Vec<DecodedPacket<T>> {
    use std::sync::Arc;

    let codebook = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    let mut encoder = Encoder::new(config, Arc::clone(&codebook)).unwrap();
    let mut decoder: Decoder<T> = Decoder::new(config, codebook, policy).unwrap();
    decoder.set_warm_start(warm_start);
    let decoded: Vec<_> = samples
        .chunks_exact(config.packet_len())
        .take(packets)
        .map(|window| decoder.decode_packet(&encoder.encode_packet(window).unwrap()).unwrap())
        .collect();
    assert_eq!(decoded.len(), packets, "corpus shorter than the digest window");
    decoded
}

/// FNV-1a over every reconstructed sample's bits and every iteration
/// count of `packets` consecutive windows through one production decoder.
fn decode_digest<T: cs_ecg_monitor::dsp::Real>(
    samples: &[i16],
    policy: SolverPolicy<T>,
    warm_start: bool,
    packets: usize,
) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for out in decode_windows(samples, policy, warm_start, packets) {
        mix(out.iterations as u64);
        for &v in &out.samples {
            // f32 → f64 is exact, so the widened bits identify the value.
            mix(v.to_f64().to_bits());
        }
    }
    hash
}

/// Golden digests of the production decode. The operator pair (DWT
/// levels, Φ/Φᵀ gathers) and every element-wise kernel may be re-shaped
/// freely, but each output must keep its floating-point operation order,
/// so reconstructed bits and iteration counts may not move — on any host,
/// whichever kernels its CPU selects.
///
/// Pinned four times. First before the operator pair was vectorised
/// across outputs:
///
/// ```text
/// 0xc0f5_fc31_5180_6f3d  0x5da1_f020_0f29_976c  0xa1c6_a0cf_f10d_355f  0xe32e_8c24_c67f_30d0
/// ```
///
/// again when the iteration's reductions went lane-parallel (the stop
/// test's two norms, the deflation projection, the restart product): the
/// three scalars per iteration changed summation order, so the stop
/// decision moves by an iteration on a few packets and the last bits of
/// the samples with it (`scalar_and_optimized_kernels_decode_alike` below
/// is the evidence that nothing else moved):
///
/// ```text
/// 0x9666_f6b0_f9b4_5111  0x193c_3575_e55e_ce2a  0x50ec_d868_429d_9b92  0x164f_f83a_bb31_c31d
/// ```
///
/// and a third time when production moved to the adaptive schedule
/// (gradient restart on every solve, λ-continuation): a different path to
/// the same minimiser, so all four production digests moved —
/// `adaptive_schedule_matches_the_paper_schedule` below bounds by how
/// much. The two `SolverPolicy::paper()` digests are the previous "default
/// cold" constants, unchanged: the verbatim arm did not move a bit. (The
/// previous block + warm constants were restart without continuation,
/// which neither schedule runs any more.)
///
/// The last two — plain ℓ1 with a warm start, the arm
/// `FleetConfig::warm_start` runs — were pinned before the solver's entry
/// points were collapsed to one, so the warm safeguard is covered too.
///
/// A fourth time when the production stop rule became a function of the
/// CR: at the paper geometry (CR 50 %) `default()` and `block_prior()`
/// stop at a relative step of 1.5·10⁻⁴ where they stopped at 5·10⁻⁵ — the
/// same iterates, ended earlier (`the_stop_rule_only_moves_the_stopping_point`
/// below), and under an explicit `StopRule::RelativeStep(5e-5)` the six
/// still decode to the previous constants:
///
/// ```text
/// 0xc17e_574d_2408_667f  0x388b_6275_fbd2_1e65  0x2510_75d6_7cd9_9c1e  0x88d1_1d32_ebaa_8f8e
/// 0x6316_6301_7ade_661f  0x0856_36c7_807b_9177   (ℓ1 + warm, f32 and f64)
/// ```
///
/// The two `SolverPolicy::paper()` digests did not move then either.
#[test]
fn production_decode_matches_the_golden_digest() {
    let samples = digest_corpus();
    let got = [
        decode_digest::<f32>(&samples, SolverPolicy::default(), false, 16),
        decode_digest::<f32>(&samples, SolverPolicy::block_prior(), true, 16),
        decode_digest::<f64>(&samples, SolverPolicy::default(), false, 16),
        decode_digest::<f64>(&samples, SolverPolicy::block_prior(), true, 16),
        decode_digest::<f32>(&samples, SolverPolicy::paper(), false, 16),
        decode_digest::<f64>(&samples, SolverPolicy::paper(), false, 16),
        decode_digest::<f32>(&samples, SolverPolicy::default(), true, 16),
        decode_digest::<f64>(&samples, SolverPolicy::default(), true, 16),
    ];
    let golden = [
        0x9c5d_e8d8_4bd3_53d1_u64,
        0x681c_7e17_bb4b_c298,
        0x750b_e749_d5b6_7aec,
        0x494e_a22b_ba75_bfa7,
        0x9666_f6b0_f9b4_5111,
        0x50ec_d868_429d_9b92,
        0x8167_8495_488a_c6f6,
        0xd50e_1b55_1e16_203c,
    ];
    assert_eq!(
        got.map(|h| format!("{h:#018x}")),
        golden.map(|h| format!("{h:#018x}")),
        "decode digests [f32 cold, f32 block+warm, f64 cold, f64 block+warm, \
         f32 paper cold, f64 paper cold, f32 l1+warm, f64 l1+warm]"
    );
}

/// 34 s riddled with PVCs (wide, high-amplitude ectopic beats): the
/// morphology the sinus digest corpus does not have.
fn pvc_corpus() -> Vec<i16> {
    let mut arrhythmic = EcgModelConfig::default();
    arrhythmic.rhythm.pvc_probability = 0.45;
    let (signal, beats) = EcgModel::new(arrhythmic, 0xC5ED).synthesize(34.0);
    assert!(beats.iter().filter(|b| b.beat == BeatType::Pvc).count() >= 10);
    resample_360_to_256(&signal).iter().map(|&v| (v * 400.0) as i16).collect()
}

/// PRD of one decoded packet against the window it encodes.
fn packet_prd<T: cs_ecg_monitor::dsp::Real>(window: &[i16], out: &DecodedPacket<T>) -> f64 {
    let original: Vec<f64> = window.iter().map(|&v| f64::from(v)).collect();
    let decoded: Vec<f64> = out.samples.iter().map(|v| v.to_f64()).collect();
    prd(&original, &decoded)
}

/// What the schedule may cost and must buy in one cell of the grid below.
#[derive(Clone, Copy)]
struct ScheduleGates {
    /// Production iterations over the verbatim arm's, at most.
    iteration_share: f64,
    /// Relative mean-PRD drift allowed (or 0.05 points, whichever is more).
    mean_prd_drift: f64,
}

/// The rule: plain cold pays at most 0.5 of the verbatim iterations up
/// to CR 50 %, where production stops at 1.5·10⁻⁴ (measured 0.33–0.45),
/// and 0.6 above, where it stops at the verbatim arm's own 5·10⁻⁵ (0.37–
/// 0.56); block prior + warm start at most 0.45 of the same prior under
/// the paper's schedule, which has no restart (measured 0.26–0.39); and
/// the mean PRD of the sixteen packets stays within max(0.05 points, 1 %)
/// of the verbatim arm's (measured ≤ 0.6 % in 17 of the 22 cells, ≤ 0.023
/// points in two more at CR 30 %, 0.83 % in another).
const COLD: ScheduleGates = ScheduleGates { iteration_share: 0.5, mean_prd_drift: 0.01 };
const BLOCK_WARM: ScheduleGates = ScheduleGates { iteration_share: 0.45, mean_prd_drift: 0.01 };

/// The rule at one cell, and the two cells that miss it, each held to its
/// own measured figure instead of loosening the rule for the other
/// twenty. (A third, CR 30 % sinus cold at 0.625 of the verbatim
/// iterations, stopped being one when the stop rule was calibrated: 0.449.)
fn schedule_gates(record: &str, cr: f64, cold: bool) -> ScheduleGates {
    let rule = match cold {
        true if cr > 50.0 => ScheduleGates { iteration_share: 0.6, ..COLD },
        true => COLD,
        false => BLOCK_WARM,
    };
    match (record, cold) {
        // 7.644 vs 7.561 % mean PRD, +1.09 % (+0.083 points).
        ("sinus", true) if cr == 80.0 => ScheduleGates { mean_prd_drift: 0.012, ..rule },
        // 6.806 vs 6.896 %, −1.30 % (−0.089 points): production the lower.
        ("pvc", false) if cr == 75.0 => ScheduleGates { mean_prd_drift: 0.014, ..rule },
        _ => rule,
    }
}

/// The CRs of the differential grids below.
const CR_SWEEP: [f64; 5] = [30.0, 50.0, 62.5, 75.0, 80.0];

/// What production decodes a grid cell with: plain ℓ1 (run from a cold
/// start) or the block prior (run warm-started), on the adaptive schedule
/// under the calibrated stop rule.
fn production_policy<T: cs_ecg_monitor::dsp::Real>(cold: bool) -> SolverPolicy<T> {
    let policy = if cold { SolverPolicy::default() } else { SolverPolicy::block_prior() };
    assert_eq!((policy.schedule, policy.tolerance), (Schedule::Adaptive, StopRule::Calibrated));
    policy
}

/// One cell of the schedule differential: the same 16 packets through
/// production — the adaptive schedule, stopped where
/// `StopRule::Calibrated` says for the cell's CR — and through
/// `SolverPolicy::paper()` with the same prior: the verbatim schedule
/// stopped at an explicit 5·10⁻⁵, whatever production carries. Plain ℓ1
/// from a cold start (`cold`), or the block prior warm-started. The two
/// are differently-converged iterates of one flat objective, so they
/// differ — by about 1 % of PRD on the mean packet and up to ~11 % on the
/// worst — but not systematically: the mean PRD may drift and the
/// iterations must fall as `gates` says, a single packet may move by
/// max(0.3 points, 12 %), every packet must converge, and no cold packet
/// may take more iterations than verbatim.
fn schedules_decode_alike<T: cs_ecg_monitor::dsp::Real>(
    label: &str,
    config: &SystemConfig,
    samples: &[i16],
    cold: bool,
    gates: ScheduleGates,
) {
    let policy = production_policy::<T>(cold);
    let paper = SolverPolicy { prior: policy.prior, ..SolverPolicy::paper() };
    assert_eq!(paper.tolerance, StopRule::RelativeStep(T::from_f64(5e-5)));
    let fast = decode_windows_at(config, samples, policy, !cold, 16);
    let slow = decode_windows_at(config, samples, paper, !cold, 16);
    let (mut prd_fast_sum, mut prd_slow_sum) = (0.0, 0.0);
    let (mut it_fast, mut it_slow) = (0, 0);
    let windows = samples.chunks_exact(config.packet_len());
    for (k, ((fast, slow), window)) in fast.iter().zip(&slow).zip(windows).enumerate() {
        let (prd_fast, prd_slow) = (packet_prd(window, fast), packet_prd(window, slow));
        assert!(
            (prd_fast - prd_slow).abs() <= (0.12 * prd_slow).max(0.3),
            "{label} packet {k}: PRD {prd_fast:.4} % adaptive vs {prd_slow:.4} % paper"
        );
        assert!(fast.converged && slow.converged, "{label} packet {k}: not converged");
        assert!(
            !cold || fast.iterations <= slow.iterations,
            "{label} packet {k}: {} iterations adaptive vs {} paper",
            fast.iterations,
            slow.iterations
        );
        prd_fast_sum += prd_fast;
        prd_slow_sum += prd_slow;
        it_fast += fast.iterations;
        it_slow += slow.iterations;
    }
    let (prd_fast, prd_slow) = (prd_fast_sum / 16.0, prd_slow_sum / 16.0);
    assert!(
        (prd_fast - prd_slow).abs() <= (gates.mean_prd_drift * prd_slow).max(0.05),
        "{label}: mean PRD {prd_fast:.4} % adaptive vs {prd_slow:.4} % paper"
    );
    assert!(
        it_fast as f64 <= gates.iteration_share * it_slow as f64,
        "{label}: {it_fast} iterations adaptive vs {it_slow} paper (share {})",
        gates.iteration_share
    );
}

/// [`schedules_decode_alike`] for the production `f32` decoder at CR
/// 30–80 % on one record, plain cold and block prior + warm start.
fn schedules_decode_alike_across_the_cr_sweep(record: &str, samples: &[i16]) {
    for cr in CR_SWEEP {
        let config = SystemConfig::builder().compression_ratio(cr).build().unwrap();
        for cold in [true, false] {
            let label = format!("f32 CR {cr} {record} {}", if cold { "cold" } else { "block+warm" });
            schedules_decode_alike::<f32>(&label, &config, samples, cold, schedule_gates(record, cr, cold));
        }
    }
}

/// The schedule may change the path, never the answer: the production
/// decode against `SolverPolicy::paper()` on the digest's sinus record, at
/// the reference precision at the paper geometry and across the CR sweep
/// at the production one.
#[test]
fn adaptive_schedule_matches_the_paper_schedule() {
    let sinus = digest_corpus();
    let config = SystemConfig::paper_default();
    schedules_decode_alike::<f64>("f64 cold", &config, &sinus, true, COLD);
    schedules_decode_alike::<f64>("f64 block+warm", &config, &sinus, false, BLOCK_WARM);
    schedules_decode_alike_across_the_cr_sweep("sinus", &sinus);
}

/// The same sweep on a PVC-laden record (its own test: the two halves of
/// the grid run side by side).
#[test]
fn adaptive_schedule_matches_the_paper_schedule_on_pvcs() {
    schedules_decode_alike_across_the_cr_sweep("pvc", &pvc_corpus());
}

/// The grid's other axis: the production `f32` decode against the `f64`
/// reference under the same policy and the calibrated stop rule, at CR
/// 30–80 % on one record, plain cold and block prior + warm start. The
/// two precisions walk the same iterates to within rounding and part
/// only where one stops an iteration before the other, so the mean PRD of
/// the sixteen packets must agree within max(0.001 points, 0.05 %) in
/// every cell (measured ≤ 0.005 % in 19 of the 20, 0.022 % — 0.0015
/// points — at CR 75 % PVC block + warm), and every packet must converge
/// at both widths.
fn precisions_decode_alike_across_the_cr_sweep(record: &str, samples: &[i16]) {
    for cr in CR_SWEEP {
        let config = SystemConfig::builder().compression_ratio(cr).build().unwrap();
        for cold in [true, false] {
            let label = format!("CR {cr} {record} {}", if cold { "cold" } else { "block+warm" });
            let production = decode_windows_at(&config, samples, production_policy::<f32>(cold), !cold, 16);
            let reference = decode_windows_at(&config, samples, production_policy::<f64>(cold), !cold, 16);
            let (mut prd32, mut prd64) = (0.0, 0.0);
            let windows = samples.chunks_exact(config.packet_len());
            for (k, ((p, r), window)) in production.iter().zip(&reference).zip(windows).enumerate() {
                assert!(p.converged && r.converged, "{label} packet {k}: not converged");
                prd32 += packet_prd(window, p) / 16.0;
                prd64 += packet_prd(window, r) / 16.0;
            }
            assert!(
                (prd32 - prd64).abs() <= (5e-4 * prd64).max(0.001),
                "{label}: mean PRD {prd32:.4} % f32 vs {prd64:.4} % f64"
            );
        }
    }
}

#[test]
fn f32_production_matches_the_f64_reference_across_the_cr_sweep() {
    precisions_decode_alike_across_the_cr_sweep("sinus", &digest_corpus());
}

#[test]
fn f32_production_matches_the_f64_reference_across_the_cr_sweep_on_pvcs() {
    precisions_decode_alike_across_the_cr_sweep("pvc", &pvc_corpus());
}

/// The stop rule only moves the stopping point. On every packet of the
/// digest corpus, for tolerances `tight < loose`: the loose solve takes no
/// more iterations than the tight one from the same start, and its output
/// is, bit for bit, the same walk cut at the loose solve's count with the
/// stop test off. That is what makes the stop-rule panel monotone in the
/// tolerance and a re-pinned digest explainable: same iterates, ended
/// earlier. (Every packet is a reference — interval 1 — so a one-shot
/// decoder can replay any packet from the stream decoder's seed.)
fn stop_rule_only_moves_the_stopping_point<T: cs_ecg_monitor::dsp::Real>(
    base: SolverPolicy<T>,
    warm_start: bool,
) {
    use cs_ecg_monitor::recovery::SpectralCache;
    use std::sync::Arc;

    let config = SystemConfig::builder().reference_interval(1).build().unwrap();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    let cache = SpectralCache::new();
    let decoder = |policy: SolverPolicy<T>| {
        let mut decoder = Decoder::with_cache(&config, Arc::clone(&codebook), policy, &cache).unwrap();
        decoder.set_warm_start(warm_start);
        decoder
    };
    let at = |tolerance: f64| SolverPolicy { tolerance: StopRule::RelativeStep(T::from_f64(tolerance)), ..base };
    let bits = |out: &DecodedPacket<T>| out.samples.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
    let samples = digest_corpus();
    for (tight, loose) in [(5e-5, 1.5e-4), (1.5e-4, 3e-4)] {
        let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).unwrap();
        let mut stream = decoder(at(loose));
        for (k, window) in samples.chunks_exact(config.packet_len()).take(16).enumerate() {
            let wire = encoder.encode_packet(window).unwrap();
            let seed = stream.last_estimate().map(<[T]>::to_vec);
            let loosely = stream.decode_packet(&wire).unwrap();
            let replay = |policy| {
                let mut one_shot = decoder(policy);
                if let Some(seed) = &seed {
                    one_shot.seed(seed);
                }
                one_shot.decode_packet(&wire).unwrap()
            };
            let tightly = replay(at(tight));
            assert_eq!(tightly.warm_started, loosely.warm_started);
            assert!(
                loosely.iterations <= tightly.iterations,
                "packet {k}: {} iterations at {loose:e}, {} at {tight:e}",
                loosely.iterations,
                tightly.iterations
            );
            let cut = replay(SolverPolicy { max_iterations: loosely.iterations, ..at(0.0) });
            assert_eq!(cut.iterations, loosely.iterations);
            assert_eq!(bits(&cut), bits(&loosely), "packet {k}: {tight:e} cut at {loose:e}'s count");
        }
    }
}

#[test]
fn the_stop_rule_only_moves_the_stopping_point() {
    stop_rule_only_moves_the_stopping_point::<f32>(SolverPolicy::default(), false);
    stop_rule_only_moves_the_stopping_point::<f32>(SolverPolicy::block_prior(), true);
    stop_rule_only_moves_the_stopping_point::<f64>(SolverPolicy::default(), false);
    stop_rule_only_moves_the_stopping_point::<f64>(SolverPolicy::block_prior(), true);
}

/// The differential behind the re-pinned digest: the same 16 packets
/// decoded with `KernelMode::Scalar` — strict left-to-right sums, one
/// pass per operation, the paper's unoptimized decoder — and with the
/// optimized kernels must agree per packet to within 0.01 percentage
/// points of PRD, two iterations, and on whether the solve converged.
fn kernels_decode_alike<T: cs_ecg_monitor::dsp::Real>(samples: &[i16], policy: SolverPolicy<T>, warm_start: bool) {
    let n = SystemConfig::paper_default().packet_len();
    let scalar = SolverPolicy { kernel: KernelMode::Scalar, ..policy };
    assert_eq!(policy.kernel, KernelMode::Unrolled4);
    let fast = decode_windows(samples, policy, warm_start, 16);
    let slow = decode_windows(samples, scalar, warm_start, 16);
    for (k, ((fast, slow), window)) in fast.iter().zip(&slow).zip(samples.chunks_exact(n)).enumerate() {
        let (prd_fast, prd_slow) = (packet_prd(window, fast), packet_prd(window, slow));
        assert!(
            (prd_fast - prd_slow).abs() <= 0.01,
            "packet {k}: PRD {prd_fast:.4} % optimized vs {prd_slow:.4} % scalar"
        );
        assert!(
            fast.iterations.abs_diff(slow.iterations) <= 2,
            "packet {k}: {} iterations optimized vs {} scalar",
            fast.iterations,
            slow.iterations
        );
        assert_eq!(fast.converged, slow.converged, "packet {k}: converged");
    }
}

#[test]
fn scalar_and_optimized_kernels_decode_alike() {
    let samples = digest_corpus();
    kernels_decode_alike::<f32>(&samples, SolverPolicy::default(), false);
    kernels_decode_alike::<f32>(&samples, SolverPolicy::block_prior(), true);
    kernels_decode_alike::<f64>(&samples, SolverPolicy::default(), false);
    kernels_decode_alike::<f64>(&samples, SolverPolicy::block_prior(), true);
}

/// Bitwise equality, except that any NaN equals any NaN (an `inf − inf`
/// has no portable payload).
fn same_bits<T: cs_ecg_monitor::dsp::Real>(a: T, b: T) -> bool {
    a.to_f64().to_bits() == b.to_f64().to_bits() || (a.is_nan() && b.is_nan())
}

/// Seeded test vector with signed zeros and subnormals always present and
/// infinities on request, among ordinary magnitudes.
fn awkward_values<T: cs_ecg_monitor::dsp::Real>(len: usize, seed: u64, infinities: bool) -> Vec<T> {
    let mut rng = MotePrng::new(seed);
    (0..len)
        .map(|_| match rng.next_u32() % 16 {
            0 => T::ZERO,
            1 => -T::ZERO,
            2 => T::MIN_POSITIVE * T::HALF,
            3 => -T::MIN_POSITIVE * T::from_f64(0.25),
            4 if infinities => T::INFINITY,
            5 if infinities => -T::INFINITY,
            _ => T::from_f64(rng.next_gaussian() * 40.0),
        })
        .collect()
}

/// One analysis level, one output at a time, taps added in filter order:
/// `a[k] = Σ_j lo[j]·x[(2k + j) mod m]` — the operation order every
/// analysis kernel must reproduce per output.
fn analysis_level_oracle<T: cs_ecg_monitor::dsp::Real>(x: &[T], lo: &[T], hi: &[T]) -> (Vec<T>, Vec<T>) {
    let m = x.len();
    (0..m / 2)
        .map(|k| {
            let (mut a, mut d) = (T::ZERO, T::ZERO);
            for j in 0..lo.len() {
                let xv = x[(2 * k + j) % m];
                a += lo[j] * xv;
                d += hi[j] * xv;
            }
            (a, d)
        })
        .unzip()
}

/// One synthesis level in polyphase form, one output pair at a time:
/// `out[2t + φ] = Σ_p a[t−p]·lo[2p + φ] + d[t−p]·hi[2p + φ]`, taps added
/// in order `p = 0, 1, …` — the per-output order of the synthesis kernel.
fn synthesis_level_oracle<T: cs_ecg_monitor::dsp::Real>(approx: &[T], detail: &[T], lo: &[T], hi: &[T]) -> Vec<T> {
    let half = approx.len();
    let mut out = Vec::with_capacity(2 * half);
    for t in 0..half {
        for phase in 0..2 {
            let mut acc = T::ZERO;
            for p in 0..lo.len() / 2 {
                let k = (t + half * lo.len() - p) % half;
                acc += approx[k] * lo[2 * p + phase] + detail[k] * hi[2 * p + phase];
            }
            out.push(acc);
        }
    }
    out
}

fn level_kernels_match_oracles<T: cs_ecg_monitor::dsp::Real>(
    order: usize,
    symlet: bool,
    m: usize,
    seed: u64,
    infinities: bool,
) -> Result<(), TestCaseError> {
    use cs_ecg_monitor::dsp::wavelet::{dwt_single, idwt_single};

    let wavelet = if symlet { Wavelet::symlet(order.max(2)) } else { Wavelet::daubechies(order) }.unwrap();
    let lo: Vec<T> = wavelet.dec_lo().iter().map(|&v| T::from_f64(v)).collect();
    let hi: Vec<T> = wavelet.dec_hi().iter().map(|&v| T::from_f64(v)).collect();
    let m = m.max(lo.len());
    let x = awkward_values::<T>(m, seed, infinities);

    let (approx, detail) = dwt_single(&x, &wavelet);
    let (approx_ref, detail_ref) = analysis_level_oracle(&x, &lo, &hi);
    for k in 0..m / 2 {
        prop_assert!(same_bits(approx[k], approx_ref[k]), "L={} m={} approx[{}]", lo.len(), m, k);
        prop_assert!(same_bits(detail[k], detail_ref[k]), "L={} m={} detail[{}]", lo.len(), m, k);
    }

    let (a, d) = x.split_at(m / 2);
    let back = idwt_single(a, d, &wavelet);
    let back_ref = synthesis_level_oracle(a, d, &lo, &hi);
    for i in 0..m {
        prop_assert!(same_bits(back[i], back_ref[i]), "L={} m={} out[{}]", lo.len(), m, i);
    }
    Ok(())
}

/// `Σ src[idx]` exactly as every gather kernel must add it up per output:
/// quads cycled over four accumulators, `(a0 + a1) + (a2 + a3)`, then the
/// leftovers one by one.
fn gather_sum_oracle<T: cs_ecg_monitor::dsp::Real>(src: &[T], idx: &[u32]) -> T {
    let mut acc = [T::ZERO; 4];
    let quads = idx.len() / 4 * 4;
    for q in idx[..quads].chunks_exact(4) {
        for (a, &i) in acc.iter_mut().zip(q) {
            *a += src[i as usize];
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &i in &idx[quads..] {
        sum += src[i as usize];
    }
    sum
}

fn sparse_products_match_oracle<T: cs_ecg_monitor::dsp::Real>(
    phi: &SparseBinarySensing,
    seed: u64,
    infinities: bool,
) -> Result<(), TestCaseError> {
    let (m, n) = (phi.rows(), phi.cols());
    let scale = T::from_f64(phi.nonzero_value());
    let x = awkward_values::<T>(n, seed, infinities);
    let y = awkward_values::<T>(m, seed ^ 0x5bd1_e995, infinities);

    // Row supports, transposed out of the public column view (columns are
    // visited in order, so each row's list comes out ascending).
    let mut rows = vec![Vec::new(); m];
    for j in 0..n {
        for &i in phi.column_support(j) {
            rows[i as usize].push(j as u32);
        }
    }
    let forward: Vec<T> = phi.apply(x.as_slice());
    for (i, row) in rows.iter().enumerate() {
        let expect = gather_sum_oracle(&x, row) * scale;
        prop_assert!(same_bits(forward[i], expect), "row {} ({} ones): {} vs {}", i, row.len(), forward[i], expect);
    }
    let adjoint: Vec<T> = phi.adjoint(y.as_slice());
    for (j, &got) in adjoint.iter().enumerate() {
        let expect = gather_sum_oracle(&y, phi.column_support(j)) * scale;
        prop_assert!(same_bits(got, expect), "column {}: {} vs {}", j, got, expect);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The across-output DWT level kernels (filter lengths 2–10) keep every
    /// output's operation order: bitwise equal to the one-output-at-a-time
    /// oracles at both precisions, for level sizes from `L` to 1024 —
    /// mostly not multiples of 16 — on inputs with signed zeros,
    /// subnormals and infinities.
    #[test]
    fn dwt_level_kernels_bitwise_match_per_output_oracles(
        order in 1_usize..=5,
        symlet in any::<bool>(),
        half in 1_usize..=512,
        seed in any::<u64>(),
        infinities in any::<bool>(),
    ) {
        level_kernels_match_oracles::<f32>(order, symlet, 2 * half, seed, infinities)?;
        level_kernels_match_oracles::<f64>(order, symlet, 2 * half, seed, infinities)?;
    }

    /// Φ and Φᵀ keep `gather_sum`'s order per output whichever kernel the
    /// CPU selects (the blocked AVX2 gathers for `f32` where available,
    /// the portable loops otherwise and for `f64`), across geometries that
    /// straddle every blocking edge — `d mod 4 ≠ 0`, `n mod 8 ≠ 0`,
    /// `m mod 8 ≠ 0`, empty rows — and the pair stays an exact transpose.
    /// (`cs-sensing`'s own suite calls the AVX2 and the portable kernels
    /// directly; they are not public.)
    #[test]
    fn sparse_gathers_bitwise_match_per_output_oracle(
        seed in any::<u64>(),
        m in 1_usize..150,
        n_extra in 0_usize..150,
        d_pick in 0_usize..6,
        infinities in any::<bool>(),
    ) {
        let n = m + n_extra;
        let d = [1, 2, 3, 7, 12, 13][d_pick].min(m);
        let phi = SparseBinarySensing::new(m, n, d, seed).unwrap();
        sparse_products_match_oracle::<f32>(&phi, seed, infinities)?;
        sparse_products_match_oracle::<f64>(&phi, seed, infinities)?;

        // ⟨Φx, y⟩ = ⟨x, Φᵀy⟩ on finite data, through the f32 kernels.
        let mut rng = MotePrng::new(seed);
        let x: Vec<f32> = (0..n).map(|_| rng.next_gaussian() as f32).collect();
        let y: Vec<f32> = (0..m).map(|_| rng.next_gaussian() as f32).collect();
        let ax: Vec<f32> = phi.apply(x.as_slice());
        let aty: Vec<f32> = phi.adjoint(y.as_slice());
        let lhs: f64 = ax.iter().zip(&y).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum();
        prop_assert!((lhs - rhs).abs() <= 1e-4 * (1.0 + lhs.abs()), "⟨Φx,y⟩={} vs ⟨x,Φᵀy⟩={}", lhs, rhs);
    }
}
