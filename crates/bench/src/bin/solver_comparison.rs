//! Solver design ablation (DESIGN.md ✦): FISTA vs ISTA vs OMP on the
//! same CR 50 packets.
//!
//! The paper picks FISTA over ISTA for its `O(1/k²)` rate and over greedy
//! pursuit for its dense-matrix-free iteration; this binary quantifies
//! both choices on the ECG workload: reconstruction quality at an equal
//! iteration budget for the shrinkage solvers, and wall time for OMP
//! (which needs the materialized operator).
//!
//! A second panel is what the production decoder's stop rule was read
//! off: relative-step tolerance × CR × prior → mean iterations, mean and
//! worst-packet PRD on the production (adaptive) schedule, with the
//! tolerance `StopRule::Calibrated` resolves to marked at each CR.
//!
//! ```text
//! cargo run --release -p cs-bench --bin solver_comparison [--full]
//! ```

use cs_bench::{banner, host, Corpus, RunSettings};
use cs_core::{
    packetize, train_codebook, uniform_codebook, Decoder, Encoder, SolverPolicy, StopRule,
    SystemConfig,
};
use cs_dsp::wavelet::{Dwt, Wavelet};
use cs_metrics::{output_snr, prd, Summary};
use cs_recovery::{
    fista, ista, lambda_max, lipschitz_constant, omp, top_singular_pair, DeflatedOperator,
    DenseOperator, KernelMode, OmpConfig, ShrinkageConfig, SynthesisOperator,
};
use cs_sensing::{measurements_for_cr, Sensing, SparseBinarySensing};
use std::sync::Arc;

const PACKET: usize = 512;
const BUDGET: usize = 60; // tight budget so the O(1/k²) vs O(1/k) gap shows

/// Decodes the whole corpus with the production `f32` decoder under
/// `policy` and returns `(iterations, PRD %)` summaries over its packets.
fn decode_corpus(
    corpus: &Corpus,
    config: &SystemConfig,
    policy: SolverPolicy<f32>,
    warm_start: bool,
) -> (Summary, Summary) {
    let mut iterations = Summary::new();
    let mut prds = Summary::new();
    for record in &corpus.records {
        let training = packetize(&record.samples, PACKET).take(4).map(|p| p.to_vec());
        let codebook = Arc::new(train_codebook(config, training).expect("training succeeds"));
        let mut encoder = Encoder::new(config, Arc::clone(&codebook)).expect("encoder");
        let mut decoder: Decoder<f32> = Decoder::new(config, codebook, policy).expect("decoder");
        decoder.set_warm_start(warm_start);
        for packet in packetize(&record.samples, PACKET) {
            let wire = encoder.encode_packet(packet).expect("encode");
            let decoded = decoder.decode_packet(&wire).expect("decode");
            let x: Vec<f64> = packet.iter().map(|&v| f64::from(v)).collect();
            let xhat: Vec<f64> = decoded.samples.iter().map(|&v| f64::from(v)).collect();
            iterations.push(decoded.iterations as f64);
            prds.push(prd(&x, &xhat));
        }
    }
    (iterations, prds)
}

/// The stop-rule panel: what each relative-step tolerance costs and buys
/// on the production schedule, plain ℓ1 from a cold start and the block
/// prior warm-started, across the CR range. `*` marks the column
/// [`StopRule::Calibrated`] resolves to at that CR — what ships.
fn stop_rule_panel(corpus: &Corpus) {
    const TOLERANCES: [f32; 5] = [5e-5, 1e-4, 1.5e-4, 2e-4, 3e-4];
    println!();
    println!("== Stop rule vs what it buys (production schedule, f32) ==");
    println!("# cell: mean iterations / mean PRD % / worst-packet PRD %; * = shipped at that CR");
    print!("{:<5} {:<11}", "CR", "solve");
    for tolerance in TOLERANCES {
        print!(" {:>24}", format!("tol {tolerance:.1e}"));
    }
    println!();
    for cr in [30.0, 40.0, 50.0, 62.5, 70.0, 75.0, 80.0] {
        let config = SystemConfig::builder()
            .compression_ratio(cr)
            .build()
            .expect("valid config");
        let codebook = Arc::new(uniform_codebook(config.alphabet()).expect("codebook"));
        let shipped: f32 = Decoder::new(&config, codebook, SolverPolicy::default())
            .expect("decoder")
            .tolerance();
        for (name, base, warm_start) in [
            ("plain cold", SolverPolicy::default(), false),
            ("block warm", SolverPolicy::block_prior(), true),
        ] {
            print!("{cr:<5} {name:<11}");
            for tolerance in TOLERANCES {
                let policy = SolverPolicy { tolerance: StopRule::RelativeStep(tolerance), ..base };
                let (iterations, prds) = decode_corpus(corpus, &config, policy, warm_start);
                let mark = if tolerance == shipped { "*" } else { "" };
                print!(
                    " {:>24}",
                    format!("{mark}{:.1} / {:.3} / {:.2}", iterations.mean(), prds.mean(), prds.max())
                );
            }
            println!();
        }
    }
}

fn main() {
    let settings = RunSettings::from_args();
    banner("solver_comparison", "solver design ablation (FISTA vs ISTA vs OMP)", &settings);
    let corpus = settings.corpus();

    let m = measurements_for_cr(PACKET, 50.0);
    let phi = SparseBinarySensing::new(m, PACKET, 12, 0x501B).expect("valid Φ");
    let wavelet = Wavelet::daubechies(4).expect("db4");
    let dwt: Dwt<f64> = Dwt::new(&wavelet, PACKET, 5).expect("plan");
    let op = SynthesisOperator::new(&phi, &dwt);
    let (_, u) = top_singular_pair(&op, 150);
    let defl = DeflatedOperator::with_direction(&op, u, 0.15);
    let lips = lipschitz_constant(&defl, 150);
    let dense = DenseOperator::materialize(&op, KernelMode::Unrolled4);

    let packets: Vec<&[i16]> = corpus
        .records
        .iter()
        .flat_map(|r| r.samples.chunks_exact(PACKET))
        .take(16)
        .collect();

    let mut fista_snr = Summary::new();
    let mut ista_snr = Summary::new();
    let mut omp_snr = Summary::new();
    let mut fista_ms = Summary::new();
    let mut ista_ms = Summary::new();
    let mut omp_ms = Summary::new();

    for p in &packets {
        let x: Vec<f64> = p.iter().map(|&v| v as f64).collect();
        let y: Vec<f64> = phi.apply(x.as_slice());
        let yd = defl.transform_measurements(&y);
        let lam = 0.002 * lambda_max(&defl, &yd);
        let cfg = ShrinkageConfig {
            lambda: lam,
            max_iterations: BUDGET,
            tolerance: 0.0,
            residual_tolerance: 0.0,
            kernel: KernelMode::Unrolled4,
            record_objective: false,
        };

        let rf = fista(&defl, &yd, &cfg, Some(lips));
        let ri = ista(&defl, &yd, &cfg, Some(lips));
        let ro = omp(&dense, &y, &OmpConfig::new(64));

        fista_snr.push(output_snr(&x, &dwt.synthesize(&rf.solution)));
        ista_snr.push(output_snr(&x, &dwt.synthesize(&ri.solution)));
        omp_snr.push(output_snr(&x, &dwt.synthesize(&ro.solution)));
        fista_ms.push(rf.elapsed.as_secs_f64() * 1e3);
        ista_ms.push(ri.elapsed.as_secs_f64() * 1e3);
        omp_ms.push(ro.elapsed.as_secs_f64() * 1e3);
    }

    println!("{:<28} {:>12} {:>14}", "solver", "SNR (dB)", "time (ms/pkt)");
    for (name, snr, ms) in [
        (format!("FISTA ({BUDGET} iters)"), &fista_snr, &fista_ms),
        (format!("ISTA ({BUDGET} iters)"), &ista_snr, &ista_ms),
        ("OMP (greedy, ≤64 atoms)".to_owned(), &omp_snr, &omp_ms),
    ] {
        println!("{name:<28} {:>12.2} {:>14}", snr.mean(), host(format!("{:.3}", ms.mean())));
    }
    println!();
    println!(
        "# FISTA − ISTA at equal budget: {:+.2} dB (acceleration gap, paper's O(1/k²) vs O(1/k))",
        fista_snr.mean() - ista_snr.mean()
    );

    stop_rule_panel(&corpus);
}
