//! Ablation of the sparse-binary column weight `d` (DESIGN.md ✦).
//!
//! §IV-A2: "d = 12 was identified as the minimum value that \[strikes\] the
//! optimal trade-off between execution time (a 2-second vector is now
//! CS-sampled in 82 ms) and (signal) recovery/reconstruction error."
//! This binary sweeps `d` at CR 50 and prints both sides of the trade:
//! recovery SNR saturates around d ≈ 8–16 while the modeled encode time
//! grows linearly in `d` — so 12 sits at the knee.
//!
//! ```text
//! cargo run --release -p cs-bench --bin ablation_d [--full]
//! ```

use cs_bench::{banner, LinearSolver, RunSettings};
use cs_core::{uniform_codebook, Encoder, SystemConfig};
use cs_dsp::wavelet::{Dwt, Wavelet};
use cs_metrics::Summary;
use cs_platform::{encode_cost, MoteSpec};

use cs_sensing::{measurements_for_cr, SparseBinarySensing};
use std::sync::Arc;

const PACKET: usize = 512;
const SEED: u64 = 0xAB1A_7104;

fn main() {
    let settings = RunSettings::from_args();
    banner("ablation_d", "§IV-A2 (d = 12 knee of the time/SNR trade-off)", &settings);
    let corpus = settings.corpus();
    let wavelet = Wavelet::daubechies(4).expect("db4");
    let dwt: Dwt<f64> = Dwt::new(&wavelet, PACKET, 5).expect("plan");
    let mote = MoteSpec::msp430f1611();
    let m = measurements_for_cr(PACKET, 50.0);

    println!(
        "{:>4} {:>12} {:>12} {:>16}",
        "d", "SNR (dB)", "PRD (%)", "CS encode (ms)"
    );
    let mut rows = Vec::new();
    for d in [2usize, 4, 6, 8, 12, 16, 24, 32] {
        let phi = SparseBinarySensing::new(m, PACKET, d, SEED).expect("valid Φ");
        let solver = LinearSolver::new(&phi, &dwt, 0.15);
        let mut snr = Summary::new();
        let mut prd = Summary::new();
        for record in &corpus.records {
            for packet in record.samples.chunks_exact(PACKET) {
                let out = solver.solve(packet);
                if out.snr_db.is_finite() {
                    snr.push(out.snr_db);
                    prd.push(out.prd);
                }
            }
        }
        // Modeled encode time for this d.
        let config = SystemConfig::builder()
            .sparse_ones_per_column(d)
            .seed(SEED)
            .build()
            .expect("valid config");
        let cb = Arc::new(uniform_codebook(512).expect("codebook"));
        let mut enc = Encoder::new(&config, cb).expect("encoder");
        let wire = enc
            .encode_packet(&corpus.records[0].samples[..PACKET])
            .expect("encode");
        let ms = encode_cost(&mote, &config, &wire).cs_cycles / mote.clock_hz * 1e3;
        println!(
            "{:>4} {:>12.2} {:>12.2} {:>16.1}",
            d,
            snr.mean(),
            prd.mean(),
            ms
        );
        rows.push((d, snr.mean(), ms));
    }

    // Knee check: SNR gain from 12 to 32 is small, cost grows ~2.7×.
    let snr12 = rows.iter().find(|r| r.0 == 12).expect("d=12 present").1;
    let snr32 = rows.iter().find(|r| r.0 == 32).expect("d=32 present").1;
    println!();
    println!(
        "# SNR(d=32) − SNR(d=12) = {:.2} dB for 2.7× the encode time — d = 12 is the knee",
        snr32 - snr12
    );
}
