//! Reproduces **Fig. 8** ("ECG on the iPhone") as closely as a terminal
//! allows: streams a record through the full system and renders the
//! original and the reconstructed waveform side by side as ASCII traces,
//! with the real-time statistics the paper's screenshot caption reports.
//!
//! ```text
//! cargo run --release -p cs-bench --bin fig8_display
//! ```

use cs_bench::{banner, host, RunSettings};
use cs_core::{
    packetize, train_codebook, Decoder, Encoder, SolverPolicy, SystemConfig,
};
use cs_metrics::prd;
use std::sync::Arc;

const ROWS: usize = 12;
const COLS: usize = 96;

fn main() {
    let settings = RunSettings::from_args();
    banner("fig8_display", "Fig. 8 (the coordinator's live ECG display)", &settings);
    let corpus = cs_bench::Corpus::prepare(1, 12.0);
    let samples = &corpus.records[0].samples;

    let config = SystemConfig::paper_default();
    let training = packetize(samples, 512).take(3).map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(&config, training).expect("training"));
    let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).expect("encoder");
    let mut decoder: Decoder<f32> =
        Decoder::new(&config, codebook, SolverPolicy::default()).expect("decoder");

    // Decode the stream; keep the 3rd packet (a delta) for display.
    let mut shown = None;
    let mut total_prd = 0.0;
    let mut packets = 0;
    for (i, packet) in packetize(samples, 512).enumerate() {
        let wire = encoder.encode_packet(packet).expect("encode");
        let out = decoder.decode_packet(&wire).expect("decode");
        let x: Vec<f64> = packet.iter().map(|&v| v as f64).collect();
        let xhat: Vec<f64> = out.samples.iter().map(|&v| v as f64).collect();
        total_prd += prd(&x, &xhat);
        packets += 1;
        if i == 2 {
            shown = Some((x, xhat, out.iterations, out.solve_time));
        }
    }
    let (x, xhat, iterations, solve_time) = shown.expect("at least three packets");

    println!("original (2-s packet, 512 samples @256 Hz):");
    println!("{}", render(&x));
    println!(
        "reconstructed at CR 50 (FISTA, {iterations} iterations, {} ms):",
        host(format!("{:.2}", solve_time.as_secs_f64() * 1e3))
    );
    println!("{}", render(&xhat));
    println!(
        "packet PRD {:.2} %   stream mean PRD {:.2} % over {packets} packets",
        prd(&x, &xhat),
        total_prd / packets as f64
    );
}

/// Renders a trace as an ROWS×COLS ASCII plot.
fn render(signal: &[f64]) -> String {
    let lo = signal.iter().cloned().fold(f64::MAX, f64::min);
    let hi = signal.iter().cloned().fold(f64::MIN, f64::max);
    let span = (hi - lo).max(1e-9);
    let mut grid = vec![vec![b' '; COLS]; ROWS];
    // Indexed on purpose: each column writes a vertical span across rows.
    #[allow(clippy::needless_range_loop)]
    for col in 0..COLS {
        let start = col * signal.len() / COLS;
        let end = ((col + 1) * signal.len() / COLS).max(start + 1);
        let window = &signal[start..end.min(signal.len())];
        let vmin = window.iter().cloned().fold(f64::MAX, f64::min);
        let vmax = window.iter().cloned().fold(f64::MIN, f64::max);
        let rmin = (((vmin - lo) / span) * (ROWS - 1) as f64).round() as usize;
        let rmax = (((vmax - lo) / span) * (ROWS - 1) as f64).round() as usize;
        for r in rmin..=rmax {
            grid[ROWS - 1 - r][col] = if rmax > rmin { b'|' } else { b'-' };
        }
    }
    grid.into_iter()
        .map(|row| String::from_utf8(row).expect("ascii"))
        .collect::<Vec<_>>()
        .join("\n")
}
