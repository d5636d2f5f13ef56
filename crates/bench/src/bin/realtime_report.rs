//! Reproduces **Fig. 8 and §V's CPU-usage numbers**: the end-to-end
//! real-time demo at CR 50 — coordinator CPU usage (paper: 17.7 % average
//! on the iPhone 3GS), node CPU usage (paper: < 5 % on the ShimmerTM) and
//! the real-time verdict for every packet.
//!
//! The decode workload is real (our FISTA on this host); the mapping from
//! solve time to *iPhone* CPU-% uses the coordinator budget model, and
//! the node CPU-% comes from the calibrated MSP430 cycle model.
//!
//! ```text
//! cargo run --release -p cs-bench --bin realtime_report [--full]
//! ```

use cs_bench::{banner, host, RunSettings};
use cs_core::{
    packetize, train_codebook, Decoder, Encoder, SolverPolicy, SystemConfig,
};
use cs_metrics::Summary;
use cs_platform::{
    analyze_solves, encode_cost, encoder_footprint, CoordinatorSpec, MoteSpec, SolveSample,
};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let settings = RunSettings::from_args();
    banner("realtime_report", "Fig. 8 / §V (real-time CPU usage at CR 50)", &settings);
    let corpus = settings.corpus();

    let config = SystemConfig::paper_default();
    let training = corpus
        .records
        .iter()
        .flat_map(|r| packetize(&r.samples, config.packet_len()).take(3))
        .map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(&config, training).expect("training succeeds"));

    let mote = MoteSpec::msp430f1611();
    let coordinator = CoordinatorSpec::iphone_3gs();
    let packet_period = Duration::from_secs(2);

    let mut solves = Vec::new();
    let mut node_util = Summary::new();
    let mut airtime_bits = Summary::new();

    for record in &corpus.records {
        let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).expect("encoder");
        let mut decoder: Decoder<f32> =
            Decoder::new(&config, Arc::clone(&codebook), SolverPolicy::default())
                .expect("decoder");
        for packet in packetize(&record.samples, config.packet_len()) {
            let wire = encoder.encode_packet(packet).expect("encode");
            let cost = encode_cost(&mote, &config, &wire);
            node_util.push(cost.cpu_utilization(&mote, packet_period));
            airtime_bits.push(wire.payload_bits as f64);
            let decoded = decoder.decode_packet(&wire).expect("decode");
            solves.push(SolveSample {
                iterations: decoded.iterations,
                solve_time: decoded.solve_time,
            });
        }
    }

    let report = analyze_solves(&coordinator, &solves);
    let footprint = encoder_footprint(&config, &codebook);

    println!("== Node (ShimmerTM / MSP430 model) ==");
    println!(
        "mean CPU usage          : {:>6.2} %   (paper: < 5 %)",
        node_util.mean() * 100.0
    );
    println!(
        "mean payload            : {:>6.0} bits per 2-s packet",
        airtime_bits.mean()
    );
    println!("{}", footprint.to_table());

    println!("== Coordinator (iPhone-3GS budget model) ==");
    println!(
        "mean CPU usage          : {:>8} %   (paper: 17.7 % at CR 50)",
        host(format!("{:.2}", report.cpu_usage_percent))
    );
    println!(
        "per-iteration time      : {:>8} µs",
        host(format!("{:.3}", report.per_iteration.as_secs_f64() * 1e6))
    );
    println!(
        "iterations in 1-s budget: {:>8}     (paper: 2000 optimized)",
        host(report.max_iterations_in_budget)
    );
    println!(
        "worst packet            : {:>8} % of budget",
        host(format!("{:.1}", report.worst_case_fraction_of_budget * 100.0))
    );
    println!(
        "real-time               : {}        (every packet within budget)",
        report.real_time
    );
}
