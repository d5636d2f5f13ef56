//! Reproduces the **§IV-A encoder measurements**: the 82 ms CS-sampling
//! time for a 2-second vector at d = 12, its scaling in `d`, the memory
//! footprint (paper: 6.5 kB RAM / 7.5 kB flash, 1.5 kB codebook), and —
//! as a sanity anchor — the measured host-side encode throughput of the
//! actual integer encoder.
//!
//! ```text
//! cargo run --release -p cs-bench --bin table_encoder [--full]
//! ```

use cs_bench::{banner, host, RunSettings};
use cs_core::{packetize, train_codebook, Encoder, SystemConfig};
use cs_platform::{encode_cost, encoder_footprint, MoteSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let settings = RunSettings::from_args();
    banner("table_encoder", "§IV-A (encode timing and memory footprint)", &settings);
    let corpus = settings.corpus();
    let mote = MoteSpec::msp430f1611();
    let packet_period = Duration::from_secs(2);

    println!("== Modeled MSP430 timing vs column weight d (N = 512, CR 50) ==");
    println!("{:>4} {:>14} {:>14} {:>12}", "d", "CS stage (ms)", "total (ms)", "CPU util %");
    for d in [2usize, 4, 6, 8, 12, 16, 24, 32] {
        let config = SystemConfig::builder()
            .sparse_ones_per_column(d)
            .build()
            .expect("valid config");
        let training = corpus
            .records
            .iter()
            .flat_map(|r| packetize(&r.samples, 512).take(2))
            .map(|p| p.to_vec());
        let codebook = Arc::new(train_codebook(&config, training).expect("training"));
        let mut encoder = Encoder::new(&config, codebook).expect("encoder");
        // Price a representative delta packet.
        let first = &corpus.records[0].samples[..512];
        let second = &corpus.records[0].samples[512..1024];
        let _ = encoder.encode_packet(first).expect("encode");
        let wire = encoder.encode_packet(second).expect("encode");
        let cost = encode_cost(&mote, &config, &wire);
        println!(
            "{:>4} {:>14.1} {:>14.1} {:>12.2}",
            d,
            cost.cs_cycles / mote.clock_hz * 1e3,
            cost.total_cycles() / mote.clock_hz * 1e3,
            cost.cpu_utilization(&mote, packet_period) * 100.0
        );
    }
    println!("# paper anchor: d = 12 CS-samples a 2-s vector in 82 ms");

    let config = SystemConfig::paper_default();
    let training = corpus
        .records
        .iter()
        .flat_map(|r| packetize(&r.samples, 512).take(3))
        .map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(&config, training).expect("training"));

    println!();
    println!("== Encoder memory footprint (paper: 6.5 kB RAM / 7.5 kB flash) ==");
    println!("{}", encoder_footprint(&config, &codebook).to_table());

    // Host-side reality check: the integer encoder itself, measured.
    let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).expect("encoder");
    let mut packets = 0usize;
    let start = Instant::now();
    for record in &corpus.records {
        for packet in packetize(&record.samples, config.packet_len()) {
            let _ = encoder.encode_packet(packet).expect("encode");
            packets += 1;
        }
    }
    let elapsed = start.elapsed();
    println!("== Measured host encode throughput (sanity anchor) ==");
    println!(
        "{packets} packets in {} ms → {} µs/packet",
        host(format!("{:.3}", elapsed.as_secs_f64() * 1e3)),
        host(format!("{:.1}", elapsed.as_secs_f64() * 1e6 / packets.max(1) as f64))
    );
}
