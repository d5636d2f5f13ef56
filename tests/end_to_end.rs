//! Integration tests spanning the whole workspace: synthetic database →
//! resampling → integer encoder → wire format → FISTA decoder → metrics.

use cs_ecg_monitor::prelude::*;
use cs_ecg_monitor::system::{EncodedPacket, PacketKind, StopRule};
use std::sync::Arc;

/// Standard corpus-to-mote preparation used across these tests.
fn prepare(record: &Record) -> Vec<i16> {
    let at_256 = resample_360_to_256(&record.signal_mv(0));
    let adc = record.adc();
    at_256
        .iter()
        .map(|&v| adc.to_signed(adc.quantize(v)))
        .collect()
}

fn corpus(n: usize, secs: f64) -> Vec<Vec<i16>> {
    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: n,
        duration_s: secs,
        ..DatabaseConfig::default()
    });
    db.iter().map(|r| prepare(&r)).collect()
}

#[test]
fn full_system_round_trip_at_paper_defaults() {
    let streams = corpus(2, 16.0);
    let config = SystemConfig::paper_default();
    for samples in &streams {
        let report =
            train_and_evaluate::<f64>(&config, samples, 3, SolverPolicy::default()).unwrap();
        assert!(report.packets.len() >= 7);
        assert!(report.cr.mean() > 35.0, "CR {}", report.cr.mean());
        assert!(report.prd.mean() < 35.0, "PRD {}", report.prd.mean());
        assert!(report.iterations.mean() > 10.0);
    }
}

#[test]
fn wire_format_survives_serialization() {
    let streams = corpus(1, 8.0);
    let config = SystemConfig::paper_default();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).unwrap();
    let mut decoder: Decoder<f64> =
        Decoder::new(&config, Arc::clone(&codebook), SolverPolicy::default()).unwrap();
    let mut decoder_via_bytes: Decoder<f64> =
        Decoder::new(&config, codebook, SolverPolicy::default()).unwrap();

    for packet in packetize(&streams[0], config.packet_len()) {
        let wire = encoder.encode_packet(packet).unwrap();
        let bytes = wire.to_bytes();
        let parsed = EncodedPacket::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, wire);
        let a = decoder.decode_packet(&wire).unwrap();
        let b = decoder_via_bytes.decode_packet(&parsed).unwrap();
        assert_eq!(a.samples, b.samples);
    }
}

#[test]
fn packet_loss_recovers_at_next_reference() {
    let streams = corpus(1, 24.0);
    let config = SystemConfig::builder().reference_interval(4).build().unwrap();
    let training = packetize(&streams[0], 512).take(3).map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(&config, training).unwrap());
    let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).unwrap();
    let mut decoder: Decoder<f64> =
        Decoder::new(&config, codebook, SolverPolicy::default()).unwrap();

    let packets: Vec<_> = packetize(&streams[0], 512).collect();
    let mut decoded_ok = 0;
    let mut rejected = 0;
    for (i, packet) in packets.iter().enumerate() {
        let wire = encoder.encode_packet(packet).unwrap();
        if i == 2 {
            // Simulate losing packet 2 on the air.
            decoder.desynchronize();
            continue;
        }
        match decoder.decode_packet(&wire) {
            Ok(_) => decoded_ok += 1,
            Err(_) => {
                // Deltas after the loss must be rejected, not silently
                // decoded against stale state.
                assert_eq!(wire.kind, PacketKind::Delta);
                rejected += 1;
            }
        }
    }
    assert!(rejected >= 1, "loss should reject at least one delta");
    // Reference at index 4 resynchronizes; everything after decodes.
    assert!(decoded_ok >= packets.len() - 3);
}

#[test]
fn cr_sweep_is_monotone_in_payload() {
    let streams = corpus(1, 16.0);
    let mut last_bits = f64::INFINITY;
    for cr in [30.0, 50.0, 70.0, 85.0] {
        let config = SystemConfig::builder().compression_ratio(cr).build().unwrap();
        let report =
            train_and_evaluate::<f64>(&config, &streams[0], 3, SolverPolicy::default()).unwrap();
        let mean_bits: f64 = report
            .packets
            .iter()
            .map(|p| p.payload_bits as f64)
            .sum::<f64>()
            / report.packets.len() as f64;
        assert!(
            mean_bits < last_bits,
            "payload did not shrink at CR {cr}: {mean_bits} vs {last_bits}"
        );
        last_bits = mean_bits;
    }
}

#[test]
fn two_channels_compress_independently() {
    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: 1,
        duration_s: 12.0,
        ..DatabaseConfig::default()
    });
    let record = db.record(0);
    let config = SystemConfig::paper_default();
    for ch in 0..record.num_channels() {
        let at_256 = resample_360_to_256(&record.signal_mv(ch));
        let adc = record.adc();
        let samples: Vec<i16> = at_256
            .iter()
            .map(|&v| adc.to_signed(adc.quantize(v)))
            .collect();
        let report =
            train_and_evaluate::<f64>(&config, &samples, 2, SolverPolicy::default()).unwrap();
        assert!(
            report.prd.mean() < 40.0,
            "channel {ch} PRD {}",
            report.prd.mean()
        );
    }
}

#[test]
fn solver_policies_trade_quality_for_time() {
    let streams = corpus(1, 12.0);
    let config = SystemConfig::paper_default();
    let fast = SolverPolicy::<f64> {
        max_iterations: 60,
        tolerance: StopRule::RelativeStep(0.0),
        ..SolverPolicy::default()
    };
    let slow = SolverPolicy::<f64> {
        max_iterations: 1500,
        tolerance: StopRule::RelativeStep(1e-6),
        ..SolverPolicy::default()
    };
    let rf = train_and_evaluate::<f64>(&config, &streams[0], 2, fast).unwrap();
    let rs = train_and_evaluate::<f64>(&config, &streams[0], 2, slow).unwrap();
    assert!(
        rs.prd.mean() <= rf.prd.mean() + 0.5,
        "more iterations should not hurt: {} vs {}",
        rs.prd.mean(),
        rf.prd.mean()
    );
    assert!(rs.iterations.mean() > rf.iterations.mean());
}

#[test]
fn seed_mismatch_breaks_reconstruction() {
    // The encoder and decoder must share the sensing seed; with different
    // seeds the decoder sees a different Φ and produces garbage. This is
    // the negative control for the shared-seed design.
    let streams = corpus(1, 8.0);
    let enc_config = SystemConfig::builder().seed(1).build().unwrap();
    let dec_config = SystemConfig::builder().seed(2).build().unwrap();
    let codebook = Arc::new(uniform_codebook(512).unwrap());
    let mut encoder = Encoder::new(&enc_config, Arc::clone(&codebook)).unwrap();
    let mut good: Decoder<f64> =
        Decoder::new(&enc_config, Arc::clone(&codebook), SolverPolicy::default()).unwrap();
    let mut bad: Decoder<f64> =
        Decoder::new(&dec_config, codebook, SolverPolicy::default()).unwrap();

    let packet = &streams[0][..512];
    let x: Vec<f64> = packet.iter().map(|&v| v as f64).collect();
    let wire = encoder.encode_packet(packet).unwrap();
    let ok = good.decode_packet(&wire).unwrap();
    let broken = bad.decode_packet(&wire).unwrap();
    let prd_ok = prd(&x, &ok.samples);
    let prd_bad = prd(&x, &broken.samples);
    assert!(
        prd_bad > prd_ok * 2.0,
        "seed mismatch should degrade badly: {prd_ok} vs {prd_bad}"
    );
}
