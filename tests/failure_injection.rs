//! Failure injection: the decoder must degrade with structured errors —
//! never panics, never silently wrong state — under corruption, loss and
//! adversarial inputs.

use cs_ecg_monitor::archive::{Archive, ArchiveConfig, ArchiveSink};
use cs_ecg_monitor::platform::ChannelModel;
use cs_ecg_monitor::prelude::*;
use cs_ecg_monitor::system::{
    parse_frame, EncodedPacket, FaultStats, FrameSink, MultiChannelEncoder, QUARANTINE_LANE,
};
use cs_ecg_monitor::telemetry::{FamilyId, FaultKind, TelemetryRegistry};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};

fn stream(seconds: f64) -> Vec<i16> {
    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: 1,
        duration_s: seconds,
        ..DatabaseConfig::default()
    });
    let record = db.record(0);
    let at_256 = resample_360_to_256(&record.signal_mv(0));
    let adc = record.adc();
    at_256
        .iter()
        .map(|&v| adc.to_signed(adc.quantize(v)))
        .collect()
}

fn pair(config: &SystemConfig) -> (Encoder, Decoder<f32>) {
    let cb = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    (
        Encoder::new(config, Arc::clone(&cb)).unwrap(),
        Decoder::new(config, cb, SolverPolicy::default()).unwrap(),
    )
}

/// Every single-bit flip of a real packet either decodes (payload bits
/// still form valid codes — the differencing bounds the damage) or errors
/// cleanly; the process never panics and never produces non-finite
/// samples.
#[test]
fn exhaustive_single_bit_flips_on_one_packet() {
    let config = SystemConfig::builder().packet_len(256).levels(4).build().unwrap();
    let samples = stream(8.0);
    let (mut enc, _) = pair(&config);
    let wire = enc.encode_packet(&samples[..256]).unwrap();
    let bytes = wire.to_bytes();

    for bit in 0..bytes.len() * 8 {
        let mut corrupted = bytes.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        let Ok(parsed) = EncodedPacket::from_bytes(&corrupted) else {
            continue; // framing rejected it — fine
        };
        // Fresh decoder per flip so state cannot leak between cases.
        let (_, mut dec) = pair(&config);
        if let Ok(out) = dec.decode_packet(&parsed) {
            assert!(
                out.samples.iter().all(|v| v.is_finite()),
                "bit {bit} produced non-finite output"
            );
        }
    }
}

/// Replaying an old packet after newer state is *accepted* by design
/// (delta packets are stateful but self-consistent); what must never
/// happen is an out-of-bounds or panic. Verify a shuffled stream is
/// handled.
#[test]
fn reordered_stream_never_panics() {
    let config = SystemConfig::builder().reference_interval(4).build().unwrap();
    let samples = stream(24.0);
    let (mut enc, mut dec) = pair(&config);
    let wires: Vec<EncodedPacket> = packetize(&samples, 512)
        .map(|p| enc.encode_packet(p).unwrap())
        .collect();
    // Deliver in a fixed adversarial order.
    let order = [3usize, 0, 7, 1, 2, 6, 4, 5, 8, 9];
    for &i in order.iter().filter(|&&i| i < wires.len()) {
        let _ = dec.decode_packet(&wires[i]); // may Err; must not panic
    }
}

/// Sustained loss at a high BER with periodic references: the decoder
/// recovers after every reference and total goodput matches the channel
/// statistics within tolerance.
#[test]
fn goodput_tracks_channel_statistics() {
    let config = SystemConfig::builder().reference_interval(4).build().unwrap();
    let samples = stream(120.0); // 60 packets
    let (mut enc, mut dec) = pair(&config);
    let mut channel = ChannelModel::new(2e-4, 99);

    let mut sent = 0;
    let mut delivered = 0;
    let mut decoded = 0;
    for packet in packetize(&samples, 512) {
        let wire = enc.encode_packet(packet).unwrap();
        sent += 1;
        if !channel.transmit(wire.framed_bytes()) {
            dec.desynchronize();
            continue;
        }
        delivered += 1;
        if dec.decode_packet(&wire).is_ok() {
            decoded += 1;
        }
    }
    assert!(sent >= 55);
    // With reference interval 4, at most 3 delivered deltas are rejected
    // per loss event.
    let dropped = sent - delivered;
    assert!(
        delivered - decoded <= dropped * 3,
        "rejections ({}) exceed the resync bound for {dropped} losses",
        delivered - decoded
    );
    // And after the stream, a fresh reference always restores decode.
    let (mut enc2, _) = pair(&config);
    let wire = enc2.encode_packet(&samples[..512]).unwrap();
    assert!(dec.decode_packet(&wire).is_ok());
}

/// Extreme inputs: rails-saturated ADC codes and alternating full-scale
/// samples survive the full pipeline with finite output.
#[test]
fn full_scale_inputs_survive() {
    let config = SystemConfig::paper_default();
    let (mut enc, mut dec) = pair(&config);
    let rails: Vec<i16> = (0..512)
        .map(|i| if i % 2 == 0 { 1023 } else { -1024 })
        .collect();
    let wire = enc.encode_packet(&rails).unwrap();
    let out = dec.decode_packet(&wire).unwrap();
    assert!(out.samples.iter().all(|v| v.is_finite()));

    let dc: Vec<i16> = vec![1023; 512];
    let wire = enc.encode_packet(&dc).unwrap();
    let out = dec.decode_packet(&wire).unwrap();
    assert!(out.samples.iter().all(|v| v.is_finite()));
}

/// Two-lead wire frames for `streams` synthetic patients, `seconds` of
/// signal each.
fn fleet_traffic(
    config: &SystemConfig,
    streams: usize,
    seconds: f64,
    channels: usize,
) -> Vec<Vec<Vec<u8>>> {
    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: streams,
        duration_s: seconds,
        ..DatabaseConfig::default()
    });
    let cb = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    let n = config.packet_len();
    (0..db.len())
        .map(|i| {
            let record = db.record(i);
            let adc = record.adc();
            let lead = |c: usize| -> Vec<i16> {
                resample_360_to_256(&record.signal_mv(c))
                    .iter()
                    .map(|&v| adc.to_signed(adc.quantize(v)))
                    .collect()
            };
            let (lead0, lead1) = (lead(0), lead(1));
            let mut enc =
                MultiChannelEncoder::new(config, Arc::clone(&cb), channels).unwrap();
            let mut frames = Vec::new();
            for w in 0..lead0.len().min(lead1.len()) / n {
                let leads = [&lead0[w * n..(w + 1) * n], &lead1[w * n..(w + 1) * n]];
                for packet in enc.encode_frame(&leads[..channels]).unwrap() {
                    frames.push(packet.to_bytes());
                }
            }
            frames
        })
        .collect()
}

/// Pushes every stream through its own seeded [`LossyLink`]; returns the
/// mangled traffic and the total frames the links actually delivered.
fn mangle_traffic(clean: &[Vec<Vec<u8>>], spec: FaultSpec, seed: u64) -> (Vec<Vec<Vec<u8>>>, u64) {
    let mut delivered = 0u64;
    let traffic = clean
        .iter()
        .enumerate()
        .map(|(i, frames)| {
            let mut link = LossyLink::new(spec, seed.wrapping_add(i as u64 * 0x9E37));
            let mut out = Vec::new();
            for frame in frames {
                link.offer(frame, &mut out);
            }
            link.flush(&mut out);
            delivered += out.len() as u64;
            out.into_iter().map(|d| d.bytes).collect()
        })
        .collect();
    (traffic, delivered)
}

/// Runs the wire fleet, tapping every frame into `sink` if given, and
/// checks the invariants every chaos test shares: per-lane strictly
/// increasing window indices, emitted == delivered() accounting, and the
/// ingest partition identity. Returns the fault stats and the per-slot
/// outcomes.
fn run_chaos_fleet(
    config: &SystemConfig,
    traffic: &[Vec<Vec<u8>>],
    fleet: &FleetConfig,
    registry: &TelemetryRegistry,
    sink: Option<&Mutex<dyn FrameSink>>,
) -> (FaultStats, Vec<(usize, u8, PacketOutcome)>) {
    let cb = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    let last_index = Mutex::new(HashMap::<(usize, u8), u64>::new());
    let emitted = Mutex::new(Vec::new());
    let report = run_fleet::<f32, _>(
        config,
        cb,
        FleetSource::Frames(traffic),
        SolverPolicy::default(),
        fleet,
        registry,
        sink,
        |p| {
            let mut last = last_index.lock().unwrap();
            if let Some(&prev) = last.get(&(p.stream, p.channel)) {
                assert!(
                    p.packet.index > prev,
                    "stream {} lead {}: window {} after {}",
                    p.stream,
                    p.channel,
                    p.packet.index,
                    prev
                );
            }
            last.insert((p.stream, p.channel), p.packet.index);
            assert_eq!(
                p.packet.concealed,
                !matches!(p.outcome, PacketOutcome::Decoded),
                "concealed flag must match the outcome"
            );
            emitted.lock().unwrap().push((p.stream, p.channel, p.outcome));
        },
    )
    .expect("chaos must degrade, not fail the run");

    let f = report.faults;
    let emitted = emitted.into_inner().unwrap();
    assert_eq!(emitted.len() as u64, f.delivered(), "emission accounting");
    assert_eq!(
        f.frames,
        f.frame_rejects + f.duplicates + f.late + f.decoded + f.concealed_desync + f.quarantined,
        "every ingested frame lands in exactly one bucket: {f:?}"
    );
    (f, emitted)
}

/// Fleet chaos, clean payloads: drops, reordering and duplication only.
/// Nothing is corrupt, so nothing may be rejected or quarantined — every
/// fault is healed (reorder, dup) or concealed (drop), in order.
#[test]
fn fleet_chaos_drops_reorder_duplicates() {
    let config = SystemConfig::paper_default();
    let clean = fleet_traffic(&config, 8, 16.0, 2);
    let spec = FaultSpec {
        drop: 0.08,
        duplicate: 0.03,
        reorder: 0.05,
        truncate: 0.0,
        gilbert_elliott: None,
    };
    let (traffic, link_delivered) = mangle_traffic(&clean, spec, 0xFA11);
    let fleet = FleetConfig { workers: 4, ..FleetConfig::default() };
    let (f, _) =
        run_chaos_fleet(&config, &traffic, &fleet, &TelemetryRegistry::disabled(), None);

    assert_eq!(f.frames, link_delivered);
    assert_eq!(f.frame_rejects, 0, "clean payloads must never be rejected");
    assert_eq!(f.quarantined, 0, "clean payloads must never be quarantined");
    assert!(f.decoded > 0);
    assert!(
        f.concealed_loss > 0,
        "an 8 % drop rate over {link_delivered} frames must conceal something"
    );
}

/// Fleet chaos under the full hostile profile: burst bit errors on top of
/// drops, reordering, duplication and truncation. Corrupt frames must be
/// stopped at the CRC and surface as rejects + concealments — never as
/// panics or out-of-order output.
#[test]
fn fleet_chaos_gilbert_elliott_burst_errors() {
    let config = SystemConfig::paper_default();
    let clean = fleet_traffic(&config, 8, 16.0, 2);
    let spec = FaultSpec {
        drop: 0.05,
        duplicate: 0.01,
        reorder: 0.02,
        truncate: 0.02,
        gilbert_elliott: Some(GilbertElliottParams::for_mean_ber(2e-3)),
    };
    let (traffic, link_delivered) = mangle_traffic(&clean, spec, 0xB52);
    let fleet = FleetConfig { workers: 4, ..FleetConfig::default() };
    let registry = TelemetryRegistry::new();
    let root = std::env::temp_dir().join(format!("cs-chaos-archive-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let sink = Mutex::new(ArchiveSink::create(&root, ArchiveConfig::default()).unwrap());
    let (f, _) = run_chaos_fleet(&config, &traffic, &fleet, &registry, Some(&sink));

    assert_eq!(f.frames, link_delivered);
    assert!(f.frame_rejects > 0, "burst errors at BER 2e-3 must trip the CRC");
    assert!(f.decoded > 0, "most traffic still decodes");
    assert!(f.concealed() > 0);
    // The registry saw the same story the report tells.
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.count(FamilyId::Fault, FaultKind::FrameRejected), f.frame_rejects);
    assert_eq!(snapshot.count(FamilyId::Fault, FaultKind::ConcealedLoss), f.concealed_loss);
    // The write-before-decode tap is lossless under the same traffic.
    sink.into_inner().unwrap().finish().unwrap();
    assert_archive_holds_the_wire(&root, &traffic);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Reopens the archive at `root` and checks that it stores every
/// delivered frame byte for byte: per stream, the arrival order split by
/// destination lane (the parsed lane, or [`QUARANTINE_LANE`] for anything
/// unparseable) is what each lane replays.
fn assert_archive_holds_the_wire(root: &Path, traffic: &[Vec<Vec<u8>>]) {
    let (archive, _) = Archive::open(root).unwrap();
    for (stream, frames) in traffic.iter().enumerate() {
        let mut expect: BTreeMap<u8, Vec<&[u8]>> = BTreeMap::new();
        for bytes in frames {
            let lane = match parse_frame(bytes) {
                Ok((info, _)) => info.lane,
                Err(_) => QUARANTINE_LANE,
            };
            expect.entry(lane).or_default().push(bytes);
        }
        let patient = stream as u32;
        let lanes: Vec<u8> = expect.keys().copied().collect();
        assert_eq!(archive.lanes_of(patient), lanes, "stream {stream}: archived lanes");
        for (lane, want) in expect {
            let got: Vec<Vec<u8>> = archive
                .replay_range(patient, lane, 0..u64::MAX)
                .unwrap()
                .map(|frame| frame.unwrap().bytes)
                .collect();
            assert!(
                got == want,
                "stream {stream} lane {lane}: {} frames archived, {} delivered",
                got.len(),
                want.len()
            );
        }
    }
}

/// A worker panic mid-decode is contained by the supervisor: the packet is
/// quarantined, the worker restarts with a fresh workspace, the lane keeps
/// emitting, and the event is visible in both the report and telemetry.
#[test]
fn worker_panic_recovered_by_supervisor() {
    let config = SystemConfig::paper_default();
    // Two streams on two workers: stream affinity (`worker = stream mod
    // M`) isolates the blast radius to worker 1, and panicking on stream
    // 1's *last* frame makes the run fully deterministic — a mid-stream
    // restart would legitimately desync whatever shares the worker.
    let traffic = fleet_traffic(&config, 2, 8.0, 1);
    let last_seq = traffic[1].len() as u64 - 1; // single lane: frame position == wire seq
    let fleet = FleetConfig {
        workers: 2,
        chaos_panic: Some((1, last_seq)),
        ..FleetConfig::default()
    };
    let registry = TelemetryRegistry::new();
    let (f, emitted) = run_chaos_fleet(&config, &traffic, &fleet, &registry, None);

    assert_eq!(f.worker_restarts, 1);
    assert_eq!(f.quarantined, 1);
    assert_eq!(f.frames, f.decoded + f.quarantined, "clean wire: no other faults");
    // The poisoned slot is emitted as a flagged placeholder on stream 1;
    // everything else decodes untouched.
    let poisoned: Vec<_> = emitted
        .iter()
        .filter(|(s, _, o)| *s == 1 && matches!(o, PacketOutcome::Quarantined))
        .collect();
    assert_eq!(poisoned.len(), 1);
    assert!(emitted
        .iter()
        .all(|(_, _, o)| !matches!(o, PacketOutcome::Concealed(_))));
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.count(FamilyId::Fault, FaultKind::WorkerRestart), 1);
    assert_eq!(snapshot.count(FamilyId::Fault, FaultKind::Quarantined), 1);
}

/// A decoder built with a different reference interval than the encoder
/// still never panics (it may reject or mis-track — configuration
/// mismatch is an operator error the system must survive).
#[test]
fn config_mismatch_is_survivable() {
    let enc_cfg = SystemConfig::builder().reference_interval(4).build().unwrap();
    let dec_cfg = SystemConfig::builder().reference_interval(7).build().unwrap();
    let cb = Arc::new(uniform_codebook(512).unwrap());
    let mut enc = Encoder::new(&enc_cfg, Arc::clone(&cb)).unwrap();
    let mut dec: Decoder<f32> = Decoder::new(&dec_cfg, cb, SolverPolicy::default()).unwrap();
    let samples = stream(16.0);
    for packet in packetize(&samples, 512) {
        let wire = enc.encode_packet(packet).unwrap();
        let _ = dec.decode_packet(&wire);
    }
}
