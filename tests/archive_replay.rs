//! Decode-on-read replay: the archive is a faithful tap of the wire, so
//! replaying a stored session through the fleet decoder must reproduce
//! the live run **bit-for-bit** — same outcomes, same reconstructed
//! samples — and appending must run far ahead of the encode rate.

use cs_ecg_monitor::archive::{Archive, ArchiveConfig, ArchiveSink, ArchiveWriter, FsyncPolicy};
use cs_ecg_monitor::prelude::*;
use cs_ecg_monitor::system::{FrameSink, MultiChannelEncoder};
use cs_ecg_monitor::telemetry::TelemetryRegistry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cs-archive-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two-lead wire frames for `streams` synthetic patients.
fn fleet_traffic(config: &SystemConfig, streams: usize, seconds: f64) -> Vec<Vec<Vec<u8>>> {
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
            let mut enc = MultiChannelEncoder::new(config, Arc::clone(&cb), 2).unwrap();
            let mut frames = Vec::new();
            for w in 0..lead0.len().min(lead1.len()) / n {
                let leads = [&lead0[w * n..(w + 1) * n], &lead1[w * n..(w + 1) * n]];
                for packet in enc.encode_frame(&leads).unwrap() {
                    frames.push(packet.to_bytes());
                }
            }
            frames
        })
        .collect()
}

type Captured = BTreeMap<(usize, u8, u64), (PacketOutcome, Vec<u32>)>;

/// Runs the wire fleet, capturing every emitted window keyed by
/// `(stream, lead, window index)` with samples as exact bit patterns.
fn run_and_capture(
    config: &SystemConfig,
    traffic: &[Vec<Vec<u8>>],
    fleet: &FleetConfig,
    sink: Option<&Mutex<ArchiveSink>>,
) -> Captured {
    let cb = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    let captured = Mutex::new(BTreeMap::new());
    let capture = |p: &cs_ecg_monitor::system::FleetPacket<f32>| {
        let bits: Vec<u32> = p.packet.samples.iter().map(|s| s.to_bits()).collect();
        let prev = captured
            .lock()
            .unwrap()
            .insert((p.stream, p.channel, p.packet.index), (p.outcome, bits));
        assert!(prev.is_none(), "duplicate emission for one window");
    };
    let registry = TelemetryRegistry::disabled();
    run_fleet::<f32, _>(
        config,
        cb,
        FleetSource::Frames(traffic),
        SolverPolicy::default(),
        fleet,
        &registry,
        sink.map(|sink| sink as &Mutex<dyn FrameSink>),
        capture,
    )
    .expect("fleet run failed");
    captured.into_inner().unwrap()
}

/// A fault-free session archived live, then replayed from disk through
/// the same decoder, reproduces the live decoded output bit-for-bit.
#[test]
fn replayed_session_matches_live_decode_bit_for_bit() {
    let config = SystemConfig::paper_default();
    let traffic = fleet_traffic(&config, 3, 12.0);
    let fleet = FleetConfig { workers: 3, ..FleetConfig::default() };

    let root = tmp_root("bitexact");
    let sink = Mutex::new(ArchiveSink::create(&root, ArchiveConfig::default()).unwrap());
    let live = run_and_capture(&config, &traffic, &fleet, Some(&sink));
    sink.into_inner().unwrap().finish().unwrap();

    // The archive holds exactly the bytes that crossed the wire.
    let (archive, recovery) = Archive::open(&root).unwrap();
    assert_eq!(recovery.torn_tails, 0, "clean close must not tear");
    let replay_traffic: Vec<Vec<Vec<u8>>> = (0..traffic.len())
        .map(|p| archive.replay_stream(p as u32).unwrap())
        .collect();
    for (p, frames) in traffic.iter().enumerate() {
        assert_eq!(&replay_traffic[p], frames, "stream {p} replays byte-for-byte");
    }

    // And feeding it back through the decoder reproduces the live run.
    let replayed = run_and_capture(&config, &replay_traffic, &fleet, None);
    assert_eq!(live.len(), replayed.len());
    for (key, (outcome, bits)) in &live {
        let (r_outcome, r_bits) = replayed
            .get(key)
            .unwrap_or_else(|| panic!("replay missing window {key:?}"));
        assert_eq!(outcome, r_outcome, "outcome diverged at {key:?}");
        assert_eq!(bits, r_bits, "samples diverged at {key:?}");
    }

    std::fs::remove_dir_all(&root).unwrap();
}

/// `replay_range` seeks: a mid-session range yields exactly the requested
/// window indices, in order, with the same bytes the encoder produced.
#[test]
fn replay_range_selects_exact_windows() {
    let config = SystemConfig::paper_default();
    let traffic = fleet_traffic(&config, 1, 24.0); // 12 windows × 2 lanes
    let root = tmp_root("range");
    let mut w = ArchiveWriter::create(
        &root,
        ArchiveConfig { index_every: 2, ..ArchiveConfig::default() },
    )
    .unwrap();
    let mut lane0 = Vec::new();
    for frame in &traffic[0] {
        let (info, _) = cs_ecg_monitor::system::parse_frame(frame).unwrap();
        w.append(0, info.lane, info.index, frame).unwrap();
        if info.lane == 0 {
            lane0.push((info.index, frame.clone()));
        }
    }
    w.finish().unwrap();

    let (archive, _) = Archive::open(&root).unwrap();
    let got: Vec<_> = archive
        .replay_range(0, 0, 3..9)
        .unwrap()
        .collect::<std::io::Result<Vec<_>>>()
        .unwrap();
    let want: Vec<_> = lane0.iter().filter(|(s, _)| (3..9).contains(s)).collect();
    assert_eq!(got.len(), want.len());
    for (g, (seq, bytes)) in got.iter().zip(&want) {
        assert_eq!(g.seq, *seq);
        assert_eq!(&g.bytes, bytes);
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// Appending must outpace real time by ≥100×: the paper's mote emits one
/// 512-sample window every 2 s per lead, so archiving 48 windows (96 s of
/// signal) must take under 0.96 s even with periodic fsync.
#[test]
fn append_outpaces_realtime_by_100x() {
    let config = SystemConfig::paper_default();
    let traffic = fleet_traffic(&config, 1, 100.0);
    let frames: Vec<&Vec<u8>> = traffic[0].iter().collect();
    assert!(frames.len() >= 96, "need ≥48 windows × 2 lanes, got {}", frames.len());
    let windows = 48usize;
    let signal_seconds = windows as f64 * config.packet_len() as f64 / 256.0;

    let root = tmp_root("throughput");
    let mut w = ArchiveWriter::create(
        &root,
        ArchiveConfig { fsync: FsyncPolicy::EveryN(8), ..ArchiveConfig::default() },
    )
    .unwrap();
    let start = Instant::now();
    for frame in frames.iter().take(windows * 2) {
        let (info, _) = cs_ecg_monitor::system::parse_frame(frame).unwrap();
        w.append(0, info.lane, info.index, frame).unwrap();
    }
    w.finish().unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        elapsed * 100.0 < signal_seconds,
        "archived {signal_seconds} s of signal in {elapsed} s — under the 100× floor"
    );
    std::fs::remove_dir_all(&root).unwrap();
}
