//! The wire decode core as a function of a seed and a fault schedule.
//!
//! Two streams × two leads of encoder-made frames are mangled frame by
//! frame — dropped, duplicated, overtaken by the next frame, bit-flipped
//! (which the CRC catches), bit-flipped in the payload with the CRC
//! re-sealed (which reaches the decoder), or truncated — and pushed
//! through one [`WireCore`] on the test thread. The core must account for
//! every frame and every window, emit each lane in contiguous wire order,
//! and agree window for window with `run_fleet` over the same traffic at
//! one and at two workers: the fleet is the core behind threads and
//! nothing more.

use cs_ecg_monitor::prelude::*;
use cs_ecg_monitor::recovery::SpectralCache;
use cs_ecg_monitor::system::{
    crc16, ConcealmentReason, DecodedPacket, Emission, FaultStats, MultiChannelEncoder, WireCore,
    HEADER_BYTES, TRAILER_BYTES,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const STREAMS: usize = 2;
const LEADS: usize = 2;
/// Frames per lead: two references (interval 3) and three deltas.
const WINDOWS: usize = 5;

struct Fixture {
    config: SystemConfig,
    codebook: Arc<Codebook>,
    /// Per stream, the clean wire traffic: frame-major, lead-minor.
    clean: Vec<Vec<Vec<u8>>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let config = SystemConfig::builder().reference_interval(3).build().unwrap();
        let n = config.packet_len();
        let db = SyntheticDatabase::new(DatabaseConfig {
            num_records: STREAMS,
            duration_s: (WINDOWS * n) as f64 / 256.0 + 1.0,
            ..DatabaseConfig::default()
        });
        let patients: Vec<Vec<Vec<i16>>> = (0..STREAMS)
            .map(|s| {
                let record = db.record(s);
                let adc = record.adc();
                (0..LEADS)
                    .map(|c| {
                        let at_256 = resample_360_to_256(&record.signal_mv(c));
                        at_256.iter().map(|&v| adc.to_signed(adc.quantize(v))).collect()
                    })
                    .collect()
            })
            .collect();
        // A trained (variable-length) code: a flipped payload bit can then
        // re-split the codewords, which the decoder refuses.
        let training = patients.iter().flatten().flat_map(|lead| packetize(lead, n).map(<[i16]>::to_vec));
        let codebook = Arc::new(train_codebook(&config, training).unwrap());
        let clean = patients
            .iter()
            .map(|leads| {
                let mut encoder =
                    MultiChannelEncoder::new(&config, Arc::clone(&codebook), LEADS).unwrap();
                (0..WINDOWS)
                    .flat_map(|w| {
                        let window: Vec<&[i16]> =
                            leads.iter().map(|lead| &lead[w * n..(w + 1) * n]).collect();
                        encoder.encode_frame(&window).unwrap()
                    })
                    .map(|packet| packet.to_bytes())
                    .collect()
            })
            .collect();
        Fixture { config, codebook, clean }
    })
}

/// A short solve: the properties are about accounting and order, not
/// about how well a window reconstructs.
fn policy() -> SolverPolicy<f32> {
    SolverPolicy { max_iterations: 30, ..SolverPolicy::default() }
}

/// One frame's fate on the link: `op` 0–3 pass, 4 drop, 5 duplicate, 6
/// overtaken by the next frame, 7 bit flip, 8 payload bit flip under a
/// re-sealed CRC, 9 truncate; `arg` picks the bit or the cut.
fn mangle(frames: &[Vec<u8>], schedule: &[(u8, u32)]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut overtaken = None;
    for (frame, &(op, arg)) in frames.iter().zip(schedule) {
        let mut frame = frame.clone();
        let arg = arg as usize;
        match op {
            4 => continue,
            5 => out.push(frame.clone()),
            6 => {
                out.extend(overtaken.replace(frame));
                continue;
            }
            7 => {
                let bit = arg % (8 * frame.len());
                frame[bit / 8] ^= 1 << (bit % 8);
            }
            8 => {
                let body = frame.len() - TRAILER_BYTES;
                let bit = 8 * HEADER_BYTES + arg % (8 * (body - HEADER_BYTES));
                frame[bit / 8] ^= 1 << (bit % 8);
                let crc = crc16(&frame[..body]);
                frame[body..].copy_from_slice(&crc.to_le_bytes());
            }
            9 => frame.truncate(arg % frame.len()),
            _ => {}
        }
        out.push(frame);
        out.extend(overtaken.take());
    }
    out.extend(overtaken);
    out
}

/// What identifies a window: lead, wire sequence, outcome and sample bits.
type Window = (u8, u64, PacketOutcome, Vec<u32>);

fn window(channel: u8, outcome: PacketOutcome, packet: &DecodedPacket<f32>) -> Window {
    (channel, packet.index, outcome, packet.samples.iter().map(|v| v.to_bits()).collect())
}

/// The traffic through one bare core, streams interleaved frame by frame
/// as a shared link would deliver them.
fn through_core(traffic: &[Vec<Vec<u8>>]) -> (Vec<Emission<f32>>, FaultStats) {
    let fx = fixture();
    let cache = SpectralCache::new();
    let telemetry = TelemetryRegistry::disabled();
    let fleet = FleetConfig::default();
    let mut core =
        WireCore::new(&fx.config, Arc::clone(&fx.codebook), policy(), &fleet, &cache, telemetry);
    let mut out = Vec::new();
    let longest = traffic.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..longest {
        for (stream, frames) in traffic.iter().enumerate() {
            if let Some(frame) = frames.get(k) {
                core.push(stream, frame, 0, &mut out).unwrap();
            }
        }
    }
    core.flush(0, &mut out).unwrap();
    (out, core.faults())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_the_core_accounts_for_every_frame_and_the_fleet_agrees(
        schedule in proptest::collection::vec((0_u8..10, any::<u32>()), STREAMS * LEADS * WINDOWS),
    ) {
        let fx = fixture();
        let per_stream = LEADS * WINDOWS;
        let traffic: Vec<Vec<Vec<u8>>> = fx
            .clean
            .iter()
            .zip(schedule.chunks(per_stream))
            .map(|(frames, fates)| mangle(frames, fates))
            .collect();
        let pushed: usize = traffic.iter().map(Vec::len).sum();
        let (emitted, f) = through_core(&traffic);

        // Every frame lands in exactly one bucket, every window in one
        // outcome, and the counts say which.
        prop_assert_eq!(f.frames, pushed as u64);
        prop_assert_eq!(
            f.frames,
            f.frame_rejects + f.duplicates + f.late + f.decoded + f.concealed_desync + f.quarantined,
            "{:?}", f
        );
        prop_assert_eq!(emitted.len() as u64, f.decoded + f.concealed() + f.quarantined);
        let count = |outcome: PacketOutcome| emitted.iter().filter(|e| e.outcome == outcome).count() as u64;
        prop_assert_eq!(count(PacketOutcome::Decoded), f.decoded);
        prop_assert_eq!(count(PacketOutcome::Concealed(ConcealmentReason::Loss)), f.concealed_loss);
        prop_assert_eq!(count(PacketOutcome::Concealed(ConcealmentReason::Desync)), f.concealed_desync);
        prop_assert_eq!(count(PacketOutcome::Quarantined), f.quarantined);
        // A decoded window that did not converge stopped at the policy's
        // iteration cap, and is counted as such.
        let capped = emitted.iter().filter(|e| e.outcome == PacketOutcome::Decoded && !e.packet.converged);
        prop_assert_eq!(capped.count() as u64, f.deadline_degraded);

        // Each lane comes out in contiguous wire order from its first slot.
        let mut expected: Vec<Vec<Window>> = vec![Vec::new(); STREAMS];
        for e in &emitted {
            prop_assert!(usize::from(e.channel) < LEADS, "lane {} was never sent", e.channel);
            prop_assert_eq!(e.packet.concealed, e.outcome != PacketOutcome::Decoded);
            expected[e.stream].push(window(e.channel, e.outcome, &e.packet));
        }
        for (stream, windows) in expected.iter().enumerate() {
            for lead in 0..LEADS as u8 {
                let seqs: Vec<u64> =
                    windows.iter().filter(|w| w.0 == lead).map(|w| w.1).collect();
                let contiguous: Vec<u64> = (0..seqs.len() as u64).collect();
                prop_assert_eq!(seqs, contiguous, "stream {} lead {}", stream, lead);
            }
        }

        // The fleet is the same core behind threads, whatever its width.
        for workers in [1, 2] {
            let mut seen: Vec<Vec<Window>> = vec![Vec::new(); STREAMS];
            let report = run_fleet::<f32, _>(
                &fx.config,
                Arc::clone(&fx.codebook),
                FleetSource::Frames(&traffic),
                policy(),
                &FleetConfig { workers, ..FleetConfig::default() },
                &TelemetryRegistry::disabled(),
                None,
                |p| seen[p.stream].push(window(p.channel, p.outcome, &p.packet)),
            )
            .unwrap();
            prop_assert_eq!(report.faults, f, "{} workers", workers);
            prop_assert!(seen == expected, "{} workers: the fleet's windows differ from the core's", workers);
        }
    }
}
