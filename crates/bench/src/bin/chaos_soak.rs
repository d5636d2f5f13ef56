//! Seeded chaos soak: fleet decode under a hostile wire.
//!
//! Drives the fleet engine ([`run_fleet`] over [`FleetSource::Frames`])
//! with traffic that has been mangled by the
//! [`LossyLink`](cs_platform::LossyLink) fault injector — burst bit
//! errors (Gilbert–Elliott), drops, duplicates, reordering, truncation —
//! and checks the robustness invariants round after round until the time
//! budget is spent:
//!
//! 1. **No panics, no deadlocks.** Every round completes; a worker panic
//!    escaping supervision fails the run. (Deadlock detection is the
//!    caller's job: `scripts/chaos.sh` wraps this binary in `timeout`.)
//! 2. **Exact accounting.** Every ingested frame lands in exactly one
//!    bucket: `frames == rejects + duplicates + late + decoded +
//!    concealed_desync + quarantined`, and every emitted window is
//!    `decoded + concealed + quarantined`.
//! 3. **In-order emission.** Per (stream, lead), window indices are
//!    strictly increasing.
//! 4. **Supervision works.** Round 0 injects a panic into one decode and
//!    requires the supervisor to restart the worker and surface it.
//! 5. **The durable tap is lossless.** Round 0 runs through the
//!    write-before-decode archive sink; after the round the archive is
//!    reopened and every delivered frame — including corrupt ones the
//!    pipeline quarantined — must read back byte-for-byte in arrival
//!    order on its `(stream, lane)` sequence.
//!
//! Any violation prints a diagnostic and exits non-zero.
//!
//! ```text
//! cargo run --release -p cs-bench --bin chaos_soak -- \
//!     [--streams 8] [--workers 4] [--seconds 60] [--seed 7] \
//!     [--ber 1e-3] [--drop 0.05] [--reorder 0.02] [--dup 0.01] \
//!     [--truncate 0.01] [--signal-seconds 16] [--telemetry]
//! ```

use cs_archive::{Archive, ArchiveConfig, ArchiveSink};
use cs_core::{
    parse_frame, run_fleet, uniform_codebook, FleetConfig, FleetReport, FleetSource, FrameSink,
    MultiChannelEncoder, PacketOutcome, SolverPolicy, SystemConfig, QUARANTINE_LANE,
};
use cs_ecg_data::{resample_360_to_256, DatabaseConfig, SyntheticDatabase};
use cs_telemetry::TelemetryRegistry;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Chaos profile and run shape, parsed from argv.
#[derive(Debug, Clone, Copy)]
struct SoakSettings {
    streams: usize,
    workers: usize,
    seconds: f64,
    seed: u64,
    ber: f64,
    drop: f64,
    reorder: f64,
    duplicate: f64,
    truncate: f64,
    signal_seconds: f64,
    telemetry: bool,
}

impl Default for SoakSettings {
    fn default() -> Self {
        SoakSettings {
            streams: 8,
            workers: 4,
            seconds: 60.0,
            seed: 7,
            ber: 1e-3,
            drop: 0.05,
            reorder: 0.02,
            duplicate: 0.01,
            truncate: 0.01,
            signal_seconds: 16.0,
            telemetry: false,
        }
    }
}

impl SoakSettings {
    fn from_args() -> Self {
        let mut s = SoakSettings::default();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match flag.as_str() {
                "--streams" => s.streams = value("--streams").parse().expect("--streams"),
                "--workers" => s.workers = value("--workers").parse().expect("--workers"),
                "--seconds" => s.seconds = value("--seconds").parse().expect("--seconds"),
                "--seed" => s.seed = value("--seed").parse().expect("--seed"),
                "--ber" => s.ber = value("--ber").parse().expect("--ber"),
                "--drop" => s.drop = value("--drop").parse().expect("--drop"),
                "--reorder" => s.reorder = value("--reorder").parse().expect("--reorder"),
                "--dup" => s.duplicate = value("--dup").parse().expect("--dup"),
                "--truncate" => s.truncate = value("--truncate").parse().expect("--truncate"),
                "--signal-seconds" => {
                    s.signal_seconds = value("--signal-seconds").parse().expect("--signal-seconds")
                }
                "--telemetry" => s.telemetry = true,
                other => panic!("unknown flag {other}; see the module doc for usage"),
            }
        }
        assert!(s.streams > 0, "--streams must be positive");
        s
    }

    fn fault_spec(&self) -> cs_platform::FaultSpec {
        cs_platform::FaultSpec {
            drop: self.drop,
            duplicate: self.duplicate,
            reorder: self.reorder,
            truncate: self.truncate,
            gilbert_elliott: (self.ber > 0.0)
                .then(|| cs_platform::GilbertElliottParams::for_mean_ber(self.ber)),
        }
    }
}

/// Clean two-lead wire frames for one stream.
fn stream_frames(config: &SystemConfig, samples0: &[i16], samples1: &[i16]) -> Vec<Vec<u8>> {
    let cb = Arc::new(uniform_codebook(config.alphabet()).expect("codebook"));
    let mut enc = MultiChannelEncoder::new(config, cb, 2).expect("encoder");
    let n = config.packet_len();
    let windows = samples0.len().min(samples1.len()) / n;
    let mut frames = Vec::with_capacity(windows * 2);
    for w in 0..windows {
        let leads = [&samples0[w * n..(w + 1) * n], &samples1[w * n..(w + 1) * n]];
        for packet in enc.encode_frame(&leads).expect("encode") {
            frames.push(packet.to_bytes());
        }
    }
    frames
}

/// One stream's mangled traffic plus the link's ground truth.
struct MangledStream {
    deliveries: Vec<Vec<u8>>,
    stats: cs_platform::LinkStats,
    /// Wire sequence number of the first intact delivery, if any — the
    /// chaos-panic target must be a frame that actually arrives.
    first_intact_seq: Option<u64>,
}

fn mangle(clean: &[Vec<u8>], spec: cs_platform::FaultSpec, seed: u64) -> MangledStream {
    let mut link = cs_platform::LossyLink::new(spec, seed);
    let mut out = Vec::new();
    for frame in clean {
        link.offer(frame, &mut out);
    }
    link.flush(&mut out);
    let first_intact_seq = out.iter().find(|d| d.intact).and_then(|d| {
        parse_frame(&d.bytes).ok().map(|(info, _)| info.index)
    });
    MangledStream {
        deliveries: out.into_iter().map(|d| d.bytes).collect(),
        stats: link.stats(),
        first_intact_seq,
    }
}

/// Reopens the round's archive and checks that every delivered frame is
/// stored byte-for-byte: per stream, the arrival order partitioned by
/// destination lane (parsed lane for intact frames, [`QUARANTINE_LANE`]
/// for anything unparseable) must equal what each lane replays. Returns
/// the number of frames verified.
fn verify_archive_round_trip(root: &Path, traffic: &[Vec<Vec<u8>>]) -> Result<u64, String> {
    let (archive, _) = Archive::open(root).map_err(|e| format!("archive reopen failed: {e}"))?;
    let mut verified = 0u64;
    for (stream, frames) in traffic.iter().enumerate() {
        let mut expect: BTreeMap<u8, Vec<&[u8]>> = BTreeMap::new();
        for bytes in frames {
            let lane = match parse_frame(bytes) {
                Ok((info, _)) if info.lane != QUARANTINE_LANE => info.lane,
                _ => QUARANTINE_LANE,
            };
            expect.entry(lane).or_default().push(bytes);
        }
        let patient = stream as u32;
        let lanes = archive.lanes_of(patient);
        if lanes != expect.keys().copied().collect::<Vec<u8>>() {
            return Err(format!(
                "stream {stream}: archived lanes {lanes:?} != delivered lanes {:?}",
                expect.keys().collect::<Vec<_>>()
            ));
        }
        for (lane, want) in expect {
            let got: Vec<_> = archive
                .replay_range(patient, lane, 0..u64::MAX)
                .and_then(|r| r.collect::<std::io::Result<Vec<_>>>())
                .map_err(|e| format!("stream {stream} lane {lane}: replay failed: {e}"))?;
            if got.len() != want.len() {
                return Err(format!(
                    "stream {stream} lane {lane}: archived {} frames, link delivered {}",
                    got.len(),
                    want.len()
                ));
            }
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                if g.bytes != **w {
                    return Err(format!(
                        "stream {stream} lane {lane} frame {i}: archived bytes differ from wire"
                    ));
                }
                verified += 1;
            }
        }
    }
    Ok(verified)
}

/// A single soak round; returns the violation message on failure.
#[allow(clippy::too_many_lines)]
fn round(
    config: &SystemConfig,
    patients: &[(Vec<i16>, Vec<i16>)],
    settings: &SoakSettings,
    registry: &TelemetryRegistry,
    round_seed: u64,
    inject_panic: bool,
) -> Result<(FleetReport, cs_platform::LinkStats), String> {
    let spec = settings.fault_spec();
    let mangled: Vec<MangledStream> = patients
        .iter()
        .enumerate()
        .map(|(i, (lead0, lead1))| {
            let clean = stream_frames(config, lead0, lead1);
            mangle(&clean, spec, round_seed ^ (i as u64).wrapping_mul(0x9E37_79B9))
        })
        .collect();

    let mut link_total = cs_platform::LinkStats::default();
    for m in &mangled {
        link_total.sent += m.stats.sent;
        link_total.dropped += m.stats.dropped;
        link_total.delivered += m.stats.delivered;
        link_total.corrupted += m.stats.corrupted;
        link_total.truncated += m.stats.truncated;
        link_total.duplicated += m.stats.duplicated;
        link_total.reordered += m.stats.reordered;
    }

    let traffic: Vec<Vec<Vec<u8>>> = mangled.iter().map(|m| m.deliveries.clone()).collect();
    let chaos_panic = if inject_panic {
        mangled[0].first_intact_seq.map(|seq| (0usize, seq))
    } else {
        None
    };

    let cb = Arc::new(uniform_codebook(config.alphabet()).expect("codebook"));
    let fleet = FleetConfig {
        workers: settings.workers,
        chaos_panic,
        ..FleetConfig::default()
    };

    // Round 0 additionally taps ingest through the durable archive sink
    // so the round-trip invariant gets a fresh hostile sample each run.
    let archive_root = inject_panic.then(|| {
        std::env::temp_dir().join(format!("cs-chaos-archive-{}", std::process::id()))
    });
    let sink = archive_root.as_ref().map(|root| {
        let _ = std::fs::remove_dir_all(root);
        Mutex::new(ArchiveSink::create(root, ArchiveConfig::default()).expect("archive sink"))
    });

    // Per-(stream, lead) last emitted window index, for the in-order check.
    let order = Mutex::new(HashMap::<(usize, u8), u64>::new());
    let emitted = Mutex::new(0u64);
    let violations = Mutex::new(Vec::<String>::new());
    let on_packet = |p: &cs_core::FleetPacket<f32>| {
            *emitted.lock().unwrap() += 1;
            let mut order = order.lock().unwrap();
            let key = (p.stream, p.channel);
            if let Some(&last) = order.get(&key) {
                if p.packet.index <= last {
                    violations.lock().unwrap().push(format!(
                        "stream {} lead {}: window {} emitted after {}",
                        p.stream, p.channel, p.packet.index, last
                    ));
                }
            }
            order.insert(key, p.packet.index);
            let synthetic = p.packet.concealed;
            let flagged = !matches!(p.outcome, PacketOutcome::Decoded);
            if synthetic != flagged {
                violations.lock().unwrap().push(format!(
                    "stream {} lead {} window {}: concealed flag {} disagrees with outcome {:?}",
                    p.stream, p.channel, p.packet.index, synthetic, p.outcome
                ));
            }
    };
    let report = run_fleet::<f32, _>(
        config,
        cb,
        FleetSource::Frames(&traffic),
        // A solve that hits the cap is emitted best-effort (counted
        // deadline-degraded) instead of stalling its lane.
        SolverPolicy { max_iterations: 400, ..SolverPolicy::default() },
        &fleet,
        registry,
        sink.as_ref().map(|sink| sink as &Mutex<dyn FrameSink>),
        on_packet,
    )
    .map_err(|e| format!("fleet run failed: {e}"))?;

    if let (Some(sink), Some(root)) = (sink, &archive_root) {
        sink.into_inner()
            .unwrap()
            .finish()
            .map_err(|e| format!("archive seal failed: {e}"))?;
        let archived = verify_archive_round_trip(root, &traffic)?;
        println!("round 0: archive round-trip verified, {archived} frames byte-for-byte");
        let _ = std::fs::remove_dir_all(root);
    }

    let violations = violations.into_inner().unwrap();
    if let Some(first) = violations.first() {
        return Err(format!("{} ordering/flag violations; first: {first}", violations.len()));
    }

    let f = &report.faults;
    if f.frames != link_total.delivered as u64 {
        return Err(format!(
            "ingest saw {} frames but the link delivered {}",
            f.frames, link_total.delivered
        ));
    }
    let terminal = f.frame_rejects + f.duplicates + f.late + f.decoded + f.concealed_desync
        + f.quarantined;
    if f.frames != terminal {
        return Err(format!(
            "frame accounting leak: {} ingested vs {} accounted ({f:?})",
            f.frames, terminal
        ));
    }
    let emitted = emitted.into_inner().unwrap();
    if emitted != f.delivered() {
        return Err(format!(
            "emitted {} windows but counters say {} ({f:?})",
            emitted,
            f.delivered()
        ));
    }
    if inject_panic && chaos_panic.is_some() {
        if f.worker_restarts == 0 {
            return Err("injected panic but no worker restart was recorded".into());
        }
        if !report.quarantine.iter().any(|q| q.cause.contains("panic")) {
            return Err("injected panic left no quarantine record".into());
        }
    }
    Ok((report, link_total))
}

fn main() -> ExitCode {
    // The round-0 supervision check panics inside a worker on purpose;
    // keep its backtrace out of the soak log while leaving every other
    // panic loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("chaos: injected decode panic"));
        if !injected {
            default_hook(info);
        }
    }));

    let settings = SoakSettings::from_args();
    let config = SystemConfig::paper_default();
    let n = config.packet_len();
    println!(
        "chaos_soak: {} streams x {} workers, {:.0} s budget, seed {}",
        settings.streams, settings.workers, settings.seconds, settings.seed
    );
    println!(
        "profile: ber {:.1e} (burst), drop {:.3}%, reorder {:.3}%, dup {:.3}%, truncate {:.3}%",
        settings.ber,
        settings.drop * 100.0,
        settings.reorder * 100.0,
        settings.duplicate * 100.0,
        settings.truncate * 100.0,
    );

    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: settings.streams,
        duration_s: settings.signal_seconds,
        ..DatabaseConfig::default()
    });
    let patients: Vec<(Vec<i16>, Vec<i16>)> = (0..db.len())
        .map(|i| {
            let record = db.record(i);
            let adc = record.adc();
            let lead = |c: usize| -> Vec<i16> {
                resample_360_to_256(&record.signal_mv(c))
                    .iter()
                    .map(|&v| adc.to_signed(adc.quantize(v)))
                    .collect()
            };
            (lead(0), lead(1))
        })
        .collect();
    let frames_per_round: usize =
        patients.iter().map(|(a, b)| (a.len().min(b.len()) / n) * 2).sum();

    let registry = TelemetryRegistry::new();
    let started = Instant::now();
    let mut rounds = 0u64;
    let mut totals = cs_core::FaultStats::default();
    let mut link_totals = cs_platform::LinkStats::default();
    loop {
        let round_seed = settings.seed.wrapping_add(rounds.wrapping_mul(0x0123_4567_89AB_CDEF));
        match round(&config, &patients, &settings, &registry, round_seed, rounds == 0) {
            Ok((report, link)) => {
                let f = report.faults;
                totals.frames += f.frames;
                totals.frame_rejects += f.frame_rejects;
                totals.duplicates += f.duplicates;
                totals.late += f.late;
                totals.resyncs += f.resyncs;
                totals.decoded += f.decoded;
                totals.concealed_loss += f.concealed_loss;
                totals.concealed_desync += f.concealed_desync;
                totals.quarantined += f.quarantined;
                totals.worker_restarts += f.worker_restarts;
                totals.deadline_degraded += f.deadline_degraded;
                link_totals.sent += link.sent;
                link_totals.dropped += link.dropped;
                link_totals.delivered += link.delivered;
                link_totals.corrupted += link.corrupted;
                link_totals.duplicated += link.duplicated;
            }
            Err(msg) => {
                eprintln!("FAIL round {rounds} (seed {round_seed}): {msg}");
                return ExitCode::FAILURE;
            }
        }
        rounds += 1;
        if started.elapsed().as_secs_f64() >= settings.seconds {
            break;
        }
    }
    let wall = started.elapsed();

    println!("== Soak result ==");
    println!("rounds                  : {rounds}  ({frames_per_round} clean frames each)");
    println!("wall time               : {wall:.2?}");
    println!(
        "link: sent/dropped/dup  : {} / {} / {}  ({} corrupted)",
        link_totals.sent, link_totals.dropped, link_totals.duplicated, link_totals.corrupted
    );
    let pct = |part: u64| 100.0 * part as f64 / totals.frames.max(1) as f64;
    println!("frames ingested         : {}", totals.frames);
    println!("  rejected (CRC/frame)  : {:>8}  ({:.2} %)", totals.frame_rejects, pct(totals.frame_rejects));
    println!("  duplicates / late     : {:>8} / {}", totals.duplicates, totals.late);
    println!("windows decoded         : {:>8}", totals.decoded);
    println!(
        "windows concealed       : {:>8}  ({} loss, {} desync)",
        totals.concealed(),
        totals.concealed_loss,
        totals.concealed_desync
    );
    println!("windows quarantined     : {:>8}", totals.quarantined);
    println!("resyncs                 : {:>8}", totals.resyncs);
    println!("worker restarts         : {:>8}", totals.worker_restarts);
    println!("deadline-degraded       : {:>8}", totals.deadline_degraded);
    println!("OK: {} rounds, every invariant held", rounds);

    if settings.telemetry {
        println!("== Prometheus scrape ==");
        print!("{}", registry.prometheus());
        println!("== JSONL snapshot ==");
        println!("{}", registry.json_line());
    }
    ExitCode::SUCCESS
}
