//! Decode-on-read replay report: reconstruct a monitoring session from
//! the durable packet archive and measure what the store costs and what
//! the replay recovers.
//!
//! With no arguments the binary is self-contained: it synthesizes the
//! corpus, records a fault-free fleet session through the
//! write-before-decode sink into a scratch directory, then drops the
//! live output and works **only from disk**. Point `--replay DIR` at an
//! existing archive (e.g. one left behind by a crashed writer) to skip
//! the recording step; point it at a *missing* directory to record the
//! session there and keep it for later `archive_replay --replay` runs.
//! Decoding uses the codebook trained from the same
//! `--records/--seconds` corpus, so replay a session with the settings
//! it was recorded under.
//!
//! Panels: archive geometry and recovery stats, decode-on-read fault
//! accounting, per-stream reconstruction PRD against the deterministic
//! corpus (via `try_prd` — sessions that diverge from the corpus print
//! `n/a` instead of tearing down the report) and stage latency quantiles
//! including the archive spans.
//!
//! ```text
//! cargo run --release -p cs-bench --bin archive_replay [--replay DIR] [--full]
//! ```

use cs_archive::{Archive, ArchiveConfig, ArchiveSink};
use cs_bench::{banner, RunSettings};
use cs_core::{
    packetize, run_fleet, train_codebook, FleetConfig, FleetSource, FleetStream, SolverPolicy,
    SystemConfig, QUARANTINE_LANE,
};
use cs_ecg_data::{resample_360_to_256, DatabaseConfig, Record, SyntheticDatabase};
use cs_metrics::try_prd;
use cs_telemetry::{ArchiveOp, FamilyId, TelemetryRegistry};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Mote-ready samples for one lead: resample to 256 Hz, quantize.
fn prepare(record: &Record, channel: usize) -> Vec<i16> {
    let at256 = resample_360_to_256(&record.signal_mv(channel));
    let adc = record.adc();
    at256.iter().map(|&v| adc.to_signed(adc.quantize(v))).collect()
}

/// Renders nanoseconds at a human scale.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn main() {
    let settings = RunSettings::from_args();
    banner("archive_replay", "durable store + decode-on-read replay", &settings);
    let config = SystemConfig::paper_default();
    let n = config.packet_len();

    // The deterministic two-lead corpus: ground truth for PRD, training
    // set for the codebook, and (when recording) the session source.
    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: settings.records,
        duration_s: settings.seconds,
        ..DatabaseConfig::default()
    });
    let patients: Vec<(Vec<i16>, Vec<i16>)> = (0..db.len())
        .map(|i| {
            let record = db.record(i);
            (prepare(&record, 0), prepare(&record, 1))
        })
        .collect();
    let training = patients
        .iter()
        .flat_map(|(lead0, _)| packetize(lead0, n).take(3))
        .map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(&config, training).expect("training succeeds"));
    let fleet = FleetConfig::default();

    let scratch = std::env::temp_dir().join(format!("cs-archive-replay-{}", std::process::id()));
    // `--replay DIR` on an existing directory replays it; on a missing
    // one, the recorded session is written there and kept, so a second
    // run replays it from disk alone.
    let (dir, record_into) = match settings.replay.clone() {
        Some(dir) if std::path::Path::new(&dir).exists() => (dir, None),
        Some(dir) => (dir.clone(), Some(std::path::PathBuf::from(dir))),
        None => (scratch.to_string_lossy().into_owned(), Some(scratch.clone())),
    };
    if let Some(target) = record_into {
        // Record the session: live encode → archive sink → decode,
        // discarding the live output. Everything below reads disk.
        let streams: Vec<FleetStream<'_>> = patients
            .iter()
            .map(|(lead0, lead1)| FleetStream { leads: vec![lead0, lead1] })
            .collect();
        let sink = Mutex::new(
            ArchiveSink::create(&target, ArchiveConfig::default()).expect("archive sink"),
        );
        run_fleet::<f32, _>(
            &config,
            Arc::clone(&codebook),
            FleetSource::Leads(&streams),
            SolverPolicy::default(),
            &fleet,
            &TelemetryRegistry::disabled(),
            Some(&sink),
            |_| {},
        )
        .expect("recording run");
        sink.into_inner().unwrap().finish().expect("seal archive");
    }

    let registry = TelemetryRegistry::new();
    let (archive, recovery) =
        Archive::open_observed(&dir, registry.clone()).expect("open archive");
    let patients_on_disk = archive.patients();
    let mut segments = 0usize;
    let mut sealed = 0usize;
    let mut bytes = 0u64;
    let mut quarantine_lanes = 0usize;
    for &p in &patients_on_disk {
        for lane in archive.lanes_of(p) {
            if lane == QUARANTINE_LANE {
                quarantine_lanes += 1;
            }
            for seg in archive.segments(p, lane) {
                segments += 1;
                sealed += usize::from(seg.sealed);
                bytes += seg.valid_bytes;
            }
        }
    }
    println!("== Archive ({dir}) ==");
    println!("patients                : {:>8}", patients_on_disk.len());
    println!(
        "segments                : {:>8}  ({sealed} sealed, {} recovered by scan)",
        segments, recovery.segments_scanned
    );
    println!("frame records           : {:>8}", archive.total_records());
    println!("stored bytes            : {:>8}  ({:.2} MiB)", bytes, bytes as f64 / (1 << 20) as f64);
    println!(
        "torn tails              : {:>8}  ({} bytes discarded)",
        recovery.torn_tails, recovery.torn_bytes
    );
    println!("quarantine lanes        : {:>8}", quarantine_lanes);

    // Decode on read: the archived wire bytes through the supervised
    // fleet engine, exactly as a live session would run.
    let traffic: Vec<Vec<Vec<u8>>> = patients_on_disk
        .iter()
        .map(|&p| archive.replay_stream(p).expect("replay stream"))
        .collect();
    let mut decoded: BTreeMap<(usize, u8), BTreeMap<u64, Vec<f32>>> = BTreeMap::new();
    let decoded_cell = Mutex::new(&mut decoded);
    let started = Instant::now();
    let report = run_fleet::<f32, _>(
        &config,
        Arc::clone(&codebook),
        FleetSource::Frames(&traffic),
        SolverPolicy::default(),
        &fleet,
        &registry,
        None,
        |p| {
            decoded_cell
                .lock()
                .unwrap()
                .entry((p.stream, p.channel))
                .or_default()
                .insert(p.packet.index, p.packet.samples.clone());
        },
    )
    .expect("replay decode");
    let wall = started.elapsed();
    let frames_read: u64 = traffic.iter().map(|t| t.len() as u64).sum();
    let faults = &report.faults;
    println!("== Decode on read ==");
    println!("frames replayed         : {:>8}", frames_read);
    println!(
        "windows decoded         : {:>8}  (+{} concealed, {} quarantined)",
        faults.decoded,
        faults.concealed(),
        faults.quarantined
    );
    println!(
        "replay wall-clock       : {:>8.2?}  ({:.0} frames/s)",
        wall,
        frames_read as f64 / wall.as_secs_f64()
    );

    // Reconstruction quality vs the deterministic corpus. `try_prd`
    // degrades to n/a when the archive doesn't correspond to these
    // settings (different corpus, foreign session, empty lead).
    println!("== Reconstruction PRD (vs corpus ground truth) ==");
    println!("{:<12} {:>12} {:>12}", "stream", "lead0 PRD %", "lead1 PRD %");
    let mut prds: Vec<f64> = Vec::new();
    for (s, &p) in patients_on_disk.iter().enumerate() {
        let truth = patients.get(p as usize);
        let lead_prd = |channel: u8| -> Option<f64> {
            let windows = decoded.get(&(s, channel))?;
            let recon: Vec<f64> = windows
                .values()
                .flat_map(|w| w.iter().map(|&v| f64::from(v)))
                .collect();
            let (lead0, lead1) = truth?;
            let t = if channel == 0 { lead0 } else { lead1 };
            let len = recon.len().min(t.len());
            let t: Vec<f64> = t[..len].iter().map(|&v| f64::from(v)).collect();
            try_prd(&t, &recon[..len])
        };
        let fmt = |v: Option<f64>| v.map_or("n/a".to_owned(), |p| format!("{p:.2}"));
        let (p0, p1) = (lead_prd(0), lead_prd(1));
        prds.extend(p0.iter().chain(p1.iter()));
        println!("p{:<11} {:>12} {:>12}", p, fmt(p0), fmt(p1));
    }
    if !prds.is_empty() {
        let mean = prds.iter().sum::<f64>() / prds.len() as f64;
        let max = prds.iter().cloned().fold(f64::MIN, f64::max);
        println!("mean / worst            : {mean:>8.2} / {max:.2} %");
    }

    let snapshot = registry.snapshot();
    println!("== Stage latency (live registry) ==");
    println!("{:<20} {:>8} {:>12} {:>12}", "stage", "count", "p50", "p99");
    for (stage, hist) in snapshot.stages {
        if hist.count() == 0 {
            continue;
        }
        println!(
            "{:<20} {:>8} {:>12} {:>12}",
            stage.name(),
            hist.count(),
            fmt_ns(hist.quantile(0.50)),
            fmt_ns(hist.quantile(0.99))
        );
    }
    println!(
        "archive ops             : {}",
        ArchiveOp::ALL
            .iter()
            .map(|&op| format!("{op}={}", snapshot.count(FamilyId::Archive, op)))
            .collect::<Vec<_>>()
            .join("  ")
    );

    if settings.replay.is_none() {
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
