//! archive_replay — decodes what `cs-ingestd --archive DIR` stored.
//!
//! Opens the archive read-only (an unsealed tail is scanned and its torn
//! record skipped, as [`Archive::open`] does), replays every patient's
//! frames through [`run_fleet`] with `uniform_codebook`, the codebook the
//! motes and `cs-ingestd` use, and prints one JSON line: the archive's
//! `patients`, `segments`, `sealed`, `records`, `bytes` and `torn_tails`,
//! then the replay's `frames`, `decoded`, `concealed` and `quarantined`.
//!
//! ```text
//! cargo run --release -p cs-ingest --bin archive_replay -- DIR
//! ```
//!
//! Exits 2 with the usage on a bad flag, a missing directory or an
//! archive with no records, and 1 if the archive cannot be read or
//! decoded. `tests/daemon.rs` runs it on the archive of a live daemon.

use cs_archive::Archive;
use cs_core::{run_fleet, uniform_codebook, FleetConfig, FleetSource, SolverPolicy, SystemConfig};
use cs_telemetry::TelemetryRegistry;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: archive_replay DIR";

/// The archive directory: the one argument, which must name a directory.
fn archive_dir(args: impl IntoIterator<Item = String>) -> Result<PathBuf, String> {
    let mut args = args.into_iter();
    let dir = match (args.next(), args.next()) {
        (Some(flag), _) if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
        (Some(dir), None) => PathBuf::from(dir),
        (None, _) => return Err("an archive directory is required".into()),
        (Some(_), Some(extra)) => return Err(format!("unexpected argument {extra}")),
    };
    if !dir.is_dir() {
        return Err(format!("no archive directory at {}", dir.display()));
    }
    Ok(dir)
}

fn main() -> ExitCode {
    let dir = match archive_dir(std::env::args().skip(1)) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("archive_replay: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (archive, recovery) = match Archive::open(&dir) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("archive_replay: {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    if archive.total_records() == 0 {
        eprintln!("archive_replay: {} holds no records\n{USAGE}", dir.display());
        return ExitCode::from(2);
    }
    let patients = archive.patients();
    let (mut segments, mut sealed, mut bytes) = (0, 0, 0);
    for &patient in &patients {
        for lane in archive.lanes_of(patient) {
            for segment in archive.segments(patient, lane) {
                segments += 1;
                sealed += usize::from(segment.sealed);
                bytes += segment.valid_bytes;
            }
        }
    }
    let traffic: Vec<Vec<Vec<u8>>> =
        match patients.iter().map(|&p| archive.replay_stream(p)).collect() {
            Ok(traffic) => traffic,
            Err(e) => {
                eprintln!("archive_replay: {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        };

    let config = SystemConfig::paper_default();
    let codebook =
        uniform_codebook(config.alphabet()).expect("the paper's alphabet, 512, is a power of two");
    let faults = match run_fleet::<f32, _>(
        &config,
        Arc::new(codebook),
        FleetSource::Frames(&traffic),
        SolverPolicy::default(),
        &FleetConfig::default(),
        &TelemetryRegistry::disabled(),
        None,
        |_| {},
    ) {
        Ok(report) => report.faults,
        Err(e) => {
            eprintln!("archive_replay: replay decode failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{{\"patients\":{},\"segments\":{segments},\"sealed\":{sealed},\"records\":{},\
         \"bytes\":{bytes},\"torn_tails\":{},\"frames\":{},\"decoded\":{},\"concealed\":{},\
         \"quarantined\":{}}}",
        patients.len(),
        archive.total_records(),
        recovery.torn_tails,
        traffic.iter().map(Vec::len).sum::<usize>(),
        faults.decoded,
        faults.concealed(),
        faults.quarantined,
    );
    ExitCode::SUCCESS
}
