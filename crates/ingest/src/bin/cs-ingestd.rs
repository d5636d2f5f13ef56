//! cs-ingestd — the socket ingest service in front of a live decode fleet.
//!
//! Binds the ingest listener, spins up the fleet engine ([`run_fleet`]
//! over a [`FleetSource::Channel`], on a thread of its own that drains the
//! feed into a worker pool), and serves telemetry
//! (`/metrics`, `/healthz`, `/tracez`) next door. Runs until stdin
//! closes or a line reading `drain` arrives, then drains gracefully:
//! stop accepting, see every session out, flush the engine's staged
//! windows, and print final accounting as one JSON object. Its books
//! balance from outside the process: the listener's `frames` equal the
//! engine's `ingested`, which equal `rejected + duplicates + late +
//! decoded + desync + quarantined`.
//!
//! ```text
//! cargo run --release -p cs-ingest --bin cs-ingestd -- \
//!     [--listen 127.0.0.1:7411] [--metrics 127.0.0.1:9464] \
//!     [--workers 0] [--feed-capacity 256] [--max-sessions 1024] \
//!     [--shed-backlog 256] [--handshake-ms 2000] [--idle-ms 30000] \
//!     [--archive DIR]
//! ```
//!
//! With `--archive DIR` every accepted wire frame is also appended to a
//! durable [`ArchiveSink`] under `DIR` before decode, so an operator can
//! replay the exact ingested traffic later (`archive_replay DIR`, the
//! binary beside this one, decodes it with the same `uniform_codebook`).
//! The sink is flushed and sealed during drain; a sink failure fails the
//! daemon rather than silently dropping history.
//!
//! `mote_swarm --connect` is its load generator; `tests/daemon.rs` runs
//! the two together, straight and through a chaos proxy, and replays the
//! daemon's archive with `archive_replay`.

use cs_archive::{ArchiveConfig, ArchiveSink};
use cs_core::{
    kernel_arm, run_fleet, uniform_codebook, FleetConfig, FleetSource, FrameSink, SolverPolicy,
    SystemConfig, WireFrame,
};
use cs_ingest::{IngestConfig, IngestServer};
use cs_telemetry::{MetricsServer, TelemetryRegistry, MAX_WORKERS};
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const USAGE: &str = "usage: cs-ingestd [--listen ADDR] [--metrics ADDR] [--workers N] \
[--feed-capacity N] [--max-sessions N] [--shed-backlog N] [--handshake-ms MS] [--idle-ms MS] \
[--archive DIR]";

#[derive(Debug)]
struct Settings {
    listen: String,
    metrics: String,
    workers: usize,
    feed_capacity: usize,
    archive: Option<std::path::PathBuf>,
    ingest: IngestConfig,
}

impl Settings {
    /// Parses the command line (without the program name).
    ///
    /// # Errors
    ///
    /// An unknown flag, a flag whose value is missing or unparsable, more
    /// workers than the registry has per-worker counters (ids past
    /// [`MAX_WORKERS`] would fold into another worker's series), a zero
    /// admission limit (it would shed every session), or a shed backlog
    /// above the feed capacity (the backlog is the feed's length, so it
    /// could never reach the limit and nothing would ever shed).
    fn from_args(args: impl IntoIterator<Item = String>) -> Result<Settings, String> {
        let mut s = Settings {
            listen: "127.0.0.1:7411".to_string(),
            metrics: "127.0.0.1:9464".to_string(),
            workers: 0,
            feed_capacity: 256,
            archive: None,
            ingest: IngestConfig::default(),
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} requires a value"));
            match flag.as_str() {
                "--listen" => s.listen = value()?,
                "--metrics" => s.metrics = value()?,
                "--workers" => s.workers = number(&flag, value()?)?,
                "--feed-capacity" => s.feed_capacity = number(&flag, value()?)?,
                "--archive" => s.archive = Some(value()?.into()),
                "--max-sessions" => s.ingest.max_sessions = number(&flag, value()?)?,
                "--shed-backlog" => s.ingest.shed_backlog = number(&flag, value()?)?,
                "--handshake-ms" => {
                    s.ingest.handshake_deadline = Duration::from_millis(number(&flag, value()?)?)
                }
                "--idle-ms" => s.ingest.idle_timeout = Duration::from_millis(number(&flag, value()?)?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if s.workers > MAX_WORKERS {
            let workers = s.workers;
            return Err(format!("--workers {workers} exceeds the {MAX_WORKERS} counted workers"));
        }
        if s.ingest.max_sessions == 0 || s.ingest.shed_backlog == 0 {
            return Err("--max-sessions and --shed-backlog must be positive".into());
        }
        if s.ingest.shed_backlog > s.feed_capacity {
            let (shed, feed) = (s.ingest.shed_backlog, s.feed_capacity);
            return Err(format!(
                "--shed-backlog {shed} exceeds --feed-capacity {feed}: nothing would shed"
            ));
        }
        Ok(s)
    }
}

/// `value` as the number `flag` takes.
fn number<V: std::str::FromStr>(flag: &str, value: String) -> Result<V, String>
where
    V::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value}: {e}"))
}

fn main() -> ExitCode {
    let settings = match Settings::from_args(std::env::args().skip(1)) {
        Ok(settings) => settings,
        Err(e) => {
            eprintln!("cs-ingestd: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = SystemConfig::paper_default();
    let codebook = match uniform_codebook(config.alphabet()) {
        Ok(cb) => Arc::new(cb),
        Err(e) => {
            eprintln!("cs-ingestd: codebook construction failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let telemetry = TelemetryRegistry::new();
    telemetry.record_kernel_arm(kernel_arm());
    let (feed, source) = crossbeam::channel::bounded::<WireFrame>(settings.feed_capacity);

    // The archive tap, when requested, sits between deframe and decode:
    // every accepted frame is persisted before any solver touches it.
    let sink = match &settings.archive {
        Some(root) => match ArchiveSink::create(root, ArchiveConfig::default()) {
            Ok(sink) => Some(Arc::new(Mutex::new(sink))),
            Err(e) => {
                eprintln!("cs-ingestd: archive sink {} failed: {e}", root.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let engine = {
        let config = config.clone();
        let codebook = Arc::clone(&codebook);
        let telemetry = telemetry.clone();
        let fleet = FleetConfig { workers: settings.workers, ..FleetConfig::default() };
        let sink = sink.clone();
        std::thread::spawn(move || {
            run_fleet::<f32, _>(
                &config,
                codebook,
                FleetSource::Channel(source),
                SolverPolicy::default(),
                &fleet,
                &telemetry,
                sink.as_deref().map(|sink| sink as &Mutex<dyn FrameSink>),
                |_packet| {},
            )
        })
    };

    let metrics = match MetricsServer::bind(settings.metrics.as_str(), telemetry.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cs-ingestd: metrics bind {} failed: {e}", settings.metrics);
            return ExitCode::FAILURE;
        }
    };
    let server = match IngestServer::bind(
        settings.listen.as_str(),
        settings.ingest,
        telemetry.clone(),
        feed,
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cs-ingestd: ingest bind {} failed: {e}", settings.listen);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "cs-ingestd: ingest on {}, metrics on {}, {} kernels; send \"drain\" or close stdin to stop",
        server.local_addr(),
        metrics.local_addr(),
        kernel_arm()
    );
    if let Some(root) = &settings.archive {
        eprintln!("cs-ingestd: archiving accepted frames under {}", root.display());
    }

    // Block on stdin: EOF or a "drain" line starts the graceful drain.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "drain" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    let summary = server.drain();
    let report = match engine.join() {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => {
            eprintln!("cs-ingestd: engine failed: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            eprintln!("cs-ingestd: engine thread panicked");
            return ExitCode::FAILURE;
        }
    };
    // Seal the archive only after the engine has returned: the engine
    // owns the last writes, and a seal failure means lost history.
    if let Some(sink) = sink {
        let sink = Arc::into_inner(sink)
            .expect("engine joined, so the archive sink has one owner")
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Err(e) = sink.finish() {
            eprintln!("cs-ingestd: archive seal failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let faults = &report.faults;
    println!(
        "{{\"sessions\":{},\"patients\":{},\"frames\":{},\"ingested\":{},\"bytes\":{},\
         \"sheds\":{},\"decoded\":{},\"concealed\":{},\"desync\":{},\"quarantined\":{},\
         \"rejected\":{},\"duplicates\":{},\"late\":{},\"windows\":{}}}",
        summary.sessions,
        summary.patients,
        summary.frames,
        faults.frames,
        summary.bytes,
        summary.sheds,
        faults.decoded,
        faults.concealed(),
        faults.concealed_desync,
        faults.quarantined,
        faults.frame_rejects,
        faults.duplicates,
        faults.late,
        report.packets_decoded,
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Settings, String> {
        Settings::from_args(args.iter().map(|&a| a.to_string()))
    }

    #[test]
    fn flags_parse_into_settings() {
        let s = parse(&["--workers", "3", "--idle-ms", "1500", "--listen", "0.0.0.0:1"]).unwrap();
        assert_eq!((s.workers, s.listen.as_str()), (3, "0.0.0.0:1"));
        assert_eq!(s.ingest.idle_timeout, Duration::from_millis(1500));
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        let err = parse(&["--workers", "2", "--feed-capacity"]).unwrap_err();
        assert_eq!(err, "--feed-capacity requires a value");
    }

    #[test]
    fn an_unparsable_value_is_an_error() {
        let err = parse(&["--handshake-ms", "soon"]).unwrap_err();
        assert!(err.starts_with("--handshake-ms soon: "), "{err}");
        assert!(parse(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn a_zero_session_limit_is_an_error() {
        let err = parse(&["--max-sessions", "0"]).unwrap_err();
        assert_eq!(err, "--max-sessions and --shed-backlog must be positive");
    }

    #[test]
    fn a_zero_shed_backlog_is_an_error() {
        let err = parse(&["--shed-backlog", "0"]).unwrap_err();
        assert_eq!(err, "--max-sessions and --shed-backlog must be positive");
    }

    #[test]
    fn a_shed_backlog_above_the_feed_capacity_is_an_error() {
        let err = parse(&["--feed-capacity", "128"]).unwrap_err();
        assert_eq!(err, "--shed-backlog 256 exceeds --feed-capacity 128: nothing would shed");
        assert!(parse(&["--feed-capacity", "128", "--shed-backlog", "128"]).is_ok());
    }

    #[test]
    fn more_workers_than_counted_is_an_error() {
        let err = parse(&["--workers", "65"]).unwrap_err();
        assert_eq!(err, "--workers 65 exceeds the 64 counted workers");
        assert_eq!(parse(&["--workers", "64"]).unwrap().workers, 64);
    }
}
