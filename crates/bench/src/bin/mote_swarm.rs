//! Socket-fed swarm soak: hundreds of motes fan into one ingest service.
//!
//! Stands up the full network stack — streaming wire engine, ingest
//! listener, `/metrics`+`/healthz` server, optionally a seeded
//! [`TcpChaosProxy`] in front — and drives it with `--motes` concurrent
//! TCP clients, each performing the versioned handshake and streaming
//! `--frames` encoded windows per lane. Motes whose connections are torn
//! by the chaos proxy reconnect with resume and replay their unacked
//! tail; motes shed by admission retry after the server's hint.
//!
//! After the swarm completes the harness drains gracefully and checks
//! the robustness invariants:
//!
//! 1. **Exact accounting.** Server-side: every frame the deframers
//!    yielded reached the engine (`summary.frames == faults.frames`).
//!    Engine-side: every ingested frame lands in exactly one bucket
//!    (`frames == rejects + duplicates + late + decoded +
//!    concealed_desync + quarantined`).
//! 2. **No double emission.** Per `(stream, lead)`, emitted window
//!    indices are strictly increasing — resume replays must dedup.
//! 3. **Telemetry balance.** The session gauge returns to zero and
//!    every session ended in exactly one typed disconnect.
//! 4. **`/healthz` recovers.** Whatever chaos did mid-run, the verdict
//!    is `200` once the fleet has flushed.
//! 5. **Swarm completion.** Every mote eventually lands all its frames
//!    (clean runs) or survives with bounded retries (chaos runs).
//!
//! Any violation prints a diagnostic and exits non-zero.
//!
//! ```text
//! cargo run --release -p cs-bench --bin mote_swarm -- \
//!     [--motes 200] [--frames 6] [--lanes 1] [--workers 4] [--seed 7] \
//!     [--concurrency 128] [--max-sessions 256] [--shed-backlog 512] \
//!     [--chaos] [--connect HOST:PORT]
//! ```
//!
//! With `--connect HOST:PORT` the binary is a pure load generator
//! against an external `cs-ingestd`: no in-process stack, client-side
//! reporting only (the server prints its own accounting at drain).

use cs_core::{
    run_fleet, uniform_codebook, Encoder, FleetConfig, FleetPacket, FleetReport, FleetSource,
    SolverPolicy, SystemConfig, WireFrame,
};
use cs_ingest::{Connect, ControlCode, IngestClient, IngestConfig, IngestServer, LaneResume};
use cs_platform::{TcpChaosProxy, TcpChaosSpec};
use cs_telemetry::{FamilyId, IngestState, MetricsServer, TelemetryRegistry, MAX_PATIENTS};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: mote_swarm [--motes N] [--frames N] [--lanes N] [--workers N] \
[--concurrency N] [--max-sessions N] [--shed-backlog N] [--seed N] [--chaos] [--connect HOST:PORT]";

#[derive(Debug, Clone, Copy, PartialEq)]
struct SwarmSettings {
    motes: usize,
    frames: usize,
    lanes: usize,
    workers: usize,
    concurrency: usize,
    max_sessions: usize,
    shed_backlog: usize,
    seed: u64,
    chaos: bool,
    /// Drive an external `cs-ingestd` instead of an in-process stack.
    /// Client-side load generation only: the server-side invariants are
    /// that process's to check (it prints its own accounting at drain).
    connect: Option<SocketAddr>,
}

impl Default for SwarmSettings {
    fn default() -> Self {
        SwarmSettings {
            motes: 200,
            frames: 6,
            lanes: 1,
            workers: 4,
            concurrency: 128,
            max_sessions: 256,
            shed_backlog: 512,
            seed: 7,
            chaos: false,
            connect: None,
        }
    }
}

impl SwarmSettings {
    /// Parses the command line (without the program name).
    ///
    /// # Errors
    ///
    /// An unknown flag, a flag whose value is missing or unparsable, an
    /// empty swarm, a zero admission limit (it would shed every mote), or
    /// more lanes than the protocol carries.
    fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut s = SwarmSettings::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} requires a value"));
            match flag.as_str() {
                "--motes" => s.motes = number(&flag, value()?)?,
                "--frames" => s.frames = number(&flag, value()?)?,
                "--lanes" => s.lanes = number(&flag, value()?)?,
                "--workers" => s.workers = number(&flag, value()?)?,
                "--concurrency" => s.concurrency = number(&flag, value()?)?,
                "--max-sessions" => s.max_sessions = number(&flag, value()?)?,
                "--shed-backlog" => s.shed_backlog = number(&flag, value()?)?,
                "--seed" => s.seed = number(&flag, value()?)?,
                "--connect" => s.connect = Some(number(&flag, value()?)?),
                "--chaos" => s.chaos = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if s.motes == 0 || s.frames == 0 || s.lanes == 0 {
            return Err("--motes, --frames and --lanes must be positive".into());
        }
        if s.max_sessions == 0 || s.shed_backlog == 0 {
            return Err("--max-sessions and --shed-backlog must be positive".into());
        }
        if s.lanes > cs_ingest::MAX_HELLO_LANES {
            let limit = cs_ingest::MAX_HELLO_LANES;
            return Err(format!("--lanes {} exceeds the protocol limit {limit}", s.lanes));
        }
        Ok(s)
    }
}

/// `value` as the type `flag` takes.
fn number<V: std::str::FromStr>(flag: &str, value: String) -> Result<V, String>
where
    V::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value}: {e}"))
}

fn synthetic_packet(n: usize, phase: f64) -> Vec<i16> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            let spike = (-((t - 0.3 + phase) * 40.0).powi(2)).exp()
                + (-((t - 0.8 + phase) * 40.0).powi(2)).exp();
            (900.0 * spike + 60.0 * (t * 12.0).sin()) as i16
        })
        .collect()
}

/// Pre-encodes the frame schedule one mote streams: `frames` windows per
/// lane, interleaved lane-major per window so lanes advance together.
/// Every mote sends the same bytes (distinct patients keep streams
/// distinct), so a 10k-mote swarm costs one encode.
fn mote_schedule(config: &SystemConfig, settings: &SwarmSettings) -> Vec<Vec<u8>> {
    let codebook = Arc::new(uniform_codebook(config.alphabet()).expect("codebook"));
    let mut encoders: Vec<Encoder> = (0..settings.lanes)
        .map(|_| Encoder::new(config, Arc::clone(&codebook)).expect("encoder"))
        .collect();
    let mut schedule = Vec::with_capacity(settings.frames * settings.lanes);
    for k in 0..settings.frames {
        for (lane, encoder) in encoders.iter_mut().enumerate() {
            let samples =
                synthetic_packet(config.packet_len(), k as f64 * 0.003 + lane as f64 * 0.001);
            let packet = encoder.encode_packet(&samples).expect("encode");
            schedule.push(packet.to_bytes_tagged(lane as u8));
        }
    }
    schedule
}

/// Strictly-increasing emission watermarks per `(stream, lead)`.
#[derive(Default)]
struct EmissionOrder {
    last: Mutex<HashMap<(usize, u8), u64>>,
    violations: AtomicU64,
    emitted: AtomicU64,
}

impl EmissionOrder {
    fn observe(&self, packet: &FleetPacket<f32>) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
        let mut last = self.last.lock().expect("emission order lock");
        let key = (packet.stream, packet.channel);
        let index = packet.packet.index;
        if let Some(&prev) = last.get(&key) {
            if index <= prev {
                self.violations.fetch_add(1, Ordering::Relaxed);
            }
        }
        last.insert(key, index);
    }
}

/// One mote's run: handshake (with shed retries), stream, resume on
/// tears, finish. Returns (frames_sent, shed_retries, reconnects) or an
/// error string for motes that exhausted their attempts.
fn run_mote(
    addr: SocketAddr,
    patient: u32,
    schedule: &[Vec<u8>],
    lanes: usize,
) -> Result<(u64, u64, u64), String> {
    // Wall-clock budget, not an attempt count: a burst of motes can
    // legitimately be shed until the decode backlog drains, and that
    // takes as long as it takes. Chaos decides how many retries fit.
    let deadline = Instant::now() + Duration::from_secs(120);
    let lane_set: Vec<LaneResume> =
        (0..lanes).map(|l| LaneResume { lane: l as u8, resume_from: 0 }).collect();
    let mut cursor = 0usize;
    let mut tail = std::collections::VecDeque::new();
    let mut sent = 0u64;
    let mut sheds = 0u64;
    let mut reconnects = 0u64;
    let mut backoff = Duration::from_millis(5);
    let back_off = |backoff: &mut Duration| {
        std::thread::sleep(*backoff);
        *backoff = (*backoff * 2).min(Duration::from_millis(200));
    };
    loop {
        if Instant::now() >= deadline {
            return Err(format!(
                "mote {patient} ran out its clock at frame {cursor}/{} ({sheds} sheds)",
                schedule.len()
            ));
        }
        let connect = match IngestClient::connect(
            addr,
            patient,
            &lane_set,
            schedule.len(),
            Duration::from_secs(5),
        ) {
            Ok(connect) => connect,
            Err(_) => {
                // Chaos can kill the handshake itself; back off and retry.
                reconnects += 1;
                back_off(&mut backoff);
                continue;
            }
        };
        let mut client = match connect {
            Connect::Accepted(client) => {
                backoff = Duration::from_millis(5);
                client
            }
            Connect::Refused(control) if control.code == ControlCode::Shed => {
                sheds += 1;
                let hint = Duration::from_secs(control.retry_after_secs as u64);
                std::thread::sleep(hint.min(Duration::from_millis(50)));
                back_off(&mut backoff);
                continue;
            }
            Connect::Refused(control) if control.code == ControlCode::BadHandshake => {
                // A bit flip in the hello itself; indistinguishable from
                // a client bug server-side, but retryable client-side.
                reconnects += 1;
                back_off(&mut backoff);
                continue;
            }
            Connect::Refused(control) => {
                return Err(format!("refused with {:?}", control.code));
            }
        };
        if cursor > 0 {
            reconnects += 1;
            // Resume: replay the unacked tail; the engine dedups.
            if client.replay(&tail).is_err() {
                tail.extend(client.into_tail());
                continue;
            }
            sent += tail.len() as u64;
        }
        let mut torn = false;
        while cursor < schedule.len() {
            match client.send_frame(&schedule[cursor]) {
                Ok(()) => {
                    cursor += 1;
                    sent += 1;
                }
                Err(_) => {
                    torn = true;
                    break;
                }
            }
        }
        if torn {
            tail = client.into_tail();
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        match client.finish(Duration::from_secs(10)) {
            Ok(control)
                if control.code == ControlCode::Goodbye
                    || control.code == ControlCode::Evicted =>
            {
                return Ok((sent, sheds, reconnects));
            }
            Ok(control) => return Err(format!("unexpected goodbye {:?}", control.code)),
            Err(_) => {
                // Goodbye lost to chaos: the tail frames may or may not
                // have landed. Rebuild the tail from the schedule and
                // reconnect so the server definitely has everything
                // (dedup makes the replay free).
                tail = schedule
                    .iter()
                    .map(|frame| {
                        let mut record = Vec::new();
                        cs_ingest::encode_record(frame, &mut record);
                        record
                    })
                    .collect();
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        }
    }
}

/// What the mote pool did, summed over all motes.
struct SwarmOutcome {
    sent: u64,
    shed_retries: u64,
    reconnects: u64,
    failures: Vec<String>,
    wall: Duration,
}

/// Runs the swarm: a fixed worker pool claims mote ids off a shared
/// cursor until all `settings.motes` have run to completion or error.
fn run_swarm(target: SocketAddr, schedule: &Arc<Vec<Vec<u8>>>, settings: &SwarmSettings) -> SwarmOutcome {
    let started = Instant::now();
    let next_mote = AtomicUsize::new(0);
    let sent_total = AtomicU64::new(0);
    let shed_retries = AtomicU64::new(0);
    let reconnects = AtomicU64::new(0);
    let failures = Mutex::new(Vec::<String>::new());
    let pool = settings.concurrency.min(settings.motes).max(1);
    std::thread::scope(|scope| {
        for _ in 0..pool {
            scope.spawn(|| loop {
                let mote = next_mote.fetch_add(1, Ordering::Relaxed);
                if mote >= settings.motes {
                    break;
                }
                match run_mote(target, mote as u32, schedule, settings.lanes) {
                    Ok((sent, sheds, recon)) => {
                        sent_total.fetch_add(sent, Ordering::Relaxed);
                        shed_retries.fetch_add(sheds, Ordering::Relaxed);
                        reconnects.fetch_add(recon, Ordering::Relaxed);
                    }
                    Err(e) => failures.lock().expect("failure list").push(e),
                }
            });
        }
    });
    SwarmOutcome {
        sent: sent_total.into_inner(),
        shed_retries: shed_retries.into_inner(),
        reconnects: reconnects.into_inner(),
        failures: failures.into_inner().expect("pool joined"),
        wall: started.elapsed(),
    }
}

fn http_get(addr: SocketAddr, path: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: swarm\r\nConnection: close\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let status = response.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, response))
}

fn main() -> ExitCode {
    let settings = match SwarmSettings::from_args(std::env::args().skip(1)) {
        Ok(settings) => settings,
        Err(e) => {
            eprintln!("mote_swarm: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = SystemConfig::paper_default();
    let schedule = Arc::new(mote_schedule(&config, &settings));
    let per_mote_frames = schedule.len() as u64;

    // Pure load-generation mode: fan into an external cs-ingestd. The
    // server process owns the server-side invariants and prints its own
    // accounting when drained; this side only reports client truth.
    if let Some(target) = settings.connect {
        eprintln!(
            "mote_swarm: {} motes x {} frames ({} lanes) -> {} (external)",
            settings.motes, settings.frames, settings.lanes, target,
        );
        let outcome = run_swarm(target, &schedule, &settings);
        println!(
            "swarm: {} motes, {} frames sent in {:.2}s ({:.0} frames/s offered), {} reconnects, {} shed retries",
            settings.motes,
            outcome.sent,
            outcome.wall.as_secs_f64(),
            outcome.sent as f64 / outcome.wall.as_secs_f64().max(1e-9),
            outcome.reconnects,
            outcome.shed_retries,
        );
        if outcome.failures.is_empty() {
            return ExitCode::SUCCESS;
        }
        let show = outcome.failures.iter().take(5).cloned().collect::<Vec<_>>().join("; ");
        eprintln!("FAIL: {} motes failed outright: {show}", outcome.failures.len());
        return ExitCode::FAILURE;
    }

    let telemetry = TelemetryRegistry::new();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).expect("codebook"));

    let order = Arc::new(EmissionOrder::default());
    let (feed, source) = crossbeam::channel::bounded::<WireFrame>(settings.shed_backlog.max(64));
    let engine: std::thread::JoinHandle<Result<FleetReport, cs_core::PipelineError>> = {
        let config = config.clone();
        let telemetry = telemetry.clone();
        let order = Arc::clone(&order);
        let fleet = FleetConfig { workers: settings.workers, ..FleetConfig::default() };
        std::thread::spawn(move || {
            run_fleet::<f32, _>(
                &config,
                codebook,
                FleetSource::Channel(source),
                SolverPolicy::default(),
                &fleet,
                &telemetry,
                None,
                move |packet| order.observe(packet),
            )
        })
    };

    let metrics = MetricsServer::bind("127.0.0.1:0", telemetry.clone()).expect("metrics bind");
    let ingest_config = IngestConfig {
        max_sessions: settings.max_sessions,
        shed_backlog: settings.shed_backlog,
        retry_after: Duration::from_secs(0),
        handshake_deadline: Duration::from_secs(2),
        idle_timeout: Duration::from_secs(10),
        ..IngestConfig::default()
    };
    let server = IngestServer::bind("127.0.0.1:0", ingest_config, telemetry.clone(), feed)
        .expect("ingest bind");
    let upstream = server.local_addr();
    let proxy = settings
        .chaos
        .then(|| {
            TcpChaosProxy::bind("127.0.0.1:0", upstream, TcpChaosSpec::hostile(settings.seed))
                .expect("chaos proxy bind")
        });
    let target = proxy.as_ref().map_or(upstream, |p| p.local_addr());

    eprintln!(
        "mote_swarm: {} motes x {} frames ({} lanes) -> {}{} | {} workers, {} max sessions",
        settings.motes,
        settings.frames,
        settings.lanes,
        target,
        if settings.chaos { " (chaos proxy)" } else { "" },
        settings.workers,
        settings.max_sessions,
    );

    let outcome = run_swarm(target, &schedule, &settings);
    let swarm_wall = outcome.wall;

    let mut violations: Vec<String> = Vec::new();
    if !outcome.failures.is_empty() {
        let show = outcome.failures.iter().take(5).cloned().collect::<Vec<_>>().join("; ");
        violations.push(format!("{} motes failed outright: {show}", outcome.failures.len()));
    }

    // Drain: stop accepting, flush every session and the engine.
    let summary = server.drain();
    let report = match engine.join().expect("engine thread") {
        Ok(report) => report,
        Err(e) => {
            eprintln!("FAIL: engine error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let faults = &report.faults;

    // 1. Exact accounting, server side and engine side.
    if summary.frames != faults.frames {
        violations.push(format!(
            "ingest forwarded {} frames but the engine ingested {}",
            summary.frames, faults.frames
        ));
    }
    let buckets = faults.frame_rejects
        + faults.duplicates
        + faults.late
        + faults.decoded
        + faults.concealed_desync
        + faults.quarantined;
    if faults.frames != buckets {
        violations.push(format!(
            "fault accounting leaks: {} frames != {} bucketed \
             (rejects {} + dups {} + late {} + decoded {} + desync {} + quarantined {})",
            faults.frames,
            buckets,
            faults.frame_rejects,
            faults.duplicates,
            faults.late,
            faults.decoded,
            faults.concealed_desync,
            faults.quarantined
        ));
    }
    // Clean runs additionally deliver everything that was sent.
    let sent = outcome.sent;
    if !settings.chaos && outcome.failures.is_empty() {
        let expected = per_mote_frames * settings.motes as u64;
        if faults.decoded + faults.duplicates + faults.late != sent || faults.decoded < expected {
            violations.push(format!(
                "clean swarm lost frames: sent {sent}, decoded {} (+dups {} +late {}), expected {}",
                faults.decoded, faults.duplicates, faults.late, expected
            ));
        }
    }

    // 2. No double emission (resume dedup) and in-order delivery.
    let order_violations = order.violations.load(Ordering::Relaxed);
    if order_violations > 0 {
        violations.push(format!(
            "{order_violations} emissions were out of order or duplicated"
        ));
    }

    // 3. Telemetry balance: gauge at zero, one typed disconnect per session.
    let snap = telemetry.snapshot();
    for state in IngestState::ALL {
        let live = snap.count(FamilyId::IngestSessions, state);
        if live != 0 {
            violations.push(format!("session gauge leaked: {live} stuck in {state:?}"));
        }
    }
    let disconnects = snap.total(FamilyId::IngestDisconnects);
    let accounted_sessions =
        snap.total(FamilyId::IngestAccepted) + snap.total(FamilyId::IngestShed);
    if disconnects != accounted_sessions {
        violations.push(format!(
            "{disconnects} disconnects recorded for {accounted_sessions} sessions"
        ));
    }

    // 4. /healthz recovers once the fleet has flushed.
    let health_deadline = Instant::now() + Duration::from_secs(10);
    let mut health = None;
    while Instant::now() < health_deadline {
        health = http_get(metrics.local_addr(), "/healthz");
        if matches!(health, Some((200, _))) {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    match &health {
        Some((200, _)) => {}
        Some((status, _)) => violations.push(format!("/healthz stuck at {status} after drain")),
        None => violations.push("/healthz unreachable after drain".to_string()),
    }

    // p99 end-to-end latency via the SLO engine's e2e histograms
    // (patients fold modulo MAX_PATIENTS; take the worst fold).
    let p99_ms = (0..MAX_PATIENTS)
        .map(|p| telemetry.e2e(p))
        .filter(|h| h.count() > 0)
        .map(|h| h.snapshot().quantile(0.99))
        .max()
        .unwrap_or(0) as f64
        / 1e6;

    let throughput = faults.frames as f64 / swarm_wall.as_secs_f64().max(1e-9);
    println!(
        "swarm: {} motes, {} sessions ({} shed), {} reconnects, {} shed retries",
        settings.motes,
        summary.sessions,
        summary.sheds,
        outcome.reconnects,
        outcome.shed_retries,
    );
    println!(
        "ingest: {} frames / {} bytes in {:.2}s ({:.0} frames/s saturation)",
        faults.frames,
        summary.bytes,
        swarm_wall.as_secs_f64(),
        throughput,
    );
    println!(
        "decode: {} decoded, {} concealed, {} quarantined, {} rejected, {} dups, {} late; p99 e2e {:.1} ms",
        faults.decoded,
        faults.concealed(),
        faults.quarantined,
        faults.frame_rejects,
        faults.duplicates,
        faults.late,
        p99_ms,
    );
    if let Some(proxy) = &proxy {
        let stats = proxy.stats();
        println!(
            "chaos: {} conns, {} stalls, {} single-byte chunks, {} bit flips, {} truncated, {} aborts",
            stats.connections,
            stats.stalls,
            stats.single_byte_chunks,
            stats.bit_flips,
            stats.truncated_closes,
            stats.aborts,
        );
    }
    if violations.is_empty() {
        println!("mote_swarm: all invariants held");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("FAIL: {v}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SwarmSettings, String> {
        SwarmSettings::from_args(args.iter().map(|&a| a.to_string()))
    }

    #[test]
    fn flags_parse_into_settings() {
        assert_eq!(parse(&[]).unwrap(), SwarmSettings::default());
        let args = ["--motes", "3", "--chaos", "--seed", "9", "--connect", "127.0.0.1:7411"];
        let s = parse(&args).unwrap();
        assert_eq!((s.motes, s.seed, s.chaos), (3, 9, true));
        assert_eq!(s.connect, Some("127.0.0.1:7411".parse().unwrap()));
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        assert_eq!(parse(&["--chaos", "--frames"]).unwrap_err(), "--frames requires a value");
    }

    #[test]
    fn an_unparsable_value_or_unknown_flag_is_an_error() {
        let err = parse(&["--workers", "many"]).unwrap_err();
        assert!(err.starts_with("--workers many: "), "{err}");
        let err = parse(&["--connect", "nowhere"]).unwrap_err();
        assert!(err.starts_with("--connect nowhere: "), "{err}");
        assert_eq!(parse(&["--telemetry-dump"]).unwrap_err(), "unknown flag --telemetry-dump");
    }

    #[test]
    fn an_empty_or_too_wide_swarm_is_an_error() {
        assert!(parse(&["--motes", "0"]).is_err());
        assert!(parse(&["--lanes", "0"]).is_err());
        let lanes = (cs_ingest::MAX_HELLO_LANES + 1).to_string();
        assert!(parse(&["--lanes", &lanes]).unwrap_err().contains("protocol limit"));
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
}
