//! The shipped daemon end to end: `cs-ingestd` as a child process on
//! ephemeral ports, fed over TCP by [`IngestClient`] or by the shipped
//! `mote_swarm` load generator (straight, or through a seeded
//! [`TcpChaosProxy`]), scraped over HTTP, drained through stdin, with
//! its archive read back from disk and decoded by the shipped
//! `archive_replay`.
//!
//! Every wait is bounded: a child that stalls is killed and the test
//! fails instead of hanging the suite.

use cs_archive::Archive;
use cs_core::{uniform_codebook, Encoder, SystemConfig};
use cs_ingest::{Connect, ControlCode, IngestClient, LaneResume};
use cs_platform::{TcpChaosProxy, TcpChaosSpec, TcpChaosStats};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long any one step may take before the daemon counts as stalled.
const STALL: Duration = Duration::from_secs(10);

/// How long a whole swarm run, or the drain after it, may take. A debug
/// decoder runs at about 50 frames/s on two cores, so this is a hang
/// detector, not a pace-setter.
const SOAK_STALL: Duration = Duration::from_secs(300);

/// Frames each swarm mote streams on its one lane.
const SOAK_FRAMES: u64 = 6;

/// The six `/metrics` rows a live decode must populate.
const ROWS: [&str; 6] = [
    "cs_stage_latency_ns_bucket{stage=\"fista_solve\"",
    "cs_fault_total{kind=\"concealed_loss\"",
    "cs_e2e_latency_seconds_bucket{patient=\"0\"",
    "cs_patient_health{patient=\"0\",state=\"healthy\"} 1",
    "cs_slo_burn_rate{patient=\"0\",window=\"fast\"",
    "cs_lane_freshness_seconds{patient=\"0\"",
];

/// A running child (`cs-ingestd`, `mote_swarm` or `archive_replay`),
/// killed on drop so a failed assertion never leaves it behind.
struct Daemon {
    child: Child,
    stderr: Receiver<String>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        Daemon::run(env!("CARGO_BIN_EXE_cs-ingestd"), args)
    }

    fn run(program: &str, args: &[&str]) -> Daemon {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {program}: {e}"));
        let (tx, stderr) = mpsc::channel();
        let pipe = child.stderr.take().unwrap();
        std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Daemon { child, stderr }
    }

    /// The ingest and metrics addresses from the start-up announcement,
    /// "cs-ingestd: ingest on A, metrics on B, <arm> kernels; …".
    fn addresses(&self) -> (String, String) {
        let announce = self.stderr.recv_timeout(STALL).expect("cs-ingestd announced nothing");
        let (ingest, metrics) = announce
            .strip_prefix("cs-ingestd: ingest on ")
            .and_then(|rest| rest.split_once(", metrics on "))
            .and_then(|(ingest, rest)| Some((ingest, rest.split_once(',')?.0)))
            .unwrap_or_else(|| panic!("unexpected announcement: {announce}"));
        (ingest.to_string(), metrics.to_string())
    }

    /// Waits up to `limit` for the exit, killing the child and failing
    /// if it does not come; returns the status and stdout.
    fn wait(&mut self, limit: Duration) -> (ExitStatus, String) {
        let deadline = Instant::now() + limit;
        let status = loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                break status;
            }
            assert!(Instant::now() < deadline, "child did not exit within {limit:?}");
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut stdout = String::new();
        self.child.stdout.take().unwrap().read_to_string(&mut stdout).unwrap();
        (status, stdout)
    }

    /// Writes `drain` and waits up to `limit` for the accounting JSON.
    fn drain(&mut self, limit: Duration) -> String {
        writeln!(self.child.stdin.as_mut().unwrap(), "drain").unwrap();
        let (status, summary) = self.wait(limit);
        assert!(status.success(), "cs-ingestd exited {status}: {summary}");
        summary
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `k` wire frames for lane 0, encoded as the daemon decodes them.
fn frames(k: usize) -> Vec<Vec<u8>> {
    let config = SystemConfig::paper_default();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    let mut encoder = Encoder::new(&config, codebook).unwrap();
    let n = config.packet_len();
    (0..k)
        .map(|p| {
            let samples: Vec<i16> = (0..n)
                .map(|i| {
                    let t = i as f64 / n as f64;
                    let spike = (-((t - 0.3 + p as f64 * 0.003) * 40.0).powi(2)).exp();
                    (900.0 * spike + 60.0 * (t * 12.0).sin()) as i16
                })
                .collect();
            encoder.encode_packet(&samples).unwrap().to_bytes_tagged(0)
        })
        .collect()
}

/// One HTTP/1.1 GET: the status code and the body.
fn get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(STALL)).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response.get(9..12).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = response.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    (status, body.to_string())
}

/// The value of `"key":N` in the daemon's one-line JSON summary.
fn field(json: &str, key: &str) -> u64 {
    let tail =
        json.split_once(&format!("\"{key}\":")).unwrap_or_else(|| panic!("no {key} in {json}")).1;
    tail[..tail.find([',', '}']).unwrap()].parse().unwrap()
}

#[test]
fn streams_scrapes_drains_and_archives() {
    const K: usize = 4;
    let archive = std::env::temp_dir().join(format!("cs-ingestd-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&archive);
    let mut daemon = Daemon::spawn(&[
        "--listen",
        "127.0.0.1:0",
        "--metrics",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--archive",
        archive.to_str().unwrap(),
    ]);
    let (ingest, metrics) = daemon.addresses();

    let sent = frames(K);
    let lanes = [LaneResume { lane: 0, resume_from: 0 }];
    let Connect::Accepted(mut client) =
        IngestClient::connect(&ingest, 0, &lanes, 0, STALL).unwrap()
    else {
        panic!("cs-ingestd refused the only session")
    };
    for frame in &sent {
        client.send_frame(frame).unwrap();
    }
    let goodbye = client.finish(STALL).unwrap();
    assert_eq!((goodbye.code, goodbye.count), (ControlCode::Goodbye, K as u32));

    // The solve and e2e rows appear once the worker has decoded.
    let deadline = Instant::now() + STALL;
    loop {
        let (status, body) = get(&metrics, "/metrics");
        assert_eq!(status, 200);
        let missing: Vec<_> = ROWS.iter().filter(|row| !body.contains(*row)).collect();
        if missing.is_empty() {
            break;
        }
        assert!(Instant::now() < deadline, "/metrics never showed {missing:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(get(&metrics, "/healthz").0, 200, "a healthy run is live");

    let summary = daemon.drain(STALL);
    for key in ["frames", "decoded", "windows"] {
        assert_eq!(field(&summary, key), K as u64, "{key} in {summary}");
    }
    assert_eq!(field(&summary, "quarantined"), 0, "{summary}");

    let (stored, _) = Archive::open(&archive).unwrap();
    let replayed = stored.replay_stream(0).unwrap();
    assert_eq!(replayed.len(), K, "the archive holds every frame");
    assert!(replayed == sent, "the archive holds the frames byte for byte");

    // The replay tool decodes the archive as the daemon decoded the wire.
    let mut replay =
        Daemon::run(env!("CARGO_BIN_EXE_archive_replay"), &[archive.to_str().unwrap()]);
    let (status, json) = replay.wait(STALL);
    assert!(status.success(), "archive_replay exited {status}: {json}");
    for key in ["frames", "decoded"] {
        assert_eq!(field(&json, key), K as u64, "{key} in {json}");
    }
    assert_eq!(field(&json, "quarantined"), 0, "{json}");
    let _ = std::fs::remove_dir_all(&archive);
}

/// The sum of every `/metrics` sample whose line starts with `prefix`.
fn samples(body: &str, prefix: &str) -> u64 {
    body.lines()
        .filter(|line| line.starts_with(prefix))
        .filter_map(|line| line.rsplit_once(' ')?.1.parse::<u64>().ok())
        .sum()
}

/// One swarm soak against a fresh daemon, straight or through a seeded
/// hostile proxy: checks the books from outside both processes and
/// returns the drain JSON, the swarm's JSON, and the proxy's tallies.
fn soak(motes: u64, chaos: Option<u64>) -> (String, String, Option<TcpChaosStats>) {
    let mut daemon = Daemon::spawn(&[
        "--listen", "127.0.0.1:0", "--metrics", "127.0.0.1:0",
        "--workers", "4", "--feed-capacity", "512", "--shed-backlog", "512",
        "--handshake-ms", "2000", "--idle-ms", "10000", "--max-sessions", "8",
    ]);
    let (ingest, metrics) = daemon.addresses();
    let proxy = chaos.map(|seed| {
        let upstream = ingest.parse().unwrap();
        TcpChaosProxy::bind("127.0.0.1:0", upstream, TcpChaosSpec::hostile(seed)).unwrap()
    });
    let target = proxy.as_ref().map_or(ingest, |p| p.local_addr().to_string());
    let (motes_arg, frames_arg) = (motes.to_string(), SOAK_FRAMES.to_string());
    let mut swarm = Daemon::run(
        env!("CARGO_BIN_EXE_mote_swarm"),
        &["--connect", &target, "--motes", &motes_arg, "--frames", &frames_arg],
    );
    let (status, swarm_json) = swarm.wait(SOAK_STALL);
    let errors: Vec<String> = swarm.stderr.try_iter().collect();
    assert!(status.success(), "mote_swarm exited {status}: {swarm_json} {errors:?}");
    assert_eq!(field(&swarm_json, "failed"), 0, "{swarm_json}");

    // Telemetry balance: every session has left the gauge, and each one
    // admitted or shed ended in exactly one typed disconnect. The server
    // answers a peer before it books the session, so poll.
    let deadline = Instant::now() + STALL;
    loop {
        let body = get(&metrics, "/metrics").1;
        let live = samples(&body, "cs_ingest_sessions{");
        let disconnects = samples(&body, "cs_ingest_disconnect_total{");
        let sessions = samples(&body, "cs_ingest_sessions_total ")
            + samples(&body, "cs_ingest_shed_total ");
        if live == 0 && disconnects == sessions {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{live} sessions still live; {disconnects} disconnects for {sessions} sessions"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let deadline = Instant::now() + STALL;
    while get(&metrics, "/healthz").0 != 200 {
        assert!(Instant::now() < deadline, "/healthz never recovered after the swarm");
        std::thread::sleep(Duration::from_millis(100));
    }

    let json = daemon.drain(SOAK_STALL);
    let at = |key| field(&json, key);
    // Exact accounting: the server forwarded every frame it counted, and
    // the engine put each one it ingested in exactly one bucket.
    assert_eq!(at("frames"), at("ingested"), "server and engine disagree: {json}");
    let buckets = ["rejected", "duplicates", "late", "decoded", "desync", "quarantined"];
    assert_eq!(at("ingested"), buckets.map(at).iter().sum::<u64>(), "a frame leaked: {json}");
    assert!(at("windows") <= motes * SOAK_FRAMES, "more windows than sent: {json}");
    (json, swarm_json, proxy.map(|p| p.stats()))
}

#[test]
fn swarm_soak_balances_the_books_clean_and_under_chaos() {
    // The optimizer's profile, and half of it for a debug decoder (about
    // 50 frames/s on two cores). Either makes at least 100 connections,
    // and the seed-7 proxy truncates the 31st one's first chunk and flips
    // a bit in the 88th one's, so the coverage asserts below hold by
    // construction, not by luck.
    let motes = if cfg!(debug_assertions) { 100 } else { 200 };
    let expected = motes * SOAK_FRAMES;

    let (json, swarm, _) = soak(motes, None);
    let at = |key| field(&json, key);
    // Clean delivery: every window once, every sent frame accounted for.
    assert_eq!((at("decoded"), at("windows")), (expected, expected), "{json}");
    let landed = at("decoded") + at("duplicates") + at("late");
    assert_eq!(landed, field(&swarm, "sent"), "{json} {swarm}");
    assert!(at("sheds") > 0, "admission never shed, so shedding went untested: {json}");

    let (json, swarm, stats) = soak(motes, Some(7));
    let stats = stats.unwrap();
    assert!(field(&swarm, "reconnects") > 0, "no mote reconnected: {swarm}");
    assert!(stats.aborts + stats.truncated_closes > 0, "no connection was torn: {stats:?}");
    assert!(stats.bit_flips > 0, "no bit was flipped: {stats:?} {json}");
}

/// Runs `program` to its exit with `args` and returns the code and stderr.
fn refused(program: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut daemon = Daemon::run(program, args);
    let code = daemon.wait(STALL).0.code();
    // The reader hangs up at the pipe's end, right after the exit.
    let stderr: Vec<String> =
        std::iter::from_fn(|| daemon.stderr.recv_timeout(STALL).ok()).collect();
    (code, stderr.join("\n"))
}

#[test]
fn bad_flags_exit_2_with_usage() {
    let daemon = env!("CARGO_BIN_EXE_cs-ingestd");
    let (code, stderr) = refused(daemon, &["--max-sessions", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--max-sessions and --shed-backlog must be positive"), "{stderr}");
    assert!(stderr.contains("usage: cs-ingestd"), "{stderr}");

    let (code, stderr) = refused(daemon, &["--bogus"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
    assert!(stderr.contains("usage: cs-ingestd"), "{stderr}");
}

#[test]
fn archive_replay_refuses_a_bad_flag_a_missing_dir_and_an_empty_archive() {
    let replay = env!("CARGO_BIN_EXE_archive_replay");
    let empty = std::env::temp_dir().join(format!("cs-archive-replay-empty-{}", std::process::id()));
    std::fs::create_dir_all(&empty).unwrap();
    let missing = empty.join("missing");
    for (args, error) in [
        (vec!["--bogus"], "unknown flag --bogus".to_string()),
        (vec![missing.to_str().unwrap()], format!("no archive directory at {}", missing.display())),
        (vec![empty.to_str().unwrap()], format!("{} holds no records", empty.display())),
    ] {
        let (code, stderr) = refused(replay, &args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&error) && stderr.contains("usage: archive_replay"), "{stderr}");
    }
    assert!(!missing.exists(), "a missing directory stays missing");
    std::fs::remove_dir_all(&empty).unwrap();
}
