//! The shipped daemon end to end: `cs-ingestd` as a child process on
//! ephemeral ports, fed over TCP by [`IngestClient`], scraped over HTTP,
//! drained through stdin, with its archive read back from disk.
//!
//! Every wait is bounded: a daemon that stalls is killed and the test
//! fails instead of hanging the suite.

use cs_archive::Archive;
use cs_core::{uniform_codebook, Encoder, SystemConfig};
use cs_ingest::{Connect, ControlCode, IngestClient, LaneResume};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long any one step may take before the daemon counts as stalled.
const STALL: Duration = Duration::from_secs(10);

/// The six `/metrics` rows a live decode must populate.
const ROWS: [&str; 6] = [
    "cs_stage_latency_ns_bucket{stage=\"fista_solve\"",
    "cs_fault_total{kind=\"concealed_loss\"",
    "cs_e2e_latency_seconds_bucket{patient=\"0\"",
    "cs_patient_health{patient=\"0\",state=\"healthy\"} 1",
    "cs_slo_burn_rate{patient=\"0\",window=\"fast\"",
    "cs_lane_freshness_seconds{patient=\"0\"",
];

/// A running `cs-ingestd`, killed on drop so a failed assertion never
/// leaves it behind.
struct Daemon {
    child: Child,
    stderr: Receiver<String>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cs-ingestd"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn cs-ingestd");
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

    /// Waits for the exit, killing the daemon and failing if it does not come.
    fn wait(&mut self) -> ExitStatus {
        let deadline = Instant::now() + STALL;
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return status;
            }
            assert!(Instant::now() < deadline, "cs-ingestd did not exit within {STALL:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
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
    // "cs-ingestd: ingest on A, metrics on B, <arm> kernels; …"
    let announce = daemon.stderr.recv_timeout(STALL).expect("cs-ingestd announced nothing");
    let (ingest, metrics) = announce
        .strip_prefix("cs-ingestd: ingest on ")
        .and_then(|rest| rest.split_once(", metrics on "))
        .and_then(|(ingest, rest)| Some((ingest, rest.split_once(',')?.0)))
        .unwrap_or_else(|| panic!("unexpected announcement: {announce}"));
    let (ingest, metrics) = (ingest.to_string(), metrics.to_string());

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

    writeln!(daemon.child.stdin.as_mut().unwrap(), "drain").unwrap();
    let status = daemon.wait();
    let mut summary = String::new();
    daemon.child.stdout.take().unwrap().read_to_string(&mut summary).unwrap();
    assert!(status.success(), "cs-ingestd exited {status}: {summary}");
    for key in ["frames", "decoded", "windows"] {
        assert_eq!(field(&summary, key), K as u64, "{key} in {summary}");
    }
    assert_eq!(field(&summary, "quarantined"), 0, "{summary}");

    let (stored, _) = Archive::open(&archive).unwrap();
    let replayed = stored.replay_stream(0).unwrap();
    assert_eq!(replayed.len(), K, "the archive holds every frame");
    assert!(replayed == sent, "the archive holds the frames byte for byte");
    let _ = std::fs::remove_dir_all(&archive);
}

/// Runs the daemon to its exit with `args` and returns the code and stderr.
fn refused(args: &[&str]) -> (Option<i32>, String) {
    let mut daemon = Daemon::spawn(args);
    let code = daemon.wait().code();
    // The reader hangs up at the pipe's end, right after the exit.
    let stderr: Vec<String> =
        std::iter::from_fn(|| daemon.stderr.recv_timeout(STALL).ok()).collect();
    (code, stderr.join("\n"))
}

#[test]
fn bad_flags_exit_2_with_usage() {
    let (code, stderr) = refused(&["--max-sessions", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--max-sessions and --shed-backlog must be positive"), "{stderr}");
    assert!(stderr.contains("usage: cs-ingestd"), "{stderr}");

    let (code, stderr) = refused(&["--bogus"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
    assert!(stderr.contains("usage: cs-ingestd"), "{stderr}");
}
