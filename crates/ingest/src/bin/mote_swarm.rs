//! mote_swarm — load generator for `cs-ingestd`: hundreds of motes fan
//! into one ingest service.
//!
//! Runs `--motes` TCP clients over a pool of `--concurrency` threads.
//! Each performs the versioned handshake and streams `--frames` encoded
//! windows per lane. A mote whose connection tears reconnects under the
//! same patient and replays its unacked tail (the engine dedups); a mote
//! shed by admission retries after the server's hint.
//!
//! ```text
//! cargo run --release -p cs-ingest --bin mote_swarm -- --connect HOST:PORT \
//!     [--motes 200] [--frames 6] [--lanes 1] [--concurrency 128]
//! ```
//!
//! Prints one JSON line (`motes`, `sent`, `reconnects`, `shed_retries`,
//! `failed`) and exits 1 if any mote failed. The server's side of the
//! books is `cs-ingestd`'s drain JSON; `tests/daemon.rs` checks the two
//! against each other, clean and through a chaos proxy.

use cs_core::{uniform_codebook, Encoder, SystemConfig};
use cs_ingest::{Connect, Control, ControlCode, IngestClient, LaneResume};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: mote_swarm --connect HOST:PORT [--motes N] [--frames N] [--lanes N] \
[--concurrency N]";

#[derive(Debug, Clone, Copy, PartialEq)]
struct SwarmSettings {
    connect: SocketAddr,
    motes: usize,
    frames: usize,
    lanes: usize,
    concurrency: usize,
}

impl SwarmSettings {
    /// Parses the command line (without the program name).
    ///
    /// # Errors
    ///
    /// An unknown flag, a flag whose value is missing or unparsable, no
    /// `--connect`, an empty swarm, or more lanes than the protocol
    /// carries.
    fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut motes, mut frames, mut lanes, mut concurrency) = (200, 6, 1, 128);
        let mut connect = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} requires a value"));
            match flag.as_str() {
                "--connect" => connect = Some(number(&flag, value()?)?),
                "--motes" => motes = number(&flag, value()?)?,
                "--frames" => frames = number(&flag, value()?)?,
                "--lanes" => lanes = number(&flag, value()?)?,
                "--concurrency" => concurrency = number(&flag, value()?)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let connect = connect.ok_or("--connect HOST:PORT is required")?;
        if motes == 0 || frames == 0 || lanes == 0 {
            return Err("--motes, --frames and --lanes must be positive".into());
        }
        if lanes > cs_ingest::MAX_HELLO_LANES {
            let limit = cs_ingest::MAX_HELLO_LANES;
            return Err(format!("--lanes {lanes} exceeds the protocol limit {limit}"));
        }
        Ok(SwarmSettings { connect, motes, frames, lanes, concurrency })
    }
}

/// `value` as the type `flag` takes.
fn number<V: std::str::FromStr>(flag: &str, value: String) -> Result<V, String>
where
    V::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value}: {e}"))
}

/// Pre-encodes the frame schedule one mote streams: `frames` windows per
/// lane, interleaved lane-major per window so lanes advance together.
/// Every mote sends the same bytes (distinct patients keep streams
/// distinct), so a 10k-mote swarm costs one encode.
fn mote_schedule(settings: &SwarmSettings) -> Vec<Vec<u8>> {
    let config = SystemConfig::paper_default();
    let n = config.packet_len();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).expect("codebook"));
    let mut encoders: Vec<Encoder> = (0..settings.lanes)
        .map(|_| Encoder::new(&config, Arc::clone(&codebook)).expect("encoder"))
        .collect();
    let mut schedule = Vec::with_capacity(settings.frames * settings.lanes);
    for k in 0..settings.frames {
        for (lane, encoder) in encoders.iter_mut().enumerate() {
            let phase = k as f64 * 0.003 + lane as f64 * 0.001;
            let samples: Vec<i16> = (0..n)
                .map(|i| {
                    let t = i as f64 / n as f64;
                    let spike = (-((t - 0.3 + phase) * 40.0).powi(2)).exp()
                        + (-((t - 0.8 + phase) * 40.0).powi(2)).exp();
                    (900.0 * spike + 60.0 * (t * 12.0).sin()) as i16
                })
                .collect();
            let packet = encoder.encode_packet(&samples).expect("encode");
            schedule.push(packet.to_bytes_tagged(lane as u8));
        }
    }
    schedule
}

/// One mote's run: handshake (with shed retries), stream, resume on
/// tears, finish. Returns (frames sent, shed retries, reconnects) or an
/// error string for a mote that ran out its clock.
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
    let mut tail = VecDeque::new();
    let (mut sent, mut sheds, mut reconnects) = (0u64, 0u64, 0u64);
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
        let connect =
            IngestClient::connect(addr, patient, &lane_set, schedule.len(), Duration::from_secs(5));
        let mut client = match connect {
            Ok(Connect::Accepted(client)) => {
                backoff = Duration::from_millis(5);
                client
            }
            Ok(Connect::Refused(control)) if control.code == ControlCode::Shed => {
                sheds += 1;
                let hint = Duration::from_secs(control.retry_after_secs as u64);
                std::thread::sleep(hint.min(Duration::from_millis(50)));
                back_off(&mut backoff);
                continue;
            }
            // Chaos can kill the handshake itself, or flip a bit in the
            // hello (a bad handshake server-side, retryable here).
            Err(_) | Ok(Connect::Refused(Control { code: ControlCode::BadHandshake, .. })) => {
                reconnects += 1;
                back_off(&mut backoff);
                continue;
            }
            Ok(Connect::Refused(control)) => {
                return Err(format!("mote {patient} refused with {:?}", control.code));
            }
        };
        if cursor > 0 {
            reconnects += 1;
            // Resume: replay the unacked tail; the engine dedups. If the
            // replay tears too, the old tail is still the one to send.
            if client.replay(&tail).is_err() {
                continue;
            }
            sent += tail.len() as u64;
        }
        let mut torn = false;
        while cursor < schedule.len() {
            if client.send_frame(&schedule[cursor]).is_err() {
                torn = true;
                break;
            }
            cursor += 1;
            sent += 1;
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
            Ok(control) => return Err(format!("mote {patient}: goodbye was {:?}", control.code)),
            Err(_) => {
                // Goodbye lost to chaos: the tail frames may or may not
                // have landed. Replay the whole schedule on a reconnect so
                // the server surely has everything (dedup makes it free).
                tail = schedule
                    .iter()
                    .map(|frame| {
                        let mut record = Vec::new();
                        cs_ingest::encode_record(frame, &mut record);
                        record
                    })
                    .collect();
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn main() -> ExitCode {
    let settings = match SwarmSettings::from_args(std::env::args().skip(1)) {
        Ok(settings) => settings,
        Err(e) => {
            eprintln!("mote_swarm: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let schedule = mote_schedule(&settings);
    eprintln!(
        "mote_swarm: {} motes x {} frames ({} lanes) -> {}",
        settings.motes, settings.frames, settings.lanes, settings.connect,
    );

    // A fixed pool claims mote ids off a shared cursor until every mote
    // has run to completion or error.
    let next_mote = AtomicUsize::new(0);
    let totals = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
    let failures = Mutex::new(Vec::<String>::new());
    std::thread::scope(|scope| {
        for _ in 0..settings.concurrency.clamp(1, settings.motes) {
            scope.spawn(|| loop {
                let mote = next_mote.fetch_add(1, Ordering::Relaxed);
                if mote >= settings.motes {
                    break;
                }
                match run_mote(settings.connect, mote as u32, &schedule, settings.lanes) {
                    Ok(counts) => {
                        for (total, n) in totals.iter().zip([counts.0, counts.1, counts.2]) {
                            total.fetch_add(n, Ordering::Relaxed);
                        }
                    }
                    Err(e) => failures.lock().expect("failure list").push(e),
                }
            });
        }
    });
    let [sent, shed_retries, reconnects] = totals.map(AtomicU64::into_inner);
    let failures = failures.into_inner().expect("pool joined");
    println!(
        "{{\"motes\":{},\"sent\":{sent},\"reconnects\":{reconnects},\
         \"shed_retries\":{shed_retries},\"failed\":{}}}",
        settings.motes,
        failures.len(),
    );
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    for failure in failures.iter().take(5) {
        eprintln!("mote_swarm: {failure}");
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SwarmSettings, String> {
        SwarmSettings::from_args(args.iter().map(|&a| a.to_string()))
    }

    #[test]
    fn flags_parse_into_settings() {
        let s = parse(&["--motes", "3", "--connect", "127.0.0.1:7411"]).unwrap();
        assert_eq!(s.connect, "127.0.0.1:7411".parse().unwrap());
        assert_eq!((s.motes, s.frames, s.lanes, s.concurrency), (3, 6, 1, 128));
        assert_eq!(parse(&["--motes", "3"]).unwrap_err(), "--connect HOST:PORT is required");
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        assert_eq!(parse(&["--motes", "2", "--frames"]).unwrap_err(), "--frames requires a value");
    }

    #[test]
    fn an_unparsable_value_or_unknown_flag_is_an_error() {
        let err = parse(&["--concurrency", "many"]).unwrap_err();
        assert!(err.starts_with("--concurrency many: "), "{err}");
        let err = parse(&["--connect", "nowhere"]).unwrap_err();
        assert!(err.starts_with("--connect nowhere: "), "{err}");
        assert_eq!(parse(&["--chaos"]).unwrap_err(), "unknown flag --chaos");
    }

    #[test]
    fn an_empty_or_too_wide_swarm_is_an_error() {
        let at = |flag: &str, value: &str| parse(&["--connect", "127.0.0.1:1", flag, value]);
        assert!(at("--motes", "0").is_err());
        assert!(at("--lanes", "0").is_err());
        let lanes = (cs_ingest::MAX_HELLO_LANES + 1).to_string();
        assert!(at("--lanes", &lanes).unwrap_err().contains("protocol limit"));
    }
}
