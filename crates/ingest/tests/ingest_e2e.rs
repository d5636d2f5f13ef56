//! End-to-end ingest service tests over real loopback sockets.
//!
//! Each test stands up the full stack — streaming wire engine, ingest
//! listener, protocol clients — and proves one lifecycle contract:
//! admission and decode, typed shedding, handshake deadlines, slow-loris
//! eviction, reconnect-with-resume dedup, and graceful drain with zero
//! loss for well-behaved clients. Timeouts are tuned short so the whole
//! file stays test-suite-fast.

use cs_core::{
    run_fleet, uniform_codebook, Encoder, FleetConfig, FleetReport, FleetSource, SolverPolicy,
    SystemConfig, WireFrame,
};
use cs_ingest::{
    encode_control, hello_len, Connect, Control, ControlCode, IngestClient, IngestConfig,
    IngestServer, LaneResume, CONTROL_BYTES, HELLO_FIXED_BYTES, MAX_HELLO_BYTES,
};
use cs_telemetry::{FamilyId, IngestDisconnect, IngestState, TelemetryRegistry};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn synthetic_packet(n: usize, phase: f64) -> Vec<i16> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            let spike = (-((t - 0.3 + phase) * 40.0).powi(2)).exp();
            (900.0 * spike + 60.0 * (t * 12.0).sin()) as i16
        })
        .collect()
}

/// Pre-encoded wire frames for one patient lane.
fn lane_frames(config: &SystemConfig, count: usize, lane: u8, phase: f64) -> Vec<Vec<u8>> {
    let codebook = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    let mut encoder = Encoder::new(config, codebook).unwrap();
    (0..count)
        .map(|k| {
            let samples = synthetic_packet(config.packet_len(), phase + k as f64 * 0.003);
            encoder.encode_packet(&samples).unwrap().to_bytes_tagged(lane)
        })
        .collect()
}

struct Stack {
    server: IngestServer,
    engine: std::thread::JoinHandle<Result<FleetReport, cs_core::PipelineError>>,
    telemetry: TelemetryRegistry,
    emitted: Arc<AtomicU64>,
}

/// Engine + listener with the given ingest policy.
fn stack(config: &SystemConfig, ingest: IngestConfig) -> Stack {
    let telemetry = TelemetryRegistry::new();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    let (feed, source) = crossbeam::channel::bounded::<WireFrame>(64);
    let emitted = Arc::new(AtomicU64::new(0));
    let engine = {
        let config = config.clone();
        let telemetry = telemetry.clone();
        let emitted = Arc::clone(&emitted);
        std::thread::spawn(move || {
            let fleet = FleetConfig { workers: 2, ..FleetConfig::default() };
            run_fleet::<f32, _>(
                &config,
                codebook,
                FleetSource::Channel(source),
                SolverPolicy::default(),
                &fleet,
                &telemetry,
                None,
                move |_packet| {
                    emitted.fetch_add(1, Ordering::Relaxed);
                },
            )
        })
    };
    let server =
        IngestServer::bind("127.0.0.1:0", ingest, telemetry.clone(), feed).expect("bind ingest");
    Stack { server, engine, telemetry, emitted }
}

fn quick_config() -> SystemConfig {
    SystemConfig::paper_default()
}

/// Waits (bounded) for server-side bookkeeping. The server answers the
/// peer *before* it bumps the matching counter or frees the session slot,
/// so a client that has just read its reply may look a moment too early.
fn eventually(what: &str, condition: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while !condition() {
        assert!(std::time::Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn frames_over_tcp_decode_and_account_exactly() {
    let config = quick_config();
    let stack = stack(&config, IngestConfig::default());
    let frames = lane_frames(&config, 4, 0, 0.0);

    let addr = stack.server.local_addr();
    let lanes = [LaneResume { lane: 0, resume_from: 0 }];
    let Connect::Accepted(mut client) =
        IngestClient::connect(addr, 77, &lanes, 8, Duration::from_secs(2)).unwrap()
    else {
        panic!("admission must accept the first session")
    };
    for frame in &frames {
        client.send_frame(frame).unwrap();
    }
    let goodbye = client.finish(Duration::from_secs(5)).unwrap();
    assert_eq!(goodbye.code, ControlCode::Goodbye);
    assert_eq!(goodbye.count, 4, "goodbye carries the ingested frame count");

    let summary = stack.server.drain();
    let report = stack.engine.join().unwrap().unwrap();
    assert_eq!(summary.frames, 4);
    assert_eq!(summary.patients, 1);
    assert_eq!(report.faults.frames, 4);
    assert_eq!(report.faults.decoded, 4);
    assert_eq!(report.packets_decoded, 4);
    assert_eq!(stack.emitted.load(Ordering::Relaxed), 4);

    // Telemetry: the session gauge is balanced and the disconnect is typed.
    let snap = stack.telemetry.snapshot();
    for state in IngestState::ALL {
        assert_eq!(snap.count(FamilyId::IngestSessions, state), 0, "gauge leaked for {state}");
    }
    assert_eq!(snap.count(FamilyId::IngestDisconnects, IngestDisconnect::ClientClosed), 1);
    assert_eq!(snap.total(FamilyId::IngestFrames), 4);
}

#[test]
fn admission_sheds_with_typed_nack_and_retry_after() {
    let config = quick_config();
    let ingest = IngestConfig {
        max_sessions: 1,
        retry_after: Duration::from_secs(7),
        ..IngestConfig::default()
    };
    let stack = stack(&config, ingest);
    let addr = stack.server.local_addr();
    let lanes = [LaneResume { lane: 0, resume_from: 0 }];

    let Connect::Accepted(first) =
        IngestClient::connect(addr, 1, &lanes, 0, Duration::from_secs(2)).unwrap()
    else {
        panic!("first session fills the only slot")
    };
    let second = IngestClient::connect(addr, 2, &lanes, 0, Duration::from_secs(2)).unwrap();
    let Connect::Refused(nack) = second else {
        panic!("second session must be shed")
    };
    assert_eq!(nack.code, ControlCode::Shed);
    assert_eq!(nack.retry_after_secs, 7, "NACK carries the Retry-After hint");
    eventually("shed never counted", || stack.telemetry.snapshot().total(FamilyId::IngestShed) == 1);

    let goodbye = first.finish(Duration::from_secs(5)).unwrap();
    assert_eq!(goodbye.code, ControlCode::Goodbye);
    // Capacity freed (the slot is released just after the goodbye is
    // written): a retry now succeeds.
    eventually("finished session never released its slot", || {
        stack.server.active_sessions() == 0
    });
    let third = IngestClient::connect(addr, 2, &lanes, 0, Duration::from_secs(2)).unwrap();
    assert!(matches!(third, Connect::Accepted(_)), "released slot re-admits");
    drop(third);
    let summary = stack.server.drain();
    assert_eq!(summary.sheds, 1);
    drop(stack.engine.join().unwrap().unwrap());
}

#[test]
fn partial_hello_is_cut_at_the_handshake_deadline() {
    let config = quick_config();
    let ingest = IngestConfig {
        handshake_deadline: Duration::from_millis(300),
        poll: Duration::from_millis(25),
        ..IngestConfig::default()
    };
    let stack = stack(&config, ingest);
    let mut conn = TcpStream::connect(stack.server.local_addr()).unwrap();
    conn.write_all(&[0xC5, 0x1D]).unwrap(); // two bytes, then silence
    let start = std::time::Instant::now();
    // The server must close us out once the deadline passes.
    let mut buf = Vec::new();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = std::io::Read::read_to_end(&mut conn, &mut buf);
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "stalled hello held its thread past the deadline"
    );
    drop(conn);
    // The disconnect surfaced with the right taxonomy.
    eventually("handshake timeout never recorded", || {
        let snap = stack.telemetry.snapshot();
        snap.count(FamilyId::IngestDisconnects, IngestDisconnect::HandshakeTimeout) == 1
    });
    stack.server.drain();
    drop(stack.engine.join().unwrap().unwrap());
}

#[test]
fn garbage_hello_gets_bad_handshake_nack() {
    let config = quick_config();
    let stack = stack(&config, IngestConfig::default());
    let mut conn = TcpStream::connect(stack.server.local_addr()).unwrap();
    // Valid magic/type but a corrupt CRC.
    let mut hello = cs_ingest::encode_hello(&cs_ingest::Hello {
        patient: 5,
        lanes: vec![LaneResume { lane: 0, resume_from: 0 }],
    });
    let last = hello.len() - 1;
    hello[last] ^= 0xFF;
    conn.write_all(&hello).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; cs_ingest::CONTROL_BYTES];
    std::io::Read::read_exact(&mut conn, &mut buf).unwrap();
    let control = cs_ingest::parse_control(&buf).unwrap();
    assert_eq!(control.code, ControlCode::BadHandshake);
    eventually("bad handshake never recorded", || {
        let snap = stack.telemetry.snapshot();
        snap.count(FamilyId::IngestDisconnects, IngestDisconnect::BadHandshake) == 1
    });
    stack.server.drain();
    drop(stack.engine.join().unwrap().unwrap());
}

#[test]
fn trickling_session_is_evicted_as_slow_loris() {
    let config = quick_config();
    let ingest = IngestConfig {
        floor_window: Duration::from_millis(200),
        floor_bytes: 1024,
        idle_timeout: Duration::from_secs(30),
        poll: Duration::from_millis(25),
        ..IngestConfig::default()
    };
    let stack = stack(&config, ingest);
    let lanes = [LaneResume { lane: 0, resume_from: 0 }];
    let Connect::Accepted(mut client) = IngestClient::connect(
        stack.server.local_addr(),
        3,
        &lanes,
        0,
        Duration::from_secs(2),
    )
    .unwrap() else {
        panic!("admission accepts")
    };
    // Trickle one junk byte per poll: enough to defeat the idle timeout,
    // far under the floor.
    let start = std::time::Instant::now();
    let mut evicted = None;
    while start.elapsed() < Duration::from_secs(5) {
        let frame = [0xAAu8; 1];
        // Raw socket write (not a record): the deframer will hold it as
        // a partial prefix, which is exactly the slow-loris shape.
        if client.send_raw(&frame).is_err() {
            break;
        }
        if let Ok(Some(control)) = client.poll_control() {
            evicted = Some(control);
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    let evicted = evicted.expect("server must evict the trickler");
    assert_eq!(evicted.code, ControlCode::Evicted);
    let snap = stack.telemetry.snapshot();
    assert_eq!(snap.count(FamilyId::IngestDisconnects, IngestDisconnect::SlowLoris), 1);
    stack.server.drain();
    drop(stack.engine.join().unwrap().unwrap());
}

#[test]
fn poll_control_reports_a_server_that_hung_up() {
    // A bare server: read the whole hello, admit, close.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut hello = [0u8; MAX_HELLO_BYTES];
        stream.read_exact(&mut hello[..HELLO_FIXED_BYTES]).unwrap();
        let len = hello_len(&hello).unwrap();
        stream.read_exact(&mut hello[HELLO_FIXED_BYTES..len]).unwrap();
        let mut accept = [0u8; CONTROL_BYTES];
        encode_control(
            Control { code: ControlCode::Accept, retry_after_secs: 0, count: 1 },
            &mut accept,
        );
        stream.write_all(&accept).unwrap();
    });
    let lanes = [LaneResume { lane: 0, resume_from: 0 }];
    let Connect::Accepted(mut client) =
        IngestClient::connect(addr, 5, &lanes, 0, Duration::from_secs(2)).unwrap()
    else {
        panic!("the bare server accepts")
    };
    server.join().unwrap();
    // A caller polling for `Draining` or `Evicted` must learn of the
    // hang-up, not spin on "nothing yet" until its own deadline.
    let start = std::time::Instant::now();
    let err = loop {
        match client.poll_control() {
            Err(e) => break e,
            Ok(control) => assert_eq!(control, None, "the server sent nothing after Accept"),
        }
        assert!(start.elapsed() < Duration::from_secs(2), "poll_control never saw the close");
    };
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
}

#[test]
fn resume_replays_tail_without_double_emission() {
    let config = quick_config();
    let stack = stack(&config, IngestConfig::default());
    let frames = lane_frames(&config, 6, 0, 0.0);
    let addr = stack.server.local_addr();
    let lanes = [LaneResume { lane: 0, resume_from: 0 }];

    // First session: frames 0..4, then the connection "tears" (drop
    // without finish — no goodbye, tail kept).
    let Connect::Accepted(mut first) =
        IngestClient::connect(addr, 42, &lanes, 8, Duration::from_secs(2)).unwrap()
    else {
        panic!("admission accepts")
    };
    for frame in &frames[..4] {
        first.send_frame(frame).unwrap();
    }
    let tail = first.into_tail();
    assert_eq!(tail.len(), 4);

    // Resume: same patient, replay the whole unacked tail, send one new
    // frame, and tear again. The second tail must still hold the replayed
    // records: they were never acknowledged either.
    let resume = |from| {
        let lanes = [LaneResume { lane: 0, resume_from: from }];
        match IngestClient::connect(addr, 42, &lanes, 8, Duration::from_secs(2)).unwrap() {
            Connect::Accepted(client) => client,
            Connect::Refused(control) => panic!("reconnect refused with {:?}", control.code),
        }
    };
    let mut second = resume(2);
    second.replay(&tail).unwrap();
    second.send_frame(&frames[4]).unwrap();
    let tail = second.into_tail();
    let records: Vec<Vec<u8>> = frames[..5]
        .iter()
        .map(|frame| {
            let mut record = Vec::new();
            cs_ingest::encode_record(frame, &mut record);
            record
        })
        .collect();
    assert!(tail.iter().eq(&records), "a second tear keeps the replayed records");

    // Third session: replay that tail, then the last frame.
    let mut third = resume(4);
    third.replay(&tail).unwrap();
    third.send_frame(&frames[5]).unwrap();
    let goodbye = third.finish(Duration::from_secs(5)).unwrap();
    assert_eq!(goodbye.code, ControlCode::Goodbye);

    let summary = stack.server.drain();
    let report = stack.engine.join().unwrap().unwrap();
    // 4 + (4 replayed + 1) + (5 replayed + 1) arrived; the replays dedup
    // inside the engine.
    assert_eq!(summary.frames, 15);
    assert_eq!(summary.patients, 1, "same patient resumes onto the same slot");
    assert_eq!(report.faults.frames, 15);
    assert_eq!(report.faults.duplicates + report.faults.late, 9, "replayed tails dedup");
    assert_eq!(report.faults.decoded, 6);
    assert_eq!(
        stack.emitted.load(Ordering::Relaxed),
        6,
        "no window may be emitted twice after resume"
    );
}

#[test]
fn graceful_drain_loses_nothing_from_wellbehaved_clients() {
    let config = quick_config();
    let ingest = IngestConfig {
        drain_grace: Duration::from_secs(5),
        poll: Duration::from_millis(25),
        ..IngestConfig::default()
    };
    let stack = stack(&config, ingest);
    let frames = Arc::new(lane_frames(&config, 6, 0, 0.0));
    let addr = stack.server.local_addr();

    // A well-behaved client: streams slowly, finishes its in-flight
    // sends and closes when it sees the drain announcement.
    let client_frames = Arc::clone(&frames);
    let client = std::thread::spawn(move || {
        let lanes = [LaneResume { lane: 0, resume_from: 0 }];
        let Connect::Accepted(mut client) =
            IngestClient::connect(addr, 9, &lanes, 0, Duration::from_secs(2)).unwrap()
        else {
            panic!("admission accepts")
        };
        let mut sent = 0usize;
        let mut draining = false;
        for frame in client_frames.iter() {
            client.send_frame(frame).unwrap();
            sent += 1;
            if let Ok(Some(control)) = client.poll_control() {
                if control.code == ControlCode::Draining {
                    draining = true;
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(30));
        }
        let goodbye = client.finish(Duration::from_secs(5)).unwrap();
        (sent, draining, goodbye)
    });

    // Let a few frames flow, then drain mid-stream.
    std::thread::sleep(Duration::from_millis(100));
    let summary = stack.server.drain();
    let (sent, _draining, goodbye) = client.join().unwrap();
    let report = stack.engine.join().unwrap().unwrap();

    assert_eq!(goodbye.code, ControlCode::Goodbye);
    assert_eq!(goodbye.count as usize, sent, "every sent frame was ingested");
    assert_eq!(summary.frames as usize, sent);
    assert_eq!(report.faults.frames as usize, sent);
    assert_eq!(report.faults.decoded as usize, sent, "zero frames lost across the drain");
    let snap = stack.telemetry.snapshot();
    assert_eq!(
        snap.count(FamilyId::IngestDisconnects, IngestDisconnect::Drained)
            + snap.count(FamilyId::IngestDisconnects, IngestDisconnect::ClientClosed),
        1
    );
}
