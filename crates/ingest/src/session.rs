//! One ingest session: admission → handshake → streaming → goodbye.
//!
//! Runs on its own thread (spawned by the accept loop) and owns the
//! connection end to end. Every exit path records exactly one
//! [`IngestDisconnect`] reason and keeps the
//! [`cs_ingest_sessions`](cs_telemetry::FamilyId::IngestSessions)
//! gauge balanced, so the live session table is always reconstructible
//! from telemetry alone.
//!
//! Deadlines are enforced with short poll-quantum read timeouts rather
//! than one long blocking read: a blocked session wakes every
//! [`IngestConfig::poll`](crate::IngestConfig) to recheck the handshake
//! deadline, the idle clock, the read-rate floor, and the server drain
//! flag — so no client, however hostile, can hold a thread past its
//! budgets.

use crate::deframe::Deframer;
use crate::proto::{
    self, Control, ControlCode, Hello, CONTROL_BYTES, MAX_HELLO_BYTES,
};
use crate::server::Shared;
use cs_core::WireFrame;
use cs_telemetry::{IngestDisconnect, IngestState};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Serializes and sends one control record with a bounded write.
fn send_control(stream: &mut TcpStream, code: ControlCode, retry_after: Duration, count: u64) {
    let mut buf = [0u8; CONTROL_BYTES];
    proto::encode_control(
        Control {
            code,
            retry_after_secs: retry_after.as_secs().min(u16::MAX as u64) as u16,
            count: count.min(u32::MAX as u64) as u32,
        },
        &mut buf,
    );
    let _ = stream.write_all(&buf);
}

enum HandshakeFail {
    Timeout,
    Malformed,
    Closed,
    Io,
}

/// Reads the hello under the handshake deadline, polling so the budget
/// is enforced even against one-byte-at-a-time senders.
fn read_hello(stream: &mut TcpStream, shared: &Shared) -> Result<Hello, HandshakeFail> {
    let deadline = Instant::now() + shared.config.handshake_deadline;
    let mut buf = [0u8; MAX_HELLO_BYTES];
    let mut filled = 0usize;
    loop {
        if let Some(len) = proto::hello_len(&buf[..filled]) {
            if len > MAX_HELLO_BYTES {
                return Err(HandshakeFail::Malformed);
            }
            if filled >= len {
                return proto::parse_hello(&buf[..len]).map_err(|_| HandshakeFail::Malformed);
            }
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(HandshakeFail::Timeout);
        }
        let timeout = (deadline - now).min(shared.config.poll);
        if stream.set_read_timeout(Some(timeout)).is_err() {
            return Err(HandshakeFail::Io);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(HandshakeFail::Closed),
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(HandshakeFail::Io),
        }
    }
}

/// Runs one connection to completion. Never panics on wire input; every
/// return path has already sent whatever control record the peer is
/// owed and recorded its disconnect reason.
pub(crate) fn run(mut stream: TcpStream, shared: &Shared) {
    let telemetry = &shared.telemetry;
    let config = shared.config;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));

    if !shared.admission.try_admit(shared.feed.len()) {
        telemetry.record_ingest_shed();
        telemetry.record_ingest_disconnect(IngestDisconnect::Shed);
        send_control(&mut stream, ControlCode::Shed, config.retry_after, 0);
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    shared.sessions_served.fetch_add(1, Ordering::Relaxed);
    telemetry.ingest_session_enter(IngestState::Handshaking);

    let hello = match read_hello(&mut stream, shared) {
        Ok(hello) => hello,
        Err(fail) => {
            let reason = match fail {
                HandshakeFail::Timeout => IngestDisconnect::HandshakeTimeout,
                HandshakeFail::Malformed => {
                    send_control(&mut stream, ControlCode::BadHandshake, Duration::ZERO, 0);
                    IngestDisconnect::BadHandshake
                }
                HandshakeFail::Closed => IngestDisconnect::ClientClosed,
                HandshakeFail::Io => IngestDisconnect::IoError,
            };
            telemetry.ingest_session_exit(IngestState::Handshaking);
            telemetry.record_ingest_disconnect(reason);
            shared.admission.release();
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };

    let slot = shared.slot(hello.patient);
    send_control(&mut stream, ControlCode::Accept, Duration::ZERO, hello.lanes.len() as u64);
    telemetry.ingest_session_exit(IngestState::Handshaking);
    telemetry.ingest_session_enter(IngestState::Streaming);

    let (state, reason, frames) = stream_frames(&mut stream, shared, slot);
    let goodbye = match reason {
        IngestDisconnect::IdleTimeout | IngestDisconnect::SlowLoris => ControlCode::Evicted,
        _ => ControlCode::Goodbye,
    };
    send_control(&mut stream, goodbye, Duration::ZERO, frames);
    telemetry.ingest_session_exit(state);
    telemetry.record_ingest_disconnect(reason);
    shared.admission.release();
    let _ = stream.shutdown(Shutdown::Both);
}

/// The streaming phase: deframe, forward, enforce budgets. Returns the
/// gauge state the session ended in, the disconnect reason, and the
/// frame count for the goodbye record.
fn stream_frames(
    stream: &mut TcpStream,
    shared: &Shared,
    slot: usize,
) -> (IngestState, IngestDisconnect, u64) {
    let telemetry = &shared.telemetry;
    let config = shared.config;
    let mut deframer = Deframer::new();
    let mut frames: u64 = 0;
    let mut state = IngestState::Streaming;
    let mut last_data = Instant::now();
    let mut window_start = Instant::now();
    let mut window_bytes: u64 = 0;
    let mut drain_deadline: Option<Instant> = None;
    if stream.set_read_timeout(Some(config.poll)).is_err() {
        return (state, IngestDisconnect::IoError, frames);
    }

    loop {
        if state != IngestState::Draining && shared.drain.load(Ordering::SeqCst) {
            // Announce the drain; the client finishes its sends and
            // closes, and we keep ingesting until EOF or the grace cap.
            send_control(stream, ControlCode::Draining, config.retry_after, frames);
            telemetry.ingest_session_exit(IngestState::Streaming);
            telemetry.ingest_session_enter(IngestState::Draining);
            state = IngestState::Draining;
            drain_deadline = Some(Instant::now() + config.drain_grace);
        }
        if let Some(deadline) = drain_deadline {
            if Instant::now() >= deadline {
                return (state, IngestDisconnect::Drained, frames);
            }
        }

        match stream.read(deframer.spare()) {
            Ok(0) => {
                let reason = if state == IngestState::Draining {
                    IngestDisconnect::Drained
                } else {
                    IngestDisconnect::ClientClosed
                };
                return (state, reason, frames);
            }
            Ok(n) => {
                deframer.commit(n);
                last_data = Instant::now();
                window_bytes += n as u64;
                let mut batch_frames: u64 = 0;
                let mut batch_bytes: u64 = 0;
                while let Some(record) = deframer.next_frame() {
                    batch_frames += 1;
                    batch_bytes += record.len() as u64;
                    let frame = WireFrame { stream: slot, bytes: record.to_vec() };
                    // Blocking send: decode backpressure slows this
                    // socket instead of dropping diagnostic data. New
                    // sessions shed at admission when this backs up.
                    if shared.feed.send(frame).is_err() {
                        return (state, IngestDisconnect::IoError, frames + batch_frames);
                    }
                }
                if batch_frames > 0 {
                    frames += batch_frames;
                    shared.frames.fetch_add(batch_frames, Ordering::Relaxed);
                    shared.bytes.fetch_add(batch_bytes, Ordering::Relaxed);
                    telemetry.record_ingest_frames(batch_frames, batch_bytes);
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if state != IngestState::Draining && last_data.elapsed() >= config.idle_timeout {
                    return (state, IngestDisconnect::IdleTimeout, frames);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return (state, IngestDisconnect::IoError, frames),
        }

        if state != IngestState::Draining
            && config.floor_bytes > 0
            && window_start.elapsed() >= config.floor_window
        {
            // A trickle below the floor is a slow-loris; full silence is
            // the idle timeout's call.
            if window_bytes > 0 && window_bytes < config.floor_bytes {
                return (state, IngestDisconnect::SlowLoris, frames);
            }
            window_start = Instant::now();
            window_bytes = 0;
        }
    }
}
