//! The mote side of the ingest protocol.
//!
//! Used by the load generator (`mote_swarm`) and the integration
//! tests; a firmware port would follow the same shape. The client owns
//! the hello/accept exchange, length-prefixes outgoing frames, keeps a
//! bounded **replay tail** of recently sent records, and surfaces server
//! control records (drain announcements, goodbyes) as they arrive.
//!
//! Resume after a torn connection is deliberately dumb: reconnect under
//! the same patient id and [`replay`](IngestClient::replay) the saved
//! tail. The server maps the patient to the same fleet slot, and the
//! engine's reassembler drops every frame it already emitted — counted
//! as duplicates, never double-emitted — so the client needs no ack
//! tracking beyond "keep the last few records".

use crate::deframe::encode_record;
use crate::proto::{
    encode_hello, parse_control, Control, ControlCode, Hello, LaneResume, CONTROL_BYTES,
};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Outcome of a connection attempt.
#[derive(Debug)]
pub enum Connect {
    /// Admitted; stream frames through the returned client.
    Accepted(IngestClient),
    /// The server answered with a NACK (shed, draining, bad handshake);
    /// the control record carries the `Retry-After` hint.
    Refused(Control),
}

/// One live ingest session, client side.
#[derive(Debug)]
pub struct IngestClient {
    stream: TcpStream,
    record_buf: Vec<u8>,
    tail: VecDeque<Vec<u8>>,
    tail_cap: usize,
    ctrl_buf: [u8; CONTROL_BYTES],
    ctrl_filled: usize,
}

impl IngestClient {
    /// Connects, sends the hello, and waits up to `timeout` for the
    /// server's verdict. `tail_cap` bounds the replay tail (records).
    ///
    /// # Errors
    ///
    /// I/O failures and protocol violations surface as `io::Error`;
    /// typed refusals come back as [`Connect::Refused`].
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        patient: u32,
        lanes: &[LaneResume],
        tail_cap: usize,
        timeout: Duration,
    ) -> std::io::Result<Connect> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(timeout))?;
        let hello = Hello { patient, lanes: lanes.to_vec() };
        stream.write_all(&encode_hello(&hello))?;
        let control = read_control_blocking(&mut stream, timeout)?;
        if control.code != ControlCode::Accept {
            return Ok(Connect::Refused(control));
        }
        Ok(Connect::Accepted(IngestClient {
            stream,
            record_buf: Vec::with_capacity(crate::deframe::MAX_FRAME_BYTES + 2),
            tail: VecDeque::new(),
            tail_cap,
            ctrl_buf: [0u8; CONTROL_BYTES],
            ctrl_filled: 0,
        }))
    }

    /// Sends one wire frame as a length-prefixed record and remembers it
    /// in the replay tail.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures (a torn session; keep the tail
    /// via [`into_tail`](Self::into_tail) and reconnect).
    pub fn send_frame(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.record_buf.clear();
        encode_record(frame, &mut self.record_buf);
        self.stream.write_all(&self.record_buf)?;
        remember(&mut self.tail, self.tail_cap, &self.record_buf);
        Ok(())
    }

    /// Writes raw bytes with no record framing — a chaos/test helper
    /// for producing partial prefixes, trickles, and boundary garbage a
    /// real mote would never send.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Replays a saved tail (already length-prefixed records) from a
    /// previous session, oldest first. Each replayed record joins this
    /// session's tail too, so a second tear still carries it forward.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn replay(&mut self, tail: &VecDeque<Vec<u8>>) -> std::io::Result<()> {
        for record in tail {
            self.stream.write_all(record)?;
            remember(&mut self.tail, self.tail_cap, record);
        }
        Ok(())
    }

    /// Consumes the client, keeping the replay tail for a reconnect.
    pub fn into_tail(self) -> VecDeque<Vec<u8>> {
        self.tail
    }

    /// Non-blocking check for a server control record (e.g. a drain
    /// announcement mid-stream). Partial reads accumulate across calls.
    ///
    /// # Errors
    ///
    /// Propagates socket failures and malformed control records;
    /// `UnexpectedEof` once the server has closed the connection.
    pub fn poll_control(&mut self) -> std::io::Result<Option<Control>> {
        self.stream.set_read_timeout(Some(Duration::from_millis(1)))?;
        match self.stream.read(&mut self.ctrl_buf[self.ctrl_filled..]) {
            Ok(0) => return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
            Ok(n) => self.ctrl_filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
        if self.ctrl_filled == CONTROL_BYTES {
            self.ctrl_filled = 0;
            let control = parse_control(&self.ctrl_buf)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
            return Ok(Some(control));
        }
        Ok(None)
    }

    /// Finishes the session cleanly: close the write side, then read
    /// control records until the server's goodbye (skipping a drain
    /// announcement if one is in flight).
    ///
    /// # Errors
    ///
    /// Propagates socket failures; times out with `TimedOut` if no
    /// goodbye arrives.
    pub fn finish(mut self, timeout: Duration) -> std::io::Result<Control> {
        self.stream.shutdown(Shutdown::Write)?;
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "no goodbye"));
            }
            let mut control_bytes = [0u8; CONTROL_BYTES];
            control_bytes[..self.ctrl_filled].copy_from_slice(&self.ctrl_buf[..self.ctrl_filled]);
            let mut filled = self.ctrl_filled;
            self.ctrl_filled = 0;
            while filled < CONTROL_BYTES {
                let now = Instant::now();
                if now >= deadline {
                    return Err(std::io::Error::new(ErrorKind::TimedOut, "no goodbye"));
                }
                self.stream.set_read_timeout(Some(deadline - now))?;
                match self.stream.read(&mut control_bytes[filled..]) {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "closed before goodbye",
                        ))
                    }
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let control = parse_control(&control_bytes)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
            match control.code {
                ControlCode::Draining => continue,
                _ => return Ok(control),
            }
        }
    }
}

/// Keeps `record` in a replay tail of at most `cap` records, oldest out.
fn remember(tail: &mut VecDeque<Vec<u8>>, cap: usize, record: &[u8]) {
    if cap > 0 {
        if tail.len() == cap {
            tail.pop_front();
        }
        tail.push_back(record.to_vec());
    }
}

/// Blocking read of exactly one control record under a deadline.
fn read_control_blocking(stream: &mut TcpStream, timeout: Duration) -> std::io::Result<Control> {
    let deadline = Instant::now() + timeout;
    let mut buf = [0u8; CONTROL_BYTES];
    let mut filled = 0usize;
    while filled < CONTROL_BYTES {
        let now = Instant::now();
        if now >= deadline {
            return Err(std::io::Error::new(ErrorKind::TimedOut, "no control record"));
        }
        stream.set_read_timeout(Some(deadline - now))?;
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "closed before control record",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    parse_control(&buf).map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
}
