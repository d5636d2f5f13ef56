//! The supervised TCP listener feeding the decode fleet.
//!
//! One [`IngestServer`] owns the accept loop and the shared state every
//! session thread leans on: the admission controller, the patient→slot
//! directory, the drain flag, and the cloneable feed sender into
//! [`cs_core::run_fleet`]'s channel source. Sessions are one thread per
//! connection (the [`cs_telemetry::MetricsServer`] pattern scaled up
//! with supervision): each is tracked from accept to join, so a
//! [`drain`](IngestServer::drain) can stop the listener, let every
//! session flush and say goodbye, and only then close the feed channel —
//! which is exactly the signal the streaming engine treats as
//! end-of-run, flushing staged reassembly tails into the final report.

use crate::admission::AdmissionController;
use crate::session;
use cs_core::WireFrame;
use cs_telemetry::TelemetryRegistry;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Session-lifecycle and admission policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Budget for the complete hello, first byte to last. A connection
    /// that cannot state its identity this fast is cut loose before it
    /// can hold a session slot hostage.
    pub handshake_deadline: Duration,
    /// Eviction threshold for a streaming session that sends nothing.
    pub idle_timeout: Duration,
    /// Read-rate floor accounting window.
    pub floor_window: Duration,
    /// Minimum bytes per [`floor_window`](Self::floor_window) once a
    /// session has started trickling; below it the session is evicted as
    /// a slow-loris. `0` disables the floor. A fully silent window is
    /// the idle timeout's business, not the floor's.
    pub floor_bytes: u64,
    /// Concurrent session ceiling (handshaking sessions included).
    pub max_sessions: usize,
    /// Feed-queue depth (frames staged toward the decode fleet) above
    /// which new connections are shed.
    pub shed_backlog: usize,
    /// Reconnect hint carried in `Shed` and `Draining` NACKs.
    pub retry_after: Duration,
    /// Read poll quantum: how often a blocked session rechecks deadlines
    /// and the drain flag.
    pub poll: Duration,
    /// How long a draining session waits for its client to finish
    /// sending and close before the server closes anyway.
    pub drain_grace: Duration,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            handshake_deadline: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            floor_window: Duration::from_secs(5),
            floor_bytes: 64,
            max_sessions: 1024,
            shed_backlog: 256,
            retry_after: Duration::from_secs(2),
            poll: Duration::from_millis(100),
            drain_grace: Duration::from_secs(2),
        }
    }
}

/// State every session thread shares with the listener.
pub(crate) struct Shared {
    pub config: IngestConfig,
    pub telemetry: TelemetryRegistry,
    pub feed: crossbeam::channel::Sender<WireFrame>,
    pub drain: AtomicBool,
    pub admission: AdmissionController,
    /// Patient id → dense fleet slot. Stable across reconnects: the same
    /// patient lands on the same slot, so the engine's per-stream
    /// reassembler dedups a resumed client's replayed tail.
    pub slots: Mutex<HashMap<u32, usize>>,
    pub sessions_served: AtomicU64,
    pub frames: AtomicU64,
    pub bytes: AtomicU64,
}

impl Shared {
    /// Fresh shared state: nothing admitted, nothing seen, not draining.
    pub fn new(
        config: IngestConfig,
        telemetry: TelemetryRegistry,
        feed: crossbeam::channel::Sender<WireFrame>,
    ) -> Self {
        Shared {
            admission: AdmissionController::new(config.max_sessions, config.shed_backlog),
            config,
            telemetry,
            feed,
            drain: AtomicBool::new(false),
            slots: Mutex::new(HashMap::new()),
            sessions_served: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Dense slot for a patient, allocating the next one on first sight.
    pub fn slot(&self, patient: u32) -> usize {
        // A poisoned lock is recovered, not propagated: the map has no
        // multi-step invariant a panicking holder could have broken, and
        // one dead session thread must not take every later session down.
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let next = slots.len();
        *slots.entry(patient).or_insert(next)
    }
}

/// Final accounting returned by [`IngestServer::drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainSummary {
    /// Sessions that passed admission (including ones later evicted).
    pub sessions: u64,
    /// Distinct patients seen (the fleet's stream count).
    pub patients: u64,
    /// Frames forwarded to the decode fleet.
    pub frames: u64,
    /// Frame bytes forwarded.
    pub bytes: u64,
    /// Connections refused by admission control.
    pub sheds: u64,
}

/// A running ingest listener. Dropping it stops the accept loop;
/// [`drain`](Self::drain) is the graceful path that also sees every
/// session out and closes the engine feed.
pub struct IngestServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl IngestServer {
    /// Binds `listen` (e.g. `"127.0.0.1:0"`) and starts accepting
    /// sessions, forwarding every deframed wire frame into `feed`.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn bind<A: ToSocketAddrs>(
        listen: A,
        config: IngestConfig,
        telemetry: TelemetryRegistry,
        feed: crossbeam::channel::Sender<WireFrame>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(config, telemetry, feed));
        let stop = Arc::new(AtomicBool::new(false));
        let sessions = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_stop = Arc::clone(&stop);
        let accept_sessions = Arc::clone(&sessions);
        let accept = std::thread::Builder::new()
            .name("cs-ingest-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, accept_stop, accept_sessions))?;
        Ok(IngestServer { addr, shared, stop, accept: Some(accept), sessions })
    }

    /// The listening address (clients connect here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Frames currently staged toward the decode fleet (the admission
    /// controller's backlog signal).
    pub fn backlog(&self) -> usize {
        self.shared.feed.len()
    }

    /// Currently admitted sessions.
    pub fn active_sessions(&self) -> usize {
        self.shared.admission.active()
    }

    /// Gracefully drains: stop accepting, announce `Draining` to every
    /// live session, wait for each to flush and close, then drop the
    /// feed sender so the streaming engine flushes its tails and
    /// returns. Blocks until every session thread has exited.
    pub fn drain(mut self) -> DrainSummary {
        self.shared.drain.store(true, Ordering::SeqCst);
        self.stop_accept();
        // The accept thread is joined, so no new handles can appear.
        let handles = {
            let mut sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *sessions)
        };
        for handle in handles {
            let _ = handle.join();
        }
        let shared = &self.shared;
        DrainSummary {
            sessions: shared.sessions_served.load(Ordering::Relaxed),
            patients: shared.slots.lock().unwrap_or_else(PoisonError::into_inner).len() as u64,
            frames: shared.frames.load(Ordering::Relaxed),
            bytes: shared.bytes.load(Ordering::Relaxed),
            sheds: shared.admission.shed_total(),
        }
        // `self` drops here: the last feed sender goes with it, which is
        // the streaming engine's end-of-run signal.
    }

    fn stop_accept(&mut self) {
        if let Some(handle) = self.accept.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        // Non-graceful teardown still stops the listener; live sessions
        // exit on their own when their sockets or the feed close.
        self.shared.drain.store(true, Ordering::SeqCst);
        self.stop_accept();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    sessions: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let session_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("cs-ingest-session".into())
            .spawn(move || session::run(stream, &session_shared));
        match handle {
            Ok(handle) => sessions.lock().unwrap_or_else(PoisonError::into_inner).push(handle),
            Err(_) => continue, // spawn failure: the connection just closes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_directory_survives_a_poisoned_lock() {
        let (feed, _frames) = crossbeam::channel::bounded(1);
        let telemetry = TelemetryRegistry::disabled();
        let shared = Arc::new(Shared::new(IngestConfig::default(), telemetry, feed));
        assert_eq!(shared.slot(7), 0);
        // A session thread dies holding the directory.
        let holder = Arc::clone(&shared);
        let died = std::thread::spawn(move || {
            let _guard = holder.slots.lock().unwrap();
            panic!("session thread panics while holding the slot directory");
        })
        .join();
        assert!(died.is_err() && shared.slots.is_poisoned());
        // Later sessions still resolve: a known patient keeps its slot, a
        // new one gets the next.
        assert_eq!(shared.slot(7), 0);
        assert_eq!(shared.slot(9), 1);
    }
}
