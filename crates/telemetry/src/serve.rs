//! A minimal HTTP/1.1 scrape endpoint over `std::net::TcpListener`.
//!
//! Serves three read-only routes from a shared [`TelemetryRegistry`]:
//!
//! * `GET /metrics` — the Prometheus text exposition;
//! * `GET /healthz` — the aggregate SLO verdict as JSON: `200` while no
//!   patient is `Stalled`, `503` otherwise, so a stock liveness probe
//!   needs no body parsing;
//! * `GET /tracez` — recent journal traces as JSON (newest last).
//!
//! Threading model: one accept thread, connections handled **inline** —
//! scrapes arrive every few seconds from one or two collectors, so a
//! connection pool would be machinery without a workload. A slow or
//! stuck client is bounded by a 2 s socket read/write timeout *and* a
//! 2 s whole-head deadline (so a byte-at-a-time trickler cannot restart
//! the per-read clock) and can
//! delay, never wedge, the next scrape; the decode fleet itself never
//! blocks on the server because every route renders from lock-free
//! snapshots. Scrapes are themselves observed (per-endpoint counters and
//! a render-time histogram) — the exporter appears in its own output.

use crate::registry::TelemetryRegistry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

label_set! {
    /// The scrape surfaces the server counts per-request hits against.
    pub enum ScrapeEndpoint("endpoint") {
        /// `GET /metrics`.
        Metrics => "metrics",
        /// `GET /healthz`.
        Healthz => "healthz",
        /// `GET /tracez`.
        Tracez => "tracez",
        /// Anything else (unknown path or method).
        Other => "other",
    }
}

/// Per-connection socket timeout: bounds a single blocking read or write.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Total budget for receiving one request head. The per-read timeout
/// alone is not enough: a client trickling one byte per just-under-2 s
/// read would hold the inline accept loop for up to [`MAX_REQUEST_BYTES`]
/// reads (hours). Every read shrinks its timeout to the remaining
/// budget, so the whole head phase is bounded by this constant no matter
/// how the client paces its bytes.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Maximum request-head bytes read before the request is rejected.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// A running scrape server; shuts down (and joins its thread) on drop.
///
/// # Examples
///
/// ```
/// use cs_telemetry::{MetricsServer, TelemetryRegistry};
///
/// let registry = TelemetryRegistry::new();
/// let server = MetricsServer::bind("127.0.0.1:0", registry).unwrap();
/// println!("scrape http://{}/metrics", server.local_addr());
/// drop(server); // stops accepting and joins
/// ```
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `registry` on a background thread.
    pub fn bind<A: ToSocketAddrs>(addr: A, registry: TelemetryRegistry) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cs-telemetry-serve".into())
            .spawn(move || accept_loop(listener, registry, thread_stop))?;
        Ok(MetricsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (resolves the actual port after binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Called by
    /// `Drop`; explicit form for callers that want the join point.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, registry: TelemetryRegistry, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Inline handling: see the module docs for why no pool.
        let _ = handle_connection(stream, &registry);
    }
}

fn handle_connection(mut stream: TcpStream, registry: &TelemetryRegistry) -> std::io::Result<()> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;

    let deadline = std::time::Instant::now() + HEAD_DEADLINE;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() >= MAX_REQUEST_BYTES {
            return refuse(&mut stream, 431, "request too large");
        }
        let now = std::time::Instant::now();
        if now >= deadline {
            return refuse(&mut stream, 408, "request header timeout");
        }
        // Each read gets only the remaining head budget, so a client
        // trickling single bytes cannot restart the clock.
        stream.set_read_timeout(Some((deadline - now).min(IO_TIMEOUT)))?;
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()),
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return refuse(&mut stream, 408, "request header timeout");
            }
            Err(_) => return Ok(()), // reset: drop silently
        }
    }

    let (endpoint, refusal) = route(&head);
    registry.record_scrape(endpoint);
    match endpoint {
        ScrapeEndpoint::Metrics => {
            let body = registry.prometheus();
            respond(&mut stream, 200, "text/plain; version=0.0.4; charset=utf-8", &body)
        }
        ScrapeEndpoint::Healthz => {
            let (status, body) = healthz_body(registry);
            respond(&mut stream, status, "application/json", &body)
        }
        ScrapeEndpoint::Tracez => {
            let body = crate::trace::tracez_json(&registry.journal().peek());
            respond(&mut stream, 200, "application/json", &body)
        }
        ScrapeEndpoint::Other if refusal == 405 => refuse(&mut stream, 405, "method not allowed"),
        ScrapeEndpoint::Other => refuse(&mut stream, 404, "not found"),
    }
}

/// Routes a request head — bytes straight off a socket, so anything at
/// all — by its request line. `GET` on exactly `/metrics`, `/healthz` or
/// `/tracez` (a `?query` suffix ignored) reaches that endpoint with
/// status 200; every other head is [`ScrapeEndpoint::Other`] with the
/// status it is refused with — 405 for a method other than `GET`, 404
/// for an unknown path. Pure and total: no input panics.
fn route(head: &[u8]) -> (ScrapeEndpoint, u16) {
    let request_line = head.split(|&b| b == b'\r').next().unwrap_or_default();
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    if parts.next() != Some("GET") {
        return (ScrapeEndpoint::Other, 405);
    }
    let target = parts.next().unwrap_or("");
    match target.split('?').next().unwrap_or(target) {
        "/metrics" => (ScrapeEndpoint::Metrics, 200),
        "/healthz" => (ScrapeEndpoint::Healthz, 200),
        "/tracez" => (ScrapeEndpoint::Tracez, 200),
        _ => (ScrapeEndpoint::Other, 404),
    }
}

/// The `/healthz` verdict: `(200, …)` while no patient is Stalled,
/// `(503, …)` otherwise.
fn healthz_body(registry: &TelemetryRegistry) -> (u16, String) {
    use std::fmt::Write as _;
    let slo = registry.slo_snapshot();
    let stalled = slo.any_stalled();
    let mut body = String::new();
    let _ = write!(
        body,
        "{{\"status\":\"{}\",\"patients\":{},\"healthy\":{},\"degraded\":{},\"stalled\":{}}}",
        if stalled { "stalled" } else { "ok" },
        slo.patients.len(),
        slo.count_in(crate::slo::HealthState::Healthy),
        slo.count_in(crate::slo::HealthState::Degraded),
        slo.count_in(crate::slo::HealthState::Stalled),
    );
    (if stalled { 503 } else { 200 }, body)
}

/// A plain-text refusal.
fn refuse(stream: &mut TcpStream, status: u16, why: &str) -> std::io::Result<()> {
    respond(stream, status, "text/plain; charset=utf-8", why)
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FamilyId;
    use proptest::prelude::*;

    #[test]
    fn route_is_exact_about_method_and_path() {
        use ScrapeEndpoint::{Healthz, Metrics, Other, Tracez};
        let cases: [(&[u8], (ScrapeEndpoint, u16)); 16] = [
            (b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n", (Metrics, 200)),
            (b"GET /healthz HTTP/1.1\r\n\r\n", (Healthz, 200)),
            (b"GET /tracez?limit=3 HTTP/1.1\r\n\r\n", (Tracez, 200)),
            (b"GET /metrics?x=1?y=2", (Metrics, 200)),
            (b"GET\t/metrics", (Metrics, 200)),
            (b"GET /metrics/ HTTP/1.1\r\n\r\n", (Other, 404)),
            (b"GET /Metrics HTTP/1.1\r\n\r\n", (Other, 404)),
            (b"GET metrics HTTP/1.1\r\n\r\n", (Other, 404)),
            (b"GET  HTTP/1.1\r\n\r\n", (Other, 404)),
            (b"GET", (Other, 404)),
            (b"GET \r\n/metrics", (Other, 404)),
            (b"get /metrics HTTP/1.1\r\n\r\n", (Other, 405)),
            (b"POST /metrics HTTP/1.1\r\n\r\n", (Other, 405)),
            (b"GET/metrics HTTP/1.1\r\n\r\n", (Other, 405)),
            (b"\xff\xfe /metrics", (Other, 405)),
            (b"", (Other, 405)),
        ];
        for (head, expected) in cases {
            assert_eq!(route(head), expected, "{:?}", String::from_utf8_lossy(head));
        }
        assert_eq!(route(&[b' '; MAX_REQUEST_BYTES]), (Other, 405));
    }

    /// What must hold of any routing decision: refusals and only
    /// refusals are `Other`, and an endpoint is reached only by a head
    /// that says `GET` first and spells that endpoint's path.
    fn check_route(head: &[u8]) -> Result<(ScrapeEndpoint, u16), TestCaseError> {
        let (endpoint, status) = route(head);
        prop_assert_eq!(endpoint == ScrapeEndpoint::Other, status != 200);
        prop_assert!(matches!(status, 200 | 404 | 405));
        if endpoint != ScrapeEndpoint::Other {
            let text = String::from_utf8_lossy(head);
            prop_assert!(text.trim_start().starts_with("GET"), "{text:?} reached {endpoint}");
            let path = format!("/{endpoint}");
            prop_assert!(text.contains(&path), "{text:?} reached {endpoint}");
        }
        Ok((endpoint, status))
    }

    proptest! {
        /// Heads assembled from the pieces that matter — a real or a
        /// random method, a real or a random separator, a served path
        /// (bare, with a query, or one byte too long) or random bytes,
        /// then anything. A well-formed head routes to its endpoint; a
        /// damaged one is refused or at least obeys `check_route`.
        #[test]
        fn only_get_on_an_exact_path_reaches_an_endpoint(
            real_method in any::<bool>(),
            method in proptest::collection::vec(any::<u8>(), 0..8),
            real_gap in any::<bool>(),
            gap in proptest::collection::vec(any::<u8>(), 0..4),
            path in 0usize..6,
            target in proptest::collection::vec(any::<u8>(), 0..24),
            tail in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            use ScrapeEndpoint::{Healthz, Metrics, Other, Tracez};
            let served: [(&[u8], (ScrapeEndpoint, u16)); 5] = [
                (b"/metrics", (Metrics, 200)),
                (b"/healthz", (Healthz, 200)),
                (b"/tracez", (Tracez, 200)),
                (b"/metrics?window=5m", (Metrics, 200)),
                (b"/metricsz", (Other, 404)),
            ];
            let head = [
                if real_method { b"GET".to_vec() } else { method },
                if real_gap { b" ".to_vec() } else { gap },
                served.get(path).map_or(target, |(p, _)| p.to_vec()),
                b" HTTP/1.1\r\n".to_vec(),
                tail,
            ]
            .concat();
            let routed = check_route(&head)?;
            if let (true, true, Some((_, expected))) = (real_method, real_gap, served.get(path)) {
                prop_assert_eq!(routed, *expected);
            }
        }

        /// Unstructured bytes, up to the largest head the server reads.
        #[test]
        fn arbitrary_bytes_never_panic_the_router(
            head in proptest::collection::vec(any::<u8>(), 0..MAX_REQUEST_BYTES),
        ) {
            check_route(&head)?;
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_metrics_healthz_and_tracez() {
        let registry = TelemetryRegistry::new();
        registry.record_stage_ns(crate::Stage::FistaSolve, 1_000);
        registry.record_solve(crate::SolveTrace { seq: 9, ..Default::default() });
        let server = MetricsServer::bind("127.0.0.1:0", registry.clone()).unwrap();
        let addr = server.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("cs_stage_latency_ns_bucket{stage=\"fista_solve\""));

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));

        let (status, body) = get(addr, "/tracez");
        assert_eq!(status, 200);
        assert!(body.contains("\"seq\":9"));

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        // The server observed itself: four scrapes across the endpoints.
        let scrapes = registry.snapshot();
        for endpoint in ScrapeEndpoint::ALL {
            assert_eq!(scrapes.count(FamilyId::Scrapes, endpoint), 1, "{endpoint}");
        }
        let text = registry.prometheus();
        assert!(text.contains("cs_telemetry_scrapes_total{endpoint=\"metrics\"} 1"));
    }

    #[test]
    fn non_get_is_rejected() {
        let server =
            MetricsServer::bind("127.0.0.1:0", TelemetryRegistry::new()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"));
    }

    #[test]
    fn partial_head_stall_is_bounded_by_the_head_deadline() {
        let server =
            MetricsServer::bind("127.0.0.1:0", TelemetryRegistry::new()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // One byte, then silence. Before the whole-head deadline this
        // held the inline accept loop up to IO_TIMEOUT per read for as
        // many reads as MAX_REQUEST_BYTES allows.
        stream.write_all(b"G").unwrap();
        let started = std::time::Instant::now();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 408"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");
        let elapsed = started.elapsed();
        assert!(
            elapsed < HEAD_DEADLINE + IO_TIMEOUT,
            "stalled head held the server {elapsed:?}"
        );
        // The accept loop is immediately serviceable again.
        let (status, _) = get(server.local_addr(), "/healthz");
        assert_eq!(status, 200);
    }

    #[test]
    fn shutdown_joins_and_frees_the_port() {
        let server =
            MetricsServer::bind("127.0.0.1:0", TelemetryRegistry::new()).unwrap();
        let addr = server.local_addr();
        drop(server);
        // The listener is gone: a fresh bind to the same port succeeds.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "port still held after shutdown: {rebind:?}");
    }
}
