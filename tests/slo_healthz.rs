//! The liveness contract end to end: a fleet decodes against a live
//! registry, the HTTP endpoint reports every patient healthy — then one
//! patient's lane goes silent past the configured stall budget and a
//! real TCP scrape of `/healthz` must flip from `200` to `503` while
//! `/metrics` pins the blame on the stalled patient. This is the
//! pager-path test: a ward monitor that keeps answering `200` while a
//! patient's stream is dead is worse than no monitor at all.

use cs_ecg_monitor::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 512;

fn ecg_like(npackets: usize, phase: f64) -> Vec<i16> {
    (0..npackets * N)
        .map(|i| {
            let t = (i % N) as f64 / N as f64;
            (700.0 * (-((t - 0.4 + phase) * 25.0).powi(2)).exp() + 50.0 * (t * 10.0).sin()) as i16
        })
        .collect()
}

/// A blocking HTTP/1.1 GET with hard timeouts: this test must fail, not
/// hang, if the server wedges.
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {response}"));
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, body)
}

#[test]
fn healthz_flips_to_503_when_a_lane_stalls() {
    // A stall budget far below the deadline budget, so the flip is
    // driven purely by lane silence and the test stays fast.
    let stall_after = Duration::from_millis(120);
    let registry = TelemetryRegistry::with_slo_config(SloConfig {
        stall_after,
        ..SloConfig::default()
    });

    // Two patients decode normally: both lanes emit, both healthy.
    let config = SystemConfig::paper_default();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    let inputs: Vec<Vec<i16>> = (0..2).map(|s| ecg_like(2, s as f64 * 0.03)).collect();
    let streams: Vec<FleetStream<'_>> = inputs.iter().map(|i| FleetStream::single(i)).collect();
    run_fleet::<f32, _>(
        &config,
        Arc::clone(&codebook),
        FleetSource::Leads(&streams),
        SolverPolicy::default(),
        &FleetConfig::default(),
        &registry,
        None,
        |_| {},
    )
    .unwrap();

    let server = MetricsServer::bind("127.0.0.1:0", registry.clone()).unwrap();
    let addr = server.local_addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "freshly-emitting fleet must be healthy: {body}");
    assert!(body.contains("\"stalled\":0"), "no patient stalled yet: {body}");

    // Patient 1's mote goes silent. Keep patient 0 fresh across the
    // stall horizon so exactly one patient trips the budget — the probe
    // must page on one dead stream even while others look fine.
    let deadline = std::time::Instant::now() + stall_after * 3;
    while std::time::Instant::now() < deadline {
        let captured = registry.now_ns();
        registry.record_emit(&TraceContext::new(0, 0, 2, captured));
        std::thread::sleep(Duration::from_millis(10));
    }

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 503, "stalled lane must flip the probe: {body}");
    assert!(body.contains("\"stalled\":1"), "exactly one stalled patient: {body}");

    let (status, scrape) = get(addr, "/metrics");
    assert_eq!(status, 200, "/metrics stays scrapeable during the incident");
    assert!(
        scrape.contains("cs_patient_health{patient=\"1\",state=\"stalled\"} 1"),
        "metrics must name the stalled patient"
    );
    assert!(
        scrape.contains("cs_patient_health{patient=\"0\",state=\"healthy\"} 1"),
        "the fresh patient stays healthy"
    );

    // Recovery: the silent lane comes back, the probe clears.
    let captured = registry.now_ns();
    registry.record_emit(&TraceContext::new(1, 0, 2, captured));
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "recovered lane must clear the probe: {body}");

    drop(server);
}
