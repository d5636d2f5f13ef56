//! Per-packet trace context: identity plus a capture timestamp.
//!
//! End-to-end latency cannot be reconstructed from per-stage histograms —
//! queue dwell between stages is invisible to spans that only bracket
//! work. The [`TraceContext`] closes the gap: a packetize-time monotonic
//! timestamp rides alongside the packet identity through every queue
//! and reorder buffer, and the delivering worker turns it into
//! one `cs_e2e_latency_seconds` observation at emit time via
//! [`TelemetryRegistry::record_emit`](crate::TelemetryRegistry::record_emit).
//!
//! The context is 24 bytes of `Copy` data — cheap enough to embed in
//! every job and channel message unconditionally. When telemetry is
//! disabled the capture timestamp is simply 0 and nothing downstream
//! reads it.

use crate::journal::SolveTrace;
use std::fmt::Write as _;

/// Identity and capture time of one packet in flight.
///
/// `captured_ns` is nanoseconds on the owning registry's monotonic clock
/// ([`TelemetryRegistry::now_ns`](crate::TelemetryRegistry::now_ns)) at
/// packetize/ingest time — the instant the encoded frame entered the
/// decode system. Timestamps from different registries are not
/// comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Fleet stream (patient) index.
    pub stream: u32,
    /// Lead/lane index within the stream.
    pub lane: u8,
    /// Packet sequence index within the stream.
    pub seq: u64,
    /// Monotonic capture timestamp in registry nanoseconds (0 when the
    /// registry was disabled at capture).
    pub captured_ns: u64,
}

impl TraceContext {
    /// A context for `stream`/`lane`/`seq` captured at `captured_ns`.
    pub fn new(stream: u32, lane: u8, seq: u64, captured_ns: u64) -> Self {
        TraceContext { stream, lane, seq, captured_ns }
    }
}

/// What [`TelemetryRegistry::record_emit`](crate::TelemetryRegistry::record_emit)
/// measured for one delivered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmitRecord {
    /// Capture-to-emit latency in nanoseconds.
    pub e2e_ns: u64,
    /// Whether the latency exceeded the configured deadline budget.
    pub deadline_missed: bool,
}

/// Maximum traces rendered by [`tracez_json`]; older traces are elided.
pub const TRACEZ_LIMIT: usize = 256;

/// Renders recent journal traces as a JSON document for `GET /tracez`.
///
/// Output shape: `{"traces":[{"stream":…,"lane":…,"seq":…,
/// "iterations":…,"residual":…,"solve_ns":…,"warm_started":…,
/// "converged":…},…],"total":N}` — newest-last, at most
/// [`TRACEZ_LIMIT`] entries, `total` counting everything offered.
pub fn tracez_json(traces: &[SolveTrace]) -> String {
    let start = traces.len().saturating_sub(TRACEZ_LIMIT);
    let mut out = String::from("{\"traces\":[");
    for (i, t) in traces[start..].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"stream\":{},\"lane\":{},\"seq\":{},\"iterations\":{},\"residual\":{:.6e},\"solve_ns\":{},\"warm_started\":{},\"converged\":{}}}",
            t.stream, t.channel, t.seq, t.iterations, t.residual, t.solve_ns, t.warm_started, t.converged
        );
    }
    let _ = write!(out, "],\"total\":{}}}", traces.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_is_copy_and_small() {
        let ctx = TraceContext::new(3, 1, 42, 1_000);
        let copied = ctx;
        assert_eq!(ctx, copied);
        assert!(std::mem::size_of::<TraceContext>() <= 24);
    }

    #[test]
    fn tracez_renders_traces_and_total() {
        let traces = vec![
            SolveTrace { stream: 1, channel: 0, seq: 7, iterations: 12, ..SolveTrace::default() },
            SolveTrace { stream: 2, channel: 1, seq: 8, converged: true, ..SolveTrace::default() },
        ];
        let json = tracez_json(&traces);
        assert!(json.starts_with("{\"traces\":["));
        assert!(json.contains("\"stream\":1,\"lane\":0,\"seq\":7,\"iterations\":12"));
        assert!(json.contains("\"converged\":true"));
        assert!(json.ends_with("\"total\":2}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn tracez_caps_at_limit_keeping_newest() {
        let traces: Vec<SolveTrace> = (0..TRACEZ_LIMIT as u64 + 10)
            .map(|seq| SolveTrace { seq, ..SolveTrace::default() })
            .collect();
        let json = tracez_json(&traces);
        assert!(!json.contains("\"seq\":9,"), "oldest traces elided");
        assert!(json.contains(&format!("\"seq\":{}", TRACEZ_LIMIT + 9)));
        assert!(json.ends_with(&format!("\"total\":{}}}", TRACEZ_LIMIT + 10)));
    }

    #[test]
    fn tracez_empty_is_well_formed() {
        assert_eq!(tracez_json(&[]), "{\"traces\":[],\"total\":0}");
    }
}
