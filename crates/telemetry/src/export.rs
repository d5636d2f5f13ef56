//! Exporters: Prometheus text exposition and JSON-Lines snapshots.
//!
//! Both render a [`TelemetrySnapshot`], so an export never holds any lock
//! the recording paths contend on. The formats are hand-rolled and the
//! crate stays dependency-free; label values pass through
//! [`escape_label`] so the output stays spec-conformant even if a label
//! set ever grows a quote, backslash, or newline (today's sets are
//! closed snake_case identifiers, so escaping is a no-op in practice —
//! verified by `tests/prometheus_conformance.rs`).
//!
//! Rendering through [`TelemetryRegistry::prometheus`] /
//! [`TelemetryRegistry::json_line`] is itself observed: render time
//! lands in the `cs_exporter_render_seconds` histogram (one scrape
//! behind, since a render can't include its own duration).

use crate::histogram::{bucket_upper, HistogramSnapshot};
use crate::registry::{TelemetryRegistry, TelemetrySnapshot};
use crate::slo::HealthState;
use std::fmt::Write as _;
use std::time::Instant;

/// The quantiles every exporter and report surface.
pub const REPORT_QUANTILES: [(f64, &str); 3] = [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double-quote, and line-feed must be backslash-escaped.
/// Returns the input unchanged (no allocation) when nothing needs
/// escaping — the common case for this crate's closed label sets.
pub fn escape_label(value: &str) -> std::borrow::Cow<'_, str> {
    if !value.contains(['\\', '"', '\n']) {
        return std::borrow::Cow::Borrowed(value);
    }
    let mut out = String::with_capacity(value.len() + 2);
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    std::borrow::Cow::Owned(out)
}

/// Writes one classic histogram family (cumulative occupied buckets,
/// `+Inf`, `_sum`, `_count`) with an optional pre-rendered label prefix
/// like `patient="3",` and a bucket-value-to-`le` mapping.
fn write_histogram(
    out: &mut String,
    family: &str,
    labels: &str,
    hist: &HistogramSnapshot,
    le: impl Fn(u64) -> String,
    sum: impl Fn(u64) -> String,
) {
    let mut cumulative = 0u64;
    for (i, &c) in hist.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative += c;
        let _ = writeln!(
            out,
            "{family}_bucket{{{labels}le=\"{}\"}} {cumulative}",
            le(bucket_upper(i))
        );
    }
    let _ = writeln!(out, "{family}_bucket{{{labels}le=\"+Inf\"}} {}", hist.count());
    // A label-free series is written bare (`x_sum 3`), not as `x_sum{}`.
    let braces = |s: &str| {
        if labels.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", s.trim_end_matches(','))
        }
    };
    let _ = writeln!(out, "{family}_sum{} {}", braces(labels), sum(hist.sum_ns()));
    let _ = writeln!(out, "{family}_count{} {}", braces(labels), hist.count());
}

fn seconds(ns: u64) -> String {
    format!("{}", ns as f64 / 1e9)
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Per stage with at least one observation: a classic `histogram` family
/// (`cs_stage_latency_ns_bucket{stage=...,le=...}` with cumulative counts
/// at each occupied bucket's upper bound plus `+Inf`, `_sum`, `_count`)
/// and p50/p95/p99 gauges. Plus per-worker packet counters and journal
/// accounting gauges.
pub fn prometheus(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str("# HELP cs_stage_latency_ns Per-stage pipeline latency in nanoseconds\n");
    out.push_str("# TYPE cs_stage_latency_ns histogram\n");
    for (stage, hist) in &snap.stages {
        if hist.count() == 0 {
            continue;
        }
        let labels = format!("stage=\"{}\",", escape_label(stage.name()));
        write_histogram(
            &mut out,
            "cs_stage_latency_ns",
            &labels,
            hist,
            |u| u.to_string(),
            |s| s.to_string(),
        );
    }
    out.push_str("# HELP cs_stage_latency_quantile_ns Per-stage latency quantiles (log2-bucket resolution)\n");
    out.push_str("# TYPE cs_stage_latency_quantile_ns gauge\n");
    for (stage, hist) in &snap.stages {
        if hist.count() == 0 {
            continue;
        }
        for (p, label) in REPORT_QUANTILES {
            let _ = writeln!(
                out,
                "cs_stage_latency_quantile_ns{{stage=\"{}\",quantile=\"{}\"}} {}",
                stage.name(),
                label,
                hist.quantile(p)
            );
        }
    }
    // Per-mode solver iteration histograms: only modes that have solved
    // appear, so a deployment without the block prior exports cold/warm only.
    if snap.solver_iterations.iter().any(|(_, h)| h.count() > 0) {
        out.push_str("# HELP cs_solver_iterations FISTA iterations per solve by solver mode\n");
        out.push_str("# TYPE cs_solver_iterations histogram\n");
        for (mode, hist) in &snap.solver_iterations {
            if hist.count() == 0 {
                continue;
            }
            let labels = format!("mode=\"{}\",", escape_label(mode.name()));
            write_histogram(
                &mut out,
                "cs_solver_iterations",
                &labels,
                hist,
                |u| u.to_string(),
                |s| s.to_string(),
            );
        }
    }
    out.push_str("# HELP cs_worker_packets_total Packets decoded per fleet worker\n");
    out.push_str("# TYPE cs_worker_packets_total counter\n");
    for (worker, &packets) in snap.worker_packets.iter().enumerate() {
        if packets > 0 {
            let _ = writeln!(
                out,
                "cs_worker_packets_total{{worker=\"{worker}\"}} {packets}"
            );
        }
    }
    out.push_str("# HELP cs_fault_total Fault and recovery events by kind\n");
    out.push_str("# TYPE cs_fault_total counter\n");
    // Every kind is always emitted, zero or not: a dashboard watching
    // quarantine rates must see an explicit 0, not a missing series.
    for (kind, count) in &snap.faults {
        let _ = writeln!(out, "cs_fault_total{{kind=\"{}\"}} {count}", kind.name());
    }
    out.push_str("# HELP cs_archive_total Durable-store operations by kind\n");
    out.push_str("# TYPE cs_archive_total counter\n");
    // Like faults: every op is emitted explicitly, zero or not, so a
    // dashboard watching torn-tail rates sees 0 rather than a gap.
    for (op, count) in &snap.archive_ops {
        let _ = writeln!(out, "cs_archive_total{{op=\"{}\"}} {count}", op.name());
    }
    // ── Clinical analysis families (only once the clinical layer has
    // classified a beat, scored a detection, or touched an alarm —
    // fleets without a clinical tap export nothing). ──
    let clinical_active = snap.beats.iter().any(|(_, c)| *c > 0)
        || snap.alarms.iter().any(|(_, c)| c.raised > 0)
        || snap.alarms_suppressed > 0
        || snap.qrs_true_positive + snap.qrs_false_positive + snap.qrs_false_negative > 0;
    if clinical_active {
        out.push_str("# HELP cs_beat_total Classified beats by class\n");
        out.push_str("# TYPE cs_beat_total counter\n");
        // Every class explicit, zero or not: a dashboard watching PVC
        // rates must see 0, not a missing series.
        for (class, count) in &snap.beats {
            let _ = writeln!(out, "cs_beat_total{{class=\"{}\"}} {count}", class.name());
        }
        out.push_str("# HELP cs_alarm_raised_total Alarm activations by kind\n");
        out.push_str("# TYPE cs_alarm_raised_total counter\n");
        for (kind, counts) in &snap.alarms {
            let _ = writeln!(
                out,
                "cs_alarm_raised_total{{kind=\"{}\"}} {}",
                kind.name(),
                counts.raised
            );
        }
        out.push_str("# HELP cs_alarm_cleared_total Alarm clearances by kind\n");
        out.push_str("# TYPE cs_alarm_cleared_total counter\n");
        for (kind, counts) in &snap.alarms {
            let _ = writeln!(
                out,
                "cs_alarm_cleared_total{{kind=\"{}\"}} {}",
                kind.name(),
                counts.cleared
            );
        }
        out.push_str("# HELP cs_alarm_active Currently active alarms by kind\n");
        out.push_str("# TYPE cs_alarm_active gauge\n");
        for (kind, counts) in &snap.alarms {
            let _ = writeln!(
                out,
                "cs_alarm_active{{kind=\"{}\"}} {}",
                kind.name(),
                counts.active
            );
        }
        out.push_str(
            "# HELP cs_alarm_suppressed_total Alarm evaluations suppressed over concealed windows\n",
        );
        out.push_str("# TYPE cs_alarm_suppressed_total counter\n");
        let _ = writeln!(out, "cs_alarm_suppressed_total {}", snap.alarms_suppressed);
        // QRS score gauges appear only once their denominators are
        // non-zero — a ratio over nothing is a lie, not a zero.
        if let Some(sens) = snap.qrs_sensitivity() {
            out.push_str(
                "# HELP cs_qrs_sensitivity Streaming QRS detection sensitivity vs annotations\n",
            );
            out.push_str("# TYPE cs_qrs_sensitivity gauge\n");
            let _ = writeln!(out, "cs_qrs_sensitivity {sens}");
        }
        if let Some(ppv) = snap.qrs_ppv() {
            out.push_str(
                "# HELP cs_qrs_ppv Streaming QRS detection positive predictive value vs annotations\n",
            );
            out.push_str("# TYPE cs_qrs_ppv gauge\n");
            let _ = writeln!(out, "cs_qrs_ppv {ppv}");
        }
    }
    out.push_str("# HELP cs_journal_traces Event-journal accounting\n");
    out.push_str("# TYPE cs_journal_traces gauge\n");
    let _ = writeln!(out, "cs_journal_traces{{state=\"buffered\"}} {}", snap.journal_len);
    let _ = writeln!(out, "cs_journal_traces{{state=\"pushed\"}} {}", snap.journal_pushed);
    let _ = writeln!(out, "cs_journal_traces{{state=\"dropped\"}} {}", snap.journal_dropped);
    // ── End-to-end tracing and SLO families (active patients only). ──
    if !snap.e2e.is_empty() {
        out.push_str(
            "# HELP cs_e2e_latency_seconds Capture-to-emit latency per patient\n",
        );
        out.push_str("# TYPE cs_e2e_latency_seconds histogram\n");
        for (patient, hist) in &snap.e2e {
            let labels = format!("patient=\"{patient}\",");
            write_histogram(&mut out, "cs_e2e_latency_seconds", &labels, hist, seconds, seconds);
        }
    }
    if !snap.slo.patients.is_empty() {
        out.push_str("# HELP cs_deadline_miss_total Emissions that exceeded the end-to-end deadline budget\n");
        out.push_str("# TYPE cs_deadline_miss_total counter\n");
        for p in &snap.slo.patients {
            let _ = writeln!(
                out,
                "cs_deadline_miss_total{{patient=\"{}\"}} {}",
                p.patient, p.deadline_misses
            );
        }
        out.push_str("# HELP cs_lane_freshness_seconds Age of the newest emission per patient lane\n");
        out.push_str("# TYPE cs_lane_freshness_seconds gauge\n");
        for p in &snap.slo.patients {
            for lane in &p.lanes {
                let _ = writeln!(
                    out,
                    "cs_lane_freshness_seconds{{patient=\"{}\",lane=\"{}\"}} {}",
                    p.patient,
                    lane.lane,
                    lane.age_ns as f64 / 1e9
                );
            }
        }
        out.push_str("# HELP cs_lane_newest_seq Newest emitted sequence number per patient lane\n");
        out.push_str("# TYPE cs_lane_newest_seq gauge\n");
        for p in &snap.slo.patients {
            for lane in &p.lanes {
                let _ = writeln!(
                    out,
                    "cs_lane_newest_seq{{patient=\"{}\",lane=\"{}\"}} {}",
                    p.patient, lane.lane, lane.newest_seq
                );
            }
        }
        out.push_str("# HELP cs_slo_burn_rate Error-budget burn rate per patient and window\n");
        out.push_str("# TYPE cs_slo_burn_rate gauge\n");
        for p in &snap.slo.patients {
            let _ = writeln!(
                out,
                "cs_slo_burn_rate{{patient=\"{}\",window=\"fast\"}} {}",
                p.patient, p.fast_burn
            );
            let _ = writeln!(
                out,
                "cs_slo_burn_rate{{patient=\"{}\",window=\"slow\"}} {}",
                p.patient, p.slow_burn
            );
        }
        out.push_str("# HELP cs_patient_health Derived SLO health (one-hot over states)\n");
        out.push_str("# TYPE cs_patient_health gauge\n");
        for p in &snap.slo.patients {
            for state in HealthState::ALL {
                let _ = writeln!(
                    out,
                    "cs_patient_health{{patient=\"{}\",state=\"{}\"}} {}",
                    p.patient,
                    escape_label(state.name()),
                    u64::from(p.health == state)
                );
            }
        }
    }
    // ── Socket-ingest lifecycle (only once the ingest layer has seen a
    // session or shed one — fleets fed in-process export nothing). ──
    if snap.ingest_accepted > 0 || snap.ingest_shed > 0 {
        out.push_str("# HELP cs_ingest_sessions Live ingest sessions by lifecycle state\n");
        out.push_str("# TYPE cs_ingest_sessions gauge\n");
        // Every state explicit, zero or not: a dashboard watching drain
        // progress needs the 0, not a missing series.
        for (state, count) in &snap.ingest_sessions {
            let _ = writeln!(
                out,
                "cs_ingest_sessions{{state=\"{}\"}} {count}",
                escape_label(state.name())
            );
        }
        out.push_str("# HELP cs_ingest_sessions_total Sessions ever admitted to handshaking\n");
        out.push_str("# TYPE cs_ingest_sessions_total counter\n");
        let _ = writeln!(out, "cs_ingest_sessions_total {}", snap.ingest_accepted);
        out.push_str("# HELP cs_ingest_shed_total Sessions refused by the admission controller\n");
        out.push_str("# TYPE cs_ingest_shed_total counter\n");
        let _ = writeln!(out, "cs_ingest_shed_total {}", snap.ingest_shed);
        out.push_str("# HELP cs_ingest_disconnect_total Session terminations by reason\n");
        out.push_str("# TYPE cs_ingest_disconnect_total counter\n");
        for (reason, count) in &snap.ingest_disconnects {
            let _ = writeln!(
                out,
                "cs_ingest_disconnect_total{{reason=\"{}\"}} {count}",
                escape_label(reason.name())
            );
        }
        out.push_str("# HELP cs_ingest_frames_total Frames accepted off ingest sockets\n");
        out.push_str("# TYPE cs_ingest_frames_total counter\n");
        let _ = writeln!(out, "cs_ingest_frames_total {}", snap.ingest_frames);
        out.push_str("# HELP cs_ingest_bytes_total Wire bytes accepted off ingest sockets\n");
        out.push_str("# TYPE cs_ingest_bytes_total counter\n");
        let _ = writeln!(out, "cs_ingest_bytes_total {}", snap.ingest_bytes);
    }
    // ── Telemetry self-observation: the exporter in its own output. ──
    out.push_str("# HELP cs_telemetry_scrapes_total HTTP scrape requests by endpoint\n");
    out.push_str("# TYPE cs_telemetry_scrapes_total counter\n");
    // Zeros included: a dashboard alerting on scrape starvation needs an
    // explicit 0 series from the first render.
    for (endpoint, count) in &snap.scrapes {
        let _ = writeln!(
            out,
            "cs_telemetry_scrapes_total{{endpoint=\"{}\"}} {count}",
            escape_label(endpoint.name())
        );
    }
    if snap.render_ns.count() > 0 {
        out.push_str("# HELP cs_exporter_render_seconds Exporter render time (lags the current render by one scrape)\n");
        out.push_str("# TYPE cs_exporter_render_seconds histogram\n");
        write_histogram(&mut out, "cs_exporter_render_seconds", "", &snap.render_ns, seconds, seconds);
    }
    out
}

fn stage_json(name: &str, hist: &HistogramSnapshot, out: &mut String) {
    let _ = write!(
        out,
        "{{\"stage\":\"{}\",\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{:.1}}}",
        name,
        hist.count(),
        hist.quantile(0.50),
        hist.quantile(0.95),
        hist.quantile(0.99),
        hist.min_ns(),
        hist.max_ns(),
        hist.mean_ns()
    );
}

/// Renders a snapshot as one JSON-Lines record (a single line, no
/// trailing newline). Stages with zero observations and trailing
/// zero-count workers are elided to keep lines scannable.
///
/// Record schema (stable keys, in order): `uptime_s` (seconds since
/// registry creation), `ts_unix_s` (absolute wall-clock seconds since
/// the Unix epoch at snapshot time), `stages`, `worker_packets`,
/// `faults`, `archive`, optional `solver_iterations` (per-mode
/// iteration stats), `e2e` (per-patient end-to-end latency), `slo`
/// (per-patient health, freshness, burn rates, lane watermarks),
/// optional `ingest` (socket-session lifecycle,
/// present once a session was admitted or shed), optional `clinical`
/// (beat classes, alarm counters, concealment suppressions, QRS score —
/// present once the clinical layer has recorded anything), `scrapes`
/// (zero counts elided), optional `render` (exporter self-observation),
/// `journal`.
pub fn json_line(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"uptime_s\":{:.3},\"ts_unix_s\":{:.3},\"stages\":[",
        snap.uptime.as_secs_f64(),
        snap.unix_time_s
    );
    let mut first = true;
    for (stage, hist) in &snap.stages {
        if hist.count() == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        stage_json(stage.name(), hist, &mut out);
    }
    out.push_str("],\"worker_packets\":[");
    let last_active = snap
        .worker_packets
        .iter()
        .rposition(|&p| p > 0)
        .map_or(0, |i| i + 1);
    for (i, &p) in snap.worker_packets[..last_active].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{p}");
    }
    out.push_str("],\"faults\":{");
    let mut first = true;
    for (kind, count) in &snap.faults {
        if *count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{count}", kind.name());
    }
    out.push_str("},\"archive\":{");
    let mut first = true;
    for (op, count) in &snap.archive_ops {
        if *count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{count}", op.name());
    }
    out.push('}');
    if snap.solver_iterations.iter().any(|(_, h)| h.count() > 0) {
        out.push_str(",\"solver_iterations\":{");
        let mut first = true;
        for (mode, hist) in &snap.solver_iterations {
            if hist.count() == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"mean\":{:.1},\"p50\":{},\"p95\":{}}}",
                mode.name(),
                hist.count(),
                hist.mean_ns(),
                hist.quantile(0.50),
                hist.quantile(0.95)
            );
        }
        out.push('}');
    }
    out.push_str(",\"e2e\":[");
    for (i, (patient, hist)) in snap.e2e.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"patient\":{},\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            patient,
            hist.count(),
            hist.quantile(0.50),
            hist.quantile(0.95),
            hist.quantile(0.99),
            hist.max_ns()
        );
    }
    out.push_str("],\"slo\":[");
    for (i, p) in snap.slo.patients.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"patient\":{},\"health\":\"{}\",\"emits\":{},\"deadline_misses\":{},\"freshness_s\":{:.3},\"fast_burn\":{:.3},\"slow_burn\":{:.3},\"lanes\":[",
            p.patient,
            p.health.name(),
            p.emits,
            p.deadline_misses,
            p.freshness_ns as f64 / 1e9,
            p.fast_burn,
            p.slow_burn
        );
        for (j, lane) in p.lanes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"lane\":{},\"newest_seq\":{},\"age_s\":{:.3}}}",
                lane.lane,
                lane.newest_seq,
                lane.age_ns as f64 / 1e9
            );
        }
        out.push_str("]}");
    }
    out.push(']');
    if snap.ingest_accepted > 0 || snap.ingest_shed > 0 {
        let _ = write!(
            out,
            ",\"ingest\":{{\"accepted\":{},\"shed\":{},\"frames\":{},\"bytes\":{},\"sessions\":{{",
            snap.ingest_accepted, snap.ingest_shed, snap.ingest_frames, snap.ingest_bytes
        );
        let mut first = true;
        for (state, count) in &snap.ingest_sessions {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{count}", state.name());
        }
        out.push_str("},\"disconnects\":{");
        let mut first = true;
        for (reason, count) in &snap.ingest_disconnects {
            if *count == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{count}", reason.name());
        }
        out.push_str("}}");
    }
    let clinical_active = snap.beats.iter().any(|(_, c)| *c > 0)
        || snap.alarms.iter().any(|(_, c)| c.raised > 0)
        || snap.alarms_suppressed > 0
        || snap.qrs_true_positive + snap.qrs_false_positive + snap.qrs_false_negative > 0;
    if clinical_active {
        out.push_str(",\"clinical\":{\"beats\":{");
        let mut first = true;
        for (class, count) in &snap.beats {
            if *count == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{count}", class.name());
        }
        out.push_str("},\"alarms\":{");
        let mut first = true;
        for (kind, counts) in &snap.alarms {
            if counts.raised == 0 && counts.active == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\":{{\"raised\":{},\"cleared\":{},\"active\":{}}}",
                kind.name(),
                counts.raised,
                counts.cleared,
                counts.active
            );
        }
        let _ = write!(out, "}},\"suppressed\":{}", snap.alarms_suppressed);
        let _ = write!(
            out,
            ",\"qrs\":{{\"tp\":{},\"fp\":{},\"fn\":{}",
            snap.qrs_true_positive, snap.qrs_false_positive, snap.qrs_false_negative
        );
        if let Some(sens) = snap.qrs_sensitivity() {
            let _ = write!(out, ",\"sensitivity\":{sens:.4}");
        }
        if let Some(ppv) = snap.qrs_ppv() {
            let _ = write!(out, ",\"ppv\":{ppv:.4}");
        }
        out.push_str("}}");
    }
    out.push_str(",\"scrapes\":{");
    let mut first = true;
    for (endpoint, count) in &snap.scrapes {
        if *count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{count}", endpoint.name());
    }
    out.push('}');
    if snap.render_ns.count() > 0 {
        let _ = write!(
            out,
            ",\"render\":{{\"count\":{},\"p50_ns\":{},\"max_ns\":{}}}",
            snap.render_ns.count(),
            snap.render_ns.quantile(0.50),
            snap.render_ns.max_ns()
        );
    }
    let _ = write!(
        out,
        ",\"journal\":{{\"buffered\":{},\"pushed\":{},\"dropped\":{}}}}}",
        snap.journal_len, snap.journal_pushed, snap.journal_dropped
    );
    out
}

impl TelemetryRegistry {
    fn timed_render(&self, render: impl FnOnce(&TelemetrySnapshot) -> String) -> String {
        let start = self.is_enabled().then(Instant::now);
        let out = render(&self.snapshot());
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.record_render_ns(ns);
        }
        out
    }

    /// Snapshots the registry and renders it in Prometheus text format.
    /// The render itself is timed into `cs_exporter_render_seconds`
    /// (visible from the *next* render onward).
    pub fn prometheus(&self) -> String {
        self.timed_render(prometheus)
    }

    /// Snapshots the registry and renders one JSON-Lines record; timed
    /// like [`TelemetryRegistry::prometheus`].
    pub fn json_line(&self) -> String {
        self.timed_render(json_line)
    }
}

/// A count-based cadence: `tick()` returns `true` on every `n`-th call.
/// Drives "emit a snapshot every N packets" loops without any clock.
///
/// # Examples
///
/// ```
/// use cs_telemetry::Every;
///
/// let mut every = Every::new(3);
/// let fires: Vec<bool> = (0..7).map(|_| every.tick()).collect();
/// assert_eq!(fires, [false, false, true, false, false, true, false]);
/// ```
#[derive(Debug, Clone)]
pub struct Every {
    n: u64,
    seen: u64,
}

impl Every {
    /// Fires on every `n`-th tick (`n` clamped to ≥ 1).
    pub fn new(n: u64) -> Self {
        Every { n: n.max(1), seen: 0 }
    }

    /// Counts one event; `true` when the cadence fires.
    pub fn tick(&mut self) -> bool {
        self.seen += 1;
        if self.seen >= self.n {
            self.seen = 0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Stage;

    fn sample_registry() -> TelemetryRegistry {
        let reg = TelemetryRegistry::new();
        for ns in [100, 200, 400, 800_000] {
            reg.record_stage_ns(Stage::FistaSolve, ns);
        }
        reg.record_stage_ns(Stage::HuffmanDecode, 50);
        reg.record_worker_packet(0);
        reg.record_worker_packet(0);
        reg.record_worker_packet(2);
        reg
    }

    #[test]
    fn prometheus_emits_histogram_family_and_quantiles() {
        let text = sample_registry().prometheus();
        assert!(text.contains("# TYPE cs_stage_latency_ns histogram"));
        assert!(text.contains("cs_stage_latency_ns_bucket{stage=\"fista_solve\",le=\"+Inf\"} 4"));
        assert!(text.contains("cs_stage_latency_ns_count{stage=\"fista_solve\"} 4"));
        assert!(text.contains("cs_stage_latency_ns_sum{stage=\"fista_solve\"} 800700"));
        assert!(text.contains("cs_stage_latency_quantile_ns{stage=\"fista_solve\",quantile=\"0.99\"}"));
        assert!(text.contains("cs_worker_packets_total{worker=\"0\"} 2"));
        assert!(text.contains("cs_worker_packets_total{worker=\"2\"} 1"));
        // Stages never recorded are elided entirely.
        assert!(!text.contains("stage=\"packetize\""));
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_monotone() {
        let text = sample_registry().prometheus();
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("cs_stage_latency_ns_bucket{stage=\"fista_solve\""))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(*counts.last().unwrap(), 4);
    }

    #[test]
    fn json_line_is_single_line_with_expected_fields() {
        let line = sample_registry().json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"stage\":\"fista_solve\",\"count\":4"));
        assert!(line.contains("\"worker_packets\":[2,0,1]"));
        assert!(line.contains("\"journal\":{\"buffered\":0,\"pushed\":0,\"dropped\":0}"));
        // Balanced braces — a cheap well-formedness check without a parser.
        let open = line.matches('{').count();
        let close = line.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn fault_counters_exported_in_both_formats() {
        let reg = sample_registry();
        reg.record_fault(crate::FaultKind::ConcealedLoss);
        reg.record_fault(crate::FaultKind::ConcealedLoss);
        reg.record_fault(crate::FaultKind::WorkerRestart);
        let text = reg.prometheus();
        assert!(text.contains("# TYPE cs_fault_total counter"));
        assert!(text.contains("cs_fault_total{kind=\"concealed_loss\"} 2"));
        assert!(text.contains("cs_fault_total{kind=\"worker_restart\"} 1"));
        // Zero-count kinds are still present as explicit zeroes.
        assert!(text.contains("cs_fault_total{kind=\"quarantined\"} 0"));
        let line = reg.json_line();
        assert!(line.contains("\"faults\":{\"concealed_loss\":2,\"worker_restart\":1}"));
    }

    #[test]
    fn archive_counters_exported_in_both_formats() {
        let reg = sample_registry();
        reg.record_archive_op(crate::ArchiveOp::Append);
        reg.record_archive_op(crate::ArchiveOp::Append);
        reg.record_archive_op(crate::ArchiveOp::TornTail);
        let text = reg.prometheus();
        assert!(text.contains("# TYPE cs_archive_total counter"));
        assert!(text.contains("cs_archive_total{op=\"append\"} 2"));
        assert!(text.contains("cs_archive_total{op=\"torn_tail\"} 1"));
        // Zero-count ops stay present as explicit zeroes.
        assert!(text.contains("cs_archive_total{op=\"compact\"} 0"));
        let line = reg.json_line();
        assert!(line.contains("\"archive\":{\"append\":2,\"torn_tail\":1}"));
    }

    #[test]
    fn solver_iterations_exported_in_both_formats() {
        let reg = sample_registry();
        reg.record_solver_iterations(crate::SolverMode::Warm, 200);
        reg.record_solver_iterations(crate::SolverMode::Warm, 300);
        reg.record_solver_iterations(crate::SolverMode::Block, 120);
        let text = reg.prometheus();
        assert!(text.contains("# TYPE cs_solver_iterations histogram"));
        assert!(text.contains("cs_solver_iterations_bucket{mode=\"warm\",le=\"+Inf\"} 2"));
        assert!(text.contains("cs_solver_iterations_count{mode=\"warm\"} 2"));
        assert!(text.contains("cs_solver_iterations_sum{mode=\"warm\"} 500"));
        assert!(text.contains("cs_solver_iterations_count{mode=\"block\"} 1"));
        // Modes that never solved export no series.
        assert!(!text.contains("mode=\"cold\""));
        let line = reg.json_line();
        assert!(line.contains("\"solver_iterations\":{\"warm\":{\"count\":2,\"mean\":250.0,"));
        assert!(line.contains("\"block\":{\"count\":1,\"mean\":120.0,"));
        let open = line.matches('{').count();
        let close = line.matches('}').count();
        assert_eq!(open, close);
        // Without any solves, neither format mentions the family.
        let off = sample_registry();
        assert!(!off.prometheus().contains("cs_solver_iterations"));
        assert!(!off.json_line().contains("solver_iterations"));
    }

    #[test]
    fn ingest_families_exported_in_both_formats() {
        let reg = sample_registry();
        // An inactive ingest layer exports nothing.
        assert!(!reg.prometheus().contains("cs_ingest_"));
        assert!(!reg.json_line().contains("\"ingest\""));

        use crate::{IngestDisconnect, IngestState};
        reg.ingest_session_enter(IngestState::Handshaking);
        reg.ingest_session_exit(IngestState::Handshaking);
        reg.ingest_session_enter(IngestState::Streaming);
        reg.record_ingest_shed();
        reg.record_ingest_disconnect(IngestDisconnect::SlowLoris);
        reg.record_ingest_frames(7, 700);

        let text = reg.prometheus();
        assert!(text.contains("# TYPE cs_ingest_sessions gauge"));
        assert!(text.contains("cs_ingest_sessions{state=\"handshaking\"} 0"));
        assert!(text.contains("cs_ingest_sessions{state=\"streaming\"} 1"));
        assert!(text.contains("cs_ingest_sessions{state=\"draining\"} 0"));
        assert!(text.contains("cs_ingest_sessions_total 1"));
        assert!(text.contains("cs_ingest_shed_total 1"));
        assert!(text.contains("cs_ingest_disconnect_total{reason=\"slow_loris\"} 1"));
        assert!(text.contains("cs_ingest_disconnect_total{reason=\"client_closed\"} 0"));
        assert!(text.contains("cs_ingest_frames_total 7"));
        assert!(text.contains("cs_ingest_bytes_total 700"));

        let line = reg.json_line();
        assert!(line.contains("\"ingest\":{\"accepted\":1,\"shed\":1,\"frames\":7,\"bytes\":700,"));
        assert!(line.contains("\"sessions\":{\"handshaking\":0,\"streaming\":1,\"draining\":0}"));
        assert!(line.contains("\"disconnects\":{\"slow_loris\":1}"));
        assert_eq!(line.matches('{').count(), line.matches('}').count());

        // The gauge saturates instead of wrapping on an unpaired exit.
        reg.ingest_session_exit(IngestState::Draining);
        assert_eq!(reg.ingest_sessions(IngestState::Draining), 0);
    }

    #[test]
    fn clinical_families_exported_in_both_formats() {
        let reg = sample_registry();
        // Without clinical activity, neither format mentions the layer.
        assert!(!reg.prometheus().contains("cs_beat_total"));
        assert!(!reg.prometheus().contains("cs_alarm_"));
        assert!(!reg.json_line().contains("\"clinical\""));

        use crate::{AlarmKind, BeatClass};
        reg.record_beat(BeatClass::Normal);
        reg.record_beat(BeatClass::Normal);
        reg.record_beat(BeatClass::Pvc);
        reg.record_alarm_raised(AlarmKind::PvcRun);
        reg.record_alarm_raised(AlarmKind::Tachycardia);
        reg.record_alarm_cleared(AlarmKind::Tachycardia);
        reg.record_alarm_suppressed();
        reg.record_qrs_score(19, 1, 1);

        let text = reg.prometheus();
        assert!(text.contains("# TYPE cs_beat_total counter"));
        assert!(text.contains("cs_beat_total{class=\"normal\"} 2"));
        assert!(text.contains("cs_beat_total{class=\"pvc\"} 1"));
        // Zero-count classes stay present as explicit zeroes.
        assert!(text.contains("cs_beat_total{class=\"apc\"} 0"));
        assert!(text.contains("cs_alarm_raised_total{kind=\"pvc_run\"} 1"));
        assert!(text.contains("cs_alarm_raised_total{kind=\"asystole\"} 0"));
        assert!(text.contains("cs_alarm_cleared_total{kind=\"tachycardia\"} 1"));
        assert!(text.contains("cs_alarm_active{kind=\"pvc_run\"} 1"));
        assert!(text.contains("cs_alarm_active{kind=\"tachycardia\"} 0"));
        assert!(text.contains("cs_alarm_suppressed_total 1"));
        assert!(text.contains("cs_qrs_sensitivity 0.95"));
        assert!(text.contains("cs_qrs_ppv 0.95"));

        let line = reg.json_line();
        assert!(line.contains("\"clinical\":{\"beats\":{\"normal\":2,\"pvc\":1}"));
        assert!(line.contains(
            "\"alarms\":{\"pvc_run\":{\"raised\":1,\"cleared\":0,\"active\":1},\
             \"tachycardia\":{\"raised\":1,\"cleared\":1,\"active\":0}}"
        ));
        assert!(line.contains("\"suppressed\":1"));
        assert!(line.contains(
            "\"qrs\":{\"tp\":19,\"fp\":1,\"fn\":1,\"sensitivity\":0.9500,\"ppv\":0.9500}"
        ));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn qrs_gauges_absent_until_denominators_exist() {
        let reg = sample_registry();
        // Only false positives: PPV has a denominator, sensitivity not.
        reg.record_qrs_score(0, 3, 0);
        let text = reg.prometheus();
        assert!(!text.contains("cs_qrs_sensitivity"));
        assert!(text.contains("cs_qrs_ppv 0"));
        let line = reg.json_line();
        assert!(line.contains("\"qrs\":{\"tp\":0,\"fp\":3,\"fn\":0,\"ppv\":0.0000}"));
        assert!(!line.contains("sensitivity"));
    }

    #[test]
    fn empty_registry_exports_cleanly() {
        let reg = TelemetryRegistry::new();
        let line = reg.json_line();
        assert!(line.contains("\"stages\":[]"));
        assert!(line.contains("\"worker_packets\":[]"));
        assert!(line.contains("\"e2e\":[]"));
        assert!(line.contains("\"slo\":[]"));
        let text = reg.prometheus();
        assert!(text.contains("cs_journal_traces{state=\"buffered\"} 0"));
        // No patient has emitted: the e2e/SLO families stay absent, the
        // self-observation counters are present as explicit zeros.
        assert!(!text.contains("cs_e2e_latency_seconds"));
        assert!(!text.contains("cs_patient_health"));
        assert!(text.contains("cs_telemetry_scrapes_total{endpoint=\"metrics\"} 0"));
    }

    #[test]
    fn e2e_and_slo_families_exported_in_both_formats() {
        let reg = TelemetryRegistry::with_slo_config(crate::SloConfig {
            deadline: std::time::Duration::from_millis(2),
            ..Default::default()
        });
        let ctx = crate::TraceContext::new(5, 1, 3, reg.now_ns());
        reg.record_emit(&ctx).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let stale = crate::TraceContext::new(5, 1, 4, 0);
        reg.record_emit(&stale).unwrap();

        let text = reg.prometheus();
        assert!(text.contains("# TYPE cs_e2e_latency_seconds histogram"));
        assert!(text.contains("cs_e2e_latency_seconds_count{patient=\"5\"} 2"));
        assert!(text.contains("cs_e2e_latency_seconds_bucket{patient=\"5\",le=\"+Inf\"} 2"));
        assert!(text.contains("cs_deadline_miss_total{patient=\"5\"} 1"));
        assert!(text.contains("cs_lane_freshness_seconds{patient=\"5\",lane=\"1\"}"));
        assert!(text.contains("cs_lane_newest_seq{patient=\"5\",lane=\"1\"} 4"));
        assert!(text.contains("cs_slo_burn_rate{patient=\"5\",window=\"fast\"}"));
        assert!(text.contains("cs_slo_burn_rate{patient=\"5\",window=\"slow\"}"));
        // One miss out of two emits burns both windows far past the
        // threshold: the one-hot health gauge reads Degraded.
        assert!(text.contains("cs_patient_health{patient=\"5\",state=\"healthy\"} 0"));
        assert!(text.contains("cs_patient_health{patient=\"5\",state=\"degraded\"} 1"));
        assert!(text.contains("cs_patient_health{patient=\"5\",state=\"stalled\"} 0"));

        let line = reg.json_line();
        assert!(line.contains("\"ts_unix_s\":"));
        assert!(line.contains("\"e2e\":[{\"patient\":5,\"count\":2"));
        assert!(line.contains("\"slo\":[{\"patient\":5,\"health\":\"degraded\""));
        assert!(line.contains("\"deadline_misses\":1"));
        assert!(line.contains("\"lanes\":[{\"lane\":1,\"newest_seq\":4"));
        assert!(!line.contains('\n'));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn render_time_is_self_observed_one_scrape_behind() {
        let reg = sample_registry();
        let first = reg.prometheus();
        assert!(
            !first.contains("cs_exporter_render_seconds"),
            "first render cannot contain its own duration"
        );
        let second = reg.prometheus();
        assert!(second.contains("# TYPE cs_exporter_render_seconds histogram"));
        assert!(second.contains("cs_exporter_render_seconds_count 1"));
        assert_eq!(reg.render_times().count(), 2);
        let line = reg.json_line();
        assert!(line.contains("\"render\":{\"count\":2"));
    }

    #[test]
    fn label_escaping_covers_the_spec_characters() {
        assert_eq!(escape_label("fista_solve"), "fista_solve");
        assert!(matches!(
            escape_label("plain"),
            std::borrow::Cow::Borrowed(_)
        ));
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
    }
}
