//! Exporters: Prometheus text exposition and JSON-Lines snapshots.
//!
//! Both render a [`TelemetrySnapshot`], so an export never holds any lock
//! the recording paths contend on, and both are driven by the
//! [family table](crate::family): [`prometheus`] is one loop over
//! [`FAMILIES`], and [`json_line`] writes every stored family's number or
//! label map from its row, keeping hand-written writers only for the
//! blocks with a shape of their own (`stages`, `solver_iterations`,
//! `e2e`, `slo`, `alarms`, `qrs`, `render`, `journal`). The formats are
//! hand-rolled and the crate stays dependency-free; every label value
//! passes through [`escape_label`] in the one sample writer, so the
//! output stays spec-conformant even if a label set ever grows a quote,
//! backslash, or newline (today's sets are closed snake_case identifiers,
//! so escaping is a no-op in practice — verified by
//! `tests/prometheus_conformance.rs`).
//!
//! Rendering through [`TelemetryRegistry::prometheus`] /
//! [`TelemetryRegistry::json_line`] is itself observed: render time
//! lands in the `cs_exporter_render_seconds` histogram (one scrape
//! behind, since a render can't include its own duration).

use crate::family::{observed, Family, FamilyId, Layer, FAMILIES};
use crate::registry::{TelemetryRegistry, TelemetrySnapshot};
use crate::AlarmKind;
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
    let escaped = value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
    std::borrow::Cow::Owned(escaped)
}

/// Renders a snapshot in the Prometheus text exposition format: every
/// row of [`FAMILIES`] that is present, in table order, as `# HELP`,
/// `# TYPE` and its samples. `DESIGN.md` §7 lists the families.
pub fn prometheus(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for family in &FAMILIES {
        family.write_prometheus(snap, &mut out);
    }
    out
}

/// Writes `items` through `each`, comma-separated.
pub(crate) fn joined<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
}

/// Writes the generic `"key":…` entries of `layer` — its unlabelled
/// stored families, its label maps, or (`None`) the former then the
/// latter — comma-separated.
fn layer_json(out: &mut String, snap: &TelemetrySnapshot, layer: Layer, labelled: Option<bool>) {
    let wanted = move |l| labelled.is_none_or(|only| only == l);
    let keys = |l| Family::json_keys(layer, l).filter(move |_| wanted(l));
    joined(out, keys(false).chain(keys(true)), |out, family| family.write_json(snap, out));
}

/// Renders a snapshot as one JSON-Lines record (a single line, no
/// trailing newline). Stages with zero observations and trailing
/// zero-count workers are elided to keep lines scannable.
///
/// Keys, in order: `uptime_s` (seconds since registry creation),
/// `ts_unix_s` (absolute wall-clock seconds since the Unix epoch at
/// snapshot time), `stages`, `worker_packets`, the pipeline layer's
/// stored families (`faults`, `archive`, `kernel_arm`), optional
/// `solver_iterations`,
/// `e2e`, `slo`, optional `ingest` and `clinical` objects (present once
/// their layer is active), the exporter layer's stored families
/// (`scrapes`), optional `render`, `journal`. Which family lands under
/// which key is the `json` column of [`FAMILIES`] (`DESIGN.md` §7).
pub fn json_line(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"uptime_s\":{:.3},\"ts_unix_s\":{:.3},\"stages\":[",
        snap.uptime.as_secs_f64(),
        snap.unix_time_s
    );
    joined(&mut out, observed(&snap.stages), |out, (stage, hist)| {
        let _ = write!(
            out,
            "{{\"stage\":\"{stage}\",\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{:.1}}}",
            hist.count(),
            hist.quantile(0.50),
            hist.quantile(0.95),
            hist.quantile(0.99),
            hist.min_ns(),
            hist.max_ns(),
            hist.mean_ns()
        );
    });
    out.push_str("],\"worker_packets\":[");
    let last_active = snap.worker_packets.iter().rposition(|&p| p > 0).map_or(0, |i| i + 1);
    joined(&mut out, &snap.worker_packets[..last_active], |out, packets| {
        let _ = write!(out, "{packets}");
    });
    out.push_str("],");
    layer_json(&mut out, snap, Layer::Pipeline, None);
    if observed(&snap.solver_iterations).next().is_some() {
        out.push_str(",\"solver_iterations\":{");
        joined(&mut out, observed(&snap.solver_iterations), |out, (mode, hist)| {
            let _ = write!(
                out,
                "\"{mode}\":{{\"count\":{},\"mean\":{:.1},\"p50\":{},\"p95\":{}}}",
                hist.count(),
                hist.mean_ns(),
                hist.quantile(0.50),
                hist.quantile(0.95)
            );
        });
        out.push('}');
    }
    out.push_str(",\"e2e\":[");
    joined(&mut out, &snap.e2e, |out, (patient, hist)| {
        let _ = write!(
            out,
            "{{\"patient\":{patient},\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            hist.count(),
            hist.quantile(0.50),
            hist.quantile(0.95),
            hist.quantile(0.99),
            hist.max_ns()
        );
    });
    out.push_str("],\"slo\":[");
    joined(&mut out, &snap.slo.patients, |out, p| {
        let _ = write!(
            out,
            "{{\"patient\":{},\"health\":\"{}\",\"emits\":{},\"deadline_misses\":{},\"freshness_s\":{:.3},\"fast_burn\":{:.3},\"slow_burn\":{:.3},\"lanes\":[",
            p.patient,
            p.health,
            p.emits,
            p.deadline_misses,
            p.freshness_ns as f64 / 1e9,
            p.fast_burn,
            p.slow_burn
        );
        joined(out, &p.lanes, |out, lane| {
            let _ = write!(
                out,
                "{{\"lane\":{},\"newest_seq\":{},\"age_s\":{:.3}}}",
                lane.lane,
                lane.newest_seq,
                lane.age_ns as f64 / 1e9
            );
        });
        out.push_str("]}");
    });
    out.push(']');
    if snap.layer_active(Layer::Ingest) {
        out.push_str(",\"ingest\":{");
        layer_json(&mut out, snap, Layer::Ingest, None);
        out.push('}');
    }
    if snap.layer_active(Layer::Clinical) {
        out.push_str(",\"clinical\":{");
        layer_json(&mut out, snap, Layer::Clinical, Some(true));
        out.push_str(",\"alarms\":{");
        let alarms = AlarmKind::ALL.map(|kind| {
            let of = |family| snap.count(family, kind);
            (kind, of(FamilyId::AlarmRaised), of(FamilyId::AlarmCleared), of(FamilyId::AlarmActive))
        });
        let touched = alarms.iter().filter(|(_, raised, _, active)| raised + active > 0);
        joined(&mut out, touched, |out, (kind, raised, cleared, active)| {
            let _ = write!(
                out,
                "\"{kind}\":{{\"raised\":{raised},\"cleared\":{cleared},\"active\":{active}}}"
            );
        });
        out.push_str("},");
        layer_json(&mut out, snap, Layer::Clinical, Some(false));
        let (tp, fp, fneg) = snap.qrs_confusion;
        let _ = write!(out, ",\"qrs\":{{\"tp\":{tp},\"fp\":{fp},\"fn\":{fneg}");
        if let Some(sens) = snap.qrs_sensitivity() {
            let _ = write!(out, ",\"sensitivity\":{sens:.4}");
        }
        if let Some(ppv) = snap.qrs_ppv() {
            let _ = write!(out, ",\"ppv\":{ppv:.4}");
        }
        out.push_str("}}");
    }
    out.push(',');
    layer_json(&mut out, snap, Layer::Exporter, None);
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
        assert_eq!(reg.snapshot().count(FamilyId::IngestSessions, IngestState::Draining), 0);
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
        assert_eq!(reg.snapshot().render_ns.count(), 2);
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
