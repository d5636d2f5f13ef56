//! The exporter: Prometheus text exposition.
//!
//! [`prometheus`] renders a [`TelemetrySnapshot`], so an export never
//! holds any lock the recording paths contend on, and it is one loop over
//! the [family table](crate::family)'s [`FAMILIES`]. The format is
//! hand-rolled and the crate stays dependency-free; every label value
//! passes through [`escape_label`] in the one sample writer, so the
//! output stays spec-conformant even if a label set ever grows a quote,
//! backslash, or newline (today's sets are closed snake_case identifiers,
//! so escaping is a no-op in practice — verified by
//! `tests/prometheus_conformance.rs`).
//!
//! Rendering through [`TelemetryRegistry::prometheus`] is itself
//! observed: render time lands in the `cs_exporter_render_seconds`
//! histogram (one scrape behind, since a render can't include its own
//! duration).

use crate::family::FAMILIES;
use crate::registry::{TelemetryRegistry, TelemetrySnapshot};
use std::time::Instant;

/// The quantiles the exporter and the report surfaces show.
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

impl TelemetryRegistry {
    /// Snapshots the registry and renders it in Prometheus text format.
    /// The render itself is timed into `cs_exporter_render_seconds`
    /// (visible from the *next* render onward).
    pub fn prometheus(&self) -> String {
        let start = self.is_enabled().then(Instant::now);
        let out = prometheus(&self.snapshot());
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.record_render_ns(ns);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::FamilyId;
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
        // Without any solves, the family is absent.
        assert!(!sample_registry().prometheus().contains("cs_solver_iterations"));
    }

    #[test]
    fn ingest_families_exported_in_both_formats() {
        let reg = sample_registry();
        // An inactive ingest layer exports nothing.
        assert!(!reg.prometheus().contains("cs_ingest_"));

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

        // The gauge saturates instead of wrapping on an unpaired exit.
        reg.ingest_session_exit(IngestState::Draining);
        assert_eq!(reg.snapshot().count(FamilyId::IngestSessions, IngestState::Draining), 0);
    }

    #[test]
    fn clinical_families_exported_in_both_formats() {
        let reg = sample_registry();
        // Without clinical activity, the layer exports nothing.
        assert!(!reg.prometheus().contains("cs_beat_total"));
        assert!(!reg.prometheus().contains("cs_alarm_"));

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
    }

    #[test]
    fn qrs_gauges_absent_until_denominators_exist() {
        let reg = sample_registry();
        // Only false positives: PPV has a denominator, sensitivity not.
        reg.record_qrs_score(0, 3, 0);
        let text = reg.prometheus();
        assert!(!text.contains("cs_qrs_sensitivity"));
        assert!(text.contains("cs_qrs_ppv 0"));
    }

    #[test]
    fn empty_registry_exports_cleanly() {
        let text = TelemetryRegistry::new().prometheus();
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
