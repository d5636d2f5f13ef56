//! The metric-family table: every family this crate exports, declared
//! once.
//!
//! [`FAMILIES`] is the single description of the exposition — name, type,
//! label keys, help, when the family is present. The Prometheus exporter,
//! the conformance validator and the reference table in `DESIGN.md` §7
//! iterate it; none names a family.
//!
//! A row is **stored** (`stored`, `scalar`) — a counter or gauge the
//! registry keeps itself, in cells this table lays out (`FamilyId::cells`,
//! one per label value), so adding one is the row plus a one-line
//! `record_*` method — or **derived** (`derived`): samples its closure
//! computes from other snapshot state (histograms, journal, SLO engine).

use crate::export::{escape_label, REPORT_QUANTILES};
use crate::histogram::{bucket_upper, HistogramSnapshot};
use crate::label::Label;
use crate::registry::TelemetrySnapshot;
use crate::slo::{HealthState, LaneWatermark, PatientSlo};
use crate::{
    AlarmKind, ArchiveOp, BeatClass, FaultKind, IngestDisconnect, IngestState, ScrapeEndpoint,
};
use std::fmt::{Display, Write as _};
use std::ops::Range;

/// The Prometheus metric type of a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone count; the name ends in `_total`.
    Counter,
    /// A value that can go down.
    Gauge,
    /// Classic cumulative histogram (`_bucket`/`_sum`/`_count`). Bounds
    /// and sum are written as recorded (nanoseconds, or raw iteration
    /// counts) unless `seconds`, which converts nanoseconds to seconds.
    Histogram {
        /// Expose the recorded nanoseconds as seconds.
        seconds: bool,
    },
}

impl Kind {
    /// The word after `# TYPE <name>`.
    pub fn type_name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram { .. } => "histogram",
        }
    }
}

/// The part of the system a family reports on: decides whether its
/// [`Presence::WhenActive`] families are exported at all
/// ([`TelemetrySnapshot::layer_active`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Stages, workers, faults, archive, journal — always active.
    Pipeline,
    /// Beats and alarms; active once `cs-clinical` has recorded anything.
    Clinical,
    /// End-to-end latency and per-patient SLO state; active once a
    /// packet has been emitted.
    Slo,
    /// Socket-ingest sessions; active once one was admitted or shed.
    Ingest,
    /// The exporter observing itself — always active.
    Exporter,
}

/// When a family's `# HELP`/`# TYPE` header and samples are exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// In every scrape, even with no sample yet.
    Always,
    /// Once its layer is active and it has at least one sample: a fleet
    /// with no clinical tap exports no `cs_alarm_*` rows at all rather
    /// than rows of zeros.
    WhenActive,
}

/// One metric family: a row of [`FAMILIES`].
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// The row's identifier (its index in [`FAMILIES`]).
    pub id: FamilyId,
    /// Metric name as exported.
    pub name: &'static str,
    /// Prometheus type.
    pub kind: Kind,
    /// Label keys on every sample, in order (a histogram's `le` aside).
    pub labels: &'static [&'static str],
    /// The layer the family reports on.
    pub layer: Layer,
    /// When the family is exported.
    pub presence: Presence,
    /// The `# HELP` text.
    pub help: &'static str,
    source: Source,
}

/// Where a family's samples come from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Cells the registry stores, one per wire name of the family's
    /// label set — or a single unlabelled cell when there are no names.
    Cells(&'static [&'static str]),
    /// Computed from the rest of the snapshot.
    Derived(fn(&TelemetrySnapshot, &mut Samples<'_>)),
}

/// A row's label keys and its source, as the three row kinds spell them.
type Shape = (&'static [&'static str], Source);

/// A stored counter or gauge with one cell per value of the label set
/// `L`.
const fn stored<L: Label>() -> Shape {
    (&[L::KEY], Source::Cells(L::NAMES))
}

/// A stored, unlabelled counter or gauge: one cell.
const fn scalar() -> Shape {
    (&[], Source::Cells(&[]))
}

/// A stored counter or gauge labelled `key`, one cell per name — for a
/// closed set whose values another crate names, so no enum declares it.
const fn stored_names(key: &'static [&'static str; 1], names: &'static [&'static str]) -> Shape {
    (key, Source::Cells(names))
}

/// The vector-kernel arms `cs_dsp::kernel_arm` can name: the label values
/// of `cs_kernel_arm_info`.
pub(crate) const KERNEL_ARMS: [&str; 3] = ["avx512", "avx2", "baseline"];

/// A family whose samples `write` computes from the snapshot, under the
/// given label keys.
const fn derived(
    labels: &'static [&'static str],
    write: fn(&TelemetrySnapshot, &mut Samples<'_>),
) -> Shape {
    (labels, Source::Derived(write))
}

/// Declares [`FamilyId`] and [`FAMILIES`] together, so a row's
/// identifier is its position by construction. Columns: name, type,
/// layer, presence, help, then the row's [`Shape`].
macro_rules! families {
    ($( $id:ident = $name:literal: $kind:expr, $layer:expr, $presence:expr,
        $help:literal, $shape:expr; )+) => {
        /// Identifies one row of [`FAMILIES`] — what a stored family's
        /// `record_*` method and a snapshot lookup name it by.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum FamilyId {
            $( #[doc = concat!("`", $name, "`.")] $id, )+
        }

        /// Every exported family, in exposition order.
        pub static FAMILIES: [Family; [$($name),+].len()] = [$({
            let (labels, source) = $shape;
            Family {
                id: FamilyId::$id,
                name: $name,
                kind: $kind,
                labels,
                layer: $layer,
                presence: $presence,
                help: $help,
                source,
            }
        }),+];
    };
}

use Kind::{Counter, Gauge, Histogram};
use Layer::{Clinical, Exporter, Ingest, Pipeline, Slo};
use Presence::{Always, WhenActive};

families! {
    StageLatency = "cs_stage_latency_ns": Histogram { seconds: false }, Pipeline, Always,
        "Per-stage pipeline latency in nanoseconds",
        derived(&["stage"], |snap, out| {
            snap.stages.iter().for_each(|(stage, hist)| out.histogram(&[stage], hist));
        });
    StageQuantile = "cs_stage_latency_quantile_ns": Gauge, Pipeline, Always,
        "Per-stage latency quantiles (log2-bucket resolution)",
        derived(&["stage", "quantile"], |snap, out| {
            for (stage, hist) in snap.stages.iter().filter(|(_, hist)| hist.count() > 0) {
                for (p, quantile) in REPORT_QUANTILES {
                    out.put(&[stage, &quantile], hist.quantile(p));
                }
            }
        });
    SolverIterations = "cs_solver_iterations": Histogram { seconds: false }, Pipeline, WhenActive,
        "FISTA iterations per solve by solver mode",
        derived(&["mode"], |snap, out| {
            snap.solver_iterations.iter().for_each(|(mode, hist)| out.histogram(&[mode], hist));
        });
    WorkerPackets = "cs_worker_packets_total": Counter, Pipeline, Always,
        "Packets decoded per fleet worker",
        derived(&["worker"], |snap, out| {
            let busy = snap.worker_packets.iter().enumerate().filter(|(_, &packets)| packets > 0);
            busy.for_each(|(worker, packets)| out.put(&[&worker], packets));
        });
    Fault = "cs_fault_total": Counter, Pipeline, Always,
        "Fault and recovery events by kind", stored::<FaultKind>();
    Archive = "cs_archive_total": Counter, Pipeline, Always,
        "Durable-store operations by kind", stored::<ArchiveOp>();
    KernelArm = "cs_kernel_arm_info": Gauge, Pipeline, Always,
        "Vector-kernel arm this host's decoder runs (1 on that arm)",
        stored_names(&["arm"], &KERNEL_ARMS);
    Beat = "cs_beat_total": Counter, Clinical, WhenActive,
        "Classified beats by class", stored::<BeatClass>();
    AlarmRaised = "cs_alarm_raised_total": Counter, Clinical, WhenActive,
        "Alarm activations by kind", stored::<AlarmKind>();
    AlarmCleared = "cs_alarm_cleared_total": Counter, Clinical, WhenActive,
        "Alarm clearances by kind", stored::<AlarmKind>();
    AlarmActive = "cs_alarm_active": Gauge, Clinical, WhenActive,
        "Currently active alarms by kind", stored::<AlarmKind>();
    AlarmSuppressed = "cs_alarm_suppressed_total": Counter, Clinical, WhenActive,
        "Alarm evaluations suppressed over concealed windows", scalar();
    QrsSensitivity = "cs_qrs_sensitivity": Gauge, Clinical, WhenActive,
        "Streaming QRS detection sensitivity vs annotations",
        derived(&[], |snap, out| snap.qrs_sensitivity().into_iter().for_each(|r| out.put(&[], r)));
    QrsPpv = "cs_qrs_ppv": Gauge, Clinical, WhenActive,
        "Streaming QRS detection positive predictive value vs annotations",
        derived(&[], |snap, out| snap.qrs_ppv().into_iter().for_each(|r| out.put(&[], r)));
    JournalTraces = "cs_journal_traces": Gauge, Pipeline, Always,
        "Event-journal accounting",
        derived(&["state"], |snap, out| {
            out.put(&[&"buffered"], snap.journal_len);
            out.put(&[&"pushed"], snap.journal_pushed);
            out.put(&[&"dropped"], snap.journal_dropped);
        });
    E2eLatency = "cs_e2e_latency_seconds": Histogram { seconds: true }, Slo, WhenActive,
        "Capture-to-emit latency per patient",
        derived(&["patient"], |snap, out| {
            snap.e2e.iter().for_each(|(patient, hist)| out.histogram(&[patient], hist));
        });
    DeadlineMiss = "cs_deadline_miss_total": Counter, Slo, WhenActive,
        "Emissions that exceeded the end-to-end deadline budget",
        derived(&["patient"], |snap, out| {
            snap.slo.patients.iter().for_each(|p| out.put(&[&p.patient], p.deadline_misses));
        });
    LaneFreshness = "cs_lane_freshness_seconds": Gauge, Slo, WhenActive,
        "Age of the newest emission per patient lane",
        derived(&["patient", "lane"], |snap, out| {
            for (p, lane) in lanes(snap) {
                out.put(&[&p.patient, &lane.lane], lane.age_ns as f64 / 1e9);
            }
        });
    LaneNewestSeq = "cs_lane_newest_seq": Gauge, Slo, WhenActive,
        "Newest emitted sequence number per patient lane",
        derived(&["patient", "lane"], |snap, out| {
            lanes(snap).for_each(|(p, lane)| out.put(&[&p.patient, &lane.lane], lane.newest_seq));
        });
    SloBurnRate = "cs_slo_burn_rate": Gauge, Slo, WhenActive,
        "Error-budget burn rate per patient and window",
        derived(&["patient", "window"], |snap, out| {
            for p in &snap.slo.patients {
                out.put(&[&p.patient, &"fast"], p.fast_burn);
                out.put(&[&p.patient, &"slow"], p.slow_burn);
            }
        });
    PatientHealth = "cs_patient_health": Gauge, Slo, WhenActive,
        "Derived SLO health (one-hot over states)",
        derived(&["patient", "state"], |snap, out| {
            for p in &snap.slo.patients {
                for state in HealthState::ALL {
                    out.put(&[&p.patient, &state], u64::from(p.health == state));
                }
            }
        });
    IngestSessions = "cs_ingest_sessions": Gauge, Ingest, WhenActive,
        "Live ingest sessions by lifecycle state", stored::<IngestState>();
    IngestAccepted = "cs_ingest_sessions_total": Counter, Ingest, WhenActive,
        "Sessions ever admitted to handshaking", scalar();
    IngestShed = "cs_ingest_shed_total": Counter, Ingest, WhenActive,
        "Sessions refused by the admission controller", scalar();
    IngestDisconnects = "cs_ingest_disconnect_total": Counter, Ingest, WhenActive,
        "Session terminations by reason", stored::<IngestDisconnect>();
    IngestFrames = "cs_ingest_frames_total": Counter, Ingest, WhenActive,
        "Frames accepted off ingest sockets", scalar();
    IngestBytes = "cs_ingest_bytes_total": Counter, Ingest, WhenActive,
        "Wire bytes accepted off ingest sockets", scalar();
    Scrapes = "cs_telemetry_scrapes_total": Counter, Exporter, Always,
        "HTTP scrape requests by endpoint", stored::<ScrapeEndpoint>();
    RenderSeconds = "cs_exporter_render_seconds": Histogram { seconds: true }, Exporter, WhenActive,
        "Exporter render time (lags the current render by one scrape)",
        derived(&[], |snap, out| out.histogram(&[], &snap.render_ns));
}

/// Every lane watermark of every active patient, with its patient.
fn lanes(snap: &TelemetrySnapshot) -> impl Iterator<Item = (&PatientSlo, &LaneWatermark)> {
    snap.slo.patients.iter().flat_map(|p| p.lanes.iter().map(move |lane| (p, lane)))
}

/// First cell of every family, plus the total as the last entry.
const CELL_OFFSETS: [usize; FAMILIES.len() + 1] = {
    let mut offsets = [0; FAMILIES.len() + 1];
    let mut i = 0;
    while i < FAMILIES.len() {
        let width = match FAMILIES[i].source {
            Source::Cells([]) => 1,
            Source::Cells(names) => names.len(),
            Source::Derived(_) => 0,
        };
        offsets[i + 1] = offsets[i] + width;
        i += 1;
    }
    offsets
};

/// Length of the registry's cell array: every stored family's cells.
pub(crate) const CELLS: usize = CELL_OFFSETS[FAMILIES.len()];

impl FamilyId {
    /// The family's cells within the registry's (and a snapshot's) cell
    /// array; empty for a derived family. A constant once inlined — the
    /// recording path indexes a fixed offset, it does not search.
    #[inline]
    pub(crate) const fn cells(self) -> Range<usize> {
        CELL_OFFSETS[self as usize]..CELL_OFFSETS[self as usize + 1]
    }
}

impl Family {
    /// Appends the family's Prometheus exposition — header and samples —
    /// to `out`, or nothing when its [`Presence`] rule says it is absent.
    pub(crate) fn write_prometheus(&self, snap: &TelemetrySnapshot, out: &mut String) {
        let start = out.len();
        let _ = writeln!(out, "# HELP {} {}", self.name, self.help);
        let _ = writeln!(out, "# TYPE {} {}", self.name, self.kind.type_name());
        let header_end = out.len();
        let mut samples = Samples { out, family: self };
        match self.source {
            Source::Cells([]) => samples.put(&[], snap.total(self.id)),
            // Every value of a closed set is written, zero or not: a
            // dashboard watching quarantine rates must see an explicit 0,
            // not a missing series.
            Source::Cells(names) => {
                for (name, count) in names.iter().zip(snap.cells(self.id)) {
                    samples.put(&[name], count);
                }
            }
            Source::Derived(write) => write(snap, &mut samples),
        }
        let sampled = out.len() > header_end;
        if self.presence == Presence::WhenActive && !(sampled && snap.layer_active(self.layer)) {
            out.truncate(start);
        }
    }
}

/// Writes one family's Prometheus sample lines. Label *keys* come from
/// the family's row, so a sample cannot carry a key its row does not
/// declare; every label *value* is escaped here, once.
pub(crate) struct Samples<'a> {
    out: &'a mut String,
    family: &'a Family,
}

impl Samples<'_> {
    /// One sample; `values` parallel the family's label keys.
    pub(crate) fn put(&mut self, values: &[&dyn Display], value: impl Display) {
        self.line("", values, None, value);
    }

    /// One classic histogram series: cumulative counts at each occupied
    /// bucket's upper bound, `+Inf`, `_sum` and `_count` — or nothing for
    /// a histogram with no observation (an unobserved stage, solver mode
    /// or patient exports no series at all).
    pub(crate) fn histogram(&mut self, values: &[&dyn Display], hist: &HistogramSnapshot) {
        if hist.count() == 0 {
            return;
        }
        let seconds = self.family.kind == Kind::Histogram { seconds: true };
        let render = |v: u64| if seconds { (v as f64 / 1e9).to_string() } else { v.to_string() };
        let mut cumulative = 0u64;
        for (i, &count) in hist.buckets.iter().enumerate() {
            if count > 0 {
                cumulative += count;
                self.line("_bucket", values, Some(&render(bucket_upper(i))), cumulative);
            }
        }
        self.line("_bucket", values, Some("+Inf"), hist.count());
        self.line("_sum", values, None, render(hist.sum_ns()));
        self.line("_count", values, None, hist.count());
    }

    /// `<name><suffix>{<labels>[,le]} <n>`, the one place a sample line is spelled.
    fn line(&mut self, suffix: &str, values: &[&dyn Display], le: Option<&str>, n: impl Display) {
        debug_assert_eq!(values.len(), self.family.labels.len(), "{}", self.family.name);
        let _ = write!(self.out, "{}{suffix}", self.family.name);
        let le = le.as_ref().map(|le| ("le", le as &dyn Display));
        let labels = self.family.labels.iter().copied().zip(values.iter().copied()).chain(le);
        let mut open = '{';
        for (key, value) in labels {
            let _ = write!(self.out, "{open}{key}=\"{}\"", escape_label(&value.to_string()));
            open = ',';
        }
        // A label-free series is written bare (`x_sum 3`), not `x_sum{}`.
        if open == ',' {
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {n}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_index_their_own_rows_and_names_are_unique() {
        for (i, family) in FAMILIES.iter().enumerate() {
            assert_eq!(family.id as usize, i);
            assert!(family.name.starts_with("cs_"), "{}", family.name);
            assert!(!family.help.is_empty());
            assert_eq!(
                family.kind == Kind::Counter,
                family.name.ends_with("_total"),
                "{}: counters, and only counters, end in _total",
                family.name
            );
        }
        let mut names: Vec<_> = FAMILIES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FAMILIES.len());
    }

    #[test]
    fn stored_families_tile_the_cell_array() {
        let mut next = 0;
        for family in &FAMILIES {
            let cells = family.id.cells();
            assert_eq!(cells.start, next, "{}", family.name);
            match family.source {
                Source::Cells(names) => {
                    assert_eq!(cells.len(), names.len().max(1), "{}", family.name);
                    assert_eq!(family.labels.len(), usize::from(!names.is_empty()));
                }
                Source::Derived(_) => assert!(cells.is_empty(), "{}", family.name),
            }
            next = cells.end;
        }
        assert_eq!(next, CELLS);
    }
}
