//! The telemetry registry and its RAII span guards.
//!
//! A [`TelemetryRegistry`] is a cheaply clonable handle (an `Arc`) to the
//! shared recording state: one [`Histogram`] per [`Stage`], a fixed array
//! of per-worker packet counters, and the bounded [`Journal`] of
//! convergence traces. Instrumented code paths hold a registry
//! unconditionally — the **disabled** registry is a process-wide shared
//! handle whose every recording operation is gated on a single relaxed
//! `AtomicBool` load, so un-observed pipelines pay one atomic load per
//! span and nothing else (measured < 2 % of fleet throughput by the
//! `telemetry_overhead` bench even when *enabled*).

use crate::archive::ArchiveOp;
use crate::clinical::{AlarmKind, BeatClass};
use crate::fault::FaultKind;
use crate::ingest::{IngestDisconnect, IngestState};
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::journal::{Journal, SolveTrace};
use crate::mode::SolverMode;
use crate::serve::ScrapeEndpoint;
use crate::slo::{SloConfig, SloEngine, SloSnapshot, MAX_PATIENTS};
use crate::stage::Stage;
use crate::trace::{EmitRecord, TraceContext};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Per-worker counter slots. Worker ids beyond this fold back modulo
/// `MAX_WORKERS`; at the paper's per-stream decode costs a single host
/// saturates long before 64 workers.
pub const MAX_WORKERS: usize = 64;

/// Default journal capacity in traces (~64 two-second packets of history
/// per worker at the default fleet shape).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

struct Inner {
    enabled: AtomicBool,
    started: Instant,
    stages: [Histogram; Stage::COUNT],
    workers: [AtomicU64; MAX_WORKERS],
    faults: [AtomicU64; FaultKind::COUNT],
    archive: [AtomicU64; ArchiveOp::COUNT],
    /// Per-solver-mode iteration counts (raw iterations, not durations):
    /// a solve of `k` iterations records the value `k` into its mode's
    /// histogram, so means/percentiles read directly as iterations.
    solver_iterations: [Histogram; SolverMode::COUNT],
    journal: Journal,
    /// Per-patient end-to-end (capture → emit) latency; stream ids fold
    /// modulo [`MAX_PATIENTS`], mirroring the worker counters.
    e2e: [Histogram; MAX_PATIENTS],
    slo: SloEngine,
    /// Self-observation: scrape hits per HTTP endpoint and exporter
    /// render times — the telemetry layer appears in its own output.
    scrapes: [AtomicU64; ScrapeEndpoint::COUNT],
    render: Histogram,
    /// Socket-ingest lifecycle: live session counts per state (gauge
    /// semantics — enter/exit), sessions ever accepted, admission sheds,
    /// terminal disconnect reasons, and accepted frame/byte volume.
    ingest_states: [AtomicU64; IngestState::COUNT],
    ingest_accepted: AtomicU64,
    ingest_shed: AtomicU64,
    ingest_disconnects: [AtomicU64; IngestDisconnect::COUNT],
    ingest_frames: AtomicU64,
    ingest_bytes: AtomicU64,
    /// Clinical analysis layer: alarms raised/cleared per kind (totals),
    /// currently-active alarm gauges per kind, alarm evaluations
    /// suppressed on concealed windows, classified beats per class, and
    /// the QRS-detection confusion counts the sensitivity/PPV panels are
    /// derived from.
    alarms_raised: [AtomicU64; AlarmKind::COUNT],
    alarms_cleared: [AtomicU64; AlarmKind::COUNT],
    alarms_active: [AtomicU64; AlarmKind::COUNT],
    alarms_suppressed: AtomicU64,
    beats: [AtomicU64; BeatClass::COUNT],
    qrs_true_positive: AtomicU64,
    qrs_false_positive: AtomicU64,
    qrs_false_negative: AtomicU64,
}

/// Shared handle to the telemetry recording state.
///
/// # Examples
///
/// ```
/// use cs_telemetry::{Stage, TelemetryRegistry};
///
/// let telemetry = TelemetryRegistry::new();
/// {
///     let _span = telemetry.span(Stage::FistaSolve);
///     // ... the work being timed ...
/// }
/// assert_eq!(telemetry.stage(Stage::FistaSolve).count(), 1);
///
/// // The disabled registry records nothing and costs one atomic load.
/// let off = TelemetryRegistry::disabled();
/// let _span = off.span(Stage::FistaSolve);
/// drop(_span);
/// assert_eq!(off.stage(Stage::FistaSolve).count(), 0);
/// ```
#[derive(Clone)]
pub struct TelemetryRegistry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryRegistry")
            .field("enabled", &self.is_enabled())
            .field("uptime", &self.uptime())
            .finish_non_exhaustive()
    }
}

impl Default for TelemetryRegistry {
    fn default() -> Self {
        TelemetryRegistry::new()
    }
}

impl TelemetryRegistry {
    /// A fresh, enabled registry with the default journal capacity.
    pub fn new() -> Self {
        TelemetryRegistry::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A fresh, enabled registry whose journal holds `capacity` traces.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        TelemetryRegistry::with_capacity_and_slo(capacity, SloConfig::default())
    }

    /// A fresh, enabled registry with a custom SLO (deadline budget,
    /// stall threshold, burn windows) and the default journal capacity.
    pub fn with_slo_config(slo: SloConfig) -> Self {
        TelemetryRegistry::with_capacity_and_slo(DEFAULT_JOURNAL_CAPACITY, slo)
    }

    /// A fresh, enabled registry with both knobs. The SLO is fixed at
    /// construction so the recording path never re-reads configuration.
    pub fn with_capacity_and_slo(capacity: usize, slo: SloConfig) -> Self {
        TelemetryRegistry {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                started: Instant::now(),
                stages: std::array::from_fn(|_| Histogram::new()),
                workers: std::array::from_fn(|_| AtomicU64::new(0)),
                faults: std::array::from_fn(|_| AtomicU64::new(0)),
                archive: std::array::from_fn(|_| AtomicU64::new(0)),
                solver_iterations: std::array::from_fn(|_| Histogram::new()),
                journal: Journal::new(capacity),
                e2e: std::array::from_fn(|_| Histogram::new()),
                slo: SloEngine::new(slo),
                scrapes: std::array::from_fn(|_| AtomicU64::new(0)),
                render: Histogram::new(),
                ingest_states: std::array::from_fn(|_| AtomicU64::new(0)),
                ingest_accepted: AtomicU64::new(0),
                ingest_shed: AtomicU64::new(0),
                ingest_disconnects: std::array::from_fn(|_| AtomicU64::new(0)),
                ingest_frames: AtomicU64::new(0),
                ingest_bytes: AtomicU64::new(0),
                alarms_raised: std::array::from_fn(|_| AtomicU64::new(0)),
                alarms_cleared: std::array::from_fn(|_| AtomicU64::new(0)),
                alarms_active: std::array::from_fn(|_| AtomicU64::new(0)),
                alarms_suppressed: AtomicU64::new(0),
                beats: std::array::from_fn(|_| AtomicU64::new(0)),
                qrs_true_positive: AtomicU64::new(0),
                qrs_false_positive: AtomicU64::new(0),
                qrs_false_negative: AtomicU64::new(0),
            }),
        }
    }

    /// The process-wide disabled registry: every un-instrumented pipeline
    /// shares this handle, so constructing encoders/decoders without
    /// telemetry allocates nothing and recording costs one atomic load.
    pub fn disabled() -> Self {
        static DISABLED: OnceLock<TelemetryRegistry> = OnceLock::new();
        DISABLED
            .get_or_init(|| {
                let r = TelemetryRegistry::with_journal_capacity(1);
                r.set_enabled(false);
                r
            })
            .clone()
    }

    /// Whether recording is on (one relaxed atomic load — the only cost
    /// a disabled span pays).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime. Spans already entered keep
    /// the decision made at entry.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Enters a timed span over `stage`; the elapsed time is recorded
    /// into the stage histogram when the guard drops.
    #[inline]
    pub fn span(&self, stage: Stage) -> Span<'_> {
        Span::enter(self, stage)
    }

    /// Records a pre-measured duration against a stage.
    pub fn record_stage_ns(&self, stage: Stage, ns: u64) {
        if self.is_enabled() {
            self.inner.stages[stage.index()].record_ns(ns);
        }
    }

    /// The live histogram for one stage.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.inner.stages[stage.index()]
    }

    /// Counts one decoded packet against a worker (ids fold modulo
    /// [`MAX_WORKERS`]).
    pub fn record_worker_packet(&self, worker: usize) {
        if self.is_enabled() {
            self.inner.workers[worker % MAX_WORKERS].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Per-worker packet counts for workers `0..n`.
    pub fn worker_packets(&self, n: usize) -> Vec<u64> {
        self.inner.workers[..n.min(MAX_WORKERS)]
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Counts one fault event of the given kind (no-op when disabled).
    pub fn record_fault(&self, kind: FaultKind) {
        if self.is_enabled() {
            self.inner.faults[kind.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The running count for one fault kind.
    pub fn fault_count(&self, kind: FaultKind) -> u64 {
        self.inner.faults[kind.index()].load(Ordering::Relaxed)
    }

    /// Counts one archive operation of the given kind (no-op when
    /// disabled).
    pub fn record_archive_op(&self, op: ArchiveOp) {
        if self.is_enabled() {
            self.inner.archive[op.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts `n` archive operations at once (e.g. a replay batch).
    pub fn record_archive_ops(&self, op: ArchiveOp, n: u64) {
        if self.is_enabled() {
            self.inner.archive[op.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The running count for one archive operation.
    pub fn archive_count(&self, op: ArchiveOp) -> u64 {
        self.inner.archive[op.index()].load(Ordering::Relaxed)
    }

    /// Records the iteration count of one solve against its mode's
    /// histogram (no-op when disabled). Raw counts, not durations.
    pub fn record_solver_iterations(&self, mode: SolverMode, iterations: usize) {
        if self.is_enabled() {
            self.inner.solver_iterations[mode.index()].record_ns(iterations as u64);
        }
    }

    /// The live per-mode iteration histogram.
    pub fn solver_iterations(&self, mode: SolverMode) -> &Histogram {
        &self.inner.solver_iterations[mode.index()]
    }

    /// Appends a convergence trace to the journal (no-op when disabled).
    pub fn record_solve(&self, trace: SolveTrace) {
        if self.is_enabled() {
            self.inner.journal.push(trace);
        }
    }

    /// The convergence-trace journal.
    pub fn journal(&self) -> &Journal {
        &self.inner.journal
    }

    /// Time since the registry was created.
    pub fn uptime(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// Nanoseconds on this registry's monotonic clock (its creation
    /// instant is zero) — the time base every [`TraceContext`] and SLO
    /// watermark uses. Not comparable across registries.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The SLO this registry enforces.
    pub fn slo_config(&self) -> &SloConfig {
        self.inner.slo.config()
    }

    /// Records one delivered packet against the end-to-end latency
    /// histogram and the SLO engine, returning what was measured.
    /// Returns `None` (and records nothing) when disabled.
    pub fn record_emit(&self, ctx: &TraceContext) -> Option<EmitRecord> {
        if !self.is_enabled() {
            return None;
        }
        let now = self.now_ns();
        let e2e_ns = now.saturating_sub(ctx.captured_ns);
        self.inner.e2e[ctx.stream as usize % MAX_PATIENTS].record_ns(e2e_ns);
        let deadline_missed = e2e_ns > self.inner.slo.deadline_ns();
        self.inner
            .slo
            .record_emit(ctx.stream as usize, ctx.lane as usize, ctx.seq, now, deadline_missed);
        Some(EmitRecord { e2e_ns, deadline_missed })
    }

    /// The live end-to-end latency histogram for one patient slot
    /// (stream ids fold modulo [`MAX_PATIENTS`]).
    pub fn e2e(&self, patient: usize) -> &Histogram {
        &self.inner.e2e[patient % MAX_PATIENTS]
    }

    /// The derived SLO state for every active patient, evaluated now.
    pub fn slo_snapshot(&self) -> SloSnapshot {
        self.inner.slo.snapshot(self.now_ns())
    }

    /// Counts one HTTP scrape against an endpoint (no-op when disabled).
    pub fn record_scrape(&self, endpoint: ScrapeEndpoint) {
        if self.is_enabled() {
            self.inner.scrapes[endpoint.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The running scrape count for one endpoint.
    pub fn scrape_count(&self, endpoint: ScrapeEndpoint) -> u64 {
        self.inner.scrapes[endpoint.index()].load(Ordering::Relaxed)
    }

    /// Records one exporter render duration (no-op when disabled).
    pub fn record_render_ns(&self, ns: u64) {
        if self.is_enabled() {
            self.inner.render.record_ns(ns);
        }
    }

    /// The live exporter render-time histogram.
    pub fn render_times(&self) -> &Histogram {
        &self.inner.render
    }

    /// Marks one ingest session entering a lifecycle `state` (no-op when
    /// disabled). Pair with [`TelemetryRegistry::ingest_session_exit`];
    /// entering `Handshaking` also counts toward the sessions-ever-
    /// accepted total.
    pub fn ingest_session_enter(&self, state: IngestState) {
        if self.is_enabled() {
            self.inner.ingest_states[state.index()].fetch_add(1, Ordering::Relaxed);
            if state == IngestState::Handshaking {
                self.inner.ingest_accepted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Marks one ingest session leaving a lifecycle `state`. Saturating:
    /// an unpaired exit (e.g. telemetry toggled mid-session) clamps at
    /// zero rather than wrapping the gauge.
    pub fn ingest_session_exit(&self, state: IngestState) {
        if self.is_enabled() {
            let _ = self.inner.ingest_states[state.index()].fetch_update(
                Ordering::Relaxed,
                Ordering::Relaxed,
                |v| v.checked_sub(1),
            );
        }
    }

    /// Live ingest-session count in one lifecycle state.
    pub fn ingest_sessions(&self, state: IngestState) -> u64 {
        self.inner.ingest_states[state.index()].load(Ordering::Relaxed)
    }

    /// Sessions ever admitted to handshaking.
    pub fn ingest_accepted_total(&self) -> u64 {
        self.inner.ingest_accepted.load(Ordering::Relaxed)
    }

    /// Counts one session refused by the admission controller (no-op
    /// when disabled).
    pub fn record_ingest_shed(&self) {
        if self.is_enabled() {
            self.inner.ingest_shed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sessions refused by the admission controller.
    pub fn ingest_shed_total(&self) -> u64 {
        self.inner.ingest_shed.load(Ordering::Relaxed)
    }

    /// Counts one terminal session disconnect by reason (no-op when
    /// disabled).
    pub fn record_ingest_disconnect(&self, reason: IngestDisconnect) {
        if self.is_enabled() {
            self.inner.ingest_disconnects[reason.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The running count for one disconnect reason.
    pub fn ingest_disconnect_count(&self, reason: IngestDisconnect) -> u64 {
        self.inner.ingest_disconnects[reason.index()].load(Ordering::Relaxed)
    }

    /// Counts `frames` accepted frames totalling `bytes` wire bytes off
    /// ingest sockets (no-op when disabled).
    pub fn record_ingest_frames(&self, frames: u64, bytes: u64) {
        if self.is_enabled() {
            self.inner.ingest_frames.fetch_add(frames, Ordering::Relaxed);
            self.inner.ingest_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Frames accepted off ingest sockets.
    pub fn ingest_frames_total(&self) -> u64 {
        self.inner.ingest_frames.load(Ordering::Relaxed)
    }

    /// Wire bytes accepted off ingest sockets.
    pub fn ingest_bytes_total(&self) -> u64 {
        self.inner.ingest_bytes.load(Ordering::Relaxed)
    }

    /// Marks one alarm condition entering `Warning`-or-worse: bumps the
    /// raised total and the active gauge for `kind` (no-op when
    /// disabled). Pair with [`TelemetryRegistry::record_alarm_cleared`].
    pub fn record_alarm_raised(&self, kind: AlarmKind) {
        if self.is_enabled() {
            self.inner.alarms_raised[kind.index()].fetch_add(1, Ordering::Relaxed);
            self.inner.alarms_active[kind.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Marks one alarm condition returning to `Normal`: bumps the cleared
    /// total and decrements the active gauge. Saturating: an unpaired
    /// clear (telemetry toggled mid-episode) clamps the gauge at zero.
    pub fn record_alarm_cleared(&self, kind: AlarmKind) {
        if self.is_enabled() {
            self.inner.alarms_cleared[kind.index()].fetch_add(1, Ordering::Relaxed);
            let _ = self.inner.alarms_active[kind.index()].fetch_update(
                Ordering::Relaxed,
                Ordering::Relaxed,
                |v| v.checked_sub(1),
            );
        }
    }

    /// Alarms ever raised for one kind.
    pub fn alarm_raised_count(&self, kind: AlarmKind) -> u64 {
        self.inner.alarms_raised[kind.index()].load(Ordering::Relaxed)
    }

    /// Alarms ever cleared for one kind.
    pub fn alarm_cleared_count(&self, kind: AlarmKind) -> u64 {
        self.inner.alarms_cleared[kind.index()].load(Ordering::Relaxed)
    }

    /// Patients currently in `Warning`-or-worse for one kind.
    pub fn alarm_active_count(&self, kind: AlarmKind) -> u64 {
        self.inner.alarms_active[kind.index()].load(Ordering::Relaxed)
    }

    /// Counts one alarm evaluation suppressed because the window was
    /// concealed — concealed samples are the concealment heuristic's
    /// output, not the patient's rhythm (no-op when disabled).
    pub fn record_alarm_suppressed(&self) {
        if self.is_enabled() {
            self.inner.alarms_suppressed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Alarm evaluations suppressed on concealed windows.
    pub fn alarm_suppressed_total(&self) -> u64 {
        self.inner.alarms_suppressed.load(Ordering::Relaxed)
    }

    /// Counts one classified beat (no-op when disabled).
    pub fn record_beat(&self, class: BeatClass) {
        if self.is_enabled() {
            self.inner.beats[class.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Beats ever classified into one class.
    pub fn beat_count(&self, class: BeatClass) -> u64 {
        self.inner.beats[class.index()].load(Ordering::Relaxed)
    }

    /// Accumulates a QRS-detection scoring outcome against annotated
    /// ground truth (no-op when disabled). The exporters derive the
    /// sensitivity (`tp / (tp + fn)`) and positive predictivity
    /// (`tp / (tp + fp)`) panels from these totals.
    pub fn record_qrs_score(&self, true_pos: u64, false_pos: u64, false_neg: u64) {
        if self.is_enabled() {
            self.inner.qrs_true_positive.fetch_add(true_pos, Ordering::Relaxed);
            self.inner.qrs_false_positive.fetch_add(false_pos, Ordering::Relaxed);
            self.inner.qrs_false_negative.fetch_add(false_neg, Ordering::Relaxed);
        }
    }

    /// Accumulated `(true positives, false positives, false negatives)`
    /// from [`TelemetryRegistry::record_qrs_score`].
    pub fn qrs_confusion(&self) -> (u64, u64, u64) {
        (
            self.inner.qrs_true_positive.load(Ordering::Relaxed),
            self.inner.qrs_false_positive.load(Ordering::Relaxed),
            self.inner.qrs_false_negative.load(Ordering::Relaxed),
        )
    }

    /// A point-in-time copy of every aggregate the registry holds — what
    /// the exporters render.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let (qrs_tp, qrs_fp, qrs_fn) = self.qrs_confusion();
        TelemetrySnapshot {
            uptime: self.uptime(),
            unix_time_s: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0.0, |d| d.as_secs_f64()),
            stages: Stage::ALL.map(|s| (s, self.stage(s).snapshot())),
            worker_packets: self.worker_packets(MAX_WORKERS),
            faults: FaultKind::ALL.map(|k| (k, self.fault_count(k))),
            archive_ops: ArchiveOp::ALL.map(|o| (o, self.archive_count(o))),
            solver_iterations: SolverMode::ALL
                .map(|m| (m, self.inner.solver_iterations[m.index()].snapshot())),
            journal_len: self.inner.journal.len(),
            journal_pushed: self.inner.journal.pushed(),
            journal_dropped: self.inner.journal.dropped(),
            e2e: self
                .inner
                .e2e
                .iter()
                .enumerate()
                .filter(|(_, h)| h.count() > 0)
                .map(|(p, h)| (p, h.snapshot()))
                .collect(),
            slo: self.slo_snapshot(),
            scrapes: ScrapeEndpoint::ALL.map(|e| (e, self.scrape_count(e))),
            render_ns: self.inner.render.snapshot(),
            ingest_sessions: IngestState::ALL.map(|s| (s, self.ingest_sessions(s))),
            ingest_accepted: self.ingest_accepted_total(),
            ingest_shed: self.ingest_shed_total(),
            ingest_disconnects: IngestDisconnect::ALL
                .map(|r| (r, self.ingest_disconnect_count(r))),
            ingest_frames: self.ingest_frames_total(),
            ingest_bytes: self.ingest_bytes_total(),
            alarms: AlarmKind::ALL.map(|k| {
                (
                    k,
                    AlarmCounts {
                        raised: self.alarm_raised_count(k),
                        cleared: self.alarm_cleared_count(k),
                        active: self.alarm_active_count(k),
                    },
                )
            }),
            alarms_suppressed: self.alarm_suppressed_total(),
            beats: BeatClass::ALL.map(|c| (c, self.beat_count(c))),
            qrs_true_positive: qrs_tp,
            qrs_false_positive: qrs_fp,
            qrs_false_negative: qrs_fn,
        }
    }
}

/// A point-in-time copy of the registry's aggregates.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Time since registry creation.
    pub uptime: Duration,
    /// Absolute wall-clock seconds since the Unix epoch at snapshot
    /// time (0.0 if the system clock predates the epoch).
    pub unix_time_s: f64,
    /// Per-stage latency histograms, in [`Stage::ALL`] order.
    pub stages: [(Stage, HistogramSnapshot); Stage::COUNT],
    /// Packets decoded per worker slot (length [`MAX_WORKERS`]).
    pub worker_packets: Vec<u64>,
    /// Per-kind fault counts, in [`FaultKind::ALL`] order.
    pub faults: [(FaultKind, u64); FaultKind::COUNT],
    /// Per-op archive counts, in [`ArchiveOp::ALL`] order.
    pub archive_ops: [(ArchiveOp, u64); ArchiveOp::COUNT],
    /// Per-mode solver iteration distributions (raw iteration counts), in
    /// [`SolverMode::ALL`] order.
    pub solver_iterations: [(SolverMode, HistogramSnapshot); SolverMode::COUNT],
    /// Traces currently buffered in the journal.
    pub journal_len: usize,
    /// Traces ever offered to the journal.
    pub journal_pushed: u64,
    /// Traces lost to overflow or contention.
    pub journal_dropped: u64,
    /// Per-patient end-to-end latency histograms, active slots only.
    pub e2e: Vec<(usize, HistogramSnapshot)>,
    /// Derived per-patient SLO state at snapshot time.
    pub slo: SloSnapshot,
    /// Per-endpoint HTTP scrape counts, in [`ScrapeEndpoint::ALL`] order.
    pub scrapes: [(ScrapeEndpoint, u64); ScrapeEndpoint::COUNT],
    /// Exporter render-time distribution (self-observation; lags the
    /// current render by one scrape).
    pub render_ns: HistogramSnapshot,
    /// Live ingest-session counts per lifecycle state, in
    /// [`IngestState::ALL`] order.
    pub ingest_sessions: [(IngestState, u64); IngestState::COUNT],
    /// Sessions ever admitted to handshaking.
    pub ingest_accepted: u64,
    /// Sessions refused by the admission controller.
    pub ingest_shed: u64,
    /// Terminal session disconnects by reason, in
    /// [`IngestDisconnect::ALL`] order.
    pub ingest_disconnects: [(IngestDisconnect, u64); IngestDisconnect::COUNT],
    /// Frames accepted off ingest sockets.
    pub ingest_frames: u64,
    /// Wire bytes accepted off ingest sockets.
    pub ingest_bytes: u64,
    /// Per-kind alarm accounting, in [`AlarmKind::ALL`] order.
    pub alarms: [(AlarmKind, AlarmCounts); AlarmKind::COUNT],
    /// Alarm evaluations suppressed on concealed windows.
    pub alarms_suppressed: u64,
    /// Classified beats per class, in [`BeatClass::ALL`] order.
    pub beats: [(BeatClass, u64); BeatClass::COUNT],
    /// QRS detections matching an annotated beat.
    pub qrs_true_positive: u64,
    /// QRS detections matching no annotated beat.
    pub qrs_false_positive: u64,
    /// Annotated beats no detection matched.
    pub qrs_false_negative: u64,
}

/// Alarm totals and the live gauge for one [`AlarmKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlarmCounts {
    /// Episodes ever entering `Warning`-or-worse.
    pub raised: u64,
    /// Episodes ever returning to `Normal`.
    pub cleared: u64,
    /// Patients currently in `Warning`-or-worse.
    pub active: u64,
}

impl TelemetrySnapshot {
    /// The snapshot histogram for one stage.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage.index()].1
    }

    /// The snapshot count for one fault kind.
    pub fn fault(&self, kind: FaultKind) -> u64 {
        self.faults[kind.index()].1
    }

    /// The snapshot count for one archive operation.
    pub fn archive(&self, op: ArchiveOp) -> u64 {
        self.archive_ops[op.index()].1
    }

    /// The snapshot alarm accounting for one kind.
    pub fn alarm(&self, kind: AlarmKind) -> AlarmCounts {
        self.alarms[kind.index()].1
    }

    /// The snapshot beat count for one class.
    pub fn beat(&self, class: BeatClass) -> u64 {
        self.beats[class.index()].1
    }

    /// QRS sensitivity `tp / (tp + fn)`, or `None` before any annotated
    /// beat has been scored.
    pub fn qrs_sensitivity(&self) -> Option<f64> {
        let denom = self.qrs_true_positive + self.qrs_false_negative;
        (denom > 0).then(|| self.qrs_true_positive as f64 / denom as f64)
    }

    /// QRS positive predictivity `tp / (tp + fp)`, or `None` before any
    /// detection has been scored.
    pub fn qrs_ppv(&self) -> Option<f64> {
        let denom = self.qrs_true_positive + self.qrs_false_positive;
        (denom > 0).then(|| self.qrs_true_positive as f64 / denom as f64)
    }
}

/// RAII guard timing one stage execution; see
/// [`TelemetryRegistry::span`].
///
/// When the owning registry is disabled at entry the guard holds no
/// timestamp and its drop is a no-op — the whole span costs one relaxed
/// atomic load.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
#[derive(Debug)]
pub struct Span<'a> {
    registry: &'a TelemetryRegistry,
    stage: Stage,
    start: Option<Instant>,
}

impl<'a> Span<'a> {
    /// Enters a span over `stage` against `registry`.
    #[inline]
    pub fn enter(registry: &'a TelemetryRegistry, stage: Stage) -> Self {
        let start = registry.is_enabled().then(Instant::now);
        Span { registry, stage, start }
    }

    /// The stage being timed.
    pub fn stage(&self) -> Stage {
        self.stage
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            // Bypass the enabled re-check: the decision was made at entry
            // so a mid-span disable cannot strand a half-recorded pair.
            self.registry.inner.stages[self.stage.index()].record_ns(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_stage_histogram() {
        let reg = TelemetryRegistry::new();
        for _ in 0..3 {
            let _span = reg.span(Stage::HuffmanEncode);
        }
        assert_eq!(reg.stage(Stage::HuffmanEncode).count(), 3);
        assert_eq!(reg.stage(Stage::FistaSolve).count(), 0);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = TelemetryRegistry::new();
        reg.set_enabled(false);
        drop(reg.span(Stage::FistaSolve));
        reg.record_worker_packet(0);
        reg.record_solve(SolveTrace::default());
        reg.record_stage_ns(Stage::FistaSolve, 99);
        assert_eq!(reg.stage(Stage::FistaSolve).count(), 0);
        assert_eq!(reg.worker_packets(1), vec![0]);
        assert_eq!(reg.journal().pushed(), 0);
    }

    #[test]
    fn disabled_singleton_is_shared_and_off() {
        let a = TelemetryRegistry::disabled();
        let b = TelemetryRegistry::disabled();
        assert!(!a.is_enabled());
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }

    #[test]
    fn worker_ids_fold_modulo_capacity() {
        let reg = TelemetryRegistry::new();
        reg.record_worker_packet(1);
        reg.record_worker_packet(1 + MAX_WORKERS);
        assert_eq!(reg.worker_packets(2), vec![0, 2]);
    }

    #[test]
    fn fault_counters_count_and_snapshot() {
        let reg = TelemetryRegistry::new();
        reg.record_fault(FaultKind::ConcealedLoss);
        reg.record_fault(FaultKind::ConcealedLoss);
        reg.record_fault(FaultKind::WorkerRestart);
        assert_eq!(reg.fault_count(FaultKind::ConcealedLoss), 2);
        assert_eq!(reg.fault_count(FaultKind::Quarantined), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.fault(FaultKind::ConcealedLoss), 2);
        assert_eq!(snap.fault(FaultKind::WorkerRestart), 1);

        let off = TelemetryRegistry::new();
        off.set_enabled(false);
        off.record_fault(FaultKind::Duplicate);
        assert_eq!(off.fault_count(FaultKind::Duplicate), 0);
    }

    #[test]
    fn record_emit_measures_e2e_and_feeds_the_slo() {
        let reg = TelemetryRegistry::with_slo_config(SloConfig {
            deadline: Duration::from_millis(5),
            ..SloConfig::default()
        });
        let ctx = TraceContext::new(3, 1, 7, reg.now_ns());
        let rec = reg.record_emit(&ctx).expect("enabled registry records");
        assert!(!rec.deadline_missed, "fresh emit is inside a 5 ms budget");
        assert_eq!(reg.e2e(3).count(), 1);

        // A capture stamp from the registry's birth, emitted after the
        // budget has elapsed, busts the deadline.
        std::thread::sleep(Duration::from_millis(10));
        let stale = TraceContext::new(3, 1, 8, 0);
        let rec = reg.record_emit(&stale).unwrap();
        assert!(rec.deadline_missed);
        assert!(rec.e2e_ns >= 5_000_000);

        let snap = reg.snapshot();
        assert_eq!(snap.e2e.len(), 1);
        assert_eq!(snap.e2e[0].0, 3);
        assert_eq!(snap.e2e[0].1.count(), 2);
        assert_eq!(snap.slo.patients.len(), 1);
        assert_eq!(snap.slo.patients[0].deadline_misses, 1);
        assert_eq!(snap.slo.patients[0].lanes[0].newest_seq, 8);
    }

    #[test]
    fn disabled_registry_ignores_emits_and_scrapes() {
        let reg = TelemetryRegistry::new();
        reg.set_enabled(false);
        let ctx = TraceContext::new(0, 0, 0, 0);
        assert!(reg.record_emit(&ctx).is_none());
        reg.record_scrape(ScrapeEndpoint::Metrics);
        reg.record_render_ns(55);
        assert_eq!(reg.e2e(0).count(), 0);
        assert_eq!(reg.scrape_count(ScrapeEndpoint::Metrics), 0);
        assert_eq!(reg.render_times().count(), 0);
        assert!(reg.slo_snapshot().patients.is_empty());
    }

    #[test]
    fn snapshot_stamps_wall_clock_time() {
        let snap = TelemetryRegistry::new().snapshot();
        // Any plausible current date is far past 2020-01-01.
        assert!(snap.unix_time_s > 1_577_836_800.0, "{}", snap.unix_time_s);
    }

    #[test]
    fn custom_slo_config_is_honored() {
        let reg = TelemetryRegistry::with_slo_config(SloConfig {
            deadline: Duration::ZERO,
            ..SloConfig::default()
        });
        let ctx = TraceContext::new(0, 0, 0, reg.now_ns());
        let rec = reg.record_emit(&ctx).unwrap();
        assert!(rec.deadline_missed, "a zero budget makes every emit late");
        assert_eq!(reg.slo_config().deadline, Duration::ZERO);
    }

    #[test]
    fn alarm_counters_pair_and_gauge() {
        let reg = TelemetryRegistry::new();
        reg.record_alarm_raised(AlarmKind::Tachycardia);
        reg.record_alarm_raised(AlarmKind::Tachycardia);
        reg.record_alarm_cleared(AlarmKind::Tachycardia);
        reg.record_alarm_suppressed();
        reg.record_beat(BeatClass::Pvc);
        reg.record_beat(BeatClass::Normal);
        reg.record_qrs_score(19, 1, 1);
        let snap = reg.snapshot();
        let tachy = snap.alarm(AlarmKind::Tachycardia);
        assert_eq!(tachy.raised, 2);
        assert_eq!(tachy.cleared, 1);
        assert_eq!(tachy.active, 1);
        assert_eq!(snap.alarm(AlarmKind::Asystole), AlarmCounts::default());
        assert_eq!(snap.alarms_suppressed, 1);
        assert_eq!(snap.beat(BeatClass::Pvc), 1);
        assert_eq!(snap.beat(BeatClass::Apc), 0);
        assert!((snap.qrs_sensitivity().unwrap() - 0.95).abs() < 1e-12);
        assert!((snap.qrs_ppv().unwrap() - 0.95).abs() < 1e-12);

        // An unpaired clear clamps the gauge instead of wrapping it.
        reg.record_alarm_cleared(AlarmKind::Tachycardia);
        reg.record_alarm_cleared(AlarmKind::Tachycardia);
        assert_eq!(reg.alarm_active_count(AlarmKind::Tachycardia), 0);

        let off = TelemetryRegistry::new();
        off.set_enabled(false);
        off.record_alarm_raised(AlarmKind::Asystole);
        off.record_beat(BeatClass::Apc);
        off.record_qrs_score(1, 0, 0);
        assert_eq!(off.alarm_raised_count(AlarmKind::Asystole), 0);
        assert_eq!(off.beat_count(BeatClass::Apc), 0);
        assert!(off.snapshot().qrs_sensitivity().is_none());
        assert!(off.snapshot().qrs_ppv().is_none());
    }

    #[test]
    fn snapshot_carries_journal_accounting() {
        let reg = TelemetryRegistry::with_journal_capacity(2);
        for seq in 0..3 {
            reg.record_solve(SolveTrace { seq, ..SolveTrace::default() });
        }
        let snap = reg.snapshot();
        assert_eq!(snap.journal_pushed, 3);
        assert_eq!(snap.journal_dropped, 1);
        assert_eq!(snap.journal_len, 2);
    }
}
