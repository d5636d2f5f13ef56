//! The telemetry registry and its RAII span guards.
//!
//! A [`TelemetryRegistry`] is a cheaply clonable handle (an `Arc`) to the
//! shared recording state: one [`Histogram`] per [`Stage`], one atomic
//! cell per label value of every stored counter and gauge family (laid
//! out by the [family table](crate::family)), a fixed array of per-worker
//! packet counters, and the bounded [`Journal`] of convergence traces.
//! Instrumented code paths hold a registry unconditionally — the
//! **disabled** registry is a process-wide shared handle whose every
//! recording operation is gated on a single relaxed `AtomicBool` load, so
//! un-observed pipelines pay one atomic load per span and nothing else.
//! Even *enabled*, the registry's budget is < 2 % of throughput, read
//! from pipebench's `telemetry.overhead_share` row at full run length
//! (its `--smoke` reading is noise).

use crate::archive::ArchiveOp;
use crate::clinical::{AlarmKind, BeatClass};
use crate::family::{FamilyId, Layer, CELLS, FAMILIES, KERNEL_ARMS};
use crate::fault::FaultKind;
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::ingest::{IngestDisconnect, IngestState};
use crate::journal::{Journal, SolveTrace};
use crate::label::Label;
use crate::mode::SolverMode;
use crate::serve::ScrapeEndpoint;
use crate::slo::{SloConfig, SloEngine, SloSnapshot, MAX_PATIENTS};
use crate::stage::Stage;
use crate::trace::{EmitRecord, TraceContext};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

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
    /// Every stored counter and gauge family: family `f` owns
    /// `cells[f.cells()]`, one cell per label value.
    cells: [AtomicU64; CELLS],
    stages: [Histogram; Stage::COUNT],
    workers: [AtomicU64; MAX_WORKERS],
    /// Per-solver-mode iteration counts (raw iterations, not durations):
    /// a solve of `k` iterations records the value `k` into its mode's
    /// histogram, so means/percentiles read directly as iterations.
    solver_iterations: [Histogram; SolverMode::COUNT],
    journal: Journal,
    /// Per-patient end-to-end (capture → emit) latency; stream ids fold
    /// modulo [`MAX_PATIENTS`], mirroring the worker counters.
    e2e: [Histogram; MAX_PATIENTS],
    slo: SloEngine,
    /// Exporter render times — the telemetry layer in its own output.
    render: Histogram,
    /// QRS-detection confusion counts (true positives, false positives,
    /// false negatives) the sensitivity/PPV gauges are derived from.
    qrs: [AtomicU64; 3],
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
    /// A fresh, enabled registry with the default SLO.
    pub fn new() -> Self {
        TelemetryRegistry::with_slo_config(SloConfig::default())
    }

    /// A fresh, enabled registry with a custom SLO (deadline budget,
    /// stall threshold, burn windows). The SLO is fixed at construction
    /// so the recording path never re-reads configuration.
    pub fn with_slo_config(slo: SloConfig) -> Self {
        TelemetryRegistry::build(DEFAULT_JOURNAL_CAPACITY, slo)
    }

    fn build(journal_capacity: usize, slo: SloConfig) -> Self {
        TelemetryRegistry {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                started: Instant::now(),
                cells: std::array::from_fn(|_| AtomicU64::new(0)),
                stages: std::array::from_fn(|_| Histogram::new()),
                workers: std::array::from_fn(|_| AtomicU64::new(0)),
                solver_iterations: std::array::from_fn(|_| Histogram::new()),
                journal: Journal::new(journal_capacity),
                e2e: std::array::from_fn(|_| Histogram::new()),
                slo: SloEngine::new(slo),
                render: Histogram::new(),
                qrs: std::array::from_fn(|_| AtomicU64::new(0)),
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
                let r = TelemetryRegistry::build(1, SloConfig::default());
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

    /// Turns recording on or off; [`TelemetryRegistry::disabled`] builds
    /// its handle with this.
    fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Adds `n` to one cell of a stored family (no-op when disabled):
    /// the whole recording path of every counter below — one relaxed
    /// load, one relaxed add at a fixed offset.
    #[inline]
    fn add(&self, family: FamilyId, index: usize, n: u64) {
        if self.is_enabled() {
            debug_assert!(index < family.cells().len(), "{family:?} has no cell {index}");
            self.inner.cells[family.cells().start + index].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Decrements one gauge cell (no-op when disabled). Saturating: an
    /// unpaired decrement clamps at zero rather than wrapping the gauge.
    fn decrement(&self, family: FamilyId, index: usize) {
        if self.is_enabled() {
            let cell = &self.inner.cells[family.cells().start + index];
            let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
        }
    }

    /// Enters a timed span over `stage`; the elapsed time is recorded
    /// into the stage histogram when the guard drops.
    #[inline]
    pub fn span(&self, stage: Stage) -> Span<'_> {
        Span { registry: self, stage, start: self.is_enabled().then(Instant::now) }
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
        let workers = &self.inner.workers[..n.min(MAX_WORKERS)];
        workers.iter().map(|w| w.load(Ordering::Relaxed)).collect()
    }

    /// Counts one fault event of the given kind.
    pub fn record_fault(&self, kind: FaultKind) {
        self.add(FamilyId::Fault, kind.index(), 1);
    }

    /// Counts one archive operation of the given kind.
    pub fn record_archive_op(&self, op: ArchiveOp) {
        self.add(FamilyId::Archive, op.index(), 1);
    }

    /// Counts `n` archive operations at once (e.g. a replay batch).
    pub fn record_archive_ops(&self, op: ArchiveOp, n: u64) {
        self.add(FamilyId::Archive, op.index(), n);
    }

    /// Marks `arm` — what `cs_dsp::kernel_arm()` names: `"avx512"`,
    /// `"avx2"` or `"baseline"` — as the vector-kernel arm this process
    /// runs (`cs_kernel_arm_info`): its cell reads 1, the others 0. A
    /// service sets it once at start-up; any other name is ignored.
    pub fn record_kernel_arm(&self, arm: &str) {
        let Some(running) = KERNEL_ARMS.iter().position(|&a| a == arm) else {
            return;
        };
        if self.is_enabled() {
            for (i, cell) in self.inner.cells[FamilyId::KernelArm.cells()].iter().enumerate() {
                cell.store(u64::from(i == running), Ordering::Relaxed);
            }
        }
    }

    /// Counts one HTTP scrape against an endpoint.
    pub fn record_scrape(&self, endpoint: ScrapeEndpoint) {
        self.add(FamilyId::Scrapes, endpoint.index(), 1);
    }

    /// Marks one ingest session entering a lifecycle `state`. Pair with
    /// [`TelemetryRegistry::ingest_session_exit`]; entering `Handshaking`
    /// also counts toward the sessions-ever-accepted total.
    pub fn ingest_session_enter(&self, state: IngestState) {
        self.add(FamilyId::IngestSessions, state.index(), 1);
        if state == IngestState::Handshaking {
            self.add(FamilyId::IngestAccepted, 0, 1);
        }
    }

    /// Marks one ingest session leaving a lifecycle `state`.
    pub fn ingest_session_exit(&self, state: IngestState) {
        self.decrement(FamilyId::IngestSessions, state.index());
    }

    /// Counts one session refused by the admission controller.
    pub fn record_ingest_shed(&self) {
        self.add(FamilyId::IngestShed, 0, 1);
    }

    /// Counts one terminal session disconnect by reason.
    pub fn record_ingest_disconnect(&self, reason: IngestDisconnect) {
        self.add(FamilyId::IngestDisconnects, reason.index(), 1);
    }

    /// Counts `frames` accepted frames totalling `bytes` wire bytes off
    /// ingest sockets.
    pub fn record_ingest_frames(&self, frames: u64, bytes: u64) {
        self.add(FamilyId::IngestFrames, 0, frames);
        self.add(FamilyId::IngestBytes, 0, bytes);
    }

    /// Marks one alarm condition entering `Warning`-or-worse: bumps the
    /// raised total and the active gauge for `kind`. Pair with
    /// [`TelemetryRegistry::record_alarm_cleared`].
    pub fn record_alarm_raised(&self, kind: AlarmKind) {
        self.add(FamilyId::AlarmRaised, kind.index(), 1);
        self.add(FamilyId::AlarmActive, kind.index(), 1);
    }

    /// Marks one alarm condition returning to `Normal`: bumps the cleared
    /// total and decrements the active gauge.
    pub fn record_alarm_cleared(&self, kind: AlarmKind) {
        self.add(FamilyId::AlarmCleared, kind.index(), 1);
        self.decrement(FamilyId::AlarmActive, kind.index());
    }

    /// Counts one alarm evaluation suppressed because the window was
    /// concealed — concealed samples are the concealment heuristic's
    /// output, not the patient's rhythm.
    pub fn record_alarm_suppressed(&self) {
        self.add(FamilyId::AlarmSuppressed, 0, 1);
    }

    /// Counts one classified beat.
    pub fn record_beat(&self, class: BeatClass) {
        self.add(FamilyId::Beat, class.index(), 1);
    }

    /// Accumulates a QRS-detection scoring outcome against annotated
    /// ground truth (no-op when disabled). The exporters derive the
    /// sensitivity (`tp / (tp + fn)`) and positive predictivity
    /// (`tp / (tp + fp)`) panels from these totals.
    pub fn record_qrs_score(&self, true_pos: u64, false_pos: u64, false_neg: u64) {
        if self.is_enabled() {
            for (cell, n) in self.inner.qrs.iter().zip([true_pos, false_pos, false_neg]) {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Accumulated `(true positives, false positives, false negatives)`
    /// from [`TelemetryRegistry::record_qrs_score`].
    pub fn qrs_confusion(&self) -> (u64, u64, u64) {
        let [tp, fp, fneg] = [0, 1, 2].map(|i| self.inner.qrs[i].load(Ordering::Relaxed));
        (tp, fp, fneg)
    }

    /// Records the iteration count of one solve against its mode's
    /// histogram (no-op when disabled). Raw counts, not durations.
    pub fn record_solver_iterations(&self, mode: SolverMode, iterations: usize) {
        if self.is_enabled() {
            self.inner.solver_iterations[mode.index()].record_ns(iterations as u64);
        }
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
        let (patient, lane) = (ctx.stream as usize, ctx.lane as usize);
        self.inner.slo.record_emit(patient, lane, ctx.seq, now, deadline_missed);
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

    /// Records one exporter render duration (no-op when disabled).
    pub fn record_render_ns(&self, ns: u64) {
        if self.is_enabled() {
            self.inner.render.record_ns(ns);
        }
    }

    /// A point-in-time copy of every aggregate the registry holds — what
    /// the exporters render.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = &*self.inner;
        TelemetrySnapshot {
            cells: std::array::from_fn(|i| inner.cells[i].load(Ordering::Relaxed)),
            stages: Stage::ALL.map(|s| (s, inner.stages[s.index()].snapshot())),
            worker_packets: self.worker_packets(MAX_WORKERS),
            solver_iterations: SolverMode::ALL
                .map(|m| (m, inner.solver_iterations[m.index()].snapshot())),
            journal_len: inner.journal.len(),
            journal_pushed: inner.journal.pushed(),
            journal_dropped: inner.journal.dropped(),
            e2e: (0..MAX_PATIENTS)
                .map(|p| (p, inner.e2e[p].snapshot()))
                .filter(|(_, hist)| hist.count() > 0)
                .collect(),
            slo: self.slo_snapshot(),
            render_ns: inner.render.snapshot(),
            qrs_confusion: self.qrs_confusion(),
        }
    }
}

/// A point-in-time copy of the registry's aggregates.
///
/// Stored counter and gauge families are read with
/// [`count`](TelemetrySnapshot::count) and
/// [`total`](TelemetrySnapshot::total), by [`FamilyId`]; everything with
/// a shape of its own (histograms, the journal, the SLO state) is a
/// public field.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Every stored family's cells, laid out like the registry's.
    cells: [u64; CELLS],
    /// Per-stage latency histograms, in [`Stage::ALL`] order.
    pub stages: [(Stage, HistogramSnapshot); Stage::COUNT],
    /// Packets decoded per worker slot (length [`MAX_WORKERS`]).
    pub worker_packets: Vec<u64>,
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
    /// Exporter render-time distribution (self-observation; lags the
    /// current render by one scrape).
    pub render_ns: HistogramSnapshot,
    /// QRS detections scored against annotations: `(true positives,
    /// false positives, false negatives)`.
    pub qrs_confusion: (u64, u64, u64),
}

impl TelemetrySnapshot {
    /// The cells of one stored family, in label order (none for a
    /// derived family).
    pub(crate) fn cells(&self, family: FamilyId) -> impl Iterator<Item = u64> + '_ {
        self.cells[family.cells()].iter().copied()
    }

    /// The value of a stored family for one label value, e.g.
    /// `count(FamilyId::Fault, FaultKind::Late)`.
    ///
    /// # Panics
    ///
    /// If `family` is not labelled by `L`'s set.
    pub fn count<L: Label>(&self, family: FamilyId, label: L) -> u64 {
        let cells = family.cells();
        let row = &FAMILIES[family as usize];
        assert!(
            row.labels == [L::KEY] && cells.len() == L::VALUES.len(),
            "{} is not labelled by `{}`",
            row.name,
            L::KEY
        );
        self.cells[cells.start + label.index()]
    }

    /// The value of a stored family summed over its label values — for
    /// an unlabelled family, its one value.
    pub fn total(&self, family: FamilyId) -> u64 {
        self.cells(family).sum()
    }

    /// The snapshot histogram for one stage.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage.index()].1
    }

    /// Whether `layer` has recorded anything — the condition under which
    /// its `WhenActive` families are exported. A fleet fed in-process
    /// exports no ingest rows, one without a clinical tap no alarm rows.
    pub fn layer_active(&self, layer: Layer) -> bool {
        let any = |families: &[FamilyId]| families.iter().any(|&f| self.total(f) > 0);
        match layer {
            Layer::Pipeline | Layer::Exporter => true,
            Layer::Clinical => {
                any(&[FamilyId::Beat, FamilyId::AlarmRaised, FamilyId::AlarmSuppressed])
                    || self.qrs_confusion != (0, 0, 0)
            }
            Layer::Slo => !self.e2e.is_empty() || !self.slo.patients.is_empty(),
            Layer::Ingest => any(&[FamilyId::IngestAccepted, FamilyId::IngestShed]),
        }
    }

    /// QRS sensitivity `tp / (tp + fn)`, or `None` before any annotated
    /// beat has been scored.
    pub fn qrs_sensitivity(&self) -> Option<f64> {
        ratio(self.qrs_confusion.0, self.qrs_confusion.2)
    }

    /// QRS positive predictivity `tp / (tp + fp)`, or `None` before any
    /// detection has been scored.
    pub fn qrs_ppv(&self) -> Option<f64> {
        ratio(self.qrs_confusion.0, self.qrs_confusion.1)
    }
}

/// `hits / (hits + misses)`; `None` over an empty denominator — a ratio
/// over nothing is a lie, not a zero.
fn ratio(hits: u64, misses: u64) -> Option<f64> {
    (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64)
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
        let snap = reg.snapshot();
        assert_eq!(snap.count(FamilyId::Fault, FaultKind::ConcealedLoss), 2);
        assert_eq!(snap.count(FamilyId::Fault, FaultKind::Quarantined), 0);
        assert_eq!(snap.count(FamilyId::Fault, FaultKind::WorkerRestart), 1);
        assert_eq!(snap.total(FamilyId::Fault), 3);

        let off = TelemetryRegistry::new();
        off.set_enabled(false);
        off.record_fault(FaultKind::Duplicate);
        assert_eq!(off.snapshot().total(FamilyId::Fault), 0);
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
        assert_eq!(reg.snapshot().count(FamilyId::Scrapes, ScrapeEndpoint::Metrics), 0);
        assert_eq!(reg.snapshot().render_ns.count(), 0);
        assert!(reg.slo_snapshot().patients.is_empty());
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
        assert_eq!(snap.count(FamilyId::AlarmRaised, AlarmKind::Tachycardia), 2);
        assert_eq!(snap.count(FamilyId::AlarmCleared, AlarmKind::Tachycardia), 1);
        assert_eq!(snap.count(FamilyId::AlarmActive, AlarmKind::Tachycardia), 1);
        for family in [FamilyId::AlarmRaised, FamilyId::AlarmCleared, FamilyId::AlarmActive] {
            assert_eq!(snap.count(family, AlarmKind::Asystole), 0);
        }
        assert_eq!(snap.total(FamilyId::AlarmSuppressed), 1);
        assert_eq!(snap.count(FamilyId::Beat, BeatClass::Pvc), 1);
        assert_eq!(snap.count(FamilyId::Beat, BeatClass::Apc), 0);
        assert!((snap.qrs_sensitivity().unwrap() - 0.95).abs() < 1e-12);
        assert!((snap.qrs_ppv().unwrap() - 0.95).abs() < 1e-12);

        // An unpaired clear clamps the gauge instead of wrapping it.
        reg.record_alarm_cleared(AlarmKind::Tachycardia);
        reg.record_alarm_cleared(AlarmKind::Tachycardia);
        assert_eq!(reg.snapshot().count(FamilyId::AlarmActive, AlarmKind::Tachycardia), 0);

        let off = TelemetryRegistry::new();
        off.set_enabled(false);
        off.record_alarm_raised(AlarmKind::Asystole);
        off.record_beat(BeatClass::Apc);
        off.record_qrs_score(1, 0, 0);
        assert_eq!(off.snapshot().total(FamilyId::AlarmRaised), 0);
        assert_eq!(off.snapshot().total(FamilyId::Beat), 0);
        assert!(off.snapshot().qrs_sensitivity().is_none());
        assert!(off.snapshot().qrs_ppv().is_none());
    }

    #[test]
    fn snapshot_carries_journal_accounting() {
        let reg = TelemetryRegistry::build(2, SloConfig::default());
        for seq in 0..3 {
            reg.record_solve(SolveTrace { seq, ..SolveTrace::default() });
        }
        let snap = reg.snapshot();
        assert_eq!(snap.journal_pushed, 3);
        assert_eq!(snap.journal_dropped, 1);
        assert_eq!(snap.journal_len, 2);
    }
}
