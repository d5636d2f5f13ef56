//! What the driver needs from a workload, and the figures they share.

use crate::host::{Clock, Digest};
use crate::inputs::{Inputs, LEADS, PATIENTS};
use crate::stats::{percentile, PassTimings, LOW_PCT};
use crate::trace::{Ledger, Tracer};
use cs_clinical::{ClinicalConfig, ClinicalEngine, ClinicalEvent};
use cs_telemetry::TelemetryRegistry;

/// How a pass is instrumented. The work itself is identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Timed from outside only; end-to-end metrics come from these.
    Plain,
    /// The same pass with a span recorded at every layer boundary.
    Traced,
    /// A plain pass with a live `TelemetryRegistry` installed in the
    /// layer under test (its cost against [`Variant::Plain`] is
    /// `telemetry.overhead_share`).
    Telemetry,
}

/// What one pass reports beside the timing row it filled.
pub struct PassResult {
    /// Process CPU (all threads) spent over the pass; the ward leaves
    /// out its load generator's own.
    pub cpu_ns: u64,
    /// The pass's own duration: the timed loop, or first-due → last-emit
    /// for the paced ward.
    pub wall_ns: u64,
    /// Packets that failed (see README: errored, concealed, out of
    /// order, past the 2 s deadline, …).
    pub failed: usize,
    /// Digest of everything the pass produced; must repeat exactly.
    pub digest: Digest,
}

/// One named figure, with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// How `throughput_pps` follows from the timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// One operation after another: `K / Σ t_k`.
    Closed,
    /// Paced at a fixed offered rate: `K /` pass wall time.
    Open,
}

pub trait Workload {
    fn inputs(&self) -> &Inputs;

    /// Packets per pass (`K`).
    fn packets(&self) -> usize {
        self.inputs().ops()
    }

    /// Timed operations per pass; each covers `packets / ops` packets.
    fn ops(&self) -> usize;

    fn pacing(&self) -> Loop {
        Loop::Closed
    }

    /// The percentile taken across passes of what they observed: span
    /// durations, pass wall time, the timings compared between variants.
    fn pass_percentile(&self) -> f64 {
        LOW_PCT
    }

    /// `t_k`, each operation's time by the measurement rule: the
    /// pass-aligned low percentile of the plain passes' timings. (The
    /// ward puts its figure together from two parts; see `ward.rs`.)
    fn operation_ns(&self, observed: &PassTimings) -> Vec<f64> {
        observed.aligned(LOW_PCT)
    }

    /// One pass's process CPU by the same rule, from the plain passes'
    /// [`PassResult::cpu_ns`].
    fn pass_cpu_ns(&self, observed: &[f64]) -> f64 {
        percentile(observed, LOW_PCT)
    }

    /// Upper bound on spans one traced pass records.
    fn span_capacity(&self) -> usize;

    /// Which variants a traced run cycles through.
    fn trace_variants(&self) -> &'static [Variant] {
        &[Variant::Plain, Variant::Traced]
    }

    /// Runs one pass from fresh state, filling `row` with one timing per
    /// operation (and `tracer`, given for [`Variant::Traced`]).
    fn pass(
        &mut self,
        variant: Variant,
        clock: &Clock,
        row: &mut [u32],
        tracer: Option<&mut Tracer>,
    ) -> Result<PassResult, String>;

    /// Checks that need the timed phase to be over (archive replay).
    fn after_passes(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Mean PRD (%) against the original windows; exact.
    fn prd_pct(&self) -> f64;

    /// This workload's own per-layer rows, from the traced passes'
    /// ledger and the counters it kept. Rows it does not list are 0:
    /// the layer did no work on this workload.
    fn layer_metrics(&self, ledger: &Ledger) -> Vec<Metric>;
}

/// Nanoseconds per pass → microseconds per packet.
pub fn us_per_packet(ns_per_pass: f64, packets: usize) -> f64 {
    ns_per_pass / packets as f64 / 1e3
}

/// PRD (%) of a reconstruction against the integer window it came from,
/// over reused `f64` buffers.
pub struct PrdMeter {
    original: Vec<f64>,
    rebuilt: Vec<f64>,
}

impl PrdMeter {
    pub fn new(packet_len: usize) -> Self {
        PrdMeter {
            original: vec![0.0; packet_len],
            rebuilt: vec![0.0; packet_len],
        }
    }

    pub fn prd(&mut self, window: &[i16], samples: &[f32]) -> f64 {
        for (dst, &src) in self.original.iter_mut().zip(window) {
            *dst = f64::from(src);
        }
        for (dst, &src) in self.rebuilt.iter_mut().zip(samples) {
            *dst = f64::from(src);
        }
        cs_metrics::prd(&self.original, &self.rebuilt)
    }
}

/// Detections within this many samples (≈ 50 ms) of an annotated R peak
/// count as true positives, as in `arrhythmia_soak`.
const QRS_TOLERANCE: usize = 13;

/// The clinical engine both clinical workloads run: the 256 Hz defaults,
/// scored against the synthesizer's R-peak annotations.
pub fn clinical_engine(inputs: &Inputs, telemetry: TelemetryRegistry) -> ClinicalEngine {
    let mut engine = ClinicalEngine::new(ClinicalConfig::at_256_hz(), PATIENTS, LEADS, telemetry);
    for patient in 0..PATIENTS {
        let truth = inputs.lanes[patient * LEADS].truth.clone();
        engine.set_ground_truth(patient, truth, QRS_TOLERANCE);
    }
    engine
}

pub fn count_beats(events: &[ClinicalEvent]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e, ClinicalEvent::Beat { .. }))
        .count() as u64
}

/// QRS detections against ground truth, over all patients.
#[derive(Debug, Clone, Copy, Default)]
pub struct QrsScore {
    tp: u64,
    fp: u64,
    missed: u64,
}

impl QrsScore {
    /// Call after `ClinicalEngine::finish` has settled the scorers.
    pub fn of(engine: &ClinicalEngine) -> Self {
        let mut score = QrsScore::default();
        for patient in 0..PATIENTS {
            if let Some((tp, fp, missed)) = engine.truth_scorer(patient).map(|s| s.confusion()) {
                score.tp += tp;
                score.fp += fp;
                score.missed += missed;
            }
        }
        score
    }

    pub fn sensitivity(&self) -> f64 {
        self.tp as f64 / (self.tp + self.missed).max(1) as f64
    }

    pub fn ppv(&self) -> f64 {
        self.tp as f64 / (self.tp + self.fp).max(1) as f64
    }

    /// For the pass digest.
    pub fn word(&self) -> u64 {
        self.tp << 32 | self.fp << 16 | self.missed
    }
}
