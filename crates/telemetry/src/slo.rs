//! The per-patient SLO engine: freshness watermarks, deadline budgets,
//! and multi-window burn rates.
//!
//! A monitoring fleet's acceptance metric is not "how fast is the
//! solver" but "is patient P's reconstructed signal fresh, and are we
//! inside the latency budget at the target percentile". This module
//! keeps, per patient:
//!
//! * **freshness watermarks** — per-lane newest emitted sequence number
//!   and the age of the last emission;
//! * **deadline accounting** — emissions and deadline misses against a
//!   configurable end-to-end budget ([`SloConfig::deadline`]);
//! * **burn rates** over two sliding windows (fast 5 m / slow 1 h by
//!   default). The burn rate is `miss_rate / error_budget` where the
//!   error budget is `1 − target`: burn 1.0 consumes the budget exactly
//!   at the sustainable rate, burn 10 exhausts a month's budget in three
//!   days. Alerting on the **AND** of a fast and a slow window (the
//!   multi-window policy from the Google SRE workbook) makes the signal
//!   both quick to fire and quick to clear without flapping on a single
//!   slow packet.
//!
//! Health is derived, never stored: [`SloEngine::snapshot`] classifies
//! each active patient as [`Healthy`](HealthState::Healthy),
//! [`Degraded`](HealthState::Degraded) (both burn windows at or above
//! the threshold), or [`Stalled`](HealthState::Stalled) (nothing emitted
//! for longer than [`SloConfig::stall_after`]).
//!
//! Everything on the recording path is relaxed atomics — no locks, no
//! allocation — so [`record_emit`](SloEngine::record_emit) is safe to
//! call from every fleet delivery. Bucket-epoch races under
//! concurrent recording are benign: at worst an observation lands in a
//! just-recycled bucket, perturbing a 16-bucket window by one slot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-patient slots; stream ids beyond this fold back modulo
/// `MAX_PATIENTS` (the `MAX_WORKERS` precedent — a single coordinator
/// host saturates long before 64 patients).
pub const MAX_PATIENTS: usize = 64;

/// Per-lane watermark slots per patient; lane ids fold modulo
/// `MAX_LANES` (the paper's system carries at most a few leads).
pub const MAX_LANES: usize = 8;

/// Ring buckets per burn-rate window: resolution is `window / 16`.
pub const BURN_BUCKETS: usize = 16;

/// The per-patient service-level objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// End-to-end (capture → emit) latency budget per packet. Default
    /// 2 s — the paper's packet period: a reconstruction is late once
    /// the next window has fully arrived.
    pub deadline: Duration,
    /// A patient with no emission for this long is `Stalled`. Default
    /// 30 s (15 packet periods).
    pub stall_after: Duration,
    /// Fast burn-rate window. Default 5 minutes.
    pub fast_window: Duration,
    /// Slow burn-rate window. Default 1 hour.
    pub slow_window: Duration,
    /// Deadline-hit objective (fraction of emissions inside the budget).
    /// Default 0.999.
    pub target: f64,
    /// Burn-rate threshold at or above which — in **both** windows — a
    /// patient is `Degraded`. Default 1.0 (consuming error budget faster
    /// than sustainable).
    pub degraded_burn: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            deadline: Duration::from_secs(2),
            stall_after: Duration::from_secs(30),
            fast_window: Duration::from_secs(5 * 60),
            slow_window: Duration::from_secs(60 * 60),
            target: 0.999,
            degraded_burn: 1.0,
        }
    }
}

label_set! {
    /// Derived per-patient health, in severity order.
    #[derive(PartialOrd, Ord)]
    pub enum HealthState("state") {
        /// Fresh and inside the error budget.
        Healthy => "healthy",
        /// Burning error budget at or above threshold in both windows.
        Degraded => "degraded",
        /// No emission within [`SloConfig::stall_after`].
        Stalled => "stalled",
    }
}

/// One bucket of a sliding burn-rate window. `epoch` is the absolute
/// bucket tick the counters belong to; a writer arriving in a new tick
/// CASes the epoch forward and zeroes the counters.
#[derive(Debug)]
struct Bucket {
    epoch: AtomicU64,
    emits: AtomicU64,
    misses: AtomicU64,
}

/// A 16-bucket ring covering one sliding window.
#[derive(Debug)]
struct BurnWindow {
    bucket_ns: u64,
    buckets: [Bucket; BURN_BUCKETS],
}

impl BurnWindow {
    fn new(window: Duration) -> Self {
        let window_ns = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX).max(1);
        BurnWindow {
            bucket_ns: (window_ns / BURN_BUCKETS as u64).max(1),
            buckets: std::array::from_fn(|_| Bucket {
                epoch: AtomicU64::new(u64::MAX),
                emits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    fn record(&self, now_ns: u64, missed: bool) {
        let tick = now_ns / self.bucket_ns;
        let bucket = &self.buckets[tick as usize % BURN_BUCKETS];
        let epoch = bucket.epoch.load(Ordering::Relaxed);
        if epoch != tick {
            // One writer wins the recycle; losers just add to the fresh
            // counters. A stale-epoch loser's increment lands in the old
            // tick at worst — benign at bucket granularity.
            if bucket
                .epoch
                .compare_exchange(epoch, tick, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                bucket.emits.store(0, Ordering::Relaxed);
                bucket.misses.store(0, Ordering::Relaxed);
            }
        }
        bucket.emits.fetch_add(1, Ordering::Relaxed);
        if missed {
            bucket.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(emits, misses)` across buckets still inside the window at
    /// `now_ns`.
    fn totals(&self, now_ns: u64) -> (u64, u64) {
        let tick = now_ns / self.bucket_ns;
        let oldest = tick.saturating_sub(BURN_BUCKETS as u64 - 1);
        let mut emits = 0u64;
        let mut misses = 0u64;
        for b in &self.buckets {
            let epoch = b.epoch.load(Ordering::Relaxed);
            if epoch != u64::MAX && epoch >= oldest && epoch <= tick {
                emits += b.emits.load(Ordering::Relaxed);
                misses += b.misses.load(Ordering::Relaxed);
            }
        }
        (emits, misses)
    }
}

/// One patient's recording slots.
#[derive(Debug)]
struct PatientSlot {
    emits: AtomicU64,
    misses: AtomicU64,
    /// `now_ns + 1` of the newest emission (0 = never).
    last_emit: AtomicU64,
    /// Per-lane `seq + 1` watermark (0 = never).
    lane_seq: [AtomicU64; MAX_LANES],
    /// Per-lane `now_ns + 1` of the newest emission (0 = never).
    lane_last: [AtomicU64; MAX_LANES],
    fast: BurnWindow,
    slow: BurnWindow,
}

/// Lock-free per-patient SLO accounting; owned by the registry.
#[derive(Debug)]
pub struct SloEngine {
    config: SloConfig,
    deadline_ns: u64,
    stall_after_ns: u64,
    slots: [PatientSlot; MAX_PATIENTS],
}

impl SloEngine {
    /// An engine enforcing `config`.
    pub fn new(config: SloConfig) -> Self {
        SloEngine {
            deadline_ns: u64::try_from(config.deadline.as_nanos()).unwrap_or(u64::MAX),
            stall_after_ns: u64::try_from(config.stall_after.as_nanos()).unwrap_or(u64::MAX),
            slots: std::array::from_fn(|_| PatientSlot {
                emits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                last_emit: AtomicU64::new(0),
                lane_seq: std::array::from_fn(|_| AtomicU64::new(0)),
                lane_last: std::array::from_fn(|_| AtomicU64::new(0)),
                fast: BurnWindow::new(config.fast_window),
                slow: BurnWindow::new(config.slow_window),
            }),
            config,
        }
    }

    /// The configured objective.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// The deadline budget in nanoseconds.
    pub fn deadline_ns(&self) -> u64 {
        self.deadline_ns
    }

    /// Accounts one emission for `patient`/`lane` at `now_ns`. Ids fold
    /// modulo [`MAX_PATIENTS`]/[`MAX_LANES`]. Pure relaxed atomics.
    pub fn record_emit(&self, patient: usize, lane: usize, seq: u64, now_ns: u64, missed: bool) {
        let slot = &self.slots[patient % MAX_PATIENTS];
        slot.emits.fetch_add(1, Ordering::Relaxed);
        if missed {
            slot.misses.fetch_add(1, Ordering::Relaxed);
        }
        slot.last_emit.fetch_max(now_ns + 1, Ordering::Relaxed);
        slot.lane_seq[lane % MAX_LANES].fetch_max(seq + 1, Ordering::Relaxed);
        slot.lane_last[lane % MAX_LANES].fetch_max(now_ns + 1, Ordering::Relaxed);
        slot.fast.record(now_ns, missed);
        slot.slow.record(now_ns, missed);
    }

    fn burn(&self, emits: u64, misses: u64) -> f64 {
        if emits == 0 {
            return 0.0;
        }
        let budget = (1.0 - self.config.target).max(f64::EPSILON);
        (misses as f64 / emits as f64) / budget
    }

    /// Classifies every active patient at `now_ns`.
    pub fn snapshot(&self, now_ns: u64) -> SloSnapshot {
        let mut patients = Vec::new();
        for (id, slot) in self.slots.iter().enumerate() {
            let emits = slot.emits.load(Ordering::Relaxed);
            if emits == 0 {
                continue;
            }
            // `record_emit` counts the emission before it writes the
            // watermarks, so a concurrent snapshot can see the count alone.
            let Some(last) = slot.last_emit.load(Ordering::Relaxed).checked_sub(1) else {
                continue;
            };
            let misses = slot.misses.load(Ordering::Relaxed);
            let freshness_ns = now_ns.saturating_sub(last);
            let (fe, fm) = slot.fast.totals(now_ns);
            let (se, sm) = slot.slow.totals(now_ns);
            let fast_burn = self.burn(fe, fm);
            let slow_burn = self.burn(se, sm);
            let health = if freshness_ns > self.stall_after_ns {
                HealthState::Stalled
            } else if fast_burn >= self.config.degraded_burn
                && slow_burn >= self.config.degraded_burn
            {
                HealthState::Degraded
            } else {
                HealthState::Healthy
            };
            let lanes = (0..MAX_LANES)
                .filter_map(|lane| {
                    let newest_seq = slot.lane_seq[lane].load(Ordering::Relaxed).checked_sub(1)?;
                    let lane_last = slot.lane_last[lane].load(Ordering::Relaxed).checked_sub(1)?;
                    Some(LaneWatermark {
                        lane,
                        newest_seq,
                        age_ns: now_ns.saturating_sub(lane_last),
                    })
                })
                .collect();
            patients.push(PatientSlo {
                patient: id,
                emits,
                deadline_misses: misses,
                freshness_ns,
                fast_burn,
                slow_burn,
                health,
                lanes,
            });
        }
        SloSnapshot { deadline_ns: self.deadline_ns, patients }
    }
}

/// One lane's freshness watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneWatermark {
    /// Lane (lead) index.
    pub lane: usize,
    /// Newest emitted sequence number.
    pub newest_seq: u64,
    /// Nanoseconds since that lane last emitted.
    pub age_ns: u64,
}

/// One patient's derived SLO state.
#[derive(Debug, Clone, PartialEq)]
pub struct PatientSlo {
    /// Patient (stream) slot index.
    pub patient: usize,
    /// Total emissions observed.
    pub emits: u64,
    /// Emissions that exceeded the deadline budget.
    pub deadline_misses: u64,
    /// Nanoseconds since the newest emission across all lanes.
    pub freshness_ns: u64,
    /// Fast-window burn rate.
    pub fast_burn: f64,
    /// Slow-window burn rate.
    pub slow_burn: f64,
    /// Derived health.
    pub health: HealthState,
    /// Per-lane watermarks for lanes that have emitted.
    pub lanes: Vec<LaneWatermark>,
}

/// Point-in-time SLO verdict across the fleet.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloSnapshot {
    /// The deadline budget the misses were counted against.
    pub deadline_ns: u64,
    /// Active patients (at least one emission), in slot order.
    pub patients: Vec<PatientSlo>,
}

impl SloSnapshot {
    /// Whether any active patient is stalled (drives `/healthz`).
    pub fn any_stalled(&self) -> bool {
        self.patients.iter().any(|p| p.health == HealthState::Stalled)
    }

    /// Patients currently in `state`.
    pub fn count_in(&self, state: HealthState) -> u64 {
        self.patients.iter().filter(|p| p.health == state).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;
    const S: u64 = 1_000 * MS;

    fn engine() -> SloEngine {
        SloEngine::new(SloConfig::default())
    }

    #[test]
    fn inactive_patients_are_invisible() {
        let snap = engine().snapshot(10 * S);
        assert!(snap.patients.is_empty());
        assert!(!snap.any_stalled());
    }

    #[test]
    fn healthy_patient_reports_watermarks() {
        let e = engine();
        e.record_emit(3, 0, 10, 5 * S, false);
        e.record_emit(3, 1, 11, 6 * S, false);
        let snap = e.snapshot(7 * S);
        assert_eq!(snap.patients.len(), 1);
        let p = &snap.patients[0];
        assert_eq!(p.patient, 3);
        assert_eq!(p.emits, 2);
        assert_eq!(p.deadline_misses, 0);
        assert_eq!(p.health, HealthState::Healthy);
        assert_eq!(p.freshness_ns, S);
        assert_eq!(p.lanes.len(), 2);
        assert_eq!(p.lanes[0], LaneWatermark { lane: 0, newest_seq: 10, age_ns: 2 * S });
        assert_eq!(p.lanes[1], LaneWatermark { lane: 1, newest_seq: 11, age_ns: S });
    }

    #[test]
    fn silence_beyond_stall_after_is_stalled() {
        let e = engine();
        e.record_emit(0, 0, 0, S, false);
        assert_eq!(e.snapshot(10 * S).patients[0].health, HealthState::Healthy);
        let snap = e.snapshot(32 * S);
        assert_eq!(snap.patients[0].health, HealthState::Stalled);
        assert!(snap.any_stalled());
        assert_eq!(snap.count_in(HealthState::Stalled), 1);
    }

    #[test]
    fn sustained_misses_burn_both_windows_to_degraded() {
        let e = engine();
        // 50 % miss rate against a 99.9 % target → burn 500 in any window.
        for i in 0..100u64 {
            e.record_emit(1, 0, i, 10 * S + i * 100 * MS, i % 2 == 0);
        }
        let snap = e.snapshot(20 * S);
        let p = &snap.patients[0];
        assert!(p.fast_burn > 100.0, "fast {}", p.fast_burn);
        assert!(p.slow_burn > 100.0, "slow {}", p.slow_burn);
        assert_eq!(p.health, HealthState::Degraded);
        assert_eq!(p.deadline_misses, 50);
    }

    #[test]
    fn fast_window_forgets_old_misses_but_slow_remembers() {
        let e = engine();
        // A burst of misses early on…
        for i in 0..20u64 {
            e.record_emit(0, 0, i, S + i * 10 * MS, true);
        }
        // …then clean traffic. 10 minutes later the 5 m fast window has
        // rotated the burst out, so the patient is Healthy again even
        // though the 1 h slow window still shows a nonzero burn.
        let later = 600 * S;
        for i in 20..40u64 {
            e.record_emit(0, 0, i, later + i * 10 * MS, false);
        }
        let snap = e.snapshot(later + 41 * 10 * MS);
        let p = &snap.patients[0];
        assert_eq!(p.fast_burn, 0.0, "fast window must have rotated the burst out");
        assert!(p.slow_burn > 0.0, "slow window still remembers");
        assert_eq!(p.health, HealthState::Healthy, "AND semantics: one window clean ⇒ not degraded");
    }

    #[test]
    fn ids_fold_modulo_capacity() {
        let e = engine();
        e.record_emit(2, 1, 5, S, false);
        e.record_emit(2 + MAX_PATIENTS, 1 + MAX_LANES, 6, 2 * S, false);
        let snap = e.snapshot(3 * S);
        assert_eq!(snap.patients.len(), 1);
        assert_eq!(snap.patients[0].emits, 2);
        assert_eq!(snap.patients[0].lanes[0].newest_seq, 6);
    }

    #[test]
    fn zero_emissions_in_window_is_zero_burn() {
        let e = engine();
        e.record_emit(0, 0, 0, S, true);
        // Two hours later both windows are empty: burn must read 0, not NaN.
        let snap = e.snapshot(7200 * S);
        assert_eq!(snap.patients[0].fast_burn, 0.0);
        assert_eq!(snap.patients[0].slow_burn, 0.0);
    }

    #[test]
    fn a_snapshot_between_count_and_watermarks_skips_the_unwritten() {
        let e = engine();
        let slot = &e.slots[4];
        // What a scrape sees mid-`record_emit`: the emission and the
        // lane's sequence are counted, neither time watermark is written.
        slot.emits.store(1, Ordering::Relaxed);
        slot.lane_seq[0].store(1, Ordering::Relaxed);
        assert!(e.snapshot(S).patients.is_empty());
        slot.last_emit.store(S / 2 + 1, Ordering::Relaxed);
        let snap = e.snapshot(S);
        assert_eq!(snap.patients[0].freshness_ns, S / 2);
        assert!(snap.patients[0].lanes.is_empty(), "the lane's time is not written yet");
    }

    #[test]
    fn concurrent_recording_accounts_every_emit() {
        let e = std::sync::Arc::new(engine());
        let threads: Vec<_> = (0..4usize)
            .map(|t| {
                let e = std::sync::Arc::clone(&e);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        e.record_emit(t, 0, i, S + i * MS, i % 10 == 0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = e.snapshot(3 * S);
        assert_eq!(snap.patients.len(), 4);
        for p in &snap.patients {
            assert_eq!(p.emits, 1000);
            assert_eq!(p.deadline_misses, 100);
        }
    }
}
