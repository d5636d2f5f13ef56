//! Golden exposition: the Prometheus exporter, byte for byte.
//!
//! `cs-ingestd`'s `/metrics` and the `cs-ingest` daemon test that scrapes
//! it read what `prometheus()` writes, so a refactor of the registry or
//! the exporter may not move a byte of it. The fixture under
//! `tests/fixtures/` was captured from this very snapshot **at the commit
//! before the family table existed** (hand-written exporters); the test
//! rebuilds the snapshot through the public recording API and requires
//! equality.
//!
//! The snapshot is deterministic: everything a clock would touch (the
//! end-to-end and render histograms, the SLO ages and burn rates, the
//! journal accounting) is overwritten with constants through the
//! snapshot's public fields. Every family is populated, and within each
//! label set at least one value is left at zero so both elision rules
//! (zero series dropped vs. written as an explicit `0`) are pinned too.
//!
//! If this test fails the output format changed. That is a breaking
//! change for every scraper; do not re-capture the fixture to make it
//! pass unless changing the format is the point of the change.

use cs_telemetry::{
    prometheus, AlarmKind, ArchiveOp, BeatClass, FaultKind, HealthState, HistogramSnapshot,
    IngestDisconnect, IngestState, LaneWatermark, PatientSlo, ScrapeEndpoint, SloSnapshot,
    SolveTrace, SolverMode, Stage, TelemetryRegistry, TelemetrySnapshot,
};

fn histogram(values: &[u64]) -> HistogramSnapshot {
    let mut hist = HistogramSnapshot::new();
    for &v in values {
        hist.record_ns(v);
    }
    hist
}

fn golden_snapshot() -> TelemetrySnapshot {
    let registry = TelemetryRegistry::new();
    for (i, stage) in Stage::ALL.iter().enumerate() {
        if *stage == Stage::ArchiveReplay {
            continue; // an unobserved stage is elided
        }
        let i = i as u64 + 1;
        registry.record_stage_ns(*stage, 1_000 * i);
        registry.record_stage_ns(*stage, 900_000 * i);
        registry.record_stage_ns(*stage, 37 * i * i);
    }
    for iterations in [97, 120, 230] {
        registry.record_solver_iterations(SolverMode::Cold, iterations);
    }
    registry.record_solver_iterations(SolverMode::Block, 74);
    for worker in [0, 0, 2, 5] {
        registry.record_worker_packet(worker);
    }
    for (i, kind) in FaultKind::ALL.iter().enumerate() {
        for _ in 0..i {
            registry.record_fault(*kind); // the first kind stays at zero
        }
    }
    for (i, op) in ArchiveOp::ALL.iter().enumerate() {
        registry.record_archive_ops(*op, 10 * i as u64); // likewise
    }
    registry.record_kernel_arm("avx2");
    for seq in 0..3 {
        registry.record_solve(SolveTrace { seq, iterations: 12, ..SolveTrace::default() });
    }

    for _ in 0..3 {
        registry.ingest_session_enter(IngestState::Handshaking);
    }
    registry.ingest_session_exit(IngestState::Handshaking);
    registry.ingest_session_exit(IngestState::Handshaking);
    registry.ingest_session_enter(IngestState::Streaming);
    registry.ingest_session_enter(IngestState::Streaming);
    registry.record_ingest_shed();
    registry.record_ingest_disconnect(IngestDisconnect::ClientClosed);
    registry.record_ingest_disconnect(IngestDisconnect::ClientClosed);
    registry.record_ingest_disconnect(IngestDisconnect::SlowLoris);
    registry.record_ingest_frames(40, 56_000);

    for _ in 0..50 {
        registry.record_beat(BeatClass::Normal);
    }
    for _ in 0..3 {
        registry.record_beat(BeatClass::Pvc);
    }
    registry.record_alarm_raised(AlarmKind::PvcRun);
    registry.record_alarm_raised(AlarmKind::PvcRun);
    registry.record_alarm_raised(AlarmKind::Tachycardia);
    registry.record_alarm_cleared(AlarmKind::Tachycardia);
    for _ in 0..4 {
        registry.record_alarm_suppressed();
    }
    registry.record_qrs_score(95, 3, 5);

    for _ in 0..3 {
        registry.record_scrape(ScrapeEndpoint::Metrics);
    }
    registry.record_scrape(ScrapeEndpoint::Healthz);

    let mut snap = registry.snapshot();
    snap.journal_len = 3;
    snap.journal_pushed = 5;
    snap.journal_dropped = 2;
    snap.e2e = vec![
        (0, histogram(&[400_000, 550_000, 2_300_000])),
        (5, histogram(&[610_000, 1_900_000_000])),
    ];
    snap.render_ns = histogram(&[180_000, 220_000]);
    snap.slo = SloSnapshot {
        deadline_ns: 2_000_000_000,
        patients: vec![
            PatientSlo {
                patient: 0,
                emits: 3,
                deadline_misses: 0,
                freshness_ns: 1_250_000_000,
                fast_burn: 0.0,
                slow_burn: 0.0,
                health: HealthState::Healthy,
                lanes: vec![
                    LaneWatermark { lane: 0, newest_seq: 1, age_ns: 2_500_000_000 },
                    LaneWatermark { lane: 1, newest_seq: 2, age_ns: 1_250_000_000 },
                ],
            },
            PatientSlo {
                patient: 5,
                emits: 2,
                deadline_misses: 1,
                freshness_ns: 31_000_000_000,
                fast_burn: 500.0,
                slow_burn: 12.5,
                health: HealthState::Stalled,
                lanes: vec![LaneWatermark { lane: 0, newest_seq: 41, age_ns: 31_000_000_000 }],
            },
        ],
    };
    snap
}

#[test]
fn prometheus_matches_the_parent_commit_byte_for_byte() {
    let expected = include_str!("fixtures/golden.prom");
    let actual = prometheus(&golden_snapshot());
    assert!(actual == expected, "Prometheus exposition moved:\n{actual}");
}
