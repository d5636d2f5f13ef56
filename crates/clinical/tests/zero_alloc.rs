//! Steady-state clinical analysis must be allocation-free.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up period (rings are pre-sized at construction, but the event
//! and scratch buffers grow on first use), every further
//! [`ClinicalEngine::on_packet`] call — detection, classification,
//! alarm evaluation, truth scoring, telemetry — must perform **zero**
//! heap allocations. The analysis path runs on the decode side's hot
//! loop; an allocation there stalls the very stream being monitored.
//! A four-lead patient is held to the same bound, so the early return
//! that leaves the other leads' windows unanalysed allocates nothing
//! either.
//!
//! Single `#[test]` in its own binary so no concurrent test pollutes
//! the counter.

use cs_clinical::{ClinicalConfig, ClinicalEngine, StreamingQrsDetector};
use cs_core::{DecodedPacket, FleetPacket, PacketOutcome, TierController};
use cs_ecg_data::QrsDetectorConfig;
use cs_telemetry::TelemetryRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// 512-sample windows of a 72 bpm pulse train at 256 Hz.
fn window(k: usize) -> Vec<f64> {
    let rr = 213; // ≈ 72 bpm at 256 Hz
    (0..512)
        .map(|i| {
            let abs = k * 512 + i;
            let phase = (abs % rr) as f64;
            380.0 * (-(phase - 18.0).powi(2) / 5.0).exp() + 6.0 * (abs as f64 * 0.013).sin()
        })
        .collect()
}

#[test]
fn steady_state_analysis_allocates_nothing() {
    let telemetry = TelemetryRegistry::new();
    let mut engine = ClinicalEngine::new(ClinicalConfig::at_256_hz(), 1, 1, telemetry.clone());
    engine.set_tier_controller(TierController::new(1));
    // Live truth scoring rides the hot path too.
    let rr = 213;
    let truth: Vec<usize> = (0..(64 * 512) / rr).map(|k| k * rr + 18).collect();
    engine.set_ground_truth(0, truth, 13);

    // Pre-build the emissions so the measured loop is analysis only.
    let packets: Vec<FleetPacket<f64>> = (0..64)
        .map(|k| {
            let mut packet = DecodedPacket::default();
            packet.index = k as u64;
            packet.samples = window(k);
            FleetPacket { stream: 0, channel: 0, outcome: PacketOutcome::Decoded, e2e: None, packet }
        })
        .collect();

    let mut events = Vec::with_capacity(256);

    // Warm-up: priming (2 s), first beats, scratch/event buffer growth.
    for pkt in &packets[..16] {
        events.clear();
        engine.on_packet(pkt, &mut events);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut beats = 0;
    for pkt in &packets[16..] {
        events.clear();
        engine.on_packet(pkt, &mut events);
        beats += events.len();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state clinical analysis allocated {} times",
        after - before
    );
    // The measured loop really analyzed signal: beats flowed and the
    // truth scorer kept up.
    assert!(beats > 40, "only {beats} events in the measured window");
    let (tp, _, _) = telemetry.qrs_confusion();
    assert!(tp > 40, "truth scorer matched only {tp} peaks");

    // A four-lead patient: every window reaches the engine, only lead 0
    // is analysed, and the other three return early — allocation-free.
    let telemetry = TelemetryRegistry::new();
    let mut engine = ClinicalEngine::new(ClinicalConfig::at_256_hz(), 1, 4, telemetry.clone());
    engine.set_tier_controller(TierController::new(1));
    let leads: Vec<FleetPacket<f64>> = packets
        .iter()
        .flat_map(|pkt| {
            (0..4u8).map(move |channel| FleetPacket { channel, ..pkt.clone() })
        })
        .collect();
    for pkt in &leads[..16 * 4] {
        events.clear();
        engine.on_packet(pkt, &mut events);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut beats = 0;
    for pkt in &leads[16 * 4..] {
        events.clear();
        engine.on_packet(pkt, &mut events);
        beats += events.len();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "a four-lead patient allocated {} times", after - before);
    assert!(beats > 40, "only {beats} events from the four-lead patient");

    // Nor does the window's length matter: the detector band-passes in
    // fixed blocks it owns, so 2 000 samples at once — longer than any of
    // its rings — cost no allocation either.
    let long: Vec<f64> = (0..4).flat_map(window).take(2000).collect();
    let mut detector = StreamingQrsDetector::new(QrsDetectorConfig::at_256_hz());
    let mut found = Vec::with_capacity(64);
    detector.push_window(&long, &mut found);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    detector.push_window(&long, &mut found);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "a 2 000-sample window allocated {} times", after - before);
    assert!(found.len() > 10, "only {} detections in 4 000 samples", found.len());
}
