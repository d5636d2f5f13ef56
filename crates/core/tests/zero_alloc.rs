//! Steady-state decode must be allocation-free — **with tracing on**.
//!
//! A counting global allocator wraps the system allocator; after the first
//! packet has warmed a worker's [`DecodeWorkspace`], every further
//! `decode_packet_with` into a reused output must perform **zero** heap
//! allocations — the acceptance criterion of the workspace migration.
//!
//! The decoder runs against a **live** telemetry registry and the
//! measured loop also exercises the end-to-end trace path (capture
//! stamp → [`TelemetryRegistry::record_emit`] into the SLO engine), so
//! the guarantee covers observed production decodes, not just the
//! disabled-registry fast path: stage spans, the solve-trace journal
//! ring, the e2e histograms and the burn windows are all fixed-size
//! atomics after construction.
//!
//! This lives in its own integration-test binary with a single `#[test]`
//! so no concurrent test can pollute the allocation counter.

use cs_codec::Codebook;
use cs_core::{
    parse_frame, DecodeWorkspace, DecodedPacket, Decoder, Encoder, SolverPolicy, SystemConfig,
};
use cs_telemetry::{TelemetryRegistry, TraceContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts allocations (not deallocations: retiring a buffer is benign,
/// taking a fresh one is the defect being guarded against).
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

fn synthetic_packet(n: usize, phase: f64) -> Vec<i16> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            let spike = (-((t - 0.3 + phase) * 40.0).powi(2)).exp()
                + (-((t - 0.8 + phase) * 40.0).powi(2)).exp();
            (900.0 * spike + 60.0 * (t * 12.0).sin()) as i16
        })
        .collect()
}

#[test]
fn steady_state_decode_allocates_nothing() {
    let config = SystemConfig::paper_default();
    let codebook = Arc::new(
        Codebook::from_counts(&vec![1; config.alphabet()], config.alphabet()).unwrap(),
    );
    let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).unwrap();
    let mut decoder: Decoder<f32> =
        Decoder::new(&config, codebook, SolverPolicy::default()).unwrap();
    decoder.set_warm_start(true);

    // Trace the steady state: a live registry (journal ring preallocated
    // at construction) observing every stage span and solve trace.
    let registry = TelemetryRegistry::new();
    decoder.set_telemetry(registry.clone());

    // Pre-encode the whole stream (reference packet first, then deltas)
    // and pre-serialize the wire frames, so the measurement loop below
    // runs nothing but frame validation + decode.
    let wires: Vec<_> = (0..6)
        .map(|k| encoder.encode_packet(&synthetic_packet(512, k as f64 * 0.002)).unwrap())
        .collect();
    let frames: Vec<Vec<u8>> = wires.iter().map(|w| w.to_bytes()).collect();

    let mut ws = DecodeWorkspace::for_config(&config);
    let mut out = DecodedPacket::default();

    // Packet 0 warms every buffer, including the concealment retention
    // copy (allocations allowed here).
    decoder.decode_packet_with(&wires[0], &mut ws, &mut out).unwrap();

    for (wire, bytes) in wires[1..].iter().zip(&frames[1..]) {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        // Frame validation (magic/version/CRC/kind) borrows the payload —
        // it must not allocate either.
        let (info, _) = parse_frame(bytes).unwrap();
        assert_eq!(info.index, wire.index);
        // The full trace context rides the packet: capture stamp at
        // "packetize", emit accounting (e2e histogram + SLO burn
        // windows) after the decode — all fixed-size atomics.
        let captured = registry.now_ns();
        decoder.decode_packet_with(wire, &mut ws, &mut out).unwrap();
        registry
            .record_emit(&TraceContext::new(0, 0, out.index, captured))
            .expect("live registry records emissions");
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "steady-state decode of packet {} allocated {} times",
            out.index,
            after - before
        );
        assert_eq!(out.samples.len(), 512);
        assert!(!out.concealed);
    }

    // The concealment path replays the retained window through the
    // synthesis operator; after one warming call it must be alloc-free
    // too (a concealed slot happens mid-stream, where an allocation
    // would stall the very lane that is already degraded).
    assert!(decoder.conceal_packet_with(97, &mut ws, &mut out));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let replayed = decoder.conceal_packet_with(98, &mut ws, &mut out);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(replayed, "history exists, so concealment must replay it");
    assert_eq!(after - before, 0, "concealment allocated {} times", after - before);
    assert_eq!(out.samples.len(), 512);
    assert!(out.concealed);

    // The registry really was live: every decode journaled a solve trace
    // and every measured packet fed the SLO engine — this test must not
    // silently regress to the disabled-registry fast path.
    assert_eq!(registry.journal().pushed(), 6, "one solve trace per decode");
    assert_eq!(registry.e2e(0).snapshot().count(), 5, "one e2e sample per measured packet");
    assert_eq!(registry.slo_snapshot().patients.len(), 1);
}
