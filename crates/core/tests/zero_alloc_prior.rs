//! Steady-state **prior-driven** decode must be allocation-free.
//!
//! The prior analogue of `zero_alloc.rs`: a counting global allocator
//! wraps the system allocator; after the first packet has warmed a
//! worker's [`DecodeWorkspace`] — including the group-prox norm scratch —
//! every further `decode_packet_with` under [`SolverPolicy::block_prior`]
//! must perform **zero** heap allocations.
//!
//! This lives in its own integration-test binary with a single `#[test]`
//! so no concurrent test can pollute the allocation counter.

use cs_codec::Codebook;
use cs_core::{DecodeWorkspace, DecodedPacket, Decoder, Encoder, SolverPolicy, SystemConfig};
use cs_telemetry::TelemetryRegistry;
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
fn steady_state_prior_decode_allocates_nothing() {
    let config = SystemConfig::paper_default();
    let codebook = Arc::new(
        Codebook::from_counts(&vec![1; config.alphabet()], config.alphabet()).unwrap(),
    );
    let registry = TelemetryRegistry::new();

    let mut decoder: Decoder<f32> =
        Decoder::new(&config, Arc::clone(&codebook), SolverPolicy::block_prior()).unwrap();
    decoder.set_warm_start(true);
    decoder.set_telemetry(registry.clone());

    // Pre-encode the stream so the measured loop is nothing but decode.
    let mut encoder = Encoder::new(&config, codebook).unwrap();
    let stream: Vec<_> = (0..6)
        .map(|k| encoder.encode_packet(&synthetic_packet(512, k as f64 * 0.002)).unwrap())
        .collect();

    let mut ws = DecodeWorkspace::for_config(&config);
    let mut out = DecodedPacket::default();

    // Packet 0 warms every buffer: the solve workspace and the group
    // norm scratch (allocations allowed here only).
    decoder.decode_packet_with(&stream[0], &mut ws, &mut out).unwrap();

    for wire in &stream[1..] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        decoder.decode_packet_with(wire, &mut ws, &mut out).unwrap();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "steady-state block-prior decode of packet {} allocated {} times",
            out.index,
            after - before
        );
        assert_eq!(out.samples.len(), 512);
        assert!(out.warm_started, "steady state must be warm-started");
    }

    // The group path really ran: the decoder recorded block-mode solves
    // into the live registry.
    let snap = registry.snapshot();
    let block = snap
        .solver_iterations
        .iter()
        .find(|(m, _)| m.name() == "block")
        .map(|(_, h)| h.count())
        .unwrap();
    assert!(block > 0, "block decoder never took the group path");
}
