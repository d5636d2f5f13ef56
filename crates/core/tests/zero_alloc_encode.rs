//! A steady-state delta packet allocates exactly once: the payload it
//! returns. The measurement vector lives in the encoder, and the
//! differences go straight from it to the payload's bits.
//!
//! Its own integration-test binary with a single `#[test]`, so no
//! concurrent test can pollute the allocation counter.

use cs_codec::Codebook;
use cs_core::{Encoder, PacketKind, SystemConfig};
use cs_telemetry::TelemetryRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts allocations and reallocations.
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

#[test]
fn a_delta_packet_allocates_only_its_payload() {
    let config = SystemConfig::paper_default();
    let codebook =
        Arc::new(Codebook::from_counts(&vec![1; config.alphabet()], config.alphabet()).unwrap());
    let mut encoder = Encoder::new(&config, codebook).unwrap();
    // Stage spans into a live registry, as a monitored mote records them.
    encoder.set_telemetry(TelemetryRegistry::new());
    let windows: Vec<Vec<i16>> = (0..8)
        .map(|k| {
            (0..512)
                .map(|i| (((i * 7 + k * 13) % 200) as i16 - 100) * 5)
                .collect()
        })
        .collect();
    assert_eq!(
        encoder.encode_packet(&windows[0]).unwrap().kind,
        PacketKind::Reference
    );
    for window in &windows[1..] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let packet = encoder.encode_packet(window).unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(packet.kind, PacketKind::Delta);
        assert_eq!(
            allocations, 1,
            "a delta packet took {allocations} allocations"
        );
        drop(packet);
    }
}
