//! Integration tests for the fleet decode engine: bit-exactness against
//! single-stream runs and against the golden `Leads` digests, per-stream
//! ordering, and sink-failure and consumer-panic propagation without
//! deadlock.

use cs_core::{
    DecodedPacket, FleetPacket, FleetReport, FrameSink, MultiChannelEncoder, PipelineError, WireFrame,
};
use cs_ecg_monitor::dsp::Real;
use cs_ecg_monitor::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const N: usize = 512;

fn ecg_like(npackets: usize, phase: f64) -> Vec<i16> {
    (0..npackets * N)
        .map(|i| {
            let t = (i % N) as f64 / N as f64;
            (700.0 * (-((t - 0.4 + phase) * 25.0).powi(2)).exp() + 50.0 * (t * 10.0).sin()) as i16
        })
        .collect()
}

fn setup() -> (SystemConfig, Arc<Codebook>) {
    let config = SystemConfig::paper_default();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    (config, codebook)
}

/// One default-policy run on the paper's configuration, no telemetry.
fn run<T: Real>(
    source: FleetSource<'_>,
    fleet: &FleetConfig,
    sink: Option<&Mutex<dyn FrameSink>>,
    on_packet: impl FnMut(&FleetPacket<T>) + Send,
) -> Result<FleetReport, PipelineError> {
    let (config, codebook) = setup();
    run_fleet(
        &config,
        codebook,
        source,
        SolverPolicy::default(),
        fleet,
        &TelemetryRegistry::disabled(),
        sink,
        on_packet,
    )
}

/// Every stream decoded by a four-stream fleet on two workers must be
/// bit-exact against the same stream alone through the paper's
/// coordinator: one stream, one worker.
#[test]
fn fleet_output_bit_exact_vs_single_stream_runs() {
    let inputs: Vec<Vec<i16>> = (0..4).map(|s| ecg_like(3, s as f64 * 0.03)).collect();

    // Reference: one single-stream, one-worker run per stream.
    let coordinator = FleetConfig { workers: 1, ..FleetConfig::default() };
    let mut reference: Vec<Vec<Vec<f64>>> = Vec::new();
    for input in &inputs {
        let mut packets = Vec::new();
        run::<f64>(FleetSource::Leads(&[FleetStream::single(input)]), &coordinator, None, |p| {
            packets.push(p.packet.samples.clone())
        })
        .unwrap();
        reference.push(packets);
    }

    // Fleet over the same four streams, two workers.
    let streams: Vec<FleetStream<'_>> =
        inputs.iter().map(|i| FleetStream::single(i)).collect();
    let fleet = FleetConfig { workers: 2, ..FleetConfig::default() };
    let mut fleet_out: Vec<Vec<Vec<f64>>> = vec![Vec::new(); inputs.len()];
    let report = run::<f64>(FleetSource::Leads(&streams), &fleet, None, |p| {
        fleet_out[p.stream].push(p.packet.samples.clone())
    })
    .unwrap();

    assert_eq!(report.packets_decoded, 12);
    for (stream, (fleet_packets, ref_packets)) in
        fleet_out.iter().zip(&reference).enumerate()
    {
        assert_eq!(fleet_packets.len(), ref_packets.len(), "stream {stream}");
        for (i, (a, b)) in fleet_packets.iter().zip(ref_packets).enumerate() {
            assert_eq!(a, b, "stream {stream} packet {i} not bit-exact");
        }
    }
}

/// Packets must arrive strictly in per-stream, frame-major order even
/// when streams outnumber workers and interleave arbitrarily.
#[test]
fn per_stream_order_is_preserved() {
    let inputs: Vec<Vec<i16>> = (0..5).map(|s| ecg_like(3, s as f64 * 0.02)).collect();
    let streams: Vec<FleetStream<'_>> = inputs
        .iter()
        .map(|i| FleetStream { leads: vec![i, i] })
        .collect();
    let fleet = FleetConfig { workers: 2, channel_capacity: 1, ..FleetConfig::default() };
    let mut seen: Vec<Vec<(u64, u8)>> = vec![Vec::new(); inputs.len()];
    let report = run::<f32>(FleetSource::Leads(&streams), &fleet, None, |p| {
        seen[p.stream].push((p.packet.index, p.channel))
    })
    .unwrap();

    assert_eq!(report.packets_decoded, 5 * 3 * 2);
    let expected: Vec<(u64, u8)> =
        (0..3).flat_map(|f| [(f, 0_u8), (f, 1_u8)]).collect();
    for (stream, order) in seen.iter().enumerate() {
        assert_eq!(order, &expected, "stream {stream} out of order");
    }
    // With tiny queues and more streams than workers, the caller must
    // have hit backpressure at least once.
    assert!(report.backpressure_stalls > 0, "expected backpressure stalls");
}

/// A sink whose third append fails, or whose mutex a dead thread poisoned.
struct FailingSink {
    appended: usize,
}

impl FrameSink for FailingSink {
    fn append_frame(&mut self, _stream: usize, _bytes: &[u8]) -> std::io::Result<()> {
        self.appended += 1;
        if self.appended == 3 {
            return Err(std::io::Error::other("disk full"));
        }
        Ok(())
    }
}

/// The one run-ending path left: a sink that cannot persist must abort the
/// run with a stream-attributed fleet error — and the run must terminate
/// (no deadlocked caller or worker) even with minimal queue
/// capacity. A sink mutex poisoned by its owner is the same failure, not
/// a panic inside the engine.
#[test]
fn decode_error_propagates_and_run_terminates() {
    let inputs: Vec<Vec<i16>> = (0..2).map(|s| ecg_like(4, s as f64 * 0.03)).collect();
    let streams: Vec<FleetStream<'_>> =
        inputs.iter().map(|i| FleetStream::single(i)).collect();
    let fleet = FleetConfig { workers: 2, channel_capacity: 1, ..FleetConfig::default() };

    let failing = Mutex::new(FailingSink { appended: 0 });
    let poisoned = Mutex::new(FailingSink { appended: 0 });
    let _ = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let _held = poisoned.lock().unwrap();
                panic!("sink owner dies holding the lock");
            })
            .join()
    });
    assert!(poisoned.is_poisoned());

    for (sink, expected) in [(&failing, "archive sink: disk full"), (&poisoned, "archive sink: poisoned")] {
        let err = run::<f32>(FleetSource::Leads(&streams), &fleet, Some(sink), |_| {})
            .unwrap_err();
        match err {
            PipelineError::Fleet { stream, cause } => {
                assert!(stream.is_some(), "error must carry stream attribution");
                assert_eq!(cause, expected);
            }
            other => panic!("expected Fleet error, got {other}"),
        }
    }
    assert_eq!(failing.lock().unwrap().appended, 3, "nothing is appended after the failure");
}

/// Two single-lead streams a test thread encodes and sends for as long as
/// the engine receives; returns once the receiving end is gone.
fn feed_until_closed(feed: crossbeam::channel::Sender<WireFrame>) {
    let (config, codebook) = setup();
    let window = ecg_like(1, 0.0);
    let mut motes: Vec<Encoder> =
        (0..2).map(|_| Encoder::new(&config, Arc::clone(&codebook)).unwrap()).collect();
    for stream in (0..motes.len()).cycle() {
        let bytes = motes[stream].encode_packet(&window).unwrap().to_bytes();
        if feed.send(WireFrame { stream, bytes }).is_err() {
            return;
        }
    }
}

/// `on_packet` runs on the workers, so a consumer that panics must still
/// end the run — at one and two workers, with single-packet queues, over
/// raw leads and over a live channel whose sender never stops on its own
/// — and no window may reach it after the panic. The run ends in the
/// consumer's own panic, re-raised on the calling thread once every worker
/// has stopped (not in a `PipelineError::Fleet`). A hang fails at the
/// watchdog instead of stalling the suite.
#[test]
fn panicking_consumer_ends_the_run() {
    const WATCHDOG: Duration = Duration::from_secs(60);
    const MESSAGE: &str = "consumer fails on its second window";
    for workers in [1, 2] {
        for live in [false, true] {
            let calls = Arc::new(AtomicUsize::new(0));
            let (done, outcome) = std::sync::mpsc::channel();
            let seen = Arc::clone(&calls);
            std::thread::spawn(move || {
                let fleet = FleetConfig { workers, channel_capacity: 1, ..FleetConfig::default() };
                let on_packet = |_: &FleetPacket<f32>| {
                    if seen.fetch_add(1, Ordering::SeqCst) == 1 {
                        panic!("{MESSAGE}");
                    }
                };
                let inputs: Vec<Vec<i16>> = (0..2).map(|s| ecg_like(4, s as f64 * 0.03)).collect();
                let streams: Vec<FleetStream<'_>> =
                    inputs.iter().map(|i| FleetStream::single(i)).collect();
                let ended = std::thread::scope(|scope| {
                    let source = if live {
                        let (feed, source) = crossbeam::channel::bounded(4);
                        scope.spawn(move || feed_until_closed(feed));
                        FleetSource::Channel(source)
                    } else {
                        FleetSource::Leads(&streams)
                    };
                    catch_unwind(AssertUnwindSafe(|| run::<f32>(source, &fleet, None, on_packet)))
                });
                let panic = ended.err().and_then(|p| p.downcast_ref::<String>().cloned());
                let _ = done.send(panic);
            });
            let panic = outcome
                .recv_timeout(WATCHDOG)
                .unwrap_or_else(|_| panic!("workers {workers}, live {live}: run_fleet hung"));
            assert_eq!(panic.as_deref(), Some(MESSAGE), "workers {workers}, live {live}");
            assert_eq!(calls.load(Ordering::SeqCst), 2, "workers {workers}, live {live}: a window after the panic");
        }
    }
}

/// Deterministic replay: the same stream as pre-encoded wire frames and
/// as raw leads must produce identical reconstructions.
#[test]
fn encoded_path_matches_raw_path() {
    let (config, codebook) = setup();
    let samples = ecg_like(2, 0.0);
    let mut encoder = MultiChannelEncoder::new(&config, codebook, 1).unwrap();
    let frames: Vec<Vec<u8>> = samples
        .chunks_exact(N)
        .map(|chunk| encoder.encode_frame(&[chunk]).unwrap().remove(0).to_bytes())
        .collect();

    let fleet = FleetConfig { workers: 1, ..FleetConfig::default() };

    let mut raw_out: Vec<DecodedPacket<f64>> = Vec::new();
    let streams = [FleetStream::single(&samples)];
    run::<f64>(FleetSource::Leads(&streams), &fleet, None, |p| raw_out.push(p.packet.clone()))
        .unwrap();

    let mut enc_out: Vec<DecodedPacket<f64>> = Vec::new();
    run::<f64>(FleetSource::Frames(&[frames]), &fleet, None, |p| enc_out.push(p.packet.clone()))
        .unwrap();

    assert_eq!(raw_out.len(), enc_out.len());
    for (a, b) in raw_out.iter().zip(&enc_out) {
        assert_eq!(a.samples, b.samples);
    }
}

/// The fleet report's aggregate accounting must be consistent with its
/// per-stream summaries.
#[test]
fn report_accounting_is_consistent() {
    let inputs: Vec<Vec<i16>> = (0..3).map(|s| ecg_like(2, s as f64 * 0.01)).collect();
    let streams: Vec<FleetStream<'_>> =
        inputs.iter().map(|i| FleetStream::single(i)).collect();
    let fleet = FleetConfig { workers: 3, ..FleetConfig::default() };
    let report = run::<f32>(FleetSource::Leads(&streams), &fleet, None, |_| {}).unwrap();

    assert_eq!(report.stream_packets, [2, 2, 2]);
    let per_stream: usize = report.stream_packets.iter().sum();
    assert_eq!(per_stream, report.packets_decoded);
    let per_worker: usize = report.worker_packets.iter().sum();
    assert_eq!(per_worker, report.packets_decoded);
    // Stream affinity: equal-length streams split evenly over the workers.
    assert_eq!(report.worker_packets, [2, 2, 2]);
    assert_eq!(report.spectral_misses, 1);
    assert_eq!(report.spectral_hits as usize, inputs.len() - 1);
}

/// FNV-1a over `(stream, channel, index, iterations, warm_started,
/// samples.to_bits())` of a 2-stream × 2-lead × 3-frame `Leads` run:
/// streams in index order (they interleave arbitrarily on the wire), each
/// stream in emission order.
fn leads_digest<T: Real>(workers: usize) -> u64 {
    let inputs: Vec<[Vec<i16>; 2]> = (0..2)
        .map(|s| [ecg_like(3, s as f64 * 0.03), ecg_like(3, s as f64 * 0.03 + 0.01)])
        .collect();
    let streams: Vec<FleetStream<'_>> = inputs
        .iter()
        .map(|[a, b]| FleetStream { leads: vec![a, b] })
        .collect();
    let fleet = FleetConfig { workers, ..FleetConfig::default() };
    let mut words: Vec<Vec<u64>> = vec![Vec::new(); inputs.len()];
    let report = run::<T>(FleetSource::Leads(&streams), &fleet, None, |p| {
        let w = &mut words[p.stream];
        w.extend([
            p.stream as u64,
            u64::from(p.channel),
            p.packet.index,
            p.packet.iterations as u64,
            u64::from(p.packet.warm_started),
        ]);
        // f32 → f64 is exact, so the widened bits identify the value.
        w.extend(p.packet.samples.iter().map(|v| v.to_f64().to_bits()));
    })
    .unwrap();
    assert_eq!(report.packets_decoded, 2 * 2 * 3);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in words.iter().flatten().flat_map(|w| w.to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The raw-leads source must decode to the same bits whichever engine
/// carries it. The constants were first made on the in-process job engine
/// (before it was replaced by the supervised wire engine):
///
/// ```text
/// 0x047c_da96_d229_51a2  0x7bee_12d1_3377_16ad  0xb44a_a746_6cf8_2c9f  0x455f_bd04_a893_deaa
/// ```
///
/// and re-pinned once, when `SolverPolicy::default()`'s stop rule became a
/// function of the CR (1.5·10⁻⁴ at this geometry, from 5·10⁻⁵: the same
/// iterates, ended earlier); with an explicit `StopRule::RelativeStep(5e-5)`
/// the engine still produces the four above. The fleet's warm start, pinned
/// beside them at `0xc976_1170_8dc6_ea39` (f32) and `0x8f26_814f_1f04_f084`
/// (f64), was deleted. Stream affinity makes the worker count invisible.
#[test]
fn leads_source_matches_the_golden_digests() {
    for workers in [1, 2] {
        let got = [leads_digest::<f32>(workers), leads_digest::<f64>(workers)];
        assert_eq!(
            got,
            [0x600a_e958_3dab_03dd, 0x8cd4_f6b1_9689_32a5],
            "workers {workers}: {got:#018x?}"
        );
    }
}
