//! Fleet-scale decoding: many patient streams fanned over a worker pool.
//!
//! [`run_streaming`](crate::stream::run_streaming) reproduces the paper's
//! single-patient coordinator (§IV-B1): one producer, one consumer, one
//! bounded 3-packet buffer. A monitoring *service* — a ward server or a
//! telehealth backend — decodes many such patients at once, each with the
//! clinical norm of several leads. [`run_fleet`] is that service, and like
//! the paper's coordinator it has exactly one path: frames come off a
//! link, are decoded, and are delivered. Its [`FleetSource`] — raw leads,
//! materialized traffic or a live channel — only *produces*
//! [`WireFrame`]s; behind it the engine never branches on who called it:
//!
//! * **A dispatcher** drains the frame source, appends each frame to the
//!   optional [`FrameSink`] (write-before-decode), stamps its arrival and
//!   hands it to a worker by *stream affinity* (`worker = stream mod M`),
//!   so a stream's frames all visit one worker, in order.
//! * **M decode workers** each own a bounded input queue (the per-worker
//!   analogue of the paper's 3-packet shared buffer) and one [`WireCore`]:
//!   a worker pushes each frame into its core and forwards the windows it
//!   releases. Wire damage and a poisoned decoder become
//!   [`PacketOutcome`]s and [`FleetReport::faults`] counts, merged over
//!   the workers at join, never run-ending failures.
//! * **A collector** on the calling thread delivers results as they
//!   arrive. A stream's windows all come from its one worker over one
//!   FIFO channel, so each stream is observed in the order
//!   `run_streaming` would deliver it.
//! * **Backpressure** is explicit: the dispatcher first `try_send`s; a
//!   full queue counts one stall before the blocking send.
//! * **Shutdown** is by channel-disconnect cascade: when the source closes
//!   the queues disconnect and the workers flush their cores. A decoder
//!   that cannot be constructed or a sink that cannot persist reaches the
//!   collector as a failure; it stops consuming, and dropping the result
//!   channel wakes blocked workers, whose exits wake the dispatcher and,
//!   through it, the producers.
//!
//! Decoders share their power-iteration spectral setup through a
//! [`SpectralCache`]. Every lane decodes independently of every other, so
//! per-stream output is bit-exact with `run_streaming` at any worker count.

use crate::config::SystemConfig;
use crate::decoder::{DecodedPacket, SolverPolicy};
use crate::error::PipelineError;
use crate::ingest::{FaultStats, PacketOutcome, QuarantineRecord, QuarantineRing, DEFAULT_REORDER_WINDOW};
use crate::multichannel::MultiChannelEncoder;
use crate::stream::SHARED_BUFFER_PACKETS;
use crate::wire::{Emission, WireCore};
use cs_codec::Codebook;
use cs_dsp::Real;
use cs_recovery::SpectralCache;
use cs_telemetry::{Stage, TelemetryRegistry, TraceContext};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shape of the worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Decode workers. `0` means one per available CPU.
    pub workers: usize,
    /// Capacity of each worker's input queue, in packets. Defaults to the
    /// paper's 3-packet shared-buffer budget.
    pub channel_capacity: usize,
    /// Reorder window per (stream, lane): how many out-of-order frames to
    /// buffer before declaring the gap lost.
    pub reorder_window: usize,
    /// Per-solve FISTA iteration deadline. A solve that hits the budget is
    /// emitted best-effort (and counted as deadline-degraded) instead of
    /// stalling its lane. `None` leaves the solver policy's own cap in
    /// force.
    pub solve_budget: Option<usize>,
    /// Test hook: panic inside the decode of `(stream, wire seq)` once,
    /// to exercise the supervisor. `None` in production.
    pub chaos_panic: Option<(usize, u64)>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 0,
            channel_capacity: SHARED_BUFFER_PACKETS,
            reorder_window: DEFAULT_REORDER_WINDOW,
            solve_budget: None,
            chaos_panic: None,
        }
    }
}

impl FleetConfig {
    /// The worker count actually used: `workers`, or the host parallelism
    /// when `workers == 0`.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, usize::from)
        }
    }
}

/// One patient's raw multi-lead input.
#[derive(Debug, Clone)]
pub struct FleetStream<'a> {
    /// One sample slice per lead; every lead yields
    /// `min(len) / packet_len` frames.
    pub leads: Vec<&'a [i16]>,
}

impl<'a> FleetStream<'a> {
    /// A single-lead stream.
    pub fn single(samples: &'a [i16]) -> Self {
        FleetStream { leads: vec![samples] }
    }
}

/// One decoded packet as delivered by the collector, in per-stream order.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPacket<T: Real> {
    /// Which input stream this packet belongs to.
    pub stream: usize,
    /// Lead index within the stream.
    pub channel: u8,
    /// How this window was produced: decoded from received bytes,
    /// concealed, or a quarantine placeholder.
    pub outcome: PacketOutcome,
    /// End-to-end latency from capture — the frame's arrival at the
    /// dispatcher, whatever the source — to delivery by the collector.
    /// `None` when the run's [`TelemetryRegistry`] is disabled: stamping
    /// is gated on the registry so the fast path stays one relaxed load.
    pub e2e: Option<Duration>,
    /// The reconstruction and its solver statistics.
    pub packet: DecodedPacket<T>,
}

/// Per-stream accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Packets delivered for this stream (all leads).
    pub packets: usize,
    /// Sum of solver wall-clock across the stream's packets.
    pub total_decode_time: Duration,
    /// Longest single solve.
    pub max_decode_time: Duration,
    /// Sum of FISTA iterations.
    pub total_iterations: u64,
}

/// Outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-stream accounting, indexed by stream.
    pub streams: Vec<StreamSummary>,
    /// Worker threads used.
    pub workers: usize,
    /// Packets decoded per worker (stream-affinity load picture).
    pub worker_packets: Vec<usize>,
    /// Total packets delivered across all streams.
    pub packets_decoded: usize,
    /// Times the dispatcher found a worker's queue full and had to block.
    pub backpressure_stalls: u64,
    /// Distinct spectral configurations computed (cache misses).
    pub spectral_misses: u64,
    /// Decoder constructions served from the shared spectral cache.
    pub spectral_hits: u64,
    /// The packet period implied by the configuration (N / 256 Hz).
    pub packet_period: Duration,
    /// End-to-end wall-clock for the whole run.
    pub wall_time: Duration,
    /// Sum of solver wall-clock across all packets and streams.
    pub total_decode_time: Duration,
    /// Longest single solve anywhere in the fleet.
    pub max_decode_time: Duration,
    /// Ingest/supervision accounting.
    pub faults: FaultStats,
    /// Quarantined frames held for postmortem, oldest first (bounded;
    /// see [`QuarantineRing`]).
    pub quarantine: Vec<QuarantineRecord>,
}

/// A unit of decode work: the frame's arrival stamp (registry-monotonic
/// nanoseconds; `0` when telemetry is disabled) and the frame exactly as
/// it came off the link.
type WireJob = (u64, WireFrame);

/// What workers and the dispatcher send the collector: every window, and
/// the two failures no concealment can paper over — a decoder that cannot
/// be constructed and an archive sink that cannot persist.
enum WireMsg<T: Real> {
    Emit {
        worker: usize,
        /// When the worker handed this window to the result channel.
        emitted_ns: u64,
        emission: Emission<T>,
    },
    Failed(PipelineError),
}

/// A durable destination for wire frames, fed *before* decode.
///
/// [`run_fleet`] calls [`FrameSink::append_frame`] with every arrived
/// frame — exactly the bytes the link delivered, including frames the
/// ingest path will go on to reject — so the archive preserves
/// quarantinable traffic for post-mortem and the archived session replays
/// through [`FleetSource::Frames`] to the same decoded output. An append
/// error fails the run loudly ([`PipelineError::Fleet`]): silently
/// dropping durability is worse than stopping.
///
/// Implemented by `cs_archive::ArchiveSink`; kept as a trait here so
/// `cs-core` does not depend on the storage crate.
pub trait FrameSink: Send {
    /// Persists one arrived frame for `stream`. Called in each stream's
    /// arrival order (streams interleave arbitrarily).
    fn append_frame(&mut self, stream: usize, bytes: &[u8]) -> std::io::Result<()>;
}

/// One raw frame addressed to a fleet stream, exactly as a transport
/// delivered it — the one thing every [`FleetSource`] produces.
#[derive(Debug, Clone)]
pub struct WireFrame {
    /// Dense fleet stream index. A socket ingest layer maps patient ids
    /// to dense slots; per-stream collector state grows with the highest
    /// index seen.
    pub stream: usize,
    /// The frame bytes as they came off the link, damage included.
    pub bytes: Vec<u8>,
}

/// Where a fleet run's frames come from. Every source only *produces*
/// [`WireFrame`]s into the one supervised engine — see the module docs.
pub enum FleetSource<'a> {
    /// Raw multi-lead samples, one [`FleetStream`] per patient. One
    /// producer thread per stream plays the mote: it encodes each
    /// synchronized frame and transmits its wire frames, lead-minor.
    Leads(&'a [FleetStream<'a>]),
    /// Materialized wire traffic (a lossy-link capture, an archive
    /// replay): `traffic[stream]` is that stream's arrival sequence of raw
    /// frames, damage included, replayed by one producer thread per stream.
    Frames(&'a [Vec<Vec<u8>>]),
    /// A live transport: frames in arrival order, for a socket ingest
    /// layer that feeds long-lived sessions without buffering them whole.
    /// Frames for one stream must be sent in that stream's arrival order
    /// (interleaving across streams is arbitrary), and streams may appear
    /// mid-run. The run ends — flushing every staged reassembly tail —
    /// when all senders have been dropped, so a graceful drain is "stop
    /// feeding, drop the sender, join the engine".
    Channel(crossbeam::channel::Receiver<WireFrame>),
}

/// [`run_fleet`] over a [`FleetSource::Channel`] with the archive sink
/// required: the form the end-to-end benchmark names.
///
/// # Errors
///
/// Same contract as [`run_fleet`].
#[allow(clippy::too_many_arguments)]
pub fn run_fleet_wire_stream_archived<T, F>(
    config: &SystemConfig,
    codebook: Arc<Codebook>,
    source: crossbeam::channel::Receiver<WireFrame>,
    policy: SolverPolicy<T>,
    fleet: &FleetConfig,
    telemetry: &TelemetryRegistry,
    sink: &Mutex<dyn FrameSink>,
    on_packet: F,
) -> Result<FleetReport, PipelineError>
where
    T: Real,
    F: FnMut(&FleetPacket<T>) + Send,
{
    run_fleet(
        config,
        codebook,
        FleetSource::Channel(source),
        policy,
        fleet,
        telemetry,
        Some(sink),
        on_packet,
    )
}

/// The mote's role for one [`FleetSource::Leads`] stream: encodes every
/// whole frame of `input` and transmits its wire frames, lead-minor.
fn transmit_leads(
    config: &SystemConfig,
    codebook: Arc<Codebook>,
    telemetry: TelemetryRegistry,
    stream: usize,
    input: &FleetStream<'_>,
    feed: crossbeam::channel::Sender<WireFrame>,
) -> Result<(), PipelineError> {
    let n = config.packet_len();
    let mut encoder = MultiChannelEncoder::new(config, codebook, input.leads.len())?;
    encoder.set_telemetry(telemetry);
    let frames = input.leads.iter().map(|lead| lead.len() / n).min().unwrap_or(0);
    for frame in 0..frames {
        let window: Vec<&[i16]> =
            input.leads.iter().map(|lead| &lead[frame * n..(frame + 1) * n]).collect();
        for packet in encoder.encode_frame(&window)? {
            if feed.send(WireFrame { stream, bytes: packet.to_bytes() }).is_err() {
                return Ok(()); // engine hung up (failure path)
            }
        }
    }
    Ok(())
}

/// Decodes many multi-lead streams concurrently over a supervised worker
/// pool, surviving corruption, loss, duplication, reordering and worker
/// panics on the way in.
///
/// Every window that can be attributed to a (stream, lane, sequence) slot
/// is emitted exactly once with a [`PacketOutcome`] explaining how it was
/// produced. `on_packet` observes them grouped per stream in arrival
/// order (frame-major, lead-minor on clean traffic) — the same order
/// [`run_streaming`](crate::stream::run_streaming) delivers for each
/// stream individually. Unattributable frames (framing/CRC rejects) are
/// counted in [`FleetReport::faults`] and quarantined.
///
/// With a live `telemetry` registry every stage, solve and hand-off lands
/// in its histograms while the fleet runs, and each solve journals a trace
/// labelled with its `(stream, channel, seq)`; pass
/// [`TelemetryRegistry::disabled`] for one atomic load per span.
///
/// With a `sink`, every arrived frame is appended to it **before** any
/// worker interprets a byte of it (write-before-decode), so even frames
/// the pipeline rejects, conceals or quarantines are preserved
/// byte-for-byte.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidConfig`] for zero channel capacity, an
/// empty [`FleetSource::Leads`] / [`FleetSource::Frames`] fleet or a
/// stream with no leads, and [`PipelineError::Fleet`] when an encoder or
/// decoder cannot be constructed or the sink reports an I/O failure —
/// wire damage never fails the run.
#[allow(clippy::too_many_arguments)]
pub fn run_fleet<T, F>(
    config: &SystemConfig,
    codebook: Arc<Codebook>,
    source: FleetSource<'_>,
    policy: SolverPolicy<T>,
    fleet: &FleetConfig,
    telemetry: &TelemetryRegistry,
    sink: Option<&Mutex<dyn FrameSink>>,
    mut on_packet: F,
) -> Result<FleetReport, PipelineError>
where
    T: Real,
    F: FnMut(&FleetPacket<T>) + Send,
{
    if fleet.channel_capacity == 0 {
        return Err(PipelineError::InvalidConfig(
            "fleet channel capacity must be positive".into(),
        ));
    }

    // --- Source: a frame feed, and the producers that fill it ----------
    let slice_feed = |nstreams: usize| {
        if nstreams == 0 {
            return Err(PipelineError::InvalidConfig("empty fleet".into()));
        }
        Ok(crossbeam::channel::bounded::<WireFrame>(fleet.channel_capacity * nstreams))
    };
    let mut producers: Vec<Box<dyn FnOnce() -> Result<(), PipelineError> + Send + '_>> =
        Vec::new();
    // `min_streams` pre-sizes the per-stream collector state (and the
    // report's `streams` vector); a channel announces no width, and
    // indices at or above it grow the state on first sight.
    let (source, min_streams) = match source {
        FleetSource::Channel(feed) => (feed, 0),
        FleetSource::Leads(streams) => {
            if streams.iter().any(|s| s.leads.is_empty()) {
                return Err(PipelineError::InvalidConfig(
                    "fleet stream with zero leads".into(),
                ));
            }
            let (feed, source) = slice_feed(streams.len())?;
            for (stream, input) in streams.iter().enumerate() {
                let (feed, codebook, telemetry) =
                    (feed.clone(), Arc::clone(&codebook), telemetry.clone());
                producers.push(Box::new(move || {
                    transmit_leads(config, codebook, telemetry, stream, input, feed)
                }));
            }
            (source, streams.len())
        }
        FleetSource::Frames(traffic) => {
            let (feed, source) = slice_feed(traffic.len())?;
            for (stream, frames) in traffic.iter().enumerate() {
                let feed = feed.clone();
                producers.push(Box::new(move || {
                    for bytes in frames {
                        if feed.send(WireFrame { stream, bytes: bytes.clone() }).is_err() {
                            break; // engine hung up (failure path)
                        }
                    }
                    Ok(())
                }));
            }
            (source, traffic.len())
        }
    };

    let workers = fleet.effective_workers();
    let packet_period = Duration::from_secs_f64(config.packet_len() as f64 / 256.0);

    let cache: SpectralCache<T> = SpectralCache::new();
    let stalls = AtomicU64::new(0);

    let (job_txs, job_rxs): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| crossbeam::channel::bounded::<WireJob>(fleet.channel_capacity))
        .unzip();
    // Result buffering scales with the expected fleet width; a source
    // that never announced one (min_streams == 0) gets a worker-scaled
    // floor instead.
    let res_capacity = fleet.channel_capacity * min_streams.max(workers).max(1);
    let (res_tx, res_rx) = crossbeam::channel::bounded::<WireMsg<T>>(res_capacity);

    let mut summaries = vec![StreamSummary::default(); min_streams];
    let mut worker_packets = vec![0usize; workers];
    let mut packets_decoded = 0usize;
    let mut total_decode = Duration::ZERO;
    let mut max_decode = Duration::ZERO;
    let mut faults = FaultStats::default();
    let mut quarantine = QuarantineRing::default();
    let mut failure: Option<PipelineError> = None;
    let started = Instant::now();

    let mut worker_panicked = false;
    std::thread::scope(|scope| {
        let producers: Vec<_> = producers.into_iter().map(|p| scope.spawn(p)).collect();

        // --- Decode workers: a queue in front of a core -----------------
        let mut worker_handles = Vec::with_capacity(workers);
        for (worker, jobs) in job_rxs.into_iter().enumerate() {
            let (results, telemetry) = (res_tx.clone(), telemetry.clone());
            let mut core =
                WireCore::new(config, Arc::clone(&codebook), policy, fleet, &cache, telemetry.clone());
            worker_handles.push(scope.spawn(move || {
                let now = || if telemetry.is_enabled() { telemetry.now_ns() } else { 0 };
                let (mut jobs, mut out) = (jobs.iter(), Vec::new());
                'run: loop {
                    let job = jobs.next();
                    let pushed = match &job {
                        Some((captured_ns, WireFrame { stream, bytes })) => {
                            // Queue wait: arrival stamp → dequeue, before
                            // any validation work is charged to this frame.
                            let waited = now().saturating_sub(*captured_ns);
                            telemetry.record_stage_ns(Stage::QueueWait, waited);
                            core.push(*stream, bytes, *captured_ns, &mut out)
                        }
                        // End of input: a window only the flush exposes
                        // is captured "now" (zero queue blame, honest e2e).
                        None => core.flush(now(), &mut out),
                    };
                    for emission in out.drain(..) {
                        if emission.outcome == PacketOutcome::Decoded {
                            telemetry.record_worker_packet(worker);
                        }
                        let emitted_ns = now();
                        if results.send(WireMsg::Emit { worker, emitted_ns, emission }).is_err() {
                            break 'run;
                        }
                    }
                    match pushed {
                        Err(e) => {
                            let _ = results.send(WireMsg::Failed(e));
                            break;
                        }
                        Ok(()) if job.is_none() => break,
                        Ok(()) => {}
                    }
                }
                (core.faults(), core.into_quarantine())
            }));
        }

        // --- Dispatcher: drain the frame source onto worker queues -----
        {
            let results = res_tx.clone();
            let stalls = &stalls;
            let telemetry = telemetry.clone();
            // The dispatcher owns the job senders: when the source closes
            // (every feed sender dropped) it returns, the queues
            // disconnect, and the workers flush their cores.
            scope.spawn(move || {
                for WireFrame { stream, bytes } in source.iter() {
                    // Write-before-decode: the frame reaches durable
                    // storage before any worker interprets a byte of it,
                    // so even traffic the pipeline will reject survives
                    // for post-mortem replay.
                    // The sink's mutex is the caller's: one poisoned by a
                    // panic elsewhere is a sink that cannot persist, not a
                    // reason to take the engine down with it.
                    if let Some(sink) = sink {
                        let appended = match sink.lock() {
                            Ok(mut sink) => {
                                sink.append_frame(stream, &bytes).map_err(|e| e.to_string())
                            }
                            Err(_) => Err("poisoned".into()),
                        };
                        if let Err(cause) = appended {
                            let _ = results.send(WireMsg::Failed(PipelineError::Fleet {
                                stream: Some(stream),
                                cause: format!("archive sink: {cause}"),
                            }));
                            return;
                        }
                    }
                    // Arrival stamp: "capture" is the moment the frame
                    // came off the link.
                    let captured_ns =
                        if telemetry.is_enabled() { telemetry.now_ns() } else { 0 };
                    // Stream affinity: one worker owns a stream's lanes
                    // for the whole run, so reassembly state never moves.
                    let jobs = &job_txs[stream % workers];
                    match jobs.try_send((captured_ns, WireFrame { stream, bytes })) {
                        Ok(()) => {}
                        Err(crossbeam::channel::TrySendError::Full(job)) => {
                            stalls.fetch_add(1, Ordering::Relaxed);
                            if jobs.send(job).is_err() {
                                return;
                            }
                        }
                        Err(crossbeam::channel::TrySendError::Disconnected(_)) => return,
                    }
                }
            });
        }
        drop(res_tx);

        // --- Collector ---------------------------------------------------
        // A stream's emissions all come from its one worker (`stream %
        // workers`) over the one FIFO results channel, so they arrive in
        // emission order; `next_seq` only numbers them (wire sequence
        // numbers have gaps where frames were lost).
        let mut next_seq = vec![0u64; min_streams];
        for msg in res_rx.iter() {
            let (worker, emitted_ns, emission) = match msg {
                WireMsg::Emit { worker, emitted_ns, emission } => (worker, emitted_ns, emission),
                WireMsg::Failed(e) => {
                    failure = Some(e);
                    break;
                }
            };
            let Emission { stream, channel, outcome, captured_ns, packet } = emission;
            let _span = telemetry.span(Stage::Reassembly);
            worker_packets[worker] += 1;
            // A streaming source can introduce streams mid-run; collector
            // state grows on first sight.
            if stream >= next_seq.len() {
                next_seq.resize(stream + 1, 0);
                summaries.resize_with(stream + 1, StreamSummary::default);
            }
            let seq = next_seq[stream];
            next_seq[stream] += 1;
            let summary = &mut summaries[stream];
            summary.packets += 1;
            summary.total_decode_time += packet.solve_time;
            summary.max_decode_time = summary.max_decode_time.max(packet.solve_time);
            summary.total_iterations += packet.iterations as u64;
            packets_decoded += 1;
            total_decode += packet.solve_time;
            max_decode = max_decode.max(packet.solve_time);
            let mut e2e = None;
            if telemetry.is_enabled() {
                telemetry.record_stage_ns(
                    Stage::EmitDeliver,
                    telemetry.now_ns().saturating_sub(emitted_ns),
                );
                let label = u32::try_from(stream).unwrap_or(u32::MAX);
                e2e = telemetry
                    .record_emit(&TraceContext::new(label, channel, seq, captured_ns))
                    .map(|rec| Duration::from_nanos(rec.e2e_ns));
            }
            on_packet(&FleetPacket { stream, channel, outcome, e2e, packet });
        }
        // Wake any worker blocked on a full result queue so the
        // disconnect cascade can finish before we join.
        drop(res_rx);
        for handle in worker_handles {
            match handle.join() {
                Ok((counts, ring)) => {
                    faults += counts;
                    for record in ring.into_records() {
                        quarantine.push(record);
                    }
                }
                Err(_) => worker_panicked = true,
            }
        }
        // The workers are gone, so the dispatcher has hung up (or is about
        // to, on its next frame) and no producer can stay blocked.
        for (stream, producer) in producers.into_iter().enumerate() {
            if let Err(e) = producer.join().expect("producer thread panicked") {
                failure.get_or_insert(PipelineError::Fleet {
                    stream: Some(stream),
                    cause: e.to_string(),
                });
            }
        }
    });

    if worker_panicked {
        return Err(PipelineError::Fleet {
            stream: None,
            cause: "worker panicked outside supervision".into(),
        });
    }
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(FleetReport {
        streams: summaries,
        workers,
        worker_packets,
        packets_decoded,
        backpressure_stalls: stalls.into_inner(),
        spectral_misses: cache.misses(),
        spectral_hits: cache.hits(),
        packet_period,
        wall_time: started.elapsed(),
        total_decode_time: total_decode,
        max_decode_time: max_decode,
        faults,
        quarantine: quarantine.into_records(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::uniform_codebook;
    use crate::ingest::ConcealmentReason;

    fn ecg_like(npackets: usize, n: usize, phase: f64) -> Vec<i16> {
        (0..npackets * n)
            .map(|i| {
                let t = (i % n) as f64 / n as f64;
                (700.0 * (-((t - 0.4 + phase) * 25.0).powi(2)).exp() + 50.0 * (t * 10.0).sin())
                    as i16
            })
            .collect()
    }

    /// One default-policy run on the paper's configuration, no telemetry,
    /// no sink.
    fn run<T: Real>(
        source: FleetSource<'_>,
        fleet: &FleetConfig,
        on_packet: impl FnMut(&FleetPacket<T>) + Send,
    ) -> Result<FleetReport, PipelineError> {
        run_fleet(
            &SystemConfig::paper_default(),
            Arc::new(uniform_codebook(512).unwrap()),
            source,
            SolverPolicy::default(),
            fleet,
            &TelemetryRegistry::disabled(),
            None,
            on_packet,
        )
    }

    #[test]
    fn empty_fleet_rejected() {
        for source in [FleetSource::Leads(&[]), FleetSource::Frames(&[])] {
            let err = run::<f64>(source, &FleetConfig::default(), |_| {}).unwrap_err();
            assert!(matches!(err, PipelineError::InvalidConfig(_)));
        }
    }

    #[test]
    fn zero_lead_stream_rejected() {
        let streams = [FleetStream { leads: vec![] }];
        let err = run::<f64>(FleetSource::Leads(&streams), &FleetConfig::default(), |_| {})
            .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfig(_)));
    }

    #[test]
    fn zero_capacity_rejected() {
        let samples = ecg_like(1, 512, 0.0);
        let streams = [FleetStream::single(&samples)];
        let fleet = FleetConfig { channel_capacity: 0, ..FleetConfig::default() };
        let err = run::<f64>(FleetSource::Leads(&streams), &fleet, |_| {}).unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfig(_)));
    }

    #[test]
    fn effective_workers_defaults_to_host_parallelism() {
        let auto = FleetConfig::default();
        assert!(auto.effective_workers() >= 1);
        let fixed = FleetConfig { workers: 3, ..FleetConfig::default() };
        assert_eq!(fixed.effective_workers(), 3);
    }

    #[test]
    fn small_fleet_decodes_and_shares_spectral_setup() {
        let s0 = ecg_like(2, 512, 0.0);
        let s1 = ecg_like(2, 512, 0.05);
        let streams = [FleetStream::single(&s0), FleetStream::single(&s1)];
        let fleet = FleetConfig { workers: 2, ..FleetConfig::default() };
        let mut seen: Vec<(usize, u64)> = Vec::new();
        let report = run::<f32>(FleetSource::Leads(&streams), &fleet, |p| {
            seen.push((p.stream, p.packet.index))
        })
        .unwrap();
        assert_eq!(report.packets_decoded, 4);
        assert_eq!(report.streams[0].packets, 2);
        assert_eq!(report.streams[1].packets, 2);
        // Identical configurations must share one spectral computation.
        assert_eq!(report.spectral_misses, 1);
        assert_eq!(report.spectral_hits, 1);
        // Per-stream delivery is in order.
        for stream in 0..2 {
            let indices: Vec<u64> =
                seen.iter().filter(|(s, _)| *s == stream).map(|&(_, i)| i).collect();
            assert_eq!(indices, vec![0, 1]);
        }
    }

    /// Encodes one stream into wire frames, frame-major and lead-minor.
    fn wire_frames(leads: &[&[i16]]) -> Vec<Vec<u8>> {
        let (feed, frames) = crossbeam::channel::unbounded();
        transmit_leads(
            &SystemConfig::paper_default(),
            Arc::new(uniform_codebook(512).unwrap()),
            TelemetryRegistry::disabled(),
            0,
            &FleetStream { leads: leads.to_vec() },
            feed,
        )
        .unwrap();
        frames.iter().map(|frame| frame.bytes).collect()
    }

    #[test]
    fn clean_wire_traffic_all_decodes() {
        let traffic = vec![wire_frames(&[&ecg_like(3, 512, 0.0)])];
        let fleet = FleetConfig { workers: 1, ..FleetConfig::default() };
        let mut outcomes = Vec::new();
        let report =
            run::<f32>(FleetSource::Frames(&traffic), &fleet, |p| outcomes.push(p.outcome))
                .unwrap();
        assert_eq!(report.packets_decoded, 3);
        assert!(outcomes.iter().all(|&o| o == PacketOutcome::Decoded));
        assert_eq!(report.faults.frames, 3);
        assert_eq!(report.faults.decoded, 3);
        assert_eq!(report.faults.delivered(), 3);
        assert_eq!(report.faults.frame_rejects, 0);
        assert!(report.quarantine.is_empty());
    }

    #[test]
    fn dropped_frame_is_concealed_not_fatal() {
        let (lead0, lead1) = (ecg_like(4, 512, 0.0), ecg_like(4, 512, 0.01));
        let mut frames = wire_frames(&[&lead0, &lead1]);
        frames.remove(2); // lose lead 0's second window
        let traffic = vec![frames];
        let fleet = FleetConfig { workers: 1, ..FleetConfig::default() };
        let mut seen = Vec::new();
        let mut sibling = Vec::new();
        let report = run::<f32>(FleetSource::Frames(&traffic), &fleet, |p| match p.channel {
            0 => seen.push((p.packet.index, p.outcome, p.packet.concealed)),
            _ => sibling.push(p.outcome),
        })
        .unwrap();
        // The loss is isolated to its lane: lead 1 decodes every window.
        assert_eq!(sibling, [PacketOutcome::Decoded; 4]);
        // All four slots are emitted, in wire order, with the gap flagged.
        assert_eq!(seen.len(), 4);
        assert_eq!(
            seen.iter().map(|&(i, _, _)| i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(seen[1].1, PacketOutcome::Concealed(ConcealmentReason::Loss));
        assert!(seen[1].2, "concealed samples must be flagged");
        assert_eq!(report.faults.concealed_loss, 1);
        // The post-loss deltas conceal until the next reference packet;
        // at the paper's reference interval all remaining windows in this
        // short run are deltas, so they ride out as desync concealments.
        assert_eq!(
            report.faults.delivered(),
            report.faults.decoded + report.faults.concealed()
        );
    }

    #[test]
    fn corrupt_frame_is_rejected_at_ingest() {
        let mut frames = wire_frames(&[&ecg_like(2, 512, 0.0)]);
        let mid = frames[1].len() / 2;
        frames[1][mid] ^= 0xFF; // burst damage in the payload
        let traffic = vec![frames];
        let fleet = FleetConfig { workers: 1, ..FleetConfig::default() };
        let report = run::<f32>(FleetSource::Frames(&traffic), &fleet, |_| {}).unwrap();
        assert_eq!(report.faults.frame_rejects, 1);
        assert_eq!(report.quarantine.len(), 1);
        assert!(report.quarantine[0].cause.contains("CRC"));
        // The rejected frame's slot is a tail gap (undetectable), so only
        // the first window is emitted.
        assert_eq!(report.faults.decoded, 1);
    }

    #[test]
    fn streaming_source_matches_slice_path() {
        let traffic =
            vec![wire_frames(&[&ecg_like(3, 512, 0.0)]), wire_frames(&[&ecg_like(3, 512, 0.05)])];
        let fleet = FleetConfig { workers: 2, ..FleetConfig::default() };

        let mut slice_seen: Vec<(usize, u64)> = Vec::new();
        run::<f32>(FleetSource::Frames(&traffic), &fleet, |p| {
            slice_seen.push((p.stream, p.packet.index))
        })
        .unwrap();

        // Stream 1 only starts sending after stream 0 finishes: the
        // engine must grow collector state for a stream it has never
        // seen, mid-run, without a fleet-width announcement.
        let (tx, rx) = crossbeam::channel::bounded::<WireFrame>(4);
        let mut stream_seen: Vec<(usize, u64)> = Vec::new();
        let report = std::thread::scope(|scope| {
            let frames = &traffic;
            scope.spawn(move || {
                for (stream, stream_frames) in frames.iter().enumerate() {
                    for bytes in stream_frames {
                        tx.send(WireFrame { stream, bytes: bytes.clone() }).unwrap();
                    }
                }
            });
            run::<f32>(FleetSource::Channel(rx), &fleet, |p| {
                stream_seen.push((p.stream, p.packet.index))
            })
        })
        .unwrap();

        assert_eq!(report.packets_decoded, 6);
        assert_eq!(report.streams.len(), 2);
        assert_eq!(report.faults.frames, 6);
        assert_eq!(report.faults.decoded, 6);
        for stream in 0..2 {
            let order = |seen: &[(usize, u64)]| {
                seen.iter().filter(|(s, _)| *s == stream).map(|&(_, i)| i).collect::<Vec<_>>()
            };
            assert_eq!(order(&stream_seen), order(&slice_seen), "stream {stream}");
        }
    }

    #[test]
    fn injected_panic_is_supervised() {
        let traffic = vec![wire_frames(&[&ecg_like(3, 512, 0.0)])];
        let fleet = FleetConfig {
            workers: 1,
            chaos_panic: Some((0, 1)),
            ..FleetConfig::default()
        };
        let mut outcomes = Vec::new();
        let report =
            run::<f32>(FleetSource::Frames(&traffic), &fleet, |p| outcomes.push(p.outcome))
                .unwrap();
        assert_eq!(report.faults.worker_restarts, 1);
        assert_eq!(report.faults.quarantined, 1);
        assert_eq!(outcomes.len(), 3, "every slot still emitted");
        assert_eq!(outcomes[1], PacketOutcome::Quarantined);
        assert_eq!(report.quarantine.len(), 1);
        assert!(report.quarantine[0].cause.contains("panic"));
        assert_eq!(report.quarantine[0].seq, Some(1));
    }
}
