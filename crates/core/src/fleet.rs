//! Fleet-scale decoding: many patient streams fanned over a worker pool.
//!
//! The paper's coordinator (§IV-B1) is two threads and a three-packet
//! buffer: one receives and decodes, the other displays. A monitoring
//! *service* — a ward server or a telehealth backend — decodes many such
//! patients at once, each with the clinical norm of several leads.
//! [`run_fleet`] is that service, and it has exactly one path: frames come
//! off a link, are decoded, and are delivered. Its [`FleetSource`] — raw
//! leads, materialized traffic or a live channel — only *produces*
//! [`WireFrame`]s, and two hops carry them:
//!
//! * **The calling thread** walks the source: it encodes raw leads (the
//!   mote's role), replays materialized traffic or receives from the
//!   channel. It appends each frame to the optional [`FrameSink`]
//!   (write-before-decode), stamps its arrival and hands it to a worker by
//!   *stream affinity* (`worker = stream mod M`), so a stream's frames all
//!   visit one worker, in order.
//! * **M decode workers** each own a bounded input queue (the paper's
//!   [`SHARED_BUFFER_PACKETS`] by default) and one [`WireCore`]: a worker
//!   pushes each frame into its core and delivers the windows it releases
//!   itself, calling `on_packet` under the one lock all workers share. A
//!   stream's windows all come from its one worker, so each stream is
//!   observed in its wire order. Wire damage and a poisoned decoder become
//!   [`PacketOutcome`]s and [`FleetReport::faults`] counts, merged over
//!   the workers at join, never run-ending failures.
//! * **Backpressure** is explicit: the caller first `try_send`s; a full
//!   queue counts one stall before the blocking send.
//! * **Shutdown**: when the source ends, the caller drops the queues and
//!   the workers flush their cores. A sink that cannot persist (seen by
//!   the caller) or a decoder that cannot be constructed (seen by a
//!   worker) is recorded as the run's failure, after which no window is
//!   delivered: a worker that sees it stops and drops its queue, so the
//!   caller's next send fails, it stops draining, and dropping the source
//!   wakes whatever feeds it. A consumer that panics poisons the lock to
//!   the same effect; its panic is re-raised on the calling thread once
//!   every worker has joined.
//!
//! With one stream and one worker this is the paper's coordinator: the
//! caller is the mote, the worker decodes and displays, and a 3-packet
//! queue sits between them.
//!
//! Decoders share their power-iteration spectral setup through a
//! [`SpectralCache`]. Every lane decodes independently of every other, so
//! per-stream output is bit-exact at any worker count.

use crate::config::SystemConfig;
use crate::decoder::{DecodedPacket, SolverPolicy};
use crate::error::PipelineError;
use crate::ingest::{FaultStats, PacketOutcome, QuarantineRecord, QuarantineRing, DEFAULT_REORDER_WINDOW};
use crate::multichannel::MultiChannelEncoder;
use crate::wire::{Emission, WireCore};
use crossbeam::channel::{Receiver, Sender, TrySendError};
use cs_codec::Codebook;
use cs_dsp::Real;
use cs_recovery::SpectralCache;
use cs_telemetry::{Stage, TelemetryRegistry, TraceContext};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Capacity of the paper's shared buffer in packets (§IV-B1): 6 s of ECG
/// at 2 s per packet — 2 s being written, 2 s being read, 2 s of display
/// latency. The default capacity of each worker's queue.
pub const SHARED_BUFFER_PACKETS: usize = 3;

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

/// One decoded packet as delivered to `on_packet`, in per-stream order.
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
    /// calling thread, whatever the source — to delivery by its worker.
    /// `None` when the run's [`TelemetryRegistry`] is disabled: stamping
    /// is gated on the registry so the fast path stays one relaxed load.
    pub e2e: Option<Duration>,
    /// The reconstruction and its solver statistics.
    pub packet: DecodedPacket<T>,
}

/// Outcome of a fleet run: what only the engine knows. Distributions —
/// solve time, end-to-end latency, deadline misses — live in the run's
/// [`TelemetryRegistry`], and each [`FleetPacket`] carries its own solve
/// statistics for a consumer that wants more.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Windows delivered per stream (all leads), indexed by stream.
    pub stream_packets: Vec<usize>,
    /// Worker threads used.
    pub workers: usize,
    /// Packets decoded per worker (stream-affinity load picture).
    pub worker_packets: Vec<usize>,
    /// Total packets delivered across all streams.
    pub packets_decoded: usize,
    /// Times the caller found a worker's queue full and had to block.
    pub backpressure_stalls: u64,
    /// Distinct spectral configurations computed (cache misses).
    pub spectral_misses: u64,
    /// Decoder constructions served from the shared spectral cache.
    pub spectral_hits: u64,
    /// End-to-end wall-clock for the whole run.
    pub wall_time: Duration,
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
    /// to dense slots; per-stream delivery state grows with the highest
    /// index seen.
    pub stream: usize,
    /// The frame bytes as they came off the link, damage included.
    pub bytes: Vec<u8>,
}

/// Where a fleet run's frames come from. Every source only *produces*
/// [`WireFrame`]s into the one supervised engine — see the module docs.
pub enum FleetSource<'a> {
    /// Raw multi-lead samples, one [`FleetStream`] per patient. The
    /// calling thread plays every stream's mote: it encodes each
    /// synchronized frame and transmits its wire frames, frame-major and
    /// lead-minor, round-robin over the streams.
    Leads(&'a [FleetStream<'a>]),
    /// Materialized wire traffic (a lossy-link capture, an archive
    /// replay): `traffic[stream]` is that stream's arrival sequence of raw
    /// frames, damage included, replayed round-robin over the streams.
    Frames(&'a [Vec<Vec<u8>>]),
    /// A live transport: frames in arrival order, for a socket ingest
    /// layer that feeds long-lived sessions without buffering them whole.
    /// Frames for one stream must be sent in that stream's arrival order
    /// (interleaving across streams is arbitrary), and streams may appear
    /// mid-run. The run ends — flushing every staged reassembly tail —
    /// when all senders have been dropped, so a graceful drain is "stop
    /// feeding, drop the sender, join the engine".
    Channel(Receiver<WireFrame>),
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
    source: Receiver<WireFrame>,
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

/// Decodes many multi-lead streams concurrently over a supervised worker
/// pool, surviving corruption, loss, duplication, reordering and worker
/// panics on the way in.
///
/// Every window that can be attributed to a (stream, lane, sequence) slot
/// is emitted exactly once with a [`PacketOutcome`] explaining how it was
/// produced. `on_packet` runs on the worker that owns the stream, one call
/// at a time across the pool, and observes each stream in arrival order
/// (frame-major, lead-minor on clean traffic). Unattributable frames
/// (framing/CRC rejects) are counted in [`FleetReport::faults`] and
/// quarantined.
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
///
/// # Panics
///
/// Re-raises a panic of `on_packet` once every worker has stopped; no
/// window is delivered after it.
#[allow(clippy::too_many_arguments)]
pub fn run_fleet<T, F>(
    config: &SystemConfig,
    codebook: Arc<Codebook>,
    source: FleetSource<'_>,
    policy: SolverPolicy<T>,
    fleet: &FleetConfig,
    telemetry: &TelemetryRegistry,
    sink: Option<&Mutex<dyn FrameSink>>,
    on_packet: F,
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
    // `min_streams` pre-sizes the per-stream delivery state (and the
    // report's `stream_packets`); a channel announces no width, and
    // indices at or above it grow the state on first sight.
    let min_streams = match &source {
        FleetSource::Channel(_) => 0,
        FleetSource::Leads(streams) if streams.iter().any(|s| s.leads.is_empty()) => {
            return Err(PipelineError::InvalidConfig("fleet stream with zero leads".into()))
        }
        FleetSource::Leads(streams) if !streams.is_empty() => streams.len(),
        FleetSource::Frames(traffic) if !traffic.is_empty() => traffic.len(),
        _ => return Err(PipelineError::InvalidConfig("empty fleet".into())),
    };

    let workers = fleet.effective_workers();
    let cache: SpectralCache<T> = SpectralCache::new();
    let delivery = Mutex::new(Delivery {
        on_packet,
        stream_packets: vec![0; min_streams],
        failure: None,
    });
    let (jobs, queues): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| crossbeam::channel::bounded::<WireJob>(fleet.channel_capacity))
        .unzip();
    let started = Instant::now();

    let (stalls, joined) = std::thread::scope(|scope| {
        let handles: Vec<_> = queues
            .into_iter()
            .enumerate()
            .map(|(worker, queue)| {
                let core =
                    WireCore::new(config, Arc::clone(&codebook), policy, fleet, &cache, telemetry.clone());
                let (delivery, telemetry) = (&delivery, telemetry.clone());
                scope.spawn(move || decode_and_deliver(worker, queue, core, delivery, &telemetry))
            })
            .collect();
        let mut dispatch = Dispatch { jobs, sink, telemetry, stalls: 0 };
        if let Err(e) = drain(source, &mut dispatch, config, &codebook) {
            // A poisoned lock: a consumer's panic already ends the run.
            if let Ok(mut delivery) = delivery.lock() {
                delivery.failure.get_or_insert(e);
            }
        }
        // Dropping the senders disconnects the queues: the workers flush
        // their cores and return.
        let stalls = dispatch.stalls;
        drop(dispatch);
        (stalls, handles.into_iter().map(|handle| handle.join()).collect::<Vec<_>>())
    });

    let mut worker_packets = Vec::with_capacity(workers);
    let mut faults = FaultStats::default();
    let mut quarantine = QuarantineRing::default();
    for joined in joined {
        let (counts, ring, delivered) = joined.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        worker_packets.push(delivered);
        faults += counts;
        for record in ring.into_records() {
            quarantine.push(record);
        }
    }
    // Every worker joined without a panic, so nothing poisoned the lock.
    let delivery = delivery.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(e) = delivery.failure {
        return Err(e);
    }
    Ok(FleetReport {
        packets_decoded: delivery.stream_packets.iter().sum(),
        stream_packets: delivery.stream_packets,
        workers,
        worker_packets,
        backpressure_stalls: stalls,
        spectral_misses: cache.misses(),
        spectral_hits: cache.hits(),
        wall_time: started.elapsed(),
        faults,
        quarantine: quarantine.into_records(),
    })
}

/// Everything delivery touches, behind the one lock the workers share:
/// the consumer, per-stream window counts, and the run's first
/// failure — once one is recorded, nothing more is delivered.
struct Delivery<F> {
    on_packet: F,
    /// Windows delivered per stream, which also numbers a stream's windows
    /// for its trace context: wire sequence numbers have gaps where frames
    /// were lost.
    stream_packets: Vec<usize>,
    failure: Option<PipelineError>,
}

impl<F> Delivery<F> {
    /// Accounts for one window and hands it to the consumer. `emitted_ns`
    /// is when its worker had it ready, before waiting for this lock.
    fn deliver<T: Real>(&mut self, emission: Emission<T>, emitted_ns: u64, telemetry: &TelemetryRegistry)
    where
        F: FnMut(&FleetPacket<T>),
    {
        let Emission { stream, channel, outcome, captured_ns, packet } = emission;
        // A channel source can introduce streams mid-run.
        if stream >= self.stream_packets.len() {
            self.stream_packets.resize(stream + 1, 0);
        }
        let seq = self.stream_packets[stream] as u64;
        self.stream_packets[stream] += 1;
        let mut e2e = None;
        if telemetry.is_enabled() {
            telemetry.record_stage_ns(Stage::EmitDeliver, telemetry.now_ns().saturating_sub(emitted_ns));
            let label = u32::try_from(stream).unwrap_or(u32::MAX);
            e2e = telemetry
                .record_emit(&TraceContext::new(label, channel, seq, captured_ns))
                .map(|rec| Duration::from_nanos(rec.e2e_ns));
        }
        (self.on_packet)(&FleetPacket { stream, channel, outcome, e2e, packet });
    }
}

/// One decode worker: pushes each queued frame into its core and delivers
/// what the core releases, flushing the core when the queue closes. It
/// stops early once delivery has ended — a recorded failure, or a lock a
/// panicking consumer poisoned — and dropping its queue then stops the
/// caller. Returns the core's accounting and the windows it delivered.
fn decode_and_deliver<T, F>(
    worker: usize,
    queue: Receiver<WireJob>,
    mut core: WireCore<'_, T>,
    delivery: &Mutex<Delivery<F>>,
    telemetry: &TelemetryRegistry,
) -> (FaultStats, QuarantineRing, usize)
where
    T: Real,
    F: FnMut(&FleetPacket<T>),
{
    let now = || if telemetry.is_enabled() { telemetry.now_ns() } else { 0 };
    let (mut jobs, mut out, mut delivered) = (queue.iter(), Vec::new(), 0);
    loop {
        let job = jobs.next();
        let pushed = match &job {
            Some((captured_ns, WireFrame { stream, bytes })) => {
                // Queue wait: arrival stamp → dequeue, before any
                // validation work is charged to this frame.
                telemetry.record_stage_ns(Stage::QueueWait, now().saturating_sub(*captured_ns));
                core.push(*stream, bytes, *captured_ns, &mut out)
            }
            // End of input: a window only the flush exposes is captured
            // "now" (zero queue blame, honest e2e).
            None => core.flush(now(), &mut out),
        };
        let emitted_ns = now();
        // Locked even with nothing to deliver, so that a failure recorded
        // elsewhere stops this worker before its next frame.
        let Ok(mut delivery) = delivery.lock() else { break };
        if delivery.failure.is_some() {
            break;
        }
        for emission in out.drain(..) {
            if emission.outcome == PacketOutcome::Decoded {
                telemetry.record_worker_packet(worker);
            }
            delivery.deliver(emission, emitted_ns, telemetry);
            delivered += 1;
        }
        match pushed {
            Err(e) => {
                delivery.failure = Some(e);
                break;
            }
            Ok(()) if job.is_none() => break,
            Ok(()) => {}
        }
    }
    (core.faults(), core.into_quarantine(), delivered)
}

/// The calling thread's hop: archive, stamp and route one frame at a time.
struct Dispatch<'a> {
    /// One queue per worker, indexed by `stream % workers`.
    jobs: Vec<Sender<WireJob>>,
    sink: Option<&'a Mutex<dyn FrameSink>>,
    telemetry: &'a TelemetryRegistry,
    stalls: u64,
}

impl Dispatch<'_> {
    /// Hands one frame to its stream's worker. `Ok(false)` when that
    /// worker has stopped, which ends the run's intake.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Fleet`] when the sink cannot persist the frame.
    fn send(&mut self, stream: usize, bytes: Vec<u8>) -> Result<bool, PipelineError> {
        // Write-before-decode: the frame reaches durable storage before
        // any worker interprets a byte of it, so even traffic the pipeline
        // will reject survives for post-mortem replay. The sink's mutex is
        // the caller's: one poisoned by a panic elsewhere is a sink that
        // cannot persist, not a reason to take the engine down with it.
        if let Some(sink) = self.sink {
            let appended = match sink.lock() {
                Ok(mut sink) => sink.append_frame(stream, &bytes).map_err(|e| e.to_string()),
                Err(_) => Err("poisoned".into()),
            };
            if let Err(cause) = appended {
                let cause = format!("archive sink: {cause}");
                return Err(PipelineError::Fleet { stream: Some(stream), cause });
            }
        }
        // Arrival stamp: "capture" is the moment the frame came off the
        // link.
        let captured_ns = if self.telemetry.is_enabled() { self.telemetry.now_ns() } else { 0 };
        // Stream affinity: one worker owns a stream's lanes for the whole
        // run, so reassembly state never moves.
        let jobs = &self.jobs[stream % self.jobs.len()];
        match jobs.try_send((captured_ns, WireFrame { stream, bytes })) {
            Ok(()) => Ok(true),
            Err(TrySendError::Full(job)) => {
                self.stalls += 1;
                Ok(jobs.send(job).is_ok())
            }
            Err(TrySendError::Disconnected(_)) => Ok(false),
        }
    }
}

/// Walks `source` on the calling thread, sending every frame it yields
/// until it ends or a worker stops.
///
/// # Errors
///
/// A sink failure, and an encoder that cannot be built or refuses a frame
/// ([`PipelineError::Fleet`], attributed to its stream).
fn drain(
    source: FleetSource<'_>,
    dispatch: &mut Dispatch<'_>,
    config: &SystemConfig,
    codebook: &Arc<Codebook>,
) -> Result<(), PipelineError> {
    let mote_error = |stream, e: PipelineError| PipelineError::Fleet { stream: Some(stream), cause: e.to_string() };
    match source {
        FleetSource::Leads(streams) => {
            let n = config.packet_len();
            let mut motes = Vec::with_capacity(streams.len());
            for (stream, input) in streams.iter().enumerate() {
                let mut encoder = MultiChannelEncoder::new(config, Arc::clone(codebook), input.leads.len())
                    .map_err(|e| mote_error(stream, e))?;
                encoder.set_telemetry(dispatch.telemetry.clone());
                motes.push((encoder, input.leads.iter().map(|lead| lead.len() / n).min().unwrap_or(0)));
            }
            let longest = motes.iter().map(|&(_, frames)| frames).max().unwrap_or(0);
            for frame in 0..longest {
                for (stream, (encoder, frames)) in motes.iter_mut().enumerate() {
                    if frame >= *frames {
                        continue;
                    }
                    let window: Vec<&[i16]> =
                        streams[stream].leads.iter().map(|lead| &lead[frame * n..(frame + 1) * n]).collect();
                    for packet in encoder.encode_frame(&window).map_err(|e| mote_error(stream, e))? {
                        if !dispatch.send(stream, packet.to_bytes())? {
                            return Ok(());
                        }
                    }
                }
            }
        }
        FleetSource::Frames(traffic) => {
            let longest = traffic.iter().map(Vec::len).max().unwrap_or(0);
            for at in 0..longest {
                for (stream, frames) in traffic.iter().enumerate() {
                    let Some(bytes) = frames.get(at) else { continue };
                    if !dispatch.send(stream, bytes.clone())? {
                        return Ok(());
                    }
                }
            }
        }
        // Receiving by value: returning early drops the receiver, which
        // wakes every sender blocked on a full feed.
        FleetSource::Channel(feed) => {
            for WireFrame { stream, bytes } in feed {
                if !dispatch.send(stream, bytes)? {
                    return Ok(());
                }
            }
        }
    }
    Ok(())
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
        assert_eq!(report.stream_packets, [2, 2]);
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
        let config = SystemConfig::paper_default();
        let codebook = Arc::new(uniform_codebook(512).unwrap());
        let mut encoder = MultiChannelEncoder::new(&config, codebook, leads.len()).unwrap();
        let n = config.packet_len();
        let frames = leads.iter().map(|lead| lead.len() / n).min().unwrap_or(0);
        (0..frames)
            .flat_map(|f| {
                let window: Vec<&[i16]> = leads.iter().map(|lead| &lead[f * n..(f + 1) * n]).collect();
                encoder.encode_frame(&window).unwrap()
            })
            .map(|packet| packet.to_bytes())
            .collect()
    }

    /// The paper's coordinator as one call: the caller encodes, one worker
    /// decodes and displays, and the 3-packet queue sits between them.
    fn paper_coordinator<T: Real>(
        samples: &[i16],
        on_packet: impl FnMut(&FleetPacket<T>) + Send,
    ) -> FleetReport {
        let streams = [FleetStream::single(samples)];
        let fleet = FleetConfig { workers: 1, ..FleetConfig::default() };
        run(FleetSource::Leads(&streams), &fleet, on_packet).unwrap()
    }

    #[test]
    fn streams_all_packets_through_threads() {
        let samples = ecg_like(6, 512, 0.0);
        let mut seen = Vec::new();
        let report = paper_coordinator::<f64>(&samples, |p| seen.push(p.packet.index));
        assert_eq!(report.packets_decoded, 6);
        assert_eq!(report.stream_packets, [6]);
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]); // in order
    }

    #[test]
    fn decoder_is_real_time_on_this_host() {
        // A release-mode claim tested loosely in debug: each 2 s packet
        // must decode in far less than 2 s even unoptimized.
        let period = Duration::from_secs(2); // N / 256 Hz
        let mut worst = Duration::ZERO;
        paper_coordinator::<f32>(&ecg_like(3, 512, 0.0), |p| worst = worst.max(p.packet.solve_time));
        assert!(worst <= period, "max decode {worst:?} exceeded period {period:?}");
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
        // engine must grow delivery state for a stream it has never
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
        assert_eq!(report.stream_packets, [3, 3]);
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
