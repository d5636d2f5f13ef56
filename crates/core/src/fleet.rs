//! Fleet-scale decoding: many patient streams fanned over a worker pool.
//!
//! [`run_streaming`](crate::stream::run_streaming) reproduces the paper's
//! single-patient coordinator (§IV-B1): one producer, one consumer, one
//! bounded 3-packet buffer. A monitoring *service* — a ward server or a
//! telehealth backend — decodes many such patients at once, each with the
//! clinical norm of several leads. [`run_fleet`] generalizes the streaming
//! pipeline to that setting:
//!
//! * **One producer thread per stream** plays the role of each patient's
//!   mote, encoding multi-lead frames into tagged
//!   [`ChannelPacket`]s.
//! * **M decode workers** each own a bounded input queue (the per-worker
//!   analogue of the paper's 3-packet shared buffer). Streams are assigned
//!   to workers by *stream affinity* (`worker = stream mod M`): a stream's
//!   differencing state and warm-start estimate are inherently sequential,
//!   so all of its packets must visit the same worker, in order.
//! * **A collector** on the calling thread reassembles results per stream
//!   by sequence number and emits them strictly in order, so downstream
//!   consumers observe exactly the per-patient order `run_streaming`
//!   would deliver.
//! * **Backpressure** is explicit: producers first `try_send`; a full
//!   queue counts one stall before the blocking send (radio buffering, in
//!   hardware terms).
//! * **Shutdown** is by channel-disconnect cascade. Any worker decode
//!   error (or a producer encode error) reaches the collector, which
//!   stops consuming; dropping the result channel wakes blocked workers,
//!   whose exits wake blocked producers. Worker panics are detected at
//!   join and surface as [`PipelineError::Fleet`].
//!
//! Two fleet-wide optimizations ride on this topology:
//!
//! * the power-iteration spectral setup (Lipschitz constant + deflation
//!   direction) is shared through a [`SpectralCache`], so only the first
//!   decoder of a configuration pays it;
//! * optional **warm starts** seed each packet's FISTA solve with the
//!   previous packet's coefficients (consecutive 2-second ECG windows are
//!   highly correlated), cutting iterations without moving the solution.
//!   With warm starts off the fleet is bit-exact with `run_streaming`.

use crate::config::SystemConfig;
use crate::decoder::{DecodeWorkspace, DecodedPacket, Decoder, SolverPolicy};
use crate::error::PipelineError;
use crate::ingest::{
    ConcealmentReason, FaultCounters, FaultStats, PacketOutcome, PushReject, QuarantineRecord,
    QuarantineRing, Reassembler, SequencedEvent, DEFAULT_REORDER_WINDOW,
};
use crate::multichannel::{ChannelPacket, MultiChannelEncoder};
use crate::packet::{parse_frame, EncodedPacket};
use crate::stream::SHARED_BUFFER_PACKETS;
use cs_codec::{Codebook, CodecError};
use cs_dsp::Real;
use cs_recovery::SpectralCache;
use cs_telemetry::{FaultKind, Stage, TelemetryRegistry, TraceContext};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// Seed each FISTA solve with the previous packet's coefficients.
    /// `false` (the default) keeps per-stream output bit-exact with
    /// [`run_streaming`](crate::stream::run_streaming).
    pub warm_start: bool,
    /// Reorder window per (stream, lane) for the wire-feed path: how many
    /// out-of-order frames to buffer before declaring the gap lost.
    pub reorder_window: usize,
    /// Per-solve FISTA iteration deadline for the wire-feed path. A solve
    /// that hits the budget is emitted best-effort (and counted as
    /// deadline-degraded) instead of stalling its lane. `None` leaves the
    /// solver policy's own cap in force.
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
            warm_start: false,
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
    /// How this window was produced. Always
    /// [`PacketOutcome::Decoded`] on the raw/encoded paths; the wire-feed
    /// path additionally emits concealed and quarantined windows.
    pub outcome: PacketOutcome,
    /// End-to-end latency from capture (packetize/arrival time at the
    /// producer) to in-order emission by the collector. `None` when the
    /// run's [`TelemetryRegistry`] is disabled — stamping is gated on the
    /// registry so the fast path stays a single relaxed load.
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
    /// Packets whose solve was seeded from the previous estimate.
    pub warm_started: usize,
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
    /// Times a producer found its worker's queue full and had to block.
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
    /// Ingest/supervision accounting. All zeros on the raw/encoded paths
    /// (they see no wire); populated by [`run_fleet_wire`].
    pub faults: FaultStats,
    /// Quarantined frames held for postmortem, oldest first (bounded;
    /// see [`QuarantineRing`]).
    pub quarantine: Vec<QuarantineRecord>,
}

impl FleetReport {
    /// Whether the fleet as a whole kept up with real time: the run
    /// finished within one packet period per *frame* (packets arrive
    /// concurrently across streams, so the budget is per frame, not per
    /// packet).
    pub fn real_time(&self) -> bool {
        let frames = self
            .streams
            .iter()
            .map(|s| s.packets)
            .max()
            .unwrap_or(0);
        self.wall_time <= self.packet_period * (frames as u32).max(1)
    }

    /// Mean FISTA iterations per packet across the fleet.
    pub fn mean_iterations(&self) -> f64 {
        if self.packets_decoded == 0 {
            return 0.0;
        }
        let total: u64 = self.streams.iter().map(|s| s.total_iterations).sum();
        total as f64 / self.packets_decoded as f64
    }
}

/// A unit of decode work: one tagged wire packet with its global
/// per-stream sequence number and capture timestamp (registry-monotonic
/// nanoseconds at packetize time; `0` when telemetry is disabled).
struct Job {
    stream: usize,
    seq: u64,
    captured_ns: u64,
    packet: ChannelPacket,
}

/// What workers (and erroring producers) send the collector. `captured_ns`
/// rides from the producer's stamp; `emitted_ns` is stamped when the
/// worker hands the window to the result channel, so the collector can
/// split reorder-buffer dwell from upstream time.
enum FleetMsg<T: Real> {
    Decoded {
        stream: usize,
        seq: u64,
        channel: u8,
        worker: usize,
        captured_ns: u64,
        emitted_ns: u64,
        packet: DecodedPacket<T>,
    },
    Failed {
        stream: Option<usize>,
        cause: String,
    },
}

/// What each producer thread feeds from.
enum Feed<'a> {
    /// Raw leads, encoded on the producer thread (the mote's role).
    Raw(&'a FleetStream<'a>),
    /// Pre-encoded wire packets, replayed as-is. This path exists so
    /// tests can inject corrupt or reordered traffic.
    Encoded(&'a [ChannelPacket]),
}

/// Decodes many multi-lead streams concurrently over a worker pool.
///
/// `on_packet` observes every decoded packet grouped per stream in
/// arrival order (frame-major, lead-minor) — the same order
/// [`run_streaming`](crate::stream::run_streaming) delivers for each
/// stream individually.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidConfig`] for an empty fleet or a
/// stream with no leads, and [`PipelineError::Fleet`] when any worker
/// fails or panics; construction and decode errors propagate with their
/// stream attribution.
pub fn run_fleet<T, F>(
    config: &SystemConfig,
    codebook: Arc<Codebook>,
    streams: &[FleetStream<'_>],
    policy: SolverPolicy<T>,
    fleet: &FleetConfig,
    on_packet: F,
) -> Result<FleetReport, PipelineError>
where
    T: Real,
    F: FnMut(&FleetPacket<T>) + Send,
{
    if streams.iter().any(|s| s.leads.is_empty()) {
        return Err(PipelineError::InvalidConfig(
            "fleet stream with zero leads".into(),
        ));
    }
    let feeds: Vec<Feed<'_>> = streams.iter().map(Feed::Raw).collect();
    fleet_engine(
        config,
        codebook,
        feeds,
        policy,
        fleet,
        &TelemetryRegistry::disabled(),
        on_packet,
    )
}

/// [`run_fleet`] recording live telemetry: every producer encode stage,
/// worker decode stage, FISTA solve, and collector reassembly lands in
/// `telemetry`'s histograms while the fleet runs, per-worker packet
/// counts accumulate, and each solve journals a trace labelled with its
/// `(stream, channel, seq)`. Pass [`TelemetryRegistry::disabled`] to get
/// exactly [`run_fleet`] (one atomic load per span).
///
/// # Errors
///
/// Same contract as [`run_fleet`].
pub fn run_fleet_observed<T, F>(
    config: &SystemConfig,
    codebook: Arc<Codebook>,
    streams: &[FleetStream<'_>],
    policy: SolverPolicy<T>,
    fleet: &FleetConfig,
    telemetry: &TelemetryRegistry,
    on_packet: F,
) -> Result<FleetReport, PipelineError>
where
    T: Real,
    F: FnMut(&FleetPacket<T>) + Send,
{
    if streams.iter().any(|s| s.leads.is_empty()) {
        return Err(PipelineError::InvalidConfig(
            "fleet stream with zero leads".into(),
        ));
    }
    let feeds: Vec<Feed<'_>> = streams.iter().map(Feed::Raw).collect();
    fleet_engine(config, codebook, feeds, policy, fleet, telemetry, on_packet)
}

/// Like [`run_fleet`], but replays pre-encoded wire traffic instead of
/// encoding raw samples. Packets are delivered to the decoder in slice
/// order, so corrupting or dropping an element exercises the fleet's
/// error path deterministically.
///
/// # Errors
///
/// Same contract as [`run_fleet`].
pub fn run_fleet_encoded<T, F>(
    config: &SystemConfig,
    codebook: Arc<Codebook>,
    streams: &[Vec<ChannelPacket>],
    policy: SolverPolicy<T>,
    fleet: &FleetConfig,
    on_packet: F,
) -> Result<FleetReport, PipelineError>
where
    T: Real,
    F: FnMut(&FleetPacket<T>) + Send,
{
    let feeds: Vec<Feed<'_>> = streams.iter().map(|s| Feed::Encoded(s)).collect();
    fleet_engine(
        config,
        codebook,
        feeds,
        policy,
        fleet,
        &TelemetryRegistry::disabled(),
        on_packet,
    )
}

fn fleet_engine<T, F>(
    config: &SystemConfig,
    codebook: Arc<Codebook>,
    feeds: Vec<Feed<'_>>,
    policy: SolverPolicy<T>,
    fleet: &FleetConfig,
    telemetry: &TelemetryRegistry,
    mut on_packet: F,
) -> Result<FleetReport, PipelineError>
where
    T: Real,
    F: FnMut(&FleetPacket<T>) + Send,
{
    if feeds.is_empty() {
        return Err(PipelineError::InvalidConfig("empty fleet".into()));
    }
    if fleet.channel_capacity == 0 {
        return Err(PipelineError::InvalidConfig(
            "fleet channel capacity must be positive".into(),
        ));
    }
    let workers = fleet.effective_workers();
    let n = config.packet_len();
    let packet_period = Duration::from_secs_f64(n as f64 / 256.0);
    let nstreams = feeds.len();

    let cache: SpectralCache<T> = SpectralCache::new();
    let stalls = AtomicU64::new(0);

    // One bounded queue per worker: this is where backpressure lives.
    let (job_txs, job_rxs): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| crossbeam::channel::bounded::<Job>(fleet.channel_capacity))
        .unzip();
    // Results fan in; sized so the collector lagging one frame across the
    // whole fleet does not stall workers.
    let (res_tx, res_rx) =
        crossbeam::channel::bounded::<FleetMsg<T>>(fleet.channel_capacity * nstreams);

    let mut summaries = vec![StreamSummary::default(); nstreams];
    let mut worker_packets = vec![0usize; workers];
    let mut packets_decoded = 0usize;
    let mut total_decode = Duration::ZERO;
    let mut max_decode = Duration::ZERO;
    let mut failure: Option<PipelineError> = None;
    let started = Instant::now();

    let mut worker_panicked = false;
    std::thread::scope(|scope| {
        // --- Decode workers -------------------------------------------
        let mut worker_handles = Vec::with_capacity(workers);
        for (worker_id, jobs) in job_rxs.into_iter().enumerate() {
            let results = res_tx.clone();
            let codebook = Arc::clone(&codebook);
            let cache = &cache;
            let telemetry = telemetry.clone();
            let fleet = *fleet;
            worker_handles.push(scope.spawn(move || {
                let mut lanes: HashMap<(usize, u8), Decoder<T>> = HashMap::new();
                // One decode workspace per worker, shared by every lane
                // this worker serves: after the first packet, the steady
                // state decodes without heap allocation (the outgoing
                // DecodedPacket is the one per-packet allocation left —
                // it crosses the channel by ownership).
                let mut scratch = DecodeWorkspace::for_config(config);
                let mut sibling_buf: Vec<T> = Vec::new();
                for Job { stream, seq, captured_ns, packet } in jobs.iter() {
                    // Queue wait: time from packetize to dequeue — pure
                    // queue pressure, as distinct from solver cost.
                    if telemetry.is_enabled() {
                        telemetry.record_stage_ns(
                            Stage::QueueWait,
                            telemetry.now_ns().saturating_sub(captured_ns),
                        );
                    }
                    // Cross-lead warm start: sibling leads observe the
                    // same heart over the same window, so lead 0's
                    // solution for this frame is the best available seed
                    // for the other leads (stream affinity guarantees it
                    // was decoded just before). The decoder's safeguard
                    // still rejects it if it does not beat a cold start.
                    let sibling = fleet.warm_start
                        && packet.channel > 0
                        && lanes
                            .get(&(stream, 0))
                            .and_then(|d| d.last_estimate())
                            .map(|est| {
                                sibling_buf.clear();
                                sibling_buf.extend_from_slice(est);
                            })
                            .is_some();
                    let decoder = match lanes.entry((stream, packet.channel)) {
                        Entry::Occupied(e) => e.into_mut(),
                        Entry::Vacant(v) => {
                            match Decoder::with_cache(
                                config,
                                Arc::clone(&codebook),
                                policy,
                                cache,
                            ) {
                                Ok(mut d) => {
                                    d.set_warm_start(fleet.warm_start);
                                    d.set_telemetry(telemetry.clone());
                                    d.set_telemetry_labels(
                                        u32::try_from(stream).unwrap_or(u32::MAX),
                                        packet.channel,
                                    );
                                    v.insert(d)
                                }
                                Err(e) => {
                                    let _ = results.send(FleetMsg::Failed {
                                        stream: Some(stream),
                                        cause: e.to_string(),
                                    });
                                    return;
                                }
                            }
                        }
                    };
                    if sibling {
                        decoder.seed(&sibling_buf);
                    }
                    let mut decoded = DecodedPacket::default();
                    match decoder.decode_packet_with(&packet.packet, &mut scratch, &mut decoded) {
                        Ok(()) => {
                            telemetry.record_worker_packet(worker_id);
                            let emitted_ns =
                                if telemetry.is_enabled() { telemetry.now_ns() } else { 0 };
                            let msg = FleetMsg::Decoded {
                                stream,
                                seq,
                                channel: packet.channel,
                                worker: worker_id,
                                captured_ns,
                                emitted_ns,
                                packet: decoded,
                            };
                            if results.send(msg).is_err() {
                                return; // collector hung up
                            }
                        }
                        Err(e) => {
                            let _ = results.send(FleetMsg::Failed {
                                stream: Some(stream),
                                cause: e.to_string(),
                            });
                            return;
                        }
                    }
                }
            }));
        }

        // --- Producers: one per stream --------------------------------
        for (stream, feed) in feeds.into_iter().enumerate() {
            let jobs = job_txs[stream % workers].clone();
            let results = res_tx.clone();
            let codebook = Arc::clone(&codebook);
            let stalls = &stalls;
            let telemetry = telemetry.clone();
            scope.spawn(move || {
                let send = |seq: u64, captured_ns: u64, packet: ChannelPacket| -> bool {
                    let mut job = Job { stream, seq, captured_ns, packet };
                    match jobs.try_send(job) {
                        Ok(()) => true,
                        Err(crossbeam::channel::TrySendError::Full(back)) => {
                            stalls.fetch_add(1, Ordering::Relaxed);
                            job = back;
                            jobs.send(job).is_ok()
                        }
                        Err(crossbeam::channel::TrySendError::Disconnected(_)) => false,
                    }
                };
                match feed {
                    Feed::Encoded(packets) => {
                        for (seq, packet) in packets.iter().enumerate() {
                            let captured_ns =
                                if telemetry.is_enabled() { telemetry.now_ns() } else { 0 };
                            if !send(seq as u64, captured_ns, packet.clone()) {
                                return;
                            }
                        }
                    }
                    Feed::Raw(input) => {
                        let channels = input.leads.len();
                        let mut encoder =
                            match MultiChannelEncoder::new(config, codebook, channels) {
                                Ok(mut enc) => {
                                    enc.set_telemetry(telemetry.clone());
                                    enc
                                }
                                Err(e) => {
                                    let _ = results.send(FleetMsg::Failed {
                                        stream: Some(stream),
                                        cause: e.to_string(),
                                    });
                                    return;
                                }
                            };
                        let frames = input
                            .leads
                            .iter()
                            .map(|lead| lead.len() / n)
                            .min()
                            .unwrap_or(0);
                        for frame in 0..frames {
                            // Packetize time: one stamp per frame, shared
                            // by its leads — they leave the mote together.
                            let captured_ns =
                                if telemetry.is_enabled() { telemetry.now_ns() } else { 0 };
                            let window: Vec<&[i16]> = input
                                .leads
                                .iter()
                                .map(|lead| &lead[frame * n..(frame + 1) * n])
                                .collect();
                            let tagged = match encoder.encode_frame(&window) {
                                Ok(t) => t,
                                Err(e) => {
                                    let _ = results.send(FleetMsg::Failed {
                                        stream: Some(stream),
                                        cause: e.to_string(),
                                    });
                                    return;
                                }
                            };
                            for (ch, packet) in tagged.into_iter().enumerate() {
                                let seq = (frame * channels + ch) as u64;
                                if !send(seq, captured_ns, packet) {
                                    return;
                                }
                            }
                        }
                    }
                }
            });
        }
        // The collector must see the channel close once workers and
        // producers finish.
        drop(res_tx);
        drop(job_txs);

        // --- Collector: per-stream in-order reassembly -----------------
        // Pending slot: (channel, packet, captured_ns, emitted_ns).
        type PendingSlot<T> = (u8, DecodedPacket<T>, u64, u64);
        let mut pending: Vec<BTreeMap<u64, PendingSlot<T>>> =
            (0..nstreams).map(|_| BTreeMap::new()).collect();
        let mut next_seq = vec![0u64; nstreams];
        for msg in res_rx.iter() {
            match msg {
                FleetMsg::Decoded {
                    stream,
                    seq,
                    channel,
                    worker,
                    captured_ns,
                    emitted_ns,
                    packet,
                } => {
                    let _span = telemetry.span(Stage::Reassembly);
                    worker_packets[worker] += 1;
                    pending[stream].insert(seq, (channel, packet, captured_ns, emitted_ns));
                    while let Some((channel, packet, captured_ns, emitted_ns)) =
                        pending[stream].remove(&next_seq[stream])
                    {
                        let seq = next_seq[stream];
                        next_seq[stream] += 1;
                        let summary = &mut summaries[stream];
                        summary.packets += 1;
                        summary.total_decode_time += packet.solve_time;
                        summary.max_decode_time = summary.max_decode_time.max(packet.solve_time);
                        summary.total_iterations += packet.iterations as u64;
                        summary.warm_started += usize::from(packet.warm_started);
                        packets_decoded += 1;
                        total_decode += packet.solve_time;
                        max_decode = max_decode.max(packet.solve_time);
                        // Emit-deliver dwell (worker send → in-order
                        // emission), then the end-to-end record that
                        // feeds per-patient histograms and the SLO engine.
                        let mut e2e = None;
                        if telemetry.is_enabled() {
                            telemetry.record_stage_ns(
                                Stage::EmitDeliver,
                                telemetry.now_ns().saturating_sub(emitted_ns),
                            );
                            e2e = telemetry
                                .record_emit(&TraceContext::new(
                                    u32::try_from(stream).unwrap_or(u32::MAX),
                                    channel,
                                    seq,
                                    captured_ns,
                                ))
                                .map(|rec| Duration::from_nanos(rec.e2e_ns));
                        }
                        let delivered = FleetPacket {
                            stream,
                            channel,
                            outcome: PacketOutcome::Decoded,
                            e2e,
                            packet,
                        };
                        on_packet(&delivered);
                    }
                }
                FleetMsg::Failed { stream, cause } => {
                    failure = Some(PipelineError::Fleet { stream, cause });
                    break;
                }
            }
        }
        // Wake any worker blocked on a full result queue so the
        // disconnect cascade can finish before we join.
        drop(res_rx);
        for handle in worker_handles {
            if handle.join().is_err() {
                worker_panicked = true;
            }
        }
    });

    if worker_panicked {
        return Err(PipelineError::Fleet {
            stream: None,
            cause: "worker panicked".into(),
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
        faults: FaultStats::default(),
        quarantine: Vec::new(),
    })
}

/// A unit of wire-feed work: one frame exactly as it came off the link,
/// stamped with its arrival time (registry-monotonic nanoseconds; `0`
/// when telemetry is disabled).
struct WireJob {
    stream: usize,
    captured_ns: u64,
    bytes: Vec<u8>,
}

/// What wire-feed workers send the collector. Unlike [`FleetMsg`], every
/// window reaches the collector as an `Emit` — faults are absorbed into
/// outcomes, not run-ending failures. `Failed` remains only for
/// construction errors (bad configuration), which no amount of
/// concealment can paper over.
enum WireMsg<T: Real> {
    Emit {
        stream: usize,
        /// Dense per-stream emission sequence assigned by the worker (wire
        /// sequence numbers have gaps where frames were lost).
        emit_seq: u64,
        channel: u8,
        worker: usize,
        /// Arrival stamp of the frame this window came from; concealed
        /// windows carry the stamp of the arrival that exposed the gap.
        captured_ns: u64,
        /// When the worker handed this window to the result channel.
        emitted_ns: u64,
        outcome: PacketOutcome,
        packet: DecodedPacket<T>,
    },
    Failed {
        stream: Option<usize>,
        cause: String,
    },
}

/// Per-worker state for the supervised wire-feed path. Streams keep
/// worker affinity, so every structure here is only ever touched by its
/// owning worker thread; the cross-thread surfaces are the shared
/// [`FaultCounters`] (atomics) and the quarantine ring (mutex, cold
/// path).
struct WireWorker<'e, T: Real> {
    worker_id: usize,
    config: &'e SystemConfig,
    codebook: Arc<Codebook>,
    policy: SolverPolicy<T>,
    fleet: FleetConfig,
    cache: &'e SpectralCache<T>,
    telemetry: TelemetryRegistry,
    counters: &'e FaultCounters,
    quarantine: &'e Mutex<QuarantineRing>,
    chaos_fired: &'e AtomicBool,
    lanes: HashMap<(usize, u8), Decoder<T>>,
    /// Reassembler payload carries the frame's arrival stamp alongside
    /// the packet, so capture time survives reordering.
    seqs: HashMap<(usize, u8), Reassembler<(EncodedPacket, u64)>>,
    emit_seq: HashMap<usize, u64>,
    scratch: DecodeWorkspace<T>,
    results: crossbeam::channel::Sender<WireMsg<T>>,
}

impl<T: Real> WireWorker<'_, T> {
    /// Validates one arrived frame and advances its lane. Returns `false`
    /// when the collector hung up (shutdown).
    fn ingest(&mut self, stream: usize, bytes: &[u8], captured_ns: u64) -> bool {
        self.counters.add_frame();
        // Queue wait: producer stamp → worker dequeue, before any
        // validation work is charged to this frame.
        if self.telemetry.is_enabled() {
            self.telemetry.record_stage_ns(
                Stage::QueueWait,
                self.telemetry.now_ns().saturating_sub(captured_ns),
            );
        }
        let parsed = {
            let _span = self.telemetry.span(Stage::IngestValidate);
            parse_frame(bytes)
        };
        let (info, payload) = match parsed {
            Ok(p) => p,
            Err(e) => {
                self.counters.add_frame_reject();
                self.telemetry.record_fault(FaultKind::FrameRejected);
                self.quarantine.lock().expect("quarantine lock").push(QuarantineRecord {
                    stream,
                    channel: None,
                    seq: None,
                    bytes: bytes.to_vec(),
                    cause: e.to_string(),
                });
                return true;
            }
        };
        let packet = EncodedPacket {
            index: info.index,
            kind: info.kind,
            payload: payload.to_vec(),
            payload_bits: info.payload_bits,
        };
        let lane = self
            .seqs
            .entry((stream, info.lane))
            .or_insert_with(|| Reassembler::new(self.fleet.reorder_window));
        let mut events = Vec::new();
        if let Err(reject) = lane.push(info.index, (packet, captured_ns), &mut events) {
            match reject {
                PushReject::Duplicate => {
                    self.counters.add_duplicate();
                    self.telemetry.record_fault(FaultKind::Duplicate);
                }
                PushReject::Late => {
                    self.counters.add_late();
                    self.telemetry.record_fault(FaultKind::Late);
                }
            }
            return true;
        }
        self.handle_events(stream, info.lane, events, captured_ns)
    }

    /// Emits every sequenced event for one lane. `fallback_captured` is
    /// the stamp attributed to events with no frame of their own (a loss
    /// is discovered by a later arrival — or by `flush` at end of input —
    /// so the concealment inherits that trigger's capture time).
    fn handle_events(
        &mut self,
        stream: usize,
        channel: u8,
        events: Vec<SequencedEvent<(EncodedPacket, u64)>>,
        fallback_captured: u64,
    ) -> bool {
        for event in events {
            let alive = match event {
                SequencedEvent::Deliver(seq, (packet, captured_ns)) => {
                    self.decode_supervised(stream, channel, seq, packet, captured_ns)
                }
                SequencedEvent::Lost(seq) => {
                    self.counters.add_concealed_loss();
                    self.telemetry.record_fault(FaultKind::ConcealedLoss);
                    self.conceal_slot(
                        stream,
                        channel,
                        seq,
                        ConcealmentReason::Loss.into(),
                        fallback_captured,
                    )
                }
                SequencedEvent::Resync { .. } => {
                    self.counters.add_resync();
                    self.telemetry.record_fault(FaultKind::Resync);
                    if let Some(d) = self.lanes.get_mut(&(stream, channel)) {
                        d.desynchronize();
                    }
                    true
                }
            };
            if !alive {
                return false;
            }
        }
        true
    }

    /// Decodes one in-order packet under panic supervision.
    fn decode_supervised(
        &mut self,
        stream: usize,
        channel: u8,
        wire_seq: u64,
        packet: EncodedPacket,
        captured_ns: u64,
    ) -> bool {
        if self.lane(stream, channel).is_err() {
            return false; // construction failure already reported
        }
        let chaos = self.fleet.chaos_panic == Some((stream, wire_seq))
            && !self.chaos_fired.swap(true, Ordering::Relaxed);
        let mut decoded = DecodedPacket::default();
        let attempt = {
            let decoder = self.lanes.get_mut(&(stream, channel)).expect("lane exists");
            let scratch = &mut self.scratch;
            catch_unwind(AssertUnwindSafe(|| {
                if chaos {
                    panic!("chaos: injected decode panic");
                }
                decoder.decode_packet_with(&packet, scratch, &mut decoded)
            }))
        };
        match attempt {
            Ok(Ok(())) => {
                self.counters.add_decoded();
                self.telemetry.record_worker_packet(self.worker_id);
                if let Some(budget) = self.fleet.solve_budget {
                    if !decoded.converged && decoded.iterations >= budget {
                        self.counters.add_deadline_degraded();
                        self.telemetry.record_fault(FaultKind::DeadlineDegraded);
                    }
                }
                self.emit(stream, channel, PacketOutcome::Decoded, captured_ns, decoded)
            }
            Ok(Err(PipelineError::Codec(CodecError::MissingReference))) => {
                // The lane is desynchronized (an upstream loss ate its
                // reference); the frame itself is healthy. Conceal until
                // the next reference resynchronizes the DPCM loop.
                self.counters.add_concealed_desync();
                self.telemetry.record_fault(FaultKind::ConcealedDesync);
                self.conceal_slot(
                    stream,
                    channel,
                    wire_seq,
                    ConcealmentReason::Desync.into(),
                    captured_ns,
                )
            }
            Ok(Err(e)) => {
                // The frame passed the CRC but poisoned its decoder — a
                // truncation the bit count happened to cover, or a CRC
                // collision. Quarantine the bytes, desync the lane, and
                // emit a flagged placeholder to keep emission contiguous.
                self.counters.add_quarantined();
                self.telemetry.record_fault(FaultKind::Quarantined);
                self.quarantine.lock().expect("quarantine lock").push(QuarantineRecord {
                    stream,
                    channel: Some(channel),
                    seq: Some(wire_seq),
                    bytes: packet.to_bytes_tagged(channel),
                    cause: e.to_string(),
                });
                if let Some(d) = self.lanes.get_mut(&(stream, channel)) {
                    d.desynchronize();
                }
                self.conceal_slot(stream, channel, wire_seq, PacketOutcome::Quarantined, captured_ns)
            }
            Err(panic) => {
                // Supervisor: quarantine the offender, then restart the
                // worker — every lane decoder and the shared workspace are
                // replaced, since a panic mid-decode can leave either in a
                // torn state. Streams on this worker rebuild lazily and
                // conceal until their next reference packet.
                let cause = panic_message(&panic);
                self.counters.add_worker_restart();
                self.telemetry.record_fault(FaultKind::WorkerRestart);
                self.counters.add_quarantined();
                self.telemetry.record_fault(FaultKind::Quarantined);
                self.quarantine.lock().expect("quarantine lock").push(QuarantineRecord {
                    stream,
                    channel: Some(channel),
                    seq: Some(wire_seq),
                    bytes: packet.to_bytes_tagged(channel),
                    cause: format!("panic: {cause}"),
                });
                self.lanes.clear();
                self.scratch = DecodeWorkspace::for_config(self.config);
                self.conceal_slot(stream, channel, wire_seq, PacketOutcome::Quarantined, captured_ns)
            }
        }
    }

    /// Emits a concealed placeholder window for one sequence slot.
    fn conceal_slot(
        &mut self,
        stream: usize,
        channel: u8,
        wire_seq: u64,
        outcome: PacketOutcome,
        captured_ns: u64,
    ) -> bool {
        if self.lane(stream, channel).is_err() {
            return false;
        }
        let mut out = DecodedPacket::default();
        {
            let decoder = self.lanes.get_mut(&(stream, channel)).expect("lane exists");
            if matches!(outcome, PacketOutcome::Concealed(ConcealmentReason::Loss)) {
                // A real loss always desynchronizes the DPCM loop.
                decoder.desynchronize();
            }
            decoder.conceal_packet_with(wire_seq, &mut self.scratch, &mut out);
        }
        self.emit(stream, channel, outcome, captured_ns, out)
    }

    /// Ensures the lane decoder exists; reports construction errors.
    fn lane(&mut self, stream: usize, channel: u8) -> Result<(), ()> {
        if let Entry::Vacant(v) = self.lanes.entry((stream, channel)) {
            match Decoder::with_cache(self.config, Arc::clone(&self.codebook), self.policy, self.cache)
            {
                Ok(mut d) => {
                    d.set_warm_start(self.fleet.warm_start);
                    d.set_concealment(true);
                    d.set_telemetry(self.telemetry.clone());
                    d.set_telemetry_labels(u32::try_from(stream).unwrap_or(u32::MAX), channel);
                    v.insert(d);
                }
                Err(e) => {
                    let _ = self.results.send(WireMsg::Failed {
                        stream: Some(stream),
                        cause: e.to_string(),
                    });
                    return Err(());
                }
            }
        }
        Ok(())
    }

    /// Sends one window to the collector under the stream's dense
    /// emission sequence. Returns `false` when the collector hung up.
    fn emit(
        &mut self,
        stream: usize,
        channel: u8,
        outcome: PacketOutcome,
        captured_ns: u64,
        packet: DecodedPacket<T>,
    ) -> bool {
        let seq = self.emit_seq.entry(stream).or_insert(0);
        let emit_seq = *seq;
        *seq += 1;
        let emitted_ns = if self.telemetry.is_enabled() { self.telemetry.now_ns() } else { 0 };
        self.results
            .send(WireMsg::Emit {
                stream,
                emit_seq,
                channel,
                worker: self.worker_id,
                captured_ns,
                emitted_ns,
                outcome,
                packet,
            })
            .is_ok()
    }

    /// End of input: emits everything still buffered, concealing interior
    /// gaps. Tail losses (frames after the last arrival) are undetectable
    /// without an end-of-stream marker and stay unemitted.
    fn flush(&mut self) -> bool {
        // End-of-input concealments have no triggering arrival; their
        // capture time is "now" (zero queue blame, honest e2e).
        let fallback = if self.telemetry.is_enabled() { self.telemetry.now_ns() } else { 0 };
        let keys: Vec<(usize, u8)> = self.seqs.keys().copied().collect();
        for (stream, channel) in keys {
            let mut events = Vec::new();
            if let Some(lane) = self.seqs.get_mut(&(stream, channel)) {
                lane.flush(&mut events);
            }
            if !self.handle_events(stream, channel, events, fallback) {
                return false;
            }
        }
        true
    }
}

impl From<ConcealmentReason> for PacketOutcome {
    fn from(reason: ConcealmentReason) -> Self {
        PacketOutcome::Concealed(reason)
    }
}

/// Renders a panic payload for the quarantine record.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

/// A durable destination for wire frames, fed *before* decode.
///
/// `run_fleet_wire_archived` calls [`FrameSink::append_frame`] with every
/// arrived frame — exactly the bytes the link delivered, including frames
/// the ingest path will go on to reject — so the archive preserves
/// quarantinable traffic for post-mortem. An append error fails the run
/// loudly ([`PipelineError::Fleet`]): silently dropping durability is
/// worse than stopping.
///
/// Implemented by `cs_archive::ArchiveSink`; kept as a trait here so
/// `cs-core` does not depend on the storage crate.
pub trait FrameSink: Send {
    /// Persists one arrived frame for `stream`. Called in each stream's
    /// arrival order (streams interleave arbitrarily).
    fn append_frame(&mut self, stream: usize, bytes: &[u8]) -> std::io::Result<()>;
}

/// One raw frame addressed to a fleet stream, exactly as a transport
/// delivered it — the unit of work a streaming frame source hands
/// [`run_fleet_wire_stream`]. The slice-based [`run_fleet_wire`] adapts
/// its materialized traffic into the same type internally.
#[derive(Debug, Clone)]
pub struct WireFrame {
    /// Dense fleet stream index. A socket ingest layer maps patient ids
    /// to dense slots; per-stream collector state grows with the highest
    /// index seen.
    pub stream: usize,
    /// The frame bytes as they came off the link, damage included.
    pub bytes: Vec<u8>,
}

/// Decodes wire traffic delivered by a streaming frame source — a
/// channel of [`WireFrame`]s in transport arrival order — across the
/// fleet, surviving corruption, loss, duplication, reordering and worker
/// panics.
///
/// This is the socket-facing form of [`run_fleet_wire`]: the engine
/// consumes frames as they arrive instead of materialized per-stream
/// slices, so a TCP ingest layer can feed long-lived sessions without
/// buffering them whole. Frames for one stream must be sent in that
/// stream's arrival order (interleaving across streams is arbitrary).
/// The run ends — flushing every staged reassembly tail — when all
/// senders for `source` have been dropped, so a graceful drain is
/// "stop feeding, drop the sender, join the engine".
///
/// # Errors
///
/// Returns [`PipelineError::InvalidConfig`] for zero channel capacity,
/// and [`PipelineError::Fleet`] only for construction failures — wire
/// damage never fails the run.
pub fn run_fleet_wire_stream<T, F>(
    config: &SystemConfig,
    codebook: Arc<Codebook>,
    source: crossbeam::channel::Receiver<WireFrame>,
    policy: SolverPolicy<T>,
    fleet: &FleetConfig,
    telemetry: &TelemetryRegistry,
    on_packet: F,
) -> Result<FleetReport, PipelineError>
where
    T: Real,
    F: FnMut(&FleetPacket<T>) + Send,
{
    wire_engine_stream(config, codebook, source, 0, policy, fleet, telemetry, None, on_packet)
}

/// [`run_fleet_wire_stream`] with a durable archive sink on the ingest
/// path: every arrived frame is appended **before** any worker interprets
/// a byte of it (write-before-decode), matching
/// [`run_fleet_wire_archived`].
///
/// # Errors
///
/// Same contract as [`run_fleet_wire_stream`], plus
/// [`PipelineError::Fleet`] when the sink reports an I/O failure.
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
    wire_engine_stream(
        config,
        codebook,
        source,
        0,
        policy,
        fleet,
        telemetry,
        Some(sink),
        on_packet,
    )
}

/// Decodes wire traffic — frames exactly as a lossy link delivered them —
/// across the fleet, surviving corruption, loss, duplication, reordering
/// and worker panics.
///
/// `traffic[stream]` is that stream's arrival sequence of raw frames
/// (see [`crate::parse_frame`] for the format). Unlike
/// [`run_fleet_encoded`], a damaged frame does not end the run: every
/// window that can be attributed to a (stream, lane, sequence) slot is
/// emitted exactly once with a [`PacketOutcome`] explaining how it was
/// produced, and per-stream emission order is preserved. Unattributable
/// frames (framing/CRC rejects) are counted in
/// [`FleetReport::faults`] and quarantined.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidConfig`] for an empty fleet or zero
/// channel capacity, and [`PipelineError::Fleet`] only for construction
/// failures — wire damage never fails the run.
pub fn run_fleet_wire<T, F>(
    config: &SystemConfig,
    codebook: Arc<Codebook>,
    traffic: &[Vec<Vec<u8>>],
    policy: SolverPolicy<T>,
    fleet: &FleetConfig,
    telemetry: &TelemetryRegistry,
    on_packet: F,
) -> Result<FleetReport, PipelineError>
where
    T: Real,
    F: FnMut(&FleetPacket<T>) + Send,
{
    wire_engine(config, codebook, traffic, policy, fleet, telemetry, None, on_packet)
}

/// [`run_fleet_wire`] with a durable archive sink on the ingest path.
///
/// Every arrived frame is appended to `sink` **before** it is handed to
/// a decode worker (write-before-decode), so even frames the supervised
/// pipeline rejects, conceals, or quarantines are preserved byte-for-byte
/// and the archived session replays through `run_fleet_wire` to the same
/// decoded output.
///
/// # Errors
///
/// Same contract as [`run_fleet_wire`], plus [`PipelineError::Fleet`]
/// when the sink reports an I/O failure.
#[allow(clippy::too_many_arguments)]
pub fn run_fleet_wire_archived<T, F>(
    config: &SystemConfig,
    codebook: Arc<Codebook>,
    traffic: &[Vec<Vec<u8>>],
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
    wire_engine(config, codebook, traffic, policy, fleet, telemetry, Some(sink), on_packet)
}

#[allow(clippy::too_many_arguments)]
fn wire_engine<T, F>(
    config: &SystemConfig,
    codebook: Arc<Codebook>,
    traffic: &[Vec<Vec<u8>>],
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
    if traffic.is_empty() {
        return Err(PipelineError::InvalidConfig("empty fleet".into()));
    }
    if fleet.channel_capacity == 0 {
        return Err(PipelineError::InvalidConfig(
            "fleet channel capacity must be positive".into(),
        ));
    }
    let nstreams = traffic.len();
    // The slice path is a thin adapter over the streaming engine: one
    // producer thread per stream replays that stream's arrival order
    // into the shared feed, so per-stream order is preserved while
    // streams interleave arbitrarily — exactly what a live transport
    // delivers.
    let (feed_tx, feed_rx) =
        crossbeam::channel::bounded::<WireFrame>(fleet.channel_capacity * nstreams);
    let mut engine = None;
    std::thread::scope(|scope| {
        for (stream, frames) in traffic.iter().enumerate() {
            let feed = feed_tx.clone();
            scope.spawn(move || {
                for bytes in frames {
                    if feed.send(WireFrame { stream, bytes: bytes.clone() }).is_err() {
                        return; // engine hung up (failure path)
                    }
                }
            });
        }
        drop(feed_tx);
        engine = Some(wire_engine_stream(
            config, codebook, feed_rx, nstreams, policy, fleet, telemetry, sink, on_packet,
        ));
    });
    engine.expect("streaming engine ran")
}

/// The supervised wire-decode engine over a streaming frame source.
///
/// `min_streams` pre-sizes the per-stream collector state (and the
/// report's `streams` vector); indices at or above it grow the state on
/// first sight, so a socket transport can introduce patients mid-run.
#[allow(clippy::too_many_arguments)]
fn wire_engine_stream<T, F>(
    config: &SystemConfig,
    codebook: Arc<Codebook>,
    source: crossbeam::channel::Receiver<WireFrame>,
    min_streams: usize,
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
    let workers = fleet.effective_workers();
    let n = config.packet_len();
    let packet_period = Duration::from_secs_f64(n as f64 / 256.0);

    // Enforce the per-solve deadline by capping FISTA's iteration budget;
    // the solver then degrades to its best iterate instead of stalling.
    let mut policy = policy;
    if let Some(budget) = fleet.solve_budget {
        policy.max_iterations = policy.max_iterations.min(budget.max(1));
    }

    let cache: SpectralCache<T> = SpectralCache::new();
    let stalls = AtomicU64::new(0);
    let counters = FaultCounters::default();
    let quarantine = Mutex::new(QuarantineRing::default());
    let chaos_fired = AtomicBool::new(false);

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
    let mut failure: Option<PipelineError> = None;
    let started = Instant::now();

    let mut worker_panicked = false;
    std::thread::scope(|scope| {
        // --- Supervised decode workers ---------------------------------
        let mut worker_handles = Vec::with_capacity(workers);
        for (worker_id, jobs) in job_rxs.into_iter().enumerate() {
            let results = res_tx.clone();
            let codebook = Arc::clone(&codebook);
            let mut worker = WireWorker {
                worker_id,
                config,
                codebook,
                policy,
                fleet: *fleet,
                cache: &cache,
                telemetry: telemetry.clone(),
                counters: &counters,
                quarantine: &quarantine,
                chaos_fired: &chaos_fired,
                lanes: HashMap::new(),
                seqs: HashMap::new(),
                emit_seq: HashMap::new(),
                scratch: DecodeWorkspace::for_config(config),
                results,
            };
            worker_handles.push(scope.spawn(move || {
                for WireJob { stream, captured_ns, bytes } in jobs.iter() {
                    if !worker.ingest(stream, &bytes, captured_ns) {
                        return;
                    }
                }
                worker.flush();
            }));
        }

        // --- Dispatcher: drain the frame source onto worker queues -----
        {
            let results = res_tx.clone();
            let stalls = &stalls;
            let telemetry = telemetry.clone();
            // The dispatcher owns the job senders: when the source closes
            // (every feed sender dropped) it returns, the queues
            // disconnect, and the workers flush their reassembly tails.
            scope.spawn(move || {
                for WireFrame { stream, bytes } in source.iter() {
                    // Write-before-decode: the frame reaches durable
                    // storage before any worker interprets a byte of it,
                    // so even traffic the pipeline will reject survives
                    // for post-mortem replay.
                    if let Some(sink) = sink {
                        let appended = sink
                            .lock()
                            .expect("archive sink lock")
                            .append_frame(stream, &bytes);
                        if let Err(e) = appended {
                            let _ = results.send(WireMsg::Failed {
                                stream: Some(stream),
                                cause: format!("archive sink: {e}"),
                            });
                            return;
                        }
                    }
                    // Arrival stamp: the wire path's "capture" is the
                    // moment the frame came off the link.
                    let captured_ns =
                        if telemetry.is_enabled() { telemetry.now_ns() } else { 0 };
                    // Stream affinity: one worker owns a stream's lanes
                    // for the whole run, so reassembly state never moves.
                    let jobs = &job_txs[stream % workers];
                    let mut job = WireJob { stream, captured_ns, bytes };
                    match jobs.try_send(job) {
                        Ok(()) => continue,
                        Err(crossbeam::channel::TrySendError::Full(back)) => {
                            stalls.fetch_add(1, Ordering::Relaxed);
                            job = back;
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

        // --- Collector: per-stream in-order emission --------------------
        type Slot<T> = (u8, PacketOutcome, DecodedPacket<T>, u64, u64);
        let mut pending: Vec<BTreeMap<u64, Slot<T>>> =
            (0..min_streams).map(|_| BTreeMap::new()).collect();
        let mut next_seq = vec![0u64; min_streams];
        for msg in res_rx.iter() {
            match msg {
                WireMsg::Emit {
                    stream,
                    emit_seq,
                    channel,
                    worker,
                    captured_ns,
                    emitted_ns,
                    outcome,
                    packet,
                } => {
                    let _span = telemetry.span(Stage::Reassembly);
                    worker_packets[worker] += 1;
                    // A streaming source can introduce streams mid-run;
                    // collector state grows on first sight.
                    if stream >= pending.len() {
                        pending.resize_with(stream + 1, BTreeMap::new);
                        next_seq.resize(stream + 1, 0);
                        summaries.resize_with(stream + 1, StreamSummary::default);
                    }
                    pending[stream]
                        .insert(emit_seq, (channel, outcome, packet, captured_ns, emitted_ns));
                    while let Some((channel, outcome, packet, captured_ns, emitted_ns)) =
                        pending[stream].remove(&next_seq[stream])
                    {
                        let seq = next_seq[stream];
                        next_seq[stream] += 1;
                        let summary = &mut summaries[stream];
                        summary.packets += 1;
                        summary.total_decode_time += packet.solve_time;
                        summary.max_decode_time = summary.max_decode_time.max(packet.solve_time);
                        summary.total_iterations += packet.iterations as u64;
                        summary.warm_started += usize::from(packet.warm_started);
                        packets_decoded += 1;
                        total_decode += packet.solve_time;
                        max_decode = max_decode.max(packet.solve_time);
                        let mut e2e = None;
                        if telemetry.is_enabled() {
                            telemetry.record_stage_ns(
                                Stage::EmitDeliver,
                                telemetry.now_ns().saturating_sub(emitted_ns),
                            );
                            e2e = telemetry
                                .record_emit(&TraceContext::new(
                                    u32::try_from(stream).unwrap_or(u32::MAX),
                                    channel,
                                    seq,
                                    captured_ns,
                                ))
                                .map(|rec| Duration::from_nanos(rec.e2e_ns));
                        }
                        let delivered = FleetPacket { stream, channel, outcome, e2e, packet };
                        on_packet(&delivered);
                    }
                }
                WireMsg::Failed { stream, cause } => {
                    failure = Some(PipelineError::Fleet { stream, cause });
                    break;
                }
            }
        }
        drop(res_rx);
        for handle in worker_handles {
            if handle.join().is_err() {
                worker_panicked = true;
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
        faults: counters.snapshot(),
        quarantine: quarantine
            .into_inner()
            .expect("quarantine lock")
            .into_records(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::uniform_codebook;

    fn ecg_like(npackets: usize, n: usize, phase: f64) -> Vec<i16> {
        (0..npackets * n)
            .map(|i| {
                let t = (i % n) as f64 / n as f64;
                (700.0 * (-((t - 0.4 + phase) * 25.0).powi(2)).exp() + 50.0 * (t * 10.0).sin())
                    as i16
            })
            .collect()
    }

    #[test]
    fn empty_fleet_rejected() {
        let config = SystemConfig::paper_default();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        let err = run_fleet::<f64, _>(
            &config,
            cb,
            &[],
            SolverPolicy::default(),
            &FleetConfig::default(),
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfig(_)));
    }

    #[test]
    fn zero_lead_stream_rejected() {
        let config = SystemConfig::paper_default();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        let streams = [FleetStream { leads: vec![] }];
        let err = run_fleet::<f64, _>(
            &config,
            cb,
            &streams,
            SolverPolicy::default(),
            &FleetConfig::default(),
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfig(_)));
    }

    #[test]
    fn zero_capacity_rejected() {
        let config = SystemConfig::paper_default();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        let samples = ecg_like(1, 512, 0.0);
        let streams = [FleetStream::single(&samples)];
        let fleet = FleetConfig { channel_capacity: 0, ..FleetConfig::default() };
        let err = run_fleet::<f64, _>(
            &config,
            cb,
            &streams,
            SolverPolicy::default(),
            &fleet,
            |_| {},
        )
        .unwrap_err();
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
        let config = SystemConfig::paper_default();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        let s0 = ecg_like(2, 512, 0.0);
        let s1 = ecg_like(2, 512, 0.05);
        let streams = [FleetStream::single(&s0), FleetStream::single(&s1)];
        let fleet = FleetConfig { workers: 2, ..FleetConfig::default() };
        let mut seen: Vec<(usize, u64)> = Vec::new();
        let report = run_fleet::<f32, _>(
            &config,
            Arc::clone(&cb),
            &streams,
            SolverPolicy::default(),
            &fleet,
            |p| seen.push((p.stream, p.packet.index)),
        )
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

    /// Encodes one single-lead stream into wire frames.
    fn wire_frames(config: &SystemConfig, samples: &[i16]) -> Vec<Vec<u8>> {
        let cb = Arc::new(uniform_codebook(512).unwrap());
        let mut enc = MultiChannelEncoder::new(config, cb, 1).unwrap();
        let n = config.packet_len();
        (0..samples.len() / n)
            .map(|f| {
                let frame = enc.encode_frame(&[&samples[f * n..(f + 1) * n]]).unwrap();
                frame[0].to_bytes()
            })
            .collect()
    }

    #[test]
    fn clean_wire_traffic_all_decodes() {
        let config = SystemConfig::paper_default();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        let samples = ecg_like(3, 512, 0.0);
        let traffic = vec![wire_frames(&config, &samples)];
        let fleet = FleetConfig { workers: 1, ..FleetConfig::default() };
        let mut outcomes = Vec::new();
        let report = run_fleet_wire::<f32, _>(
            &config,
            cb,
            &traffic,
            SolverPolicy::default(),
            &fleet,
            &TelemetryRegistry::disabled(),
            |p| outcomes.push(p.outcome),
        )
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
        let config = SystemConfig::paper_default();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        let samples = ecg_like(4, 512, 0.0);
        let mut frames = wire_frames(&config, &samples);
        frames.remove(1); // lose the second window
        let traffic = vec![frames];
        let fleet = FleetConfig { workers: 1, ..FleetConfig::default() };
        let mut seen = Vec::new();
        let report = run_fleet_wire::<f32, _>(
            &config,
            cb,
            &traffic,
            SolverPolicy::default(),
            &fleet,
            &TelemetryRegistry::disabled(),
            |p| seen.push((p.packet.index, p.outcome, p.packet.concealed)),
        )
        .unwrap();
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
        let config = SystemConfig::paper_default();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        let samples = ecg_like(2, 512, 0.0);
        let mut frames = wire_frames(&config, &samples);
        let mid = frames[1].len() / 2;
        frames[1][mid] ^= 0xFF; // burst damage in the payload
        let traffic = vec![frames];
        let fleet = FleetConfig { workers: 1, ..FleetConfig::default() };
        let report = run_fleet_wire::<f32, _>(
            &config,
            cb,
            &traffic,
            SolverPolicy::default(),
            &fleet,
            &TelemetryRegistry::disabled(),
            |_| {},
        )
        .unwrap();
        assert_eq!(report.faults.frame_rejects, 1);
        assert_eq!(report.quarantine.len(), 1);
        assert!(report.quarantine[0].cause.contains("CRC"));
        // The rejected frame's slot is a tail gap (undetectable), so only
        // the first window is emitted.
        assert_eq!(report.faults.decoded, 1);
    }

    #[test]
    fn streaming_source_matches_slice_path() {
        let config = SystemConfig::paper_default();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        let s0 = ecg_like(3, 512, 0.0);
        let s1 = ecg_like(3, 512, 0.05);
        let traffic = vec![wire_frames(&config, &s0), wire_frames(&config, &s1)];
        let fleet = FleetConfig { workers: 2, ..FleetConfig::default() };

        let mut slice_seen: Vec<(usize, u64)> = Vec::new();
        run_fleet_wire::<f32, _>(
            &config,
            Arc::clone(&cb),
            &traffic,
            SolverPolicy::default(),
            &fleet,
            &TelemetryRegistry::disabled(),
            |p| slice_seen.push((p.stream, p.packet.index)),
        )
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
            run_fleet_wire_stream::<f32, _>(
                &config,
                Arc::clone(&cb),
                rx,
                SolverPolicy::default(),
                &fleet,
                &TelemetryRegistry::disabled(),
                |p| stream_seen.push((p.stream, p.packet.index)),
            )
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
        let config = SystemConfig::paper_default();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        let samples = ecg_like(3, 512, 0.0);
        let traffic = vec![wire_frames(&config, &samples)];
        let fleet = FleetConfig {
            workers: 1,
            chaos_panic: Some((0, 1)),
            ..FleetConfig::default()
        };
        let mut outcomes = Vec::new();
        let report = run_fleet_wire::<f32, _>(
            &config,
            cb,
            &traffic,
            SolverPolicy::default(),
            &fleet,
            &TelemetryRegistry::disabled(),
            |p| outcomes.push(p.outcome),
        )
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
