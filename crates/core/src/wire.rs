//! The synchronous wire decode core: frames in, windows out.
//!
//! [`WireCore`] validates a frame ([`parse_frame`]), puts its
//! `(stream, lead)` lane back in order ([`Reassembler`]), decodes under
//! panic supervision and conceals or quarantines what cannot be decoded.
//! It owns no thread, channel, lock or clock: what a sequence of pushes
//! releases is a function of the frames alone. [`run_fleet`](crate::run_fleet)
//! runs one core per worker, behind the paper's three-packet buffer.
//! Every frame of a stream must go to one core, in arrival order. Lanes
//! decode independently, except that a supervised panic rebuilds all of a
//! core's lanes.

use crate::config::SystemConfig;
use crate::decoder::{DecodeWorkspace, DecodedPacket, Decoder, SolverPolicy};
use crate::error::PipelineError;
use crate::fleet::FleetConfig;
use crate::ingest::{
    ConcealmentReason, FaultStats, PacketOutcome, PushReject, QuarantineRecord, QuarantineRing,
    Reassembler, SequencedEvent,
};
use crate::packet::{parse_frame, EncodedPacket};
use cs_codec::{Codebook, CodecError};
use cs_dsp::Real;
use cs_recovery::SpectralCache;
use cs_telemetry::{FaultKind, Stage, TelemetryRegistry};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One window released by a [`WireCore`].
#[derive(Debug, Clone, PartialEq)]
pub struct Emission<T: Real> {
    /// The stream the frame was pushed for.
    pub stream: usize,
    /// Lead index within the stream (the frame's lane byte).
    pub channel: u8,
    /// How the window was produced.
    pub outcome: PacketOutcome,
    /// The `captured_ns` of the push that released the window's frame —
    /// or, for a loss, of the push (or flush) that exposed it.
    pub captured_ns: u64,
    /// The reconstruction, or a flagged placeholder; `packet.index` is
    /// the wire sequence number.
    pub packet: DecodedPacket<T>,
}

/// A `(stream, lead)` pair.
type Lane = (usize, u8);

/// What every lane decoder of one core is built from.
struct LaneSpec<'a, T: Real> {
    config: &'a SystemConfig,
    codebook: Arc<Codebook>,
    policy: SolverPolicy<T>,
    cache: &'a SpectralCache<T>,
    telemetry: TelemetryRegistry,
}

impl<T: Real> LaneSpec<'_, T> {
    /// The decoder of `(stream, channel)` in `decoders`, built on first use.
    fn decoder<'m>(
        &self,
        decoders: &'m mut HashMap<Lane, Decoder<T>>,
        (stream, channel): Lane,
    ) -> Result<&'m mut Decoder<T>, PipelineError> {
        let slot = match decoders.entry((stream, channel)) {
            Entry::Occupied(lane) => return Ok(lane.into_mut()),
            Entry::Vacant(slot) => slot,
        };
        let codebook = Arc::clone(&self.codebook);
        let mut decoder = Decoder::with_cache(self.config, codebook, self.policy, self.cache)
            .map_err(|e| PipelineError::Fleet { stream: Some(stream), cause: e.to_string() })?;
        decoder.set_telemetry(self.telemetry.clone());
        decoder.set_telemetry_labels(u32::try_from(stream).unwrap_or(u32::MAX), channel);
        Ok(slot.insert(decoder))
    }
}

/// The supervised decode path of a set of lanes, as a synchronous
/// frames-in, windows-out function (see the module docs). Every window
/// that can be attributed to a lane's sequence slot is emitted exactly
/// once, in the lane's wire order; after [`WireCore::flush`] its
/// [`FaultStats`] satisfy both of their identities.
pub struct WireCore<'a, T: Real> {
    spec: LaneSpec<'a, T>,
    fleet: FleetConfig,
    decoders: HashMap<Lane, Decoder<T>>,
    /// Each staged packet keeps its arrival stamp across reordering.
    seqs: HashMap<Lane, Reassembler<(EncodedPacket, u64)>>,
    scratch: DecodeWorkspace<T>,
    faults: FaultStats,
    quarantine: QuarantineRing,
    chaos_fired: bool,
}

impl<'a, T: Real> WireCore<'a, T> {
    /// A core with no lanes yet. Of `fleet` it reads `reorder_window` and
    /// `chaos_panic`. Lane decoders share `cache` and record into
    /// `telemetry`.
    pub fn new(
        config: &'a SystemConfig,
        codebook: Arc<Codebook>,
        policy: SolverPolicy<T>,
        fleet: &FleetConfig,
        cache: &'a SpectralCache<T>,
        telemetry: TelemetryRegistry,
    ) -> Self {
        WireCore {
            spec: LaneSpec { config, codebook, policy, cache, telemetry },
            fleet: *fleet,
            decoders: HashMap::new(),
            seqs: HashMap::new(),
            scratch: DecodeWorkspace::for_config(config),
            faults: FaultStats::default(),
            quarantine: QuarantineRing::default(),
            chaos_fired: false,
        }
    }

    /// Takes one frame exactly as it came off the link for `stream` and
    /// appends every window it releases to `out`. `captured_ns` is the
    /// frame's arrival stamp, carried into its [`Emission`]s.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Fleet`], attributed to the stream, when a lane's
    /// decoder cannot be constructed. Wire damage is never an error: it is
    /// counted, concealed or quarantined.
    pub fn push(
        &mut self,
        stream: usize,
        bytes: &[u8],
        captured_ns: u64,
        out: &mut Vec<Emission<T>>,
    ) -> Result<(), PipelineError> {
        self.faults.frames += 1;
        let parsed = {
            let _span = self.spec.telemetry.span(Stage::IngestValidate);
            parse_frame(bytes)
        };
        let (info, payload) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => {
                self.fault(FaultKind::FrameRejected);
                let cause = e.to_string();
                let record = QuarantineRecord { stream, channel: None, seq: None, bytes: bytes.to_vec(), cause };
                self.quarantine.push(record);
                return Ok(());
            }
        };
        let packet = EncodedPacket {
            index: info.index,
            kind: info.kind,
            payload: payload.to_vec(),
            payload_bits: info.payload_bits,
        };
        let window = self.fleet.reorder_window;
        let lane = self.seqs.entry((stream, info.lane)).or_insert_with(|| Reassembler::new(window));
        let mut events = Vec::new();
        let pushed = {
            let _span = self.spec.telemetry.span(Stage::Reassembly);
            lane.push(info.index, (packet, captured_ns), &mut events)
        };
        match pushed {
            Ok(()) => return self.release((stream, info.lane), events, captured_ns, out),
            Err(PushReject::Duplicate) => self.fault(FaultKind::Duplicate),
            Err(PushReject::Late) => self.fault(FaultKind::Late),
        }
        Ok(())
    }

    /// End of input: appends every window still staged, lane by lane in
    /// `(stream, lead)` order, concealing interior gaps. Losses after a
    /// lane's last arrival are undetectable and stay unemitted.
    /// `fallback_ns` stamps the windows no arrival exposed.
    ///
    /// # Errors
    ///
    /// Same contract as [`WireCore::push`].
    pub fn flush(&mut self, fallback_ns: u64, out: &mut Vec<Emission<T>>) -> Result<(), PipelineError> {
        // A lane with nothing staged has nothing to flush.
        let mut lanes: Vec<Lane> =
            self.seqs.iter().filter(|(_, seq)| seq.pending() > 0).map(|(&lane, _)| lane).collect();
        lanes.sort_unstable();
        for lane in lanes {
            let mut events = Vec::new();
            if let Some(seq) = self.seqs.get_mut(&lane) {
                let _span = self.spec.telemetry.span(Stage::Reassembly);
                seq.flush(&mut events);
            }
            self.release(lane, events, fallback_ns, out)?;
        }
        Ok(())
    }

    /// The core's accounting so far.
    pub fn faults(&self) -> FaultStats {
        self.faults
    }

    /// Consumes the core, returning the frames it held for postmortem.
    pub fn into_quarantine(self) -> QuarantineRing {
        self.quarantine
    }

    /// Counts one fault, here and in the registry.
    fn fault(&mut self, kind: FaultKind) {
        let f = &mut self.faults;
        *match kind {
            FaultKind::FrameRejected => &mut f.frame_rejects,
            FaultKind::Duplicate => &mut f.duplicates,
            FaultKind::Late => &mut f.late,
            FaultKind::ConcealedLoss => &mut f.concealed_loss,
            FaultKind::ConcealedDesync => &mut f.concealed_desync,
            FaultKind::Quarantined => &mut f.quarantined,
            FaultKind::WorkerRestart => &mut f.worker_restarts,
            FaultKind::DeadlineDegraded => &mut f.deadline_degraded,
            FaultKind::Resync => &mut f.resyncs,
        } += 1;
        self.spec.telemetry.record_fault(kind);
    }

    /// Emits what one lane's sequencer released. A loss has no frame of
    /// its own and inherits `fallback_ns`, the stamp of what exposed it.
    fn release(
        &mut self,
        lane: Lane,
        events: Vec<SequencedEvent<(EncodedPacket, u64)>>,
        fallback_ns: u64,
        out: &mut Vec<Emission<T>>,
    ) -> Result<(), PipelineError> {
        for event in events {
            match event {
                SequencedEvent::Deliver(seq, (packet, captured_ns)) => {
                    self.decode(lane, seq, &packet, captured_ns, out)?
                }
                SequencedEvent::Lost(seq) => {
                    self.fault(FaultKind::ConcealedLoss);
                    let outcome = PacketOutcome::Concealed(ConcealmentReason::Loss);
                    self.conceal(lane, seq, outcome, fallback_ns, out)?
                }
                SequencedEvent::Resync { .. } => {
                    self.fault(FaultKind::Resync);
                    if let Some(decoder) = self.decoders.get_mut(&lane) {
                        decoder.desynchronize();
                    }
                }
            }
        }
        Ok(())
    }

    /// Decodes one in-order packet under panic supervision.
    fn decode(
        &mut self,
        lane: Lane,
        seq: u64,
        packet: &EncodedPacket,
        captured_ns: u64,
        out: &mut Vec<Emission<T>>,
    ) -> Result<(), PipelineError> {
        let (stream, channel) = lane;
        let chaos = self.fleet.chaos_panic == Some((stream, seq))
            && !std::mem::replace(&mut self.chaos_fired, true);
        let decoder = self.spec.decoder(&mut self.decoders, lane)?;
        let scratch = &mut self.scratch;
        let mut decoded = DecodedPacket::default();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if chaos {
                panic!("chaos: injected decode panic");
            }
            decoder.decode_packet_with(packet, scratch, &mut decoded)
        }));
        if let Ok(Err(_)) = attempt {
            debug_assert!(decoded.samples.is_empty(), "a refused decode wrote output");
        }
        let outcome = match attempt {
            Ok(Ok(())) => {
                self.faults.decoded += 1;
                // Stopped at `policy.max_iterations`: emitted best-effort
                // instead of stalling its lane.
                if !decoded.converged {
                    self.fault(FaultKind::DeadlineDegraded);
                }
                let outcome = PacketOutcome::Decoded;
                out.push(Emission { stream, channel, outcome, captured_ns, packet: decoded });
                return Ok(());
            }
            // The lane is desynchronized (an upstream loss ate its
            // reference); the frame itself is healthy. Conceal until the
            // next reference resynchronizes the DPCM loop.
            Ok(Err(PipelineError::Codec(CodecError::MissingReference))) => {
                self.fault(FaultKind::ConcealedDesync);
                PacketOutcome::Concealed(ConcealmentReason::Desync)
            }
            // The frame passed the CRC but poisoned its decoder — a
            // truncation the bit count happened to cover, or a CRC
            // collision. Quarantine the bytes and desync the lane.
            Ok(Err(refused)) => {
                self.hold(lane, seq, packet, refused.to_string());
                if let Some(decoder) = self.decoders.get_mut(&lane) {
                    decoder.desynchronize();
                }
                PacketOutcome::Quarantined
            }
            // Supervisor: quarantine the offender, then replace every lane
            // decoder and the workspace, since a panic mid-decode can leave
            // either torn. Lanes rebuild lazily and conceal until their
            // next reference packet.
            Err(panic) => {
                self.fault(FaultKind::WorkerRestart);
                self.hold(lane, seq, packet, format!("panic: {}", panic_message(&*panic)));
                self.decoders.clear();
                self.scratch = DecodeWorkspace::for_config(self.spec.config);
                PacketOutcome::Quarantined
            }
        };
        // A flagged placeholder keeps the lane's emission contiguous.
        self.conceal(lane, seq, outcome, captured_ns, out)
    }

    /// Emits a concealed placeholder window for one sequence slot.
    fn conceal(
        &mut self,
        lane: Lane,
        seq: u64,
        outcome: PacketOutcome,
        captured_ns: u64,
        out: &mut Vec<Emission<T>>,
    ) -> Result<(), PipelineError> {
        let decoder = self.spec.decoder(&mut self.decoders, lane)?;
        if outcome == PacketOutcome::Concealed(ConcealmentReason::Loss) {
            // A real loss always desynchronizes the DPCM loop.
            decoder.desynchronize();
        }
        let mut packet = DecodedPacket::default();
        decoder.conceal_packet_with(seq, &mut self.scratch, &mut packet);
        let (stream, channel) = lane;
        out.push(Emission { stream, channel, outcome, captured_ns, packet });
        Ok(())
    }

    /// Quarantines a packet that poisoned its decoder.
    fn hold(&mut self, (stream, channel): Lane, seq: u64, packet: &EncodedPacket, cause: String) {
        self.fault(FaultKind::Quarantined);
        let bytes = packet.to_bytes_tagged(channel);
        let record = QuarantineRecord { stream, channel: Some(channel), seq: Some(seq), bytes, cause };
        self.quarantine.push(record);
    }
}

/// Renders a panic payload for the quarantine record.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let text = panic.downcast_ref::<&str>().copied();
    text.map(str::to_owned)
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}
