//! `edge_no_solve`: everything a packet touches except the solve, on one
//! thread — mote encoder, framing, the record layer, the incremental
//! deframer fed in MTU-sized reads, frame parsing, reassembly, the
//! archive, entropy decoding, and the clinical engine (fed the original
//! window, which stands in for the reconstruction it would see).
//!
//! The timed operation is a *tick*: the eight lanes each produce their
//! packet for one 2-second window, the two patient connections' bytes are
//! read in ≤ 1400-byte reads, and every frame those reads complete runs
//! through the receiving side. A tick is what a gateway does per window,
//! and it lets records coalesce in a read and straddle two, as on a real
//! socket; per-packet time is a tick's time over its eight packets.

use crate::host::{process_cpu_ns, Clock, Digest, ScratchDir};
use crate::inputs::{Inputs, LANES, LEADS, PATIENTS};
use crate::stats::ns32;
use crate::trace::{Ledger, Tracer, NO_LANE};
use crate::workload::{
    clinical_engine, count_beats, metric, us_per_packet, Metric, PassResult, QrsScore, Variant,
    Workload,
};
use cs_archive::{Archive, ArchiveConfig, ArchiveWriter, FsyncPolicy};
use cs_clinical::{ClinicalEngine, ClinicalEvent};
use cs_codec::{symbol_to_value, BitReader, DiffConfig, DiffDecoder};
use cs_core::{
    parse_frame, DecodedPacket, EncodedPacket, Encoder, FleetPacket, PacketKind, PacketOutcome,
    Reassembler, SequencedEvent, DEFAULT_REORDER_WINDOW,
};
use cs_ingest::deframe::encode_record;
use cs_ingest::Deframer;
use cs_telemetry::TelemetryRegistry;
use std::path::PathBuf;
use std::sync::Arc;

/// One socket read.
const READ_BYTES: usize = 1400;

pub struct Edge {
    inputs: Inputs,
    scratch: Arc<ScratchDir>,
    passes_run: usize,
    /// The newest pass's archive root, kept for the replay check.
    archive_root: Option<PathBuf>,
    beats: u64,
    sensitivity: f64,
    ppv: f64,
    archive_bytes_per_frame: f64,
    replay_us_per_frame: f64,
}

/// The receiving side's state for one pass.
struct Receiver<'a> {
    inputs: &'a Inputs,
    reassemblers: Vec<Reassembler<EncodedPacket>>,
    events: Vec<SequencedEvent<EncodedPacket>>,
    archive: ArchiveWriter,
    diff: Vec<DiffDecoder>,
    symbols: Vec<u16>,
    delta: Vec<i16>,
    refvals: Vec<i32>,
    clinical: ClinicalEngine,
    clinical_events: Vec<ClinicalEvent>,
    fleet_packet: FleetPacket<f32>,
    beats: u64,
    digest: Digest,
    failed: usize,
}

impl Receiver<'_> {
    /// Runs one deframed frame through parse → reassemble → archive →
    /// entropy decode → clinical analysis.
    fn frame<const TRACED: bool>(
        &mut self,
        patient: usize,
        frame: &[u8],
        clock: &Clock,
        deframed: (u64, u64),
        root: u32,
        tracer: &mut Option<&mut Tracer>,
    ) {
        let inputs = self.inputs;
        let m = inputs.config.measurements();
        let alphabet = inputs.config.alphabet();
        let now = || if TRACED { clock.ns() } else { 0 };

        let s0 = now();
        let parsed =
            parse_frame(frame).and_then(|(info, _)| Ok((info, EncodedPacket::from_bytes(frame)?)));
        let s1 = now();
        let Ok((info, packet)) = parsed else {
            self.failed += 1;
            return;
        };
        let lane = patient * LEADS + info.lane as usize;
        let seq = info.index as usize;
        if lane >= LANES || seq >= inputs.per_lane {
            self.failed += 1;
            return;
        }

        self.events.clear();
        let pushed = self.reassemblers[lane].push(info.index, packet, &mut self.events);
        let s2 = now();
        // Strictly in order: each push delivers exactly its own frame.
        let packet = match (pushed, self.events.as_slice()) {
            (Ok(()), [SequencedEvent::Deliver(at, packet)]) if *at == info.index => packet,
            _ => {
                self.failed += 1;
                return;
            }
        };

        let appended = self
            .archive
            .append(patient as u32, info.lane, info.index, frame);
        let s3 = now();

        let mut reader = BitReader::new(&packet.payload);
        let huffman = (|| -> Result<Option<u8>, cs_codec::CodecError> {
            match packet.kind {
                PacketKind::Reference => {
                    self.refvals.clear();
                    for _ in 0..m {
                        self.refvals
                            .push(reader.read_bits(16)? as u16 as i16 as i32);
                    }
                    Ok(None)
                }
                PacketKind::Delta => {
                    let shift = reader.read_bits(4)? as u8;
                    inputs
                        .codebook
                        .decode_into(&mut reader, m, &mut self.symbols)?;
                    self.delta.clear();
                    for &s in &self.symbols {
                        self.delta.push(symbol_to_value(s, alphabet)? as i16);
                    }
                    Ok(Some(shift))
                }
            }
        })();
        let s4 = now();
        let rebuilt = huffman.and_then(|shift| match shift {
            None => self.diff[lane].decode_reference(&self.refvals),
            Some(shift) => self.diff[lane].decode_delta(shift, &self.delta),
        });
        let s5 = now();

        // Lossless stage: the integers must be the ones the mote's own
        // closed loop tracked.
        let op = inputs.op_of(lane, seq);
        let mut y = Digest::new();
        match (&rebuilt, &appended) {
            (Ok(values), Ok(())) => y.i32s(values),
            _ => self.failed += 1,
        }
        if y != inputs.expected_y[op] {
            self.failed += 1;
        }
        self.digest.word(y.0);

        let pkt = &mut self.fleet_packet;
        pkt.stream = patient;
        pkt.channel = info.lane;
        pkt.packet.index = info.index;
        pkt.packet.samples.clear();
        pkt.packet
            .samples
            .extend(inputs.window(op).iter().map(|&v| f32::from(v)));
        self.clinical_events.clear();
        let s6 = now();
        self.clinical
            .on_packet(&self.fleet_packet, &mut self.clinical_events);
        let s7 = now();
        self.beats += count_beats(&self.clinical_events);

        if TRACED {
            let tracer = tracer.as_deref_mut().expect("traced pass has a tracer");
            let (lane, seq, root) = (lane as u32, seq as u32, Some(root));
            tracer.span("ingest.deframe", root, lane, seq, deframed.0, deframed.1);
            tracer.span("core.parse_frame", root, lane, seq, s0, s1);
            tracer.span("core.reassemble", root, lane, seq, s1, s2);
            tracer.span("archive.append", root, lane, seq, s2, s3);
            tracer.span("codec.huffman_decode", root, lane, seq, s3, s4);
            tracer.span("codec.diff_decode", root, lane, seq, s4, s5);
            // The harness's own work between two stages: the lossless
            // gate's digest and the window handed to the clinical engine.
            tracer.span("pipebench.gates", root, lane, seq, s5, s6);
            tracer.span("clinical.on_packet", root, lane, seq, s6, s7);
        }
    }
}

impl Edge {
    pub fn new(inputs: Inputs, scratch: Arc<ScratchDir>) -> Self {
        Edge {
            inputs,
            scratch,
            passes_run: 0,
            archive_root: None,
            beats: 0,
            sensitivity: 0.0,
            ppv: 0.0,
            archive_bytes_per_frame: 0.0,
            replay_us_per_frame: 0.0,
        }
    }

    fn run<const TRACED: bool>(
        &mut self,
        clock: &Clock,
        row: &mut [u32],
        mut tracer: Option<&mut Tracer>,
    ) -> Result<PassResult, String> {
        let inputs = &self.inputs;
        let config = &inputs.config;
        let io = |e: std::io::Error| format!("archive: {e}");

        // Fresh state for every pass; the previous pass's archive goes.
        if let Some(old) = self.archive_root.take() {
            std::fs::remove_dir_all(&old).map_err(io)?;
        }
        let root_dir = self
            .scratch
            .path()
            .join(format!("edge-{}", self.passes_run));
        self.passes_run += 1;
        self.archive_root = Some(root_dir.clone());
        let archive = ArchiveWriter::create(
            &root_dir,
            ArchiveConfig {
                fsync: FsyncPolicy::Never,
                ..ArchiveConfig::default()
            },
        )
        .map_err(io)?;

        let mut encoders = Vec::with_capacity(LANES);
        for _ in 0..LANES {
            encoders.push(
                Encoder::new(config, Arc::clone(&inputs.codebook)).map_err(|e| e.to_string())?,
            );
        }
        let diff_config = DiffConfig {
            vector_len: config.measurements(),
            reference_interval: config.reference_interval(),
            alphabet: config.alphabet(),
        };
        let clinical = clinical_engine(inputs, TelemetryRegistry::disabled());
        let mut rx = Receiver {
            inputs,
            reassemblers: (0..LANES)
                .map(|_| Reassembler::new(DEFAULT_REORDER_WINDOW))
                .collect(),
            events: Vec::with_capacity(4),
            archive,
            diff: (0..LANES).map(|_| DiffDecoder::new(diff_config)).collect(),
            symbols: Vec::with_capacity(config.measurements()),
            delta: Vec::with_capacity(config.measurements()),
            refvals: Vec::with_capacity(config.measurements()),
            clinical,
            clinical_events: Vec::with_capacity(16),
            fleet_packet: FleetPacket {
                stream: 0,
                channel: 0,
                outcome: PacketOutcome::Decoded,
                e2e: None,
                packet: DecodedPacket {
                    samples: Vec::with_capacity(config.packet_len()),
                    ..DecodedPacket::default()
                },
            },
            beats: 0,
            digest: Digest::new(),
            failed: 0,
        };
        let mut deframers: Vec<Deframer> = (0..PATIENTS).map(|_| Deframer::new()).collect();
        let mut wires: Vec<Vec<u8>> = (0..PATIENTS)
            .map(|_| Vec::with_capacity(8 * READ_BYTES))
            .collect();
        let now = || if TRACED { clock.ns() } else { 0 };

        let cpu_started = process_cpu_ns();
        let started = clock.ns();
        for (tick, slot) in row.iter_mut().enumerate() {
            let t0 = clock.ns();
            let root = match tracer.as_deref_mut() {
                Some(tracer) if TRACED => {
                    tracer.open("pipebench.tick", None, NO_LANE, tick as u32, t0)
                }
                _ => 0,
            };

            // Mote side: every lane encodes, frames and sends its window.
            for turn in 0..LANES {
                let op = tick * LANES + turn;
                let lane = inputs.lane_of(op);
                let s0 = now();
                let packet = encoders[lane].encode_packet(inputs.window(op));
                let s1 = now();
                let Ok(packet) = packet else {
                    rx.failed += 1;
                    continue;
                };
                let frame = packet.to_bytes_tagged((lane % LEADS) as u8);
                let s2 = now();
                encode_record(&frame, &mut wires[lane / LEADS]);
                let s3 = now();
                // Frame bytes round-trip: the wire carries exactly the
                // frame set-up pre-encoded.
                if frame != inputs.frames[op] {
                    rx.failed += 1;
                }
                if TRACED {
                    let tracer = tracer.as_deref_mut().expect("traced pass has a tracer");
                    let (lane, seq, root) = (lane as u32, tick as u32, Some(root));
                    tracer.span("core.encode", root, lane, seq, s0, s1);
                    tracer.span("core.frame", root, lane, seq, s1, s2);
                    tracer.span("ingest.record_encode", root, lane, seq, s2, s3);
                }
            }

            // Gateway side: read each connection dry, one MTU at a time.
            for patient in 0..PATIENTS {
                let deframer = &mut deframers[patient];
                for read in wires[patient].chunks(READ_BYTES) {
                    let mut d0 = now();
                    let spare = deframer.spare();
                    spare[..read.len()].copy_from_slice(read);
                    deframer.commit(read.len());
                    loop {
                        let frame = deframer.next_frame();
                        let d1 = now();
                        let Some(frame) = frame else {
                            if TRACED {
                                // The read's tail: bytes of a record the
                                // next read completes.
                                let tracer =
                                    tracer.as_deref_mut().expect("traced pass has a tracer");
                                tracer.span(
                                    "ingest.deframe",
                                    Some(root),
                                    NO_LANE,
                                    tick as u32,
                                    d0,
                                    d1,
                                );
                            }
                            break;
                        };
                        rx.frame::<TRACED>(patient, frame, clock, (d0, d1), root, &mut tracer);
                        d0 = now();
                    }
                }
                wires[patient].clear();
            }

            let t1 = clock.ns();
            if TRACED {
                tracer
                    .as_deref_mut()
                    .expect("traced pass has a tracer")
                    .close(root, t1);
            }
            *slot = ns32(t1 - t0);
            if t1 - t0 > crate::decode::DEADLINE_NS {
                rx.failed += LANES;
            }
        }
        let wall_ns = clock.ns() - started;
        let cpu_ns = process_cpu_ns() - cpu_started;

        let Receiver {
            archive,
            mut clinical,
            mut clinical_events,
            mut beats,
            mut digest,
            failed,
            reassemblers,
            ..
        } = rx;
        archive.finish().map_err(io)?;
        clinical_events.clear();
        clinical.finish(&mut clinical_events);
        beats += count_beats(&clinical_events);
        let delivered: u64 = reassemblers.iter().map(Reassembler::next_seq).sum();
        let qrs = QrsScore::of(&clinical);
        digest.word(beats);
        digest.word(delivered);
        digest.word(qrs.word());
        self.beats = beats;
        self.sensitivity = qrs.sensitivity();
        self.ppv = qrs.ppv();
        let missing = (inputs.ops() as u64).saturating_sub(delivered) as usize;
        Ok(PassResult {
            cpu_ns,
            wall_ns,
            failed: failed + missing,
            digest,
        })
    }
}

impl Workload for Edge {
    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn ops(&self) -> usize {
        self.inputs.per_lane
    }

    fn span_capacity(&self) -> usize {
        // Per tick: the root, 3 mote spans and 8 gateway spans per
        // packet, and a tail span per read (≤ 4 reads per connection
        // even when every lane sends a reference).
        self.inputs.per_lane * (1 + LANES * 11 + PATIENTS * 4)
    }

    fn pass(
        &mut self,
        variant: Variant,
        clock: &Clock,
        row: &mut [u32],
        tracer: Option<&mut Tracer>,
    ) -> Result<PassResult, String> {
        if variant == Variant::Traced {
            self.run::<true>(clock, row, tracer)
        } else {
            self.run::<false>(clock, row, None)
        }
    }

    /// The newest pass's archive must hand back, byte for byte, the
    /// frames that went in.
    fn after_passes(&mut self) -> Result<(), String> {
        let root = self
            .archive_root
            .take()
            .ok_or("no pass left an archive to replay")?;
        let io = |e: std::io::Error| format!("archive replay: {e}");
        let inputs = &self.inputs;
        let started = std::time::Instant::now();
        let (archive, recovery) = Archive::open(&root).map_err(io)?;
        let mut replayed = Vec::with_capacity(PATIENTS);
        for patient in 0..PATIENTS {
            replayed.push(archive.replay_stream(patient as u32).map_err(io)?);
        }
        let replay_ns = started.elapsed().as_nanos() as f64;
        if recovery.torn_tails != 0 || recovery.segments_scanned != 0 {
            return Err(format!("sealed archive needed recovery: {recovery:?}"));
        }
        for (patient, frames) in replayed.iter().enumerate() {
            // `replay_stream` merges lanes window-major, lead-minor.
            let mut expected = Vec::with_capacity(inputs.per_lane * LEADS);
            for seq in 0..inputs.per_lane {
                for lead in 0..LEADS {
                    expected.push(&inputs.frames[inputs.op_of(patient * LEADS + lead, seq)]);
                }
            }
            if frames.len() != expected.len() || frames.iter().zip(&expected).any(|(a, b)| a != *b)
            {
                return Err(format!(
                    "archive replay of patient {patient} differs from the frames sent"
                ));
            }
        }
        let mut bytes = 0u64;
        for (_, _, dir, _) in cs_archive::layout::walk_lanes(&root).map_err(io)? {
            for entry in std::fs::read_dir(dir).map_err(io)? {
                bytes += entry.and_then(|e| e.metadata()).map_err(io)?.len();
            }
        }
        let k = inputs.ops() as f64;
        self.archive_bytes_per_frame = bytes as f64 / k;
        self.replay_us_per_frame = replay_ns / k / 1e3;
        std::fs::remove_dir_all(&root).map_err(io)
    }

    /// No reconstruction here: the distortion this path adds is the
    /// DPCM gain's, in the measurement domain.
    fn prd_pct(&self) -> f64 {
        self.inputs.measurement_prd_pct
    }

    fn layer_metrics(&self, ledger: &Ledger) -> Vec<Metric> {
        let k = self.packets();
        let per_packet = |name: &str| us_per_packet(ledger.total_ns(name), k);
        vec![
            metric("core.encode_us", per_packet("core.encode"), "us"),
            metric("core.frame_us", per_packet("core.frame"), "us"),
            metric("core.parse_frame_us", per_packet("core.parse_frame"), "us"),
            metric("core.reassemble_us", per_packet("core.reassemble"), "us"),
            metric(
                "ingest.record_encode_us",
                per_packet("ingest.record_encode"),
                "us",
            ),
            metric("ingest.deframe_us", per_packet("ingest.deframe"), "us"),
            metric(
                "clinical.on_packet_us",
                per_packet("clinical.on_packet"),
                "us",
            ),
            metric(
                "clinical.beats_per_packet",
                self.beats as f64 / k as f64,
                "count",
            ),
            metric("clinical.qrs_sensitivity", self.sensitivity, "share"),
            metric("clinical.qrs_ppv", self.ppv, "share"),
            metric("archive.append_us", per_packet("archive.append"), "us"),
            metric("archive.bytes_per_frame", self.archive_bytes_per_frame, "B"),
            metric("archive.replay_us", self.replay_us_per_frame, "us"),
        ]
    }
}
