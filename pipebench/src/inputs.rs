//! Seed → inputs. Everything a workload feeds the pipeline is made here,
//! before the first pass, and this is what `setup_s` times.
//!
//! The two patients are records 0 and 1 of the repository's standard
//! synthetic corpus (`DatabaseConfig::default()`'s seed; record 0 carries
//! PVCs, record 1 is plain sinus), four leads each. `--seed` chooses
//! *where* in those recordings each patient's stream starts and the order
//! in which the eight lanes take their turn in a round — corpus and
//! schedule, nothing else. Drawing new patients per seed instead was
//! measured and rejected: mean PRD then moves ±17 % and iterations ±8 %
//! between seeds (heart rate alone spans 55–105 bpm), which no regression
//! bound survives, while a new start offset re-aligns every beat in every
//! window and still holds PRD within ±2 %.

use crate::host::{splitmix, Digest};
use cs_codec::{Codebook, DiffConfig, DiffDecoder, DiffEncoder};
use cs_core::{
    train_codebook, Decoder, EncodedPacket, Encoder, PacketKind, SolverPolicy, SystemConfig,
};
use cs_ecg_data::{resample_360_to_256, DatabaseConfig, SyntheticDatabase};
use cs_recovery::SpectralCache;
use std::sync::Arc;
use std::time::Instant;

pub const PATIENTS: usize = 2;
pub const LEADS: usize = 4;
pub const LANES: usize = PATIENTS * LEADS;

/// Start offsets are drawn from `[0, OFFSET_RANGE_S)` seconds.
const OFFSET_RANGE_S: usize = 30;
const WIRE_HZ: usize = 256;
const CORPUS_HZ: usize = 360;

/// One (patient, lead) sample stream at the wire rate.
pub struct Lane {
    pub samples: Vec<i16>,
    /// R-peak positions (wire-rate samples from the stream's start);
    /// the synthesizer annotates the rhythm once per patient, so only
    /// lead 0 carries them.
    pub truth: Vec<usize>,
}

pub struct Inputs {
    pub config: SystemConfig,
    pub codebook: Arc<Codebook>,
    /// Indexed `patient * LEADS + lead`.
    pub lanes: Vec<Lane>,
    /// The seeded order in which lanes take their turn within a round,
    /// and its inverse (lane → turn).
    pub order: [usize; LANES],
    turn: [usize; LANES],
    pub per_lane: usize,
    /// Pre-encoded packets in operation order.
    pub packets: Vec<EncodedPacket>,
    /// The same packets framed for the wire, lane-tagged.
    pub frames: Vec<Vec<u8>>,
    /// Digest of the measurement vector the decoder side must rebuild
    /// for each operation (the closed-loop DPCM reconstruction).
    pub expected_y: Vec<Digest>,
    /// Shared power-iteration results, filled by the first decoder.
    pub spectral: SpectralCache<f32>,
    pub payload_bits_per_packet: f64,
    pub bits_per_symbol: f64,
    /// PRD of the rebuilt measurements against `Φx`: what the adaptive
    /// DPCM gain loses before any solver runs.
    pub measurement_prd_pct: f64,
    pub corpus_s: f64,
    pub spectral_setup_ms: f64,
}

impl Inputs {
    pub fn ops(&self) -> usize {
        self.per_lane * LANES
    }

    pub fn lane_of(&self, op: usize) -> usize {
        self.order[op % LANES]
    }

    pub fn seq_of(&self, op: usize) -> usize {
        op / LANES
    }

    /// The operation index of `(lane, seq)`.
    pub fn op_of(&self, lane: usize, seq: usize) -> usize {
        seq * LANES + self.turn[lane]
    }

    pub fn window(&self, op: usize) -> &[i16] {
        let n = self.config.packet_len();
        let seq = self.seq_of(op);
        &self.lanes[self.lane_of(op)].samples[seq * n..(seq + 1) * n]
    }

    pub fn prepare(seed: u64, per_lane: usize) -> Result<Inputs, String> {
        let config = SystemConfig::paper_default();
        let n = config.packet_len();
        let mut rng = seed;

        let corpus_started = Instant::now();
        let wire_len = per_lane * n;
        let duration_s = (wire_len / WIRE_HZ + OFFSET_RANGE_S + 2) as f64;
        let db = SyntheticDatabase::new(DatabaseConfig {
            num_records: PATIENTS,
            num_channels: LEADS,
            duration_s,
            ..DatabaseConfig::default()
        });
        let mut lanes = Vec::with_capacity(LANES);
        for patient in 0..PATIENTS {
            let record = db.record(patient);
            let offset = (splitmix(&mut rng) % (OFFSET_RANGE_S * WIRE_HZ) as u64) as usize;
            let adc = record.adc();
            for lead in 0..LEADS {
                let at_wire_rate = resample_360_to_256(&record.signal_mv(lead));
                let samples = at_wire_rate
                    .get(offset..offset + wire_len)
                    .ok_or("synthesized record shorter than the stream it must supply")?
                    .iter()
                    .map(|&mv| adc.to_signed(adc.quantize(mv)))
                    .collect();
                let truth = if lead == 0 {
                    record
                        .annotations()
                        .iter()
                        .map(|beat| beat.sample * WIRE_HZ / CORPUS_HZ)
                        .filter(|&s| s >= offset && s < offset + wire_len)
                        .map(|s| s - offset)
                        .collect()
                } else {
                    Vec::new()
                };
                lanes.push(Lane { samples, truth });
            }
        }
        let corpus_s = corpus_started.elapsed().as_secs_f64();

        let mut order: [usize; LANES] = std::array::from_fn(|i| i);
        for i in (1..LANES).rev() {
            order.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
        }
        let mut turn = [0; LANES];
        for (at, &lane) in order.iter().enumerate() {
            turn[lane] = at;
        }

        let err = |e: cs_core::PipelineError| e.to_string();
        let codebook = Arc::new(
            train_codebook(
                &config,
                lanes
                    .iter()
                    .flat_map(|l| l.samples.chunks_exact(n).map(<[i16]>::to_vec)),
            )
            .map_err(err)?,
        );

        let ops = per_lane * LANES;
        let mut inputs = Inputs {
            config,
            codebook,
            lanes,
            order,
            turn,
            per_lane,
            packets: Vec::with_capacity(ops),
            frames: Vec::with_capacity(ops),
            expected_y: Vec::with_capacity(ops),
            spectral: SpectralCache::new(),
            payload_bits_per_packet: 0.0,
            bits_per_symbol: 0.0,
            measurement_prd_pct: 0.0,
            corpus_s,
            spectral_setup_ms: 0.0,
        };
        inputs.pre_encode().map_err(err)?;

        // The first decoder pays for the power iteration; the cache serves
        // every later one.
        let spectral_started = Instant::now();
        inputs.decoder(SolverPolicy::default())?;
        inputs.spectral_setup_ms = spectral_started.elapsed().as_secs_f64() * 1e3;
        Ok(inputs)
    }

    /// A fresh decoder over the shared spectral cache.
    pub fn decoder(&self, policy: SolverPolicy<f32>) -> Result<Decoder<f32>, String> {
        Decoder::with_cache(
            &self.config,
            Arc::clone(&self.codebook),
            policy,
            &self.spectral,
        )
        .map_err(|e| e.to_string())
    }

    /// Encodes every lane's stream and, beside each real encoder, runs a
    /// shadow differencing pair that yields the integers the decoder
    /// side has to arrive at.
    fn pre_encode(&mut self) -> Result<(), cs_core::PipelineError> {
        let config = &self.config;
        let (n, m) = (config.packet_len(), config.measurements());
        let diff_config = DiffConfig {
            vector_len: m,
            reference_interval: config.reference_interval(),
            alphabet: config.alphabet(),
        };
        let ops = self.per_lane * LANES;
        let mut packets: Vec<Option<EncodedPacket>> = vec![None; ops];
        let mut expected = vec![Digest::new(); ops];
        let (mut frame_bits, mut symbol_bits, mut symbols) = (0usize, 0usize, 0usize);
        let mut prd_sum = 0.0;
        for lane in 0..LANES {
            let mut encoder = Encoder::new(config, Arc::clone(&self.codebook))?;
            let mut shadow_enc = DiffEncoder::new(diff_config);
            let mut shadow_dec = DiffDecoder::new(diff_config);
            for (seq, window) in self.lanes[lane].samples.chunks_exact(n).enumerate() {
                let packet = encoder.encode_packet(window)?;
                frame_bits += packet.framed_bytes() * 8;
                if packet.kind == PacketKind::Delta {
                    symbol_bits += packet.payload_bits - 4;
                    symbols += m;
                }
                let y = encoder.sensing().apply_unscaled_i32(window);
                let rebuilt = shadow_dec.decode(&shadow_enc.encode(&y)?)?;
                let (mut num, mut den) = (0.0f64, 0.0f64);
                for (&a, &b) in y.iter().zip(&rebuilt) {
                    num += f64::from(a - b).powi(2);
                    den += f64::from(a).powi(2);
                }
                prd_sum += 100.0 * (num / den.max(1.0)).sqrt();
                let op = self.op_of(lane, seq);
                expected[op].i32s(&rebuilt);
                packets[op] = Some(packet);
            }
        }
        self.packets = packets
            .into_iter()
            .map(|p| p.expect("every op encoded"))
            .collect();
        self.frames = (0..ops)
            .map(|op| self.packets[op].to_bytes_tagged((self.lane_of(op) % LEADS) as u8))
            .collect();
        self.expected_y = expected;
        self.payload_bits_per_packet = frame_bits as f64 / ops as f64;
        self.bits_per_symbol = symbol_bits as f64 / symbols.max(1) as f64;
        self.measurement_prd_pct = prd_sum / ops as f64;
        Ok(())
    }
}
