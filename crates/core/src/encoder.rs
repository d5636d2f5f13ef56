//! The mote-side encoder: sparse binary sensing → differencing → Huffman.
//!
//! This is the complete Fig. 1 (top) pipeline, and — deliberately — it
//! never touches a float: the CS stage is an integer gather-add, the
//! differencing is integer, and the entropy stage consumes integer
//! symbols. That is exactly what makes it viable on the FPU-less MSP430
//! (§IV-A) and is what the `cs-platform` cycle model prices.

use crate::config::SystemConfig;
use crate::error::PipelineError;
use crate::packet::{EncodedPacket, PacketKind};
use cs_codec::{BitWriter, CodecError, Codebook, DiffConfig, DiffEncoder, DiffStep};
use cs_sensing::SparseBinarySensing;
use cs_telemetry::{Stage, TelemetryRegistry};
use std::sync::Arc;

/// Bits used per raw measurement in reference packets.
const REFERENCE_VALUE_BITS: u8 = 16;

/// The CS-ECG encoder.
///
/// # Examples
///
/// ```
/// use cs_core::{Encoder, SystemConfig};
/// use cs_codec::Codebook;
/// use std::sync::Arc;
///
/// let config = SystemConfig::paper_default();
/// let codebook = Arc::new(Codebook::from_counts(&vec![1; 512], 512)?);
/// let mut encoder = Encoder::new(&config, codebook)?;
///
/// let samples = vec![0_i16; 512]; // one 2-second packet
/// let packet = encoder.encode_packet(&samples)?;
/// assert_eq!(packet.index, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    config: SystemConfig,
    phi: SparseBinarySensing,
    /// The measurement vector of the packet being encoded.
    y: Vec<i32>,
    diff: DiffEncoder,
    codebook: Arc<Codebook>,
    next_index: u64,
    /// Where stage spans land; the shared disabled registry (one atomic
    /// load per span) unless the owner installs a live one.
    telemetry: TelemetryRegistry,
}

impl Encoder {
    /// Builds the encoder from the shared system configuration and an
    /// offline-trained codebook.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] if the codebook alphabet
    /// disagrees with the configuration or `d` is too large for raw
    /// 16-bit reference packets, and propagates sensing-matrix
    /// construction failures.
    pub fn new(config: &SystemConfig, codebook: Arc<Codebook>) -> Result<Self, PipelineError> {
        if codebook.alphabet_size() != config.alphabet() {
            return Err(PipelineError::InvalidConfig(format!(
                "codebook alphabet {} does not match configured {}",
                codebook.alphabet_size(),
                config.alphabet()
            )));
        }
        // Raw reference values are sent as 16 bits: a row of `d` ones
        // over 11-bit samples fills them at d = 32. (Necessary, not
        // sufficient — rows are heavier than `d`; `encode_packet` checks
        // the sums themselves.)
        if config.sparse_ones_per_column() > 32 {
            return Err(PipelineError::InvalidConfig(format!(
                "d = {} overflows 16-bit reference packets (max 32)",
                config.sparse_ones_per_column()
            )));
        }
        let phi = SparseBinarySensing::new(
            config.measurements(),
            config.packet_len(),
            config.sparse_ones_per_column(),
            config.seed(),
        )?;
        let diff = DiffEncoder::new(DiffConfig {
            vector_len: config.measurements(),
            reference_interval: config.reference_interval(),
            alphabet: config.alphabet(),
        });
        Ok(Encoder {
            config: config.clone(),
            y: vec![0; phi.rows()],
            phi,
            diff,
            codebook,
            next_index: 0,
            telemetry: TelemetryRegistry::disabled(),
        })
    }

    /// Installs a telemetry registry: subsequent encodes time each mote
    /// stage (sensing projection, differencing, entropy coding, packet
    /// assembly) into its histograms.
    pub fn set_telemetry(&mut self, telemetry: TelemetryRegistry) {
        self.telemetry = telemetry;
    }

    /// The registry this encoder records into.
    pub fn telemetry(&self) -> &TelemetryRegistry {
        &self.telemetry
    }

    /// The sensing matrix (shared with the decoder through the seed).
    pub fn sensing(&self) -> &SparseBinarySensing {
        &self.phi
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Encodes one packet of signed, midscale-removed ADC samples.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::PacketLength`] if `samples` is not exactly
    /// one packet long, [`CodecError::ValueOutOfRange`] if a reference
    /// packet's measurement does not fit its 16 bits (the next packet is
    /// then a reference again), and propagates codec failures.
    pub fn encode_packet(&mut self, samples: &[i16]) -> Result<EncodedPacket, PipelineError> {
        if samples.len() != self.config.packet_len() {
            return Err(PipelineError::PacketLength {
                expected: self.config.packet_len(),
                actual: samples.len(),
            });
        }
        // Stage 1: linear CS measurement (integer gather-add, no multiply).
        {
            let _span = self.telemetry.span(Stage::SensingProjection);
            self.phi.apply_unscaled_i32_into(samples, &mut self.y);
        }

        // Stage 2: inter-packet redundancy removal — the packet's kind
        // and gain.
        let step = {
            let _span = self.telemetry.span(Stage::DiffEncode);
            self.diff.begin(&self.y)?
        };

        // Stage 3: entropy coding, straight into the payload: a delta's
        // differences are quantized, coded and packed in one pass.
        let entropy_span = self.telemetry.span(Stage::HuffmanEncode);
        let (kind, payload, payload_bits) = match step {
            DiffStep::Reference => {
                let mut writer = BitWriter::with_capacity(2 * self.y.len());
                for &v in &self.y {
                    // A row of Φ may hold several times `d` ones, so
                    // near-full-scale input can sum past 16 bits. Such a
                    // window is refused, not wrapped, and the differencing
                    // restarts: the reference it assumed was never sent.
                    let Ok(raw) = i16::try_from(v) else {
                        self.diff.reset();
                        return Err(CodecError::ValueOutOfRange {
                            value: v,
                            alphabet: 1 << REFERENCE_VALUE_BITS,
                        }
                        .into());
                    };
                    writer.write_bits(raw as u16 as u32, REFERENCE_VALUE_BITS);
                }
                let bits = writer.bit_len();
                (PacketKind::Reference, writer.finish(), bits)
            }
            DiffStep::Delta { shift } => {
                // 4-bit adaptive gain, then the Huffman-coded symbols;
                // `new` matched the codebook's alphabet to the configured
                // one, so every difference has a codeword.
                let mut payload = Vec::new();
                let bits = self.diff.code_delta(&self.y, shift, &self.codebook, &mut payload)?;
                (PacketKind::Delta, payload, bits)
            }
        };
        drop(entropy_span);

        // Stage 4: wire assembly.
        let _span = self.telemetry.span(Stage::Packetize);
        let packet = EncodedPacket {
            index: self.next_index,
            kind,
            payload,
            payload_bits,
        };
        self.next_index += 1;
        Ok(packet)
    }

    /// Restarts the stream: the next packet becomes a reference and the
    /// sequence index resets.
    pub fn reset(&mut self) {
        self.diff.reset();
        self.next_index = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder_with_uniform_codebook(config: &SystemConfig) -> Encoder {
        let cb = Codebook::from_counts(&vec![1; config.alphabet()], config.alphabet()).unwrap();
        Encoder::new(config, Arc::new(cb)).unwrap()
    }

    #[test]
    fn first_packet_is_reference() {
        let config = SystemConfig::paper_default();
        let mut enc = encoder_with_uniform_codebook(&config);
        let p = enc.encode_packet(&vec![0; 512]).unwrap();
        assert_eq!(p.kind, PacketKind::Reference);
        assert_eq!(p.payload_bits, 256 * 16);
        let p2 = enc.encode_packet(&vec![0; 512]).unwrap();
        assert_eq!(p2.kind, PacketKind::Delta);
        assert_eq!(p2.index, 1);
    }

    #[test]
    fn identical_packets_compress_tightly() {
        let config = SystemConfig::paper_default();
        let mut enc = encoder_with_uniform_codebook(&config);
        let samples: Vec<i16> = (0..512).map(|i| ((i * 13) % 2000) as i16 - 1000).collect();
        let _ = enc.encode_packet(&samples).unwrap();
        let delta = enc.encode_packet(&samples).unwrap();
        // All-zero deltas under a uniform codebook: 9 bits per symbol.
        assert_eq!(delta.kind, PacketKind::Delta);
        assert_eq!(delta.payload_bits, 4 + 256 * 9);
    }

    #[test]
    fn wrong_length_rejected() {
        let config = SystemConfig::paper_default();
        let mut enc = encoder_with_uniform_codebook(&config);
        assert!(matches!(
            enc.encode_packet(&[0; 100]),
            Err(PipelineError::PacketLength { expected: 512, actual: 100 })
        ));
    }

    #[test]
    fn codebook_alphabet_must_match() {
        let config = SystemConfig::paper_default();
        let cb = Codebook::from_counts(&vec![1; 256], 256).unwrap();
        assert!(Encoder::new(&config, Arc::new(cb)).is_err());
    }

    #[test]
    fn oversized_d_rejected() {
        let config = SystemConfig::builder()
            .sparse_ones_per_column(40)
            .build()
            .unwrap();
        let cb = Codebook::from_counts(&vec![1; 512], 512).unwrap();
        assert!(Encoder::new(&config, Arc::new(cb)).is_err());
    }

    #[test]
    fn reset_restarts_sequence() {
        let config = SystemConfig::paper_default();
        let mut enc = encoder_with_uniform_codebook(&config);
        let _ = enc.encode_packet(&vec![0; 512]).unwrap();
        enc.reset();
        let p = enc.encode_packet(&vec![0; 512]).unwrap();
        assert_eq!(p.index, 0);
        assert_eq!(p.kind, PacketKind::Reference);
    }

    #[test]
    fn reference_cadence_matches_config() {
        let config = SystemConfig::builder().reference_interval(3).build().unwrap();
        let mut enc = encoder_with_uniform_codebook(&config);
        let kinds: Vec<PacketKind> = (0..6)
            .map(|_| enc.encode_packet(&vec![0; 512]).unwrap().kind)
            .collect();
        assert_eq!(
            kinds,
            [
                PacketKind::Reference,
                PacketKind::Delta,
                PacketKind::Delta,
                PacketKind::Reference,
                PacketKind::Delta,
                PacketKind::Delta
            ]
        );
    }
}
