//! Multi-lead operation.
//!
//! MIT-BIH records are two-channel and a 3-lead Holter is the clinical
//! norm (§I), so a practical monitor compresses several leads at once.
//! Each lead gets its own differencing state and sequence numbering, but
//! all leads share the sensing matrix, wavelet plan and codebook (the
//! leads observe the same heart, so one trained codebook serves all).
//! Wire packets gain a one-byte lane tag.

use crate::config::SystemConfig;
use crate::encoder::Encoder;
use crate::error::PipelineError;
use crate::packet::EncodedPacket;
use cs_codec::Codebook;
use std::sync::Arc;

/// A wire packet tagged with its lead index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelPacket {
    /// Lead index (0-based).
    pub channel: u8,
    /// The underlying CS-ECG packet.
    pub packet: EncodedPacket,
}

impl ChannelPacket {
    /// Serializes with the lead index in the frame's lane byte (which the
    /// frame CRC covers, so a corrupted tag cannot misroute the packet).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.packet.to_bytes_tagged(self.channel)
    }

    /// Parses a tagged packet.
    ///
    /// # Errors
    ///
    /// Propagates framing errors from [`crate::parse_frame`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PipelineError> {
        let (info, payload) = crate::packet::parse_frame(bytes)?;
        Ok(ChannelPacket {
            channel: info.lane,
            packet: EncodedPacket {
                index: info.index,
                kind: info.kind,
                payload: payload.to_vec(),
                payload_bits: info.payload_bits,
            },
        })
    }
}

/// Encoder for a fixed number of leads.
///
/// # Examples
///
/// ```
/// use cs_core::{uniform_codebook, MultiChannelEncoder, SystemConfig};
/// use std::sync::Arc;
///
/// let config = SystemConfig::paper_default();
/// let codebook = Arc::new(uniform_codebook(512)?);
/// let mut encoder = MultiChannelEncoder::new(&config, codebook, 2)?;
/// let lead0 = vec![0_i16; 512];
/// let lead1 = vec![0_i16; 512];
/// let packets = encoder.encode_frame(&[&lead0, &lead1])?;
/// assert_eq!(packets.len(), 2);
/// assert_eq!(packets[1].channel, 1);
/// # Ok::<(), cs_core::PipelineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiChannelEncoder {
    lanes: Vec<Encoder>,
}

impl MultiChannelEncoder {
    /// Builds `channels` independent encoder lanes sharing one codebook.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] for zero channels and
    /// propagates per-lane construction failures.
    pub fn new(
        config: &SystemConfig,
        codebook: Arc<Codebook>,
        channels: usize,
    ) -> Result<Self, PipelineError> {
        if channels == 0 {
            return Err(PipelineError::InvalidConfig("zero channels".into()));
        }
        let lanes = (0..channels)
            .map(|_| Encoder::new(config, Arc::clone(&codebook)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MultiChannelEncoder { lanes })
    }

    /// Number of leads.
    pub fn channels(&self) -> usize {
        self.lanes.len()
    }

    /// Installs a telemetry registry on every lane (see
    /// [`Encoder::set_telemetry`]).
    pub fn set_telemetry(&mut self, telemetry: cs_telemetry::TelemetryRegistry) {
        for lane in &mut self.lanes {
            lane.set_telemetry(telemetry.clone());
        }
    }

    /// Encodes one synchronized frame (one packet per lead).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] if the frame does not have
    /// one slice per lead, and propagates per-lane encode failures.
    pub fn encode_frame(&mut self, frame: &[&[i16]]) -> Result<Vec<ChannelPacket>, PipelineError> {
        if frame.len() != self.lanes.len() {
            return Err(PipelineError::InvalidConfig(format!(
                "frame has {} leads, encoder has {}",
                frame.len(),
                self.lanes.len()
            )));
        }
        frame
            .iter()
            .zip(self.lanes.iter_mut())
            .enumerate()
            .map(|(ch, (samples, lane))| {
                Ok(ChannelPacket {
                    channel: ch as u8,
                    packet: lane.encode_packet(samples)?,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::uniform_codebook;

    fn lead(phase: f64) -> Vec<i16> {
        (0..512)
            .map(|i| {
                let t = i as f64 / 512.0;
                (600.0 * (-((t - 0.4 + phase) * 25.0).powi(2)).exp()) as i16
            })
            .collect()
    }

    fn setup(channels: usize) -> MultiChannelEncoder {
        let config = SystemConfig::paper_default();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        MultiChannelEncoder::new(&config, cb, channels).unwrap()
    }

    #[test]
    fn wire_round_trip_with_lane_tag() {
        let mut enc = setup(3);
        let l = lead(0.0);
        let packets = enc.encode_frame(&[&l, &l, &l]).unwrap();
        for p in &packets {
            let parsed = ChannelPacket::from_bytes(&p.to_bytes()).unwrap();
            assert_eq!(&parsed, p);
        }
    }

    #[test]
    fn frame_shape_validated() {
        let mut enc = setup(2);
        let l = lead(0.0);
        assert!(enc.encode_frame(&[&l]).is_err());
        assert_eq!(enc.encode_frame(&[&l, &l]).unwrap().len(), 2);
    }

    #[test]
    fn zero_channels_rejected() {
        let config = SystemConfig::paper_default();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        assert!(MultiChannelEncoder::new(&config, cb, 0).is_err());
    }
}
