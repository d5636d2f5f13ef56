//! Pipeline-level error type.

use cs_codec::CodecError;
use cs_dsp::DspError;
use cs_sensing::SensingError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the end-to-end CS-ECG pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// A configuration combination was structurally invalid.
    InvalidConfig(String),
    /// A packet of samples had the wrong length.
    PacketLength {
        /// Configured packet length N.
        expected: usize,
        /// Supplied length.
        actual: usize,
    },
    /// A received packet could not be parsed (framing corruption).
    MalformedPacket(String),
    /// An error bubbled up from the DSP substrate.
    Dsp(DspError),
    /// An error bubbled up from the sensing substrate.
    Sensing(SensingError),
    /// An error bubbled up from the entropy-coding substrate.
    Codec(CodecError),
    /// A wire decode run failed; the whole run is torn down.
    Fleet {
        /// Stream whose packet triggered the failure, if attributable.
        stream: Option<usize>,
        /// Human-readable cause (decode error text or "worker panicked").
        cause: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PipelineError::PacketLength { expected, actual } => {
                write!(f, "packet has {actual} samples, configured for {expected}")
            }
            PipelineError::MalformedPacket(msg) => write!(f, "malformed packet: {msg}"),
            PipelineError::Dsp(e) => write!(f, "dsp: {e}"),
            PipelineError::Sensing(e) => write!(f, "sensing: {e}"),
            PipelineError::Codec(e) => write!(f, "codec: {e}"),
            PipelineError::Fleet { stream: Some(s), cause } => {
                write!(f, "fleet worker failed on stream {s}: {cause}")
            }
            PipelineError::Fleet { stream: None, cause } => {
                write!(f, "fleet worker failed: {cause}")
            }
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Dsp(e) => Some(e),
            PipelineError::Sensing(e) => Some(e),
            PipelineError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DspError> for PipelineError {
    fn from(e: DspError) -> Self {
        PipelineError::Dsp(e)
    }
}

impl From<SensingError> for PipelineError {
    fn from(e: SensingError) -> Self {
        PipelineError::Sensing(e)
    }
}

impl From<CodecError> for PipelineError {
    fn from(e: CodecError) -> Self {
        PipelineError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = PipelineError::PacketLength {
            expected: 512,
            actual: 100,
        };
        assert!(e.to_string().contains("512"));
        assert!(e.source().is_none());

        let e: PipelineError = CodecError::InvalidCodeword.into();
        assert!(e.to_string().starts_with("codec:"));
        assert!(e.source().is_some());
    }

    #[test]
    fn send_sync() {
        fn check<T: std::error::Error + Send + Sync>() {}
        check::<PipelineError>();
    }
}
