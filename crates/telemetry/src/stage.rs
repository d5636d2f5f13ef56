//! The pipeline stage taxonomy.
//!
//! One label per distinct unit of work in the encode → transport → decode
//! path (Fig. 1 of the paper plus the fleet collector). The set is closed
//! and small on purpose: per-stage storage in the registry is a fixed
//! array indexed by [`Stage::index`], so adding a stage is a one-line
//! change here and costs one histogram.

/// A pipeline stage, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Mote: the sparse binary CS projection `y = Φx` (integer
    /// gather-add).
    SensingProjection,
    /// Mote: inter-packet redundancy removal (DPCM differencing and the
    /// adaptive gain shift).
    DiffEncode,
    /// Mote: entropy coding of the difference symbols (Huffman) or the
    /// raw reference write.
    HuffmanEncode,
    /// Mote: wire assembly — header, payload finalization, lane tagging
    /// and frame windowing.
    Packetize,
    /// Coordinator: entropy decode of the payload back into symbols.
    HuffmanDecode,
    /// Coordinator: redundancy reinsertion (DPCM accumulation back to the
    /// measurement vector).
    DiffDecode,
    /// Coordinator: the FISTA solve of Eq. (3) — the dominant cost; its
    /// per-solve iteration count and final residual additionally land in
    /// the event journal.
    FistaSolve,
    /// Coordinator: the inverse wavelet transform `x̂ = Ψᵀα` back to
    /// samples.
    WaveletSynthesis,
    /// Collector: per-stream in-order reassembly and delivery in the
    /// fleet engine.
    Reassembly,
    /// Ingest: frame validation (magic/version/CRC/kind) before any
    /// payload byte is interpreted.
    IngestValidate,
    /// Coordinator: re-synthesizing a lost window from the previous
    /// window's retained wavelet coefficients.
    Concealment,
    /// Archive: appending one wire frame to the durable segmented store
    /// (write-before-decode, so the span sits ahead of IngestValidate on
    /// the archived path).
    ArchiveAppend,
    /// Archive: reading frames back out of the store for decode-on-read
    /// replay (recovery scan, index seek and record iteration).
    ArchiveReplay,
    /// Fleet: time a job spent parked in the bounded worker queue between
    /// packetize/ingest and the moment a worker dequeued it — queue
    /// pressure, as distinct from solver cost.
    QueueWait,
    /// Collector: time between a worker finishing a packet and the
    /// in-order collector delivering it to the consumer — reorder-buffer
    /// dwell plus collector queueing.
    EmitDeliver,
}

impl Stage {
    /// Number of stages (the registry's per-stage array length).
    pub const COUNT: usize = 15;

    /// Every stage, in wire order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::SensingProjection,
        Stage::DiffEncode,
        Stage::HuffmanEncode,
        Stage::Packetize,
        Stage::HuffmanDecode,
        Stage::DiffDecode,
        Stage::FistaSolve,
        Stage::WaveletSynthesis,
        Stage::Reassembly,
        Stage::IngestValidate,
        Stage::Concealment,
        Stage::ArchiveAppend,
        Stage::ArchiveReplay,
        Stage::QueueWait,
        Stage::EmitDeliver,
    ];

    /// Dense index into per-stage arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used as the Prometheus `stage` label and
    /// the JSON-Lines `stage` field.
    pub fn name(self) -> &'static str {
        match self {
            Stage::SensingProjection => "sensing_projection",
            Stage::DiffEncode => "diff_encode",
            Stage::HuffmanEncode => "huffman_encode",
            Stage::Packetize => "packetize",
            Stage::HuffmanDecode => "huffman_decode",
            Stage::DiffDecode => "diff_decode",
            Stage::FistaSolve => "fista_solve",
            Stage::WaveletSynthesis => "wavelet_synthesis",
            Stage::Reassembly => "reassembly",
            Stage::IngestValidate => "ingest_validate",
            Stage::Concealment => "concealment",
            Stage::ArchiveAppend => "archive_append",
            Stage::ArchiveReplay => "archive_replay",
            Stage::QueueWait => "queue_wait",
            Stage::EmitDeliver => "emit_deliver",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
        for n in names {
            assert!(n
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }
}
