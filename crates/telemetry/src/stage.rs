//! The pipeline stage taxonomy.
//!
//! One label per distinct unit of work in the encode → transport → decode
//! path (Fig. 1 of the paper plus the fleet's hand-offs). The set is closed
//! and small on purpose: per-stage storage in the registry is a fixed
//! array indexed by [`Stage::index`], so adding a stage is one line in
//! the declaration below and costs one histogram.

label_set! {
    /// A pipeline stage, in wire order.
    pub enum Stage("stage") {
        /// Mote: the sparse binary CS projection `y = Φx` (integer
        /// gather-add).
        SensingProjection => "sensing_projection",
        /// Mote: inter-packet redundancy removal — the packet's kind and
        /// its adaptive gain shift.
        DiffEncode => "diff_encode",
        /// Mote: entropy coding — a delta's differences quantized (DPCM),
        /// Huffman-coded and packed in one pass — or the raw reference
        /// write.
        HuffmanEncode => "huffman_encode",
        /// Mote: wire assembly — header, payload finalization, lane tagging
        /// and frame windowing.
        Packetize => "packetize",
        /// Coordinator: entropy decode of the payload back into symbols.
        HuffmanDecode => "huffman_decode",
        /// Coordinator: redundancy reinsertion (DPCM accumulation back to the
        /// measurement vector).
        DiffDecode => "diff_decode",
        /// Coordinator: the FISTA solve of Eq. (3) — the dominant cost; its
        /// per-solve iteration count and final residual additionally land in
        /// the event journal.
        FistaSolve => "fista_solve",
        /// Coordinator: the inverse wavelet transform `x̂ = Ψᵀα` back to
        /// samples.
        WaveletSynthesis => "wavelet_synthesis",
        /// Ingest: putting a frame back in its lane's wire order — one
        /// reorder-buffer push per frame, and the end-of-input flush of a
        /// lane that still has frames staged.
        Reassembly => "reassembly",
        /// Ingest: frame validation (magic/version/CRC/kind) before any
        /// payload byte is interpreted.
        IngestValidate => "ingest_validate",
        /// Coordinator: re-synthesizing a lost window from the previous
        /// window's retained wavelet coefficients.
        Concealment => "concealment",
        /// Archive: appending one wire frame to the durable segmented store
        /// (write-before-decode, so the span sits ahead of IngestValidate on
        /// the archived path).
        ArchiveAppend => "archive_append",
        /// Archive: reading frames back out of the store for decode-on-read
        /// replay (recovery scan, index seek and record iteration).
        ArchiveReplay => "archive_replay",
        /// Fleet: time a job spent parked in the bounded worker queue between
        /// packetize/ingest and the moment a worker dequeued it — queue
        /// pressure, as distinct from solver cost.
        QueueWait => "queue_wait",
        /// Fleet: a worker's emission → `on_packet` entry (the wait for the
        /// delivery lock).
        EmitDeliver => "emit_deliver",
    }
}
