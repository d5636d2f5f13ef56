//! The archive operation taxonomy.
//!
//! One label per distinct durable-store operation, mirroring the shape of
//! [`crate::FaultKind`]: a closed, small set whose per-op storage in the
//! registry is a fixed atomic-counter array indexed by
//! [`ArchiveOp::index`], so counting an operation is one relaxed
//! increment and the exporters can always emit the full family
//! (`cs_archive_total{op=…}`).

label_set! {
    /// A durable-store operation, in lifecycle order (write → seal → recover
    /// → read → retire).
    pub enum ArchiveOp("op") {
        /// One wire frame appended to a segment.
        Append => "append",
        /// One segment sealed (footer + sparse index written) at rotation or
        /// close.
        Seal => "seal",
        /// One segment recovery-scanned at open (the unsealed-tail path).
        Recover => "recover",
        /// One torn tail record truncated during a recovery scan.
        TornTail => "torn_tail",
        /// One frame yielded by a replay iterator.
        Replay => "replay",
        /// One segment deleted by retention compaction.
        Compact => "compact",
    }
}
