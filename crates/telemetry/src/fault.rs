//! The fault taxonomy.
//!
//! One label per way a packet can fail to decode normally on a hostile
//! wire, plus the supervision events that recover from them. Like
//! [`crate::Stage`], the set is closed and small: per-kind storage in the
//! registry is a fixed atomic-counter array indexed by
//! [`FaultKind::index`], so counting a fault is one relaxed increment.

label_set! {
    /// A fault or recovery event, in ingest order.
    pub enum FaultKind("kind") {
        /// Frame rejected at ingest (bad magic/version, CRC mismatch,
        /// truncation) before any payload byte was interpreted.
        FrameRejected => "frame_rejected",
        /// Frame dropped as a duplicate of a buffered sequence number.
        Duplicate => "duplicate",
        /// Frame arrived after its slot had already been emitted.
        Late => "late",
        /// Window concealed because its frame never arrived.
        ConcealedLoss => "concealed_loss",
        /// Window concealed because the DPCM loop lost synchronization.
        ConcealedDesync => "concealed_desync",
        /// Frame quarantined after poisoning its decoder (error or panic).
        Quarantined => "quarantined",
        /// Worker restarted with a fresh workspace after a panic.
        WorkerRestart => "worker_restart",
        /// Solve stopped at the iteration budget without converging.
        DeadlineDegraded => "deadline_degraded",
        /// Gap burst too large for per-slot concealment; cursor jumped.
        Resync => "resync",
    }
}
