//! The ingest-session taxonomy.
//!
//! Two closed label sets for the socket ingest layer: the live session
//! lifecycle states (a gauge — sessions move between them) and the
//! terminal disconnect reasons (a counter — every session ends in
//! exactly one). Like [`crate::FaultKind`], storage in the registry is a
//! fixed atomic array indexed by the enum, so recording costs one
//! relaxed atomic op.

label_set! {
    /// A live ingest session's lifecycle state (`cs_ingest_sessions` gauge).
    pub enum IngestState("state") {
        /// Connection accepted, hello not yet validated.
        Handshaking => "handshaking",
        /// Handshake accepted; frames are flowing.
        Streaming => "streaming",
        /// Server drain announced; the session is flushing and saying
        /// goodbye.
        Draining => "draining",
    }
}

label_set! {
    /// Why an ingest session ended (`cs_ingest_disconnect_total` counter).
    pub enum IngestDisconnect("reason") {
        /// The client closed its write side cleanly.
        ClientClosed => "client_closed",
        /// The server drained; the session flushed and said goodbye.
        Drained => "drained",
        /// No bytes arrived within the idle timeout.
        IdleTimeout => "idle_timeout",
        /// Bytes trickled below the read-rate floor (slow-loris eviction).
        SlowLoris => "slow_loris",
        /// The hello never completed inside the handshake deadline.
        HandshakeTimeout => "handshake_timeout",
        /// The hello was malformed (bad magic/version/CRC or an
        /// out-of-range patient or lane set).
        BadHandshake => "bad_handshake",
        /// The admission controller refused the session (shed with a typed
        /// NACK before any frame work was accepted).
        Shed => "shed",
        /// The socket failed mid-session (reset, broken pipe).
        IoError => "io_error",
    }
}
