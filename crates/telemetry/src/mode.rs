//! The solver-mode taxonomy for per-mode iteration accounting.
//!
//! The decoder can solve a packet three different ways; the registry
//! keeps one iteration histogram per mode so the iteration savings of the
//! block-sparse path stay visible next to the cold/warm baselines
//! (`cs_solver_iterations{mode=…}`).
//! Like [`Stage`](crate::Stage), the set is closed and array-indexed.

label_set! {
    /// How the decoder solved a packet.
    pub enum SolverMode("mode") {
        /// Plain FISTA from the zero start (no usable warm seed).
        Cold => "cold",
        /// Warm-started FISTA from the previous window's estimate.
        Warm => "warm",
        /// Block-sparse FISTA: the group prox over wavelet-tree groups.
        Block => "block",
    }
}
