//! The solver-mode taxonomy for per-mode iteration accounting.
//!
//! The decoder can solve a packet three different ways; the registry
//! keeps one iteration histogram per mode so the iteration savings of the
//! block-sparse path stay visible next to the cold/warm baselines
//! (`cs_solver_iterations{mode=…}`).
//! Like [`Stage`](crate::Stage), the set is closed and array-indexed.

/// How the decoder solved a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverMode {
    /// Plain FISTA from the zero start (no usable warm seed).
    Cold,
    /// Warm-started FISTA from the previous window's estimate.
    Warm,
    /// Block-sparse FISTA: the group prox over wavelet-tree groups.
    Block,
}

impl SolverMode {
    /// Number of modes (the registry's per-mode array length).
    pub const COUNT: usize = 3;

    /// Every mode, in escalation order.
    pub const ALL: [SolverMode; SolverMode::COUNT] = [
        SolverMode::Cold,
        SolverMode::Warm,
        SolverMode::Block,
    ];

    /// Dense index into per-mode arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used as the Prometheus `mode` label and
    /// the JSON-Lines key.
    pub fn name(self) -> &'static str {
        match self {
            SolverMode::Cold => "cold",
            SolverMode::Warm => "warm",
            SolverMode::Block => "block",
        }
    }
}

impl std::fmt::Display for SolverMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, mode) in SolverMode::ALL.iter().enumerate() {
            assert_eq!(mode.index(), i);
        }
        assert_eq!(SolverMode::ALL.len(), SolverMode::COUNT);
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut names: Vec<&str> = SolverMode::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SolverMode::COUNT);
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }
}
