//! Closed label sets: one declaration per set.
//!
//! Every labelled family in this crate is labelled by a small closed enum
//! — a [`Stage`](crate::Stage), a [`FaultKind`](crate::FaultKind) — so the
//! registry can back it with a fixed array indexed by the enum and
//! recording stays one relaxed atomic op. `label_set!` is where such an
//! enum is declared: each variant carries its doc comment and its wire
//! name on one line, and the macro derives what the registry, the
//! [family table](crate::family) and the exporters need (`COUNT`, `ALL`,
//! `index`, `name`, `Display`, the [`Label`] impl). A new value is one line.

/// A closed, densely indexed set of label values.
///
/// Implemented by `label_set!` only; the laws every implementation obeys
/// (`VALUES[v.index()] == v`, unique snake_case names) are checked once,
/// generically, in this module's tests.
pub trait Label: Copy + Eq + std::fmt::Debug + 'static {
    /// The Prometheus label key the set is exported under (`stage`,
    /// `kind`, …).
    const KEY: &'static str;
    /// Every value, in declaration order.
    const VALUES: &'static [Self];
    /// The wire names, parallel to [`Label::VALUES`].
    const NAMES: &'static [&'static str];

    /// Dense index into per-value arrays and into [`Label::NAMES`].
    fn index(self) -> usize;
}

/// Declares a label enum: `Variant => "wire_name"` per line, the
/// Prometheus label key in parentheses after the enum's name.
macro_rules! label_set {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident($key:literal) {
            $( $(#[$vmeta:meta])* $variant:ident => $wire:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        $vis enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// Number of values (the length of every per-value array).
            pub const COUNT: usize = <$name as $crate::label::Label>::NAMES.len();

            /// Every value, in declaration order.
            pub const ALL: [$name; $name::COUNT] = [$($name::$variant),+];

            /// Dense index into per-value arrays.
            #[inline]
            pub const fn index(self) -> usize {
                self as usize
            }

            /// Stable snake_case wire name: the Prometheus label value.
            pub const fn name(self) -> &'static str {
                <$name as $crate::label::Label>::NAMES[self as usize]
            }
        }

        impl $crate::label::Label for $name {
            const KEY: &'static str = $key;
            const VALUES: &'static [Self] = &Self::ALL;
            const NAMES: &'static [&'static str] = &[$($wire),+];

            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::Label;
    use crate::{
        AlarmKind, ArchiveOp, BeatClass, FaultKind, HealthState, IngestDisconnect, IngestState,
        ScrapeEndpoint, SolverMode, Stage,
    };

    fn snake_case(s: &str) -> bool {
        !s.is_empty() && s.chars().all(|c| c.is_ascii_lowercase() || c == '_')
    }

    /// The laws behind array-indexed storage and stable wire names.
    fn obeys_the_label_laws<L: Label>() {
        assert!(snake_case(L::KEY), "{}", L::KEY);
        assert_eq!(L::VALUES.len(), L::NAMES.len());
        for (i, value) in L::VALUES.iter().enumerate() {
            assert_eq!(value.index(), i, "{value:?} is out of declaration order");
            assert!(snake_case(L::NAMES[i]), "{value:?} is named `{}`", L::NAMES[i]);
        }
        let mut names = L::NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), L::VALUES.len(), "duplicate wire name in `{}`", L::KEY);
    }

    #[test]
    fn every_label_set_is_dense_ordered_and_uniquely_named() {
        obeys_the_label_laws::<Stage>();
        obeys_the_label_laws::<SolverMode>();
        obeys_the_label_laws::<FaultKind>();
        obeys_the_label_laws::<ArchiveOp>();
        obeys_the_label_laws::<BeatClass>();
        obeys_the_label_laws::<AlarmKind>();
        obeys_the_label_laws::<IngestState>();
        obeys_the_label_laws::<IngestDisconnect>();
        obeys_the_label_laws::<ScrapeEndpoint>();
        obeys_the_label_laws::<HealthState>();
        // The inherent constants callers use without importing the trait
        // are the same data.
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        assert_eq!(&Stage::ALL[..], <Stage as Label>::VALUES);
        assert_eq!(Stage::FistaSolve.name(), "fista_solve");
        assert_eq!(Stage::EmitDeliver.to_string(), "emit_deliver");
    }
}
