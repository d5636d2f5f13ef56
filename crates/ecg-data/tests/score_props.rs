//! Property tests for [`score_detections`], the scoring primitive every
//! accuracy gate in the workspace leans on (`tests/system_sim.rs`, the
//! `arrhythmia_monitor` example, the clinical parity suite).
//!
//! The properties pin the scorer's edge behaviour: empty inputs,
//! duplicate and near-duplicate detections, and the exact inclusive
//! tolerance boundary. A scorer that silently shifted its boundary by
//! one sample or double-counted duplicates would inflate every
//! downstream sensitivity/PPV claim without failing a single
//! integration test — these properties make that a loud failure.

use cs_ecg_data::{score_detections, BeatAnnotation, BeatType};
use proptest::prelude::*;

fn annotate(samples: &[usize]) -> Vec<BeatAnnotation> {
    samples
        .iter()
        .map(|&sample| BeatAnnotation { sample, beat: BeatType::Normal })
        .collect()
}

/// Strictly increasing beat positions from per-beat jitters, spaced at
/// least `2 * gap + 1` apart so tolerance windows up to `gap` never
/// overlap between adjacent beats.
fn space_beats(jitters: &[usize], gap: usize) -> Vec<usize> {
    let mut pos = 100usize;
    jitters
        .iter()
        .map(|&j| {
            pos += 2 * gap + 1 + j;
            pos
        })
        .collect()
}

proptest! {
    /// Empty truth or empty detections score (0, 0) — never NaN, never
    /// a division by zero, regardless of the other side's contents.
    #[test]
    fn empty_sets_score_zero(
        samples in proptest::collection::vec(0usize..100_000, 0..30),
        tolerance in 0usize..50,
    ) {
        let truth = annotate(&samples);
        prop_assert_eq!(score_detections(&truth, &[], tolerance), (0.0, 0.0));
        prop_assert_eq!(score_detections(&[], &samples, tolerance), (0.0, 0.0));
        prop_assert_eq!(score_detections(&[], &[], tolerance), (0.0, 0.0));
    }

    /// Both scores live in [0, 1] for arbitrary unsorted, duplicated
    /// inputs, and detecting the exact truth positions scores (1, 1).
    #[test]
    fn scores_are_probabilities_and_exact_match_is_perfect(
        samples in proptest::collection::vec(0usize..100_000, 1..40),
        detections in proptest::collection::vec(0usize..100_000, 1..40),
        tolerance in 0usize..100,
    ) {
        let truth = annotate(&samples);
        let (se, ppv) = score_detections(&truth, &detections, tolerance);
        prop_assert!((0.0..=1.0).contains(&se), "sensitivity {}", se);
        prop_assert!((0.0..=1.0).contains(&ppv), "predictivity {}", ppv);
        prop_assert_eq!(score_detections(&truth, &samples, tolerance), (1.0, 1.0));
    }

    /// Duplicating every detection changes neither score: sensitivity
    /// only asks whether each beat has *a* match, and PPV counts matched
    /// detections proportionally, so clones cancel out.
    #[test]
    fn duplicate_detections_do_not_move_the_scores(
        jitters in proptest::collection::vec(0usize..30, 1..12),
        copies in 2usize..5,
        tolerance in 0usize..30,
    ) {
        let beats = space_beats(&jitters, 30);
        let truth = annotate(&beats);
        let detections: Vec<usize> = beats.iter().map(|&b| b + tolerance / 2).collect();
        let (se1, ppv1) = score_detections(&truth, &detections, tolerance);
        let cloned: Vec<usize> = detections
            .iter()
            .flat_map(|&d| std::iter::repeat_n(d, copies))
            .collect();
        let (se2, ppv2) = score_detections(&truth, &cloned, tolerance);
        prop_assert_eq!(se1, se2);
        prop_assert_eq!(ppv1, ppv2);
    }

    /// Near-duplicate peaks — a clone jittered inside the tolerance
    /// window — are still matched detections: sensitivity and PPV both
    /// stay 1.0. Jittered just *outside*, the clone is a false positive:
    /// sensitivity holds at 1.0 and PPV drops to exactly 1/2.
    #[test]
    fn near_duplicates_split_on_the_tolerance_boundary(
        jitters in proptest::collection::vec(0usize..40, 1..10),
        tolerance in 1usize..20,
    ) {
        let beats = space_beats(&jitters, 2 * 20 + 40);
        let truth = annotate(&beats);
        let inside: Vec<usize> = beats
            .iter()
            .flat_map(|&b| [b, b + tolerance])
            .collect();
        prop_assert_eq!(score_detections(&truth, &inside, tolerance), (1.0, 1.0));

        let outside: Vec<usize> = beats
            .iter()
            .flat_map(|&b| [b, b + tolerance + 1])
            .collect();
        let (se, ppv) = score_detections(&truth, &outside, tolerance);
        prop_assert_eq!(se, 1.0);
        prop_assert!((ppv - 0.5).abs() < 1e-12, "ppv {}", ppv);
    }

    /// The tolerance window is inclusive and symmetric: an offset of
    /// exactly `tolerance` (either side) is a hit, `tolerance + 1` is a
    /// miss — for every beat, not just in aggregate.
    #[test]
    fn tolerance_boundary_is_inclusive_and_symmetric(
        jitters in proptest::collection::vec(0usize..40, 1..10),
        tolerance in 0usize..20,
        late in any::<bool>(),
    ) {
        let beats = space_beats(&jitters, 2 * 21 + 40);
        let truth = annotate(&beats);
        let on_edge: Vec<usize> = beats
            .iter()
            .map(|&b| if late { b + tolerance } else { b - tolerance })
            .collect();
        prop_assert_eq!(score_detections(&truth, &on_edge, tolerance), (1.0, 1.0));

        let past_edge: Vec<usize> = beats
            .iter()
            .map(|&b| if late { b + tolerance + 1 } else { b - tolerance - 1 })
            .collect();
        prop_assert_eq!(score_detections(&truth, &past_edge, tolerance), (0.0, 0.0));
    }

    /// Widening the tolerance never lowers either score.
    #[test]
    fn scores_are_monotone_in_tolerance(
        samples in proptest::collection::vec(0usize..10_000, 1..25),
        detections in proptest::collection::vec(0usize..10_000, 1..25),
        tolerance in 0usize..40,
        widen in 1usize..40,
    ) {
        let truth = annotate(&samples);
        let (se1, ppv1) = score_detections(&truth, &detections, tolerance);
        let (se2, ppv2) = score_detections(&truth, &detections, tolerance + widen);
        prop_assert!(se2 >= se1, "sensitivity fell {} -> {}", se1, se2);
        prop_assert!(ppv2 >= ppv1, "predictivity fell {} -> {}", ppv1, ppv2);
    }
}
