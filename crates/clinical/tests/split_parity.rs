//! The detector's output must not depend on how its input is cut.
//!
//! `push_window` runs the pipeline a block at a time and scans once per
//! block; a window of one sample, of exactly the FIR's reach, of a packet
//! ± 1, or longer than every ring the detector owns must all yield the
//! same detections — the same sample indices *and* the same crest bits —
//! as the per-sample detector it replaced (kept as a reference model in
//! `src/reference.rs`, included here), as feeding the record one `push`
//! at a time, and the same indices as the offline `detect_r_peaks` over
//! the whole record.

use cs_clinical::{QrsDetection, StreamingQrsDetector};
use cs_ecg_data::{
    detect_r_peaks, resample_360_to_256, EcgModel, EcgModelConfig, QrsDetectorConfig,
};
use proptest::prelude::*;

#[path = "../src/reference.rs"]
mod reference;

/// Window lengths that sit on an edge: one sample, the FIR's 31 taps and
/// its neighbours, the block size and its neighbours, a packet ± 1, and
/// two that outrun the rings (1 024 slots at either sample rate).
const EDGES: [usize; 13] = [1, 2, 30, 31, 32, 63, 64, 65, 511, 512, 513, 1025, 2000];

fn detections(
    signal: &[f64],
    config: QrsDetectorConfig,
    mut next_len: impl FnMut() -> usize,
) -> Vec<(usize, u64)> {
    let mut det = StreamingQrsDetector::new(config);
    let mut out: Vec<QrsDetection> = Vec::new();
    let mut rest = signal;
    while !rest.is_empty() {
        let (window, tail) = rest.split_at(next_len().min(rest.len()));
        det.push_window(window, &mut out);
        rest = tail;
    }
    det.flush(&mut out);
    out.iter().map(|d| (d.sample, d.crest.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_split_detects_what_per_sample_pushes_detect(
        seed in 0u64..1_000,
        at_256 in any::<bool>(),
        pvc in 0.0f64..0.2,
        cuts in proptest::collection::vec((any::<bool>(), 0usize..EDGES.len(), 1usize..=2000), 1..24),
    ) {
        let mut model = EcgModelConfig::default();
        model.rhythm.pvc_probability = pvc;
        let (at_360, _) = EcgModel::new(model, seed).synthesize(24.0);
        let (signal, config) = match at_256 {
            true => (resample_360_to_256(&at_360), QrsDetectorConfig::at_256_hz()),
            false => (at_360, QrsDetectorConfig::at_360_hz()),
        };

        let expected = reference::detect(&signal, config).beats;
        // (An early PVC can leave the thresholds high for the whole
        // record; parity holds for those too, so they stay in.)
        prop_assert!(!expected.is_empty(), "nothing detected");

        let mut per_sample = StreamingQrsDetector::new(config);
        let mut out = Vec::new();
        for &x in &signal {
            per_sample.push(x, &mut out);
        }
        per_sample.flush(&mut out);
        let pushed: Vec<(usize, u64)> =
            out.iter().map(|d| (d.sample, d.crest.to_bits())).collect();
        prop_assert_eq!(&pushed, &expected);

        let offline = detect_r_peaks(&signal, &config);
        let samples: Vec<usize> = expected.iter().map(|&(sample, _)| sample).collect();
        prop_assert_eq!(&samples, &offline);

        // The drawn cuts, cycled until the record runs out.
        let mut drawn = cuts.iter().cycle();
        let split = detections(&signal, config, || {
            let &(edge, which, free) = drawn.next().expect("cycle of a non-empty list");
            if edge { EDGES[which] } else { free }
        });
        prop_assert_eq!(&split, &expected);

        // And every edge length on its own, the whole record included.
        for len in EDGES.into_iter().chain([signal.len()]) {
            prop_assert_eq!(&detections(&signal, config, || len), &expected, "windows of {}", len);
        }
    }
}
