//! Compression and diagnostic-quality metrics (paper §III).

/// Compression ratio in percent, as defined by the paper's Eq. (7):
/// `CR = (b_orig − b_comp) / b_orig × 100`.
///
/// # Panics
///
/// Panics if `bits_original` is zero.
///
/// # Examples
///
/// ```
/// // Halving the bit budget is CR = 50 %.
/// assert_eq!(cs_metrics::compression_ratio(1024, 512), 50.0);
/// ```
pub fn compression_ratio(bits_original: u64, bits_compressed: u64) -> f64 {
    assert!(bits_original > 0, "compression_ratio: original size is zero");
    (bits_original as f64 - bits_compressed as f64) / bits_original as f64 * 100.0
}

/// Percentage root-mean-square difference between the original signal `x`
/// and its reconstruction `x̃`:
/// `PRD = ‖x − x̃‖₂ / ‖x‖₂ × 100`.
///
/// # Panics
///
/// Panics if the slices differ in length or the original signal has zero
/// energy.
///
/// # Examples
///
/// ```
/// let x = [3.0, 4.0];
/// let exact = cs_metrics::prd(&x, &x);
/// assert_eq!(exact, 0.0);
/// let off = cs_metrics::prd(&x, &[3.0, 4.5]);
/// assert!((off - 10.0).abs() < 1e-12); // ‖(0,0.5)‖/‖(3,4)‖ = 0.1
/// ```
pub fn prd(original: &[f64], reconstructed: &[f64]) -> f64 {
    assert_eq!(
        original.len(),
        reconstructed.len(),
        "prd: length mismatch"
    );
    let num: f64 = original
        .iter()
        .zip(reconstructed)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let den: f64 = original.iter().map(|a| a * a).sum();
    assert!(den > 0.0, "prd: original signal has zero energy");
    (num / den).sqrt() * 100.0
}

/// Non-panicking [`prd`]: returns `None` when the original signal has
/// zero energy (a flat-line lead, an all-zero calibration window) instead
/// of panicking, so one degenerate window can't kill a fleet report.
///
/// # Panics
///
/// Still panics on a length mismatch — that is a caller bug, not a data
/// condition.
///
/// # Examples
///
/// ```
/// let x = [3.0, 4.0];
/// assert_eq!(cs_metrics::try_prd(&x, &x), Some(0.0));
/// assert_eq!(cs_metrics::try_prd(&[0.0, 0.0], &[1.0, 1.0]), None);
/// ```
pub fn try_prd(original: &[f64], reconstructed: &[f64]) -> Option<f64> {
    assert_eq!(
        original.len(),
        reconstructed.len(),
        "try_prd: length mismatch"
    );
    let num: f64 = original
        .iter()
        .zip(reconstructed)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let den: f64 = original.iter().map(|a| a * a).sum();
    (den > 0.0).then(|| (num / den).sqrt() * 100.0)
}

/// Signal-to-noise ratio in dB from a PRD value, per the paper:
/// `SNR = −20·log₁₀(0.01·PRD)`.
///
/// Returns `f64::INFINITY` for a perfect reconstruction (`prd == 0`).
///
/// # Examples
///
/// ```
/// assert_eq!(cs_metrics::snr_from_prd(100.0), 0.0);
/// assert!((cs_metrics::snr_from_prd(10.0) - 20.0).abs() < 1e-12);
/// ```
pub fn snr_from_prd(prd: f64) -> f64 {
    if prd <= 0.0 {
        return f64::INFINITY;
    }
    -20.0 * (0.01 * prd).log10()
}

/// Output SNR in dB computed directly from signals (the quantity Fig. 2
/// plots against CR).
///
/// # Panics
///
/// Panics under the same conditions as [`prd`].
pub fn output_snr(original: &[f64], reconstructed: &[f64]) -> f64 {
    snr_from_prd(prd(original, reconstructed))
}

/// Clinical quality bands for reconstructed ECG, following the commonly
/// used Zigel et al. classification that Fig. 6's "VG"/"G" markers refer
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum DiagnosticQuality {
    /// PRD below 2 %: clinically indistinguishable from the original.
    VeryGood,
    /// PRD in `[2, 9)` %: good diagnostic quality.
    Good,
    /// PRD of 9 % or above: quality not guaranteed for diagnosis.
    NotRated,
}

impl DiagnosticQuality {
    /// Classifies a (non-mean-removed) PRD value.
    ///
    /// # Examples
    ///
    /// ```
    /// use cs_metrics::DiagnosticQuality;
    /// assert_eq!(DiagnosticQuality::from_prd(1.0), DiagnosticQuality::VeryGood);
    /// assert_eq!(DiagnosticQuality::from_prd(5.0), DiagnosticQuality::Good);
    /// assert_eq!(DiagnosticQuality::from_prd(20.0), DiagnosticQuality::NotRated);
    /// ```
    pub fn from_prd(prd: f64) -> Self {
        if prd < 2.0 {
            DiagnosticQuality::VeryGood
        } else if prd < 9.0 {
            DiagnosticQuality::Good
        } else {
            DiagnosticQuality::NotRated
        }
    }
}

impl std::fmt::Display for DiagnosticQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DiagnosticQuality::VeryGood => "very good",
            DiagnosticQuality::Good => "good",
            DiagnosticQuality::NotRated => "not rated",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cr_endpoints() {
        assert_eq!(compression_ratio(100, 100), 0.0);
        assert_eq!(compression_ratio(100, 0), 100.0);
        assert_eq!(compression_ratio(100, 25), 75.0);
        // Expansion yields negative CR, which callers may legitimately see
        // with incompressible input.
        assert_eq!(compression_ratio(100, 150), -50.0);
    }

    #[test]
    #[should_panic(expected = "original size is zero")]
    fn cr_zero_original_panics() {
        let _ = compression_ratio(0, 10);
    }

    #[test]
    fn prd_snr_round_trip() {
        for p in [0.5, 2.0, 9.0, 31.6, 100.0] {
            let s = snr_from_prd(p);
            assert!((100.0 * 10f64.powf(-s / 20.0) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn snr_perfect_is_infinite() {
        assert!(snr_from_prd(0.0).is_infinite());
        let x = [1.0, -2.0, 3.0];
        assert!(output_snr(&x, &x).is_infinite());
    }

    #[test]
    fn prd_scales_with_error() {
        let x = vec![1.0; 100];
        let y: Vec<f64> = x.iter().map(|v| v + 0.1).collect();
        assert!((prd(&x, &y) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quality_band_edges() {
        assert_eq!(DiagnosticQuality::from_prd(1.999), DiagnosticQuality::VeryGood);
        assert_eq!(DiagnosticQuality::from_prd(2.0), DiagnosticQuality::Good);
        assert_eq!(DiagnosticQuality::from_prd(8.999), DiagnosticQuality::Good);
        assert_eq!(DiagnosticQuality::from_prd(9.0), DiagnosticQuality::NotRated);
        assert_eq!(DiagnosticQuality::VeryGood.to_string(), "very good");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn prd_length_mismatch_panics() {
        let _ = prd(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "zero energy")]
    fn prd_zero_signal_panics() {
        let _ = prd(&[0.0, 0.0], &[1.0, 1.0]);
    }

    #[test]
    fn try_prd_matches_prd_on_valid_input() {
        let x = vec![1.0; 100];
        let y: Vec<f64> = x.iter().map(|v| v + 0.1).collect();
        assert_eq!(try_prd(&x, &y), Some(prd(&x, &y)));
    }

    #[test]
    fn try_prd_none_on_zero_energy() {
        assert_eq!(try_prd(&[0.0; 8], &[1.0; 8]), None);
        assert_eq!(try_prd(&[], &[]), None);
    }
}
