//! # cs-bench — the figure/table reproduction harness
//!
//! One binary per published result, and nothing else: each writes the
//! `results/<binary>.txt` of its name, which `scripts/results_check.sh`
//! regenerates (see `DESIGN.md` §3 and `EXPERIMENTS.md`):
//!
//! | binary              | paper result                                    |
//! |---------------------|-------------------------------------------------|
//! | `fig2`              | output SNR vs CR, sparse binary vs Gaussian     |
//! | `fig6`              | output PRD vs CR, 64-bit vs 32-bit decoder      |
//! | `fig7`              | mean iterations & time vs CR                    |
//! | `realtime_report`   | Fig. 8 / §V CPU-usage numbers                   |
//! | `table_encoder`     | §IV-A encode timing + memory footprint          |
//! | `table_speedup`     | §V 2.43× optimized-kernel speedup, 800→2000     |
//! | `table_lifetime`    | §V 12.9 % node-lifetime extension               |
//! | `ablation_d`        | §IV-A d = 12 trade-off knee                     |
//! | `ablation_wavelet`  | sparsifying basis: wavelet family and depth     |
//! | `ablation_analog`   | §II-A analog CS: measurement ADC resolution     |
//! | `solver_comparison` | FISTA vs ISTA vs OMP design ablation            |
//! | `baseline_dwt`      | CS vs classical DWT transform coding            |
//! | `entropy_stage`     | Huffman (paper) vs Golomb–Rice entropy coder    |
//! | `fig8_display`      | Fig. 8's live ECG display, in ASCII             |
//!
//! This library holds what they share: deterministic corpus preparation
//! (synthesize → resample to 256 Hz → quantize to signed counts) and a
//! tiny argument parser so every binary supports `--records`,
//! `--seconds` and `--full`, and [`host`], the one way a binary prints a
//! figure that depends on the machine it ran on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use cs_ecg_data::{resample_360_to_256, DatabaseConfig, SyntheticDatabase};

/// One record's mote-ready sample stream.
#[derive(Debug, Clone)]
pub struct RecordStream {
    /// Record identifier from the synthetic database.
    pub id: String,
    /// Signed, midscale-removed ADC counts at 256 Hz (channel 0).
    pub samples: Vec<i16>,
}

/// A prepared evaluation corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Prepared record streams.
    pub records: Vec<RecordStream>,
}

impl Corpus {
    /// Synthesizes and prepares `num_records` records of `duration_s`
    /// seconds each: generate at 360 Hz, resample to 256 Hz, quantize to
    /// the encoder's signed 16-bit representation.
    pub fn prepare(num_records: usize, duration_s: f64) -> Self {
        // Only channel 0 is read, and its samples do not depend on the
        // channel count.
        let db = SyntheticDatabase::new(DatabaseConfig {
            num_records,
            num_channels: 1,
            duration_s,
            ..DatabaseConfig::default()
        });
        let records = db
            .iter()
            .map(|record| {
                let mv = record.signal_mv(0);
                let at256 = resample_360_to_256(&mv);
                let adc = record.adc();
                let samples = at256
                    .iter()
                    .map(|&v| adc.to_signed(adc.quantize(v)))
                    .collect();
                RecordStream {
                    id: record.id().to_owned(),
                    samples,
                }
            })
            .collect();
        Corpus { records }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the corpus holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Harness run settings shared by all figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSettings {
    /// Records to evaluate.
    pub records: usize,
    /// Seconds per record.
    pub seconds: f64,
}

impl RunSettings {
    /// The quick default used in CI-style runs: a sample of the corpus.
    pub fn quick() -> Self {
        RunSettings {
            records: 8,
            seconds: 16.0,
        }
    }

    /// The paper-shaped run: all 48 records, one minute each (the full 30
    /// minutes per record is statistically indistinguishable for these
    /// aggregates and takes proportionally longer).
    pub fn full() -> Self {
        RunSettings {
            records: 48,
            seconds: 60.0,
        }
    }

    /// Parses `--records N`, `--seconds S` and `--full` (without the
    /// program name), starting from the quick defaults. A later
    /// `--records` or `--seconds` overrides `--full`.
    ///
    /// # Errors
    ///
    /// An unknown flag, or a flag whose value is missing or unparsable.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut settings = RunSettings::quick();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} requires a value"));
            match flag.as_str() {
                "--full" => settings = RunSettings::full(),
                "--records" => settings.records = number(&flag, value()?)?,
                "--seconds" => settings.seconds = number(&flag, value()?)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(settings)
    }

    /// [`RunSettings::parse`] over the process arguments. On an error it
    /// prints the error and the usage, and exits with status 2.
    pub fn from_args() -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        RunSettings::parse(args).unwrap_or_else(|e| {
            eprintln!("{program}: {e}\nusage: {program} [--records N] [--seconds S] [--full]");
            std::process::exit(2)
        })
    }

    /// Prepares the corpus for these settings.
    pub fn corpus(&self) -> Corpus {
        Corpus::prepare(self.records, self.seconds)
    }
}

/// A prepared linear-stage solver for one sensing configuration: the
/// Fig. 2 setting (measure `y = Φx` in floating point, recover with
/// FISTA over the spectrally deflated `Φ·Ψᵀ`), with the expensive
/// per-configuration work (power iterations) done once at construction.
pub struct LinearSolver<'a, S: cs_sensing::Sensing<f64>> {
    phi: &'a S,
    dwt: &'a cs_dsp::wavelet::Dwt<f64>,
    deflation_u: Vec<f64>,
    deflation_c: f64,
    lipschitz: f64,
}

impl<'a, S: cs_sensing::Sensing<f64>> LinearSolver<'a, S> {
    /// Plans the solver; `deflation_c = 1.0` disables deflation.
    pub fn new(phi: &'a S, dwt: &'a cs_dsp::wavelet::Dwt<f64>, deflation_c: f64) -> Self {
        use cs_recovery::{lipschitz_constant, top_singular_pair, DeflatedOperator, SynthesisOperator};
        let op = SynthesisOperator::new(phi, dwt);
        let (deflation_u, lipschitz) = if deflation_c < 1.0 {
            let (sigma, u) = top_singular_pair(&op, 150);
            let u = if sigma == 0.0 { Vec::new() } else { u };
            let deflated = DeflatedOperator::with_direction(&op, u.clone(), deflation_c);
            (u, lipschitz_constant(&deflated, 150))
        } else {
            (Vec::new(), lipschitz_constant(&op, 150))
        };
        LinearSolver {
            phi,
            dwt,
            deflation_u,
            deflation_c,
            lipschitz,
        }
    }

    /// Recovers one packet and reports quality + solver statistics.
    pub fn solve(&self, samples: &[i16]) -> LinearSolveOutcome {
        use cs_recovery::{fista, lambda_max, DeflatedOperator, ShrinkageConfig, SynthesisOperator};
        let x: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
        let y = self.phi.apply(&x);
        let op = SynthesisOperator::new(self.phi, self.dwt);
        let deflated =
            DeflatedOperator::with_direction(&op, self.deflation_u.clone(), self.deflation_c);
        let yd = deflated.transform_measurements(&y);
        let paper = cs_core::SolverPolicy::<f64>::paper();
        let cs_core::StopRule::RelativeStep(tolerance) = paper.tolerance else {
            unreachable!("SolverPolicy::paper() pins an explicit stop tolerance")
        };
        let config = ShrinkageConfig {
            lambda: paper.lambda_relative * lambda_max(&deflated, &yd),
            max_iterations: paper.max_iterations,
            tolerance,
            residual_tolerance: paper.residual_tolerance,
            kernel: paper.kernel,
            record_objective: false,
        };
        let result = fista(&deflated, &yd, &config, Some(self.lipschitz));
        let xhat = self.dwt.synthesize(&result.solution);
        LinearSolveOutcome {
            snr_db: cs_metrics::output_snr(&x, &xhat),
            prd: cs_metrics::prd(&x, &xhat),
            iterations: result.iterations,
            solve_time: result.elapsed,
        }
    }
}

/// Outcome of [`LinearSolver::solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearSolveOutcome {
    /// Output SNR in dB.
    pub snr_db: f64,
    /// PRD in percent.
    pub prd: f64,
    /// FISTA iterations.
    pub iterations: usize,
    /// Solver wall time.
    pub solve_time: std::time::Duration,
}

/// Marks a figure measured on this host — a wall-clock time, or anything
/// derived from one — by printing it in square brackets. Everything a
/// results binary prints outside brackets is deterministic, which is what
/// lets `scripts/results_check.sh` mask host figures with one rule and
/// diff the rest of `results/*.txt` byte for byte.
pub fn host(figure: impl std::fmt::Display) -> String {
    format!("[{figure}]")
}

/// `value` as the number `flag` takes.
fn number<V: std::str::FromStr>(flag: &str, value: String) -> Result<V, String>
where
    V::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value}: {e}"))
}

/// Prints the standard harness banner so outputs are self-describing.
pub fn banner(name: &str, paper_ref: &str, settings: &RunSettings) {
    println!("# {name} — reproduces {paper_ref}");
    println!(
        "# corpus: {} synthetic records × {} s (MIT-BIH-like, 2 ch, 360→256 Hz)",
        settings.records, settings.seconds
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_preparation_shapes() {
        let c = Corpus::prepare(2, 6.0);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        for r in &c.records {
            // 6 s at 256 Hz.
            assert_eq!(r.samples.len(), 1536);
            assert!(r.samples.iter().any(|&v| v != 0));
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = Corpus::prepare(1, 4.0);
        let b = Corpus::prepare(1, 4.0);
        assert_eq!(a.records[0].samples, b.records[0].samples);
    }

    #[test]
    fn settings_defaults() {
        assert_eq!(RunSettings::quick().records, 8);
        assert_eq!(RunSettings::full().records, 48);
    }

    fn parse(args: &[&str]) -> Result<RunSettings, String> {
        RunSettings::parse(args.iter().map(|&a| a.to_string()))
    }

    #[test]
    fn flags_parse_into_settings() {
        let s = parse(&["--full", "--seconds", "2.5"]).unwrap();
        assert_eq!((s.records, s.seconds), (48, 2.5));
        let s = parse(&["--records", "2", "--full", "--records", "3"]).unwrap();
        assert_eq!((s.records, s.seconds), (3, 60.0));
        assert_eq!(parse(&[]).unwrap(), RunSettings::quick());
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        assert_eq!(parse(&["--full", "--records"]).unwrap_err(), "--records requires a value");
        assert_eq!(parse(&["--seconds"]).unwrap_err(), "--seconds requires a value");
    }

    #[test]
    fn an_unparsable_value_or_unknown_flag_is_an_error() {
        let err = parse(&["--records", "two"]).unwrap_err();
        assert!(err.starts_with("--records two: "), "{err}");
        assert!(parse(&["--records", "-1"]).is_err());
        assert_eq!(parse(&["--record", "2"]).unwrap_err(), "unknown flag --record");
    }
}
