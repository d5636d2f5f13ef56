//! Closed-loop adaptive fidelity: clinical state steers encode config.
//!
//! The power story of compressed sensing is spending as few measurement
//! bits as possible — but the clinical story (the reason the monitor
//! exists) is not missing the arrhythmia. This module reconciles the two
//! the way "Energy Efficient Telemonitoring of Physiological Signals via
//! Compressed Sensing" suggests: run the mote at an aggressive
//! compression ratio while the rhythm is unremarkable, and drop to a
//! diagnostic-fidelity configuration (lower CR, differencing disabled so
//! every packet stands alone) the moment the analysis layer flags the
//! patient. A quiet holdoff later, the aggressive tier is restored.
//!
//! ## Wire self-description
//!
//! Changing CR mid-stream changes `M`, and the decoder must agree on `M`
//! before it can even entropy-decode a payload. Rather than widening the
//! wire format, the tier is self-describing: every tier switch starts
//! with a forced *reference* packet, reference payloads are exactly
//! `M × 16` bits, and the schedule guarantees the tiers' `M` values are
//! distinct — so the reference's size alone names the tier. Delta packets
//! then stick with the last announced tier (the diagnostic tier never
//! emits deltas; its reference interval is 1).
//!
//! Sequence numbers stay monotonic across switches — the encoder owns a
//! per-lead wire counter independent of the per-tier lanes — so
//! reassembly dedup and loss accounting keep working through a tier
//! change.

use crate::config::SystemConfig;
use crate::decoder::{DecodedPacket, Decoder, SolverPolicy};
use crate::encoder::Encoder;
use crate::error::PipelineError;
use crate::multichannel::ChannelPacket;
use crate::packet::PacketKind;
use cs_codec::Codebook;
use cs_dsp::Real;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Bits per raw measurement in reference packets (must match the
/// encoder's wire layout: a reference payload is `M × 16` bits).
const REFERENCE_VALUE_BITS: usize = 16;

/// A fidelity tier the adaptive loop can place a patient in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FidelityTier {
    /// Steady-state tier: aggressive CR, differencing enabled. The
    /// power-optimal configuration for an unremarkable rhythm.
    Routine,
    /// Escalated tier: lower CR for reconstruction headroom and
    /// differencing disabled (reference interval 1) so every packet is
    /// independently decodable while the rhythm is abnormal.
    Diagnostic,
}

impl FidelityTier {
    /// Number of tiers (array sizing).
    pub const COUNT: usize = 2;

    /// Every tier, routine first.
    pub const ALL: [FidelityTier; FidelityTier::COUNT] =
        [FidelityTier::Routine, FidelityTier::Diagnostic];

    /// Dense index into per-tier arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name for reports and exports.
    pub fn name(self) -> &'static str {
        match self {
            FidelityTier::Routine => "routine",
            FidelityTier::Diagnostic => "diagnostic",
        }
    }
}

impl std::fmt::Display for FidelityTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The pre-agreed pair of configurations both sides run. Like
/// [`SystemConfig`] itself, the schedule is shared out of band; only the
/// *current tier* travels on the wire (implicitly, via reference-packet
/// size).
#[derive(Debug, Clone)]
pub struct FidelitySchedule {
    configs: [SystemConfig; FidelityTier::COUNT],
}

impl FidelitySchedule {
    /// Derives the diagnostic tier from a routine configuration: same N,
    /// wavelet, seed, and alphabet, but `diagnostic_cr` percent
    /// compression and differencing disabled (reference interval 1).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] if the diagnostic CR is
    /// not *below* the routine CR, if the derived configuration is
    /// structurally invalid, or if the two tiers would share a
    /// measurement count (which would break wire self-description).
    pub fn new(routine: &SystemConfig, diagnostic_cr: f64) -> Result<Self, PipelineError> {
        if diagnostic_cr >= routine.compression_ratio() {
            return Err(PipelineError::InvalidConfig(format!(
                "diagnostic CR {diagnostic_cr} must be below routine CR {}",
                routine.compression_ratio()
            )));
        }
        let diagnostic = SystemConfig::builder()
            .packet_len(routine.packet_len())
            .compression_ratio(diagnostic_cr)
            .sparse_ones_per_column(routine.sparse_ones_per_column())
            .seed(routine.seed())
            .wavelet(routine.wavelet_family())
            .levels(routine.levels())
            .reference_interval(1)
            .alphabet(routine.alphabet())
            .sample_bits(routine.sample_bits())
            .build()?;
        if diagnostic.measurements() == routine.measurements() {
            return Err(PipelineError::InvalidConfig(format!(
                "tiers share M = {}; reference size cannot name the tier",
                routine.measurements()
            )));
        }
        Ok(FidelitySchedule {
            configs: [routine.clone(), diagnostic],
        })
    }

    /// The configuration a tier runs.
    pub fn config(&self, tier: FidelityTier) -> &SystemConfig {
        &self.configs[tier.index()]
    }

    /// Names the tier whose reference packets carry `m` measurements, if
    /// any — the receive-side half of wire self-description.
    pub fn tier_for_measurements(&self, m: usize) -> Option<FidelityTier> {
        FidelityTier::ALL
            .into_iter()
            .find(|&t| self.configs[t.index()].measurements() == m)
    }
}

/// Shared per-patient tier cells: the feedback plumbing between the
/// clinical analysis layer (writer) and the adaptive encoders (readers).
/// Cheap to clone; all clones observe the same cells.
#[derive(Debug, Clone)]
pub struct TierController {
    tiers: Arc<[AtomicUsize]>,
    escalations: Arc<AtomicU64>,
    restorations: Arc<AtomicU64>,
}

impl TierController {
    /// Builds a controller for `patients` streams, all starting Routine.
    pub fn new(patients: usize) -> Self {
        TierController {
            tiers: (0..patients).map(|_| AtomicUsize::new(0)).collect(),
            escalations: Arc::new(AtomicU64::new(0)),
            restorations: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of streams the controller tracks.
    pub fn patients(&self) -> usize {
        self.tiers.len()
    }

    /// Sets a patient's tier; counts the transition if it changed.
    /// Out-of-range streams are ignored (a late feedback message for a
    /// departed patient must not panic the analysis thread).
    pub fn set_tier(&self, stream: usize, tier: FidelityTier) {
        let Some(cell) = self.tiers.get(stream) else {
            return;
        };
        let prev = cell.swap(tier.index(), Ordering::Relaxed);
        if prev != tier.index() {
            match tier {
                FidelityTier::Diagnostic => self.escalations.fetch_add(1, Ordering::Relaxed),
                FidelityTier::Routine => self.restorations.fetch_add(1, Ordering::Relaxed),
            };
        }
    }

    /// A patient's current tier (Routine for out-of-range streams).
    pub fn tier(&self, stream: usize) -> FidelityTier {
        match self.tiers.get(stream).map(|c| c.load(Ordering::Relaxed)) {
            Some(1) => FidelityTier::Diagnostic,
            _ => FidelityTier::Routine,
        }
    }

    /// Routine→Diagnostic transitions observed so far.
    pub fn escalations(&self) -> u64 {
        self.escalations.load(Ordering::Relaxed)
    }

    /// Diagnostic→Routine transitions observed so far.
    pub fn restorations(&self) -> u64 {
        self.restorations.load(Ordering::Relaxed)
    }
}

/// A tier-change notice from the clinical layer to the encode side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClinicalFeedback {
    /// Patient stream the notice applies to.
    pub stream: usize,
    /// The tier the patient should run from now on.
    pub tier: FidelityTier,
}

/// Mote-side adaptive encoder: per-lead, per-tier [`Encoder`] lanes
/// behind one per-lead monotonic wire sequence.
///
/// # Examples
///
/// ```
/// use cs_core::{uniform_codebook, AdaptiveEncoder, FidelitySchedule, FidelityTier, SystemConfig};
/// use std::sync::Arc;
///
/// let routine = SystemConfig::builder().compression_ratio(75.0).build()?;
/// let schedule = FidelitySchedule::new(&routine, 50.0)?;
/// let codebook = Arc::new(uniform_codebook(routine.alphabet())?);
/// let mut enc = AdaptiveEncoder::new(schedule, codebook, 1)?;
///
/// let quiet = vec![0_i16; 512];
/// let p0 = enc.encode_packet(0, &quiet)?;          // routine reference
/// enc.set_tier(FidelityTier::Diagnostic);           // clinical escalation
/// let p1 = enc.encode_packet(0, &quiet)?;          // diagnostic reference
/// assert!(p1.packet.payload_bits > p0.packet.payload_bits);
/// assert_eq!(p1.packet.index, 1);                   // sequence survives the switch
/// # Ok::<(), cs_core::PipelineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveEncoder {
    schedule: FidelitySchedule,
    /// `lanes[channel][tier]`.
    lanes: Vec<[Encoder; FidelityTier::COUNT]>,
    wire_seq: Vec<u64>,
    tier: FidelityTier,
    switches: u64,
}

impl AdaptiveEncoder {
    /// Builds `channels` leads, each with one encoder lane per tier, all
    /// sharing one codebook. Starts in [`FidelityTier::Routine`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] for zero channels and
    /// propagates per-lane construction failures.
    pub fn new(
        schedule: FidelitySchedule,
        codebook: Arc<Codebook>,
        channels: usize,
    ) -> Result<Self, PipelineError> {
        if channels == 0 {
            return Err(PipelineError::InvalidConfig("zero channels".into()));
        }
        let mut lanes = Vec::with_capacity(channels);
        for _ in 0..channels {
            lanes.push([
                Encoder::new(schedule.config(FidelityTier::Routine), Arc::clone(&codebook))?,
                Encoder::new(
                    schedule.config(FidelityTier::Diagnostic),
                    Arc::clone(&codebook),
                )?,
            ]);
        }
        Ok(AdaptiveEncoder {
            schedule,
            lanes,
            wire_seq: vec![0; channels],
            tier: FidelityTier::Routine,
            switches: 0,
        })
    }

    /// The schedule both sides agreed on.
    pub fn schedule(&self) -> &FidelitySchedule {
        &self.schedule
    }

    /// Number of leads.
    pub fn channels(&self) -> usize {
        self.lanes.len()
    }

    /// The tier currently encoding.
    pub fn tier(&self) -> FidelityTier {
        self.tier
    }

    /// Tier switches performed so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Moves every lead to `tier`. On a change, the destination lanes are
    /// forced to re-anchor: their next packet is a reference, which both
    /// announces the new tier on the wire (by size) and gives the decoder
    /// a fresh delta base. A no-op when already in `tier`.
    pub fn set_tier(&mut self, tier: FidelityTier) {
        if tier == self.tier {
            return;
        }
        for lanes in &mut self.lanes {
            lanes[tier.index()].force_reference();
        }
        self.tier = tier;
        self.switches += 1;
    }

    /// Encodes one packet for `channel` at the current tier. The emitted
    /// packet's `index` is the lead's wire sequence (monotonic across
    /// tier switches), not the per-tier lane counter.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] for an unknown channel
    /// and propagates encode failures.
    pub fn encode_packet(
        &mut self,
        channel: usize,
        samples: &[i16],
    ) -> Result<ChannelPacket, PipelineError> {
        let tier = self.tier;
        let lane = self
            .lanes
            .get_mut(channel)
            .ok_or_else(|| PipelineError::InvalidConfig(format!("unknown channel {channel}")))?;
        let mut packet = lane[tier.index()].encode_packet(samples)?;
        packet.index = self.wire_seq[channel];
        self.wire_seq[channel] += 1;
        Ok(ChannelPacket {
            channel: channel as u8,
            packet,
        })
    }
}

/// Coordinator-side adaptive decoder: per-lead, per-tier [`Decoder`]
/// lanes that follow tier switches announced by reference-packet size.
#[derive(Debug)]
pub struct AdaptiveDecoder<T: Real> {
    schedule: FidelitySchedule,
    /// `lanes[channel][tier]`.
    lanes: Vec<[Decoder<T>; FidelityTier::COUNT]>,
    current: Vec<FidelityTier>,
}

impl<T: Real> AdaptiveDecoder<T> {
    /// Builds `channels` leads, each with one decoder lane per tier.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] for zero channels and
    /// propagates per-lane construction failures.
    pub fn new(
        schedule: FidelitySchedule,
        codebook: Arc<Codebook>,
        policy: SolverPolicy<T>,
        channels: usize,
    ) -> Result<Self, PipelineError> {
        if channels == 0 {
            return Err(PipelineError::InvalidConfig("zero channels".into()));
        }
        let mut lanes = Vec::with_capacity(channels);
        for _ in 0..channels {
            lanes.push([
                Decoder::new(
                    schedule.config(FidelityTier::Routine),
                    Arc::clone(&codebook),
                    policy,
                )?,
                Decoder::new(
                    schedule.config(FidelityTier::Diagnostic),
                    Arc::clone(&codebook),
                    policy,
                )?,
            ]);
        }
        Ok(AdaptiveDecoder {
            schedule,
            lanes,
            current: vec![FidelityTier::Routine; channels],
        })
    }

    /// The tier a lead's stream is currently in.
    pub fn tier(&self, channel: usize) -> FidelityTier {
        self.current.get(channel).copied().unwrap_or(FidelityTier::Routine)
    }

    /// Decodes one tagged packet, following tier announcements.
    ///
    /// A reference packet's payload size names its tier (`M × 16` bits,
    /// distinct per tier by schedule construction); an unrecognized size
    /// is rejected as malformed. Delta packets decode at the lead's
    /// current tier.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::MalformedPacket`] for unknown lanes or
    /// unrecognized reference sizes, and propagates decode failures.
    pub fn decode(
        &mut self,
        packet: &ChannelPacket,
    ) -> Result<(FidelityTier, DecodedPacket<T>), PipelineError> {
        let ch = packet.channel as usize;
        if ch >= self.lanes.len() {
            return Err(PipelineError::MalformedPacket(format!(
                "unknown channel {ch}"
            )));
        }
        if packet.packet.kind == PacketKind::Reference {
            let m = packet.packet.payload_bits / REFERENCE_VALUE_BITS;
            let tier = self.schedule.tier_for_measurements(m).ok_or_else(|| {
                PipelineError::MalformedPacket(format!(
                    "reference with {m} measurements matches no scheduled tier"
                ))
            })?;
            self.current[ch] = tier;
        }
        let tier = self.current[ch];
        let out = self.lanes[ch][tier.index()].decode_packet(&packet.packet)?;
        Ok((tier, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::uniform_codebook;
    use cs_metrics::prd;

    fn lead(phase: f64) -> Vec<i16> {
        (0..512)
            .map(|i| {
                let t = i as f64 / 512.0;
                (600.0 * (-((t - 0.4 + phase) * 25.0).powi(2)).exp()) as i16
            })
            .collect()
    }

    fn schedule() -> FidelitySchedule {
        let routine = SystemConfig::builder()
            .compression_ratio(75.0)
            .build()
            .unwrap();
        FidelitySchedule::new(&routine, 50.0).unwrap()
    }

    fn setup(channels: usize) -> (AdaptiveEncoder, AdaptiveDecoder<f64>) {
        let sched = schedule();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        (
            AdaptiveEncoder::new(sched.clone(), Arc::clone(&cb), channels).unwrap(),
            AdaptiveDecoder::new(sched, cb, SolverPolicy::default(), channels).unwrap(),
        )
    }

    #[test]
    fn schedule_validates_tier_separation() {
        let routine = SystemConfig::paper_default(); // CR 50
        assert!(FidelitySchedule::new(&routine, 50.0).is_err());
        assert!(FidelitySchedule::new(&routine, 75.0).is_err());
        let sched = FidelitySchedule::new(&routine, 25.0).unwrap();
        assert_eq!(sched.config(FidelityTier::Diagnostic).reference_interval(), 1);
        assert_eq!(
            sched.tier_for_measurements(sched.config(FidelityTier::Routine).measurements()),
            Some(FidelityTier::Routine)
        );
        assert_eq!(
            sched.tier_for_measurements(sched.config(FidelityTier::Diagnostic).measurements()),
            Some(FidelityTier::Diagnostic)
        );
        assert_eq!(sched.tier_for_measurements(7), None);
    }

    #[test]
    fn tier_switch_round_trips_with_monotonic_sequence() {
        let (mut enc, mut dec) = setup(1);
        let x = lead(0.0);
        let truth: Vec<f64> = x.iter().map(|&v| v as f64).collect();

        let mut seqs = Vec::new();
        for step in 0..8 {
            match step {
                3 => enc.set_tier(FidelityTier::Diagnostic),
                6 => enc.set_tier(FidelityTier::Routine),
                _ => {}
            }
            let p = enc.encode_packet(0, &x).unwrap();
            seqs.push(p.packet.index);
            let (tier, out) = dec.decode(&p).unwrap();
            let want = if (3..6).contains(&step) {
                FidelityTier::Diagnostic
            } else {
                FidelityTier::Routine
            };
            assert_eq!(tier, want, "step {step}");
            assert!(prd(&truth, &out.samples) < 30.0, "step {step}");
        }
        assert_eq!(seqs, (0..8).collect::<Vec<u64>>());
        assert_eq!(enc.switches(), 2);
    }

    #[test]
    fn diagnostic_tier_reconstructs_tighter() {
        let (mut enc, mut dec) = setup(1);
        let x = lead(0.0);
        let truth: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let (_, routine) = dec.decode(&enc.encode_packet(0, &x).unwrap()).unwrap();
        enc.set_tier(FidelityTier::Diagnostic);
        let (_, diagnostic) = dec.decode(&enc.encode_packet(0, &x).unwrap()).unwrap();
        assert!(
            prd(&truth, &diagnostic.samples) < prd(&truth, &routine.samples),
            "diagnostic {} vs routine {}",
            prd(&truth, &diagnostic.samples),
            prd(&truth, &routine.samples)
        );
    }

    /// One policy, two stop tolerances: each tier's decoder resolves
    /// `StopRule::Calibrated` at its own CR. The routine lane (CR 75 %)
    /// keeps 5·10⁻⁵ and decodes to the bits an explicit 5·10⁻⁵ gives; the
    /// diagnostic lane (CR 50 %) stops at 1.5·10⁻⁴, sooner.
    #[test]
    fn each_tier_stops_at_its_own_tolerance() {
        use crate::decoder::StopRule;

        let (mut enc, mut dec) = setup(1);
        let [routine, diagnostic] = &dec.lanes[0];
        assert_eq!(*routine.policy(), *diagnostic.policy());
        assert_eq!((routine.tolerance(), diagnostic.tolerance()), (5e-5, 1.5e-4));

        let explicit = |tier, tolerance| {
            let policy = SolverPolicy { tolerance: StopRule::RelativeStep(tolerance), ..SolverPolicy::default() };
            let cb = Arc::new(uniform_codebook(512).unwrap());
            Decoder::<f64>::new(schedule().config(tier), cb, policy).unwrap()
        };
        let x = lead(0.0);
        let p = enc.encode_packet(0, &x).unwrap();
        let (_, out) = dec.decode(&p).unwrap();
        let pinned = explicit(FidelityTier::Routine, 5e-5).decode_packet(&p.packet).unwrap();
        assert_eq!((out.iterations, &out.samples), (pinned.iterations, &pinned.samples));

        enc.set_tier(FidelityTier::Diagnostic);
        let p = enc.encode_packet(0, &x).unwrap();
        let (tier, out) = dec.decode(&p).unwrap();
        assert_eq!(tier, FidelityTier::Diagnostic);
        let loose = explicit(tier, 1.5e-4).decode_packet(&p.packet).unwrap();
        let tight = explicit(tier, 5e-5).decode_packet(&p.packet).unwrap();
        assert_eq!((out.iterations, &out.samples), (loose.iterations, &loose.samples));
        assert!(out.iterations < tight.iterations, "{} vs {}", out.iterations, tight.iterations);
    }

    #[test]
    fn returning_to_a_tier_reanchors_differencing() {
        let (mut enc, mut dec) = setup(2);
        let x = lead(0.0);
        // Build routine delta state on both leads, bounce to diagnostic
        // and back; the re-entered routine tier must lead with a
        // reference (decodable with no delta base).
        for _ in 0..2 {
            for ch in 0..2 {
                dec.decode(&enc.encode_packet(ch, &x).unwrap()).unwrap();
            }
        }
        enc.set_tier(FidelityTier::Diagnostic);
        for ch in 0..2 {
            dec.decode(&enc.encode_packet(ch, &x).unwrap()).unwrap();
        }
        enc.set_tier(FidelityTier::Routine);
        for ch in 0..2 {
            let p = enc.encode_packet(ch, &x).unwrap();
            assert_eq!(p.packet.kind, PacketKind::Reference, "lead {ch}");
            dec.decode(&p).unwrap();
        }
    }

    #[test]
    fn unscheduled_reference_size_rejected() {
        let (mut enc, mut dec) = setup(1);
        let mut p = enc.encode_packet(0, &lead(0.0)).unwrap();
        assert_eq!(p.packet.kind, PacketKind::Reference);
        p.packet.payload_bits -= 16; // one measurement short of any tier
        assert!(matches!(
            dec.decode(&p),
            Err(PipelineError::MalformedPacket(_))
        ));
    }

    #[test]
    fn controller_counts_transitions_and_ignores_strays() {
        let ctl = TierController::new(2);
        assert_eq!(ctl.tier(0), FidelityTier::Routine);
        ctl.set_tier(0, FidelityTier::Diagnostic);
        ctl.set_tier(0, FidelityTier::Diagnostic); // no-op
        ctl.set_tier(1, FidelityTier::Diagnostic);
        ctl.set_tier(0, FidelityTier::Routine);
        assert_eq!(ctl.tier(0), FidelityTier::Routine);
        assert_eq!(ctl.tier(1), FidelityTier::Diagnostic);
        assert_eq!(ctl.escalations(), 2);
        assert_eq!(ctl.restorations(), 1);
        // Out-of-range stream: ignored, not a panic.
        ctl.set_tier(9, FidelityTier::Diagnostic);
        assert_eq!(ctl.tier(9), FidelityTier::Routine);
        assert_eq!(ctl.escalations(), 2);
    }

    #[test]
    fn zero_channels_rejected() {
        let sched = schedule();
        let cb = Arc::new(uniform_codebook(512).unwrap());
        assert!(AdaptiveEncoder::new(sched.clone(), Arc::clone(&cb), 0).is_err());
        assert!(
            AdaptiveDecoder::<f64>::new(sched, cb, SolverPolicy::default(), 0).is_err()
        );
    }
}
