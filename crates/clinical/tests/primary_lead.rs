//! Only the primary lead is analysed: once a patient has started, no
//! window on any other lead changes what the engine reports.
//!
//! A four-lead engine (primary lead 0 or 2) is fed each patient's
//! primary windows with any number of other-lead windows — any outcome,
//! any samples — interleaved between them; a one-lead engine is fed the
//! primary windows alone. Events, the QRS confusion counts,
//! `cs_alarm_suppressed_total` and the fidelity tiers must agree after
//! every packet and after `finish`.

use cs_clinical::{ClinicalConfig, ClinicalEngine, ClinicalEvent};
use cs_core::{
    ConcealmentReason, DecodedPacket, FidelityTier, FleetPacket, PacketOutcome, TierController,
};
use cs_telemetry::{FamilyId, TelemetryRegistry};
use proptest::prelude::*;

const PATIENTS: usize = 2;
const LEADS: u8 = 4;
const WINDOW: usize = 512;
/// The pulse's crest sits this far after its beat position.
const CREST: usize = 20;

/// RR intervals (samples at 256 Hz) a primary window may carry: sinus,
/// critical tachycardia, critical bradycardia, and none (silence).
const RHYTHMS: [Option<usize>; 4] = [Some(213), Some(96), Some(480), None];

fn arrival(selector: u8) -> PacketOutcome {
    match selector {
        0 => PacketOutcome::Concealed(ConcealmentReason::Loss),
        1 => PacketOutcome::Concealed(ConcealmentReason::Desync),
        2 => PacketOutcome::Quarantined,
        _ => PacketOutcome::Decoded,
    }
}

fn emit(stream: usize, channel: u8, outcome: PacketOutcome, samples: Vec<f64>) -> FleetPacket<f64> {
    let packet = DecodedPacket { samples, ..DecodedPacket::default() };
    FleetPacket { stream, channel, outcome, e2e: None, packet }
}

/// A pulse train with one rhythm per window, and its crest positions.
fn primary_signal(rhythms: &[u8], phase: usize) -> (Vec<f64>, Vec<usize>) {
    let n = rhythms.len() * WINDOW;
    let mut samples: Vec<f64> = (0..n).map(|i| 8.0 * (i as f64 * 0.01).sin()).collect();
    let mut beats = Vec::new();
    let mut next = phase;
    for (w, &r) in rhythms.iter().enumerate() {
        let end = (w + 1) * WINDOW;
        match RHYTHMS[r as usize] {
            Some(rr) => {
                while next < end {
                    beats.push(next);
                    next += rr;
                }
            }
            None => next = next.max(end),
        }
    }
    for &b in &beats {
        for (i, s) in samples.iter_mut().enumerate().skip(b).take(2 * CREST) {
            let phase = (i - b) as f64 - CREST as f64;
            *s += 400.0 * (-phase * phase / 6.0).exp();
        }
    }
    (samples, beats.iter().map(|b| b + CREST).collect())
}

/// Whatever another lead might carry: pulses at an unrelated rate, or
/// a flat line.
fn other_samples(seed: u64) -> Vec<f64> {
    let rr = 60 + (seed % 400) as usize;
    let gain = (seed >> 16) % 3;
    (0..WINDOW)
        .map(|i| {
            let phase = (i % rr) as f64 - 10.0;
            gain as f64 * 300.0 * (-phase * phase / 4.0).exp()
        })
        .collect()
}

struct Side {
    engine: ClinicalEngine,
    telemetry: TelemetryRegistry,
    tiers: TierController,
    events: Vec<ClinicalEvent>,
}

impl Side {
    fn new(primary_lead: u8, channels: usize) -> Self {
        let telemetry = TelemetryRegistry::new();
        let config = ClinicalConfig { primary_lead, ..ClinicalConfig::at_256_hz() };
        let mut engine = ClinicalEngine::new(config, PATIENTS, channels, telemetry.clone());
        let tiers = TierController::new(PATIENTS);
        engine.set_tier_controller(tiers.clone());
        Side { engine, telemetry, tiers, events: Vec::new() }
    }

    /// What the property compares.
    fn observed(&self) -> (Vec<ClinicalEvent>, (u64, u64, u64), u64, Vec<FidelityTier>) {
        (
            self.events.clone(),
            self.telemetry.qrs_confusion(),
            self.telemetry.snapshot().total(FamilyId::AlarmSuppressed),
            (0..PATIENTS).map(|p| self.tiers.tier(p)).collect(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn other_leads_change_nothing(
        primary_is_2 in any::<bool>(),
        windows in proptest::collection::vec((0u8..4, 0u8..10), 4..28),
        extras in proptest::collection::vec((any::<u16>(), 0u8..3, 0u8..4, any::<u64>()), 0..64),
    ) {
        let primary = if primary_is_2 { 2 } else { 0 };
        let mut wide = Side::new(primary, LEADS as usize);
        let mut lone = Side::new(0, 1);
        let rhythms: Vec<u8> = windows.iter().map(|w| w.0).collect();
        let signals: Vec<(Vec<f64>, Vec<usize>)> =
            (0..PATIENTS).map(|p| primary_signal(&rhythms, 37 * p)).collect();
        for (p, (_, truth)) in signals.iter().enumerate() {
            wide.engine.set_ground_truth(p, truth.clone(), 13);
            lone.engine.set_ground_truth(p, truth.clone(), 13);
        }
        let others: Vec<u8> = (0..LEADS).filter(|&l| l != primary).collect();
        // Every extra packet follows one primary packet (its slot).
        let slots = windows.len() * PATIENTS;
        let mut extras: Vec<_> = extras
            .into_iter()
            .map(|(at, lead, arrival, seed)| (at as usize % slots, lead, arrival, seed))
            .collect();
        extras.sort_by_key(|e| e.0);
        let mut extras = extras.into_iter().peekable();
        let mut slot = 0usize;

        for (w, &(_, arrival_sel)) in windows.iter().enumerate() {
            for (p, (signal, _)) in signals.iter().enumerate() {
                // Each patient's first window is decoded, so both engines
                // have started the patient before any other lead arrives.
                let outcome = if w == 0 { PacketOutcome::Decoded } else { arrival(arrival_sel) };
                let samples = if outcome == PacketOutcome::Decoded {
                    signal[w * WINDOW..(w + 1) * WINDOW].to_vec()
                } else {
                    vec![0.0; WINDOW]
                };
                wide.engine.on_packet(&emit(p, primary, outcome, samples.clone()), &mut wide.events);
                lone.engine.on_packet(&emit(p, 0, outcome, samples), &mut lone.events);
                // Any patient started by now may receive the extra.
                while let Some((_, lead, extra_arrival, seed)) = extras.next_if(|e| e.0 == slot) {
                    let stream = if slot == 0 { 0 } else { seed as usize % PATIENTS };
                    let pkt = emit(stream, others[lead as usize], arrival(extra_arrival), other_samples(seed));
                    wide.engine.on_packet(&pkt, &mut wide.events);
                }
                slot += 1;
                prop_assert_eq!(wide.observed(), lone.observed(), "after window {} of patient {}", w, p);
            }
        }
        wide.engine.finish(&mut wide.events);
        lone.engine.finish(&mut lone.events);
        prop_assert_eq!(wide.observed(), lone.observed(), "after finish");
        prop_assert!(
            lone.events.iter().any(|e| matches!(e, ClinicalEvent::Beat { .. })),
            "no beat was classified: the property compared nothing"
        );
    }
}
