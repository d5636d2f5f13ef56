//! Gap-aware ingest: reassembly, outcome accounting and quarantine.
//!
//! Between the lossy link and the decode workers sits a small amount of
//! per-lane state that turns an unordered, gappy, duplicated wire feed
//! into the contiguous in-order packet sequence the closed-loop DPCM
//! decoder requires:
//!
//! * [`Reassembler`] — a per-(stream, lane) sequencer with a bounded
//!   reorder window. It buffers early arrivals, drops duplicates and
//!   late stragglers, and *declares* losses when the window overflows so
//!   the pipeline can conceal the gap instead of stalling forever.
//! * [`PacketOutcome`] — how each emitted window was produced (decoded,
//!   concealed, quarantined), so PRD accounting downstream can separate
//!   true reconstruction error from concealment.
//! * [`QuarantineRing`] — a bounded ring of offending frames kept for
//!   postmortem; old offenders are evicted, never the pipeline stalled.
//! * [`FaultStats`] — the exact bookkeeping the chaos tests assert over:
//!   every frame pushed at ingest is counted in precisely one terminal
//!   bucket.

use std::collections::BTreeMap;
use std::ops::AddAssign;

/// Default reorder window: how many out-of-order frames a lane buffers
/// before declaring the missing sequence numbers lost.
pub const DEFAULT_REORDER_WINDOW: usize = 8;

/// Largest gap the reassembler will conceal packet-by-packet; beyond
/// this it resynchronizes (jumps its cursor) instead of emitting an
/// unbounded run of concealed windows.
pub const MAX_LOSS_BURST: u64 = 32;

/// How each emitted window was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketOutcome {
    /// Decoded normally from received bytes.
    Decoded,
    /// Samples re-synthesized from the previous window's coefficients.
    Concealed(ConcealmentReason),
    /// The frame poisoned its decoder (error or panic); the emitted
    /// samples are concealment placeholders and the offending bytes were
    /// quarantined for postmortem.
    Quarantined,
}

/// Why a window was concealed rather than decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConcealmentReason {
    /// The frame never arrived (declared lost by the reorder window).
    Loss,
    /// The frame arrived but the DPCM loop had lost synchronization
    /// (e.g. a delta packet after a concealed reference).
    Desync,
}

/// Event stream out of the [`Reassembler`], in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SequencedEvent<P> {
    /// The next in-order item.
    Deliver(u64, P),
    /// Sequence number declared lost; conceal this slot.
    Lost(u64),
    /// A gap larger than [`MAX_LOSS_BURST`]: the cursor jumped from
    /// `from` to `to` without per-slot concealment. The DPCM loop must
    /// desynchronize.
    Resync {
        /// First missing sequence number.
        from: u64,
        /// Sequence number emission resumes at.
        to: u64,
    },
}

/// Why [`Reassembler::push`] refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushReject {
    /// Same sequence number already buffered or already emitted recently
    /// enough to still be in the window.
    Duplicate,
    /// Arrived after its slot was already emitted (decoded or concealed).
    Late,
}

/// Per-lane sequencer with a bounded reorder window.
///
/// Sequence numbers are expected to start at 0 and be dense on the
/// sender side; the wire may drop, duplicate and reorder them.
#[derive(Debug)]
pub struct Reassembler<P> {
    next: u64,
    window: usize,
    pending: BTreeMap<u64, P>,
}

impl<P> Reassembler<P> {
    /// Creates a sequencer expecting sequence 0 first. A zero window is
    /// clamped to 1 (pure in-order mode: any gap is an immediate loss).
    pub fn new(window: usize) -> Self {
        Reassembler {
            next: 0,
            window: window.max(1),
            pending: BTreeMap::new(),
        }
    }

    /// Sequence number the lane will emit next.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Number of frames buffered out of order.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Offers one arrived frame; appends emission events to `out`.
    ///
    /// Returns `Err` for frames that will never be emitted (duplicates
    /// and late stragglers); the caller counts them. `Ok(())` means the
    /// frame was either delivered immediately or buffered.
    pub fn push(
        &mut self,
        seq: u64,
        item: P,
        out: &mut Vec<SequencedEvent<P>>,
    ) -> Result<(), PushReject> {
        if seq < self.next {
            return Err(PushReject::Late);
        }
        if self.pending.contains_key(&seq) {
            return Err(PushReject::Duplicate);
        }
        self.pending.insert(seq, item);
        self.drain(out);
        Ok(())
    }

    /// Emits everything still buffered, concealing interior gaps, and
    /// leaves the lane empty. Call at end of stream.
    pub fn flush(&mut self, out: &mut Vec<SequencedEvent<P>>) {
        while let Some((seq, item)) = self.pending.pop_first() {
            self.advance_to(seq, out);
            out.push(SequencedEvent::Deliver(seq, item));
            self.next = seq + 1;
        }
    }

    /// Delivers every in-order frame, then forces losses while the
    /// buffer exceeds the reorder window.
    fn drain(&mut self, out: &mut Vec<SequencedEvent<P>>) {
        while let Some(front) = self.pending.first_entry() {
            let seq = *front.key();
            if seq == self.next {
                out.push(SequencedEvent::Deliver(seq, front.remove()));
                self.next += 1;
            } else if self.pending.len() > self.window {
                self.advance_to(seq, out);
            } else {
                break;
            }
        }
    }

    /// Moves the cursor up to `target`, emitting `Lost` per missing slot
    /// or a single `Resync` if the gap exceeds [`MAX_LOSS_BURST`].
    fn advance_to(&mut self, target: u64, out: &mut Vec<SequencedEvent<P>>) {
        debug_assert!(target >= self.next);
        let gap = target - self.next;
        if gap > MAX_LOSS_BURST {
            out.push(SequencedEvent::Resync {
                from: self.next,
                to: target,
            });
            self.next = target;
        } else {
            while self.next < target {
                out.push(SequencedEvent::Lost(self.next));
                self.next += 1;
            }
        }
    }
}

/// One quarantined frame, kept for postmortem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Fleet stream index.
    pub stream: usize,
    /// Lane (lead) tag, when the frame parsed far enough to know it.
    pub channel: Option<u8>,
    /// Wire sequence number, when known.
    pub seq: Option<u64>,
    /// The offending frame bytes as received.
    pub bytes: Vec<u8>,
    /// Human-readable cause (decode error or panic payload).
    pub cause: String,
}

/// Bounded ring of [`QuarantineRecord`]s: oldest offenders are evicted
/// so a pathological link cannot grow memory without bound.
#[derive(Debug)]
pub struct QuarantineRing {
    records: Vec<QuarantineRecord>,
    capacity: usize,
    evicted: u64,
}

/// Default quarantine capacity.
pub const DEFAULT_QUARANTINE_CAPACITY: usize = 32;

impl QuarantineRing {
    /// Creates a ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        QuarantineRing {
            records: Vec::new(),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    /// Adds a record, evicting the oldest if full.
    pub fn push(&mut self, record: QuarantineRecord) {
        if self.records.len() == self.capacity {
            self.records.remove(0);
            self.evicted += 1;
        }
        self.records.push(record);
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> &[QuarantineRecord] {
        &self.records
    }

    /// How many records were evicted to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Consumes the ring, returning held records oldest first.
    pub fn into_records(self) -> Vec<QuarantineRecord> {
        self.records
    }
}

impl Default for QuarantineRing {
    fn default() -> Self {
        QuarantineRing::new(DEFAULT_QUARANTINE_CAPACITY)
    }
}

/// Ingest/supervision accounting of one [`WireCore`](crate::WireCore), or
/// of a fleet run's cores summed.
///
/// Two identities hold after a flush (and the chaos tests assert them):
///
/// ```text
/// frames == frame_rejects + duplicates + late
///           + decoded + concealed_desync + quarantined
/// emitted windows == decoded + concealed_loss + concealed_desync + quarantined
/// ```
///
/// (`concealed_loss` windows never correspond to an arrived frame, which
/// is why it appears only in the second identity.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames offered at ingest (arrived over the wire).
    pub frames: u64,
    /// Frames rejected before reassembly (framing/CRC failures); these
    /// carry no trustworthy stream/seq identity.
    pub frame_rejects: u64,
    /// Frames dropped as duplicates of a buffered sequence number.
    pub duplicates: u64,
    /// Frames that arrived after their slot was already emitted.
    pub late: u64,
    /// Gap bursts larger than [`MAX_LOSS_BURST`] handled by cursor jump.
    pub resyncs: u64,
    /// Windows decoded normally.
    pub decoded: u64,
    /// Windows concealed because the frame never arrived.
    pub concealed_loss: u64,
    /// Windows concealed because the DPCM loop was desynchronized.
    pub concealed_desync: u64,
    /// Windows whose frame was quarantined (decode error or panic).
    pub quarantined: u64,
    /// Workers restarted with a fresh workspace after a panic.
    pub worker_restarts: u64,
    /// Solves stopped at the iteration budget without converging.
    pub deadline_degraded: u64,
}

impl FaultStats {
    /// Total concealed windows (loss + desync).
    pub fn concealed(&self) -> u64 {
        self.concealed_loss + self.concealed_desync
    }

    /// Total emitted windows: `decoded + concealed + quarantined`.
    pub fn delivered(&self) -> u64 {
        self.decoded + self.concealed() + self.quarantined
    }
}

/// Sums the accounting of two cores (a fleet's workers, at join).
impl AddAssign for FaultStats {
    fn add_assign(&mut self, other: FaultStats) {
        self.frames += other.frames;
        self.frame_rejects += other.frame_rejects;
        self.duplicates += other.duplicates;
        self.late += other.late;
        self.resyncs += other.resyncs;
        self.decoded += other.decoded;
        self.concealed_loss += other.concealed_loss;
        self.concealed_desync += other.concealed_desync;
        self.quarantined += other.quarantined;
        self.worker_restarts += other.worker_restarts;
        self.deadline_degraded += other.deadline_degraded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliveries(events: &[SequencedEvent<u64>]) -> Vec<u64> {
        events
            .iter()
            .filter_map(|e| match e {
                SequencedEvent::Deliver(s, _) => Some(*s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn in_order_passthrough() {
        let mut r = Reassembler::new(4);
        let mut out = Vec::new();
        for seq in 0..5 {
            r.push(seq, seq, &mut out).unwrap();
        }
        assert_eq!(deliveries(&out), vec![0, 1, 2, 3, 4]);
        assert_eq!(out.len(), 5, "no loss/resync events");
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reorder_within_window_is_healed() {
        let mut r = Reassembler::new(4);
        let mut out = Vec::new();
        for seq in [1, 0, 3, 2] {
            r.push(seq, seq, &mut out).unwrap();
        }
        assert_eq!(deliveries(&out), vec![0, 1, 2, 3]);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn window_overflow_declares_loss() {
        let mut r = Reassembler::new(2);
        let mut out = Vec::new();
        // seq 0 never arrives; 1..=3 overflow the 2-frame window.
        r.push(1, 1, &mut out).unwrap();
        r.push(2, 2, &mut out).unwrap();
        assert!(out.is_empty(), "still within window");
        r.push(3, 3, &mut out).unwrap();
        assert_eq!(
            out,
            vec![
                SequencedEvent::Lost(0),
                SequencedEvent::Deliver(1, 1),
                SequencedEvent::Deliver(2, 2),
                SequencedEvent::Deliver(3, 3),
            ]
        );
    }

    #[test]
    fn duplicates_and_late_frames_rejected() {
        let mut r = Reassembler::new(4);
        let mut out = Vec::new();
        r.push(0, 0, &mut out).unwrap();
        r.push(2, 2, &mut out).unwrap();
        assert_eq!(r.push(2, 2, &mut out), Err(PushReject::Duplicate));
        assert_eq!(r.push(0, 0, &mut out), Err(PushReject::Late));
        r.push(1, 1, &mut out).unwrap();
        assert_eq!(deliveries(&out), vec![0, 1, 2]);
    }

    #[test]
    fn flush_conceals_interior_gaps_only() {
        let mut r = Reassembler::new(8);
        let mut out = Vec::new();
        r.push(0, 0, &mut out).unwrap();
        r.push(2, 2, &mut out).unwrap();
        r.push(5, 5, &mut out).unwrap();
        r.flush(&mut out);
        assert_eq!(
            out,
            vec![
                SequencedEvent::Deliver(0, 0),
                SequencedEvent::Lost(1),
                SequencedEvent::Deliver(2, 2),
                SequencedEvent::Lost(3),
                SequencedEvent::Lost(4),
                SequencedEvent::Deliver(5, 5),
            ]
        );
        assert_eq!(r.next_seq(), 6, "tail losses are NOT declared by flush");
    }

    #[test]
    fn huge_gap_resyncs_instead_of_flooding() {
        let mut r = Reassembler::new(1);
        let mut out = Vec::new();
        let far = MAX_LOSS_BURST + 100;
        r.push(far, far, &mut out).unwrap();
        r.push(far + 1, far + 1, &mut out).unwrap();
        assert_eq!(
            out,
            vec![
                SequencedEvent::Resync { from: 0, to: far },
                SequencedEvent::Deliver(far, far),
                SequencedEvent::Deliver(far + 1, far + 1),
            ]
        );
    }

    /// Reference model of one lane: the sorted sequence numbers it holds
    /// and its cursor. Returns what a push delivers, oldest first.
    fn model_push(
        next: &mut u64,
        held: &mut Vec<u64>,
        window: usize,
        seq: u64,
    ) -> Result<Vec<u64>, PushReject> {
        if seq < *next {
            return Err(PushReject::Late);
        }
        if held.contains(&seq) {
            return Err(PushReject::Duplicate);
        }
        held.push(seq);
        held.sort_unstable();
        let mut delivered = Vec::new();
        while held.first().is_some_and(|&front| front == *next || held.len() > window) {
            *next = held[0] + 1; // whatever lies below the front is given up
            delivered.push(held.remove(0));
        }
        Ok(delivered)
    }

    proptest::proptest! {
        #[test]
        fn prop_reassembler_matches_the_reference_model(
            window in 0_usize..6,
            ops in proptest::collection::vec((0_u8..6, 0_u64..64), 0..160),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let mut lane = Reassembler::new(window);
            let window = window.max(1);
            let (mut next, mut held) = (0_u64, Vec::new());
            let mut sender = 0_u64; // the mote's own cursor
            let mut pushed = Vec::new();
            let mut accepted = Vec::new(); // (seq, payload) the lane took
            let mut out = Vec::new();
            for (payload, (kind, arg)) in (0_u64..).zip(ops) {
                let seq = match kind {
                    // In order.
                    0 | 1 => { sender += 1; sender - 1 }
                    // Dropped on the wire: never pushed.
                    2 => { sender += 1 + arg % 3; continue }
                    // A repeat of something sent before: duplicate or late.
                    3 if !pushed.is_empty() => pushed[arg as usize % pushed.len()],
                    // Ahead of the cursor, inside or beyond the window; the
                    // sender catches up later, so these come out reordered.
                    4 => sender + arg % 12,
                    // Far enough ahead to force a resync.
                    _ => { sender += MAX_LOSS_BURST + arg; sender }
                };
                pushed.push(seq);
                let before = out.len();
                let verdict = lane.push(seq, payload, &mut out);
                let expected = model_push(&mut next, &mut held, window, seq);
                prop_assert_eq!(verdict.err(), expected.as_ref().err().copied());
                if verdict.is_ok() {
                    accepted.push((seq, payload));
                }
                prop_assert_eq!(deliveries(&out[before..]), expected.unwrap_or_default());
                prop_assert!(lane.pending() <= window, "lane holds {}", lane.pending());
                prop_assert_eq!(lane.pending(), held.len());
                prop_assert_eq!(lane.next_seq(), next);
            }
            lane.flush(&mut out);
            prop_assert_eq!(lane.pending(), 0);

            // The events tile [0, next_seq) with no overlap and no hole…
            let mut cursor = 0_u64;
            let mut delivered = Vec::new();
            for event in out {
                match event {
                    SequencedEvent::Deliver(seq, payload) => {
                        prop_assert_eq!(seq, cursor);
                        delivered.push((seq, payload));
                        cursor += 1;
                    }
                    SequencedEvent::Lost(seq) => {
                        prop_assert_eq!(seq, cursor);
                        cursor += 1;
                    }
                    SequencedEvent::Resync { from, to } => {
                        prop_assert_eq!(from, cursor);
                        prop_assert!(to - from > MAX_LOSS_BURST);
                        cursor = to;
                    }
                }
            }
            prop_assert_eq!(cursor, lane.next_seq());
            // …and every accepted frame came out exactly once, as pushed.
            accepted.sort_unstable();
            prop_assert_eq!(delivered, accepted);
        }
    }

    #[test]
    fn quarantine_ring_bounds_memory() {
        let mut ring = QuarantineRing::new(2);
        for i in 0..5_u64 {
            ring.push(QuarantineRecord {
                stream: i as usize,
                channel: None,
                seq: Some(i),
                bytes: vec![],
                cause: "test".into(),
            });
        }
        assert_eq!(ring.records().len(), 2);
        assert_eq!(ring.evicted(), 3);
        assert_eq!(ring.records()[0].stream, 3, "oldest evicted first");
    }

    #[test]
    fn fault_counters_snapshot() {
        // Two cores' counts, summed the way `run_fleet` merges its workers.
        let mut s = FaultStats { frames: 1, decoded: 1, ..FaultStats::default() };
        s += FaultStats { frames: 1, concealed_loss: 1, quarantined: 1, ..FaultStats::default() };
        assert_eq!(s.frames, 2);
        assert_eq!(s.delivered(), 3);
        assert_eq!(s.concealed(), 1);
    }
}
