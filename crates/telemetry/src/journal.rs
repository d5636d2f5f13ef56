//! The bounded event journal: per-packet convergence traces.
//!
//! Aggregate histograms answer "where does time go"; the journal answers
//! "what did packet 17 of stream 3 *do*" — iteration count, final
//! residual, warm-start acceptance — for the most recent window of
//! traffic. It is a bounded ring: a full journal overwrites its oldest
//! trace and counts the loss, and a contended journal drops the incoming
//! trace and counts that too. Pushing therefore **never blocks** a decode
//! worker and never grows memory; fidelity is sacrificed instead, and the
//! sacrifice is visible in [`Journal::dropped`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One solver invocation's convergence record.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveTrace {
    /// Fleet stream index (0 outside the fleet engine).
    pub stream: u32,
    /// Lead index within the stream.
    pub channel: u8,
    /// Packet sequence index within the stream.
    pub seq: u64,
    /// FISTA iterations spent.
    pub iterations: u32,
    /// Final residual norm `‖Aα − y‖₂`.
    pub residual: f64,
    /// Wall-clock solve time in nanoseconds.
    pub solve_ns: u64,
    /// Whether the solve was seeded from a prior estimate.
    pub warm_started: bool,
    /// Whether a stopping criterion fired before the iteration cap.
    pub converged: bool,
}

/// A bounded, never-blocking ring buffer of [`SolveTrace`]s with
/// drop/overflow accounting.
///
/// # Examples
///
/// ```
/// use cs_telemetry::{Journal, SolveTrace};
///
/// let journal = Journal::new(2);
/// for seq in 0..3 {
///     journal.push(SolveTrace { seq, ..SolveTrace::default() });
/// }
/// assert_eq!(journal.pushed(), 3);
/// assert_eq!(journal.dropped(), 1); // oldest overwritten
/// let kept: Vec<u64> = journal.drain().iter().map(|t| t.seq).collect();
/// assert_eq!(kept, [1, 2]);
/// ```
#[derive(Debug)]
pub struct Journal {
    ring: Mutex<VecDeque<SolveTrace>>,
    capacity: usize,
    pushed: AtomicU64,
    dropped: AtomicU64,
}

impl Journal {
    /// A journal holding at most `capacity` traces (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Journal {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            pushed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends a trace without ever blocking the caller: a full ring
    /// evicts its oldest trace (counted in [`Journal::dropped`]); a ring
    /// whose lock is momentarily held by another thread drops the
    /// incoming trace instead (also counted).
    pub fn push(&self, trace: SolveTrace) {
        self.pushed.fetch_add(1, Ordering::Relaxed);
        match self.ring.try_lock() {
            Ok(mut ring) => {
                if ring.len() == self.capacity {
                    ring.pop_front();
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
                ring.push_back(trace);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Removes and returns every buffered trace, oldest first.
    pub fn drain(&self) -> Vec<SolveTrace> {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.drain(..).collect()
    }

    /// Copies the buffered traces without consuming them, oldest first.
    pub fn peek(&self) -> Vec<SolveTrace> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().copied().collect()
    }

    /// Traces currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no traces are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum traces the ring holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total traces ever offered via [`Journal::push`].
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Traces lost: ring-full evictions plus contention drops. The
    /// invariant `pushed == dropped + retained + drained` always holds.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(seq: u64) -> SolveTrace {
        SolveTrace { seq, ..SolveTrace::default() }
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let j = Journal::new(0);
        assert_eq!(j.capacity(), 1);
        j.push(trace(0));
        j.push(trace(1));
        assert_eq!(j.len(), 1);
        assert_eq!(j.drain()[0].seq, 1);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let j = Journal::new(4);
        for seq in 0..10 {
            j.push(trace(seq));
        }
        assert_eq!(j.pushed(), 10);
        assert_eq!(j.dropped(), 6);
        assert_eq!(j.len(), 4);
        let kept: Vec<u64> = j.drain().iter().map(|t| t.seq).collect();
        assert_eq!(kept, [6, 7, 8, 9]);
        // Accounting invariant: everything offered is either kept or
        // counted as dropped.
        assert_eq!(j.pushed(), j.dropped() + kept.len() as u64);
    }

    #[test]
    fn drain_empties_without_resetting_counters() {
        let j = Journal::new(8);
        j.push(trace(0));
        j.push(trace(1));
        assert_eq!(j.drain().len(), 2);
        assert!(j.is_empty());
        assert_eq!(j.pushed(), 2);
        assert_eq!(j.dropped(), 0);
        j.push(trace(2));
        assert_eq!(j.peek().len(), 1);
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn concurrent_pushes_account_for_every_trace() {
        let j = std::sync::Arc::new(Journal::new(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let j = std::sync::Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        j.push(trace(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(j.pushed(), 4000);
        // Never blocks, never loses accounting: retained + dropped covers
        // every push whether it was evicted, contended away, or kept.
        assert_eq!(j.dropped() + j.len() as u64, 4000);
    }
}
