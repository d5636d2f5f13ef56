//! Spans recorded by the harness at each layer boundary.
//!
//! Every pass performs the same operations in the same order, so the
//! i-th span of a pass is the same piece of work in every pass: the
//! first traced pass fixes the layout (name, parent, packet), later
//! passes only add their start and end. Durations go into a
//! [`PassTimings`] table, so per-layer figures follow the same
//! pass-aligned percentile rule as the end-to-end ones. Nothing is
//! allocated or written while a pass runs; the first passes' spans are
//! kept whole and written out after the last pass.

use crate::stats::{ns32, PassTimings};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Traced passes whose spans are written out (aggregates use them all).
const KEEP_PASSES: usize = 2;

/// Lane value for spans that belong to no single packet (a tick, a read).
pub const NO_LANE: u32 = u32::MAX;

/// Parentless spans with this prefix are the roots: one per timed
/// operation, covering exactly what the untraced run times. Any other
/// parentless span is work on another thread that runs alongside a root
/// (the load generator's send call); it is reported by name but is no
/// part of a packet's own timeline.
const ROOT_PREFIX: &str = "pipebench.";

struct SpanMeta {
    name: &'static str,
    parent: Option<u32>,
    lane: u32,
    seq: u32,
}

pub struct Tracer {
    capacity: usize,
    meta: Vec<SpanMeta>,
    current: Vec<(u64, u64)>,
    kept: Vec<(u64, u64)>,
    kept_passes: usize,
    durations: PassTimings,
    layout_broken: bool,
}

/// Per-name totals over one pass, from pass-aligned span durations.
pub struct Ledger {
    /// name → (Σ duration, Σ self time), nanoseconds per pass.
    pub by_name: BTreeMap<&'static str, (f64, f64)>,
    /// Σ root-span duration per pass.
    pub root_ns: f64,
    /// Share of root-span time that no child span covers.
    pub gap_share: f64,
}

impl Ledger {
    /// Σ duration of spans called `name`, per pass.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.0)
    }

    /// Σ self time (duration minus children) of spans called `name`.
    pub fn self_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.1)
    }
}

impl Tracer {
    /// Room for `capacity` spans per pass and `max_passes` traced passes.
    pub fn new(capacity: usize, max_passes: usize) -> Self {
        Tracer {
            capacity,
            meta: Vec::with_capacity(capacity),
            current: Vec::with_capacity(capacity),
            kept: Vec::with_capacity(capacity * KEEP_PASSES),
            kept_passes: 0,
            durations: PassTimings::new(capacity, max_passes),
            layout_broken: false,
        }
    }

    pub fn passes(&self) -> usize {
        self.durations.passes()
    }

    pub fn is_full(&self) -> bool {
        self.durations.is_full()
    }

    /// Records one closed span and returns its position, for children to
    /// name as their parent.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        lane: u32,
        seq: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let pos = self.current.len();
        assert!(
            pos < self.capacity,
            "tracer: span capacity {} exceeded",
            self.capacity
        );
        if self.durations.passes() == 0 {
            self.meta.push(SpanMeta {
                name,
                parent,
                lane,
                seq,
            });
        } else if self.meta.get(pos).is_none_or(|m| m.name != name) {
            self.layout_broken = true;
        }
        self.current.push((start_ns, end_ns));
        pos as u32
    }

    /// Reserves a position for a span whose end is not known yet (a
    /// parent opened before its children); close it with [`Self::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        lane: u32,
        seq: u32,
        start_ns: u64,
    ) -> u32 {
        self.span(name, parent, lane, seq, start_ns, start_ns)
    }

    pub fn close(&mut self, pos: u32, end_ns: u64) {
        self.current[pos as usize].1 = end_ns;
    }

    /// Folds the pass just traced into the duration table.
    pub fn end_pass(&mut self) -> Result<(), String> {
        if self.layout_broken || self.current.len() != self.meta.len() {
            return Err(format!(
                "traced pass recorded {} spans in a different layout from the first pass's {}",
                self.current.len(),
                self.meta.len()
            ));
        }
        let row = self.durations.next_pass();
        for (slot, &(start, end)) in row.iter_mut().zip(&self.current) {
            *slot = ns32(end.saturating_sub(start));
        }
        if self.kept_passes < KEEP_PASSES {
            self.kept.extend_from_slice(&self.current);
            self.kept_passes += 1;
        }
        self.current.clear();
        Ok(())
    }

    /// Self time = a span's duration minus what its children cover.
    pub fn ledger(&self, pct: f64) -> Ledger {
        let spans = self.meta.len();
        let low = self.durations.aligned(pct);
        let mut covered = vec![0.0f64; spans];
        for (i, m) in self.meta.iter().enumerate() {
            if let Some(p) = m.parent {
                covered[p as usize] += low[i];
            }
        }
        let mut by_name: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        let (mut root_ns, mut root_self) = (0.0, 0.0);
        for (i, m) in self.meta.iter().enumerate() {
            // Deciles of parent and children are taken independently, so
            // a fully covered parent can come out a few ns short.
            let own = (low[i] - covered[i]).max(0.0);
            let entry = by_name.entry(m.name).or_insert((0.0, 0.0));
            entry.0 += low[i];
            entry.1 += own;
            if m.parent.is_none() && m.name.starts_with(ROOT_PREFIX) {
                root_ns += low[i];
                root_self += own;
            }
        }
        Ledger {
            by_name,
            root_ns,
            gap_share: if root_ns > 0.0 {
                root_self / root_ns
            } else {
                0.0
            },
        }
    }

    /// Writes the kept passes as JSON lines:
    /// `{id, name, start_ns, end_ns, parent, packet:[pass,lane,seq]}`.
    pub fn write(&self, dir: &Path, workload: &str) -> Result<std::path::PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{workload}.spans.jsonl"));
        let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
        let spans = self.meta.len();
        for pass in 0..self.kept_passes {
            for (i, m) in self.meta.iter().enumerate() {
                let (start, end) = self.kept[pass * spans + i];
                let id = pass * spans + i;
                let parent = m.parent.map_or("null".to_string(), |p| {
                    (pass * spans + p as usize).to_string()
                });
                let lane = if m.lane == NO_LANE {
                    "null".to_string()
                } else {
                    m.lane.to_string()
                };
                writeln!(
                    out,
                    "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{start},\"end_ns\":{end},\
                     \"parent\":{parent},\"packet\":[{pass},{lane},{}]}}",
                    m.name, m.seq
                )
                .map_err(io)?;
            }
        }
        out.flush().map_err(io)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_and_gap_is_uncovered_root() {
        let mut t = Tracer::new(8, 4);
        for pass in 0..3u64 {
            let base = pass * 1000;
            let root = t.open("pipebench.packet", None, 0, 0, base);
            let call = t.open("core.decode_packet", Some(root), 0, 0, base + 10);
            t.span("recovery.solve", Some(call), 0, 0, base + 20, base + 80);
            t.close(call, base + 90);
            t.close(root, base + 100);
            t.end_pass().unwrap();
        }
        let ledger = t.ledger(crate::stats::LOW_PCT);
        assert_eq!(ledger.total_ns("core.decode_packet"), 80.0);
        assert_eq!(ledger.self_ns("core.decode_packet"), 20.0);
        assert_eq!(ledger.self_ns("recovery.solve"), 60.0);
        assert_eq!(ledger.root_ns, 100.0);
        assert!((ledger.gap_share - 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_pass_with_another_layout_is_refused() {
        let mut t = Tracer::new(4, 4);
        t.span("a.x", None, 0, 0, 0, 1);
        t.end_pass().unwrap();
        t.span("b.y", None, 0, 0, 0, 1);
        assert!(t.end_pass().is_err());
    }
}
