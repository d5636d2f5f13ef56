//! `decode_cold` and `decode_prior`: pre-encoded packets through
//! `Decoder::<f32>::decode_packet_with`, one decoder per lane, one shared
//! workspace — the fleet worker's inner loop without the fleet.

use crate::host::{duration_ns, process_cpu_ns, Clock, Digest};
use crate::inputs::{Inputs, LANES};
use crate::stats::ns32;
use crate::trace::{Ledger, Tracer};
use crate::workload::{metric, us_per_packet, Metric, PassResult, PrdMeter, Variant, Workload};
use cs_core::{DecodeWorkspace, DecodedPacket, SolverPolicy};
use cs_telemetry::TelemetryRegistry;

/// The paper's real-time budget: a packet carries 2 s of signal.
pub const DEADLINE_NS: u64 = 2_000_000_000;

pub struct Decode {
    inputs: Inputs,
    /// `decode_prior`: block prior, adaptive restart, warm start.
    prior: bool,
    /// Counters from the first pass; exact, so one pass is enough.
    counted: bool,
    iterations: u64,
    converged: usize,
    warm_started: usize,
    prd_sum: f64,
    prd: PrdMeter,
}

impl Decode {
    pub fn new(inputs: Inputs, prior: bool) -> Self {
        let n = inputs.config.packet_len();
        Decode {
            inputs,
            prior,
            counted: false,
            iterations: 0,
            converged: 0,
            warm_started: 0,
            prd_sum: 0.0,
            prd: PrdMeter::new(n),
        }
    }

    fn run<const TRACED: bool>(
        &mut self,
        variant: Variant,
        clock: &Clock,
        row: &mut [u32],
        mut tracer: Option<&mut Tracer>,
    ) -> Result<PassResult, String> {
        let inputs = &self.inputs;
        let policy = if self.prior {
            SolverPolicy::block_prior()
        } else {
            SolverPolicy::default()
        };
        let live = (variant == Variant::Telemetry).then(TelemetryRegistry::new);
        let mut decoders = Vec::with_capacity(LANES);
        for _ in 0..LANES {
            let mut decoder = inputs.decoder(policy)?;
            decoder.set_warm_start(self.prior);
            if let Some(registry) = &live {
                decoder.set_telemetry(registry.clone());
            }
            decoders.push(decoder);
        }
        let mut ws = DecodeWorkspace::for_config(&inputs.config);
        let mut out = DecodedPacket::default();
        let count = !self.counted;
        let mut digest = Digest::new();
        let mut failed = 0;

        let cpu_started = process_cpu_ns();
        let started = clock.ns();
        for (op, slot) in row.iter_mut().enumerate() {
            let lane = inputs.lane_of(op);
            let t0 = clock.ns();
            let a0 = if TRACED { clock.ns() } else { 0 };
            let result = decoders[lane].decode_packet_with(&inputs.packets[op], &mut ws, &mut out);
            let a1 = if TRACED { clock.ns() } else { 0 };
            let t1 = clock.ns();
            *slot = ns32(t1 - t0);

            if result.is_err() || out.concealed || t1 - t0 > DEADLINE_NS {
                failed += 1;
                digest.word(u64::MAX);
                continue;
            }
            digest.word(out.iterations as u64);
            digest.f32s(&out.samples);
            if count {
                self.iterations += out.iterations as u64;
                self.converged += usize::from(out.converged);
                self.warm_started += usize::from(out.warm_started);
                self.prd_sum += self.prd.prd(inputs.window(op), &out.samples);
            }
            if TRACED {
                let tracer = tracer.as_deref_mut().expect("traced pass has a tracer");
                let (lane, seq) = (lane as u32, inputs.seq_of(op) as u32);
                let root = tracer.span("pipebench.packet", None, lane, seq, t0, t1);
                let call = tracer.span("core.decode_packet", Some(root), lane, seq, a0, a1);
                // The solver reports how long it ran, not when: the span
                // is centred in the call (entropy decode and λ before it,
                // synthesis after). Only its length enters the ledger.
                let solve = duration_ns(out.solve_time).min(a1 - a0);
                let solve_start = a0 + (a1 - a0 - solve) / 2;
                tracer.span(
                    "recovery.solve",
                    Some(call),
                    lane,
                    seq,
                    solve_start,
                    solve_start + solve,
                );
            }
        }
        let wall_ns = clock.ns() - started;
        let cpu_ns = process_cpu_ns() - cpu_started;
        self.counted = true;
        Ok(PassResult {
            cpu_ns,
            wall_ns,
            failed,
            digest,
        })
    }
}

impl Workload for Decode {
    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn ops(&self) -> usize {
        self.inputs.ops()
    }

    fn span_capacity(&self) -> usize {
        3 * self.inputs.ops()
    }

    fn trace_variants(&self) -> &'static [Variant] {
        if self.prior {
            &[Variant::Plain, Variant::Traced]
        } else {
            // ROADMAP's 2 % telemetry budget is stated for the cold solve.
            &[Variant::Plain, Variant::Traced, Variant::Telemetry]
        }
    }

    fn pass(
        &mut self,
        variant: Variant,
        clock: &Clock,
        row: &mut [u32],
        tracer: Option<&mut Tracer>,
    ) -> Result<PassResult, String> {
        if variant == Variant::Traced {
            self.run::<true>(variant, clock, row, tracer)
        } else {
            self.run::<false>(variant, clock, row, None)
        }
    }

    fn prd_pct(&self) -> f64 {
        self.prd_sum / self.packets() as f64
    }

    fn layer_metrics(&self, ledger: &Ledger) -> Vec<Metric> {
        let k = self.packets();
        let solve_ns = ledger.total_ns("recovery.solve");
        vec![
            metric(
                "recovery.iterations_per_packet",
                self.iterations as f64 / k as f64,
                "count",
            ),
            metric(
                "recovery.iter_us",
                solve_ns / self.iterations.max(1) as f64 / 1e3,
                "us",
            ),
            metric(
                "recovery.solve_share",
                solve_ns / ledger.root_ns.max(1.0),
                "share",
            ),
            metric(
                "recovery.converged_share",
                self.converged as f64 / k as f64,
                "share",
            ),
            metric(
                "recovery.warm_started_share",
                self.warm_started as f64 / k as f64,
                "share",
            ),
            metric(
                "core.decode_nonsolve_us",
                us_per_packet(ledger.self_ns("core.decode_packet"), k),
                "us",
            ),
        ]
    }
}
