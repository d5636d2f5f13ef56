//! pipebench — the socket-to-alarm ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path pipebench/Cargo.toml -- \
//!     --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out DIR]
//!     --all | --smoke
//! ```
//!
//! See `README.md` for what each workload and metric means, and
//! `stats.rs` for the measurement rule every timing follows.

mod decode;
mod edge;
mod host;
mod inputs;
mod kernels;
mod report;
mod stats;
mod trace;
mod ward;
mod workload;

use host::{Clock, Digest, ScratchDir};
use inputs::Inputs;
use report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use stats::PassTimings;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{metric, Loop, Variant, Workload};

/// Set-up is timed this many times: once before the first pass, the rest
/// at even intervals through the timed phase (their products dropped), so
/// that one contention burst cannot cover them all; `setup_s` is their
/// low percentile, like every other timing. Five back-to-back set-ups
/// and their median, tried first, spread 22-37 % across seeds.
const SETUP_REPS: usize = 7;
/// A run whose passes are slow may overrun `--seconds` by this factor to
/// reach its minimum pass count, never further.
const OVERRUN: f64 = 1.5;
/// The reconstruction-quality gate: mean PRD above this fails the run.
const PRD_GATE_PCT: f64 = 4.5;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

const USAGE: &str =
    "usage: pipebench (--workload NAME | --all | --smoke) [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-out DIR]\n\
                     workloads: decode_cold decode_prior edge_no_solve ward_paced";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        trace_out: None,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| **w == name);
                args.workloads.push(
                    known
                        .copied()
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--all" => args.workloads = WORKLOADS.to_vec(),
            "--smoke" => args.smoke = true,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.smoke {
        // Every workload, cycling plain and traced passes, so both metric
        // lists are produced and every gate runs.
        args.workloads = WORKLOADS.to_vec();
        args.trace = true;
    }
    if args.workloads.is_empty() {
        return Err("no workload named".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Passes of a `--smoke` run, plain and traced together.
const SMOKE_PASSES: usize = 3;

/// Per-workload sizes: packets per lane (K = 8 × this), the plain passes
/// a full run must reach, and the passes each variant's timing table
/// holds.
struct Plan {
    per_lane: usize,
    min_passes: usize,
    max_passes: usize,
    /// `--smoke` only: the run ends after this many passes in all,
    /// whatever the clock reads, and set-up is timed once.
    fixed_passes: Option<usize>,
}

fn plan(name: &str, smoke: bool) -> Plan {
    let full = |per_lane, min_passes, max_passes| Plan {
        per_lane,
        min_passes,
        max_passes,
        fixed_passes: None,
    };
    // Smoke keeps K at 200 where the timed operation is a packet: p95
    // needs ten samples beyond it.
    let smoke_of = |per_lane| Plan {
        per_lane,
        min_passes: 1,
        max_passes: SMOKE_PASSES,
        fixed_passes: Some(SMOKE_PASSES),
    };
    match (name, smoke) {
        ("decode_cold", false) => full(30, 24, 128),
        ("decode_prior", false) => full(60, 24, 128),
        ("edge_no_solve", false) => full(240, 200, 1024),
        ("ward_paced", false) => full(30, 12, 64),
        ("edge_no_solve", true) => smoke_of(200),
        (_, true) => smoke_of(25),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

fn build(
    name: &str,
    inputs: Inputs,
    scratch: &Arc<ScratchDir>,
    max_passes: usize,
) -> Box<dyn Workload> {
    match name {
        "decode_cold" => Box::new(decode::Decode::new(inputs, false)),
        "decode_prior" => Box::new(decode::Decode::new(inputs, true)),
        "edge_no_solve" => Box::new(edge::Edge::new(inputs, Arc::clone(scratch))),
        _ => Box::new(ward::Ward::new(inputs, Arc::clone(scratch), max_passes)),
    }
}

/// The pass variants a run cycles through.
fn variants(args: &Args, workload: &dyn Workload) -> &'static [Variant] {
    if args.trace {
        workload.trace_variants()
    } else {
        &[Variant::Plain]
    }
}

/// Everything set-up produces; building it is what `setup_s` times.
struct Bench {
    workload: Box<dyn Workload>,
    plain: PassTimings,
    telemetry: Option<PassTimings>,
    tracer: Option<Tracer>,
    /// Row for traced passes' per-operation timings, which the root
    /// spans already carry.
    spare_row: Vec<u32>,
}

fn set_up(
    name: &str,
    args: &Args,
    plan: &Plan,
    scratch: &Arc<ScratchDir>,
) -> Result<Bench, String> {
    let inputs = Inputs::prepare(args.seed, plan.per_lane)?;
    let workload = build(name, inputs, scratch, plan.max_passes);
    let ops = workload.ops();
    let variants = variants(args, workload.as_ref());
    Ok(Bench {
        plain: PassTimings::new(ops, plan.max_passes),
        telemetry: variants
            .contains(&Variant::Telemetry)
            .then(|| PassTimings::new(ops, plan.max_passes)),
        tracer: variants
            .contains(&Variant::Traced)
            .then(|| Tracer::new(workload.span_capacity(), plan.max_passes.min(128))),
        spare_row: vec![0; ops],
        workload,
    })
}

/// Sets up and says how long it took.
fn timed_set_up(
    name: &str,
    args: &Args,
    plan: &Plan,
    scratch: &Arc<ScratchDir>,
) -> Result<(Bench, f64), String> {
    let started = Instant::now();
    let bench = set_up(name, args, plan, scratch)?;
    Ok((bench, started.elapsed().as_secs_f64()))
}

/// Per-pass quantities of the plain passes.
#[derive(Default)]
struct PassLog {
    cpu_ns: Vec<f64>,
    wall_ns: Vec<f64>,
}

fn run_workload(
    name: &'static str,
    args: &Args,
    scratch: &Arc<ScratchDir>,
) -> Result<(Outcome, Outcome), String> {
    let plan = &plan(name, args.smoke);
    let clock = Clock::start();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let (bench, took_s) = timed_set_up(name, args, plan, scratch)?;
    let Bench {
        mut workload,
        mut plain,
        mut telemetry,
        mut tracer,
        mut spare_row,
    } = bench;
    setup_s.push(took_s);
    let pct = workload.pass_percentile();
    let variants = variants(args, workload.as_ref());

    // The timed phase.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut log = PassLog::default();
    let mut reference: Option<Digest> = None;
    let (mut attempted, mut failed, mut repeatable) = (0, 0, true);
    let mut total_passes = 0;
    let mut kernel_bench = if args.trace {
        Some(kernels::KernelBench::new(workload.inputs())?)
    } else {
        None
    };
    loop {
        let variant = variants[total_passes % variants.len()];
        let full = match variant {
            Variant::Plain => plain.is_full(),
            Variant::Traced => tracer.as_ref().is_some_and(Tracer::is_full),
            Variant::Telemetry => telemetry.as_ref().is_some_and(PassTimings::is_full),
        };
        if full {
            break;
        }
        let result = match variant {
            Variant::Plain => workload.pass(variant, &clock, plain.next_pass(), None)?,
            Variant::Telemetry => {
                let table = telemetry
                    .as_mut()
                    .expect("telemetry table allocated at set-up");
                workload.pass(variant, &clock, table.next_pass(), None)?
            }
            Variant::Traced => {
                let tracer = tracer.as_mut().expect("tracer allocated at set-up");
                let result = workload.pass(variant, &clock, &mut spare_row, Some(tracer))?;
                tracer.end_pass()?;
                result
            }
        };
        attempted += workload.packets();
        failed += result.failed;
        // Every pass, however instrumented, must produce the same bits.
        repeatable &= *reference.get_or_insert(result.digest) == result.digest;
        if variant == Variant::Plain {
            log.cpu_ns.push(result.cpu_ns as f64);
            log.wall_ns.push(result.wall_ns as f64);
        }
        total_passes += 1;

        let cycle_done = total_passes % variants.len() == 0;
        let next_set_up = budget.mul_f64(setup_s.len() as f64 / SETUP_REPS as f64);
        if plan.fixed_passes.is_none()
            && setup_s.len() < SETUP_REPS
            && started.elapsed() >= next_set_up
        {
            let (_, took_s) = timed_set_up(name, args, plan, scratch)?;
            setup_s.push(took_s);
        }
        if let Some(kernels) = kernel_bench
            .as_mut()
            .filter(|k| cycle_done && k.taken() < kernels::REPS)
        {
            kernels.round(kernels::ROUND);
        }
        let elapsed = started.elapsed();
        let done = match plan.fixed_passes {
            Some(fixed) => total_passes >= fixed,
            None if !cycle_done => false,
            // A traced run splits the same budget between its variants.
            None if args.trace => elapsed >= budget,
            None => {
                (elapsed >= budget && plain.passes() >= plan.min_passes)
                    || elapsed.as_secs_f64() >= OVERRUN * args.seconds
            }
        };
        if done {
            break;
        }
    }
    let timed_s = started.elapsed().as_secs_f64();
    if let Some(kernels) = kernel_bench.as_mut() {
        // A short run leaves the tally short of 2 000: top it up.
        kernels.round(kernels::REPS.saturating_sub(kernels.taken()));
    }
    workload.after_passes()?;

    // End-to-end figures, by the measurement rule.
    let k = workload.packets();
    let per_op = (k / workload.ops()) as f64;
    let t = workload.operation_ns(&plain);
    let packet_ms: Vec<f64> = t.iter().map(|ns| ns / per_op / 1e6).collect();
    let pooled = plain.pooled();
    let pooled_ms: Vec<f64> = pooled.iter().map(|ns| ns / per_op / 1e6).collect();
    let (throughput, throughput_raw) = match workload.pacing() {
        Loop::Closed => (
            k as f64 / (t.iter().sum::<f64>() / 1e9),
            (k * plain.passes()) as f64 / (pooled.iter().sum::<f64>() / 1e9),
        ),
        Loop::Open => (
            k as f64 / (stats::percentile(&log.wall_ns, pct) / 1e9),
            k as f64 / (stats::median(&log.wall_ns) / 1e9),
        ),
    };
    let cpu_ms = workload.pass_cpu_ns(&log.cpu_ns) / k as f64 / 1e6;
    let prd = workload.prd_pct();
    let inputs = workload.inputs();
    let end_to_end = vec![
        metric("setup_s", stats::percentile(&setup_s, stats::LOW_PCT), "s"),
        metric("throughput_pps", throughput, "1/s"),
        metric("packet_ms_p50", stats::median(&packet_ms), "ms"),
        metric(
            "packet_ms_p95",
            stats::tail_percentile(&packet_ms, 95.0)?,
            "ms",
        ),
        metric("cpu_ms_per_packet", cpu_ms, "ms"),
        metric(
            "payload_bits_per_packet",
            inputs.payload_bits_per_packet,
            "bit",
        ),
        metric("prd_pct", prd, "%"),
        metric("peak_rss_mb", host::peak_rss_mb()?, "MiB"),
    ];

    // Per-layer figures: only a traced run has them all.
    let mut layers = vec![
        metric("codec.bits_per_symbol", inputs.bits_per_symbol, "bit"),
        metric("core.realtime_cpu_share", cpu_ms / 2000.0, "share"),
        metric("recovery.spectral_setup_ms", inputs.spectral_setup_ms, "ms"),
        metric("ecg_data.corpus_s", inputs.corpus_s, "s"),
        metric(
            "host.contention_share",
            1.0 - throughput_raw / throughput,
            "share",
        ),
    ];
    let mut ledger_lines = Vec::new();
    if let Some(tracer) = tracer.as_ref().filter(|t| t.passes() > 0) {
        let ledger = tracer.ledger(pct);
        // Plain, traced and telemetry passes compared like with like:
        // what each kind of pass itself observed.
        let plain_ns: f64 = plain.aligned(pct).iter().sum();
        layers.extend(workload.layer_metrics(&ledger));
        layers.extend(
            kernel_bench
                .as_ref()
                .expect("a traced run times the kernels")
                .metrics(),
        );
        layers.push(metric(
            "trace.overhead_share",
            1.0 - plain_ns / ledger.root_ns.max(1.0),
            "share",
        ));
        layers.push(metric("trace.ledger_gap_share", ledger.gap_share, "share"));
        if let Some(table) = telemetry.as_ref().filter(|t| t.passes() > 0) {
            let live_ns: f64 = table.aligned(pct).iter().sum();
            layers.push(metric(
                "telemetry.overhead_share",
                1.0 - plain_ns / live_ns.max(1.0),
                "share",
            ));
        }
        for (span, (total, own)) in &ledger.by_name {
            ledger_lines.push(format!(
                "  {span:<28} {:>10.3} us/packet  self {:>10.3} us/packet  ({:>5.1} % of the pass)",
                total / k as f64 / 1e3,
                own / k as f64 / 1e3,
                100.0 * own / ledger.root_ns.max(1.0)
            ));
        }
        let dir = match &args.trace_out {
            Some(dir) => dir.clone(),
            None => host::exe_dir()?.join("pipebench-trace"),
        };
        let path = tracer.write(&dir, name)?;
        ledger_lines.push(format!(
            "  spans of the first traced passes: {}",
            path.display()
        ));
    }

    let correct = failed == 0 && repeatable && prd <= PRD_GATE_PCT;
    println!(
        "== {name}  seed {}  K {k}  P {} plain / {} passes in {timed_s:.1} s  nproc {} ==",
        args.seed,
        plain.passes(),
        total_passes,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    for m in &end_to_end {
        println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<32} {:>14.4} 1/s",
        "throughput_pps_raw", throughput_raw
    );
    println!(
        "  {:<32} {:>14.4} ms",
        "packet_ms_p50_raw",
        stats::median(&pooled_ms)
    );
    println!(
        "  {:<32} {:>14.4} ms",
        "packet_ms_p95_raw",
        stats::percentile(&pooled_ms, 95.0)
    );
    println!(
        "  {:<32} {:>14.4} ms",
        "cpu_ms_per_packet_raw",
        stats::median(&log.cpu_ns) / k as f64 / 1e6
    );
    let layers = report::in_declared_order(PER_LAYER, layers)?;
    if args.trace {
        for m in &layers {
            println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
        println!("  ledger (pass-aligned span time, by span name):");
        for line in &ledger_lines {
            println!("{line}");
        }
    }
    if !repeatable {
        println!("  GATE: passes did not produce bit-identical outputs");
    }
    if prd > PRD_GATE_PCT {
        println!("  GATE: mean PRD {prd:.3} % is above {PRD_GATE_PCT} %");
    }
    let end_to_end = report::in_declared_order(END_TO_END, end_to_end)?;
    Ok((
        Outcome {
            correct,
            attempted,
            failed,
            metrics: end_to_end,
        },
        Outcome {
            correct,
            attempted,
            failed,
            metrics: layers,
        },
    ))
}

/// `BENCHMARK.json`, from the directory the benchmark is run from (the
/// checkout's root) or, failing that, the one above it.
fn read_benchmark_json() -> Result<String, String> {
    ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or_else(|| "BENCHMARK.json not found in this directory or its parent".to_string())
}

fn run(args: &Args) -> Result<bool, String> {
    let scratch = Arc::new(ScratchDir::create()?);
    let schema = if args.smoke {
        Some(read_benchmark_json()?)
    } else {
        None
    };
    let started = Instant::now();
    let mut all_correct = true;
    for &name in &args.workloads {
        let (end_to_end, layers) = run_workload(name, args, &scratch)?;
        all_correct &= end_to_end.correct;
        let (e2e_line, layer_line) = (report::json_line(&end_to_end), report::json_line(&layers));
        if let Some(schema) = &schema {
            report::check_line(&report::declared(schema, "end_to_end")?, &e2e_line)?;
            report::check_line(&report::declared(schema, "per_layer")?, &layer_line)?;
            let workloads = report::declared(schema, "workloads")?;
            if !workloads.iter().any(|(declared, _)| declared == name) {
                return Err(format!("workload {name} is not declared in BENCHMARK.json"));
            }
            println!("{e2e_line}");
        }
        // The contract's line comes last: the per-layer metrics of a
        // traced run, the end-to-end metrics otherwise.
        println!("{}", if args.trace { layer_line } else { e2e_line });
    }
    if args.smoke {
        println!(
            "smoke: {} workloads, every gate and the schema check, in {:.1} s",
            args.workloads.len(),
            started.elapsed().as_secs_f64()
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("pipebench: a correctness gate failed (see GATE lines and the failed count)");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("pipebench: {e}");
            ExitCode::FAILURE
        }
    }
}
