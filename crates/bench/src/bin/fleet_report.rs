//! Fleet-scale decode report: every corpus record as a two-lead patient
//! stream, fanned over the worker pool.
//!
//! Extends the single-coordinator real-time analysis (Fig. 8 / §V) to a
//! monitoring service: throughput against the sequential single-stream
//! decoder, per-worker load, backpressure, the shared spectral cache, and
//! the solver priors (plain ℓ1, the block prior and the paper's schedule
//! over the same traffic).
//!
//! The books are kept once. Solve-time and end-to-end quantiles, deadline
//! misses and patient health come from the live [`TelemetryRegistry`] the
//! workers recorded into; the counts only the engine knows (per-worker
//! packets, stalls, the spectral cache, faults) from its [`FleetReport`];
//! and the consumer callbacks keep only what neither can know — PRD
//! against the ground-truth leads and the exact iteration samples.
//! `--telemetry` additionally dumps the Prometheus scrape text and a
//! JSON-Lines snapshot.
//!
//! `--replay DIR` drives the wire-feed sections from a stored session
//! instead of synthesizing and mangling traffic: the archive is opened
//! with crash recovery, each patient's lanes are reassembled into
//! arrival order, and the supervised engine decodes on read. The
//! codebook is trained from the same `--records/--seconds` corpus, so
//! replay with the settings the session was recorded under.
//!
//! `--serve ADDR` (e.g. `--serve 127.0.0.1:9090`, or port `0` for an
//! ephemeral port) binds a live scrape endpoint on the same registry
//! *before* the runs start — `GET /metrics`, `/healthz` and `/tracez`
//! are pollable while the fleet decodes — and parks the process after
//! the report so collectors can keep scraping. Kill it to exit.
//!
//! ```text
//! cargo run --release -p cs-bench --bin fleet_report \
//!     [--full] [--telemetry] [--replay DIR] [--serve ADDR]
//! ```

use cs_archive::Archive;
use cs_bench::{banner, RunSettings};
use cs_clinical::{ClinicalConfig, ClinicalEngine, ClinicalEvent};
use cs_core::{
    packetize, run_fleet, train_codebook, FleetConfig, FleetReport, FleetSource,
    FleetStream, MultiChannelEncoder, SolverPolicy, SystemConfig,
};
use cs_ecg_data::{resample_360_to_256, DatabaseConfig, Record, SyntheticDatabase};
use cs_metrics::exact_percentile;
use cs_platform::{FaultSpec, GilbertElliottParams, LossyLink};
use cs_telemetry::{
    HealthState, HistogramSnapshot, MetricsServer, Stage, TelemetryRegistry, TelemetrySnapshot,
};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Mote-ready samples for one lead: resample to 256 Hz, quantize.
fn prepare(record: &Record, channel: usize) -> Vec<i16> {
    let at256 = resample_360_to_256(&record.signal_mv(channel));
    let adc = record.adc();
    at256.iter().map(|&v| adc.to_signed(adc.quantize(v))).collect()
}

/// Renders nanoseconds at a human scale.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Per-run solver quality: the flat iteration sample (for exact
/// quantiles, which the log2 telemetry buckets are too coarse for) plus
/// the PRD accumulators against the prepared ground-truth leads.
#[derive(Default)]
struct RunQuality {
    iterations: Vec<f64>,
    err: f64,
    energy: f64,
}

impl RunQuality {
    /// Fleet-wide PRD in percent: `100·√(ΣΣ(x−x̂)² / ΣΣx²)` over every
    /// decoded window of every lead.
    fn prd_percent(&self) -> f64 {
        if self.energy == 0.0 {
            0.0
        } else {
            100.0 * (self.err / self.energy).sqrt()
        }
    }

    fn iterations_mean(&self) -> f64 {
        if self.iterations.is_empty() {
            0.0
        } else {
            self.iterations.iter().sum::<f64>() / self.iterations.len() as f64
        }
    }
}

fn run(
    streams: &[FleetStream<'_>],
    config: &SystemConfig,
    codebook: &Arc<cs_codec::Codebook>,
    policy: SolverPolicy<f32>,
    fleet: &FleetConfig,
    telemetry: &TelemetryRegistry,
) -> (FleetReport, RunQuality) {
    let mut quality = RunQuality::default();
    let n = config.packet_len();
    let report = run_fleet::<f32, _>(
        config,
        Arc::clone(codebook),
        FleetSource::Leads(streams),
        policy,
        fleet,
        telemetry,
        None,
        |p| {
            quality.iterations.push(p.packet.iterations as f64);
            if !p.packet.concealed {
                let lead = streams[p.stream].leads[p.channel as usize];
                let start = p.packet.index as usize * n;
                if let Some(x) = lead.get(start..start + n) {
                    for (&a, &b) in x.iter().zip(&p.packet.samples) {
                        let (a, b) = (a as f64, b as f64);
                        quality.err += (a - b) * (a - b);
                        quality.energy += a * a;
                    }
                }
            }
        },
    )
    .expect("fleet run");
    (report, quality)
}

/// Solve-time p50/p95/p99 in milliseconds, from the registry's
/// `fista_solve` stage.
fn solve_ms(snapshot: &TelemetrySnapshot) -> [f64; 3] {
    let solves = snapshot.stage(Stage::FistaSolve);
    [0.50, 0.95, 0.99].map(|p| solves.quantile(p) as f64 / 1e6)
}

/// End-to-end p50/p99 in milliseconds over every patient's histogram, and
/// the deadline misses the SLO engine counted.
fn e2e_ms(snapshot: &TelemetrySnapshot) -> ([f64; 2], u64) {
    let mut e2e = HistogramSnapshot::new();
    for (_, patient) in &snapshot.e2e {
        e2e.merge(patient);
    }
    let misses = snapshot.slo.patients.iter().map(|p| p.deadline_misses).sum();
    ([0.50, 0.99].map(|p| e2e.quantile(p) as f64 / 1e6), misses)
}

/// The fault-accounting panel shared by the live lossy-wire section and
/// `--replay` runs.
fn fault_panel(header: &str, wire_report: &FleetReport) {
    let faults = &wire_report.faults;
    let frame_pct = |part: u64| 100.0 * part as f64 / faults.frames.max(1) as f64;
    let emit_pct = |part: u64| 100.0 * part as f64 / faults.delivered().max(1) as f64;
    println!("== Fault tolerance ({header}) ==");
    println!("frames ingested         : {:>6}", faults.frames);
    println!(
        "rejected at ingest      : {:>6}  ({:.2} % of frames; CRC/framing)",
        faults.frame_rejects,
        frame_pct(faults.frame_rejects)
    );
    println!(
        "duplicates / late       : {:>6} / {}",
        faults.duplicates, faults.late
    );
    println!(
        "windows decoded         : {:>6}  ({:.2} % of emitted)",
        faults.decoded,
        emit_pct(faults.decoded)
    );
    println!(
        "windows concealed       : {:>6}  ({:.2} %; {} loss, {} desync)",
        faults.concealed(),
        emit_pct(faults.concealed()),
        faults.concealed_loss,
        faults.concealed_desync
    );
    println!(
        "windows quarantined     : {:>6}  (ring holds {} frames for postmortem)",
        faults.quarantined,
        wire_report.quarantine.len()
    );
    println!(
        "resyncs / restarts      : {:>6} / {}",
        faults.resyncs, faults.worker_restarts
    );
    println!("deadline-degraded       : {:>6}", faults.deadline_degraded);
}

/// The clinical alarm panel: beat census, per-kind alarm accounting,
/// detection accuracy vs the synthesizer's annotations, and the final
/// per-patient rhythm picture — all from the live registry the clinical
/// engine recorded into while the wire fleet decoded.
fn alarm_panel(registry: &TelemetryRegistry, engine: &ClinicalEngine, events: &[ClinicalEvent]) {
    use cs_telemetry::{AlarmKind, BeatClass, FamilyId};
    let snap = registry.snapshot();
    println!("== Clinical alarms (streaming analysis on decoded windows) ==");
    let census: Vec<String> = BeatClass::ALL
        .iter()
        .filter(|&&c| snap.count(FamilyId::Beat, c) > 0)
        .map(|&c| format!("{} {}", snap.count(FamilyId::Beat, c), c.name()))
        .collect();
    println!(
        "beats classified        : {:>6}  ({})",
        snap.total(FamilyId::Beat),
        census.join(", ")
    );
    println!(
        "{:<14} {:>7} {:>8} {:>7} {:>10}",
        "alarm", "raised", "cleared", "active", "transitions"
    );
    for kind in AlarmKind::ALL {
        let transitions = events
            .iter()
            .filter(|e| matches!(e, ClinicalEvent::Alarm { transition, .. } if transition.kind == kind))
            .count();
        println!(
            "{:<14} {:>7} {:>8} {:>7} {:>10}",
            kind.name(),
            snap.count(FamilyId::AlarmRaised, kind),
            snap.count(FamilyId::AlarmCleared, kind),
            snap.count(FamilyId::AlarmActive, kind),
            transitions
        );
    }
    println!(
        "suppressed evaluations  : {:>6}  (beats inside concealed windows)",
        snap.total(FamilyId::AlarmSuppressed)
    );
    match (snap.qrs_sensitivity(), snap.qrs_ppv()) {
        (Some(sens), Some(ppv)) => println!(
            "QRS sens / PPV          : {:>6.1} % / {:.1} %  (±50 ms vs all annotations; beats lost to concealed windows count as misses)",
            sens * 100.0,
            ppv * 100.0
        ),
        _ => println!("QRS sens / PPV          :    n/a  (no annotated beats scored)"),
    }
    let rates: Vec<String> = (0..8)
        .map_while(|p| engine.heart_rate_bpm(p).map(|hr| format!("p{p}={hr:.0}")))
        .collect();
    if !rates.is_empty() {
        println!("final heart rate (bpm)  : {}", rates.join("  "));
    }
}

/// The per-stage latency quantile table from a live registry snapshot.
fn stage_table(registry: &TelemetryRegistry) {
    let snapshot = registry.snapshot();
    println!(
        "{:<20} {:>8} {:>12} {:>12} {:>12}",
        "stage", "count", "p50", "p95", "p99"
    );
    for (stage, hist) in snapshot.stages {
        if hist.count() == 0 {
            continue;
        }
        println!(
            "{:<20} {:>8} {:>12} {:>12} {:>12}",
            stage.name(),
            hist.count(),
            fmt_ns(hist.quantile(0.50)),
            fmt_ns(hist.quantile(0.95)),
            fmt_ns(hist.quantile(0.99))
        );
    }
}

/// The per-patient SLO panel from the live registry's burn-rate engine.
fn slo_panel(registry: &TelemetryRegistry) {
    let slo = registry.slo_snapshot();
    if slo.patients.is_empty() {
        return;
    }
    println!("== Per-patient SLO ==");
    println!(
        "deadline budget         : {:>8.3} s  ({} patients active)",
        slo.deadline_ns as f64 / 1e9,
        slo.patients.len()
    );
    println!(
        "{:<8} {:>9} {:>8} {:>8} {:>10} {:>10} {:>11}",
        "patient", "emits", "misses", "lanes", "fast burn", "slow burn", "health"
    );
    for p in &slo.patients {
        println!(
            "{:<8} {:>9} {:>8} {:>8} {:>10.2} {:>10.2} {:>11}",
            p.patient,
            p.emits,
            p.deadline_misses,
            p.lanes.len(),
            p.fast_burn,
            p.slow_burn,
            p.health.name()
        );
    }
}

/// `--serve ADDR`: binds the scrape endpoint on `registry` and announces
/// it. Bound *before* any decode runs so collectors can watch live.
fn bind_server(settings: &RunSettings, registry: &TelemetryRegistry) -> Option<MetricsServer> {
    let addr = settings.serve.as_deref()?;
    let server = MetricsServer::bind(addr, registry.clone()).expect("bind metrics server");
    println!(
        "serving http://{0}/metrics  http://{0}/healthz  http://{0}/tracez",
        server.local_addr()
    );
    // The smoke harness parses the announced port from a pipe: flush past
    // block buffering before the long decode phase starts.
    std::io::stdout().flush().ok();
    Some(server)
}

/// With `--serve`, the report is a long-running scrape target: park after
/// printing so collectors keep a live endpoint. Without it, fall through.
fn park_if_serving(server: Option<MetricsServer>) {
    if let Some(server) = server {
        println!(
            "report complete; still serving http://{}/metrics — kill to exit",
            server.local_addr()
        );
        std::io::stdout().flush().ok();
        loop {
            std::thread::park();
        }
    }
}

/// `--replay DIR`: the wire-feed report over an archived session.
fn replay_report(
    dir: &str,
    config: &SystemConfig,
    codebook: &Arc<cs_codec::Codebook>,
    settings: &RunSettings,
    registry: &TelemetryRegistry,
) {
    let registry = registry.clone();
    let (archive, recovery) =
        Archive::open_observed(dir, registry.clone()).expect("open archive");
    let patients = archive.patients();
    println!("== Replay source ({dir}) ==");
    println!("patients                : {:>6}", patients.len());
    println!("frame records           : {:>6}", archive.total_records());
    println!(
        "recovery                : {:>6} segments scanned, {} torn tails ({} bytes)",
        recovery.segments_scanned, recovery.torn_tails, recovery.torn_bytes
    );
    let traffic: Vec<Vec<Vec<u8>>> = patients
        .iter()
        .map(|&p| archive.replay_stream(p).expect("replay stream"))
        .collect();
    let wire_report = run_fleet::<f32, _>(
        config,
        Arc::clone(codebook),
        FleetSource::Frames(&traffic),
        SolverPolicy::default(),
        &FleetConfig::default(),
        &registry,
        None,
        |_| {},
    )
    .expect("replay fleet run");
    fault_panel("decode-on-read from archive", &wire_report);
    let snapshot = registry.snapshot();
    // The iteration histograms record raw counts: their mean is exact.
    let mut iterations = HistogramSnapshot::new();
    for (_, mode) in &snapshot.solver_iterations {
        iterations.merge(mode);
    }
    let [p50, p95, p99] = solve_ms(&snapshot);
    let ([e2e_p50, e2e_p99], misses) = e2e_ms(&snapshot);
    println!("== Replay solves ==");
    println!(
        "solve p50/p95/p99       : {p50:>8.2} / {p95:.2} / {p99:.2} ms  (mean {:.1} iterations)",
        iterations.mean_ns()
    );
    println!("e2e p50/p99             : {e2e_p50:>8.2} / {e2e_p99:.2} ms  ({misses} deadline misses)");
    slo_panel(&registry);
    println!("== Telemetry (live registry) ==");
    stage_table(&registry);
    if settings.telemetry {
        println!("== Prometheus scrape ==");
        print!("{}", registry.prometheus());
        println!("== JSONL snapshot ==");
        println!("{}", registry.json_line());
    }
}

fn main() {
    let settings = RunSettings::from_args();
    banner("fleet_report", "fleet decode engine (multi-patient §IV-B1)", &settings);
    let config = SystemConfig::paper_default();
    let n = config.packet_len();

    // Both leads of every record: the database synthesizes true two-lead
    // records (same timing, lead-dependent wave amplitudes).
    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: settings.records,
        duration_s: settings.seconds,
        ..DatabaseConfig::default()
    });
    let mut truths: Vec<Vec<usize>> = Vec::new();
    let patients: Vec<(Vec<i16>, Vec<i16>)> = (0..db.len())
        .map(|i| {
            let record = db.record(i);
            let lead0 = prepare(&record, 0);
            // Annotation positions land at 360 Hz; rescale to the wire
            // rate so the clinical tap can score detections.
            truths.push(
                record
                    .annotations()
                    .iter()
                    .map(|b| b.sample * 256 / 360)
                    .filter(|&s| s < lead0.len())
                    .collect(),
            );
            (lead0, prepare(&record, 1))
        })
        .collect();

    let training = patients
        .iter()
        .flat_map(|(lead0, _)| packetize(lead0, n).take(3))
        .map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(&config, training).expect("training succeeds"));

    // One live registry for the whole report; with `--serve` it is
    // scrapeable from before the first decode until the process is
    // killed.
    let registry = TelemetryRegistry::new();
    let server = bind_server(&settings, &registry);

    if let Some(dir) = settings.replay.clone() {
        replay_report(&dir, &config, &codebook, &settings, &registry);
        park_if_serving(server);
        return;
    }

    let streams: Vec<FleetStream<'_>> = patients
        .iter()
        .map(|(lead0, lead1)| FleetStream {
            leads: vec![lead0, lead1],
        })
        .collect();

    // Sequential baseline: the paper's one-patient coordinator (one
    // lead, one worker), stream after stream.
    let started = Instant::now();
    let mut sequential_packets = 0usize;
    let coordinator = FleetConfig { workers: 1, ..FleetConfig::default() };
    for (lead0, _) in &patients {
        let report = run_fleet::<f32, _>(
            &config,
            Arc::clone(&codebook),
            FleetSource::Leads(&[FleetStream::single(lead0)]),
            SolverPolicy::default(),
            &coordinator,
            &TelemetryRegistry::disabled(),
            None,
            |_| {},
        )
        .expect("coordinator run");
        sequential_packets += report.packets_decoded;
    }
    let sequential_wall = started.elapsed();
    let sequential_rate = sequential_packets as f64 / sequential_wall.as_secs_f64();

    // The cold run decodes against the live registry; its solve and e2e
    // quantiles, deadline misses and health below come from it, not from
    // the callbacks.
    let fleet_cfg = FleetConfig::default();
    let (cold_report, cold_q) = run(
        &streams,
        &config,
        &codebook,
        SolverPolicy::default(),
        &fleet_cfg,
        &registry,
    );
    // Before the wire run below records into the same registry.
    let cold = registry.snapshot();
    // The same traffic with the block-sparse proximal step, and on the
    // paper's verbatim schedule: the baseline the production schedule's
    // iteration count is gated against.
    let [block_q, paper_q] = [SolverPolicy::block_prior(), SolverPolicy::paper()].map(|policy| {
        run(&streams, &config, &codebook, policy, &fleet_cfg, &TelemetryRegistry::disabled()).1
    });
    let fleet_rate = cold_report.packets_decoded as f64 / cold_report.wall_time.as_secs_f64();

    println!("== Fleet topology ==");
    println!("streams                 : {:>6}  (× 2 leads)", streams.len());
    println!("workers                 : {:>6}", cold_report.workers);
    let per_worker: Vec<String> =
        cold_report.worker_packets.iter().enumerate().map(|(w, n)| format!("w{w}={n}")).collect();
    println!("worker packets          : {}", per_worker.join("  "));
    println!("backpressure stalls     : {:>6}", cold_report.backpressure_stalls);
    println!(
        "spectral cache          : {:>6} miss, {} hits (power iterations avoided)",
        cold_report.spectral_misses, cold_report.spectral_hits
    );

    println!("== Throughput ==");
    println!(
        "sequential (1 stream)   : {:>8.2} packets/s  ({} packets in {:.2?})",
        sequential_rate, sequential_packets, sequential_wall
    );
    println!(
        "fleet ({} workers)       : {:>8.2} packets/s  ({} packets in {:.2?})",
        cold_report.workers, fleet_rate, cold_report.packets_decoded, cold_report.wall_time
    );
    println!("speedup                 : {:>8.2} ×", fleet_rate / sequential_rate);
    let ([e2e_p50, e2e_p99], misses) = e2e_ms(&cold);
    println!("e2e p50/p99 (cold)      : {e2e_p50:>8.2} / {e2e_p99:.2} ms  ({misses} deadline misses)");
    let health = |state| cold.slo.count_in(state);
    println!(
        "patient health          : {:>6} healthy, {} degraded, {} stalled",
        health(HealthState::Healthy),
        health(HealthState::Degraded),
        health(HealthState::Stalled)
    );

    println!("== FISTA solves ==");
    let [p50, p95, p99] = solve_ms(&cold);
    println!("cold solve p50/p95/p99  : {p50:>8.2} / {p95:.2} / {p99:.2} ms");
    println!("cold mean iterations    : {:>8.1}", cold_q.iterations_mean());

    // Prior-driven solve paths over the same traffic, and the paper's
    // schedule under them: per-mode iteration quantiles at integer
    // resolution (the telemetry histograms' log2 buckets would swallow a
    // 20 % shift) and the fleet-wide PRD each mode reconstructs at. The
    // summary lines under the table are the ones
    // `scripts/bench_snapshot.sh` parses into BENCH_decode.json.
    println!("== Solver priors ==");
    println!(
        "{:<10} {:>8} {:>9} {:>8} {:>8} {:>8}",
        "mode", "packets", "mean it", "p50 it", "p95 it", "PRD %"
    );
    for (name, q) in [("cold", &cold_q), ("block", &block_q), ("paper", &paper_q)] {
        println!(
            "{:<10} {:>8} {:>9.1} {:>8.0} {:>8.0} {:>8.2}",
            name,
            q.iterations.len(),
            q.iterations_mean(),
            exact_percentile(&q.iterations, 0.50),
            exact_percentile(&q.iterations, 0.95),
            q.prd_percent()
        );
    }
    println!(
        "block mean iterations   : {:>8.1}",
        block_q.iterations_mean()
    );
    println!(
        "paper mean iterations   : {:>8.1}  (cold, SolverPolicy::paper())",
        paper_q.iterations_mean()
    );
    println!("cold PRD                : {:>8.2} %", cold_q.prd_percent());
    println!("block PRD               : {:>8.2} %", block_q.prd_percent());
    println!("paper PRD               : {:>8.2} %", paper_q.prd_percent());

    // Robustness picture: the same patients serialized to wire frames and
    // pushed through a hostile link (burst bit errors at mean BER 1e-3,
    // 5 % drops, light reordering/duplication), then decoded by the
    // supervised wire-feed engine. Records into the same live registry,
    // so `--telemetry` shows `cs_fault_total` alongside the stage table.
    let spec = FaultSpec {
        drop: 0.05,
        duplicate: 0.01,
        reorder: 0.02,
        truncate: 0.01,
        gilbert_elliott: Some(GilbertElliottParams::for_mean_ber(1e-3)),
    };
    let traffic: Vec<Vec<Vec<u8>>> = patients
        .iter()
        .enumerate()
        .map(|(i, (lead0, lead1))| {
            let mut enc = MultiChannelEncoder::new(&config, Arc::clone(&codebook), 2)
                .expect("wire encoder");
            let mut link = LossyLink::new(spec, 0xC5EC + i as u64);
            let mut deliveries = Vec::new();
            let windows = lead0.len().min(lead1.len()) / n;
            for w in 0..windows {
                let leads = [&lead0[w * n..(w + 1) * n], &lead1[w * n..(w + 1) * n]];
                for packet in enc.encode_frame(&leads).expect("wire encode") {
                    link.offer(&packet.to_bytes(), &mut deliveries);
                }
            }
            link.flush(&mut deliveries);
            deliveries.into_iter().map(|d| d.bytes).collect()
        })
        .collect();
    // The clinical tap rides the wire feed: every emitted window — decoded
    // or concealed — streams through the per-patient analysis engine, so
    // the alarm panel below reflects exactly what a monitoring station
    // would have seen over this link.
    let mut clinical = ClinicalEngine::new(
        ClinicalConfig::at_256_hz(),
        patients.len(),
        2,
        registry.clone(),
    );
    for (stream, truth) in truths.iter().enumerate() {
        clinical.set_ground_truth(stream, truth.clone(), 13); // ±50 ms
    }
    let mut events = Vec::new();
    let wire_report = run_fleet::<f32, _>(
        &config,
        Arc::clone(&codebook),
        FleetSource::Frames(&traffic),
        SolverPolicy::default(),
        &fleet_cfg,
        &registry,
        None,
        |p| clinical.on_packet(p, &mut events),
    )
    .expect("wire fleet run");
    clinical.finish(&mut events);
    fault_panel("lossy wire: burst BER 1e-3, 5 % drop", &wire_report);
    alarm_panel(&registry, &clinical, &events);
    slo_panel(&registry);

    let snapshot = registry.snapshot();
    println!("== Telemetry (live registry, cold and wire runs) ==");
    stage_table(&registry);
    println!(
        "solve traces            : {:>6} buffered, {} pushed, {} dropped",
        snapshot.journal_len, snapshot.journal_pushed, snapshot.journal_dropped
    );

    if settings.telemetry {
        println!("== Prometheus scrape ==");
        print!("{}", registry.prometheus());
        println!("== JSONL snapshot ==");
        println!("{}", registry.json_line());
    }
    park_if_serving(server);
}
