//! The JSON-Lines exporter's schema is a contract: `fleet_monitor`
//! documents it, operators pipe it into `jq`/log shippers, and a field
//! that silently changes type or disappears breaks dashboards without a
//! compile error. This test parses real `json_line()` output back with
//! a small hand-rolled JSON parser (the workspace is dependency-free by
//! design, so no serde) and pins every documented field:
//!
//! * one self-contained object per line, LF-free;
//! * `uptime_s` monotonic, `ts_unix_s` absolute wall-clock;
//! * `stages` entries carry name + count + quantiles;
//! * `e2e` per-patient latency and `slo` health/freshness/burn/lanes
//!   (populated by the traced fleet path);
//! * `journal` accounting and `scrapes` with zero counts elided;
//! * `render` self-observation appears from the second render onward;
//! * `clinical` appears only once the clinical layer has recorded, with
//!   beat census, per-kind alarm counters, suppression accounting and
//!   the QRS confusion/accuracy figures.
//!
//! Which family lands under which key is not repeated here: the last test
//! walks `FAMILIES` and requires every row's declared key, in its layer's
//! object, in a record with every layer active — so a new row is covered
//! the moment it exists. Extend the hand-written tests only when a
//! hand-written block (`stages`, `e2e`, `slo`, `alarms`, …) gains a field.

use cs_ecg_monitor::prelude::*;
use cs_ecg_monitor::telemetry::ScrapeEndpoint;
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON parser: just enough for the exporter's
// output (objects, arrays, strings with escapes, f64 numbers, literals).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key `{key}`")),
            other => panic!("expected object for key `{key}`, got {other:?}"),
        }
    }

    fn opt(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Json {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value();
        p.skip_ws();
        assert_eq!(p.pos, p.bytes.len(), "trailing garbage after JSON value");
        value
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> u8 {
        self.bytes[self.pos]
    }

    fn eat(&mut self, b: u8) {
        assert_eq!(
            self.bytes.get(self.pos),
            Some(&b),
            "expected `{}` at byte {}",
            b as char,
            self.pos
        );
        self.pos += 1;
    }

    fn value(&mut self) -> Json {
        self.skip_ws();
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Json {
        assert!(
            self.bytes[self.pos..].starts_with(text.as_bytes()),
            "bad literal at byte {}",
            self.pos
        );
        self.pos += text.len();
        value
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == b'}' {
            self.pos += 1;
            return Json::Obj(map);
        }
        loop {
            self.skip_ws();
            let key = self.string();
            self.skip_ws();
            self.eat(b':');
            let value = self.value();
            assert!(map.insert(key.clone(), value).is_none(), "duplicate key `{key}`");
            self.skip_ws();
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Json::Obj(map);
                }
                other => panic!("expected `,` or `}}`, got `{}`", other as char),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == b']' {
            self.pos += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            self.skip_ws();
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Json::Arr(items);
                }
                other => panic!("expected `,` or `]`, got `{}`", other as char),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return out;
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes[self.pos] {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        other => panic!("unsupported escape `\\{}`", other as char),
                    }
                    self.pos += 1;
                }
                b => {
                    // Exporter output is ASCII-safe; accept UTF-8 bytes as-is.
                    out.push(b as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number `{text}` at {start}")))
    }
}

// ---------------------------------------------------------------------
// The schema test proper.
// ---------------------------------------------------------------------

const N: usize = 512;

fn ecg_like(npackets: usize, phase: f64) -> Vec<i16> {
    (0..npackets * N)
        .map(|i| {
            let t = (i % N) as f64 / N as f64;
            (700.0 * (-((t - 0.4 + phase) * 25.0).powi(2)).exp() + 50.0 * (t * 10.0).sin()) as i16
        })
        .collect()
}

#[test]
fn json_line_round_trips_the_documented_schema() {
    let config = SystemConfig::paper_default();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    let inputs: Vec<Vec<i16>> = (0..2).map(|s| ecg_like(2, s as f64 * 0.03)).collect();
    let streams: Vec<FleetStream<'_>> = inputs.iter().map(|i| FleetStream::single(i)).collect();

    let registry = TelemetryRegistry::new();
    run_fleet::<f32, _>(
        &config,
        Arc::clone(&codebook),
        FleetSource::Leads(&streams),
        SolverPolicy::default(),
        &FleetConfig::default(),
        &registry,
        None,
        |_| {},
    )
    .unwrap();
    registry.record_scrape(ScrapeEndpoint::Metrics);

    let line = registry.json_line();
    assert!(!line.contains('\n'), "one self-contained object per line");
    let root = Parser::parse(&line);

    // Clocks: uptime is monotonic-small, ts_unix_s is absolute wall time
    // (anything past 2023 proves it is epoch-based, not uptime-based).
    let uptime = root.get("uptime_s").num();
    assert!((0.0..3600.0).contains(&uptime), "uptime_s {uptime} not a fresh run");
    let ts = root.get("ts_unix_s").num();
    assert!(ts > 1.7e9, "ts_unix_s {ts} is not absolute wall-clock time");

    // Stages: every entry carries a known stage name and full quantile
    // row; the traced fleet must have produced the e2e segments.
    let stages = root.get("stages").arr();
    assert!(!stages.is_empty());
    let mut stage_names = Vec::new();
    for s in stages {
        let name = s.get("stage").str().to_owned();
        assert!(s.get("count").num() > 0.0, "zero-count stages are elided");
        for key in ["p50_ns", "p95_ns", "p99_ns", "min_ns", "max_ns", "mean_ns"] {
            assert!(s.get(key).num() >= 0.0, "stage `{name}` field `{key}`");
        }
        assert!(s.get("p50_ns").num() <= s.get("max_ns").num(), "stage `{name}` ordering");
        stage_names.push(name);
    }
    for expected in ["huffman_decode", "fista_solve", "queue_wait", "emit_deliver"] {
        assert!(stage_names.iter().any(|n| n == expected), "missing stage `{expected}`");
    }

    // e2e: one per-patient latency summary per traced stream.
    let e2e = root.get("e2e").arr();
    assert_eq!(e2e.len(), 2, "two traced patients");
    for p in e2e {
        assert!(p.get("patient").num() < 2.0);
        assert_eq!(p.get("count").num(), 2.0, "two packets per patient");
        assert!(p.get("p50_ns").num() <= p.get("p99_ns").num());
        assert!(p.get("p99_ns").num() <= p.get("max_ns").num());
    }

    // slo: health verdict, deadline accounting, freshness, burn rates
    // and per-lane watermarks, exactly as the fleet_monitor header says.
    let slo = root.get("slo").arr();
    assert_eq!(slo.len(), 2);
    for p in slo {
        assert_eq!(p.get("health").str(), "healthy");
        assert_eq!(p.get("emits").num(), 2.0);
        assert_eq!(p.get("deadline_misses").num(), 0.0);
        assert!(p.get("freshness_s").num() >= 0.0);
        assert!(p.get("fast_burn").num() >= 0.0);
        assert!(p.get("slow_burn").num() >= 0.0);
        let lanes = p.get("lanes").arr();
        assert_eq!(lanes.len(), 1, "single-lead streams");
        assert_eq!(lanes[0].get("lane").num(), 0.0);
        assert_eq!(lanes[0].get("newest_seq").num(), 1.0);
        assert!(lanes[0].get("age_s").num() >= 0.0);
    }

    // Telemetry self-observation: scrape counters (zero counts elided)
    // and journal accounting.
    assert_eq!(root.get("scrapes").get("metrics").num(), 1.0);
    assert!(root.get("scrapes").opt("healthz").is_none(), "zero counts elided");
    let journal = root.get("journal");
    assert_eq!(journal.get("pushed").num(), 4.0, "one solve trace per packet");
    assert_eq!(journal.get("dropped").num(), 0.0);
    assert!(journal.get("buffered").num() <= journal.get("pushed").num());

    // Render self-observation lags by one render: absent from the first
    // line, present (and parseable) from the second onward.
    assert!(root.opt("render").is_none(), "first render cannot observe itself");
    let second = Parser::parse(&registry.json_line());
    let render = second.get("render");
    assert!(render.get("count").num() >= 1.0);
    assert!(render.get("p50_ns").num() <= render.get("max_ns").num());

    // The second line's clocks moved forward, never backward.
    assert!(second.get("uptime_s").num() >= uptime);
    assert!(second.get("ts_unix_s").num() >= ts);

    // No clinical engine touched this registry: the block is elided
    // entirely rather than rendered full of zeros.
    assert!(root.opt("clinical").is_none(), "clinical block absent without a clinical tap");
}

#[test]
fn clinical_block_round_trips_alarm_and_accuracy_fields() {
    use cs_ecg_monitor::telemetry::{AlarmKind, BeatClass};

    let registry = TelemetryRegistry::new();

    // The exact counter sequence a clinical engine would emit over a
    // short monitored stretch: mostly sinus beats, one PVC, a transient
    // tachycardia (raised then cleared), a PVC run still active at
    // snapshot time, one evaluation suppressed inside a concealed
    // window, and a scored detection stream at 95 % sens / 95 % PPV.
    for _ in 0..3 {
        registry.record_beat(BeatClass::Normal);
    }
    registry.record_beat(BeatClass::Pvc);
    registry.record_alarm_raised(AlarmKind::Tachycardia);
    registry.record_alarm_cleared(AlarmKind::Tachycardia);
    registry.record_alarm_raised(AlarmKind::PvcRun);
    registry.record_alarm_suppressed();
    registry.record_qrs_score(19, 1, 1);

    let root = Parser::parse(&registry.json_line());
    let clinical = root.get("clinical");

    let beats = clinical.get("beats");
    assert_eq!(beats.get("normal").num(), 3.0);
    assert_eq!(beats.get("pvc").num(), 1.0);
    assert!(beats.opt("apc").is_none(), "zero-count beat classes elided");

    let alarms = clinical.get("alarms");
    let tachy = alarms.get("tachycardia");
    assert_eq!(tachy.get("raised").num(), 1.0);
    assert_eq!(tachy.get("cleared").num(), 1.0);
    assert_eq!(tachy.get("active").num(), 0.0);
    let pvc_run = alarms.get("pvc_run");
    assert_eq!(pvc_run.get("raised").num(), 1.0);
    assert_eq!(pvc_run.get("cleared").num(), 0.0);
    assert_eq!(pvc_run.get("active").num(), 1.0);
    assert!(alarms.opt("bradycardia").is_none(), "untouched alarm kinds elided");
    assert!(alarms.opt("asystole").is_none());

    assert_eq!(clinical.get("suppressed").num(), 1.0);

    let qrs = clinical.get("qrs");
    assert_eq!(qrs.get("tp").num(), 19.0);
    assert_eq!(qrs.get("fp").num(), 1.0);
    assert_eq!(qrs.get("fn").num(), 1.0);
    assert!((qrs.get("sensitivity").num() - 0.95).abs() < 1e-9);
    assert!((qrs.get("ppv").num() - 0.95).abs() < 1e-9);
}

#[test]
fn every_family_has_its_declared_key_in_a_fully_active_record() {
    use cs_ecg_monitor::telemetry::{
        AlarmKind, BeatClass, IngestDisconnect, IngestState, Json as JsonKey, SolveTrace,
        SolverMode, Stage, TraceContext, FAMILIES,
    };

    // Every layer active: one observation of everything a family reads.
    let registry = TelemetryRegistry::new();
    registry.record_stage_ns(Stage::FistaSolve, 400_000);
    registry.record_solver_iterations(SolverMode::Cold, 97);
    registry.record_worker_packet(0);
    registry.record_solve(SolveTrace::default());
    registry.record_emit(&TraceContext::new(0, 0, 0, registry.now_ns()));
    registry.record_beat(BeatClass::Normal);
    registry.record_alarm_raised(AlarmKind::Tachycardia);
    registry.record_alarm_suppressed();
    registry.record_qrs_score(1, 0, 0);
    registry.ingest_session_enter(IngestState::Handshaking);
    registry.record_ingest_disconnect(IngestDisconnect::ClientClosed);
    registry.record_scrape(ScrapeEndpoint::Metrics);
    let _ = registry.json_line(); // primes `render`

    let root = Parser::parse(&registry.json_line());
    for family in &FAMILIES {
        let object = family.layer.json_object().map_or(&root, |object| root.get(object));
        match family.json {
            // The generic writer's two shapes: a bare number, or a map
            // from label value to number.
            JsonKey::Key(key) if family.labels.is_empty() => {
                assert!(object.get(key).num() >= 0.0, "{}", family.name);
            }
            JsonKey::Key(key) => match object.get(key) {
                Json::Obj(map) => map.values().for_each(|n| assert!(n.num() >= 0.0)),
                other => panic!("`{}`: expected a label map at `{key}`, got {other:?}", family.name),
            },
            // A hand-written block: present is all the table promises.
            JsonKey::Within(key) => {
                object.get(key);
            }
        }
    }
}
