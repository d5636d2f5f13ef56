//! Prometheus text-exposition conformance for the hand-rolled exporter.
//!
//! The scrape output is consumed by a real Prometheus server, which is
//! far stricter than "looks greppable": every sample needs `# HELP` and
//! `# TYPE` metadata declared before it, metric and label names must
//! match the spec grammar, label values must escape `\`, `"` and
//! newlines, histogram buckets must be cumulative and monotone with a
//! `+Inf` bucket equal to `_count`, and no series may appear twice.
//! This test implements that checklist as a standalone validator (the
//! crate is dependency-free, so no prometheus-parser crate) and runs
//! the real exporter through it — populated, empty, and disabled — and
//! then holds the parsed scrape against the family table: every row of
//! `FAMILIES` must appear with its declared type and exactly its
//! declared label keys, and nothing undeclared may appear. No family is
//! named here; a new row is covered the moment it is populated below.

use cs_telemetry::{
    escape_label, AlarmKind, ArchiveOp, BeatClass, FaultKind, IngestDisconnect, IngestState,
    Presence, ScrapeEndpoint, SloConfig, SolveTrace, SolverMode, Stage, TelemetryRegistry,
    TraceContext, FAMILIES,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

// ---------------------------------------------------------------------
// The validator.
// ---------------------------------------------------------------------

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// One parsed sample: name, sorted labels, value.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parses `name{k="v",...} value`, validating every lexical rule on the
/// way; panics with the offending line on any violation.
fn parse_sample(line: &str) -> Sample {
    let name_end = line
        .find(['{', ' '])
        .unwrap_or_else(|| panic!("no value on sample line: {line}"));
    let name = &line[..name_end];
    assert!(valid_metric_name(name), "invalid metric name `{name}` in: {line}");

    let mut labels = Vec::new();
    let rest = if line.as_bytes()[name_end] == b'{' {
        let mut chars = line[name_end + 1..].char_indices().peekable();
        loop {
            // Label name up to '='.
            let mut label = String::new();
            for (_, c) in chars.by_ref() {
                if c == '=' {
                    break;
                }
                label.push(c);
            }
            assert!(valid_label_name(&label), "invalid label name `{label}` in: {line}");
            // Quoted value with escapes.
            assert_eq!(chars.next().map(|(_, c)| c), Some('"'), "unquoted label in: {line}");
            let mut value = String::new();
            loop {
                match chars.next().map(|(_, c)| c) {
                    Some('\\') => match chars.next().map(|(_, c)| c) {
                        Some('\\') => value.push('\\'),
                        Some('"') => value.push('"'),
                        Some('n') => value.push('\n'),
                        other => panic!("bad escape `\\{other:?}` in: {line}"),
                    },
                    Some('"') => break,
                    Some(c) => {
                        assert!(c != '\n', "raw newline in label value: {line}");
                        value.push(c);
                    }
                    None => panic!("unterminated label value in: {line}"),
                }
            }
            labels.push((label, value));
            match chars.next().map(|(_, c)| c) {
                Some(',') => continue,
                Some('}') => break,
                other => panic!("expected `,` or `}}`, got {other:?} in: {line}"),
            }
        }
        let consumed = chars.peek().map_or(line.len(), |&(i, _)| name_end + 1 + i);
        &line[consumed..]
    } else {
        &line[name_end..]
    };

    let value_text = rest.trim_start();
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        other => other
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value `{other}` in: {line}")),
    };
    Sample { name: name.to_owned(), labels, value }
}

/// The metric family a sample belongs to: histogram samples drop their
/// `_bucket`/`_sum`/`_count` suffix, everything else matches exactly.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    if types.contains_key(name) {
        return name;
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    panic!("sample `{name}` has no preceding # TYPE metadata");
}

/// A validated exposition: declared types by family, and every sample.
struct Exposition {
    types: BTreeMap<String, String>,
    samples: Vec<Sample>,
}

/// Validates a full exposition body; panics on the first violation.
fn validate(text: &str) -> Exposition {
    let mut helps: BTreeSet<String> = BTreeSet::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut series: BTreeSet<String> = BTreeSet::new();
    let mut samples: Vec<Sample> = Vec::new();

    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(meta) = line.strip_prefix("# HELP ") {
            let (name, help) = meta.split_once(' ').expect("HELP without text");
            assert!(valid_metric_name(name), "invalid family name in HELP: {line}");
            assert!(!help.is_empty(), "empty HELP text: {line}");
            assert!(helps.insert(name.to_owned()), "duplicate HELP for `{name}`");
            continue;
        }
        if let Some(meta) = line.strip_prefix("# TYPE ") {
            let (name, kind) = meta.split_once(' ').expect("TYPE without kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped"),
                "unknown TYPE `{kind}` for `{name}`"
            );
            assert!(helps.contains(name), "TYPE before HELP for `{name}`");
            assert!(
                types.insert(name.to_owned(), kind.to_owned()).is_none(),
                "duplicate TYPE for `{name}`"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line}");

        let sample = parse_sample(line);
        let family = family_of(&sample.name, &types).to_owned();
        let kind = &types[&family];
        if kind == "counter" {
            assert!(
                family.ends_with("_total"),
                "counter `{family}` should end in _total"
            );
            assert!(
                sample.value >= 0.0 && sample.value.is_finite(),
                "counter sample went negative or non-finite: {line}"
            );
        }
        let mut key = sample.name.clone();
        let mut sorted = sample.labels.clone();
        sorted.sort();
        for (k, v) in &sorted {
            key.push_str(&format!("|{k}={v}"));
        }
        assert!(series.insert(key), "duplicate series: {line}");
        samples.push(sample);
    }

    // Histogram families: group buckets by their non-`le` label set and
    // check the cumulative-distribution invariants.
    for (family, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let mut buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();
        let mut sums: BTreeSet<String> = BTreeSet::new();
        for s in &samples {
            let group = |labels: &[(String, String)]| {
                let mut kept: Vec<String> = labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                kept.sort();
                kept.join(",")
            };
            if s.name == format!("{family}_bucket") {
                let le = s
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.as_str())
                    .unwrap_or_else(|| panic!("{family}_bucket without le label"));
                let le = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap() };
                buckets.entry(group(&s.labels)).or_default().push((le, s.value));
            } else if s.name == format!("{family}_count") {
                counts.insert(group(&s.labels), s.value);
            } else if s.name == format!("{family}_sum") {
                sums.insert(group(&s.labels));
            }
        }
        assert!(!buckets.is_empty() || counts.is_empty(), "{family}: counts without buckets");
        for (labels, rows) in &buckets {
            for pair in rows.windows(2) {
                assert!(
                    pair[0].0 < pair[1].0,
                    "{family}{{{labels}}}: le bounds not ascending"
                );
                assert!(
                    pair[0].1 <= pair[1].1,
                    "{family}{{{labels}}}: bucket counts not cumulative"
                );
            }
            let last = rows.last().unwrap();
            assert!(last.0.is_infinite(), "{family}{{{labels}}}: missing +Inf bucket");
            let count = counts
                .get(labels)
                .unwrap_or_else(|| panic!("{family}{{{labels}}}: missing _count"));
            assert_eq!(last.1, *count, "{family}{{{labels}}}: +Inf bucket != _count");
            assert!(sums.contains(labels), "{family}{{{labels}}}: missing _sum");
        }
    }
    Exposition { types, samples }
}

// ---------------------------------------------------------------------
// Exporter output under the validator.
// ---------------------------------------------------------------------

/// A registry with every row of `FAMILIES` populated: stages, solver
/// iterations, workers, faults, archive ops, the clinical layer (beats,
/// a raised-and-cleared alarm, a suppression, a QRS score), journal
/// traces, traced emissions (e2e + SLO, one deadline miss so the
/// burn-rate gauges are non-zero), an ingest session with a shed and a
/// disconnect, scrapes, and a second render so the self-observation
/// histogram appears.
fn populated_registry() -> TelemetryRegistry {
    let registry = TelemetryRegistry::with_slo_config(SloConfig {
        deadline: Duration::from_millis(1),
        ..SloConfig::default()
    });
    for (i, stage) in Stage::ALL.iter().enumerate() {
        registry.record_stage_ns(*stage, 1_000 * (i as u64 + 1));
        registry.record_stage_ns(*stage, 900_000 * (i as u64 + 1));
    }
    for (i, mode) in SolverMode::ALL.iter().enumerate() {
        registry.record_solver_iterations(*mode, 70 + 30 * i);
    }
    for w in 0..3 {
        registry.record_worker_packet(w);
    }
    for kind in FaultKind::ALL {
        registry.record_fault(kind);
    }
    for op in ArchiveOp::ALL {
        registry.record_archive_op(op);
    }
    for class in BeatClass::ALL {
        registry.record_beat(class);
    }
    for kind in AlarmKind::ALL {
        registry.record_alarm_raised(kind);
    }
    registry.record_alarm_cleared(AlarmKind::Tachycardia);
    registry.record_alarm_suppressed();
    registry.record_qrs_score(19, 1, 1);
    registry.record_solve(SolveTrace { iterations: 12, solve_ns: 5_000, ..SolveTrace::default() });
    for patient in 0..2u32 {
        for seq in 0..4 {
            let captured = registry.now_ns();
            registry.record_emit(&TraceContext::new(patient, (seq % 2) as u8, seq, captured));
        }
    }
    // One unmistakable deadline miss: a capture stamp 50 ms in the past
    // against the 1 ms budget.
    std::thread::sleep(Duration::from_millis(50));
    let stale = registry.now_ns().saturating_sub(50_000_000);
    registry.record_emit(&TraceContext::new(0, 0, 4, stale));
    for state in IngestState::ALL {
        registry.ingest_session_enter(state);
    }
    registry.record_ingest_shed();
    for reason in IngestDisconnect::ALL {
        registry.record_ingest_disconnect(reason);
    }
    registry.record_ingest_frames(7, 700);
    for endpoint in ScrapeEndpoint::ALL {
        registry.record_scrape(endpoint);
    }
    let _ = registry.prometheus(); // primes cs_exporter_render_seconds
    registry
}

/// The family each sample of `exposition` belongs to, with its label
/// keys (a histogram's `le` aside), grouped by family name.
fn label_keys_by_family(exposition: &Exposition) -> BTreeMap<&str, BTreeSet<Vec<&str>>> {
    let mut keys: BTreeMap<&str, BTreeSet<Vec<&str>>> = BTreeMap::new();
    for sample in &exposition.samples {
        let family = family_of(&sample.name, &exposition.types);
        let own = sample.labels.iter().map(|(k, _)| k.as_str());
        let own = own.filter(|&k| !(k == "le" && exposition.types[family] == "histogram"));
        keys.entry(family).or_default().insert(own.collect());
    }
    keys
}

#[test]
fn populated_scrape_conforms() {
    let exposition = validate(&populated_registry().prometheus());
    let keys = label_keys_by_family(&exposition);
    for family in &FAMILIES {
        assert_eq!(
            exposition.types.get(family.name).map(String::as_str),
            Some(family.kind.type_name()),
            "`{}` is missing or mistyped",
            family.name
        );
        let seen = keys.get(family.name).unwrap_or_else(|| panic!("`{}` has no sample", family.name));
        let declared: BTreeSet<Vec<&str>> = BTreeSet::from([family.labels.to_vec()]);
        assert_eq!(seen, &declared, "`{}` label keys differ from its row", family.name);
    }
    let declared: BTreeSet<&str> = FAMILIES.iter().map(|f| f.name).collect();
    let exported: BTreeSet<&str> = exposition.types.keys().map(String::as_str).collect();
    assert_eq!(exported, declared, "a family is exported that the table does not declare");
}

#[test]
fn empty_and_disabled_scrapes_conform() {
    // A fresh registry elides every zero-count series but must still
    // emit well-formed metadata for whatever remains — which is exactly
    // the rows declared `Always`, whether or not they have a sample yet.
    for registry in [TelemetryRegistry::new(), TelemetryRegistry::disabled()] {
        let exposition = validate(&registry.prometheus());
        let always: BTreeSet<&str> = FAMILIES
            .iter()
            .filter(|f| f.presence == Presence::Always)
            .map(|f| f.name)
            .collect();
        let exported: BTreeSet<&str> = exposition.types.keys().map(String::as_str).collect();
        assert_eq!(exported, always);
    }
}

#[test]
fn escaped_label_values_stay_parseable() {
    // The closed label sets never need escaping today, but the escape
    // path is the spec-conformance safety net: a hostile value must
    // round-trip through the validator's strict parser.
    let hostile = "he said \"x\\y\"\nnewline";
    let escaped = escape_label(hostile);
    let text = format!(
        "# HELP t_total test\n# TYPE t_total counter\nt_total{{k=\"{escaped}\"}} 1\n"
    );
    let exposition = validate(&text);
    assert_eq!(exposition.samples[0].labels, [("k".to_owned(), hostile.to_owned())]);
    assert_eq!(escape_label("plain_snake_case"), "plain_snake_case");
}

#[test]
fn validator_rejects_malformed_expositions() {
    // The validator itself must have teeth, or the conformance tests
    // above prove nothing.
    let cases: [(&str, &str); 5] = [
        ("no metadata", "cs_orphan_total 1\n"),
        (
            "bad metric name",
            "# HELP 9bad test\n# TYPE 9bad counter\n9bad 1\n",
        ),
        (
            "duplicate series",
            "# HELP d_total test\n# TYPE d_total counter\nd_total{a=\"1\"} 1\nd_total{a=\"1\"} 2\n",
        ),
        (
            "non-cumulative buckets",
            "# HELP h test\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
        ),
        (
            "missing +Inf bucket",
            "# HELP h test\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
        ),
    ];
    for (what, text) in cases {
        let outcome = std::panic::catch_unwind(|| validate(text).samples.len());
        assert!(outcome.is_err(), "validator accepted malformed exposition: {what}");
    }
}
