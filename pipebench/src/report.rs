//! The metric names this program emits, the contract's one-line JSON,
//! and the check that both agree with `BENCHMARK.json`.

use crate::workload::Metric;
use std::collections::BTreeMap;

/// End-to-end metrics, in print order: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_pps", "1/s"),
    ("packet_ms_p50", "ms"),
    ("packet_ms_p95", "ms"),
    ("cpu_ms_per_packet", "ms"),
    ("payload_bits_per_packet", "bit"),
    ("prd_pct", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, layer by layer: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("recovery.iterations_per_packet", "count"),
    ("recovery.iter_us", "us"),
    ("recovery.solve_share", "share"),
    ("recovery.converged_share", "share"),
    ("recovery.warm_started_share", "share"),
    ("recovery.in_service_slowdown", "ratio"),
    ("recovery.operator_pair_us", "us"),
    ("recovery.threshold_us", "us"),
    ("recovery.group_threshold_us", "us"),
    ("recovery.spectral_setup_ms", "ms"),
    ("dsp.dwt_analyze_us", "us"),
    ("dsp.dwt_synthesize_us", "us"),
    ("sensing.apply_f32_us", "us"),
    ("sensing.adjoint_f32_us", "us"),
    ("sensing.apply_i32_us", "us"),
    ("codec.diff_encode_us", "us"),
    ("codec.huffman_encode_us", "us"),
    ("codec.huffman_decode_us", "us"),
    ("codec.diff_decode_us", "us"),
    ("codec.bits_per_symbol", "bit"),
    ("core.encode_us", "us"),
    ("core.frame_us", "us"),
    ("core.parse_frame_us", "us"),
    ("core.reassemble_us", "us"),
    ("core.decode_nonsolve_us", "us"),
    ("core.engine_us", "us"),
    ("core.handoff_us", "us"),
    ("core.realtime_cpu_share", "share"),
    ("ingest.record_encode_us", "us"),
    ("ingest.deframe_us", "us"),
    ("ingest.handshake_ms", "ms"),
    ("ingest.send_us", "us"),
    ("ingest.gen_late_p95_ms", "ms"),
    ("ingest.frames", "count"),
    ("ingest.bytes", "B"),
    ("clinical.on_packet_us", "us"),
    ("clinical.beats_per_packet", "count"),
    ("clinical.qrs_sensitivity", "share"),
    ("clinical.qrs_ppv", "share"),
    ("archive.append_us", "us"),
    ("archive.bytes_per_frame", "B"),
    ("archive.replay_us", "us"),
    ("telemetry.overhead_share", "share"),
    ("ecg_data.corpus_s", "s"),
    ("host.contention_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.ledger_gap_share", "share"),
];

pub const WORKLOADS: &[&str] = &["decode_cold", "decode_prior", "edge_no_solve", "ward_paced"];

/// One workload's result, ready to print.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

/// Orders `rows` as `declared` lists them; a declared name without a row
/// reads 0 (the layer did no work on this workload), an undeclared row is
/// a bug in this program.
pub fn in_declared_order(
    declared: &[(&'static str, &'static str)],
    rows: Vec<Metric>,
) -> Result<Vec<Metric>, String> {
    let mut by_name: BTreeMap<&str, Metric> = BTreeMap::new();
    for row in rows {
        if let Some(earlier) = by_name.insert(row.name, row) {
            return Err(format!("metric {} reported twice", earlier.name));
        }
    }
    let ordered = declared
        .iter()
        .map(|&(name, unit)| match by_name.remove(name) {
            Some(row) if row.unit == unit => Ok(row),
            Some(row) => Err(format!(
                "metric {name} reported in {} but declared in {unit}",
                row.unit
            )),
            None => Ok(Metric {
                name,
                value: 0.0,
                unit,
            }),
        })
        .collect::<Result<Vec<_>, _>>()?;
    match by_name.keys().next() {
        Some(stray) => Err(format!("metric {stray} is reported but not declared")),
        None => Ok(ordered),
    }
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit the measurement has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // JSON has no NaN; a metric that could not be computed fails the
        // run before it gets here.
        "null".to_string()
    }
}

/// The `(name, unit)` pairs of the objects listed under `section` in
/// `BENCHMARK.json` (`unit` empty where an entry has none). A flat scan:
/// the file is this repository's own, so all the check needs of JSON is
/// to tell strings from punctuation.
pub fn declared(benchmark: &str, section: &str) -> Result<Vec<(String, String)>, String> {
    enum Token {
        Str(String),
        Punct(u8),
    }
    let bytes = benchmark.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let start = i + 1;
                i = start;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                let text = bytes.get(start..i).ok_or("unterminated string")?;
                tokens.push(Token::Str(String::from_utf8_lossy(text).into_owned()));
            }
            c @ (b'[' | b']' | b'{' | b'}' | b':') => tokens.push(Token::Punct(c)),
            _ => {}
        }
        i += 1;
    }
    let opens = |w: &[Token]| matches!(w, [Token::Str(key), Token::Punct(b':'), Token::Punct(b'[')] if key == section);
    let at = tokens
        .windows(3)
        .position(opens)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    let mut entries = Vec::new();
    let mut entry = (String::new(), String::new());
    let list = &tokens[at + 3..];
    for (i, token) in list.iter().enumerate() {
        match (token, list.get(i + 1), list.get(i + 2)) {
            (Token::Punct(b']'), ..) => return Ok(entries),
            (Token::Punct(b'{'), ..) => entry = (String::new(), String::new()),
            (Token::Punct(b'}'), ..) => entries.push(std::mem::take(&mut entry)),
            (Token::Str(key), Some(Token::Punct(b':')), Some(Token::Str(value))) => {
                match key.as_str() {
                    "name" => entry.0 = value.clone(),
                    "unit" => entry.1 = value.clone(),
                    _ => {}
                }
            }
            _ => {}
        }
    }
    Err(format!("BENCHMARK.json: the {section} list does not end"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Checks one emitted line against one of `BENCHMARK.json`'s metric
/// lists: every declared metric present with its unit and a finite
/// value, none undeclared, names well-formed.
pub fn check_line(declared: &[(String, String)], line: &str) -> Result<(), String> {
    for key in [
        "{\"correct\": ",
        ", \"attempted\": ",
        ", \"failed\": ",
        ", \"metrics\": {",
    ] {
        if !line.contains(key) {
            return Err(format!("emitted line lacks {key:?}"));
        }
    }
    for (name, unit) in declared {
        if !valid_name(name) {
            return Err(format!("declared name {name:?} is malformed"));
        }
        let key = format!("\"{name}\": {{\"value\": ");
        let value = line
            .find(&key)
            .map(|at| &line[at + key.len()..])
            .ok_or_else(|| format!("declared metric {name} was not emitted"))?;
        let (number, rest) = value
            .split_once(',')
            .ok_or_else(|| format!("metric {name} is cut short"))?;
        if !number.parse::<f64>().is_ok_and(f64::is_finite) {
            return Err(format!("metric {name} has no finite value"));
        }
        if !rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")) {
            return Err(format!(
                "metric {name} emitted with another unit than {unit}"
            ));
        }
    }
    // Each metric is written as one `"value"`: more of them than names
    // declared means a name that BENCHMARK.json does not list.
    let emitted = line.matches("{\"value\": ").count();
    if emitted != declared.len() {
        return Err(format!(
            "{emitted} metrics emitted, {} declared",
            declared.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::metric;

    const BENCH: &str = r#"{"workloads": [{"name": "w", "why": "brackets ] in \"text\" [ do not end a list"}],
                            "end_to_end": [{"name": "a_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
                            "per_layer": [{"name": "x.y", "unit": "us", "better": "lower"}]}"#;

    fn line(rows: Vec<Metric>) -> String {
        json_line(&Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: rows,
        })
    }

    #[test]
    fn declared_lists_are_read_by_section() {
        let pair = |n: &str, u: &str| (n.to_string(), u.to_string());
        assert_eq!(declared(BENCH, "workloads"), Ok(vec![pair("w", "")]));
        assert_eq!(declared(BENCH, "end_to_end"), Ok(vec![pair("a_ms", "ms")]));
        assert_eq!(declared(BENCH, "per_layer"), Ok(vec![pair("x.y", "us")]));
        assert!(declared(BENCH, "absent").is_err());
        assert!(declared(r#"{"per_layer": [{"name": "x""#, "per_layer").is_err());
    }

    #[test]
    fn emitted_line_matches_its_section() {
        let e2e = declared(BENCH, "end_to_end").unwrap();
        let ok = line(vec![metric("a_ms", 1.25, "ms")]);
        assert_eq!(
            ok,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
        check_line(&e2e, &ok).unwrap();
        let layers = declared(BENCH, "per_layer").unwrap();
        check_line(&layers, &line(vec![metric("x.y", 0.0, "us")])).unwrap();
    }

    #[test]
    fn missing_undeclared_wrong_unit_and_non_finite_are_refused() {
        let e2e = declared(BENCH, "end_to_end").unwrap();
        assert!(check_line(&e2e, &line(vec![])).is_err());
        assert!(check_line(&e2e, &line(vec![metric("a_ms", 1.0, "s")])).is_err());
        assert!(check_line(&e2e, &line(vec![metric("a_ms", f64::NAN, "ms")])).is_err());
        let stray = line(vec![metric("a_ms", 1.0, "ms"), metric("b", 1.0, "ms")]);
        assert!(check_line(&e2e, &stray).is_err());
        let bad_name = vec![("a ms".to_string(), "ms".to_string())];
        assert!(check_line(&bad_name, &ok_line()).is_err());
    }

    fn ok_line() -> String {
        line(vec![metric("a_ms", 1.0, "ms")])
    }

    #[test]
    fn declared_order_fills_gaps_with_zero_and_rejects_strays() {
        let declared = &[("p", "us"), ("q", "us")];
        let rows = in_declared_order(declared, vec![metric("q", 2.0, "us")]).unwrap();
        assert_eq!((rows[0].name, rows[0].value), ("p", 0.0));
        assert_eq!((rows[1].name, rows[1].value), ("q", 2.0));
        assert!(in_declared_order(declared, vec![metric("r", 1.0, "us")]).is_err());
        assert!(in_declared_order(declared, vec![metric("p", 1.0, "ms")]).is_err());
    }
}
