//! `DESIGN.md` §7 carries the operator's reference for the exposition —
//! one row per metric family: name, type, labels, when it is present,
//! help. The table is not
//! hand-kept: this test renders it from `FAMILIES` and requires the
//! committed rows to match, so a new row in the family table fails here
//! until the document gains it (the failure prints the rows to paste).

use cs_telemetry::{Family, Kind, Layer, Presence, FAMILIES};

fn reference_row(family: &Family) -> String {
    let kind = match family.kind {
        Kind::Histogram { seconds: true } => "histogram (s)".to_owned(),
        kind => kind.type_name().to_owned(),
    };
    let labels = match family.labels {
        [] => "—".to_owned(),
        keys => keys.iter().map(|k| format!("`{k}`")).collect::<Vec<_>>().join(", "),
    };
    let present = match (family.presence, family.layer) {
        (Presence::Always, _) => "always",
        (Presence::WhenActive, Layer::Pipeline | Layer::Exporter) => "once observed",
        (Presence::WhenActive, Layer::Clinical) => "clinical layer active",
        (Presence::WhenActive, Layer::Slo) => "a packet emitted",
        (Presence::WhenActive, Layer::Ingest) => "ingest layer active",
    };
    format!("| `{}` | {kind} | {labels} | {present} | {} |", family.name, family.help)
}

#[test]
fn design_reference_table_matches_the_family_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(path).expect("DESIGN.md at the workspace root");
    let committed: Vec<&str> = design.lines().filter(|line| line.starts_with("| `cs_")).collect();
    let rendered: Vec<String> = FAMILIES.iter().map(reference_row).collect();
    assert!(
        committed == rendered,
        "DESIGN.md §7's family reference is out of date; its rows should read:\n{}",
        rendered.join("\n")
    );
}
