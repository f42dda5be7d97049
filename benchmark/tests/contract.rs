//! `BENCHMARK.json` and the binary must name the same things.

use iwbench::replay::ReplayTimes;
use iwbench::report;
use iwbench::workloads::{self, Budget, PassConfig};

/// The string values of every `"key": "value"` pair inside the JSON
/// array that follows `"section":`.
fn names_in(doc: &str, section: &str, key: &str) -> Vec<String> {
    let start = doc
        .find(&format!("\"{section}\":"))
        .unwrap_or_else(|| panic!("no {section}"));
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let pat = format!("\"{key}\": \"");
    body.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &body[i + pat.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn workloads_match_the_table() {
    let doc = benchmark_json();
    let table: Vec<String> = workloads::WORKLOADS
        .iter()
        .map(|w| w.name.to_string())
        .collect();
    assert_eq!(names_in(&doc, "workloads", "name"), table);
    let whys: Vec<String> = workloads::WORKLOADS
        .iter()
        .map(|w| w.why.to_string())
        .collect();
    assert_eq!(names_in(&doc, "workloads", "why"), whys);
    assert!(whys.iter().all(|w| w.len() <= 200 && !w.contains('\n')));
}

#[test]
fn metric_names_and_units_match_what_is_printed() {
    let doc = benchmark_json();
    let spec = workloads::find("small_commit").expect("workload exists");
    let cfg = PassConfig {
        seed: 1,
        budget: Budget::Ops(200),
        traced: true,
        setups: 1,
    };
    let r = workloads::run_pass(spec, &cfg).expect("pass runs");
    let pairs = |m: &[report::Metric]| -> (Vec<String>, Vec<String>) {
        (
            m.iter().map(|m| m.name.clone()).collect(),
            m.iter().map(|m| m.unit.to_string()).collect(),
        )
    };
    let (names, units) = pairs(&report::end_to_end(&r));
    assert_eq!(names_in(&doc, "end_to_end", "name"), names);
    assert_eq!(names_in(&doc, "end_to_end", "unit"), units);
    let (layer, _) = report::per_layer(&r, &r, &ReplayTimes::default()).expect("spans pair up");
    let (names, units) = pairs(&layer);
    assert_eq!(names_in(&doc, "per_layer", "name"), names);
    assert_eq!(names_in(&doc, "per_layer", "unit"), units);
    for n in &names {
        assert!(
            n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{n}"
        );
    }
}
