//! `BENCHMARK.json` at the repository root lists exactly the workloads and
//! metrics this package prints, with the same units.

use wattbench::catalogue::{END_TO_END, PER_LAYER};
use wattbench::workloads::Workload;
use wattroute::json::JsonValue;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(list: &JsonValue, with_unit: bool) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|entry| {
            let field = |key: &str| entry.get(key).and_then(JsonValue::as_str).expect(key);
            if with_unit {
                format!("{} {}", field("name"), field("unit"))
            } else {
                field("name").to_string()
            }
        })
        .collect()
}

fn expected(catalogue: &[(&str, &str)]) -> Vec<String> {
    catalogue.iter().map(|(name, unit)| format!("{name} {unit}")).collect()
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let spec = benchmark_json();
    assert_eq!(names(spec.get("end_to_end").expect("end_to_end"), true), expected(END_TO_END));
    assert_eq!(names(spec.get("per_layer").expect("per_layer"), true), expected(PER_LAYER));
    assert_eq!(
        names(spec.get("workloads").expect("workloads"), false),
        Workload::ALL.map(|w| w.name().to_string())
    );
}
