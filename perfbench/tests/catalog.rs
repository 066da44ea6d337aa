//! `BENCHMARK.json` names exactly the metrics the benchmark prints.

use serde::Value;

use crusade_perfbench::report::{per_layer, END_TO_END};

fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Seq(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(name)), Some(Value::Str(unit))) => (name.clone(), unit.clone()),
            _ => panic!("malformed {key} entry: {m:?}"),
        })
        .collect()
}

#[test]
fn benchmark_json_lists_every_printed_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), end_to_end);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&doc, "per_layer"), layers);
}
