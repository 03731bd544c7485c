//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and metrics this benchmark runs and prints.

use fleetbench::metrics::{END_TO_END, PER_LAYER};
use fleetbench::workloads::NAMES;
use simcore::json::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn list<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    json.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
}

fn field<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string"))
}

#[test]
fn workloads_match() {
    let json = manifest();
    let names: Vec<&str> = list(&json, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(names, NAMES);
}

#[test]
fn metrics_and_units_match() {
    let json = manifest();
    for (key, expected) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(&str, &str)> = list(&json, key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        assert_eq!(listed, expected, "{key}");
    }
}

#[test]
fn bounds_are_at_most_a_quarter_and_setup_has_the_largest() {
    let json = manifest();
    let bounds: Vec<(&str, f64)> = list(&json, "end_to_end")
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                m.get("bound").and_then(Json::as_f64).expect("bound"),
            )
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| *n == "setup_s")
        .expect("setup_s is listed")
        .1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: {bound}");
        assert!(*bound <= setup, "{name}'s bound exceeds setup_s's");
    }
}
