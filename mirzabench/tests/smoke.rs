//! Smoke-sized runs of the benchmark binary: every metric that
//! `BENCHMARK.json` names must be emitted, with its declared unit, on the
//! result line of every workload.
//!
//! `--smoke` shrinks the scale to seconds and skips the reference check
//! (the references exist for the fast scale only); the layer replays still
//! check themselves against their recordings.

use std::process::Command;

use mirza_telemetry::Json;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, section: &str, key: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field(key))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_mirzabench"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

fn assert_emits(workload: &str, trace: &str, declared: &[(String, String)]) {
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {result:?}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = result.get("metrics").expect("metrics object");
    for (name, unit) in declared {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload} --trace {trace} does not emit {name}"));
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name} has no value"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name} unit"
        );
    }
    let Json::Obj(emitted) = metrics else {
        panic!("metrics is not an object");
    };
    assert_eq!(
        emitted.len(),
        declared.len(),
        "{workload} --trace {trace} emits extra metrics"
    );
}

#[test]
fn end_to_end_metrics_are_emitted_on_every_workload() {
    let doc = benchmark();
    let declared = names(&doc, "end_to_end", "unit");
    for (workload, _) in names(&doc, "workloads", "why") {
        assert_emits(&workload, "0", &declared);
    }
}

#[test]
fn per_layer_metrics_are_emitted_on_every_workload() {
    let doc = benchmark();
    let declared = names(&doc, "per_layer", "unit");
    for (workload, _) in names(&doc, "workloads", "why") {
        assert_emits(&workload, "1", &declared);
    }
}
