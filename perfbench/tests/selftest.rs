//! The benchmark's self-test: a small run of each workload prints every
//! metric `BENCHMARK.json` names, with its unit, and a deliberately wrong
//! expected value makes the run fail.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

const WORKLOADS: [&str; 3] = ["cold-auctions", "hot-auctions", "durable-rounds"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {key}")),
        other => panic!("{other:?} is not an object"),
    }
}

fn string(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("{other:?} is not a string"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Value::Array(metrics) = field(&doc, section) else {
        panic!("{section} is not a list");
    };
    metrics
        .iter()
        .map(|m| {
            (
                string(field(m, "name")).to_string(),
                string(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

struct Run {
    success: bool,
    result: Value,
    stdout: String,
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let last = stdout.lines().last().unwrap_or_default();
    let result = serde_json::from_str(last)
        .unwrap_or_else(|e| panic!("last line of {workload} is not JSON ({e}):\n{stdout}"));
    Run {
        success: out.status.success(),
        result,
        stdout,
    }
}

fn assert_prints(workload: &str, trace: u8, section: &str) {
    let run = run(workload, trace, &[]);
    assert!(run.success, "{workload} failed:\n{}", run.stdout);
    assert!(matches!(field(&run.result, "correct"), Value::Bool(true)));
    let Value::Object(metrics) = field(&run.result, "metrics") else {
        panic!("metrics is not an object");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| (name.clone(), string(field(m, "unit")).to_string()))
        .collect();
    assert_eq!(printed, declared(section), "{workload} trace={trace}");
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in WORKLOADS {
        assert_prints(workload, 0, "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    for workload in WORKLOADS {
        assert_prints(workload, 1, "per_layer");
    }
}

#[test]
fn a_wrong_expected_value_fails_the_run() {
    for (workload, tamper) in [
        ("cold-auctions", "outcome"),
        ("hot-auctions", "outcome"),
        ("durable-rounds", "receipt"),
        ("durable-rounds", "stream"),
    ] {
        let run = run(workload, 0, &["--tamper", tamper]);
        assert!(!run.success, "{workload} --tamper {tamper} passed");
        assert!(matches!(field(&run.result, "correct"), Value::Bool(false)));
        assert!(
            run.stdout.contains("# MISMATCH"),
            "{workload} --tamper {tamper} named no mismatch:\n{}",
            run.stdout
        );
    }
}
