//! Runs the short mode of every workload, untraced and traced, and
//! checks the result line: every answer check passed, no operation
//! failed, and the metrics are exactly those `BENCHMARK.json` declares
//! for the mode, each a finite number.

use hpm_obs::json::{parse, Json};
use std::process::Command;

fn declared(kind: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let json = parse(&text).expect("BENCHMARK.json parses");
    json.get(kind)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_hpm-fleetbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1.5"])
        .args(["--trace", trace, "--short"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("start the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

#[test]
fn every_workload_passes_its_checks_in_short_mode() {
    for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut want = declared(kind);
        want.sort();
        for workload in ["feed", "query", "mixed"] {
            let result = run(workload, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = result.get("metrics").and_then(Json::as_object).unwrap();
            let mut got: Vec<String> = metrics.keys().cloned().collect();
            got.sort();
            assert_eq!(got, want, "{workload} trace {trace} metric names");
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(v.is_finite(), "{workload} {name} = {v}");
                if kind == "end_to_end" {
                    assert!(v > 0.0, "{workload} {name} = {v}");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    // (workload, seed, seconds, trace), one bad value each.
    for (workload, seed, seconds, trace) in [
        ("nope", "1", "1", "0"),
        ("feed", "1", "0", "0"),
        ("feed", "x", "1", "0"),
        ("feed", "1", "1", "2"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpm-fleetbench"))
            .args(["--workload", workload, "--seed", seed])
            .args(["--seconds", seconds, "--trace", trace])
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("start the benchmark");
        let case = [workload, seed, seconds, trace];
        assert_eq!(out.status.code(), Some(2), "{case:?}");
        assert!(out.stdout.is_empty(), "{case:?}");
    }
}
