//! Tiny-size smoke runs of every workload, untraced and traced, through
//! the real binary: each must pass its output checks and print the
//! declared metrics on its last line.

use coma_benchsuite::json::{at, boolean, get, number, parse};
use serde::Value;
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(workload: &str, trace: bool, seconds: &str) -> Value {
    let dir = scratch(&format!("smoke-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_coma-benchsuite"))
        .args(["--workload", workload, "--seed", "7", "--seconds", seconds])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).unwrap();
    assert_eq!(
        get(&result, "correct").and_then(boolean),
        Some(true),
        "{stdout}"
    );
    assert_eq!(
        get(&result, "failed").and_then(number),
        Some(0.0),
        "{stdout}"
    );
    assert!(get(&result, "attempted").and_then(number).unwrap() >= 1.0);
    if trace {
        let spans = dir
            .join(".bench_tmp")
            .join(format!("trace-{workload}-7.jsonl"));
        assert!(std::fs::read_to_string(spans).unwrap().lines().count() > 0);
    }
    result
}

fn metric(result: &Value, name: &str) -> f64 {
    at(result, &["metrics", name, "value"])
        .and_then(number)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn large_batch_smoke() {
    let r = run("large-batch", false, "0");
    let metrics = get(&r, "metrics").and_then(Value::as_map).unwrap();
    assert_eq!(metrics.len(), 5);
    for name in [
        "setup_s",
        "latency_p50_ms",
        "latency_tail_ms",
        "throughput_per_s",
        "peak_mem_mib",
    ] {
        assert!(metric(&r, name) > 0.0, "{name}");
    }
    let t = run("large-batch", true, "0");
    assert!(metric(&t, "matchers.Name_ms") > 0.0);
    assert!(metric(&t, "index.build_ms") > 0.0);
    assert_eq!(metric(&t, "engine.replay_reproduced"), 1.0);
    assert_eq!(
        metric(&t, "server.exec_ms"),
        0.0,
        "the batch workload has no server"
    );
}

#[test]
fn paper_corpus_smoke() {
    let r = run("paper-corpus", false, "0");
    assert!(metric(&r, "latency_p50_ms") > 0.0);
    let t = run("paper-corpus", true, "0");
    assert!(metric(&t, "import.ms") > 0.0);
    assert!(metric(&t, "reuse.paths_found") >= 1.0);
    assert!(metric(&t, "quality.f1") > 0.5);
}

#[test]
fn service_mixed_smoke() {
    let r = run("service-mixed", false, "1");
    assert!(metric(&r, "throughput_per_s") > 0.0);
    assert!(metric(&r, "setup_s") > 0.0);
    let t = run("service-mixed", true, "1");
    assert!(metric(&t, "server.exec_ms") > 0.0);
    assert!(metric(&t, "protocol.response_bytes") > 0.0);
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper-corpus", "--trace", "2"],
        &["--workload", "paper-corpus", "--seconds"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_coma-benchsuite"))
            .args(args)
            .current_dir(scratch("smoke-usage"))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
