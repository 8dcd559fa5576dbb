//! Smoke test of the benchmark in its tiny `--smoke` configuration:
//! every workload prints every metric `BENCHMARK.json` names, traced and
//! untraced, with its output checks passing; and the GA path the
//! benchmark times writes the journal `audit generate --checkpoint`
//! writes.

#[allow(dead_code)]
#[path = "../src/config.rs"]
mod config;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use audit_core::audit::Audit;
use audit_core::harness::Rig;
use audit_core::journal::JournalWriter;
use audit_measure::json::JsonValue;

use config::Workload;

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the benchmark in smoke mode and returns its stdout.
fn run_bench(out: &Path, extra: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_audit-perf"))
        .args(["--smoke", "--seconds", "0", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .expect("run audit-perf");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "audit-perf {extra:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = fs::read_to_string(&path).expect("read BENCHMARK.json");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn metric_list(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_benchmark_metric() {
    let spec = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = scratch(&format!("perf-smoke-{trace}"));
        let stdout = run_bench(&out, &["--trace", trace]);
        let summary = JsonValue::parse(stdout.lines().last().expect("output"))
            .expect("the last line is JSON");
        assert_eq!(
            summary.get("correct"),
            Some(&JsonValue::Bool(true)),
            "{stdout}"
        );
        assert!(summary.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
        assert_eq!(summary.get("failed").and_then(JsonValue::as_u64), Some(0));
        let metrics = summary.get("metrics").expect("metrics");
        for w in Workload::ALL {
            for (name, unit) in metric_list(&spec, list) {
                let prefix = format!("{} {name} ", w.name());
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with(&prefix))
                    .unwrap_or_else(|| panic!("--trace {trace}: no `{prefix}` line:\n{stdout}"));
                assert!(line.ends_with(&format!(" {unit}")), "unit of `{line}`");
                let value: f64 = line.split(' ').nth(2).unwrap().parse().expect("number");
                assert!(value.is_finite(), "{line}");
                let m = metrics
                    .get(&format!("{}.{name}", w.name()))
                    .unwrap_or_else(|| panic!("summary lacks {}.{name}", w.name()));
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str())
                );
            }
            if trace == "1" {
                let path = out.join(format!("{}.trace.json", w.name()));
                let text = fs::read_to_string(&path).expect("trace file written");
                let doc = JsonValue::parse(&text).expect("trace parses");
                assert!(!doc
                    .get("spans")
                    .and_then(JsonValue::as_array)
                    .unwrap()
                    .is_empty());
            }
        }
        let leftovers: Vec<_> = fs::read_dir(&out)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("work-"))
            .collect();
        assert!(leftovers.is_empty(), "scratch directories left behind");
    }
}

#[test]
fn benchmark_times_the_audit_generate_path() {
    let seed = 5;
    let out = scratch("perf-smoke-path");
    run_bench(
        &out,
        &["--workload", "ga_resonant", "--seed", &seed.to_string()],
    );
    let perf = JsonValue::parse(&fs::read_to_string(out.join("perf.json")).unwrap()).unwrap();
    let report = &perf.get("reports").and_then(JsonValue::as_array).unwrap()[0];
    let digest = report.get("digests").and_then(JsonValue::as_array).unwrap()[0]
        .get("digest")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();

    // The same campaign through `Audit::generate_resonant_journaled`,
    // the path behind `audit generate --checkpoint`.
    let opts = config::ga_options(Workload::GaResonant, true, seed);
    let path = out.join("reference.ndjson");
    let mut writer = JournalWriter::create(&path, "generate", config::journal_meta(seed)).unwrap();
    Audit::new(Rig::bulldozer(), opts)
        .generate_resonant_journaled(config::STRESS_THREADS, &mut writer)
        .unwrap();
    writer.finish().unwrap();
    let reference = config::digest(&fs::read_to_string(&path).unwrap());
    assert_eq!(digest, format!("{reference:016x}"));
}
