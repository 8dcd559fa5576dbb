//! `audit-perf`: one command that times AUDIT campaigns end to end and
//! per layer, and checks their outputs. See `README.md` next to this
//! crate for the workloads, the metric catalogue and how to read a
//! trace.
//!
//! ```text
//! cargo run --release -p audit-perf -- [--workload W] [--seed S] [--seconds T]
//!     [--trace 0|1] [--runs N] [--out DIR] [--smoke]
//! ```
//!
//! Each workload runs in a child process of its own (so `peak_rss_mb`
//! is the workload's alone). The parent prints every metric as
//! `workload metric value unit`, writes the same data to
//! `DIR/perf.json`, and ends its output with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. It exits non-zero
//! when any output check fails.

mod config;
mod ga;
mod report;
mod stats;
mod trace;
mod vmin;

use std::fs;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use audit_measure::json::JsonValue;

use config::Workload;
use report::{Metric, Report};

const USAGE: &str =
    "usage: audit-perf [--workload ga_resonant|ga_cascade|ga_distributed|vmin_table1] \
                     [--seed S] [--seconds T] [--trace 0|1] [--runs N] [--out DIR] [--smoke]";

/// Settings of one workload run.
pub(crate) struct RunArgs {
    /// Workload seed: GA campaigns use `seed`, `seed + 1`, …; Table I
    /// synthesizes its benchmark bodies from it.
    pub seed: u64,
    /// Measurement budget: units (campaigns, passes) start until it is
    /// spent.
    pub seconds: f64,
    /// Trace the run (per-layer metrics and `DIR/<workload>.trace.json`).
    pub trace: bool,
    /// Tiny populations and measurement windows, for the smoke test.
    pub smoke: bool,
    /// Output directory (perf.json, traces, scratch journals).
    pub out: PathBuf,
}

struct Args {
    workloads: Vec<Workload>,
    runs: usize,
    /// Run one workload in this process and print its report (the
    /// parent spawns itself with this flag).
    child: bool,
    run: RunArgs,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        runs: 1,
        child: false,
        run: RunArgs {
            seed: 11,
            seconds: 20.0,
            trace: false,
            smoke: false,
            out: PathBuf::from("perf-out"),
        },
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.run.seed = number(&flag, &value()?)?,
            "--seconds" => {
                args.run.seconds = number(&flag, &value()?)?;
                if !(args.run.seconds >= 0.0 && args.run.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--runs" => {
                args.runs = number(&flag, &value()?)?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => args.run.out = PathBuf::from(value()?),
            "--smoke" => args.run.smoke = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.child && args.workloads.len() != 1 {
        return Err("--child needs --workload".into());
    }
    Ok(args)
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`"))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("audit-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = fs::create_dir_all(&args.run.out) {
        eprintln!("audit-perf: {}: {e}", args.run.out.display());
        return ExitCode::FAILURE;
    }
    if args.child {
        child(&args);
        return ExitCode::SUCCESS;
    }
    parent(&args)
}

/// Runs one workload in this process and prints its report as the last
/// line of stdout.
fn child(args: &Args) {
    let w = args.workloads[0];
    let work = args.run.out.join(format!("work-{}", std::process::id()));
    let mut r = match w {
        Workload::VminTable1 => vmin::run(&args.run),
        _ => ga::run(w, &args.run, &work),
    };
    if work.exists() {
        if let Err(e) = fs::remove_dir_all(&work) {
            r.problems.push(format!("{}: {e}", work.display()));
        }
    }
    println!("{}", r.to_json().encode());
}

fn spawn(w: Workload, seed: u64, args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.run.seconds.to_string()])
        .args(["--trace", if args.run.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.run.out);
    if args.run.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("the {} child failed ({})", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .last()
        .and_then(|line| JsonValue::parse(line).ok())
        .and_then(|v| Report::from_json(&v))
        .ok_or_else(|| format!("the {} child printed no report", w.name()))
}

/// Runs every selected workload `runs` times, alternating the order.
fn parent(args: &Args) -> ExitCode {
    let mut reports: Vec<(usize, Report)> = Vec::new();
    let mut problems = Vec::new();
    for run in 0..args.runs {
        let seed = args.run.seed + run as u64;
        let mut order = args.workloads.clone();
        if run % 2 == 1 {
            order.reverse();
        }
        for w in order {
            match spawn(w, seed, args) {
                Ok(r) => {
                    print_report(&r);
                    reports.push((run, r));
                }
                Err(e) => problems.push(e),
            }
        }
        problems.extend(cross_check(run, &reports));
    }
    for p in &problems {
        println!("check FAILED: {p}");
    }
    let calibration = if args.runs > 1 {
        calibrate(&reports)
    } else {
        Vec::new()
    };
    let correct = problems.is_empty() && reports.iter().all(|(_, r)| r.correct());
    let doc = JsonValue::object(vec![
        ("correct", JsonValue::Bool(correct)),
        (
            "reports",
            JsonValue::Array(reports.iter().map(|(_, r)| r.to_json()).collect()),
        ),
        (
            "problems",
            JsonValue::Array(
                problems
                    .iter()
                    .map(|p| JsonValue::String(p.clone()))
                    .collect(),
            ),
        ),
        ("calibration", JsonValue::Array(calibration)),
    ]);
    let path = args.run.out.join("perf.json");
    if let Err(e) = fs::write(&path, doc.encode() + "\n") {
        eprintln!("audit-perf: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        summary(&reports, correct, args.workloads.len() > 1).encode()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(r: &Report) {
    for m in r.metrics.iter().chain(&r.extra) {
        println!("{} {} {} {}", r.workload, m.name, m.value, m.unit);
    }
    for p in &r.problems {
        println!("{} check FAILED: {p}", r.workload);
    }
}

/// The distributed campaigns must write the journals the local ones
/// write, seed for seed. Also prints the distribution overhead when both
/// ran untraced in this round.
fn cross_check(run: usize, reports: &[(usize, Report)]) -> Vec<String> {
    let find = |w: Workload| {
        reports
            .iter()
            .find(|(r, rep)| *r == run && rep.workload == w.name())
            .map(|(_, rep)| rep)
    };
    let (Some(local), Some(dist)) = (find(Workload::GaResonant), find(Workload::GaDistributed))
    else {
        return Vec::new();
    };
    let rate = |r: &Report| {
        r.metrics
            .iter()
            .find(|m| m.name == "evals_per_s")
            .map(|m| m.value)
    };
    if let (Some(l), Some(d)) = (rate(local), rate(dist)) {
        println!("ga_distributed net.overhead_frac {} frac", 1.0 - d / l);
    }
    let mut problems = Vec::new();
    let mut common = 0;
    for &(seed, d) in &dist.digests {
        if let Some(&(_, l)) = local.digests.iter().find(|(s, _)| *s == seed) {
            common += 1;
            if l != d {
                problems.push(format!(
                    "seed {seed}: ga_distributed journal {d:016x} != ga_resonant {l:016x}"
                ));
            }
        }
    }
    if common == 0 {
        problems.push("ga_resonant and ga_distributed share no campaign seed".into());
    }
    problems
}

/// Median and quartiles of every metric across runs, printed as
/// `calibration workload metric median q1 q3 spread unit`, where spread
/// is (q3 − q1) / median.
fn calibrate(reports: &[(usize, Report)]) -> Vec<JsonValue> {
    let mut rows = Vec::new();
    let mut seen: Vec<(String, String)> = Vec::new();
    for (_, r) in reports {
        for m in r.metrics.iter().chain(&r.extra) {
            let key = (r.workload.clone(), m.name.clone());
            if seen.contains(&key) {
                continue;
            }
            let values = values_of(reports, &r.workload, &m.name);
            if values.len() < 2 {
                continue;
            }
            let [q1, med, q3] = stats::quartiles(&values);
            let spread = (q3 - q1) / med.abs();
            println!(
                "calibration {} {} median {med} q1 {q1} q3 {q3} spread {spread:.4} {}",
                r.workload, m.name, m.unit
            );
            rows.push(JsonValue::object(vec![
                ("workload", JsonValue::String(r.workload.clone())),
                ("metric", JsonValue::String(m.name.clone())),
                ("unit", JsonValue::String(m.unit.clone())),
                ("median", JsonValue::from_f64(med)),
                ("q1", JsonValue::from_f64(q1)),
                ("q3", JsonValue::from_f64(q3)),
                ("spread", JsonValue::from_f64(spread)),
            ]));
            seen.push(key);
        }
    }
    rows
}

fn values_of(reports: &[(usize, Report)], workload: &str, metric: &str) -> Vec<f64> {
    reports
        .iter()
        .filter(|(_, r)| r.workload == workload)
        .flat_map(|(_, r)| r.metrics.iter().chain(&r.extra))
        .filter(|m| m.name == metric)
        .map(|m| m.value)
        .collect()
}

/// The closing line: the contract metrics (medians across runs), named
/// `workload.metric` when more than one workload ran.
fn summary(reports: &[(usize, Report)], correct: bool, multi: bool) -> JsonValue {
    let mut metrics: Vec<(String, JsonValue)> = Vec::new();
    for (_, r) in reports {
        for Metric { name, unit, .. } in &r.metrics {
            let key = if multi {
                format!("{}.{name}", r.workload)
            } else {
                name.clone()
            };
            if metrics.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let value = stats::median(&values_of(reports, &r.workload, name));
            metrics.push((
                key,
                JsonValue::object(vec![
                    ("value", JsonValue::from_f64(value)),
                    ("unit", JsonValue::String(unit.clone())),
                ]),
            ));
        }
    }
    let attempted: u64 = reports.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = reports.iter().map(|(_, r)| r.failed).sum();
    JsonValue::object(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::from_u64(attempted)),
        ("failed", JsonValue::from_u64(failed)),
        ("metrics", JsonValue::Object(metrics)),
    ])
}
