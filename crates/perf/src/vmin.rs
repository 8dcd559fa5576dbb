//! The `vmin_table1` workload: passes of the Table I voltage-at-failure
//! search, as the `table1_voltage_at_failure` binary runs it —
//! `VoltageAtFailure::paper(nominal).run` over
//! `Rig::at_voltage(v).measure_with_offsets` at the reporting spec.
//! Single-threaded, and no GA, journal or network layer runs, so it is
//! the bypass workload for those layers.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use audit_core::ga::stream_seed;
use audit_core::harness::{MeasureSpec, Rig};
use audit_cpu::Program;
use audit_measure::VoltageAtFailure;
use audit_stressmark::{manual, workloads};

use crate::config::{self, STRESS_THREADS};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, percentile, time_setup, warm_up};
use crate::trace::{self, Tracer};
use crate::RunArgs;

/// Passes every full run makes, whatever its time budget, so the
/// pass-to-pass identity check always runs (a smoke run makes one; its
/// traced pass is still checked against it).
const MIN_PASSES: usize = 2;

/// Instructions synthesized per benchmark body, and the synthesis seed
/// (both as the Table I binary).
const BODY_LEN: usize = 4_000;
const BODY_SEED: u64 = 1;

/// Start offsets of the standard benchmarks' threads are drawn below
/// this many cycles: their natural skew.
const MAX_SKEW: u64 = 128;

/// Paper Table I failure points relative to SM-Res, in mV, for the rows
/// after SM-Res.
const PAPER_REL_MV: [f64; 4] = [-50.0, -75.0, -113.0, -113.0];

/// One Table I row: four copies of a program at their start offsets.
struct Row {
    name: &'static str,
    programs: Vec<Program>,
    offsets: Vec<u64>,
}

/// The rig and rows. Stressmarks run aligned (dithered); the standard
/// benchmarks run at a natural skew drawn from the workload seed.
fn setup(seed: u64) -> (Rig, Vec<Row>) {
    let aligned = vec![0; STRESS_THREADS];
    let skew: Vec<u64> = (0..STRESS_THREADS as u64)
        .map(|i| stream_seed(seed, i) % MAX_SKEW)
        .collect();
    let row = |name, program: Program, offsets: &Vec<u64>| Row {
        name,
        programs: vec![program; STRESS_THREADS],
        offsets: offsets.clone(),
    };
    let body = |name: &str| {
        workloads::by_name(name)
            .expect("Table I benchmark profile exists")
            .synthesize(BODY_LEN, BODY_SEED)
    };
    let rows = vec![
        row("SM-Res", manual::sm_res(), &aligned),
        row("SM1", manual::sm1(), &aligned),
        row("SM2", manual::sm2(), &aligned),
        row("zeusmp", body("zeusmp"), &skew),
        row("swaptions", body("swaptions"), &skew),
    ];
    (Rig::bulldozer(), rows)
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    /// Failure point of each row, mV (`None`: no failure above the
    /// search floor).
    points: Vec<Option<f64>>,
    /// Seconds per probe: the search's steps.
    probes_s: Vec<f64>,
}

fn pass(rig: &Rig, rows: &[Row], spec: MeasureSpec, tracer: Option<&Tracer>) -> Pass {
    let pass_id = tracer.map_or(0, Tracer::open);
    let start = Instant::now();
    let mut p = Pass::default();
    p.points = rows
        .iter()
        .map(|row| {
            let row_start = Instant::now();
            let row_id = tracer.map_or(0, Tracer::open);
            let vf = VoltageAtFailure::paper(rig.pdn.nominal_voltage()).run(|v| {
                let t = Instant::now();
                let at = rig.at_voltage(v);
                let failed = match tracer {
                    Some(tr) => trace::measure(tr, row_id, &at, &row.programs, &row.offsets, spec),
                    None => at.measure_with_offsets(&row.programs, &row.offsets, spec),
                }
                .failed;
                p.probes_s.push(t.elapsed().as_secs_f64());
                failed
            });
            if let Some(tr) = tracer {
                tr.close(row_id, "vmin.row", row_start, pass_id);
            }
            vf.map(|v| v * 1e3)
        })
        .collect();
    p.wall_s = start.elapsed().as_secs_f64();
    if let Some(tr) = tracer {
        tr.close(pass_id, "vmin.pass", start, 0);
    }
    p
}

/// Runs Table I passes until `seconds` have passed (at least
/// [`MIN_PASSES`]); a traced run follows each pass with a traced pass
/// that must find the same failure points.
pub(crate) fn run(a: &RunArgs) -> Report {
    let mut r = Report {
        workload: config::Workload::VminTable1.name().into(),
        seed: a.seed,
        traced: a.trace,
        ..Report::default()
    };
    let spec = config::vmin_spec(a.smoke);
    let (rig, rows) = setup(a.seed);
    let warm = &rows[0];
    warm_up(a.smoke, || {
        rig.measure_with_offsets(&warm.programs, &warm.offsets, spec)
    });

    let tracer = a.trace.then(|| Arc::new(Tracer::new()));
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut first_stages = None;
    let start = Instant::now();
    let min_passes = if a.smoke { 1 } else { MIN_PASSES };
    let mut setups = Vec::new();
    while plain.len() < min_passes || start.elapsed().as_secs_f64() < a.seconds {
        // Set-up samples are spread over the run, one burst per pass,
        // so a slow spell of the host cannot cover all of them.
        setups.extend(time_setup(|| setup(a.seed)));
        plain.push(pass(&rig, &rows, spec, None));
        if let Some(tr) = &tracer {
            traced.push(pass(&rig, &rows, spec, Some(tr)));
            first_stages.get_or_insert_with(|| tr.stages());
        }
    }
    let reference = &plain[0].points;
    for (k, p) in plain.iter().chain(&traced).enumerate().skip(1) {
        if p.points != *reference {
            r.problems.push(format!(
                "pass {k} found failure points {:?}, the first pass {reference:?}",
                p.points
            ));
        }
    }
    check_table(&rows, reference, a.smoke, &mut r);
    r.attempted = plain
        .iter()
        .chain(&traced)
        .map(|p| p.probes_s.len() as u64)
        .sum();

    let probes_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.probes_s.iter().map(|s| s * 1e3))
        .collect();
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(&setups));
    m.insert(
        "campaign_s",
        median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
    );
    let rate = probes_ms.len() as f64 / plain.iter().map(|p| p.wall_s).sum::<f64>();
    m.insert("evals_per_s", rate);
    m.insert("candidates_per_s", rate);
    m.insert("step_ms_p50", percentile(&probes_ms, 50.0));
    m.insert("step_ms_p90", percentile(&probes_ms, 90.0));
    m.insert("peak_rss_mb", peak_rss_mb());

    r.extra("samples.setups", setups.len() as f64, "count");
    r.extra("samples.campaigns", plain.len() as f64, "count");
    r.extra("samples.evals", probes_ms.len() as f64, "count");
    r.extra("samples.steps", probes_ms.len() as f64, "count");
    r.extra("failed_frac", 0.0, "ratio");

    if let Some(tr) = &tracer {
        m.clear();
        trace::stage_metrics(&tr.stages(), &first_stages.unwrap_or_default(), &mut m);
        for (name, zero) in [
            ("core.resonance_share", 0.0),
            ("core.ga.engine_share", 0.0),
            ("core.ga.dispatch_share", 0.0),
            ("core.ga.pool_idle_frac", 0.0),
            ("core.ga.cache_hit_frac", 0.0),
            ("core.ga.full_sim_frac", 0.0),
            ("core.journal.share", 0.0),
            ("core.journal.bytes_written", 0.0),
            ("net.dispatches", 0.0),
            ("net.redispatch_frac", 0.0),
            ("net.wal_bytes", 0.0),
        ] {
            m.insert(name, zero);
        }
        let overhead: Vec<f64> = plain
            .iter()
            .zip(&traced)
            .map(|(p, t)| t.wall_s / p.wall_s - 1.0)
            .collect();
        m.insert("trace_overhead_frac", median(&overhead));
    }
    r.set_metrics(&m);
    if let Some(tr) = tracer {
        let path = a.out.join("vmin_table1.trace.json");
        if let Err(e) = tr.write(&path, r.to_json()) {
            r.problems.push(format!("{}: {e}", path.display()));
        }
    }
    r
}

/// Checks the failure points against Table I's shape and reports
/// `vf_err_mv`, the mean absolute error of the rows after SM-Res
/// (relative to SM-Res) against the paper. The smoke spec is too short
/// for the shape to hold, so only completeness is checked there.
fn check_table(rows: &[Row], points: &[Option<f64>], smoke: bool, r: &mut Report) {
    let Some(points) = points.iter().copied().collect::<Option<Vec<f64>>>() else {
        r.problems.push(format!(
            "a Table I row never failed above the floor: {points:?}"
        ));
        return;
    };
    let rel: Vec<f64> = points[1..].iter().map(|p| p - points[0]).collect();
    let err = rel
        .iter()
        .zip(PAPER_REL_MV)
        .map(|(m, p)| (m - p).abs())
        .sum::<f64>()
        / rel.len() as f64;
    r.extra("vf_err_mv", err, "mV");
    r.extra("vf.SM-Res_mv", points[0], "mV");
    for (row, rel) in rows[1..].iter().zip(&rel) {
        r.extra(format!("vf.{}_rel_mv", row.name), *rel, "mV");
    }
    // SM-Res ≥ SM1 ≥ SM2 ≥ each standard benchmark (paper Table I).
    let ordered = points[0] >= points[1]
        && points[1] >= points[2]
        && points[2] >= points[3]
        && points[2] >= points[4];
    if !smoke && !ordered {
        r.problems.push(format!(
            "Table I failure points out of order: {points:?} mV"
        ));
    }
}
