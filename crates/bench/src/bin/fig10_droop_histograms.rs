//! Figure 10: frequency of droop events — voltage histograms for
//! zeusmp, SM1, and A-Res (4T runs).
//!
//! The paper's plots (8 M scope samples each) show three signatures:
//! zeusmp barely deviates from nominal; SM1 centres at nominal with a
//! long two-sided tail; the resonant stressmark concentrates its mass
//! near the worst-case droop. What dictates failure is the
//! high-probability mass near the tail, not the single worst sample.

use audit_bench::{audit_options, banner, benchmark, emit, fast_mode, rig};
use audit_core::audit::Audit;
use audit_core::report::{mv, Table};
use audit_core::MeasureSpec;
use audit_cpu::Program;
use audit_stressmark::manual;

fn main() {
    banner("Fig. 10", "droop-event histograms: zeusmp, SM1, A-Res (4T)");
    let rig = rig();
    let samples: u64 = if fast_mode() { 40_000 } else { 2_000_000 };
    let spec = MeasureSpec {
        warmup_cycles: 5_000,
        record_cycles: samples,
        settle_cycles: 400_000,
        check_failure: false,
        trigger_below_nominal: Some(0.06),
        envelope_decimation: (samples / 1_000).max(1),
        keep_traces: false,
    };

    let audit = Audit::new(rig.clone(), audit_options());
    eprintln!("generating A-Res (4T)…");
    let a_res = audit.generate_resonant(4);

    let runs: Vec<(&str, Program)> = vec![
        ("zeusmp", benchmark("zeusmp")),
        ("SM1", manual::sm1()),
        ("A-Res", a_res.program.clone()),
    ];

    let mut summary = Table::new(vec![
        "workload",
        "samples",
        "max droop",
        "p0.1% voltage",
        "median voltage",
        "droop events",
        "tail mass ≤ nominal−60mV",
    ]);
    let mut hist_table = Table::new(vec!["bin_center_v", "zeusmp", "SM1", "A-Res"]);
    let mut columns: Vec<Vec<u64>> = Vec::new();
    let mut centers: Vec<f64> = Vec::new();

    for (name, program) in &runs {
        let m = rig.measure_aligned(&vec![program.clone(); 4], spec);
        let h = &m.histogram;
        summary.row(vec![
            name.to_string(),
            h.total().to_string(),
            mv(m.max_droop()),
            format!("{:.4} V", h.quantile(0.001)),
            format!("{:.4} V", h.quantile(0.5)),
            m.trigger_events.to_string(),
            format!(
                "{:.4}%",
                100.0 * h.fraction_at_or_below(rig.pdn.nominal_voltage() - 0.06)
            ),
        ]);
        if centers.is_empty() {
            centers = h.rows().map(|(c, _)| c).collect();
        }
        columns.push(h.counts().to_vec());
    }
    emit(&summary);

    // Coarse joint histogram (every 8th bin) for plotting.
    for (i, c) in centers.iter().enumerate().step_by(8) {
        hist_table.row(vec![
            format!("{c:.4}"),
            columns[0][i].to_string(),
            columns[1][i].to_string(),
            columns[2][i].to_string(),
        ]);
    }
    emit(&hist_table);

    // Plot artifact: the three full-resolution histograms.
    let series: Vec<(&str, Vec<(f64, f64)>)> = ["zeusmp", "SM1", "A-Res"]
        .iter()
        .zip(&columns)
        .map(|(name, col)| {
            let pts: Vec<(f64, f64)> = centers
                .iter()
                .zip(col)
                .map(|(&c, &n)| (c, (n.max(1)) as f64))
                .collect();
            (*name, pts)
        })
        .collect();
    let refs: Vec<(&str, &[(f64, f64)])> = series.iter().map(|(n, v)| (*n, v.as_slice())).collect();
    if let Ok(path) = audit_bench::plots::write_series(
        "fig10_histograms",
        "Frequency of droop events (Fig. 10, log counts)",
        "sampled Vdd (V)",
        "samples",
        &refs,
        false,
    ) {
        println!("plot script: {}", path.display());
    }

    println!("expected shape (paper Fig. 10):");
    println!(" • zeusmp: least voltage variation, mass tight around its mean;");
    println!(" • SM1: mass centred near nominal with a long droop/overshoot tail;");
    println!(" • A-Res: mass concentrated toward the worst-case droop —");
    println!("   resonance produces its deep droops *frequently*, not as outliers.");
}
