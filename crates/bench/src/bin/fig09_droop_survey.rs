//! Figure 9: maximum voltage droop of SPEC CPU2006, PARSEC, manual
//! stressmarks, and AUDIT-generated stressmarks, at 1T/2T/4T/8T, all
//! relative to the 4T SM1 stressmark.
//!
//! Methodology mirrors the paper (§5.A): threads are replicated
//! SPECrate-style and spread one per module (the 8T runs double up and
//! hit the shared FPU); stressmarks are measured at their dithered
//! (aligned) worst case, while benchmarks — which have no regular loop to
//! dither — run with natural skew; the VRM load line is disabled
//! throughout.

use audit_bench::{audit_options, banner, benchmark_programs, emit, plots, reporting_spec, rig};
use audit_core::audit::Audit;
use audit_core::report::{rel, Table};
use audit_cpu::Program;
use audit_stressmark::manual;

fn main() {
    banner("Fig. 9", "droop survey relative to 4T SM1");
    let rig = rig();
    let spec = reporting_spec();

    // Generate the AUDIT stressmarks (paper: <5 h on hardware; seconds
    // here — the framework is identical, the "hardware" is simulated).
    let audit = Audit::new(rig.clone(), audit_options());
    eprintln!("generating A-Ex (4T)…");
    let a_ex = audit.generate_excitation(4);
    eprintln!("generating A-Res (4T)…");
    let a_res = audit.generate_resonant(4);
    eprintln!("generating A-Res-8T…");
    let a_res_8t = audit.generate_resonant(8);

    // Reference: 4T SM1, dithered/aligned.
    let reference = rig
        .measure_aligned(&vec![manual::sm1(); 4], spec)
        .max_droop();
    println!("reference droop (4T SM1): {:.1} mV\n", reference * 1e3);

    let thread_counts = [1usize, 2, 4, 8];
    let mut table = Table::new(vec!["workload", "suite", "1T", "2T", "4T", "8T"]);
    let mut bar_rows: Vec<(String, Vec<f64>)> = Vec::new();

    // Standard benchmarks: natural (non-dithered) skew between threads.
    for program in benchmark_programs() {
        let suite = if audit_stressmark::workloads::by_name(program.name())
            .map(|p| p.suite == audit_stressmark::Suite::Parsec)
            .unwrap_or(false)
        {
            "PARSEC"
        } else {
            "SPEC2006"
        };
        let mut cells = vec![program.name().to_string(), suite.to_string()];
        let mut bars = Vec::new();
        for &n in &thread_counts {
            let offsets: Vec<u64> = (0..n as u64).map(|i| i * 37 + 11).collect();
            let d = rig
                .measure_with_offsets(&vec![program.clone(); n], &offsets, spec)
                .max_droop();
            bars.push(d / reference);
            cells.push(rel(d, reference));
        }
        bar_rows.push((program.name().to_string(), bars));
        table.row(cells);
    }

    // Stressmarks: dithered worst case (aligned starts).
    let stressmarks: Vec<(&str, Program)> = vec![
        ("SM1", manual::sm1()),
        ("SM2", manual::sm2()),
        ("SM-Res", manual::sm_res()),
        ("A-Ex", a_ex.program.clone()),
        ("A-Res", a_res.program.clone()),
        ("A-Res-8T", a_res_8t.program.clone()),
    ];
    for (name, program) in &stressmarks {
        let mut cells = vec![name.to_string(), "stressmark".to_string()];
        let mut bars = Vec::new();
        for &n in &thread_counts {
            let d = rig
                .measure_aligned(&vec![program.clone(); n], spec)
                .max_droop();
            bars.push(d / reference);
            cells.push(rel(d, reference));
        }
        bar_rows.push((name.to_string(), bars));
        table.row(cells);
    }

    emit(&table);

    let rows: Vec<(&str, Vec<f64>)> = bar_rows
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    if let Ok(path) = plots::write_bars(
        "fig09_droop_survey",
        "Max droop relative to 4T SM1 (Fig. 9)",
        "droop / (4T SM1)",
        &["1T", "2T", "4T", "8T"],
        &rows,
    ) {
        println!("plot script: {}", path.display());
    }

    println!("expected shape (paper Fig. 9):");
    println!(" • droop grows with thread count for 1T→4T; 8T breaks the trend for");
    println!("   FP-heavy stressmarks (shared FPU interference, §5.A.2);");
    println!(" • stressmarks (except SM2) well above every benchmark;");
    println!(" • resonant stressmarks (SM-Res, A-Res) the largest, A-Res ≥ SM-Res;");
    println!(" • A-Res-8T beats A-Res at 8T but loses at 1T–4T (trained for 8T);");
    println!(" • PARSEC is not systematically above SPEC despite its barriers.");
}
