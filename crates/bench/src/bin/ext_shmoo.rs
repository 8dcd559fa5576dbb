//! Extension experiment: the automated DVFS shmoo.
//!
//! The paper's voltage-at-failure methodology (§5.A.4) measures one
//! operating point; Papadimitriou et al. (PAPERS.md) characterize safe
//! margins across the whole voltage/frequency plane. This binary runs
//! the `ShmooSweep` driver over a 3×3 V/F grid around the Bulldozer
//! rig's nominal point with the resonant stressmark as the workload,
//! and pins the subsystem's two claims:
//!
//! 1. the sweep is crash-tolerant end to end: a run killed mid-plane
//!    (simulated by truncating its journal at a record boundary) and
//!    resumed settles the same surface and rebuilds a byte-identical
//!    journal, and
//! 2. the safe margin shrinks toward the resonant clock — the surface
//!    is information, not a constant.
//!
//! Results land in `BENCH_shmoo.json`, and the margin surface is
//! emitted as a gnuplot heatmap under `target/plots/ext_shmoo.gp`.

use audit_bench::{banner, emit, fast_mode, plots};
use audit_core::harness::{MeasureSpec, Rig};
use audit_core::journal::{Journal, MemJournal};
use audit_core::report::Table;
use audit_core::{MeasurePolicy, ShmooSweep};
use audit_stressmark::manual;

fn main() {
    banner("extension", "DVFS shmoo: safe margin over the V/F plane");

    let rig = Rig::bulldozer();
    let v = rig.pdn.nominal_voltage();
    let f = rig.chip.clock_hz;
    let spec = if fast_mode() {
        MeasureSpec {
            warmup_cycles: 500,
            record_cycles: 1_500,
            settle_cycles: 20_000,
            ..MeasureSpec::ga_eval()
        }
    } else {
        MeasureSpec::ga_eval()
    };
    let sweep = ShmooSweep::grid(
        vec![0.95 * v, v, 1.05 * v],
        vec![0.875 * f, f, 1.125 * f],
        spec,
        MeasurePolicy::disabled(),
    );
    let threads = 2;
    let programs = vec![manual::sm_res(); threads];
    let offsets = vec![0; threads];

    // Reference: the uninterrupted sweep.
    let mut reference = MemJournal::default();
    let full = sweep
        .run(&rig, &programs, &offsets, &mut reference)
        .expect("shmoo sweep");

    // Kill mid-plane: truncate the journal near its midpoint, at the
    // nearest boundary whose last record is terminal (a settled probe
    // or point — the case where the byte-identity contract holds; a
    // kill after a write-ahead `pending` line still resumes correctly
    // but leaves that benign orphan line behind). Then resume: the
    // driver must replay settled points, finish the interrupted one,
    // and rebuild the exact journal.
    use audit_core::journal::{JournalRecord, VminOutcome};
    let terminal = |r: &JournalRecord| {
        matches!(
            r,
            JournalRecord::VminStep {
                outcome: VminOutcome::Passed | VminOutcome::Failed,
                ..
            } | JournalRecord::ShmooPoint {
                result: Some(_),
                ..
            }
        )
    };
    let cut = (0..=reference.records.len() / 2)
        .rev()
        .find(|&i| i > 0 && terminal(&reference.records[i - 1]))
        .expect("a terminal record in the first half");
    let mut resumed_journal = MemJournal {
        records: reference.records[..cut].to_vec(),
    };
    let killed = Journal {
        records: resumed_journal.records.clone(),
    };
    let resumed = sweep
        .resume_from(&killed, &rig, &programs, &offsets, &mut resumed_journal)
        .expect("resumed sweep");
    assert_eq!(
        resumed.cells, full.cells,
        "resumed sweep settled a different surface"
    );
    assert_eq!(
        resumed_journal.records, reference.records,
        "resumed journal diverged from the uninterrupted run"
    );
    assert!(
        resumed.replayed_points > 0 && resumed.live_points > 0,
        "the cut should land mid-plane (got {} replayed, {} live)",
        resumed.replayed_points,
        resumed.live_points
    );

    // The surface, as a table.
    let mut header = vec!["Vdd \\ clock".to_string()];
    header.extend(
        sweep
            .clocks_hz
            .iter()
            .map(|hz| format!("{:.0} MHz", hz / 1e6)),
    );
    let mut t = Table::new(header.iter().map(String::as_str).collect());
    let cols = sweep.clocks_hz.len();
    for (r, &volts) in sweep.volts.iter().enumerate() {
        let mut row = vec![format!("{volts:.4} V")];
        for c in 0..cols {
            row.push(format!("{:.4} V", full.cells[r * cols + c].margin));
        }
        t.row(row);
    }
    emit(&t);

    // BENCH_shmoo.json: the full surface plus the resume accounting.
    let cells: Vec<String> = full
        .cells
        .iter()
        .map(|c| {
            format!(
                "{{\"volts\":{},\"clock_hz\":{},\"v_fail\":{},\"margin\":{},\"steps\":{}}}",
                c.point.volts, c.point.clock_hz, c.v_fail, c.margin, c.steps
            )
        })
        .collect();
    let json = format!(
        "{{\"grid\":[{},{}],\"cells\":[{}],\"resume\":{{\"replayed\":{},\"live\":{}}}}}\n",
        sweep.volts.len(),
        sweep.clocks_hz.len(),
        cells.join(","),
        resumed.replayed_points,
        resumed.live_points,
    );
    std::fs::write("BENCH_shmoo.json", &json).expect("write BENCH_shmoo.json");
    println!("wrote BENCH_shmoo.json");

    // Gnuplot heatmap of the margin surface.
    let zs: Vec<f64> = full.cells.iter().map(|c| c.margin).collect();
    let mhz: Vec<f64> = sweep.clocks_hz.iter().map(|hz| hz / 1e6).collect();
    let gp = plots::write_heatmap(
        "ext_shmoo",
        "safe margin over the V/F plane (SM-Res x 2T)",
        "Vdd (V)",
        "clock (MHz)",
        "margin (V)",
        &sweep.volts,
        &mhz,
        &zs,
    )
    .expect("write plot artifacts");
    println!("plot: gnuplot {}", gp.display());

    println!(
        "\nsweep killed mid-plane resumed to the same surface with a \
         byte-identical journal ({} of {} points replayed)",
        resumed.replayed_points,
        full.cells.len()
    );
}
