//! Extension experiment: delta-debugged witness minimization.
//!
//! The GA's winning stressmark is an opaque blob: resonance-causing
//! instructions interleaved with freeloaders. This binary drives
//! `MinimizeSearch` (ddmin against the full simulator) over a witness
//! with a known structure — a dense SimdFma resonant core padded by
//! NOPs — and pins the subsystem's three claims:
//!
//! 1. the minimized kernel is strictly smaller than the witness while
//!    retaining at least 90 % of its peak droop,
//! 2. the freeloading NOPs are exactly what gets stripped (ddmin finds
//!    the structure we planted), and
//! 3. the search is crash-tolerant: a run killed mid-search (simulated
//!    by truncating its journal at a terminal probe) and resumed
//!    settles the same kernel and rebuilds a byte-identical journal.
//!
//! Results land in `BENCH_minimize.json`.

use audit_bench::{banner, emit, fast_mode};
use audit_core::harness::{MeasureSpec, Rig};
use audit_core::journal::{Journal, JournalRecord, MemJournal, VminOutcome};
use audit_core::minimize::MinimizeSearch;
use audit_core::report::Table;
use audit_cpu::{Inst, Opcode, Program};

/// A witness with an obviously load-bearing resonant core (dense FMAs)
/// padded by NOP freeloaders that contribute nothing to the droop.
fn padded_witness() -> Program {
    let mut body = Vec::new();
    for i in 0..8 {
        body.push(
            Inst::new(Opcode::SimdFma)
                .fp_dst(i % 4)
                .fp_srcs(12, 13)
                .toggle(1.0),
        );
    }
    for _ in 0..8 {
        body.push(Inst::new(Opcode::Nop));
    }
    Program::new("padded-witness", body)
}

fn main() {
    banner(
        "extension",
        "witness minimization: ddmin against the simulator",
    );

    let rig = Rig::bulldozer();
    let spec = if fast_mode() {
        MeasureSpec {
            warmup_cycles: 500,
            record_cycles: 1_500,
            ..MeasureSpec::ga_eval()
        }
    } else {
        MeasureSpec::ga_eval()
    };
    let search = MinimizeSearch::new(2, spec);
    let witness = padded_witness();

    // Reference: the uninterrupted minimization.
    let mut reference = MemJournal::default();
    let full = search
        .run(&rig, &witness, &mut reference)
        .expect("minimize search");

    assert!(
        full.program.len() < witness.len(),
        "minimization removed nothing ({} of {} kept)",
        full.program.len(),
        witness.len()
    );
    assert!(
        full.droop >= search.retain * full.baseline,
        "kernel droop {:.4} V fell below {:.0}% of baseline {:.4} V",
        full.droop,
        100.0 * search.retain,
        full.baseline
    );
    assert!(
        full.kept.iter().all(|&i| i < 8),
        "a planted NOP freeloader survived minimization: kept {:?}",
        full.kept
    );

    // Kill mid-search: truncate the journal after the first terminal
    // probe (the write-ahead discipline means a terminal record is a
    // clean resume boundary) and resume. The driver must replay the
    // settled baseline and probe bit-exactly, continue live from the
    // next unsettled step, and rebuild the exact journal.
    let terminal = |r: &JournalRecord| {
        matches!(
            r,
            JournalRecord::MinimizeStep {
                outcome: VminOutcome::Passed | VminOutcome::Failed,
                ..
            }
        )
    };
    let cut = reference
        .records
        .iter()
        .position(terminal)
        .expect("a terminal minimize_step")
        + 1;
    let mut resumed_journal = MemJournal {
        records: reference.records[..cut].to_vec(),
    };
    let killed = Journal {
        records: resumed_journal.records.clone(),
    };
    let resumed = search
        .resume_from(&killed, &rig, &witness, &mut resumed_journal)
        .expect("resumed search");
    assert_eq!(
        resumed.program, full.program,
        "resumed search settled a different kernel"
    );
    assert_eq!(resumed.kept, full.kept);
    assert_eq!(resumed.steps, full.steps);
    assert_eq!(resumed.baseline.to_bits(), full.baseline.to_bits());
    assert_eq!(resumed.droop.to_bits(), full.droop.to_bits());
    assert!(
        resumed.live_steps < full.live_steps,
        "the resumed run should replay the settled prefix \
         (got {} live of {} total)",
        resumed.live_steps,
        resumed.steps
    );
    assert_eq!(
        resumed_journal.records, reference.records,
        "resumed journal diverged from the uninterrupted run"
    );

    // The before/after, as a table.
    let mut t = Table::new(vec!["program", "insts", "droop (V)", "of baseline"]);
    t.row(vec![
        witness.name().to_string(),
        format!("{}", witness.len()),
        format!("{:.4}", full.baseline),
        "100.0%".to_string(),
    ]);
    t.row(vec![
        "minimized kernel".to_string(),
        format!("{}", full.program.len()),
        format!("{:.4}", full.droop),
        format!("{:.1}%", 100.0 * full.droop / full.baseline),
    ]);
    emit(&t);

    // BENCH_minimize.json: the shrink, retention, and resume accounting.
    let json = format!(
        "{{\"witness_insts\":{},\"kernel_insts\":{},\"baseline\":{},\"droop\":{},\
         \"retain\":{},\"steps\":{},\"resume\":{{\"replayed\":{},\"live\":{}}}}}\n",
        witness.len(),
        full.program.len(),
        full.baseline,
        full.droop,
        search.retain,
        full.steps,
        resumed.steps - resumed.live_steps,
        resumed.live_steps,
    );
    std::fs::write("BENCH_minimize.json", &json).expect("write BENCH_minimize.json");
    println!("wrote BENCH_minimize.json");

    println!(
        "\n{} insts -> {} ({:.1}% droop retained in {} probes); killed run \
         resumed to the same kernel with a byte-identical journal",
        witness.len(),
        full.program.len(),
        100.0 * full.droop / full.baseline,
        full.steps,
    );
}
