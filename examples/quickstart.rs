//! Quickstart: measure a hand-made stressmark, then let AUDIT generate a
//! better one automatically — crash-safely — and emit it as NASM assembly.
//!
//! Run with: `cargo run --release -p audit-core --example quickstart`

use audit_core::audit::{Audit, AuditOptions};
use audit_core::harness::{MeasureSpec, Rig};
use audit_core::journal::{Journal, JournalWriter};
use audit_core::AuditError;
use audit_measure::json::JsonValue;
use audit_stressmark::{manual, nasm};

fn main() -> Result<(), AuditError> {
    // 1. A measurement rig: Bulldozer-class chip + its board's PDN +
    //    oscilloscope + failure model.
    let rig = Rig::bulldozer();
    let spec = MeasureSpec::ga_eval();

    // 2. Baseline: the hand-tuned resonant stressmark, four aligned
    //    threads spread one per module.
    let sm_res = manual::sm_res();
    let baseline = rig.measure_aligned(&vec![sm_res; 4], spec);
    println!(
        "SM-Res (hand-tuned, ~a week of expert effort): {:.1} mV max droop",
        baseline.max_droop() * 1e3
    );

    // 3. Configure AUDIT: start from a preset, change what differs, and
    //    validate, which rejects combinations the driver cannot run
    //    (empty sweep, zero-cycle eval window, …). `fast_demo` keeps this
    //    example quick; `AuditOptions::paper()` is the full-scale
    //    configuration.
    let opts = AuditOptions {
        eval_spec: MeasureSpec {
            record_cycles: 3_000,
            ..MeasureSpec::reporting()
        },
        ..AuditOptions::fast_demo().with_seed(0xA0D17)
    };
    opts.validate()?;

    // 4. Automatic generation with zero microarchitectural knowledge,
    //    checkpointed: every generation lands in the run journal
    //    atomically, so a kill at any instant loses at most the
    //    generation in flight (see docs/RUN_JOURNAL.md).
    let journal_path = std::env::temp_dir().join("audit-quickstart.ndjson");
    let audit = Audit::new(rig, opts);
    let mut writer = JournalWriter::create(&journal_path, "quickstart", JsonValue::Null)?;
    let a_res = audit.generate_resonant_journaled(4, &mut writer)?;
    writer.finish()?;
    println!(
        "A-Res (generated): {:.1} mV max droop  (resonance detected at {:.0} MHz, \
         {} GA simulations + {} cache hits on {} worker(s))",
        a_res.best_droop * 1e3,
        a_res.resonance.frequency_hz / 1e6,
        a_res.ga.evaluations,
        a_res.ga.cache_hits,
        a_res.ga.telemetry.threads
    );

    // 5. Had the process died mid-search, the same call against the
    //    journal on disk would have continued it bit-identically. Here
    //    the journal is complete, so resume replays it without
    //    re-simulating anything.
    let journal = Journal::load(&journal_path)?;
    let mut writer = JournalWriter::resume(&journal_path)?;
    let resumed = audit.resume_resonant(&journal, 4, &mut writer)?;
    assert_eq!(a_res.ga, resumed.ga);
    assert_eq!(a_res.program, resumed.program);
    assert_eq!(a_res.best_droop, resumed.best_droop);
    println!(
        "resume from {} reproduced the run bit-identically ({} records)",
        journal_path.display(),
        journal.records.len()
    );

    // 6. The generated loop as NASM source, ready for `nasm -f elf64`.
    let asm = nasm::emit(&a_res.program, 100_000_000);
    println!("\nfirst lines of the generated stressmark:\n");
    for line in asm.lines().take(20) {
        println!("  {line}");
    }
    Ok(())
}
