//! Kill-and-resume integration tests against real journal files.
//!
//! The unit tests in `ga::engine` prove resume correctness against an
//! in-memory sink; these tests go through the full file path — a
//! [`JournalWriter`] on disk, a "kill" simulated by truncating the
//! file, [`JournalWriter::resume`] + [`ga::resume`] — and
//! assert the acceptance criterion: the resumed [`GaRun`] is
//! bit-identical to the uninterrupted run's.

use std::path::PathBuf;

use audit_core::ga::{self, GaConfig, GaRun, Gene, LocalDispatcher};
use audit_core::journal::{Journal, JournalWriter, NullSink};
use audit_cpu::Opcode;
use audit_measure::json::JsonValue;
use audit_measure::traceio::{self, FsckVerdict};

fn temp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("audit-core-kill-resume");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}.ndjson"))
}

fn cfg() -> GaConfig {
    GaConfig {
        population: 8,
        generations: 6,
        stall_generations: 6,
        seed: 42,
        cache_capacity: 24, // small: forces flushes the replay must reproduce
        ..GaConfig::default()
    }
}

/// Pure, deterministic fitness with ties, so argmax behaviour matters.
fn fitness(g: &[Gene]) -> f64 {
    g.iter()
        .map(|gene| match gene.opcode {
            Opcode::SimdFma => 2.0,
            Opcode::Nop => 0.0,
            _ => 0.5,
        })
        .sum()
}

fn run_full(path: &PathBuf) -> GaRun {
    let mut writer =
        JournalWriter::create(path, "test", JsonValue::object(vec![])).expect("create journal");
    let mut dispatcher = LocalDispatcher::new(fitness, 2);
    let run = ga::run(
        &cfg(),
        &Opcode::stress_menu(),
        6,
        &[],
        &mut dispatcher,
        &mut writer,
    )
    .expect("full run");
    writer.finish().expect("finish journal");
    run
}

#[test]
fn truncated_journal_resumes_bit_identically() {
    let full_path = temp_journal("full");
    let full = run_full(&full_path);
    let lines: Vec<String> = std::fs::read_to_string(&full_path)
        .expect("journal readable")
        .lines()
        .map(str::to_string)
        .collect();
    assert!(lines.len() >= 4, "journal too short to cut: {lines:?}");

    // Kill the run at every prefix that still contains the ga_start
    // record (cut = number of surviving lines), including a torn final
    // line, and resume from the file.
    for cut in 2..lines.len() {
        let path = temp_journal(&format!("cut-{cut}"));
        let mut text = lines[..cut].join("\n");
        text.push('\n');
        // A non-atomic writer could also leave a torn tail; the reader
        // must drop it. Exercise that on one of the cuts.
        if cut == 3 {
            text.push_str("{\"kind\":\"generation\",\"index\":9,\"trunc");
        }
        std::fs::write(&path, text).expect("truncated journal written");

        let journal = Journal::load(&path).expect("truncated journal loads");
        let mut writer = JournalWriter::resume(&path).expect("writer resumes");
        let resumed = ga::resume(&journal, &mut LocalDispatcher::new(fitness, 2), &mut writer)
            .expect("run resumes");
        assert_eq!(full, resumed, "GaRun diverged when killed at line {cut}");

        // After resume, the journal on disk holds the same records as
        // the uninterrupted run's (wall-clock excluded by the
        // GenerationRecord equality convention), minus the run_end the
        // engine does not own.
        let full_journal = Journal::load(&full_path).expect("full journal loads");
        let resumed_journal = Journal::load(&path).expect("resumed journal loads");
        let trim = |j: &Journal| {
            j.records
                .iter()
                .filter(|r| r.kind() != "run_end")
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(
            trim(&full_journal),
            trim(&resumed_journal),
            "journal shape diverged when killed at line {cut}"
        );
    }
}

#[test]
fn resume_is_chainable_across_multiple_kills() {
    // Kill, resume, kill again later, resume again: each resume
    // continues the same file and the final result still matches.
    let full_path = temp_journal("chain-full");
    let full = run_full(&full_path);
    let lines: Vec<String> = std::fs::read_to_string(&full_path)
        .expect("journal readable")
        .lines()
        .map(str::to_string)
        .collect();

    let path = temp_journal("chain");
    std::fs::write(&path, format!("{}\n", lines[..2].join("\n"))).expect("first kill");
    for _ in 0..2 {
        let journal = Journal::load(&path).expect("journal loads");
        let mut writer = JournalWriter::resume(&path).expect("writer resumes");
        let resumed = ga::resume(&journal, &mut LocalDispatcher::new(fitness, 2), &mut writer)
            .expect("run resumes");
        assert_eq!(full, resumed);
        // Second kill: drop the last two records (ga_end and the final
        // generation) so the next iteration resumes mid-GA again.
        let now: Vec<String> = std::fs::read_to_string(&path)
            .expect("journal readable")
            .lines()
            .map(str::to_string)
            .collect();
        std::fs::write(&path, format!("{}\n", now[..now.len() - 2].join("\n")))
            .expect("second kill");
    }
}

#[test]
fn resume_refuses_a_journal_from_a_different_run() {
    let path = temp_journal("foreign");
    run_full(&path);
    let journal = Journal::load(&path).expect("journal loads");
    // Same journal, different engine config (seed differs) → the
    // replayed stream seeds cannot match.
    let mut text = std::fs::read_to_string(&path).expect("journal readable");
    text = text.replace("\"seed\":42", "\"seed\":43");
    let tampered = Journal::parse(&text).expect("tampered journal parses");
    let err = ga::resume(
        &tampered,
        &mut LocalDispatcher::new(fitness, 2),
        &mut NullSink,
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("different run"),
        "unexpected error: {err}"
    );
    // The untampered journal still resumes.
    assert!(ga::resume(
        &journal,
        &mut LocalDispatcher::new(fitness, 2),
        &mut NullSink
    )
    .is_ok());
}

#[test]
fn every_byte_offset_cut_is_classified_and_resumes() {
    // A kill can land on any byte of an append, including inside a
    // multi-byte UTF-8 character of the run_start metadata. The run is
    // kept small: every cut parses its whole prefix three times.
    let small = GaConfig {
        population: 4,
        generations: 4,
        stall_generations: 4,
        ..cfg()
    };
    let full_path = temp_journal("bytes-full");
    let meta = JsonValue::object(vec![(
        "rig",
        JsonValue::String("Bulldozer µ-arch, ΔV ≤ 5 % — ✓".into()),
    )]);
    let mut writer = JournalWriter::create(&full_path, "test", meta).expect("create journal");
    let full = ga::run(
        &small,
        &Opcode::stress_menu(),
        4,
        &[],
        &mut LocalDispatcher::new(fitness, 2),
        &mut writer,
    )
    .expect("full run");
    writer.finish().expect("finish journal");
    let bytes = std::fs::read(&full_path).expect("journal readable");
    assert!(
        !bytes.is_ascii(),
        "the metadata must put multi-byte characters on disk"
    );
    let full_journal = Journal::load(&full_path).expect("full journal loads");
    let without_run_end = |j: &Journal| {
        j.records
            .iter()
            .filter(|r| r.kind() != "run_end")
            .cloned()
            .collect::<Vec<_>>()
    };

    // Line boundaries: the byte offsets a cut leaves a clean file at.
    let boundaries: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let path = temp_journal("bytes-cut");
    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).expect("cut journal written");
        let lines = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        let valid = boundaries[lines];
        let report = traceio::fsck(&path).expect("fsck reads the cut");
        let want = if valid == cut {
            FsckVerdict::Clean
        } else {
            FsckVerdict::TornTail
        };
        assert_eq!(report.verdict, want, "cut at byte {cut}");
        assert_eq!(report.valid_bytes as usize, valid, "cut at byte {cut}");
        let loaded = Journal::load(&path).expect("a cut journal loads");
        assert_eq!(
            loaded.records,
            full_journal.records[..lines],
            "cut at byte {cut}"
        );
        let writer = JournalWriter::resume(&path).expect("writer resumes");
        assert_eq!(writer.len(), lines, "cut at byte {cut}");
        assert_eq!(
            std::fs::metadata(&path).expect("cut journal").len() as usize,
            valid,
            "resume must trim to fsck's valid prefix (cut at byte {cut})"
        );
    }

    // Cut every line past ga_start in its middle and resume the run.
    for (line, pair) in boundaries.windows(2).enumerate().skip(2) {
        let cut = (pair[0] + pair[1]) / 2;
        std::fs::write(&path, &bytes[..cut]).expect("cut journal written");
        let journal = Journal::load(&path).expect("cut journal loads");
        let mut writer = JournalWriter::resume(&path).expect("writer resumes");
        let resumed = ga::resume(&journal, &mut LocalDispatcher::new(fitness, 2), &mut writer)
            .expect("run resumes");
        assert_eq!(
            full,
            resumed,
            "GaRun diverged when cut inside line {}",
            line + 1
        );
        assert_eq!(
            without_run_end(&full_journal),
            without_run_end(&Journal::load(&path).expect("resumed journal loads")),
            "journal diverged when cut inside line {}",
            line + 1
        );
    }
}
