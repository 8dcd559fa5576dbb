//! Multi-seed convergence studies.
//!
//! A single GA run proves existence; claims about the *framework* —
//! "converges in a few hours", "sub-blocking is 19 % better" — need
//! statistics over seeds. This module runs the same search under several
//! seeds and summarizes the distribution of outcomes.

use audit_cpu::Opcode;
use audit_error::AuditError;
use audit_measure::codec;
use audit_measure::json::Codec;

use super::engine::{resolve_workers, resume, run, GaConfig, LocalDispatcher};
use super::genome::Gene;
use crate::codec::resume_error;
use crate::journal::{Journal, JournalRecord, JournalSink};

/// Summary statistics of a multi-seed study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudySummary {
    /// Seeds used, in run order.
    pub seeds: Vec<u64>,
    /// Best fitness per seed.
    pub best: Vec<f64>,
    /// Generations run per seed (stall exits make these differ).
    pub generations: Vec<usize>,
    /// Simulations actually executed per seed (memo hits excluded).
    pub evaluations: Vec<u64>,
    /// Fitness lookups served by the evaluation cache per seed.
    pub cache_hits: Vec<u64>,
}

impl StudySummary {
    /// Mean of the per-seed best fitness.
    pub fn mean_best(&self) -> f64 {
        mean(&self.best)
    }

    /// Sample standard deviation of the per-seed best fitness (0 for a
    /// single seed).
    pub fn std_best(&self) -> f64 {
        if self.best.len() < 2 {
            return 0.0;
        }
        let m = self.mean_best();
        let var =
            self.best.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (self.best.len() - 1) as f64;
        var.sqrt()
    }

    /// Worst seed's best fitness — the framework's floor.
    pub fn min_best(&self) -> f64 {
        self.best.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Coefficient of variation (σ/μ) — low means the search is robust
    /// to its random seed.
    pub fn cv(&self) -> f64 {
        let m = self.mean_best();
        if m == 0.0 {
            0.0
        } else {
            self.std_best() / m
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs the same evolution under each seed and summarizes, with every
/// seed's search checkpointed to `sink`
/// ([`NullSink`](crate::journal::NullSink) for none).
///
/// `fitness` is shared across runs and worker threads (it must be
/// deterministic per genome, which every AUDIT fitness is — see the
/// [determinism contract](super::engine)). Each per-seed run evaluates
/// with `cfg.threads` workers and its own fitness cache, so the summary
/// is identical no matter the thread count.
///
/// Each seed becomes one journal phase named `seed-<seed>`: a
/// `phase_start`, the seed's full GA section (`ga_start`, one record per
/// generation, `ga_end`), and a `phase_end` whose payload carries the
/// seed's summary row. A study killed anywhere — between seeds or
/// mid-generation — resumes via `resume_study` with a bit-identical
/// [`StudySummary`].
///
/// # Errors
///
/// Returns [`AuditError::InvalidConfig`] if `seeds_list` is empty or
/// the underlying engine rejects the configuration, and any sink I/O
/// error.
pub fn run_study(
    cfg: &GaConfig,
    menu: &[Opcode],
    genome_len: usize,
    seeds_list: &[u64],
    seed_genomes: &[Vec<Gene>],
    fitness: impl Fn(&[Gene]) -> f64 + Sync,
    sink: &mut dyn JournalSink,
) -> Result<StudySummary, AuditError> {
    let fresh = Journal::default();
    resume_study(
        &fresh,
        cfg,
        menu,
        genome_len,
        seeds_list,
        seed_genomes,
        fitness,
        sink,
    )
}

/// Resumes a study journaled by [`run_study`], producing a
/// [`StudySummary`] bit-identical to the uninterrupted run's.
///
/// Seeds whose `phase_end` is in the journal are taken from their
/// recorded payload without re-running; a seed killed mid-GA is resumed
/// generation-exact via [`super::engine::resume`]; the remaining seeds
/// run fresh. Newly computed records are appended to `sink` (pass a
/// [`crate::journal::JournalWriter`] reopened on the same file to
/// continue it).
///
/// # Errors
///
/// Same as [`run_study`], plus [`AuditError::Resume`] or
/// [`AuditError::Journal`] for a journal inconsistent with the
/// arguments.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resume_study(
    journal: &Journal,
    cfg: &GaConfig,
    menu: &[Opcode],
    genome_len: usize,
    seeds_list: &[u64],
    seed_genomes: &[Vec<Gene>],
    fitness: impl Fn(&[Gene]) -> f64 + Sync,
    sink: &mut dyn JournalSink,
) -> Result<StudySummary, AuditError> {
    if seeds_list.is_empty() {
        return Err(AuditError::invalid(
            "study",
            "seeds",
            "a study needs at least one seed",
        ));
    }
    let mut summary = StudySummary {
        seeds: seeds_list.to_vec(),
        best: Vec::new(),
        generations: Vec::new(),
        evaluations: Vec::new(),
        cache_hits: Vec::new(),
    };
    // The seed of the journal's dangling GA section, if one was cut off
    // mid-search.
    let dangling = journal
        .last_ga_section()
        .filter(|s| !s.complete)
        .map(|s| s.cfg.seed);
    for &seed in seeds_list {
        let phase = format!("seed-{seed}");
        if let Some(payload) = journal.phase_payload(&phase) {
            // This seed finished before the kill: trust its payload.
            let seed = SeedPayload::decode(payload).map_err(resume_error)?;
            record_seed(&mut summary, &seed);
            continue;
        }
        let mut dispatcher = LocalDispatcher::new(&fitness, resolve_workers(cfg.threads));
        let run = if dangling == Some(seed) {
            // Killed mid-GA on this seed: replay + continue, journaling
            // the remaining generations.
            resume(journal, &mut dispatcher, sink)?
        } else {
            // Not reached before the kill: run it fresh.
            sink.append(&JournalRecord::PhaseStart {
                name: phase.clone(),
            })?;
            let cfg = GaConfig {
                seed,
                ..cfg.clone()
            };
            run(&cfg, menu, genome_len, seed_genomes, &mut dispatcher, sink)?
        };
        let seed = SeedPayload {
            best_fitness: run.best_fitness,
            generations: run.generations_run,
            evaluations: run.evaluations,
            cache_hits: run.cache_hits,
        };
        sink.append(&JournalRecord::PhaseEnd {
            name: phase,
            payload: seed.encode(),
        })?;
        record_seed(&mut summary, &seed);
    }
    Ok(summary)
}

/// What a finished seed contributes to the summary, and its phase
/// payload.
struct SeedPayload {
    best_fitness: f64,
    generations: usize,
    evaluations: u64,
    cache_hits: u64,
}

codec! {
    record SeedPayload "seed phase payload" { best_fitness, generations, evaluations, cache_hits, }
}

fn record_seed(summary: &mut StudySummary, seed: &SeedPayload) {
    summary.best.push(seed.best_fitness);
    summary.generations.push(seed.generations);
    summary.evaluations.push(seed.evaluations);
    summary.cache_hits.push(seed.cache_hits);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::NullSink;

    fn fma_count(g: &[Gene]) -> f64 {
        g.iter().filter(|x| x.opcode == Opcode::SimdFma).count() as f64
    }

    fn cfg() -> GaConfig {
        GaConfig {
            population: 12,
            generations: 25,
            stall_generations: 25,
            ..GaConfig::default()
        }
    }

    #[test]
    fn study_runs_every_seed() {
        let s = run_study(
            &cfg(),
            &Opcode::stress_menu(),
            10,
            &[1, 2, 3],
            &[],
            fma_count,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(s.best.len(), 3);
        assert_eq!(s.generations.len(), 3);
        assert_eq!(s.evaluations.len(), 3);
        assert_eq!(s.cache_hits.len(), 3);
        assert!(s.best.iter().all(|&b| s.min_best() <= b));
    }

    #[test]
    fn synthetic_objective_is_robust_across_seeds() {
        let big = GaConfig {
            population: 24,
            generations: 80,
            stall_generations: 80,
            ..GaConfig::default()
        };
        let s = run_study(
            &big,
            &Opcode::stress_menu(),
            10,
            &[1, 2, 3, 4, 5],
            &[],
            fma_count,
            &mut NullSink,
        )
        .unwrap();
        // Every seed should come close to saturating the 10-slot cap.
        assert!(s.min_best() >= 7.0, "floor {}", s.min_best());
        assert!(s.cv() < 0.25, "cv {}", s.cv());
    }

    #[test]
    fn single_seed_statistics_are_defined() {
        let s = run_study(
            &cfg(),
            &Opcode::stress_menu(),
            6,
            &[9],
            &[],
            fma_count,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(s.std_best(), 0.0);
        assert_eq!(s.mean_best(), s.best[0]);
        assert_eq!(s.min_best(), s.best[0]);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_rejected() {
        run_study(
            &cfg(),
            &Opcode::stress_menu(),
            6,
            &[],
            &[],
            fma_count,
            &mut NullSink,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn try_run_study_reports_errors_instead_of_panicking() {
        let err = run_study(
            &cfg(),
            &Opcode::stress_menu(),
            6,
            &[],
            &[],
            fma_count,
            &mut NullSink,
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least one seed"), "{err}");
        let bad = GaConfig {
            population: 0,
            ..cfg()
        };
        assert!(run_study(
            &bad,
            &Opcode::stress_menu(),
            6,
            &[1],
            &[],
            fma_count,
            &mut NullSink
        )
        .is_err());
    }

    #[test]
    fn journaled_study_matches_plain_study() {
        use crate::journal::MemJournal;
        let small = GaConfig {
            population: 8,
            generations: 4,
            stall_generations: 4,
            ..GaConfig::default()
        };
        let menu = Opcode::stress_menu();
        let plain = run_study(&small, &menu, 6, &[1, 2], &[], fma_count, &mut NullSink).unwrap();
        let mut mem = MemJournal::default();
        let journaled = run_study(&small, &menu, 6, &[1, 2], &[], fma_count, &mut mem).unwrap();
        assert_eq!(plain, journaled);
        // Two phases, each bracketing one GA section.
        let journal = mem.as_journal();
        assert!(journal.phase_payload("seed-1").is_some());
        assert!(journal.phase_payload("seed-2").is_some());
    }

    #[test]
    fn study_killed_anywhere_resumes_bit_identically() {
        use crate::journal::MemJournal;
        let small = GaConfig {
            population: 8,
            generations: 3,
            stall_generations: 3,
            ..GaConfig::default()
        };
        let menu = Opcode::stress_menu();
        let mut mem = MemJournal::default();
        let full = run_study(&small, &menu, 6, &[7, 8, 9], &[], fma_count, &mut mem).unwrap();

        // Cut the journal after every prefix of records: mid-GA, between
        // seeds, before anything — all must resume to the same summary.
        for cut in 0..mem.records.len() {
            let mut partial = MemJournal {
                records: mem.records[..cut].to_vec(),
            };
            let journal = partial.as_journal();
            let resumed = resume_study(
                &journal,
                &small,
                &menu,
                6,
                &[7, 8, 9],
                &[],
                fma_count,
                &mut partial,
            )
            .unwrap();
            assert_eq!(full, resumed, "diverged when cut at record {cut}");
        }
    }
}
