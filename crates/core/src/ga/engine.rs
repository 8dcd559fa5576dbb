//! The generational GA engine: parallel, memoized, bit-reproducible,
//! and crash-resumable.
//!
//! # Determinism contract
//!
//! Every run is a pure function of ([`GaConfig`], menu, genome length,
//! seeds, fitness). Four properties make that hold even with worker
//! threads, the fitness cache, and checkpoint/resume in play:
//!
//! 1. **All randomness is main-thread.** Worker threads never touch an
//!    RNG: the seeded generators drive population init, selection,
//!    crossover, and mutation strictly sequentially.
//! 2. **Per-generation RNG streams.** Generation `g` is bred by a fresh
//!    generator seeded with [`stream_seed`]`(cfg.seed, g)` — a SplitMix64
//!    derivation of the run seed. No RNG state survives a generation, so
//!    a resumed run re-derives exactly the stream the killed run would
//!    have used next; nothing about the generator needs serializing.
//! 3. **Parallel equals sequential.** Fitness results are written into
//!    their population slot by index, and the memo cache is populated in
//!    slot order, so selection *and* cache state are the same no matter
//!    how many workers raced or in which order they finished.
//! 4. **The cache is transparent.** Fitness must be deterministic per
//!    genome (every AUDIT fitness is — see [`crate::harness`]); a cache
//!    hit therefore returns exactly the value a re-simulation would.
//!
//! Consequently `threads: 1` and `threads: N` produce bit-identical
//! [`GaRun`]s (same `best`, `best_fitness`, `history`), and a run killed
//! after any generation and resumed from its journal finishes with a
//! [`GaRun`] bit-identical to the uninterrupted run. Both are asserted
//! by tests.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use audit_cpu::Opcode;
use audit_error::AuditError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use audit_analyze::{swing_score, MachineModel};

use super::genome::{to_sub_block, Gene};
use super::pareto::{extract_front, rank_population, FrontMember, Objectives, PopulationRanking};
use crate::journal::{
    GaSection, GenerationAnalysis, GenerationRecord, Journal, JournalRecord, JournalSink, NullSink,
    ParetoFrontRecord,
};
use crate::resilient::ResilienceReport;

/// GA hyper-parameters.
///
/// The search is bit-reproducible: for a fixed configuration (including
/// `seed`) the result is identical regardless of `threads` and
/// `cache_capacity`, provided the fitness function is deterministic per
/// genome. See the [module docs](self) for the full contract.
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Hard generation cap.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Probability of crossover (vs cloning the fitter parent).
    pub crossover_rate: f64,
    /// Per-slot mutation probability.
    pub mutation_rate: f64,
    /// Individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// Exit early after this many generations without improvement — the
    /// paper's exit condition ("the maximum voltage droop produced by
    /// AUDIT does not increase for several generations").
    pub stall_generations: usize,
    /// RNG seed (runs are fully deterministic).
    pub seed: u64,
    /// Worker threads for fitness evaluation. `0` means "use all
    /// available cores". The value never changes results, only wall
    /// time: scores land in their population slot by index, and the RNG
    /// stays on the calling thread.
    pub threads: usize,
    /// Capacity bound of the fitness memoization cache, in genomes
    /// (`0` disables caching entirely). When full, the cache is flushed
    /// wholesale — a deterministic policy that keeps lookups transparent.
    pub cache_capacity: usize,
    /// Tier-1 pruning budget of the evaluation cascade: when non-zero,
    /// each generation's cache misses are ranked by the fast in-order
    /// scoreboard model (`audit_cpu::tier::estimate_swing`, O(insts) per
    /// genome instead of the full simulator's O(cycles)) and only the
    /// top `fast_tier_budget` reach the full simulation; the rest score
    /// `f64::NEG_INFINITY`, so they lose every tournament, and are never
    /// cached. All ranking happens on the calling thread, so pruning is
    /// bit-identical across thread counts, dispatchers, and resume.
    /// This **changes results** — it is off by default (`0`) and
    /// excluded from the bit-identity invariants; journals record the
    /// budget in a `cascade` marker. See docs/SIMULATION.md for the full
    /// cascade contract.
    pub fast_tier_budget: usize,
    /// Multi-objective (Pareto) selection. Off by default: the scalar
    /// search compares raw primary fitness and `GaRun` + journal bytes
    /// are untouched. On, selection orders candidates by NSGA-II
    /// non-dominated rank → crowding distance → slot index (see
    /// [`super::pareto`]), each generation journals a `pareto_front`
    /// record ahead of its `generation` record, and [`GaRun::pareto_front`]
    /// reports the final non-dominated front. The ranking runs on the
    /// calling thread from slot-ordered objective vectors, so Pareto
    /// runs keep the full bit-identity contract: identical across
    /// thread counts, dispatchers, and kill/resume.
    pub pareto: bool,
    /// Lint-driven mutation repair. Off by default: breeding is
    /// untouched and journal bytes match a config that predates the
    /// flag. On, every as-bred genome (initial population included) is
    /// linted under `super::repair::repair_lint_config` and offending
    /// slots are re-rolled deterministically (bounded attempts, NOP
    /// fallback; see [`super::repair`]), so populations reach the
    /// simulator free of deny-level AUD1xx dead work. Repair draws from
    /// per-slot streams keyed by the child's content — never from the
    /// generation's breeding stream — and runs on the calling thread,
    /// preserving bit-identity across thread counts, dispatchers, and
    /// kill/resume. Each generation journals a `repair` record counting
    /// its re-rolls.
    pub lint_repair: bool,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 24,
            generations: 40,
            tournament: 3,
            crossover_rate: 0.85,
            mutation_rate: 0.08,
            elitism: 2,
            stall_generations: 8,
            seed: 0xA0D17,
            threads: 0,
            cache_capacity: 1 << 16,
            fast_tier_budget: 0,
            pareto: false,
            lint_repair: false,
        }
    }
}

impl GaConfig {
    /// Checks that the configuration describes a runnable search.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] naming the offending field:
    /// `population` below 2, `tournament` of 0, non-finite or
    /// out-of-`[0, 1]` rates, or `elitism` that fills (or overflows) the
    /// population.
    pub fn validate(&self) -> Result<(), AuditError> {
        if self.population < 2 {
            return Err(AuditError::invalid(
                "GaConfig",
                "population",
                format!("must be at least 2 (got {})", self.population),
            ));
        }
        if self.tournament == 0 {
            return Err(AuditError::invalid(
                "GaConfig",
                "tournament",
                "must be at least 1",
            ));
        }
        for (field, rate) in [
            ("crossover_rate", self.crossover_rate),
            ("mutation_rate", self.mutation_rate),
        ] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(AuditError::invalid(
                    "GaConfig",
                    field,
                    format!("must be a probability in [0, 1] (got {rate})"),
                ));
            }
        }
        if self.elitism >= self.population {
            return Err(AuditError::invalid(
                "GaConfig",
                "elitism",
                format!(
                    "must leave room for offspring ({} elites in a population of {})",
                    self.elitism, self.population
                ),
            ));
        }
        Ok(())
    }
}

/// Derives the RNG seed of one generation's breeding stream from the run
/// seed — a SplitMix64 step keyed by the generation index
/// ([`audit_measure::fault::mix`]).
///
/// Stream 0 initializes the population; stream `g` breeds generation
/// `g`. Because every generation starts its own stream, resuming from a
/// journal needs no serialized RNG state: the next generation's stream
/// is a function of (`seed`, `g`) alone.
pub fn stream_seed(seed: u64, generation: u64) -> u64 {
    audit_measure::fault::mix(seed, generation)
}

/// Genome-keyed fitness memoization.
///
/// Elites survive generations unchanged and converged populations are
/// full of duplicates; both would otherwise re-run a full chip + PDN
/// co-simulation per generation. The cache maps a genome to its
/// objective vector (a 1-axis vector in the scalar search) and is
/// consulted before any evaluation is dispatched to a worker.
///
/// Correctness relies on the fitness being deterministic per genome
/// (the [determinism contract](self)): a hit returns exactly what a
/// re-simulation would have produced.
#[derive(Debug, Clone, Default)]
pub(crate) struct EvalCache {
    map: HashMap<Vec<Gene>, Objectives>,
    capacity: usize,
}

impl EvalCache {
    /// Creates a cache bounded to `capacity` genomes (0 = disabled).
    pub(crate) fn new(capacity: usize) -> Self {
        EvalCache {
            map: HashMap::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// Whether caching is active at all.
    pub(crate) fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Looks up a genome.
    pub(crate) fn lookup(&self, genome: &[Gene]) -> Option<Objectives> {
        if !self.is_enabled() {
            return None;
        }
        self.map.get(genome).cloned()
    }

    /// Records a computed objective vector (a plain `f64` converts to
    /// the 1-axis scalar vector), flushing the cache first if inserting
    /// would exceed the capacity bound.
    pub(crate) fn insert(&mut self, genome: &[Gene], objectives: impl Into<Objectives>) {
        if !self.is_enabled() {
            return;
        }
        if self.map.len() >= self.capacity && !self.map.contains_key(genome) {
            self.map.clear();
        }
        self.map.insert(genome.to_vec(), objectives.into());
    }
}

/// Per-run performance telemetry.
///
/// Collected per generation (index 0 is the initial population). Wall
/// times vary run to run, so telemetry is deliberately **excluded** from
/// [`GaRun`]'s `PartialEq` — equality of runs means equality of results.
/// On a resumed run, entries for replayed generations carry the wall
/// times recorded by the original run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaTelemetry {
    /// Resolved evaluation worker count (after `threads: 0` auto-detect).
    pub threads: usize,
    /// Wall-clock seconds spent evaluating each generation.
    pub gen_wall_s: Vec<f64>,
    /// Simulations actually executed per generation.
    pub gen_evaluations: Vec<u64>,
    /// Evaluations served by memoization per generation (cache hits plus
    /// within-generation duplicates).
    pub gen_cache_hits: Vec<u64>,
    /// Total wall-clock seconds of the whole run.
    pub total_wall_s: f64,
}

impl GaTelemetry {
    fn record(&mut self, wall_s: f64, executed: u64, cache_hits: u64) {
        self.gen_wall_s.push(wall_s);
        self.gen_evaluations.push(executed);
        self.gen_cache_hits.push(cache_hits);
    }

    /// Total simulations executed.
    pub fn evaluations(&self) -> u64 {
        self.gen_evaluations.iter().sum()
    }

    /// Total evaluations served by memoization.
    pub fn cache_hits(&self) -> u64 {
        self.gen_cache_hits.iter().sum()
    }

    /// Fraction of fitness lookups served without simulating, in [0, 1].
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.evaluations() + self.cache_hits();
        if total == 0 {
            0.0
        } else {
            self.cache_hits() as f64 / total as f64
        }
    }

    /// Executed simulations per wall-clock second of evaluation.
    pub fn evals_per_second(&self) -> f64 {
        let wall: f64 = self.gen_wall_s.iter().sum();
        if wall <= 0.0 {
            0.0
        } else {
            self.evaluations() as f64 / wall
        }
    }
}

/// Result of a GA run.
///
/// Equality compares **results only** (`best`, `best_fitness`,
/// `history`, counts) and ignores [`GaRun::telemetry`], whose wall
/// times legitimately differ between otherwise identical runs.
#[derive(Debug, Clone)]
pub struct GaRun {
    /// Fittest genome found.
    pub best: Vec<Gene>,
    /// Its fitness.
    pub best_fitness: f64,
    /// Best fitness after each generation (convergence curve).
    pub history: Vec<f64>,
    /// Generations actually run (≤ the cap when the stall exit fires).
    pub generations_run: usize,
    /// Simulations actually executed — cache hits are **excluded**, so
    /// convergence-cost studies count real work. On a resumed run this
    /// includes the simulations the original run executed (replayed
    /// generations are *not* re-simulated, but their recorded counts
    /// carry over so the total matches the uninterrupted run).
    pub evaluations: u64,
    /// Fitness evaluations served by memoization instead of simulation.
    pub cache_hits: u64,
    /// The deduplicated non-dominated front of the final generation when
    /// [`GaConfig::pareto`] is on; `None` for scalar runs.
    pub pareto_front: Option<Vec<FrontMember>>,
    /// Wall-time and throughput telemetry (ignored by `PartialEq`).
    pub telemetry: GaTelemetry,
}

impl PartialEq for GaRun {
    fn eq(&self, other: &Self) -> bool {
        self.best == other.best
            && self.best_fitness == other.best_fitness
            && self.history == other.history
            && self.generations_run == other.generations_run
            && self.evaluations == other.evaluations
            && self.cache_hits == other.cache_hits
            && self.pareto_front == other.pareto_front
    }
}

/// Evaluates one generation's cache misses, wherever the compute lives.
///
/// The engine hands a dispatcher the population and the slots that need
/// measuring (`jobs`, already deduplicated, cache-filtered, and — when
/// the cascade's fast tier is on — ordered most-promising-first) and expects
/// one `(slot, objectives)` pair per job back, **in any order**. The
/// engine sorts results into slot order before touching the cache, so a
/// conforming dispatcher can never perturb results: local thread pools
/// ([`LocalDispatcher`]) and remote broker/worker fleets (`audit-net`)
/// are bit-identical by construction as long as the fitness they compute
/// is the same deterministic function of the genome.
///
/// A scalar dispatcher returns 1-axis vectors ([`Objectives::scalar`]);
/// the engine treats the first axis as the legacy scalar fitness in
/// every mode.
pub trait EvalDispatcher {
    /// Scores `jobs` (slot indices into `population`), returning one
    /// `(slot, objectives)` pair per job in any order. All vectors in
    /// one run must have the same axis count. The engine fails the run
    /// with an [`AuditError`] on any other slot set, and in Pareto mode
    /// on a mixed axis count.
    ///
    /// # Errors
    ///
    /// Dispatch is allowed to fail (e.g. a network broker losing its
    /// last worker); the engine aborts the run with the error.
    fn evaluate(
        &mut self,
        population: &[Vec<Gene>],
        jobs: &[usize],
    ) -> Result<Vec<(usize, Objectives)>, AuditError>;

    /// Worker parallelism, for telemetry only (never affects results).
    fn workers(&self) -> usize {
        1
    }

    /// Aggregate resilience counters accumulated by the dispatcher's
    /// evaluations, if it tracks any (a remote broker folds the deltas
    /// its workers report). Order-insensitive sums, so any scheduling
    /// produces the same report.
    fn resilience(&self) -> ResilienceReport {
        ResilienceReport::default()
    }
}

/// The in-process [`EvalDispatcher`]: a `std::thread::scope` work queue
/// over a fitness closure — exactly the engine's historical evaluation
/// path, now behind the trait so local and distributed runs share one
/// merge discipline.
///
/// The closure may return any type converting [`Into<Objectives>`]: the
/// historical `f64` scalar (the 1-axis special case) or a full
/// [`Objectives`] vector for Pareto runs.
pub struct LocalDispatcher<F> {
    fitness: F,
    workers: usize,
}

impl<R: Into<Objectives>, F: Fn(&[Gene]) -> R + Sync> LocalDispatcher<F> {
    /// Wraps `fitness` with a concrete worker count (see
    /// [`resolve_workers`]).
    pub fn new(fitness: F, workers: usize) -> Self {
        LocalDispatcher { fitness, workers }
    }
}

impl<R: Into<Objectives>, F: Fn(&[Gene]) -> R + Sync> EvalDispatcher for LocalDispatcher<F> {
    fn evaluate(
        &mut self,
        population: &[Vec<Gene>],
        jobs: &[usize],
    ) -> Result<Vec<(usize, Objectives)>, AuditError> {
        let fitness = &self.fitness;
        Ok(if self.workers <= 1 || jobs.len() <= 1 {
            jobs.iter()
                .map(|&slot| (slot, fitness(&population[slot]).into()))
                .collect()
        } else {
            let queue = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..self.workers.min(jobs.len()))
                    .map(|_| {
                        s.spawn(|| {
                            let mut out: Vec<(usize, Objectives)> = Vec::new();
                            loop {
                                let k = queue.fetch_add(1, Ordering::Relaxed);
                                let Some(&slot) = jobs.get(k) else { break };
                                out.push((slot, fitness(&population[slot]).into()));
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("fitness worker panicked"))
                    .collect()
            })
        })
    }

    fn workers(&self) -> usize {
        self.workers
    }
}

/// Evolves genomes of `genome_len` slots over the opcode `menu`,
/// maximizing the fitness `dispatcher` computes, and journals the
/// search to `sink`. Optionally accepts `seeds`: existing genomes
/// injected into the initial population (the paper's "seeded with
/// existing benchmarks or stressmarks to improve the convergence rate").
///
/// Appends a `ga_start` record (config, menu, seeds — everything needed
/// to resume), then one `generation` record per evaluated generation and
/// a final `ga_end`; a run killed between appends finishes
/// bit-identically through [`resume`]. Pass [`NullSink`] for an
/// un-journaled run. Any conforming dispatcher — [`LocalDispatcher`]
/// or a remote broker (`audit-net`) — produces the same [`GaRun`].
///
/// # Errors
///
/// Returns [`AuditError::InvalidConfig`] for an unrunnable
/// configuration ([`GaConfig::validate`]), an empty menu, a zero
/// genome length, or dispatcher output that does not score exactly the
/// dispatched slots (or, in Pareto mode, mixes axis counts); plus any
/// dispatch or sink error.
pub fn run(
    cfg: &GaConfig,
    menu: &[Opcode],
    genome_len: usize,
    seeds: &[Vec<Gene>],
    dispatcher: &mut dyn EvalDispatcher,
    sink: &mut dyn JournalSink,
) -> Result<GaRun, AuditError> {
    let fresh = GaSection {
        cfg,
        genome_len,
        menu,
        seeds,
        generations: Vec::new(),
        fronts: Vec::new(),
        complete: false,
    };
    run_ga(&fresh, true, dispatcher, sink)
}

/// Resumes the last GA section of `journal`, finishing the search with
/// a [`GaRun`] **bit-identical** to the uninterrupted [`run`]'s.
///
/// Recorded generations are replayed without re-simulation (scores,
/// cache state, and best-so-far tracking are reconstructed from the
/// journal); evolution then continues live from the next generation,
/// appending its records to `sink` — pass a
/// [`crate::journal::JournalWriter`] reopened with
/// [`crate::journal::JournalWriter::resume`] to continue the same file.
/// A section already closed by `ga_end` is replay-only: it replays into
/// [`NullSink`] and appends nothing. `dispatcher` must compute the same
/// deterministic fitness, with the same axis count, as the original run.
///
/// # Example
///
/// ```
/// use audit_core::ga::{self, GaConfig, Gene, LocalDispatcher};
/// use audit_core::journal::MemJournal;
/// use audit_cpu::Opcode;
///
/// let fitness = |g: &[Gene]| g.iter().filter(|x| x.opcode == Opcode::SimdFma).count() as f64;
/// let cfg = GaConfig { population: 6, generations: 4, ..GaConfig::default() };
/// let menu = Opcode::stress_menu();
/// let mut mem = MemJournal::default();
/// let full = ga::run(&cfg, &menu, 4, &[], &mut LocalDispatcher::new(fitness, 2), &mut mem)?;
///
/// // Kill the run after its first generation: keep `ga_start` and
/// // generation 0, then resume into the same journal.
/// mem.records.truncate(2);
/// let journal = mem.as_journal();
/// let resumed = ga::resume(&journal, &mut LocalDispatcher::new(fitness, 2), &mut mem)?;
/// assert_eq!(full, resumed);
/// # Ok::<(), audit_core::AuditError>(())
/// ```
///
/// # Errors
///
/// Returns [`AuditError::Resume`] if the journal has no GA section, its
/// generation records are inconsistent with the recorded [`GaConfig`],
/// or (in Pareto mode) `dispatcher` scores a different axis count than
/// the journaled fronts; plus any error [`run`] can return.
pub fn resume(
    journal: &Journal,
    dispatcher: &mut dyn EvalDispatcher,
    sink: &mut dyn JournalSink,
) -> Result<GaRun, AuditError> {
    let section = journal
        .last_ga_section()
        .ok_or_else(|| AuditError::resume("journal contains no GA section"))?;
    let sink: &mut dyn JournalSink = if section.complete {
        &mut NullSink
    } else {
        sink
    };
    run_ga(&section, false, dispatcher, sink)
}

/// [`run`] over a local fitness closure, un-journaled: the convenience
/// for tests, examples, and bench bins.
///
/// `fitness` must be deterministic per genome and is called from
/// `cfg.threads` worker threads (`0` = all cores); it only needs `Sync`,
/// not `Clone` — per-evaluation state such as [`crate::harness::Rig`]
/// simulators is constructed inside the call, never shared.
///
/// # Example
///
/// ```
/// use audit_core::ga::{evolve, GaConfig, Gene};
/// use audit_cpu::Opcode;
///
/// // A toy objective: count FMA slots.
/// let cfg = GaConfig { population: 8, generations: 5, ..GaConfig::default() };
/// let run = evolve(&cfg, &Opcode::stress_menu(), 6, &[], |g: &[Gene]| {
///     g.iter().filter(|x| x.opcode == Opcode::SimdFma).count() as f64
/// });
/// assert!(run.best_fitness >= 1.0);
/// ```
///
/// Runs are bit-identical regardless of the worker count — the
/// determinism contract in the [module docs](self):
///
/// ```
/// use audit_core::ga::{evolve, GaConfig, Gene};
/// use audit_cpu::Opcode;
///
/// let menu = Opcode::stress_menu();
/// let fitness = |g: &[Gene]| {
///     g.iter().filter(|x| x.opcode == Opcode::SimdFma).count() as f64
/// };
/// let seq = GaConfig { population: 6, generations: 3, threads: 1, ..GaConfig::default() };
/// let par = GaConfig { threads: 4, ..seq.clone() };
/// let a = evolve(&seq, &menu, 4, &[], &fitness);
/// let b = evolve(&par, &menu, 4, &[], &fitness);
/// assert_eq!(a, b); // same best, best_fitness, and history
/// ```
///
/// # Panics
///
/// Panics on any error [`run`] would return (e.g. a population smaller
/// than 2, an empty menu, a zero genome length), or if a fitness worker
/// panics.
pub fn evolve<R: Into<Objectives>>(
    cfg: &GaConfig,
    menu: &[Opcode],
    genome_len: usize,
    seeds: &[Vec<Gene>],
    fitness: impl Fn(&[Gene]) -> R + Sync,
) -> GaRun {
    let mut dispatcher = LocalDispatcher::new(fitness, resolve_workers(cfg.threads));
    run(cfg, menu, genome_len, seeds, &mut dispatcher, &mut NullSink)
        .unwrap_or_else(|e| panic!("{e}"))
}

fn validate_search(menu: &[Opcode], genome_len: usize) -> Result<(), AuditError> {
    if menu.is_empty() {
        return Err(AuditError::invalid(
            "ga",
            "menu",
            "opcode menu must not be empty",
        ));
    }
    if genome_len == 0 {
        return Err(AuditError::invalid(
            "ga",
            "genome_len",
            "genome length must be positive",
        ));
    }
    Ok(())
}

/// The engine proper, shared by [`run`] and [`resume`]. `section`
/// carries the search (config, menu, seeds) plus the journaled
/// generations to reconstruct before evolution continues live, and the
/// journaled `pareto_front` records that carry their full objective
/// vectors (both empty for a fresh run). `fresh` runs journal the
/// section header first; a resumed section already has one.
fn run_ga(
    section: &GaSection<'_>,
    fresh: bool,
    dispatcher: &mut dyn EvalDispatcher,
    sink: &mut dyn JournalSink,
) -> Result<GaRun, AuditError> {
    let GaSection {
        cfg,
        genome_len,
        menu,
        seeds,
        generations: ref replay,
        ref fronts,
        ..
    } = *section;
    cfg.validate()?;
    validate_search(menu, genome_len)?;
    if fresh {
        sink.append(&JournalRecord::GaStart {
            cfg: cfg.clone(),
            genome_len,
            menu: menu.to_vec(),
            seeds: seeds.to_vec(),
        })?;
        if cfg.fast_tier_budget > 0 {
            // Marker record: flags in the journal itself that this run's
            // scores were produced under the tiered cascade (the config
            // inside `ga_start` is authoritative; the marker makes the
            // non-default mode obvious to `grep`).
            sink.append(&JournalRecord::Cascade {
                budget: cfg.fast_tier_budget as u64,
            })?;
        }
    }

    let run_start = Instant::now();
    let mut cache = EvalCache::new(cfg.cache_capacity);
    let mut telemetry = GaTelemetry {
        threads: dispatcher.workers(),
        ..GaTelemetry::default()
    };

    let mut history = Vec::new();
    let mut best: Vec<Gene>;
    let mut best_fitness: f64;
    let mut stalled = 0usize;
    let mut generation = 0usize;
    let mut population: Vec<Vec<Gene>>;
    let mut scores: Vec<f64>;
    let mut objs: Vec<Objectives>;
    let mut axes = None;

    if replay.is_empty() {
        // Fresh start: stream 0 breeds the initial population.
        let mut rng = SmallRng::seed_from_u64(stream_seed(cfg.seed, 0));
        population = Vec::with_capacity(cfg.population);
        for seed in seeds.iter().take(cfg.population) {
            let mut g = seed.clone();
            g.resize_with(genome_len, || Gene::random(menu, &mut rng));
            g.truncate(genome_len);
            population.push(g);
        }
        while population.len() < cfg.population {
            population.push(
                (0..genome_len)
                    .map(|_| Gene::random(menu, &mut rng))
                    .collect(),
            );
        }
        let rerolls = repair_population(cfg, menu, &mut population);
        debug_verify_population(&population);
        objs = evaluate_population(&population, dispatcher, &mut cache, cfg, &mut telemetry)?;
        check_axes(cfg, &objs, &mut axes, fresh)?;
        scores = objs.iter().map(Objectives::primary).collect();
        append_generation(
            sink,
            cfg,
            0,
            &population,
            &objs,
            &scores,
            &telemetry,
            rerolls,
        )?;

        let best_idx = argmax(&scores);
        best = population[best_idx].clone();
        best_fitness = scores[best_idx];
        history.push(best_fitness);
    } else {
        // Resume: rebuild population, scores, objective vectors, cache,
        // and best-so-far tracking from the journal. No fitness is
        // re-executed; the cache is repopulated in the same slot order
        // the live run inserted in, so even its deterministic flush
        // timing is reproduced.
        best = Vec::new();
        best_fitness = f64::NEG_INFINITY;
        objs = Vec::new();
        for (k, rec) in replay.iter().enumerate() {
            check_replay_record(cfg, genome_len, k, rec)?;
            objs = replay_objectives(cfg, k, rec, fronts)?;
            check_axes(cfg, &objs, &mut axes, fresh)?;
            replay_into_cache(&mut cache, rec, &objs);
            telemetry.record(rec.wall_s, rec.executed, rec.cache_hits);

            // Same update logic as the live loop below, fed the recorded
            // scores instead of fresh evaluations.
            let best_idx = argmax(&rec.scores);
            if k > 0 {
                generation += 1;
                if rec.scores[best_idx] > best_fitness {
                    stalled = 0;
                } else {
                    stalled += 1;
                }
            }
            if rec.scores[best_idx] > best_fitness {
                best_fitness = rec.scores[best_idx];
                best = rec.population[best_idx].clone();
            }
            history.push(best_fitness);
        }

        let last = replay[replay.len() - 1];
        population = last.population.clone();
        scores = last.scores.clone();
    }

    while generation < cfg.generations && stalled < cfg.stall_generations {
        generation += 1;
        let mut rng = SmallRng::seed_from_u64(stream_seed(cfg.seed, generation as u64));

        // Pareto mode ranks the parent population once per generation on
        // the calling thread; both modes draw the RNG identically, so
        // flipping `pareto` never perturbs the stream.
        let ranking = if cfg.pareto {
            Some(rank_population(&objs))
        } else {
            None
        };

        // Elites survive unchanged.
        let order: Vec<usize> = match &ranking {
            Some(r) => r.selection_order(),
            None => {
                let mut order: Vec<usize> = (0..population.len()).collect();
                order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
                order
            }
        };
        let mut next: Vec<Vec<Gene>> = order
            .iter()
            .take(cfg.elitism)
            .map(|&i| population[i].clone())
            .collect();

        while next.len() < cfg.population {
            let a = tournament(cfg, &scores, ranking.as_ref(), &mut rng);
            let b = tournament(cfg, &scores, ranking.as_ref(), &mut rng);
            let a_wins = match &ranking {
                Some(r) => r.better_or_equal(a, b),
                None => scores[a] >= scores[b],
            };
            let mut child = if rng.gen_bool(cfg.crossover_rate) {
                crossover(&population[a], &population[b], &mut rng)
            } else if a_wins {
                population[a].clone()
            } else {
                population[b].clone()
            };
            for gene in &mut child {
                if rng.gen_bool(cfg.mutation_rate) {
                    gene.mutate(menu, &mut rng);
                }
            }
            next.push(child);
        }

        // Repair runs after the whole brood is bred, on the calling
        // thread, from content-keyed streams — the breeding RNG above
        // is already exhausted, so flipping `lint_repair` cannot
        // perturb it. Elites are already clean and repair no-ops.
        let rerolls = repair_population(cfg, menu, &mut next);
        population = next;
        debug_verify_population(&population);
        objs = evaluate_population(&population, dispatcher, &mut cache, cfg, &mut telemetry)?;
        check_axes(cfg, &objs, &mut axes, fresh)?;
        scores = objs.iter().map(Objectives::primary).collect();
        append_generation(
            sink,
            cfg,
            generation,
            &population,
            &objs,
            &scores,
            &telemetry,
            rerolls,
        )?;

        let best_idx = argmax(&scores);
        if scores[best_idx] > best_fitness {
            best_fitness = scores[best_idx];
            best = population[best_idx].clone();
            stalled = 0;
        } else {
            stalled += 1;
        }
        history.push(best_fitness);
    }
    sink.append(&JournalRecord::GaEnd)?;

    let pareto_front = if cfg.pareto {
        let ranking = rank_population(&objs);
        Some(extract_front(&population, &objs, &ranking))
    } else {
        None
    };

    telemetry.total_wall_s = run_start.elapsed().as_secs_f64();
    Ok(GaRun {
        best,
        best_fitness,
        history,
        generations_run: generation,
        evaluations: telemetry.evaluations(),
        cache_hits: telemetry.cache_hits(),
        pareto_front,
        telemetry,
    })
}

/// Pareto mode's axis guard: every scored (non-deferred) vector of a
/// run must have the axis count `axes` first saw — the journaled fronts
/// on resume, else the first scored generation. Ranking vectors of
/// different widths would silently truncate the dominance comparison.
fn check_axes(
    cfg: &GaConfig,
    objs: &[Objectives],
    axes: &mut Option<usize>,
    fresh: bool,
) -> Result<(), AuditError> {
    if !cfg.pareto {
        return Ok(());
    }
    for o in objs.iter().filter(|o| !o.is_deferred()) {
        let want = *axes.get_or_insert(o.len());
        if o.len() != want {
            let msg = format!(
                "dispatcher scored a {}-axis vector in a {want}-axis pareto run",
                o.len()
            );
            return Err(if fresh {
                AuditError::invalid("ga", "dispatcher", msg)
            } else {
                AuditError::resume(msg)
            });
        }
    }
    Ok(())
}

/// Repairs every genome of an as-bred population in place (no-op
/// unless [`GaConfig::lint_repair`]), returning total slot re-rolls.
fn repair_population(cfg: &GaConfig, menu: &[Opcode], population: &mut [Vec<Gene>]) -> u64 {
    if !cfg.lint_repair {
        return 0;
    }
    population
        .iter_mut()
        .map(|g| super::repair::repair_genome(g, menu, cfg.seed))
        .sum()
}

#[allow(clippy::too_many_arguments)]
fn append_generation(
    sink: &mut dyn JournalSink,
    cfg: &GaConfig,
    index: usize,
    population: &[Vec<Gene>],
    objs: &[Objectives],
    scores: &[f64],
    telemetry: &GaTelemetry,
    rerolls: u64,
) -> Result<(), AuditError> {
    if cfg.lint_repair {
        // Repair telemetry rides ahead of the generation it shaped; the
        // section walker skips it like the other GA markers.
        sink.append(&JournalRecord::Repair { index, rerolls })?;
    }
    if cfg.pareto {
        // Write-ahead of the generation record: a crash between the two
        // leaves an orphan front, which replay ignores (it matches
        // fronts to generations by index). The full vectors live here;
        // the generation record keeps carrying only the primary scores,
        // exactly as in scalar mode.
        let ranking = rank_population(objs);
        sink.append(&JournalRecord::ParetoFront(ParetoFrontRecord {
            index,
            objectives: objs.to_vec(),
            ranks: ranking.rank.iter().map(|&r| r as u64).collect(),
        }))?;
    }
    sink.append(&JournalRecord::Generation(GenerationRecord {
        index,
        stream_seed: stream_seed(cfg.seed, index as u64),
        population: population.to_vec(),
        scores: scores.to_vec(),
        executed: telemetry.gen_evaluations.last().copied().unwrap_or(0),
        cache_hits: telemetry.gen_cache_hits.last().copied().unwrap_or(0),
        wall_s: telemetry.gen_wall_s.last().copied().unwrap_or(0.0),
        analysis: Some(analyze_population(population)),
    }))
}

/// Static-analyzer summary of one generation: best/mean static swing
/// score under the generic machine model. Journal-only metadata — never
/// feeds back into selection.
fn analyze_population(population: &[Vec<Gene>]) -> GenerationAnalysis {
    let model = MachineModel::generic();
    let mut best = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for genome in population {
        let s = swing_score(&to_sub_block(genome), &model);
        best = best.max(s);
        sum += s;
    }
    GenerationAnalysis {
        best_swing: if population.is_empty() { 0.0 } else { best },
        mean_swing: if population.is_empty() {
            0.0
        } else {
            sum / population.len() as f64
        },
    }
}

/// Debug-build invariant: everything the breeder produces must pass the
/// structural verifier. `Gene::to_inst` lowers through the same checked
/// builders the verifier models, so a finding here means the GA operators
/// and the verifier have drifted apart — catch it at the source, not at
/// NASM emission time.
fn debug_verify_population(population: &[Vec<Gene>]) {
    #[cfg(debug_assertions)]
    for (i, genome) in population.iter().enumerate() {
        let program = audit_cpu::Program::new("ga-candidate", to_sub_block(genome));
        let diags = audit_analyze::verify(&program, &audit_analyze::VerifyTarget::permissive());
        assert!(
            diags.is_empty(),
            "GA bred an unverifiable genome in slot {i}: {diags:?}"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = population;
}

fn check_replay_record(
    cfg: &GaConfig,
    genome_len: usize,
    k: usize,
    rec: &GenerationRecord,
) -> Result<(), AuditError> {
    if rec.index != k {
        return Err(AuditError::resume(format!(
            "journal generations are not contiguous (expected index {k}, found {})",
            rec.index
        )));
    }
    let expected = stream_seed(cfg.seed, k as u64);
    if rec.stream_seed != expected {
        return Err(AuditError::resume(format!(
            "generation {k} was bred from stream {:#x}, but this config derives {expected:#x} \
             — the journal belongs to a different run",
            rec.stream_seed
        )));
    }
    if rec.population.len() != cfg.population || rec.scores.len() != cfg.population {
        return Err(AuditError::resume(format!(
            "generation {k} has {} genomes for a population of {}",
            rec.population.len(),
            cfg.population
        )));
    }
    if rec.population.iter().any(|g| g.len() != genome_len) {
        return Err(AuditError::resume(format!(
            "generation {k} contains genomes of the wrong length (expected {genome_len})"
        )));
    }
    Ok(())
}

/// Reconstructs one replayed generation's objective vectors: the
/// recorded primary scores wrapped as 1-axis vectors in scalar mode, or
/// the full vectors from the generation's journaled `pareto_front`
/// record in Pareto mode.
fn replay_objectives(
    cfg: &GaConfig,
    k: usize,
    rec: &GenerationRecord,
    fronts: &[&ParetoFrontRecord],
) -> Result<Vec<Objectives>, AuditError> {
    if !cfg.pareto {
        return Ok(rec.scores.iter().copied().map(Objectives::scalar).collect());
    }
    let front = fronts.iter().find(|f| f.index == k).ok_or_else(|| {
        AuditError::resume(format!(
            "pareto run journal is missing the pareto_front record of generation {k}"
        ))
    })?;
    if front.objectives.len() != rec.scores.len() {
        return Err(AuditError::resume(format!(
            "pareto_front {k} carries {} objective vectors for {} population slots",
            front.objectives.len(),
            rec.scores.len()
        )));
    }
    for (i, (objectives, &score)) in front.objectives.iter().zip(&rec.scores).enumerate() {
        if objectives.primary() != score {
            return Err(AuditError::resume(format!(
                "pareto_front {k} slot {i} disagrees with its generation record \
                 (primary {} vs score {score}) — the journal is inconsistent",
                objectives.primary()
            )));
        }
    }
    Ok(front.objectives.clone())
}

/// Re-inserts a replayed generation into the memo cache in exactly the
/// order the live run did: first-occurrence cache misses, in slot order.
/// Hits and within-generation duplicates were never inserted live, so
/// they are skipped here too — this keeps the deterministic
/// flush-at-capacity timing bit-identical across kill/resume.
fn replay_into_cache(cache: &mut EvalCache, rec: &GenerationRecord, objs: &[Objectives]) {
    if !cache.is_enabled() {
        return;
    }
    let mut seen: HashSet<&[Gene]> = HashSet::new();
    for (genome, objectives) in rec.population.iter().zip(objs) {
        // A `fast_tier_budget` run records deferred slots as -inf
        // sentinels; the live run never cached those, so replay must
        // not either.
        if objectives.is_deferred() {
            continue;
        }
        if cache.lookup(genome).is_some() {
            continue;
        }
        if !seen.insert(genome.as_slice()) {
            continue;
        }
        cache.insert(genome, objectives.clone());
    }
}

/// Resolves the configured thread knob to a concrete worker count.
pub fn resolve_workers(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Scores one generation: cache lookups and within-generation dedup
/// first, then the remaining genomes through the [`EvalDispatcher`]
/// (a local thread pool or a remote broker). Results land in their
/// population slot by index, and the cache is updated in slot order,
/// keeping both selection order *and* cache state identical to a
/// sequential evaluation.
///
/// `cfg.fast_tier_budget` adds the cascade's pruning tier: the cache
/// misses are ranked by the tier-1 scoreboard estimate
/// (`audit_cpu::tier`) and only the top `budget` are dispatched; every
/// deferred slot scores `f64::NEG_INFINITY` (never cached, so a later
/// generation that re-breeds the genome measures it for real). The
/// decision is made on the calling thread (docs/SIMULATION.md).
fn evaluate_population(
    population: &[Vec<Gene>],
    dispatcher: &mut dyn EvalDispatcher,
    cache: &mut EvalCache,
    cfg: &GaConfig,
    telemetry: &mut GaTelemetry,
) -> Result<Vec<Objectives>, AuditError> {
    let t0 = Instant::now();
    let n = population.len();
    let mut scores: Vec<Option<Objectives>> = vec![None; n];
    let mut dup_of: Vec<Option<usize>> = vec![None; n];
    let mut jobs: Vec<usize> = Vec::new();
    let mut cache_hits = 0u64;

    if cache.is_enabled() {
        let mut first_slot: HashMap<&[Gene], usize> = HashMap::new();
        for (i, genome) in population.iter().enumerate() {
            if let Some(f) = cache.lookup(genome) {
                scores[i] = Some(f);
                cache_hits += 1;
            } else if let Some(&primary) = first_slot.get(genome.as_slice()) {
                dup_of[i] = Some(primary);
                cache_hits += 1;
            } else {
                first_slot.insert(genome.as_slice(), i);
                jobs.push(i);
            }
        }
    } else {
        jobs.extend(0..n);
    }

    // Cascade tier 1: rank the cache misses with the fast in-order
    // scoreboard model and keep only the top `fast_tier_budget` for the
    // full simulation. Runs on the calling thread, so the pruning
    // decision is a pure function of (population, config) — identical
    // for any dispatcher, thread count, or resumed run. When the budget
    // is 0 this block is dead and the job list (and every downstream
    // byte) is untouched.
    let mut deferred: Vec<usize> = Vec::new();
    let tier_budget = cfg.fast_tier_budget;
    if tier_budget > 0 && jobs.len() > tier_budget {
        let model = audit_cpu::tier::TierModel::generic();
        let mut keyed: Vec<(usize, f64)> = jobs
            .iter()
            .map(|&slot| {
                (
                    slot,
                    audit_cpu::tier::estimate_swing(&to_sub_block(&population[slot]), &model),
                )
            })
            .collect();
        keyed.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        jobs = keyed.into_iter().map(|(slot, _)| slot).collect();
        deferred = jobs.split_off(tier_budget);
    }

    let mut results = dispatcher.evaluate(population, &jobs)?;
    // Cache inserts must not depend on worker completion order: the
    // flush-at-capacity policy makes insert *order* observable, and the
    // determinism contract (and journal replay) require slot order.
    results.sort_unstable_by_key(|&(slot, _)| slot);
    let mut expected = jobs.clone();
    expected.sort_unstable();
    if !results.iter().map(|&(slot, _)| slot).eq(expected) {
        return Err(AuditError::invalid(
            "ga",
            "dispatcher",
            format!(
                "dispatcher did not score exactly the {} dispatched slots",
                jobs.len()
            ),
        ));
    }

    let executed = results.len() as u64;
    for (slot, objectives) in results {
        cache.insert(&population[slot], objectives.clone());
        scores[slot] = Some(objectives);
    }
    // Deferred-by-budget slots lose every tournament; they are not
    // cached, so the fast tier's verdict is never mistaken for a
    // measurement by a later generation.
    for slot in deferred {
        scores[slot] = Some(Objectives::deferred());
    }
    for i in 0..n {
        if let Some(primary) = dup_of[i] {
            scores[i] = scores[primary].clone();
        }
    }

    telemetry.record(t0.elapsed().as_secs_f64(), executed, cache_hits);
    Ok(scores
        .into_iter()
        .map(|s| s.expect("every population slot is scored"))
        .collect())
}

fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty scores")
}

fn tournament(
    cfg: &GaConfig,
    scores: &[f64],
    ranking: Option<&PopulationRanking>,
    rng: &mut SmallRng,
) -> usize {
    let mut winner = rng.gen_range(0..scores.len());
    for _ in 1..cfg.tournament.max(1) {
        let challenger = rng.gen_range(0..scores.len());
        let wins = match ranking {
            Some(r) => r.better(challenger, winner),
            None => scores[challenger] > scores[winner],
        };
        if wins {
            winner = challenger;
        }
    }
    winner
}

fn crossover(a: &[Gene], b: &[Gene], rng: &mut SmallRng) -> Vec<Gene> {
    let cut = rng.gen_range(0..a.len());
    a[..cut].iter().chain(&b[cut..]).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::MemJournal;
    use std::sync::atomic::AtomicU64;

    fn menu() -> Vec<Opcode> {
        Opcode::stress_menu()
    }

    /// `fitness` on a local dispatcher with every available core.
    fn local<R: Into<Objectives>, F: Fn(&[Gene]) -> R + Sync>(fitness: F) -> LocalDispatcher<F> {
        LocalDispatcher::new(fitness, resolve_workers(0))
    }

    /// A cheap synthetic fitness: count SimdFma slots. The GA must
    /// saturate it.
    fn fma_count(g: &[Gene]) -> f64 {
        g.iter().filter(|x| x.opcode == Opcode::SimdFma).count() as f64
    }

    /// Drops the `wall_s` field from an encoded journal line — the one
    /// legitimately nondeterministic value in a generation record.
    fn strip_wall(line: &str) -> String {
        match line.find("\"wall_s\":") {
            Some(start) => {
                let rest = &line[start..];
                let end = rest.find(',').map(|e| start + e + 1).unwrap_or(line.len());
                format!("{}{}", &line[..start], &line[end..])
            }
            None => line.to_string(),
        }
    }

    #[test]
    fn ga_maximizes_synthetic_objective() {
        let cfg = GaConfig {
            population: 20,
            generations: 60,
            stall_generations: 60,
            ..GaConfig::default()
        };
        let run = evolve(&cfg, &menu(), 12, &[], fma_count);
        assert!(run.best_fitness >= 6.0, "best {}", run.best_fitness);
        assert!(
            run.history.last().unwrap() > run.history.first().unwrap(),
            "no improvement over the initial population"
        );
    }

    #[test]
    fn history_is_monotone_nondecreasing() {
        let cfg = GaConfig {
            population: 10,
            generations: 20,
            ..GaConfig::default()
        };
        let run = evolve(&cfg, &menu(), 8, &[], fma_count);
        assert!(
            run.history.windows(2).all(|w| w[1] >= w[0]),
            "{:?}",
            run.history
        );
    }

    #[test]
    fn stall_exit_fires() {
        // Constant fitness: improvement never happens after gen 0.
        let cfg = GaConfig {
            population: 8,
            generations: 100,
            stall_generations: 4,
            ..GaConfig::default()
        };
        let run = evolve(&cfg, &menu(), 8, &[], |_| 1.0);
        assert_eq!(run.generations_run, 4);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let cfg = GaConfig {
            population: 10,
            generations: 10,
            ..GaConfig::default()
        };
        let a = evolve(&cfg, &menu(), 8, &[], fma_count);
        let b = evolve(&cfg, &menu(), 8, &[], fma_count);
        assert_eq!(a, b);
        let other = GaConfig { seed: 999, ..cfg };
        let c = evolve(&other, &menu(), 8, &[], fma_count);
        assert_ne!(a.best, c.best);
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_sequential() {
        // The determinism guarantee: same best, best_fitness, and
        // history for any worker count, including an oversubscribed one.
        let base = GaConfig {
            population: 12,
            generations: 12,
            stall_generations: 12,
            threads: 1,
            ..GaConfig::default()
        };
        let sequential = evolve(&base, &menu(), 10, &[], fma_count);
        for threads in [2, 4, 7] {
            let cfg = GaConfig {
                threads,
                ..base.clone()
            };
            let parallel = evolve(&cfg, &menu(), 10, &[], fma_count);
            assert_eq!(sequential, parallel, "diverged at {threads} threads");
            assert_eq!(sequential.history, parallel.history);
            assert_eq!(sequential.best, parallel.best);
        }
    }

    #[test]
    fn cascade_off_leaves_journal_bytes_untouched() {
        // `fast_tier_budget: 0` must leave both results and the exact
        // journal byte stream identical to a config that predates the
        // cascade — the regression gate for the disabled path.
        let cfg = GaConfig {
            population: 10,
            generations: 6,
            stall_generations: 6,
            ..GaConfig::default()
        };
        let mut a = MemJournal::default();
        let mut b = MemJournal::default();
        let off = run(&cfg, &menu(), 8, &[], &mut local(fma_count), &mut a).unwrap();
        let zero = run(
            &GaConfig {
                fast_tier_budget: 0,
                ..cfg
            },
            &menu(),
            8,
            &[],
            &mut local(fma_count),
            &mut b,
        )
        .unwrap();
        assert_eq!(off, zero);
        // Byte-compare modulo the wall-clock field, the one legitimately
        // nondeterministic value in a generation record.
        let lines = |m: &MemJournal| -> Vec<String> {
            m.records
                .iter()
                .map(|r| strip_wall(&r.to_json().encode()))
                .collect()
        };
        assert_eq!(lines(&a), lines(&b));
        assert!(
            !lines(&a).iter().any(|l| l.contains("fast_tier_budget")),
            "disabled cascade must not appear in ga_start config bytes"
        );
        assert!(!a
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::Cascade { .. })));
    }

    #[test]
    fn lint_repair_off_leaves_journal_bytes_untouched() {
        // `lint_repair: false` must leave both results and the exact
        // journal byte stream identical to a config that predates the
        // field — the regression gate for the disabled path.
        let cfg = GaConfig {
            population: 10,
            generations: 6,
            stall_generations: 6,
            ..GaConfig::default()
        };
        let mut a = MemJournal::default();
        let mut b = MemJournal::default();
        let off = run(&cfg, &menu(), 8, &[], &mut local(fma_count), &mut a).unwrap();
        let explicit = run(
            &GaConfig {
                lint_repair: false,
                ..cfg
            },
            &menu(),
            8,
            &[],
            &mut local(fma_count),
            &mut b,
        )
        .unwrap();
        assert_eq!(off, explicit);
        let lines = |m: &MemJournal| -> Vec<String> {
            m.records
                .iter()
                .map(|r| strip_wall(&r.to_json().encode()))
                .collect()
        };
        assert_eq!(lines(&a), lines(&b));
        assert!(
            !lines(&a).iter().any(|l| l.contains("lint_repair")),
            "disabled repair must not appear in ga_start config bytes"
        );
        assert!(!a
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::Repair { .. })));
    }

    #[test]
    fn lint_repair_populations_lint_clean() {
        // With repair on, every journaled population — initial and
        // bred — must be free of deny-level AUD1xx findings, and each
        // generation record must be preceded by its repair marker.
        let cfg = GaConfig {
            population: 12,
            generations: 5,
            stall_generations: 5,
            lint_repair: true,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        run(&cfg, &menu(), 10, &[], &mut local(fma_count), &mut mem).unwrap();

        let mut pending_repair: Option<usize> = None;
        let mut total_rerolls = 0u64;
        let mut generations = 0usize;
        for rec in &mem.records {
            match rec {
                JournalRecord::Repair { index, rerolls } => {
                    assert!(pending_repair.is_none(), "two repair markers in a row");
                    pending_repair = Some(*index);
                    total_rerolls += rerolls;
                }
                JournalRecord::Generation(g) => {
                    assert_eq!(
                        pending_repair.take(),
                        Some(g.index),
                        "generation {} missing its repair marker",
                        g.index
                    );
                    generations += 1;
                    for genome in &g.population {
                        assert!(
                            crate::ga::repair::offending_slots(genome).is_empty(),
                            "repaired population still lints dirty"
                        );
                    }
                }
                _ => {}
            }
        }
        assert!(generations > 0);
        assert!(
            total_rerolls > 0,
            "a random initial population should need at least one re-roll"
        );
    }

    #[test]
    fn lint_repair_is_bit_identical_across_worker_counts() {
        let base = GaConfig {
            population: 12,
            generations: 8,
            stall_generations: 8,
            lint_repair: true,
            threads: 1,
            ..GaConfig::default()
        };
        let one = evolve(&base, &menu(), 8, &[], fma_count);
        for threads in [2, 4] {
            let n = evolve(&GaConfig { threads, ..base }, &menu(), 8, &[], fma_count);
            assert_eq!(one, n, "diverged at {threads} threads");
        }
    }

    #[test]
    fn lint_repair_kill_and_resume_is_bit_identical() {
        let cfg = GaConfig {
            population: 8,
            generations: 6,
            stall_generations: 6,
            lint_repair: true,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let full = run(&cfg, &menu(), 6, &[], &mut local(fma_count), &mut mem).unwrap();

        // Kill right after each generation record (the repair marker
        // rides ahead of it, so every cut keeps matched pairs); resume
        // while appending to the truncated journal.
        let cuts: Vec<usize> = mem
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, JournalRecord::Generation(_)))
            .map(|(i, _)| i + 1)
            .collect();
        for cut in cuts {
            let mut partial = MemJournal {
                records: mem.records[..cut].to_vec(),
            };
            let journal = partial.as_journal();
            let resumed = resume(&journal, &mut local(fma_count), &mut partial).unwrap();
            assert_eq!(full, resumed, "diverged when cut at record {cut}");
            assert_eq!(
                mem.records, partial.records,
                "journal shape diverged when cut at record {cut}"
            );
        }
    }

    #[test]
    fn cascade_wider_than_population_changes_results_nothing() {
        // A budget the job list never exceeds prunes nothing: same
        // GaRun, and the journal differs only by the cascade marker and
        // the config field announcing it.
        let base = GaConfig {
            population: 10,
            generations: 8,
            stall_generations: 8,
            ..GaConfig::default()
        };
        let off = evolve(&base, &menu(), 8, &[], fma_count);
        let on = evolve(
            &GaConfig {
                fast_tier_budget: base.population,
                ..base
            },
            &menu(),
            8,
            &[],
            fma_count,
        );
        assert_eq!(off, on);
        assert_eq!(off.evaluations, on.evaluations);
    }

    #[test]
    fn cascade_caps_full_simulations_per_generation() {
        let mut mem = MemJournal::default();
        let cfg = GaConfig {
            population: 12,
            generations: 6,
            stall_generations: 6,
            fast_tier_budget: 3,
            ..GaConfig::default()
        };
        let run = run(&cfg, &menu(), 8, &[], &mut local(fma_count), &mut mem).unwrap();

        let mut saw_marker = false;
        let mut saw_deferred = false;
        let mut executed_total = 0;
        for rec in &mem.records {
            match rec {
                JournalRecord::Cascade { budget } => {
                    saw_marker = true;
                    assert_eq!(*budget, 3);
                }
                JournalRecord::Generation(g) => {
                    assert!(g.executed <= 3, "generation simulated past the budget");
                    executed_total += g.executed;
                    saw_deferred |= g.scores.contains(&f64::NEG_INFINITY);
                }
                _ => {}
            }
        }
        assert_eq!(run.evaluations, executed_total);
        assert!(saw_marker, "journal must carry the cascade marker");
        assert!(
            saw_deferred,
            "a 3-of-12 cascade budget must defer slots as -inf sentinels"
        );
    }

    #[test]
    fn cascade_is_bit_identical_across_worker_counts() {
        // Pruning happens on the calling thread before dispatch, so the
        // surviving job set — and therefore the whole run — is the same
        // for any worker count.
        let base = GaConfig {
            population: 12,
            generations: 10,
            stall_generations: 10,
            fast_tier_budget: 4,
            threads: 1,
            ..GaConfig::default()
        };
        let sequential = evolve(&base, &menu(), 10, &[], fma_count);
        for threads in [2, 4] {
            let cfg = GaConfig {
                threads,
                ..base.clone()
            };
            let parallel = evolve(&cfg, &menu(), 10, &[], fma_count);
            assert_eq!(sequential, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn cascade_resume_replays_bit_identically() {
        // Cascade-deferred slots are journaled as -inf and never cached,
        // so a mid-run kill/resume must reconverge on the identical run.
        let mut mem = MemJournal::default();
        let cfg = GaConfig {
            population: 12,
            generations: 6,
            stall_generations: 6,
            fast_tier_budget: 4,
            ..GaConfig::default()
        };
        let full = run(&cfg, &menu(), 8, &[], &mut local(fma_count), &mut mem).unwrap();

        let mut prefix = Vec::new();
        let mut gens = 0;
        for rec in &mem.records {
            prefix.push(rec.clone());
            if matches!(rec, JournalRecord::Generation(_)) {
                gens += 1;
                if gens == 2 {
                    break;
                }
            }
        }
        let journal = crate::journal::Journal { records: prefix };
        let resumed = resume(&journal, &mut local(fma_count), &mut NullSink).unwrap();
        assert_eq!(full, resumed);
        assert_eq!(full.history, resumed.history);
    }

    #[test]
    fn cascade_never_caches_tier_estimates() {
        // The fast tier orders and defers; it must never stand in for a
        // measurement. Every fitness the run accounts for has to come
        // from an actual fitness call, and the winner's score must be
        // the true objective, not an analytic swing estimate.
        let calls = AtomicU64::new(0);
        let counted = |g: &[Gene]| {
            calls.fetch_add(1, Ordering::Relaxed);
            fma_count(g)
        };
        let cfg = GaConfig {
            population: 12,
            generations: 8,
            stall_generations: 8,
            fast_tier_budget: 3,
            ..GaConfig::default()
        };
        let run = evolve(&cfg, &menu(), 8, &[], counted);
        assert_eq!(run.evaluations, calls.load(Ordering::Relaxed));
        assert_eq!(run.best_fitness, fma_count(&run.best));
    }

    #[test]
    fn generation_records_carry_analysis_summaries() {
        let mut mem = crate::journal::MemJournal::default();
        let cfg = GaConfig {
            population: 6,
            generations: 3,
            stall_generations: 3,
            ..GaConfig::default()
        };
        run(&cfg, &menu(), 6, &[], &mut local(fma_count), &mut mem).unwrap();
        let gens: Vec<_> = mem
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Generation(g) => Some(g),
                _ => None,
            })
            .collect();
        assert!(!gens.is_empty());
        for g in gens {
            let a = g.analysis.expect("live runs always attach analysis");
            assert!(a.best_swing.is_finite() && a.mean_swing.is_finite());
            assert!(a.best_swing >= a.mean_swing);
        }
    }

    #[test]
    fn cache_hits_never_change_results() {
        let cached = GaConfig {
            population: 10,
            generations: 15,
            stall_generations: 15,
            ..GaConfig::default()
        };
        let uncached = GaConfig {
            cache_capacity: 0,
            ..cached.clone()
        };
        let a = evolve(&cached, &menu(), 8, &[], fma_count);
        let b = evolve(&uncached, &menu(), 8, &[], fma_count);
        // Same search outcome…
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.history, b.history);
        // …but the cached run did strictly less simulation work: the two
        // elites alone are re-scored from memo every generation.
        assert!(a.cache_hits > 0, "elites must hit the cache");
        assert!(a.evaluations < b.evaluations);
        assert_eq!(b.cache_hits, 0);
        assert_eq!(
            a.evaluations + a.cache_hits,
            b.evaluations,
            "every lookup is either a simulation or a memo hit"
        );
    }

    #[test]
    fn cache_skips_resimulation_of_elites() {
        // Count actual fitness invocations independently of the engine's
        // bookkeeping; memoization must keep them equal to `evaluations`.
        let calls = AtomicU64::new(0);
        let cfg = GaConfig {
            population: 10,
            generations: 8,
            stall_generations: 8,
            ..GaConfig::default()
        };
        let run = evolve(&cfg, &menu(), 8, &[], |g: &[Gene]| {
            calls.fetch_add(1, Ordering::Relaxed);
            fma_count(g)
        });
        let lookups = (cfg.generations as u64 + 1) * cfg.population as u64;
        assert_eq!(calls.load(Ordering::Relaxed), run.evaluations);
        assert_eq!(run.evaluations + run.cache_hits, lookups);
        assert!(
            run.evaluations < lookups,
            "elites should never be re-simulated"
        );
    }

    #[test]
    fn evaluation_accounting_is_honest() {
        let cfg = GaConfig {
            population: 10,
            generations: 5,
            stall_generations: 100,
            ..GaConfig::default()
        };
        let run = evolve(&cfg, &menu(), 8, &[], fma_count);
        // 6 generations × 10 lookups, split between real simulations and
        // memo hits; at least the 2 elites hit per post-initial generation.
        assert_eq!(run.evaluations + run.cache_hits, 10 * 6);
        assert!(run.cache_hits >= 2 * 5, "hits {}", run.cache_hits);
        // Telemetry agrees with the headline counters.
        assert_eq!(run.telemetry.evaluations(), run.evaluations);
        assert_eq!(run.telemetry.cache_hits(), run.cache_hits);
        assert_eq!(run.telemetry.gen_evaluations.len(), 6);
        assert_eq!(run.telemetry.gen_wall_s.len(), 6);
        assert!(run.telemetry.threads >= 1);
        assert!(run.telemetry.cache_hit_rate() > 0.0);
        assert!(run.telemetry.total_wall_s >= 0.0);
    }

    #[test]
    fn zero_threads_auto_detects() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
    }

    #[test]
    fn eval_cache_flushes_at_capacity() {
        let mut cache = EvalCache::new(2);
        let menu = menu();
        let mut rng = SmallRng::seed_from_u64(1);
        let genomes: Vec<Vec<Gene>> = (0..3)
            .map(|_| (0..4).map(|_| Gene::random(&menu, &mut rng)).collect())
            .collect();
        cache.insert(&genomes[0], 1.0);
        cache.insert(&genomes[1], 2.0);
        assert_eq!(cache.lookup(&genomes[0]), Some(Objectives::scalar(1.0)));
        assert_eq!(cache.lookup(&genomes[1]), Some(Objectives::scalar(2.0)));
        cache.insert(&genomes[2], 3.0); // exceeds capacity → flush
        assert_eq!(cache.lookup(&genomes[2]), Some(Objectives::scalar(3.0)));
        assert_eq!(cache.lookup(&genomes[0]), None);
        assert_eq!(cache.lookup(&genomes[1]), None);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut cache = EvalCache::new(0);
        let menu = menu();
        let mut rng = SmallRng::seed_from_u64(2);
        let genome: Vec<Gene> = (0..4).map(|_| Gene::random(&menu, &mut rng)).collect();
        cache.insert(&genome, 1.0);
        assert!(!cache.is_enabled());
        assert_eq!(cache.lookup(&genome), None);
    }

    #[test]
    fn seeded_population_starts_ahead() {
        let perfect: Vec<Gene> = (0..8)
            .map(|i| Gene {
                opcode: Opcode::SimdFma,
                dst: i,
                src1: 8,
                src2: 9,
                miss: false,
            })
            .collect();
        let cfg = GaConfig {
            population: 10,
            generations: 0,
            ..GaConfig::default()
        };
        let run = evolve(&cfg, &menu(), 8, &[perfect], fma_count);
        assert_eq!(run.best_fitness, 8.0);
        assert_eq!(run.generations_run, 0);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn tiny_population_rejected() {
        let cfg = GaConfig {
            population: 1,
            ..GaConfig::default()
        };
        let _ = evolve(&cfg, &menu(), 8, &[], fma_count);
    }

    #[test]
    fn validate_rejects_bad_configs_without_panicking() {
        let bad = [
            GaConfig {
                population: 1,
                ..GaConfig::default()
            },
            GaConfig {
                tournament: 0,
                ..GaConfig::default()
            },
            GaConfig {
                crossover_rate: 1.5,
                ..GaConfig::default()
            },
            GaConfig {
                mutation_rate: f64::NAN,
                ..GaConfig::default()
            },
            GaConfig {
                elitism: 24,
                ..GaConfig::default()
            },
        ];
        for cfg in &bad {
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, AuditError::InvalidConfig { .. }), "{err}");
            let run = run(cfg, &menu(), 8, &[], &mut local(fma_count), &mut NullSink);
            assert!(run.is_err());
        }
        assert!(GaConfig::default().validate().is_ok());
    }

    #[test]
    fn try_evolve_rejects_degenerate_searches() {
        let cfg = GaConfig::default();
        let err = run(&cfg, &[], 8, &[], &mut local(fma_count), &mut NullSink).unwrap_err();
        assert!(err.to_string().contains("menu"), "{err}");
        let err = run(&cfg, &menu(), 0, &[], &mut local(fma_count), &mut NullSink).unwrap_err();
        assert!(err.to_string().contains("genome"), "{err}");
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..64).map(|g| stream_seed(0xA0D17, g)).collect();
        let unique: HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len(), "stream collision");
        // Pinned: resume depends on this derivation never changing.
        assert_eq!(stream_seed(0, 0), stream_seed(0, 0));
        assert_ne!(stream_seed(0, 0), stream_seed(0, 1));
        assert_ne!(stream_seed(0, 0), stream_seed(1, 0));
    }

    #[test]
    fn journaled_run_matches_plain_run() {
        let cfg = GaConfig {
            population: 8,
            generations: 6,
            stall_generations: 6,
            ..GaConfig::default()
        };
        let plain = evolve(&cfg, &menu(), 6, &[], fma_count);
        let mut mem = MemJournal::default();
        let journaled = run(&cfg, &menu(), 6, &[], &mut local(fma_count), &mut mem).unwrap();
        assert_eq!(plain, journaled);
        // ga_start + one record per generation (incl. gen 0) + ga_end.
        assert_eq!(
            mem.records.len(),
            1 + (journaled.generations_run + 1) + 1,
            "unexpected journal shape"
        );
        let JournalRecord::GaStart { cfg: jcfg, .. } = &mem.records[0] else {
            panic!("first record must be ga_start");
        };
        assert_eq!(jcfg, &cfg);
        assert!(matches!(mem.records.last(), Some(JournalRecord::GaEnd)));
    }

    #[test]
    fn kill_and_resume_is_bit_identical_at_every_cut() {
        let cfg = GaConfig {
            population: 8,
            generations: 8,
            stall_generations: 8,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let full = run(&cfg, &menu(), 6, &[], &mut local(fma_count), &mut mem).unwrap();
        let gens = full.generations_run + 1;

        for cut in 1..=gens {
            // Simulate a kill after `cut` generation records: keep the
            // ga_start plus the first `cut` generations.
            let truncated = MemJournal {
                records: mem.records[..1 + cut].to_vec(),
            };
            let resumed = resume(
                &truncated.as_journal(),
                &mut local(fma_count),
                &mut NullSink,
            )
            .unwrap();
            assert_eq!(full, resumed, "diverged when cut after {cut} records");
        }
    }

    #[test]
    fn resume_reproduces_cache_flush_timing() {
        // A cache small enough to flush mid-run: resume must reproduce
        // the flush schedule exactly or counters (and potentially
        // results) drift.
        let cfg = GaConfig {
            population: 10,
            generations: 10,
            stall_generations: 10,
            cache_capacity: 12,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let full = run(&cfg, &menu(), 8, &[], &mut local(fma_count), &mut mem).unwrap();
        let cut = 1 + full.generations_run.div_ceil(2);
        let truncated = MemJournal {
            records: mem.records[..cut].to_vec(),
        };
        let resumed = resume(
            &truncated.as_journal(),
            &mut local(fma_count),
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(full, resumed);
        assert_eq!(full.cache_hits, resumed.cache_hits);
        assert_eq!(full.evaluations, resumed.evaluations);
    }

    #[test]
    fn resume_continues_journaling_to_the_same_shape() {
        let cfg = GaConfig {
            population: 8,
            generations: 5,
            stall_generations: 5,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let full = run(&cfg, &menu(), 6, &[], &mut local(fma_count), &mut mem).unwrap();

        // Kill after two generation records; resume while appending to
        // the truncated journal. The rebuilt journal must equal the
        // uninterrupted one record-for-record.
        let mut partial = MemJournal {
            records: mem.records[..3].to_vec(),
        };
        let journal = partial.as_journal();
        let resumed = resume(&journal, &mut local(fma_count), &mut partial).unwrap();
        assert_eq!(full, resumed);
        assert_eq!(mem.records, partial.records);
    }

    #[test]
    fn resume_of_a_complete_section_appends_nothing() {
        let cfg = GaConfig {
            population: 6,
            generations: 3,
            stall_generations: 3,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let full = run(&cfg, &menu(), 4, &[], &mut local(fma_count), &mut mem).unwrap();
        let before = mem.records.len();
        let journal = mem.as_journal();
        let resumed = resume(&journal, &mut local(fma_count), &mut mem).unwrap();
        assert_eq!(full, resumed);
        assert_eq!(mem.records.len(), before, "complete section re-appended");
    }

    #[test]
    fn resume_rejects_foreign_journals() {
        let cfg = GaConfig {
            population: 6,
            generations: 2,
            stall_generations: 2,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        run(&cfg, &menu(), 4, &[], &mut local(fma_count), &mut mem).unwrap();

        // Tamper with the recorded seed: stream seeds no longer match.
        let mut records = mem.records.clone();
        if let JournalRecord::GaStart { cfg, .. } = &mut records[0] {
            cfg.seed ^= 1;
        }
        let tampered = MemJournal { records };
        let err = resume(&tampered.as_journal(), &mut local(fma_count), &mut NullSink).unwrap_err();
        assert!(matches!(err, AuditError::Resume { .. }), "{err}");

        // And an empty journal has nothing to resume.
        let empty = MemJournal::default();
        let err = resume(&empty.as_journal(), &mut local(fma_count), &mut NullSink).unwrap_err();
        assert!(err.to_string().contains("no GA section"), "{err}");
    }

    /// A synthetic two-axis objective with a genuine trade-off: FMA
    /// slots and IAdd slots compete for the same genome positions, so no
    /// single genome maximizes both.
    fn mo_fitness(g: &[Gene]) -> Objectives {
        let iadd = g.iter().filter(|x| x.opcode == Opcode::IAdd).count() as f64;
        Objectives(vec![fma_count(g), iadd])
    }

    #[test]
    fn pareto_off_leaves_journal_bytes_untouched() {
        // `pareto: false` must leave both results and the exact journal
        // byte stream identical to a config that predates the field —
        // the regression gate for the disabled path.
        let cfg = GaConfig {
            population: 10,
            generations: 6,
            stall_generations: 6,
            ..GaConfig::default()
        };
        let mut a = MemJournal::default();
        let mut b = MemJournal::default();
        let legacy = run(&cfg, &menu(), 8, &[], &mut local(fma_count), &mut a).unwrap();
        let explicit = run(
            &GaConfig {
                pareto: false,
                ..cfg
            },
            &menu(),
            8,
            &[],
            &mut local(fma_count),
            &mut b,
        )
        .unwrap();
        assert_eq!(legacy, explicit);
        assert!(legacy.pareto_front.is_none());
        let lines = |m: &MemJournal| -> Vec<String> {
            m.records
                .iter()
                .map(|r| strip_wall(&r.to_json().encode()))
                .collect()
        };
        assert_eq!(lines(&a), lines(&b));
        assert!(
            !lines(&a).iter().any(|l| l.contains("pareto")),
            "disabled pareto must not appear in journal bytes"
        );
        assert!(!a
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::ParetoFront(_))));
    }

    #[test]
    fn pareto_is_bit_identical_across_worker_counts() {
        let base = GaConfig {
            population: 12,
            generations: 10,
            stall_generations: 10,
            pareto: true,
            ..GaConfig::default()
        };
        let mut sequential_dispatcher = LocalDispatcher::new(mo_fitness, 1);
        let sequential = run(
            &base,
            &menu(),
            10,
            &[],
            &mut sequential_dispatcher,
            &mut NullSink,
        )
        .unwrap();
        let front = sequential
            .pareto_front
            .as_ref()
            .expect("pareto runs report a front");
        assert!(!front.is_empty());
        for m in front {
            assert_eq!(m.objectives.len(), 2);
            assert_eq!(m.objectives, mo_fitness(&m.genome));
        }
        // Front members are mutually non-dominated.
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    assert!(!a.objectives.dominates(&b.objectives));
                }
            }
        }
        for threads in [2, 4, 7] {
            let mut dispatcher = LocalDispatcher::new(mo_fitness, threads);
            let parallel = run(&base, &menu(), 10, &[], &mut dispatcher, &mut NullSink).unwrap();
            assert_eq!(sequential, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn pareto_front_records_precede_their_generations() {
        let cfg = GaConfig {
            population: 8,
            generations: 5,
            stall_generations: 5,
            pareto: true,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let mut dispatcher = LocalDispatcher::new(mo_fitness, 1);
        let run = run(&cfg, &menu(), 6, &[], &mut dispatcher, &mut mem).unwrap();
        let mut pending_front: Option<&ParetoFrontRecord> = None;
        let mut generations = 0usize;
        for rec in &mem.records {
            match rec {
                JournalRecord::ParetoFront(f) => {
                    assert!(pending_front.is_none(), "two fronts without a generation");
                    assert_eq!(f.objectives.len(), cfg.population);
                    assert_eq!(f.ranks.len(), cfg.population);
                    assert!(f.ranks.contains(&0), "every generation has a rank-0 front");
                    pending_front = Some(f);
                }
                JournalRecord::Generation(g) => {
                    let f = pending_front.take().expect("generation without its front");
                    assert_eq!(f.index, g.index);
                    for (objectives, &score) in f.objectives.iter().zip(&g.scores) {
                        assert_eq!(objectives.primary(), score);
                    }
                    generations += 1;
                }
                _ => {}
            }
        }
        assert!(pending_front.is_none());
        assert_eq!(generations, run.generations_run + 1);
    }

    #[test]
    fn pareto_kill_and_resume_is_bit_identical_at_every_cut() {
        // Cut after *every* record — including between a pareto_front
        // and its generation, where the orphan front must be ignored.
        let cfg = GaConfig {
            population: 8,
            generations: 6,
            stall_generations: 6,
            pareto: true,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let mut dispatcher = LocalDispatcher::new(mo_fitness, 2);
        let full = run(&cfg, &menu(), 6, &[], &mut dispatcher, &mut mem).unwrap();
        for cut in 1..mem.records.len() {
            let truncated = MemJournal {
                records: mem.records[..cut].to_vec(),
            };
            let mut dispatcher = LocalDispatcher::new(mo_fitness, 2);
            let resumed = resume(&truncated.as_journal(), &mut dispatcher, &mut NullSink).unwrap();
            assert_eq!(full, resumed, "diverged when cut after {cut} records");
        }
    }

    #[test]
    fn pareto_resume_rejects_scalar_closures() {
        let cfg = GaConfig {
            population: 6,
            generations: 3,
            stall_generations: 3,
            pareto: true,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let mut dispatcher = LocalDispatcher::new(mo_fitness, 1);
        run(&cfg, &menu(), 4, &[], &mut dispatcher, &mut mem).unwrap();
        // Keep `ga_start` plus generation 0's front and record, so the
        // scalar dispatcher scores the next generation live.
        mem.records.truncate(3);
        let mut scalar = LocalDispatcher::new(fma_count, 1);
        let err = resume(&mem.as_journal(), &mut scalar, &mut NullSink).unwrap_err();
        assert!(matches!(err, AuditError::Resume { .. }), "{err}");
        assert!(err.to_string().contains("1-axis"), "{err}");
    }

    /// Returns a duplicate of its first slot in place of its last.
    struct DuplicateSlot;

    impl EvalDispatcher for DuplicateSlot {
        fn evaluate(
            &mut self,
            population: &[Vec<Gene>],
            jobs: &[usize],
        ) -> Result<Vec<(usize, Objectives)>, AuditError> {
            let mut results: Vec<(usize, Objectives)> = jobs
                .iter()
                .map(|&slot| (slot, fma_count(&population[slot]).into()))
                .collect();
            if let (Some(first), Some(last)) = (results.first().cloned(), results.last_mut()) {
                *last = first;
            }
            Ok(results)
        }
    }

    #[test]
    fn duplicate_dispatcher_slots_are_an_error_not_a_panic() {
        let cfg = GaConfig {
            population: 6,
            generations: 2,
            ..GaConfig::default()
        };
        let err = run(&cfg, &menu(), 4, &[], &mut DuplicateSlot, &mut NullSink).unwrap_err();
        assert!(matches!(err, AuditError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("dispatched slots"), "{err}");
    }
}
