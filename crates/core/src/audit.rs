//! The top-level AUDIT driver (paper Fig. 5, §3.C).
//!
//! Ties the pieces together exactly as the paper describes:
//!
//! 1. sweep for the platform's resonance frequency,
//! 2. size the stressmark loop to that period, split the high-power
//!    region into `S` replicated sub-blocks of `K` cycles,
//! 3. evolve the sub-block with the GA against the hardware-path
//!    measurement loop (threads spread across modules, aligned as the
//!    dithering algorithm guarantees),
//! 4. emit the winning kernel as a named stressmark (A-Res, A-Ex,
//!    A-Res-8T, A-Res-Th — the name reflects the configuration it was
//!    trained for).

use audit_cpu::{Opcode, Program};
use audit_error::AuditError;
use audit_stressmark::Kernel;

use crate::ga::{self, CostFunction, GaConfig, GaRun, Gene, Objective, ObjectiveSet, Objectives};
use crate::harness::{MeasureSpec, Measurement, Rig};
use crate::journal::{Journal, JournalRecord, JournalSink, NullSink};
use crate::resilient::{self, MeasurePolicy, ResilienceLog, ResilienceReport};
use crate::resonance::{self, ResonanceResult};

/// Options for a generation run.
///
/// Start from a preset ([`AuditOptions::paper`] or
/// [`AuditOptions::fast_demo`]), change it with a struct update or the
/// `with_*` setters, then call [`AuditOptions::validate`]: it rejects
/// option sets the driver cannot run (an empty resonance sweep, a
/// zero-length sub-block, a degenerate GA configuration), which a
/// hand-rolled value never checks by itself.
///
/// # Example
///
/// ```
/// use audit_core::audit::AuditOptions;
/// use audit_core::ga::CostFunction;
///
/// let opts = AuditOptions {
///     sub_block_cycles: 8,
///     resonance_periods: (16..=48).step_by(8).collect(),
///     ..AuditOptions::fast_demo().with_cost(CostFunction::MaxDroop)
/// };
/// opts.validate().unwrap();
/// assert_eq!(opts.sub_block_cycles, 8);
/// let empty = AuditOptions {
///     resonance_periods: vec![],
///     ..AuditOptions::fast_demo()
/// };
/// assert!(empty.validate().is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AuditOptions {
    /// GA hyper-parameters.
    pub ga: GaConfig,
    /// Cost function to maximize.
    pub cost: CostFunction,
    /// Sub-block length `K` in cycles (paper example: K = 6).
    pub sub_block_cycles: u32,
    /// Resonance sweep grid (loop periods in cycles).
    pub resonance_periods: Vec<u32>,
    /// Measurement spec for fitness evaluations.
    pub eval_spec: MeasureSpec,
    /// Quiet region of excitation stressmarks, in cycles.
    pub excitation_quiet_cycles: u32,
    /// Resilience policy for fitness evaluations (fault injection,
    /// repeat-median, retry, watchdog). The default no-op policy keeps
    /// the plain measurement path and bit-identical results.
    pub policy: MeasurePolicy,
    /// Objective axes the GA optimizes, always evaluated in canonical
    /// droop → power → margin order (see [`ObjectiveSet`]). The default
    /// is the paper's scalar droop objective; selecting more than one
    /// axis is only meaningful together with [`GaConfig::pareto`] —
    /// use [`AuditOptions::with_objectives`], which keeps the two in
    /// sync.
    pub objectives: ObjectiveSet,
}

impl AuditOptions {
    /// Checks the invariants the driver relies on.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] if the resonance sweep is
    /// empty or contains a period below 2 cycles, the sub-block or
    /// excitation quiet region is zero-length, or the GA configuration
    /// or evaluation spec is itself invalid.
    pub fn validate(&self) -> Result<(), AuditError> {
        self.ga.validate()?;
        self.eval_spec.validate()?;
        self.policy.validate()?;
        if self.sub_block_cycles == 0 {
            return Err(AuditError::invalid(
                "AuditOptions",
                "sub_block_cycles",
                "sub-block length K must be at least one cycle",
            ));
        }
        if self.resonance_periods.is_empty() {
            return Err(AuditError::invalid(
                "AuditOptions",
                "resonance_periods",
                "resonance sweep needs at least one period",
            ));
        }
        if let Some(&p) = self.resonance_periods.iter().find(|&&p| p < 2) {
            return Err(AuditError::invalid(
                "AuditOptions",
                "resonance_periods",
                format!("sweep period must be at least 2 cycles (got {p})"),
            ));
        }
        if self.excitation_quiet_cycles == 0 {
            return Err(AuditError::invalid(
                "AuditOptions",
                "excitation_quiet_cycles",
                "excitation quiet region must be at least one cycle",
            ));
        }
        if self.objectives.is_empty() {
            return Err(AuditError::invalid(
                "AuditOptions",
                "objectives",
                "need at least one objective axis",
            ));
        }
        if self.ga.pareto && self.objectives.is_scalar() {
            return Err(AuditError::invalid(
                "AuditOptions",
                "objectives",
                "pareto mode needs at least two objective axes",
            ));
        }
        Ok(())
    }

    /// Paper-scale configuration (hours of simulated search in the
    /// original; minutes here).
    pub fn paper() -> Self {
        AuditOptions {
            ga: GaConfig {
                stall_generations: 12,
                ..GaConfig::default()
            },
            cost: CostFunction::MaxDroop,
            sub_block_cycles: 6,
            resonance_periods: resonance::default_periods().collect(),
            eval_spec: MeasureSpec::ga_eval(),
            excitation_quiet_cycles: 200,
            policy: MeasurePolicy::disabled(),
            objectives: ObjectiveSet::scalar_droop(),
        }
    }

    /// A small configuration for tests and examples: converges in
    /// seconds while exercising every code path.
    pub fn fast_demo() -> Self {
        AuditOptions {
            ga: GaConfig {
                population: 8,
                generations: 6,
                stall_generations: 6,
                ..GaConfig::default()
            },
            cost: CostFunction::MaxDroop,
            sub_block_cycles: 6,
            resonance_periods: (16..=48).step_by(8).collect(),
            eval_spec: MeasureSpec::ga_eval(),
            excitation_quiet_cycles: 150,
            policy: MeasurePolicy::disabled(),
            objectives: ObjectiveSet::scalar_droop(),
        }
    }

    /// Replaces the cost function.
    pub fn with_cost(mut self, cost: CostFunction) -> Self {
        self.cost = cost;
        self
    }

    /// Replaces the GA seed (for convergence statistics).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.ga.seed = seed;
        self
    }

    /// Sets the GA fitness-evaluation worker count (`0` = all available
    /// cores). Never changes results — see the determinism contract in
    /// [`crate::ga::engine`].
    pub fn with_eval_threads(mut self, threads: usize) -> Self {
        self.ga.threads = threads;
        self
    }

    /// Replaces the resilience policy (fault injection, repeat-median,
    /// retry, watchdog). Never changes results across worker counts —
    /// fault schedules are content-addressed per candidate.
    pub fn with_policy(mut self, policy: MeasurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the evaluation cascade's fast-tier budget (`0` = cascade
    /// off): at most this many candidates per generation reach the full
    /// simulator; the rest are pruned by the analytic fast tier. See
    /// [`GaConfig::fast_tier_budget`].
    pub fn with_fast_tier_budget(mut self, budget: usize) -> Self {
        self.ga.fast_tier_budget = budget;
        self
    }

    /// Replaces the objective axes and keeps [`GaConfig::pareto`] in
    /// sync: more than one axis switches the GA into Pareto-front mode,
    /// a single axis switches it back to the scalar engine. Scalar
    /// results are unchanged by this call when the set stays
    /// droop-only.
    pub fn with_objectives(mut self, objectives: ObjectiveSet) -> Self {
        self.objectives = objectives;
        self.ga.pareto = !objectives.is_scalar();
        self
    }
}

/// A generated stressmark plus the evidence trail that produced it.
#[derive(Debug, Clone)]
pub struct StressmarkRun {
    /// Stressmark name ("A-Res", "A-Ex", …).
    pub name: String,
    /// The structured kernel (needed for dithering and NOP analysis).
    pub kernel: Kernel,
    /// The flattened executable program.
    pub program: Program,
    /// Fitness of the winning genome under the configured cost.
    pub best_fitness: f64,
    /// Droop of the winner during its final evaluation, volts.
    pub best_droop: f64,
    /// The resonance sweep used (excitation runs carry one too, for the
    /// record, even though they do not loop at the resonance).
    pub resonance: ResonanceResult,
    /// Full GA convergence record.
    pub ga: GaRun,
    /// Threads the stressmark was trained with.
    pub threads: usize,
    /// Resilience counters for the run's fitness evaluations (all
    /// zeros when the policy is the default no-op).
    pub resilience: ResilienceReport,
}

/// The AUDIT framework bound to a measurement rig.
///
/// # Example
///
/// ```no_run
/// use audit_core::audit::{Audit, AuditOptions};
/// use audit_core::harness::Rig;
///
/// let audit = Audit::new(Rig::bulldozer(), AuditOptions::fast_demo());
/// let a_res = audit.generate_resonant(4);
/// assert!(a_res.best_droop > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Audit {
    rig: Rig,
    opts: AuditOptions,
}

impl Audit {
    /// Binds AUDIT to a rig.
    pub fn new(rig: Rig, opts: AuditOptions) -> Self {
        Audit { rig, opts }
    }

    /// The measurement rig in use.
    pub fn rig(&self) -> &Rig {
        &self.rig
    }

    /// The options in use.
    pub fn options(&self) -> &AuditOptions {
        &self.opts
    }

    /// The opcode menu offered to the GA: the full stress menu, minus
    /// FMA-class ops when the rig's chip lacks them (§5.C — AUDIT adapts
    /// to the processor automatically).
    pub fn opcode_menu(&self) -> Vec<Opcode> {
        Opcode::stress_menu()
            .into_iter()
            .filter(|op| self.rig.chip.supports_fma || !op.props().needs_fma)
            .collect()
    }

    /// Step 1: find the platform's resonant loop period (§3).
    pub fn find_resonance(&self, threads: usize) -> ResonanceResult {
        resonance::find_resonance(
            &self.rig,
            threads,
            self.opts.resonance_periods.iter().copied(),
            self.opts.eval_spec,
        )
    }

    /// Generates a first-droop *resonant* stressmark (A-Res family) for
    /// `threads` homogeneous threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or exceeds the rig's chip.
    pub fn generate_resonant(&self, threads: usize) -> StressmarkRun {
        self.generate_resonant_journaled(threads, &mut NullSink)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Audit::generate_resonant`], checkpointed to a run journal.
    ///
    /// Writes a `resonance` phase (payload: the full sweep) and then the
    /// GA section, one record per generation. Kill the process at any
    /// point and [`Audit::resume_resonant`] finishes the run with a
    /// bit-identical [`StressmarkRun`].
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] for a thread count the
    /// rig's chip cannot place or an unrunnable [`GaConfig`], and any
    /// sink I/O error.
    pub fn generate_resonant_journaled(
        &self,
        threads: usize,
        sink: &mut dyn JournalSink,
    ) -> Result<StressmarkRun, AuditError> {
        self.resume_resonant(&Journal::default(), threads, sink)
    }

    /// Resumes a run journaled by [`Audit::generate_resonant_journaled`],
    /// producing a [`StressmarkRun`] bit-identical to the uninterrupted
    /// run's.
    ///
    /// Completed phases are reused from the journal: a finished
    /// resonance sweep is decoded from its phase payload rather than
    /// re-swept, and journaled GA generations are replayed without
    /// re-simulation before evolution continues live. A kill *inside*
    /// the resonance phase re-runs the sweep (it is deterministic and
    /// cheap next to the GA); a kill inside the GA resumes
    /// generation-exact. New records are appended to `sink` — pass a
    /// [`crate::journal::JournalWriter`] reopened with
    /// [`crate::journal::JournalWriter::resume`] to continue the same
    /// file.
    ///
    /// # Errors
    ///
    /// Same as [`Audit::generate_resonant_journaled`], plus
    /// [`AuditError::Resume`] for a journal inconsistent with this
    /// configuration.
    pub fn resume_resonant(
        &self,
        journal: &Journal,
        threads: usize,
        sink: &mut dyn JournalSink,
    ) -> Result<StressmarkRun, AuditError> {
        self.generate(journal, threads, false, sink)
    }

    /// The journaled resonance phase: `phase_start`, the sweep,
    /// `phase_end` carrying the result. Public so external drivers
    /// (e.g. the `audit-net` distributed broker, which must run the
    /// resonance sweep locally before it can describe the fitness
    /// function to its workers) can reproduce exactly the phase
    /// structure [`Audit::generate_resonant_journaled`] writes.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] for a thread count the
    /// rig's chip cannot place ([`Rig::placement`]), and any sink I/O
    /// error.
    pub fn journaled_resonance(
        &self,
        threads: usize,
        sink: &mut dyn JournalSink,
    ) -> Result<ResonanceResult, AuditError> {
        self.rig.placement(threads)?;
        sink.append(&JournalRecord::PhaseStart {
            name: "resonance".into(),
        })?;
        let resonance = self.find_resonance(threads);
        sink.append(&JournalRecord::PhaseEnd {
            name: "resonance".into(),
            payload: resonance.to_json(),
        })?;
        Ok(resonance)
    }

    /// HP region ≈ half the resonant period, built from S sub-blocks of
    /// K cycles each (hierarchical generation, §3.C); the LP region
    /// absorbs the rounding so the whole loop stays on the detected
    /// period. Returns `(sub_blocks, lp_slots)`.
    fn resonant_shape(&self, period: u32) -> (usize, usize) {
        let k = self.opts.sub_block_cycles;
        let s = ((period as f64 / 2.0 / k as f64).round() as usize).max(1);
        let hp_cycles = s as u32 * k;
        let lp_cycles = period.saturating_sub(hp_cycles).max(k);
        let lp_slots = lp_cycles as usize * self.rig.chip.core.fetch_width as usize;
        (s, lp_slots)
    }

    /// Generates a first-droop *excitation* stressmark (A-Ex): one
    /// abrupt burst after a quiet region far longer than the resonant
    /// period, so bursts do not reinforce.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or exceeds the rig's chip.
    pub fn generate_excitation(&self, threads: usize) -> StressmarkRun {
        self.resume_excitation(&Journal::default(), threads, &mut NullSink)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Audit::generate_excitation`], checkpointed to `sink`, resuming
    /// the excitation run `journal` holds (a fresh run resumes an empty
    /// one). Same semantics as [`Audit::resume_resonant`]: completed
    /// phases are reused, a mid-GA kill resumes generation-exact, and
    /// the result is bit-identical to the uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Same as [`Audit::resume_resonant`].
    pub fn resume_excitation(
        &self,
        journal: &Journal,
        threads: usize,
        sink: &mut dyn JournalSink,
    ) -> Result<StressmarkRun, AuditError> {
        self.generate(journal, threads, true, sink)
    }

    /// Excitation loop shape: a burst of 4 sub-blocks (≈ 24 cycles at
    /// K = 6) after the configured quiet region. Returns
    /// `(sub_blocks, lp_slots)`.
    fn excitation_shape(&self) -> (usize, usize) {
        let lp_slots =
            self.opts.excitation_quiet_cycles as usize * self.rig.chip.core.fetch_width as usize;
        (4, lp_slots)
    }

    /// Every in-process generation path: resumes `journal` (a fresh run
    /// resumes an empty one), reusing its resonance phase if complete,
    /// then runs the GA phase on a local dispatcher.
    fn generate(
        &self,
        journal: &Journal,
        threads: usize,
        excitation: bool,
        sink: &mut dyn JournalSink,
    ) -> Result<StressmarkRun, AuditError> {
        let resonance = match journal.phase_payload("resonance") {
            Some(payload) => ResonanceResult::from_json(payload)?,
            None => self.journaled_resonance(threads, sink)?,
        };
        let (kind, fspec) = if excitation {
            ("Ex", self.excitation_fitness_spec(threads))
        } else {
            (
                "Res",
                self.resonant_fitness_spec(threads, resonance.period_cycles),
            )
        };
        let rig = &self.rig;
        let log = ResilienceLog::default();
        let workers = ga::resolve_workers(self.opts.ga.threads);
        // Safe to call from GA worker threads: `measure_aligned` builds
        // every piece of mutable simulator state (ChipSim, OsModel, PDN
        // transient) fresh inside the call, so concurrent evaluations
        // share only `&Rig` immutably. The resilience log is a plain
        // order-insensitive counter behind a mutex.
        let fitness = |genome: &[Gene]| {
            let (objs, delta) = fspec.evaluate_objectives(rig, genome);
            log.fold(&delta);
            objs
        };
        let mut dispatcher = ga::LocalDispatcher::new(fitness, workers);
        let ga_run = self.ga_phase(&fspec, excitation, &mut dispatcher, sink, Some(journal))?;
        let name = format!("A-{kind}-{threads}T");
        self.finish_run(&name, &fspec, resonance, ga_run, log.snapshot())
    }

    /// The GA phase evaluated through an explicit
    /// [`ga::EvalDispatcher`] — the distributed counterpart of the
    /// in-process path, driven by the `audit-net` broker. The
    /// dispatcher's workers must compute
    /// [`FitnessSpec::evaluate_objectives`] for this exact `fspec`
    /// (that is what the broker's setup handshake
    /// ships them); the engine's slot-ordered merge then makes the
    /// resulting [`StressmarkRun`], journal bytes, and cache state
    /// bit-identical to the in-process run for any worker count.
    ///
    /// `seed_miss_load` selects the excitation seeding (as in
    /// [`Audit::generate_excitation`]); `resume` replays the journal's
    /// GA section, if it has one, exactly as [`Audit::resume_resonant`]
    /// does.
    ///
    /// # Errors
    ///
    /// Same as [`Audit::generate_resonant_journaled`], plus any
    /// dispatch error.
    #[allow(clippy::too_many_arguments)] // mirrors the journaled path's knobs 1:1
    pub fn evolve_dispatched(
        &self,
        name: &str,
        fspec: &FitnessSpec,
        resonance: ResonanceResult,
        seed_miss_load: bool,
        dispatcher: &mut dyn ga::EvalDispatcher,
        sink: &mut dyn JournalSink,
        resume: Option<&Journal>,
    ) -> Result<StressmarkRun, AuditError> {
        let ga_run = self.ga_phase(fspec, seed_miss_load, dispatcher, sink, resume)?;
        let resilience = dispatcher.resilience();
        self.finish_run(name, fspec, resonance, ga_run, resilience)
    }

    /// The GA phase every generation path shares: checks that the chip
    /// can place `fspec.threads`, then resumes `resume`'s GA section if
    /// it has one — the journal's recorded config and seeds take
    /// precedence over `self.opts.ga`, so the finished run is
    /// bit-identical to the one that was killed — or starts a fresh
    /// search from [`Audit::ga_seeds`].
    fn ga_phase(
        &self,
        fspec: &FitnessSpec,
        seed_miss_load: bool,
        dispatcher: &mut dyn ga::EvalDispatcher,
        sink: &mut dyn JournalSink,
        resume: Option<&Journal>,
    ) -> Result<GaRun, AuditError> {
        self.rig.placement(fspec.threads)?;
        if let Some(journal) = resume.filter(|j| j.last_ga_section().is_some()) {
            return ga::resume(journal, dispatcher, sink);
        }
        let genome_len =
            self.opts.sub_block_cycles as usize * self.rig.chip.core.fetch_width as usize;
        let seeds = self.ga_seeds(genome_len, seed_miss_load);
        ga::run(
            &self.opts.ga,
            &self.opcode_menu(),
            genome_len,
            &seeds,
            dispatcher,
            sink,
        )
    }

    /// Builds the seed genomes every generation run starts from: the
    /// naive high-power pattern (the paper's "initial population …
    /// seeded with existing benchmarks or stressmarks to improve the
    /// convergence rate", §3) and, for excitation runs, the
    /// missing-load variant. Broker and
    /// in-process paths share this so their `ga_start` records are
    /// byte-identical.
    fn ga_seeds(&self, genome_len: usize, seed_miss_load: bool) -> Vec<Vec<Gene>> {
        let seed: Vec<Gene> = (0..genome_len)
            .map(|i| {
                let opcode = match i % 4 {
                    0 | 1 => {
                        if self.rig.chip.supports_fma {
                            Opcode::SimdFma
                        } else {
                            Opcode::SimdFMul
                        }
                    }
                    2 => Opcode::IAdd,
                    _ => Opcode::Nop,
                };
                Gene {
                    opcode,
                    dst: (i % 8) as u8,
                    src1: 12,
                    src2: 13,
                    miss: false,
                }
            })
            .collect();
        let mut seeds = vec![seed];
        if seed_miss_load {
            // Excitation hint: a memory-missing load drains the core
            // before the burst — a deeper quiet level than NOPs alone.
            let mut with_miss = seeds[0].clone();
            with_miss[genome_len - 1] = Gene {
                opcode: Opcode::Load,
                dst: 7,
                src1: 14,
                src2: 15,
                miss: true,
            };
            seeds.push(with_miss);
        }
        seeds
    }

    /// Packages a finished GA run: lowers the best genome to its named
    /// kernel, re-measures its droop on the reporting path, and attaches
    /// the resilience counters.
    fn finish_run(
        &self,
        name: &str,
        fspec: &FitnessSpec,
        resonance: ResonanceResult,
        ga_run: GaRun,
        resilience: ResilienceReport,
    ) -> Result<StressmarkRun, AuditError> {
        let kernel = Kernel::from_sub_blocks(
            name,
            &ga::genome::to_sub_block(&ga_run.best),
            fspec.sub_blocks,
            fspec.lp_slots,
        );
        let program = kernel.to_program();
        let best_droop = self
            .rig
            .measure_aligned(&vec![program.clone(); fspec.threads], fspec.spec)
            .max_droop();
        Ok(StressmarkRun {
            name: name.to_string(),
            kernel,
            program,
            best_fitness: ga_run.best_fitness,
            best_droop,
            resonance,
            ga: ga_run,
            threads: fspec.threads,
            resilience,
        })
    }

    /// The [`FitnessSpec`] a resonant (A-Res) run evaluates against,
    /// for a resonance sweep that detected `period` (see
    /// [`ResonanceResult::period_cycles`]). This is the description a
    /// distributed broker ships to its workers.
    pub fn resonant_fitness_spec(&self, threads: usize, period: u32) -> FitnessSpec {
        let (sub_blocks, lp_slots) = self.resonant_shape(period);
        self.fitness_spec(threads, sub_blocks, lp_slots)
    }

    /// The [`FitnessSpec`] an excitation (A-Ex) run evaluates against.
    pub fn excitation_fitness_spec(&self, threads: usize) -> FitnessSpec {
        let (sub_blocks, lp_slots) = self.excitation_shape();
        self.fitness_spec(threads, sub_blocks, lp_slots)
    }

    fn fitness_spec(&self, threads: usize, sub_blocks: usize, lp_slots: usize) -> FitnessSpec {
        FitnessSpec {
            threads,
            sub_blocks,
            lp_slots,
            cost: self.opts.cost,
            spec: self.opts.eval_spec,
            policy: self.opts.policy,
            objectives: self.opts.objectives,
        }
    }
}

/// Everything a fitness evaluator — in-process worker thread or remote
/// `audit work` process — needs to score one genome exactly as the GA
/// driver does: the loop shape the genome is lowered into, the thread
/// count, the measurement window, the objective axes, the cost
/// function, and the resilience policy (whose fault schedule is a pure
/// function of the genome's content key, so any evaluator draws
/// identical faults).
///
/// [`FitnessSpec::evaluate_objectives`] is *the* fitness function: the
/// in-process GA closure and the distributed worker both call it, which
/// is what makes the two paths bit-identical by construction. A scalar
/// fitness is its primary axis, [`Objectives::primary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitnessSpec {
    /// Homogeneous thread count the candidate runs with.
    pub threads: usize,
    /// HP-region sub-block replication factor (S, §3.C).
    pub sub_blocks: usize,
    /// LP-region slot count absorbing the period rounding.
    pub lp_slots: usize,
    /// Cost function scoring each measurement's droop axis.
    pub cost: CostFunction,
    /// Measurement window of each evaluation.
    pub spec: MeasureSpec,
    /// Resilience policy (fault plan, repeats, retries, quarantine).
    pub policy: MeasurePolicy,
    /// Objective axes computed per measurement, in canonical
    /// droop → power → margin order. The droop-only default reproduces
    /// the scalar fitness exactly.
    pub objectives: ObjectiveSet,
}

impl FitnessSpec {
    /// Computes the configured objective vector from one measurement.
    /// Axes, always in canonical droop → power → margin order:
    ///
    /// - **droop** — the configured cost function's score (the paper's
    ///   scalar fitness, so a droop-only set reproduces the scalar API
    ///   bit-for-bit);
    /// - **power** — mean supply power in watts: `mean_amps` × the
    ///   rail's nominal voltage;
    /// - **margin** — proximity to timing failure (paper §5.A.4):
    ///   `v_crit(max_path_seen) − (nominal − max_droop)`, the critical
    ///   voltage of the most sensitive path the workload exercised
    ///   minus the minimum die voltage it reached. Larger means closer
    ///   to (or past) failure — the SM2 insight that sensitive-path
    ///   pressure matters independently of raw droop.
    ///
    /// Every axis is a pure function of the measurement and rig, so the
    /// vector is as deterministic as the scalar score it generalizes.
    pub fn objectives_of(&self, rig: &Rig, m: &Measurement) -> Objectives {
        Objectives(
            self.objectives
                .iter()
                .map(|axis| match axis {
                    Objective::Droop => self.cost.score(m),
                    Objective::Power => m.mean_amps * rig.pdn.nominal_voltage(),
                    Objective::Margin => {
                        let v_min = rig.pdn.nominal_voltage() - m.max_droop();
                        rig.failure.v_crit(m.max_path_seen) - v_min
                    }
                })
                .collect(),
        )
    }

    /// The objective vector of a quarantined candidate: the fallback
    /// fitness splatted across every configured axis, so a quarantined
    /// genome is dominated on (or ties) every axis exactly as it loses
    /// every scalar comparison today.
    fn quarantined_objectives(&self) -> Objectives {
        Objectives(vec![self.policy.quarantine_fitness; self.objectives.len()])
    }

    /// Scores one genome on `rig`, returning the objective vector and
    /// the [`ResilienceReport`] delta this evaluation contributes (all
    /// zeros on the plain path, where the policy is a no-op).
    ///
    /// Deterministic per genome: simulator state is built fresh inside
    /// the call and the fault schedule is content-addressed, so the
    /// same genome scores bit-identically on any thread, process, or
    /// host.
    pub fn evaluate_objectives(
        &self,
        rig: &Rig,
        genome: &[Gene],
    ) -> (Objectives, ResilienceReport) {
        let kernel = Kernel::from_sub_blocks(
            "candidate",
            &ga::genome::to_sub_block(genome),
            self.sub_blocks,
            self.lp_slots,
        );
        let programs = vec![kernel.to_program(); self.threads];
        if self.policy.is_noop() {
            let objs = self.objectives_of(rig, &rig.measure_aligned(&programs, self.spec));
            (objs, ResilienceReport::default())
        } else {
            let offsets = vec![0; self.threads];
            let key = resilient::genome_key(genome);
            let outcome = self
                .policy
                .measure(rig, &programs, &offsets, self.spec, key);
            let delta = ResilienceReport::from_outcome(&outcome);
            let objs = match &outcome.measurement {
                Some(m) => self.objectives_of(rig, m),
                None => self.quarantined_objectives(),
            };
            (objs, delta)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Rig;

    #[test]
    fn resonant_generation_beats_nop_baseline() {
        let audit = Audit::new(Rig::bulldozer(), AuditOptions::fast_demo());
        let run = audit.generate_resonant(2);
        let nop_droop = audit
            .rig()
            .measure_aligned(
                &vec![audit_cpu::Program::nops(64); 2],
                AuditOptions::fast_demo().eval_spec,
            )
            .max_droop();
        assert!(
            run.best_droop > 3.0 * nop_droop,
            "GA droop {} vs NOP baseline {nop_droop}",
            run.best_droop
        );
        assert!(run.name.contains("A-Res"));
        assert!(!run.ga.history.is_empty());
    }

    #[test]
    fn menu_adapts_to_chip() {
        let bd = Audit::new(Rig::bulldozer(), AuditOptions::fast_demo());
        assert!(bd.opcode_menu().contains(&Opcode::SimdFma));
        let ph = Audit::new(Rig::phenom(), AuditOptions::fast_demo());
        assert!(!ph.opcode_menu().contains(&Opcode::SimdFma));
        assert!(ph.opcode_menu().contains(&Opcode::SimdFMul));
    }

    #[test]
    fn excitation_kernel_is_mostly_quiet() {
        let audit = Audit::new(Rig::bulldozer(), AuditOptions::fast_demo());
        let run = audit.generate_excitation(2);
        let p = &run.program;
        let nops = p.body().iter().filter(|i| i.opcode.is_nop()).count();
        assert!(nops * 2 > p.len(), "{} of {} are NOPs", nops, p.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let audit = Audit::new(Rig::bulldozer(), AuditOptions::fast_demo());
        let a = audit.generate_resonant(2);
        let b = audit.generate_resonant(2);
        assert_eq!(a.ga.best, b.ga.best);
        assert_eq!(a.best_droop, b.best_droop);
    }

    #[test]
    fn journaled_generation_matches_plain() {
        use crate::journal::MemJournal;
        let audit = Audit::new(Rig::bulldozer(), AuditOptions::fast_demo());
        let plain = audit.generate_resonant(2);
        let mut mem = MemJournal::default();
        let journaled = audit.generate_resonant_journaled(2, &mut mem).unwrap();
        assert_eq!(plain.ga, journaled.ga);
        assert_eq!(plain.best_droop, journaled.best_droop);
        assert_eq!(plain.program, journaled.program);
        // Journal shape: resonance phase, then one GA section.
        let journal = mem.as_journal();
        assert!(journal.phase_payload("resonance").is_some());
        assert!(journal.last_ga_section().is_some_and(|s| s.complete));
    }

    #[test]
    fn audit_killed_anywhere_resumes_bit_identically() {
        use crate::journal::MemJournal;
        let audit = Audit::new(Rig::bulldozer(), AuditOptions::fast_demo());
        let mut mem = MemJournal::default();
        let full = audit.generate_resonant_journaled(2, &mut mem).unwrap();

        // Cut after every record prefix: inside the resonance phase,
        // between phases, and after each GA generation.
        for cut in 0..mem.records.len() {
            let mut partial = MemJournal {
                records: mem.records[..cut].to_vec(),
            };
            let journal = partial.as_journal();
            let resumed = audit.resume_resonant(&journal, 2, &mut partial).unwrap();
            assert_eq!(full.ga, resumed.ga, "GA diverged when cut at record {cut}");
            assert_eq!(
                full.best_droop, resumed.best_droop,
                "droop diverged when cut at record {cut}"
            );
            assert_eq!(full.program, resumed.program);
            assert_eq!(full.name, resumed.name);
        }
    }

    #[test]
    fn resilient_path_without_faults_matches_plain_bit_identically() {
        // A non-noop policy (watchdog armed) routes every fitness
        // evaluation through the resilient path; with faults disabled
        // the GA must be bit-identical to the plain run — same winner,
        // same convergence curve, same simulation count.
        let plain = Audit::new(Rig::bulldozer(), AuditOptions::fast_demo()).generate_resonant(2);
        let policy = crate::resilient::MeasurePolicy {
            cycle_budget: Some(u64::MAX),
            ..crate::resilient::MeasurePolicy::disabled()
        };
        assert!(!policy.is_noop());
        let resilient = Audit::new(
            Rig::bulldozer(),
            AuditOptions::fast_demo().with_policy(policy),
        )
        .generate_resonant(2);
        assert_eq!(plain.ga, resilient.ga);
        assert_eq!(plain.ga.evaluations, resilient.ga.evaluations);
        assert_eq!(plain.ga.cache_hits, resilient.ga.cache_hits);
        assert_eq!(plain.best_droop.to_bits(), resilient.best_droop.to_bits());
        assert_eq!(plain.program, resilient.program);
        assert_eq!(resilient.resilience.retries, 0);
        assert_eq!(resilient.resilience.quarantined, 0);
        assert!(resilient.resilience.evaluations > 0);
        // The no-op default reports all-zero counters.
        assert_eq!(
            plain.resilience,
            crate::resilient::ResilienceReport::default()
        );
    }

    #[test]
    fn faulty_ga_is_identical_across_worker_counts() {
        use audit_measure::{FaultPlan, FaultRates};
        // Fault schedules are content-addressed per candidate, so a
        // noisy, hang-prone run must not depend on evaluation order.
        let policy = crate::resilient::MeasurePolicy {
            faults: FaultPlan::new(
                9,
                FaultRates {
                    noise_sigma: 0.002,
                    hang_rate: 0.05,
                    ..FaultRates::none()
                },
            )
            .unwrap(),
            repeat: 2,
            retries: 3,
            cycle_budget: Some(1 << 22),
            ..crate::resilient::MeasurePolicy::disabled()
        };
        let opts = AuditOptions::fast_demo().with_policy(policy);
        let one =
            Audit::new(Rig::bulldozer(), opts.clone().with_eval_threads(1)).generate_resonant(2);
        let three = Audit::new(Rig::bulldozer(), opts.with_eval_threads(3)).generate_resonant(2);
        assert_eq!(one.ga, three.ga);
        assert_eq!(one.best_droop.to_bits(), three.best_droop.to_bits());
        assert_eq!(one.resilience, three.resilience);
    }

    #[test]
    fn zero_threads_is_an_error_not_a_panic() {
        use crate::journal::MemJournal;
        let audit = Audit::new(Rig::bulldozer(), AuditOptions::fast_demo());
        let mut mem = MemJournal::default();
        let err = audit.generate_resonant_journaled(0, &mut mem).unwrap_err();
        assert!(err.to_string().contains("thread"), "{err}");
    }

    #[test]
    fn options_builder_accepts_valid_combinations() {
        let opts = AuditOptions {
            sub_block_cycles: 8,
            resonance_periods: (16..=48).step_by(8).collect(),
            excitation_quiet_cycles: 120,
            ..AuditOptions::fast_demo()
                .with_cost(CostFunction::DroopPerAmp)
                .with_seed(7)
        };
        opts.validate().unwrap();
        assert_eq!(opts.cost, CostFunction::DroopPerAmp);
        assert_eq!(opts.sub_block_cycles, 8);
        assert_eq!(opts.ga.seed, 7);
        // The presets themselves pass validation.
        AuditOptions::paper().validate().unwrap();
        AuditOptions::fast_demo().validate().unwrap();
    }

    #[test]
    fn options_builder_rejects_unrunnable_combinations() {
        let reject = |opts: AuditOptions| opts.validate().unwrap_err().to_string();
        let demo = AuditOptions::fast_demo;
        let err = reject(AuditOptions {
            resonance_periods: vec![],
            ..demo()
        });
        assert!(err.contains("resonance_periods"), "{err}");
        let err = reject(AuditOptions {
            resonance_periods: vec![16, 1],
            ..demo()
        });
        assert!(err.contains("at least 2 cycles"), "{err}");
        let err = reject(AuditOptions {
            sub_block_cycles: 0,
            ..demo()
        });
        assert!(err.contains("sub_block_cycles"), "{err}");
        let err = reject(AuditOptions {
            excitation_quiet_cycles: 0,
            ..demo()
        });
        assert!(err.contains("excitation_quiet_cycles"), "{err}");
        // Nested configs are checked too.
        let err = reject(AuditOptions {
            ga: GaConfig {
                population: 1,
                ..GaConfig::default()
            },
            ..demo()
        });
        assert!(err.contains("population"), "{err}");
        let err = reject(AuditOptions {
            eval_spec: MeasureSpec {
                record_cycles: 0,
                ..MeasureSpec::ga_eval()
            },
            ..demo()
        });
        assert!(err.contains("record_cycles"), "{err}");
    }
}
