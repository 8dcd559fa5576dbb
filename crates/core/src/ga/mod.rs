//! The genetic search at the heart of AUDIT (paper §3, Fig. 5).
//!
//! A candidate stressmark is a *genome*: the instruction slots of one
//! high-power sub-block (hierarchical generation, §3.C — the sub-block is
//! replicated `S` times to form the HP region, and the LP region is
//! NOPs). The engine evolves a population of genomes against a fitness
//! supplied by the measurement harness, with tournament selection,
//! single-point crossover, per-slot mutation, elitism, and the paper's
//! exit condition (no improvement for several generations).
//!
//! Fitness evaluation — the expensive chip + PDN co-simulation — runs
//! across worker threads with genome-level memoization, while staying
//! bit-identical to a sequential run; see [`engine`] for the
//! determinism contract.
//!
//! Every search takes one path: [`run`] starts it and [`resume`]
//! finishes a journaled one, each over an [`EvalDispatcher`] (where
//! fitness is computed) and a [`crate::journal::JournalSink`] (where
//! generations are checkpointed). [`evolve`] is the closure convenience.

pub mod cost;
pub mod engine;
pub mod genome;
pub mod pareto;
pub mod repair;
pub mod study;

pub use cost::CostFunction;
pub use engine::{
    evolve, resolve_workers, resume, run, stream_seed, EvalDispatcher, GaConfig, GaRun,
    GaTelemetry, LocalDispatcher,
};
pub use genome::{from_program, to_sub_block, Gene};
pub use pareto::{
    non_dominated_sort, rank_population, FrontMember, Objective, ObjectiveSet, Objectives,
    PopulationRanking,
};
pub use repair::{offending_slots, REPAIR_MAX_ATTEMPTS};
pub use study::{run_study, StudySummary};
