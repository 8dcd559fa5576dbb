//! Crash-safe run persistence: the NDJSON run journal.
//!
//! AUDIT searches are long closed loops (hours against real hardware in
//! the paper). The journal makes them restartable jobs: every generation
//! of the GA — population genomes, scores, the generation's RNG stream
//! seed, and evaluation counters — is appended as one JSON line, and
//! multi-phase drivers ([`crate::audit::Audit`], [`crate::ga::study`])
//! bracket their phases with `phase_start`/`phase_end` records. A killed
//! run resumes from its journal and produces a **bit-identical** final
//! result (see `docs/RUN_JOURNAL.md` and the determinism contract in
//! [`crate::ga::engine`]).
//!
//! # Atomicity
//!
//! [`JournalWriter`] appends each record as one line through
//! [`audit_measure::traceio::AppendLog`]: one write, then one
//! `fdatasync`, before [`JournalSink::append`] returns. A failed write
//! is cut back off the file, so the journal never keeps a partial line
//! after an error. A kill mid-append can leave at most a torn final
//! line. [`JournalWriter::resume`] cuts it off before appending again,
//! and [`audit_measure::traceio::JournalReader`] drops it, with the same
//! rule `audit journal fsck` classifies it by. Only `run_start` is staged
//! in `<path>.ndjson.tmp` and renamed into place, so a failed
//! [`JournalWriter::create`] leaves an existing file at the path as it was.
//!
//! # Record kinds (schema v1)
//!
//! | kind          | written by        | payload                            |
//! |---------------|-------------------|------------------------------------|
//! | `run_start`   | [`JournalWriter`] | `schema`, `mode`, free-form `meta` |
//! | `phase_start` | drivers           | phase `name`                       |
//! | `phase_end`   | drivers           | phase `name`, free-form `payload`  |
//! | `ga_start`    | GA engine         | full [`GaConfig`], menu, seeds     |
//! | `cascade`     | GA engine         | marker: tiered cascade `budget`    |
//! | `pareto_front` | GA engine        | per-generation objective vectors + front ranks |
//! | `generation`  | GA engine         | population, scores, stream seed    |
//! | `ga_end`      | GA engine         | —                                  |
//! | `vmin_step`   | Vmin search       | `step`, `voltage`, `attempt`, `outcome` |
//! | `retry`       | Vmin search       | `step`, `attempt`, `reason`, `backoff_cycles` |
//! | `quarantine`  | Vmin search       | `step`, `attempts`, `fallback`     |
//! | `shmoo_point` | DVFS shmoo sweep  | `index`, `volts`, `clock_hz`, `outcome` (+ results when `done`) |
//! | `worker_evicted` | net broker WAL | `worker`, `key`, `quarantined`     |
//! | `run_end`     | [`JournalWriter`] | —                                  |
//!
//! The three resilience kinds (`vmin_step`, `retry`, `quarantine`) are
//! additive to schema v1: journals written before they existed decode
//! unchanged, and the crash-tolerant Vmin search
//! ([`crate::resilient::VminSearch`]) journals each probed voltage as a
//! pending `vmin_step` *before* running it, so a crash mid-probe is
//! visible on resume.
//!
//! The multi-objective kinds (`pareto_front`, `shmoo_point`) are
//! additive in the same way. A Pareto GA run
//! ([`crate::ga::GaConfig::pareto`]) writes each generation's
//! `pareto_front` record immediately *before* its `generation` record,
//! so a crash between the two leaves an orphan front that resume simply
//! ignores; scalar runs write neither and keep their byte encoding. The
//! DVFS shmoo driver ([`crate::shmoo`]) brackets each operating point
//! with a pending `shmoo_point` before its Vmin search and a `done`
//! record after, inheriting `vmin_step` crash tolerance mid-point.
//!
//! `worker_evicted` is additive the same way, and is a *dispatch-WAL*
//! kind: the distributed broker (`audit-net`) appends it to its
//! write-ahead log when cross-validation catches a worker returning
//! wrong results — never to the checkpoint journal, so chaos-era runs
//! keep journal bytes identical to in-process runs. It is defined here
//! so the schema fixture pins its encoding and `audit journal fsck`
//! counts it like any other kind.
//!
//! Two GA knobs are retired. `surrogate_rank` only reordered dispatch,
//! so `ga_start` still writes it as `false` and journals that set it to
//! either value replay unchanged. `surrogate_budget` changed which
//! candidates were measured, so a journal carrying it (a `cfg` field or
//! a `surrogate_budget` marker record) fails to decode with
//! [`AuditError::Resume`] naming the knob instead of replaying
//! different results (`docs/RUN_JOURNAL.md`, "Retired knobs").

use std::fs;
use std::io::Write as _;
use std::path::Path;

use audit_cpu::Opcode;
use audit_error::AuditError;
use audit_measure::json::JsonValue;
use audit_measure::traceio::{AppendLog, JournalReader};

use crate::ga::{GaConfig, Gene, Objectives};

/// Journal schema version this build writes and reads.
pub const SCHEMA_VERSION: u32 = 1;

/// One complete generation as recorded in the journal.
///
/// `index` 0 is the initial population. `stream_seed` is the seed of the
/// per-generation RNG stream that *bred* this population (see
/// [`crate::ga::engine::stream_seed`]); it is recorded for offline
/// reproducibility checks — resume re-derives it from the config.
///
/// Equality ignores `wall_s`: like [`crate::ga::GaRun`]'s telemetry,
/// wall time legitimately differs between an original and a resumed run
/// that are otherwise bit-identical.
#[derive(Debug, Clone)]
pub struct GenerationRecord {
    /// Generation index (0 = initial population).
    pub index: usize,
    /// Seed of the RNG stream that produced this population.
    pub stream_seed: u64,
    /// Every genome of the generation, in slot order.
    pub population: Vec<Vec<Gene>>,
    /// Fitness of each genome, by slot.
    pub scores: Vec<f64>,
    /// Simulations actually executed this generation.
    pub executed: u64,
    /// Fitness lookups served by memoization this generation.
    pub cache_hits: u64,
    /// Wall-clock seconds spent evaluating (informational only; ignored
    /// by resume equality).
    pub wall_s: f64,
    /// Static-analyzer summary of this population (see
    /// [`GenerationAnalysis`]). Informational only, like `wall_s`:
    /// ignored by resume equality, and `None` when reading journals
    /// written before the analyzer existed.
    pub analysis: Option<GenerationAnalysis>,
}

/// Static-analysis summary riding in each generation record: the
/// static swing scores (`audit_analyze::swing_score` under the
/// generic machine model) of the generation's population. Lets offline
/// tooling see how static droop potential evolved without re-lowering
/// the journaled genomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationAnalysis {
    /// Highest static current-swing score in the population.
    pub best_swing: f64,
    /// Mean static current-swing score across the population.
    pub mean_swing: f64,
}

impl PartialEq for GenerationRecord {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && self.stream_seed == other.stream_seed
            && self.population == other.population
            && self.scores == other.scores
            && self.executed == other.executed
            && self.cache_hits == other.cache_hits
    }
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// First record of every file journal: schema version, run mode
    /// (`"ga"`, `"study"`, `"audit"`), and free-form driver metadata.
    RunStart {
        /// Schema version the journal was written with.
        schema: u32,
        /// What kind of run this journal records.
        mode: String,
        /// Driver-defined metadata (e.g. the CLI's chip/options snapshot).
        meta: JsonValue,
    },
    /// A multi-phase driver entered a named phase.
    PhaseStart {
        /// Phase name (e.g. `"resonance"`, `"seed-42"`).
        name: String,
    },
    /// A phase completed, with its result payload.
    PhaseEnd {
        /// Phase name, matching the `PhaseStart`.
        name: String,
        /// Driver-defined result (e.g. the detected resonance).
        payload: JsonValue,
    },
    /// The GA engine began a search; everything needed to resume it.
    GaStart {
        /// Full engine configuration.
        cfg: GaConfig,
        /// Genome length in slots.
        genome_len: usize,
        /// The opcode menu, by stable opcode name.
        menu: Vec<Opcode>,
        /// Seed genomes injected into the initial population.
        seeds: Vec<Vec<Gene>>,
    },
    /// Marker: the search runs the tiered evaluation cascade
    /// ([`crate::ga::GaConfig::fast_tier_budget`]) — the fast tier-1
    /// scoreboard model (`audit_cpu::tier`) ranks each generation's
    /// cache misses and only the top `budget` reach the full simulator;
    /// the rest score `-inf`. Written once, right after `ga_start`,
    /// whose `cfg` is the authoritative copy of the budget; this record
    /// exists to make the non-default scoring mode greppable.
    Cascade {
        /// Per-generation full-simulation budget (top-k by fast-tier
        /// swing estimate).
        budget: u64,
    },
    /// Lint-driven mutation repair telemetry
    /// ([`crate::ga::GaConfig::lint_repair`]): how many slot re-rolls
    /// the repair pass performed while settling one generation's
    /// population. Written immediately *before* the matching
    /// `generation` record (index 0 covers the initial population),
    /// and only when repair is enabled — journals of unrepaired runs
    /// keep their exact prior byte encoding. Resume skips it like the
    /// other GA markers.
    Repair {
        /// Generation index, matching the `generation` record that
        /// follows.
        index: usize,
        /// Slot re-rolls performed across the whole population.
        rerolls: u64,
    },
    /// One generation's full objective vectors and Pareto front ranks,
    /// written by a multi-objective run
    /// ([`crate::ga::GaConfig::pareto`]) immediately *before* the
    /// matching `generation` record. The generation's `scores` carry
    /// only the primary axis; this record is what lets resume rebuild
    /// the memo cache and re-rank the last population with full
    /// vectors. A crash between the two records leaves an orphan front,
    /// which resume ignores.
    ParetoFront(ParetoFrontRecord),
    /// One evaluated generation.
    Generation(GenerationRecord),
    /// The GA search completed (converged or hit its caps).
    GaEnd,
    /// One probed voltage of a crash-tolerant Vmin search
    /// ([`crate::resilient::VminSearch`]). A pending record is appended
    /// *before* the probe runs; the terminal record (`passed`/`failed`)
    /// after. A crash leaves the pending (or `crashed`) record as the
    /// journal tail, which resume re-probes.
    VminStep {
        /// Probe index within the search (0-based, in probe order).
        step: u64,
        /// Supply voltage probed at this step, in volts.
        voltage: f64,
        /// Retry attempt within the step (0 = first try).
        attempt: u32,
        /// What happened (see [`VminOutcome`]).
        outcome: VminOutcome,
    },
    /// A resilient evaluation attempt hit a transient fault and was
    /// retried.
    Retry {
        /// Evaluation identifier: the Vmin step index.
        step: u64,
        /// The attempt that failed (0 = first try).
        attempt: u32,
        /// Fault class that triggered the retry (`"timeout"` or
        /// `"crash"`).
        reason: String,
        /// Deterministic backoff charged before the next attempt, in
        /// cycles (bookkeeping — the simulator does not sleep).
        backoff_cycles: u64,
    },
    /// An evaluation exhausted its retry budget and was quarantined
    /// with a journaled fallback fitness.
    Quarantine {
        /// Evaluation identifier: the Vmin step index.
        step: u64,
        /// Total attempts consumed (`retries + 1`).
        attempts: u32,
        /// The fallback fitness assigned to the quarantined candidate.
        fallback: f64,
    },
    /// One operating point of a DVFS shmoo sweep ([`crate::shmoo`]).
    /// A `pending` record is appended *before* the point's Vmin search
    /// begins; the `done` record (carrying the results) after it
    /// settles. A killed sweep therefore resumes mid-plane: done points
    /// are replayed without re-measuring, and an in-progress point
    /// resumes its own `vmin_step` trail.
    ShmooPoint {
        /// Sweep index of the point (0-based, row-major over the grid).
        index: u64,
        /// Nominal supply voltage of the operating point, in volts.
        volts: f64,
        /// Core clock of the operating point, in Hz.
        clock_hz: f64,
        /// `None` while pending; the measured results once done.
        result: Option<ShmooPointResult>,
    },
    /// One delta-debugging probe of a witness minimization
    /// ([`crate::minimize::MinimizeSearch`]). A `pending` record is
    /// appended *before* the candidate subset is simulated; the
    /// terminal record (`passed` when the subset retains enough droop,
    /// `failed` otherwise, carrying the measured droop) after — the
    /// same write-ahead discipline as `vmin_step`, so a killed
    /// minimization resumes by replaying settled probes.
    MinimizeStep {
        /// Probe index within the minimization (0-based, in `ddmin`
        /// probe order).
        step: u64,
        /// Number of loop-body instructions in the candidate subset.
        kept: u64,
        /// Content key of the kept index set; resume cross-checks it
        /// against the subset the replayed `ddmin` derives at this
        /// step.
        key: u64,
        /// `pending`, then `passed`/`failed` (shares [`VminOutcome`]'s
        /// tags; `crashed` is unused here).
        outcome: VminOutcome,
        /// Peak droop the candidate measured, in volts (terminal
        /// records only).
        droop: Option<f64>,
    },
    /// A distributed broker evicted a worker whose result lost a
    /// cross-validation vote (byzantine defense; see
    /// `audit-net`'s broker). Written to the broker's dispatch WAL —
    /// not the checkpoint journal — purely as telemetry: resume skips
    /// it, and re-dispatch of the worker's in-flight jobs is what
    /// restores correctness.
    WorkerEvicted {
        /// Broker-local id of the evicted worker connection.
        worker: u64,
        /// Content key of the job whose vote exposed the worker.
        key: u64,
        /// How many of the worker's in-flight jobs were pulled back
        /// for re-dispatch alongside the eviction.
        quarantined: u64,
    },
    /// The run completed; nothing to resume.
    RunEnd,
}

/// Per-generation Pareto payload of a multi-objective GA run (see
/// [`JournalRecord::ParetoFront`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFrontRecord {
    /// Generation index, matching the `generation` record that follows.
    pub index: usize,
    /// Every slot's objective vector, in slot order and canonical axis
    /// order. Budget-deferred slots carry the 1-axis `-inf` sentinel.
    pub objectives: Vec<Objectives>,
    /// Every slot's non-dominated front rank (0 = the Pareto front).
    pub ranks: Vec<u64>,
}

/// Settled results of one [`JournalRecord::ShmooPoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShmooPointResult {
    /// Highest voltage at which the point's workload malfunctioned.
    pub v_fail: f64,
    /// Safe margin: nominal voltage minus `v_fail`.
    pub margin: f64,
    /// Vmin probe steps the point's search settled (replayed + live).
    pub steps: u64,
}

/// Outcome tag of a [`JournalRecord::VminStep`] record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VminOutcome {
    /// The probe was about to run when this record was written.
    Pending,
    /// The machine survived the probe voltage (terminal).
    Passed,
    /// The machine malfunctioned at the probe voltage (terminal).
    Failed,
    /// An injected crash killed the machine mid-probe; the step retries
    /// (non-terminal).
    Crashed,
}

impl VminOutcome {
    /// The stable journal tag.
    pub fn as_str(self) -> &'static str {
        match self {
            VminOutcome::Pending => "pending",
            VminOutcome::Passed => "passed",
            VminOutcome::Failed => "failed",
            VminOutcome::Crashed => "crashed",
        }
    }

    /// Parses a journal tag.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pending" => Some(VminOutcome::Pending),
            "passed" => Some(VminOutcome::Passed),
            "failed" => Some(VminOutcome::Failed),
            "crashed" => Some(VminOutcome::Crashed),
            _ => None,
        }
    }

    /// True for the outcomes that settle a step (`passed`/`failed`);
    /// pending and crashed steps are re-probed on resume.
    pub fn is_terminal(self) -> bool {
        matches!(self, VminOutcome::Passed | VminOutcome::Failed)
    }
}

impl JournalRecord {
    /// The record's `kind` tag as written to the journal.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalRecord::RunStart { .. } => "run_start",
            JournalRecord::PhaseStart { .. } => "phase_start",
            JournalRecord::PhaseEnd { .. } => "phase_end",
            JournalRecord::GaStart { .. } => "ga_start",
            JournalRecord::Cascade { .. } => "cascade",
            JournalRecord::Repair { .. } => "repair",
            JournalRecord::ParetoFront(_) => "pareto_front",
            JournalRecord::Generation(_) => "generation",
            JournalRecord::GaEnd => "ga_end",
            JournalRecord::VminStep { .. } => "vmin_step",
            JournalRecord::Retry { .. } => "retry",
            JournalRecord::Quarantine { .. } => "quarantine",
            JournalRecord::ShmooPoint { .. } => "shmoo_point",
            JournalRecord::MinimizeStep { .. } => "minimize_step",
            JournalRecord::WorkerEvicted { .. } => "worker_evicted",
            JournalRecord::RunEnd => "run_end",
        }
    }

    /// Encodes the record to its JSON object.
    pub fn to_json(&self) -> JsonValue {
        match self {
            JournalRecord::RunStart { schema, mode, meta } => JsonValue::object(vec![
                ("kind", JsonValue::String("run_start".into())),
                ("schema", JsonValue::from_u64(u64::from(*schema))),
                ("mode", JsonValue::String(mode.clone())),
                ("meta", meta.clone()),
            ]),
            JournalRecord::PhaseStart { name } => JsonValue::object(vec![
                ("kind", JsonValue::String("phase_start".into())),
                ("name", JsonValue::String(name.clone())),
            ]),
            JournalRecord::PhaseEnd { name, payload } => JsonValue::object(vec![
                ("kind", JsonValue::String("phase_end".into())),
                ("name", JsonValue::String(name.clone())),
                ("payload", payload.clone()),
            ]),
            JournalRecord::GaStart {
                cfg,
                genome_len,
                menu,
                seeds,
            } => JsonValue::object(vec![
                ("kind", JsonValue::String("ga_start".into())),
                ("cfg", encode_cfg(cfg)),
                ("genome_len", JsonValue::from_u64(*genome_len as u64)),
                (
                    "menu",
                    JsonValue::Array(
                        menu.iter()
                            .map(|op| JsonValue::String(op.name().into()))
                            .collect(),
                    ),
                ),
                (
                    "seeds",
                    JsonValue::Array(seeds.iter().map(|g| encode_genome(g)).collect()),
                ),
            ]),
            JournalRecord::Cascade { budget } => JsonValue::object(vec![
                ("kind", JsonValue::String("cascade".into())),
                ("budget", JsonValue::from_u64(*budget)),
            ]),
            JournalRecord::Repair { index, rerolls } => JsonValue::object(vec![
                ("kind", JsonValue::String("repair".into())),
                ("index", JsonValue::from_u64(*index as u64)),
                ("rerolls", JsonValue::from_u64(*rerolls)),
            ]),
            JournalRecord::ParetoFront(r) => JsonValue::object(vec![
                ("kind", JsonValue::String("pareto_front".into())),
                ("index", JsonValue::from_u64(r.index as u64)),
                (
                    "objectives",
                    JsonValue::Array(
                        r.objectives
                            .iter()
                            .map(|o| {
                                JsonValue::Array(
                                    o.0.iter().map(|&x| JsonValue::from_f64(x)).collect(),
                                )
                            })
                            .collect(),
                    ),
                ),
                (
                    "ranks",
                    JsonValue::Array(r.ranks.iter().map(|&r| JsonValue::from_u64(r)).collect()),
                ),
            ]),
            JournalRecord::Generation(r) => {
                let mut fields = vec![
                    ("kind", JsonValue::String("generation".into())),
                    ("index", JsonValue::from_u64(r.index as u64)),
                    ("stream_seed", encode_u64(r.stream_seed)),
                    (
                        "population",
                        JsonValue::Array(r.population.iter().map(|g| encode_genome(g)).collect()),
                    ),
                    (
                        "scores",
                        JsonValue::Array(
                            r.scores.iter().map(|&s| JsonValue::from_f64(s)).collect(),
                        ),
                    ),
                    ("executed", JsonValue::from_u64(r.executed)),
                    ("cache_hits", JsonValue::from_u64(r.cache_hits)),
                    ("wall_s", JsonValue::from_f64(r.wall_s)),
                ];
                if let Some(a) = &r.analysis {
                    fields.push((
                        "analysis",
                        JsonValue::object(vec![
                            ("best_swing", JsonValue::from_f64(a.best_swing)),
                            ("mean_swing", JsonValue::from_f64(a.mean_swing)),
                        ]),
                    ));
                }
                JsonValue::object(fields)
            }
            JournalRecord::GaEnd => {
                JsonValue::object(vec![("kind", JsonValue::String("ga_end".into()))])
            }
            JournalRecord::VminStep {
                step,
                voltage,
                attempt,
                outcome,
            } => JsonValue::object(vec![
                ("kind", JsonValue::String("vmin_step".into())),
                ("step", JsonValue::from_u64(*step)),
                ("voltage", JsonValue::from_f64(*voltage)),
                ("attempt", JsonValue::from_u64(u64::from(*attempt))),
                ("outcome", JsonValue::String(outcome.as_str().into())),
            ]),
            JournalRecord::Retry {
                step,
                attempt,
                reason,
                backoff_cycles,
            } => JsonValue::object(vec![
                ("kind", JsonValue::String("retry".into())),
                ("step", JsonValue::from_u64(*step)),
                ("attempt", JsonValue::from_u64(u64::from(*attempt))),
                ("reason", JsonValue::String(reason.clone())),
                ("backoff_cycles", encode_u64(*backoff_cycles)),
            ]),
            JournalRecord::Quarantine {
                step,
                attempts,
                fallback,
            } => JsonValue::object(vec![
                ("kind", JsonValue::String("quarantine".into())),
                ("step", JsonValue::from_u64(*step)),
                ("attempts", JsonValue::from_u64(u64::from(*attempts))),
                ("fallback", JsonValue::from_f64(*fallback)),
            ]),
            JournalRecord::ShmooPoint {
                index,
                volts,
                clock_hz,
                result,
            } => {
                let mut fields = vec![
                    ("kind", JsonValue::String("shmoo_point".into())),
                    ("index", JsonValue::from_u64(*index)),
                    ("volts", JsonValue::from_f64(*volts)),
                    ("clock_hz", JsonValue::from_f64(*clock_hz)),
                    (
                        "outcome",
                        JsonValue::String(
                            if result.is_some() { "done" } else { "pending" }.into(),
                        ),
                    ),
                ];
                if let Some(r) = result {
                    fields.push(("v_fail", JsonValue::from_f64(r.v_fail)));
                    fields.push(("margin", JsonValue::from_f64(r.margin)));
                    fields.push(("steps", JsonValue::from_u64(r.steps)));
                }
                JsonValue::object(fields)
            }
            JournalRecord::MinimizeStep {
                step,
                kept,
                key,
                outcome,
                droop,
            } => {
                let mut fields = vec![
                    ("kind", JsonValue::String("minimize_step".into())),
                    ("step", JsonValue::from_u64(*step)),
                    ("kept", JsonValue::from_u64(*kept)),
                    ("key", encode_u64(*key)),
                    ("outcome", JsonValue::String(outcome.as_str().into())),
                ];
                if let Some(d) = droop {
                    fields.push(("droop", JsonValue::from_f64(*d)));
                }
                JsonValue::object(fields)
            }
            JournalRecord::WorkerEvicted {
                worker,
                key,
                quarantined,
            } => JsonValue::object(vec![
                ("kind", JsonValue::String("worker_evicted".into())),
                ("worker", JsonValue::from_u64(*worker)),
                ("key", encode_u64(*key)),
                ("quarantined", JsonValue::from_u64(*quarantined)),
            ]),
            JournalRecord::RunEnd => {
                JsonValue::object(vec![("kind", JsonValue::String("run_end".into()))])
            }
        }
    }

    /// Decodes a record from its JSON object.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Journal`] (with `line` 0 — callers add the
    /// line number) if the object is missing fields or malformed,
    /// [`AuditError::Schema`] for a `run_start` from an incompatible
    /// schema version, and [`AuditError::Resume`] for a record that uses
    /// a retired knob (see the module docs).
    pub fn from_json(v: &JsonValue) -> Result<JournalRecord, AuditError> {
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| AuditError::journal(0, "record has no string `kind`"))?;
        match kind {
            "run_start" => {
                let schema = field_u64(v, "run_start", "schema")? as u32;
                if schema != SCHEMA_VERSION {
                    return Err(AuditError::Schema {
                        found: schema,
                        supported: SCHEMA_VERSION,
                    });
                }
                Ok(JournalRecord::RunStart {
                    schema,
                    mode: field_str(v, "run_start", "mode")?.to_string(),
                    meta: v.get("meta").cloned().unwrap_or(JsonValue::Null),
                })
            }
            "phase_start" => Ok(JournalRecord::PhaseStart {
                name: field_str(v, "phase_start", "name")?.to_string(),
            }),
            "phase_end" => Ok(JournalRecord::PhaseEnd {
                name: field_str(v, "phase_end", "name")?.to_string(),
                payload: v.get("payload").cloned().unwrap_or(JsonValue::Null),
            }),
            "ga_start" => {
                let cfg = decode_cfg(
                    v.get("cfg")
                        .ok_or_else(|| AuditError::journal(0, "ga_start has no `cfg`"))?,
                )?;
                let genome_len = field_u64(v, "ga_start", "genome_len")? as usize;
                let menu = v
                    .get("menu")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| AuditError::journal(0, "ga_start has no `menu` array"))?
                    .iter()
                    .map(|item| {
                        let name = item
                            .as_str()
                            .ok_or_else(|| AuditError::journal(0, "menu entry is not a string"))?;
                        Opcode::from_name(name).ok_or_else(|| {
                            AuditError::journal(0, format!("unknown opcode `{name}` in menu"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let seeds = v
                    .get("seeds")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| AuditError::journal(0, "ga_start has no `seeds` array"))?
                    .iter()
                    .map(decode_genome)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(JournalRecord::GaStart {
                    cfg,
                    genome_len,
                    menu,
                    seeds,
                })
            }
            "surrogate_budget" => Err(retired_knob("surrogate_budget")),
            "cascade" => Ok(JournalRecord::Cascade {
                budget: field_u64(v, "cascade", "budget")?,
            }),
            "repair" => Ok(JournalRecord::Repair {
                index: field_u64(v, "repair", "index")? as usize,
                rerolls: field_u64(v, "repair", "rerolls")?,
            }),
            "pareto_front" => {
                let objectives = v
                    .get("objectives")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| AuditError::journal(0, "pareto_front has no `objectives`"))?
                    .iter()
                    .map(|slot| {
                        slot.as_array()
                            .ok_or_else(|| {
                                AuditError::journal(0, "objective vector is not an array")
                            })?
                            .iter()
                            .map(|x| {
                                x.as_f64().ok_or_else(|| {
                                    AuditError::journal(0, "objective is not a number")
                                })
                            })
                            .collect::<Result<Vec<_>, _>>()
                            .map(Objectives)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let ranks = v
                    .get("ranks")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| AuditError::journal(0, "pareto_front has no `ranks`"))?
                    .iter()
                    .map(|r| {
                        r.as_u64()
                            .ok_or_else(|| AuditError::journal(0, "rank is not an integer"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if objectives.len() != ranks.len() {
                    return Err(AuditError::journal(
                        0,
                        format!(
                            "pareto_front has {} objective vectors but {} ranks",
                            objectives.len(),
                            ranks.len()
                        ),
                    ));
                }
                Ok(JournalRecord::ParetoFront(ParetoFrontRecord {
                    index: field_u64(v, "pareto_front", "index")? as usize,
                    objectives,
                    ranks,
                }))
            }
            "generation" => {
                let population = v
                    .get("population")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| AuditError::journal(0, "generation has no `population`"))?
                    .iter()
                    .map(decode_genome)
                    .collect::<Result<Vec<_>, _>>()?;
                let scores = v
                    .get("scores")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| AuditError::journal(0, "generation has no `scores`"))?
                    .iter()
                    .map(|s| {
                        s.as_f64()
                            .ok_or_else(|| AuditError::journal(0, "score is not a number"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if population.len() != scores.len() {
                    return Err(AuditError::journal(
                        0,
                        format!(
                            "generation has {} genomes but {} scores",
                            population.len(),
                            scores.len()
                        ),
                    ));
                }
                Ok(JournalRecord::Generation(GenerationRecord {
                    index: field_u64(v, "generation", "index")? as usize,
                    stream_seed: decode_u64(
                        v.get("stream_seed")
                            .ok_or_else(|| AuditError::journal(0, "generation has no `stream_seed`"))?,
                    )?,
                    population,
                    scores,
                    executed: field_u64(v, "generation", "executed")?,
                    cache_hits: field_u64(v, "generation", "cache_hits")?,
                    wall_s: v
                        .get("wall_s")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0),
                    // Absent in journals written before the analyzer.
                    analysis: v.get("analysis").and_then(|a| {
                        Some(GenerationAnalysis {
                            best_swing: a.get("best_swing").and_then(JsonValue::as_f64)?,
                            mean_swing: a.get("mean_swing").and_then(JsonValue::as_f64)?,
                        })
                    }),
                }))
            }
            "ga_end" => Ok(JournalRecord::GaEnd),
            "vmin_step" => {
                let tag = field_str(v, "vmin_step", "outcome")?;
                let outcome = VminOutcome::parse(tag).ok_or_else(|| {
                    AuditError::journal(0, format!("unknown vmin_step outcome `{tag}`"))
                })?;
                let voltage = v
                    .get("voltage")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| AuditError::journal(0, "vmin_step has no number `voltage`"))?;
                Ok(JournalRecord::VminStep {
                    step: field_u64(v, "vmin_step", "step")?,
                    voltage,
                    attempt: field_u64(v, "vmin_step", "attempt")? as u32,
                    outcome,
                })
            }
            "retry" => Ok(JournalRecord::Retry {
                step: field_u64(v, "retry", "step")?,
                attempt: field_u64(v, "retry", "attempt")? as u32,
                reason: field_str(v, "retry", "reason")?.to_string(),
                backoff_cycles: decode_u64(
                    v.get("backoff_cycles")
                        .ok_or_else(|| AuditError::journal(0, "retry has no `backoff_cycles`"))?,
                )?,
            }),
            "quarantine" => {
                let fallback = v
                    .get("fallback")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| AuditError::journal(0, "quarantine has no number `fallback`"))?;
                Ok(JournalRecord::Quarantine {
                    step: field_u64(v, "quarantine", "step")?,
                    attempts: field_u64(v, "quarantine", "attempts")? as u32,
                    fallback,
                })
            }
            "shmoo_point" => {
                let number = |field: &str| {
                    v.get(field).and_then(JsonValue::as_f64).ok_or_else(|| {
                        AuditError::journal(0, format!("shmoo_point has no number `{field}`"))
                    })
                };
                let result = match field_str(v, "shmoo_point", "outcome")? {
                    "pending" => None,
                    "done" => Some(ShmooPointResult {
                        v_fail: number("v_fail")?,
                        margin: number("margin")?,
                        steps: field_u64(v, "shmoo_point", "steps")?,
                    }),
                    other => {
                        return Err(AuditError::journal(
                            0,
                            format!("unknown shmoo_point outcome `{other}`"),
                        ))
                    }
                };
                Ok(JournalRecord::ShmooPoint {
                    index: field_u64(v, "shmoo_point", "index")?,
                    volts: number("volts")?,
                    clock_hz: number("clock_hz")?,
                    result,
                })
            }
            "minimize_step" => {
                let tag = field_str(v, "minimize_step", "outcome")?;
                let outcome = VminOutcome::parse(tag).ok_or_else(|| {
                    AuditError::journal(0, format!("unknown minimize_step outcome `{tag}`"))
                })?;
                let droop = v.get("droop").and_then(JsonValue::as_f64);
                if outcome.is_terminal() && droop.is_none() {
                    return Err(AuditError::journal(
                        0,
                        "terminal minimize_step has no number `droop`",
                    ));
                }
                Ok(JournalRecord::MinimizeStep {
                    step: field_u64(v, "minimize_step", "step")?,
                    kept: field_u64(v, "minimize_step", "kept")?,
                    key: decode_u64(
                        v.get("key")
                            .ok_or_else(|| AuditError::journal(0, "minimize_step has no `key`"))?,
                    )?,
                    outcome,
                    droop,
                })
            }
            "worker_evicted" => Ok(JournalRecord::WorkerEvicted {
                worker: field_u64(v, "worker_evicted", "worker")?,
                key: decode_u64(
                    v.get("key")
                        .ok_or_else(|| AuditError::journal(0, "worker_evicted has no `key`"))?,
                )?,
                quarantined: field_u64(v, "worker_evicted", "quarantined")?,
            }),
            "run_end" => Ok(JournalRecord::RunEnd),
            other => Err(AuditError::journal(0, format!("unknown kind `{other}`"))),
        }
    }
}

/// Encodes a `u64` exactly: as a JSON number when it fits in the f64
/// integer range, as a decimal string otherwise (seeds and content keys
/// are arbitrary 64-bit values). Shared with the `audit-net` protocol
/// so journal and wire agree on the encoding.
pub fn encode_u64(v: u64) -> JsonValue {
    if v <= (1 << 53) {
        JsonValue::from_u64(v)
    } else {
        JsonValue::String(v.to_string())
    }
}

/// Decodes a `u64` written by [`encode_u64`] (number or decimal
/// string).
///
/// # Errors
///
/// Returns [`AuditError::Journal`] if the value is neither a
/// non-negative integer number nor a decimal string.
pub fn decode_u64(v: &JsonValue) -> Result<u64, AuditError> {
    if let Some(n) = v.as_u64() {
        return Ok(n);
    }
    if let Some(s) = v.as_str() {
        if let Ok(n) = s.parse::<u64>() {
            return Ok(n);
        }
    }
    Err(AuditError::journal(0, "expected an unsigned integer"))
}

fn field_u64(v: &JsonValue, record: &str, field: &str) -> Result<u64, AuditError> {
    v.get(field)
        .map(decode_u64)
        .transpose()?
        .ok_or_else(|| AuditError::journal(0, format!("{record} has no `{field}`")))
}

fn field_str<'a>(v: &'a JsonValue, record: &str, field: &str) -> Result<&'a str, AuditError> {
    v.get(field)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| AuditError::journal(0, format!("{record} has no string `{field}`")))
}

fn encode_cfg(cfg: &GaConfig) -> JsonValue {
    let mut fields = vec![
        ("population", JsonValue::from_u64(cfg.population as u64)),
        ("generations", JsonValue::from_u64(cfg.generations as u64)),
        ("tournament", JsonValue::from_u64(cfg.tournament as u64)),
        ("crossover_rate", JsonValue::from_f64(cfg.crossover_rate)),
        ("mutation_rate", JsonValue::from_f64(cfg.mutation_rate)),
        ("elitism", JsonValue::from_u64(cfg.elitism as u64)),
        (
            "stall_generations",
            JsonValue::from_u64(cfg.stall_generations as u64),
        ),
        ("seed", encode_u64(cfg.seed)),
        ("threads", JsonValue::from_u64(cfg.threads as u64)),
        (
            "cache_capacity",
            JsonValue::from_u64(cfg.cache_capacity as u64),
        ),
        // The retired dispatch-order hint; schema v1 always carries it,
        // so it is still written (the golden fixture pins these bytes).
        ("surrogate_rank", JsonValue::Bool(false)),
    ];
    // Only written when enabled, so journals of cascade-free runs keep
    // their pre-cascade byte encoding.
    if cfg.fast_tier_budget > 0 {
        fields.push((
            "fast_tier_budget",
            JsonValue::from_u64(cfg.fast_tier_budget as u64),
        ));
    }
    // And for Pareto mode: only written when on, so scalar runs keep
    // their pre-multi-objective byte encoding.
    if cfg.pareto {
        fields.push(("pareto", JsonValue::Bool(true)));
    }
    // And for lint-driven repair: only written when on, so unrepaired
    // runs keep their pre-repair byte encoding.
    if cfg.lint_repair {
        fields.push(("lint_repair", JsonValue::Bool(true)));
    }
    JsonValue::object(fields)
}

/// The error for a journal that used a knob this build no longer has.
/// Replaying it without the knob would silently change results, so it
/// fails by name instead (docs/RUN_JOURNAL.md, "Retired knobs").
fn retired_knob(knob: &str) -> AuditError {
    AuditError::resume(format!(
        "journal uses the retired GA knob `{knob}`; replay it with the build that wrote it"
    ))
}

fn decode_cfg(v: &JsonValue) -> Result<GaConfig, AuditError> {
    // `surrogate_rank` (either value) only ever reordered dispatch, so
    // journals that set it replay unchanged and the key is ignored.
    // `surrogate_budget` changed which candidates were measured.
    if v.get("surrogate_budget").is_some() {
        return Err(retired_knob("surrogate_budget"));
    }
    Ok(GaConfig {
        population: field_u64(v, "cfg", "population")? as usize,
        generations: field_u64(v, "cfg", "generations")? as usize,
        tournament: field_u64(v, "cfg", "tournament")? as usize,
        crossover_rate: v
            .get("crossover_rate")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| AuditError::journal(0, "cfg has no `crossover_rate`"))?,
        mutation_rate: v
            .get("mutation_rate")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| AuditError::journal(0, "cfg has no `mutation_rate`"))?,
        elitism: field_u64(v, "cfg", "elitism")? as usize,
        stall_generations: field_u64(v, "cfg", "stall_generations")? as usize,
        seed: decode_u64(
            v.get("seed")
                .ok_or_else(|| AuditError::journal(0, "cfg has no `seed`"))?,
        )?,
        threads: field_u64(v, "cfg", "threads")? as usize,
        cache_capacity: field_u64(v, "cfg", "cache_capacity")? as usize,
        // Absent (meaning disabled) in journals written before the
        // tiered cascade, and in every journal that runs without it.
        fast_tier_budget: v
            .get("fast_tier_budget")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0) as usize,
        // Absent (meaning scalar) in journals written before Pareto
        // mode, and in every scalar journal since.
        pareto: v.get("pareto").and_then(JsonValue::as_bool).unwrap_or(false),
        // Absent (meaning off) in journals written before lint-driven
        // repair, and in every unrepaired journal since.
        lint_repair: v
            .get("lint_repair")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false),
    })
}

/// Encodes one genome as an array of gene arrays
/// (`["SimdFma",3,12,13,false]`) — the journal's genome wire format,
/// shared by the `audit-net` broker/worker protocol so both paths
/// serialize candidates byte-identically.
pub fn encode_genome(genome: &[Gene]) -> JsonValue {
    JsonValue::Array(
        genome
            .iter()
            .map(|g| {
                JsonValue::Array(vec![
                    JsonValue::String(g.opcode.name().into()),
                    JsonValue::from_u64(u64::from(g.dst)),
                    JsonValue::from_u64(u64::from(g.src1)),
                    JsonValue::from_u64(u64::from(g.src2)),
                    JsonValue::Bool(g.miss),
                ])
            })
            .collect(),
    )
}

/// Decodes a genome from [`encode_genome`]'s wire form.
///
/// # Errors
///
/// Returns [`AuditError::Journal`] if the value is not an array of
/// 5-element gene arrays with a known opcode name, register-range
/// operands, and a boolean miss flag.
pub fn decode_genome(v: &JsonValue) -> Result<Vec<Gene>, AuditError> {
    v.as_array()
        .ok_or_else(|| AuditError::journal(0, "genome is not an array"))?
        .iter()
        .map(|gene| {
            let parts = gene
                .as_array()
                .filter(|p| p.len() == 5)
                .ok_or_else(|| AuditError::journal(0, "gene is not a 5-element array"))?;
            let name = parts[0]
                .as_str()
                .ok_or_else(|| AuditError::journal(0, "gene opcode is not a string"))?;
            let opcode = Opcode::from_name(name)
                .ok_or_else(|| AuditError::journal(0, format!("unknown opcode `{name}`")))?;
            let reg = |i: usize, what: &str| {
                parts[i]
                    .as_u64()
                    .filter(|&r| r <= u64::from(u8::MAX))
                    .map(|r| r as u8)
                    .ok_or_else(|| AuditError::journal(0, format!("gene {what} is not a register")))
            };
            Ok(Gene {
                opcode,
                dst: reg(1, "dst")?,
                src1: reg(2, "src1")?,
                src2: reg(3, "src2")?,
                miss: parts[4]
                    .as_bool()
                    .ok_or_else(|| AuditError::journal(0, "gene miss flag is not a bool"))?,
            })
        })
        .collect()
}

/// Anything GA/driver records can be appended to.
///
/// The engine writes through this trait so tests can journal to memory
/// ([`MemJournal`]) while production runs write atomically to disk
/// ([`JournalWriter`]). [`NullSink`] discards records (the un-journaled
/// fast path).
pub trait JournalSink {
    /// Appends one record. File-backed sinks must make the append
    /// durable before returning.
    fn append(&mut self, record: &JournalRecord) -> Result<(), AuditError>;
}

/// A sink that discards every record.
#[derive(Debug, Default)]
pub struct NullSink;

impl JournalSink for NullSink {
    fn append(&mut self, _record: &JournalRecord) -> Result<(), AuditError> {
        Ok(())
    }
}

/// An in-memory sink for tests and programmatic inspection.
#[derive(Debug, Default)]
pub struct MemJournal {
    /// Everything appended so far, in order.
    pub records: Vec<JournalRecord>,
}

impl JournalSink for MemJournal {
    fn append(&mut self, record: &JournalRecord) -> Result<(), AuditError> {
        self.records.push(record.clone());
        Ok(())
    }
}

impl MemJournal {
    /// Interprets the accumulated records as a loaded [`Journal`]
    /// (what a kill-and-reload of an equivalent file journal would see).
    pub fn as_journal(&self) -> Journal {
        Journal {
            records: self.records.clone(),
        }
    }
}

/// Crash-safe NDJSON journal writer: one write plus one `fdatasync` per
/// record (see the module's "Atomicity" section).
#[derive(Debug)]
pub struct JournalWriter {
    log: AppendLog,
    records: usize,
}

impl JournalWriter {
    /// Creates a journal at `path`, writing the `run_start` record.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Journal`] if the file cannot be written
    /// (the destination, if it existed, keeps its previous contents).
    pub fn create(
        path: impl AsRef<Path>,
        mode: &str,
        meta: JsonValue,
    ) -> Result<Self, AuditError> {
        let path = path.as_ref();
        let run_start = JournalRecord::RunStart {
            schema: SCHEMA_VERSION,
            mode: mode.to_string(),
            meta,
        };
        let line = format!("{}\n", run_start.to_json().encode());
        // Staged and renamed, then the directory synced: without that, a
        // power cut can roll the entry back to the pre-rename file.
        // `parent()` of a bare file name is the empty path (the current
        // directory).
        let tmp = path.with_extension("ndjson.tmp");
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(line.as_bytes())?;
                f.sync_all()
            })
            .and_then(|()| fs::rename(&tmp, path))
            .and_then(|()| sync_dir(dir.unwrap_or(Path::new("."))))
            .map_err(|e| {
                let _ = fs::remove_file(&tmp);
                write_failed(path, 1, &e, "the destination keeps its previous contents")
            })?;
        let (log, _) = AppendLog::open(path)?;
        Ok(JournalWriter { log, records: 1 })
    }

    /// Reopens an existing journal for continued appending (resume). The
    /// already-present lines are kept byte-for-byte; a torn final line
    /// (a kill mid-append) is cut off first.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the file cannot be opened, read or
    /// truncated, or [`AuditError::Journal`] if a non-final line is
    /// malformed.
    pub fn resume(path: impl AsRef<Path>) -> Result<Self, AuditError> {
        let (log, reader) = AppendLog::open(path)?;
        Ok(JournalWriter {
            log,
            records: reader.records().len(),
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Records appended so far (including any loaded by
    /// [`JournalWriter::resume`]).
    pub fn len(&self) -> usize {
        self.records
    }

    /// True if nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Writes the `run_end` record — call when the run completes.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Journal`] on write failure; the records
    /// before it stay intact.
    pub fn finish(&mut self) -> Result<(), AuditError> {
        self.append(&JournalRecord::RunEnd)
    }
}

/// The one error a failed journal write surfaces as.
fn write_failed(path: &Path, record: usize, e: &std::io::Error, kept: &str) -> AuditError {
    AuditError::journal(
        record,
        format!("journal write to `{}` failed ({e}); {kept}", path.display()),
    )
}

/// Fsyncs a directory so a just-renamed entry inside it survives power
/// loss.
///
/// Not every platform or filesystem can sync a directory handle (some
/// return `ENOTSUP`/`EINVAL`, and some cannot even open a directory for
/// reading) — those environments simply lack the stronger guarantee, so
/// such errors are tolerated and reported as success. Real I/O failures
/// (the disk said no) still propagate.
fn sync_dir(dir: &std::path::Path) -> std::io::Result<()> {
    let d = match fs::File::open(dir) {
        Ok(d) => d,
        // Directories can't be opened for reading on this platform;
        // there is nothing to sync through.
        Err(e) if dir_sync_unsupported(&e) => return Ok(()),
        Err(e) => return Err(e),
    };
    match d.sync_all() {
        Ok(()) => Ok(()),
        Err(e) if dir_sync_unsupported(&e) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Classifies errors that mean "directory fsync is not a thing here"
/// rather than "the write was lost": `ENOTSUP`/`EOPNOTSUPP`
/// (`Unsupported`), `EINVAL` (`InvalidInput`, what some kernels return
/// for fsync on a directory fd), `EACCES`/`EPERM` (`PermissionDenied`,
/// platforms that refuse to open directories), and `EBADF` on targets
/// whose runtime rejects directory handles outright.
fn dir_sync_unsupported(e: &std::io::Error) -> bool {
    use std::io::ErrorKind;
    matches!(
        e.kind(),
        ErrorKind::Unsupported | ErrorKind::InvalidInput | ErrorKind::PermissionDenied
    ) || e.raw_os_error() == Some(9) // EBADF
}

impl JournalSink for JournalWriter {
    fn append(&mut self, record: &JournalRecord) -> Result<(), AuditError> {
        self.log
            .append(&record.to_json().encode())
            .and_then(|()| self.log.sync())
            .map_err(|e| {
                write_failed(
                    self.path(),
                    self.records + 1,
                    &e,
                    "the records before it are intact",
                )
            })?;
        self.records += 1;
        Ok(())
    }
}

/// A fully parsed journal, ready for resume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    /// All records, in journal order.
    pub records: Vec<JournalRecord>,
}

impl Journal {
    /// Loads and decodes a journal file.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the file cannot be read,
    /// [`AuditError::Journal`] for malformed records (1-based line in
    /// the error), [`AuditError::Schema`] for an incompatible
    /// `run_start`, or [`AuditError::Resume`] for a retired knob.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, AuditError> {
        let reader = JournalReader::open(path)?;
        Self::from_reader(&reader)
    }

    /// Parses journal text (one record per line).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Journal::load`], minus I/O.
    pub fn parse(text: &str) -> Result<Self, AuditError> {
        Self::from_reader(&JournalReader::parse(text)?)
    }

    fn from_reader(reader: &JournalReader) -> Result<Self, AuditError> {
        let records = reader
            .records()
            .iter()
            .enumerate()
            .map(|(i, v)| {
                JournalRecord::from_json(v).map_err(|e| match e {
                    AuditError::Journal { line: 0, message } => {
                        AuditError::journal(i + 1, message)
                    }
                    other => other,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Journal { records })
    }

    /// The `run_start` record's mode, if present.
    pub fn mode(&self) -> Option<&str> {
        self.records.iter().find_map(|r| match r {
            JournalRecord::RunStart { mode, .. } => Some(mode.as_str()),
            _ => None,
        })
    }

    /// The `run_start` record's metadata, if present.
    pub fn meta(&self) -> Option<&JsonValue> {
        self.records.iter().find_map(|r| match r {
            JournalRecord::RunStart { meta, .. } => Some(meta),
            _ => None,
        })
    }

    /// True once a `run_end` record has been written.
    pub fn is_complete(&self) -> bool {
        self.records
            .iter()
            .any(|r| matches!(r, JournalRecord::RunEnd))
    }

    /// The payload of the last completed phase with this name, if any.
    pub fn phase_payload(&self, name: &str) -> Option<&JsonValue> {
        self.records.iter().rev().find_map(|r| match r {
            JournalRecord::PhaseEnd { name: n, payload } if n == name => Some(payload),
            _ => None,
        })
    }

    /// The last GA section of the journal: its `ga_start`, the
    /// generation records that follow it (in order), and whether a
    /// `ga_end` closed it. `None` if no GA was started.
    pub fn last_ga_section(&self) -> Option<GaSection<'_>> {
        let start_idx = self
            .records
            .iter()
            .rposition(|r| matches!(r, JournalRecord::GaStart { .. }))?;
        let JournalRecord::GaStart {
            cfg,
            genome_len,
            menu,
            seeds,
        } = &self.records[start_idx]
        else {
            unreachable!("rposition matched GaStart");
        };
        let mut generations = Vec::new();
        let mut fronts = Vec::new();
        let mut complete = false;
        for r in &self.records[start_idx + 1..] {
            match r {
                JournalRecord::Generation(g) => generations.push(g),
                // Each generation's Pareto payload precedes it; a
                // trailing front without its generation is a crash
                // artifact that replay ignores.
                JournalRecord::ParetoFront(f) => fronts.push(f),
                // Informational markers inside the section (the budget
                // and the repair flag themselves live in `cfg`); skip
                // them.
                JournalRecord::Cascade { .. }
                | JournalRecord::Repair { .. }
                | JournalRecord::WorkerEvicted { .. } => continue,
                JournalRecord::GaEnd => {
                    complete = true;
                    break;
                }
                _ => break,
            }
        }
        Some(GaSection {
            cfg,
            genome_len: *genome_len,
            menu,
            seeds,
            generations,
            fronts,
            complete,
        })
    }
}

/// A borrowed view of one GA search inside a journal.
#[derive(Debug, Clone)]
pub struct GaSection<'a> {
    /// Engine configuration of the search.
    pub cfg: &'a GaConfig,
    /// Genome length in slots.
    pub genome_len: usize,
    /// Opcode menu of the search.
    pub menu: &'a [Opcode],
    /// Seed genomes of the initial population.
    pub seeds: &'a [Vec<Gene>],
    /// Recorded generations, in index order.
    pub generations: Vec<&'a GenerationRecord>,
    /// Recorded `pareto_front` payloads, in index order (empty for
    /// scalar runs; may hold one orphan trailing front after a crash).
    pub fronts: Vec<&'a ParetoFrontRecord>,
    /// True if a `ga_end` closed the section.
    pub complete: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::Gene;

    fn sample_generation() -> GenerationRecord {
        GenerationRecord {
            index: 3,
            stream_seed: u64::MAX - 7, // forces the string encoding
            population: vec![
                vec![
                    Gene {
                        opcode: Opcode::SimdFma,
                        dst: 3,
                        src1: 12,
                        src2: 13,
                        miss: false,
                    },
                    Gene {
                        opcode: Opcode::Load,
                        dst: 7,
                        src1: 14,
                        src2: 15,
                        miss: true,
                    },
                ],
                vec![
                    Gene {
                        opcode: Opcode::Nop,
                        dst: 0,
                        src1: 0,
                        src2: 0,
                        miss: false,
                    };
                    2
                ],
            ],
            scores: vec![0.08125, -1.0 / 3.0],
            executed: 2,
            cache_hits: 0,
            wall_s: 0.25,
            analysis: Some(GenerationAnalysis {
                best_swing: 1.5,
                mean_swing: 0.75,
            }),
        }
    }

    #[test]
    fn records_round_trip() {
        let records = vec![
            JournalRecord::RunStart {
                schema: SCHEMA_VERSION,
                mode: "ga".into(),
                meta: JsonValue::object(vec![("chip", JsonValue::String("bulldozer".into()))]),
            },
            JournalRecord::PhaseStart {
                name: "resonance".into(),
            },
            JournalRecord::PhaseEnd {
                name: "resonance".into(),
                payload: JsonValue::from_u64(26),
            },
            JournalRecord::GaStart {
                cfg: GaConfig::default(),
                genome_len: 24,
                menu: Opcode::stress_menu(),
                seeds: vec![sample_generation().population[0].clone()],
            },
            JournalRecord::Cascade { budget: 3 },
            JournalRecord::Generation(sample_generation()),
            JournalRecord::GaEnd,
            JournalRecord::VminStep {
                step: 4,
                voltage: 1.0875,
                attempt: 1,
                outcome: VminOutcome::Crashed,
            },
            JournalRecord::Retry {
                step: 4,
                attempt: 0,
                reason: "timeout".into(),
                backoff_cycles: u64::MAX - 1, // forces the string encoding
            },
            JournalRecord::Quarantine {
                step: 7,
                attempts: 3,
                fallback: -1.0,
            },
            JournalRecord::ParetoFront(ParetoFrontRecord {
                index: 3,
                objectives: vec![
                    Objectives(vec![0.08125, 52.5, -0.02]),
                    Objectives(vec![f64::NEG_INFINITY]),
                ],
                ranks: vec![0, 1],
            }),
            JournalRecord::ShmooPoint {
                index: 5,
                volts: 1.05,
                clock_hz: 3.2e9,
                result: None,
            },
            JournalRecord::ShmooPoint {
                index: 5,
                volts: 1.05,
                clock_hz: 3.2e9,
                result: Some(ShmooPointResult {
                    v_fail: 0.9375,
                    margin: 0.1125,
                    steps: 7,
                }),
            },
            JournalRecord::WorkerEvicted {
                worker: 3,
                key: u64::MAX - 2, // forces the string encoding
                quarantined: 2,
            },
            JournalRecord::RunEnd,
        ];
        for r in &records {
            let back = JournalRecord::from_json(&r.to_json()).unwrap();
            assert_eq!(&back, r, "{} did not round-trip", r.kind());
        }
    }

    #[test]
    fn vmin_outcome_tags_round_trip() {
        for o in [
            VminOutcome::Pending,
            VminOutcome::Passed,
            VminOutcome::Failed,
            VminOutcome::Crashed,
        ] {
            assert_eq!(VminOutcome::parse(o.as_str()), Some(o));
        }
        assert_eq!(VminOutcome::parse("rebooted"), None);
        assert!(VminOutcome::Passed.is_terminal());
        assert!(VminOutcome::Failed.is_terminal());
        assert!(!VminOutcome::Pending.is_terminal());
        assert!(!VminOutcome::Crashed.is_terminal());
    }

    #[test]
    fn scores_round_trip_bit_exactly() {
        let mut rec = sample_generation();
        rec.population = vec![rec.population[0].clone(); 4];
        rec.scores = vec![0.1 + 0.2, f64::MIN_POSITIVE, -0.0, 1.0 / 3.0];
        let back = JournalRecord::from_json(&JournalRecord::Generation(rec.clone()).to_json())
            .unwrap();
        let JournalRecord::Generation(back) = back else {
            panic!("wrong kind");
        };
        for (a, b) in rec.scores.iter().zip(&back.scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.stream_seed, u64::MAX - 7);
    }

    #[test]
    fn journal_parse_locates_bad_records() {
        let good = JournalRecord::GaEnd.to_json().encode();
        let text = format!("{good}\n{{\"kind\":\"generation\"}}\n");
        let err = Journal::parse(&text).unwrap_err();
        assert!(err.to_string().contains("record 2"), "{err}");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = "{\"kind\":\"run_start\",\"schema\":99,\"mode\":\"ga\"}\n";
        let err = Journal::parse(text).unwrap_err();
        assert!(matches!(err, AuditError::Schema { found: 99, .. }), "{err}");
    }

    #[test]
    fn writer_is_atomic_and_resumable() {
        let dir = std::env::temp_dir().join(format!(
            "audit-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ndjson");

        let mut w = JournalWriter::create(&path, "ga", JsonValue::Null).unwrap();
        w.append(&JournalRecord::Generation(sample_generation()))
            .unwrap();
        let j1 = Journal::load(&path).unwrap();
        assert_eq!(j1.records.len(), 2);
        assert_eq!(j1.mode(), Some("ga"));
        assert!(!j1.is_complete());

        // Reopen and keep appending — prior bytes unchanged.
        let before = fs::read_to_string(&path).unwrap();
        let mut w2 = JournalWriter::resume(&path).unwrap();
        assert_eq!(w2.len(), 2);
        w2.finish().unwrap();
        let after = fs::read_to_string(&path).unwrap();
        assert!(after.starts_with(&before));
        assert!(Journal::load(&path).unwrap().is_complete());

        // No stray tmp file survives.
        assert!(!dir.join("run.ndjson.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_accepts_a_bare_relative_path() {
        // A bare file name has an empty `parent()`; the directory fsync
        // after staging `run_start` must map that to the current
        // directory instead of trying to open "".
        let name = format!(
            "audit-journal-bare-{}-{:?}.ndjson",
            std::process::id(),
            std::thread::current().id()
        );
        let mut w = JournalWriter::create(std::path::Path::new(&name), "ga", JsonValue::Null)
            .expect("bare relative journal path must flush");
        w.append(&JournalRecord::Generation(sample_generation()))
            .unwrap();
        w.finish().unwrap();
        assert!(Journal::load(std::path::Path::new(&name)).unwrap().is_complete());
        fs::remove_file(&name).unwrap();
    }

    #[test]
    fn dir_sync_tolerates_unsupported_platforms() {
        use std::io::{Error, ErrorKind};
        for kind in [
            ErrorKind::Unsupported,
            ErrorKind::InvalidInput,
            ErrorKind::PermissionDenied,
        ] {
            assert!(dir_sync_unsupported(&Error::from(kind)), "{kind:?}");
        }
        assert!(dir_sync_unsupported(&Error::from_raw_os_error(9))); // EBADF
        // Anything else still means the rename may not be durable.
        assert!(!dir_sync_unsupported(&Error::from(ErrorKind::NotFound)));
        assert!(!dir_sync_unsupported(&Error::from(ErrorKind::Other)));

        // And on a real directory the sync itself succeeds (or is
        // classified away) — either way it must not error here.
        sync_dir(&std::env::temp_dir()).unwrap();
    }

    #[test]
    fn last_ga_section_picks_the_latest() {
        let mut mem = MemJournal::default();
        let cfg_a = GaConfig {
            seed: 1,
            ..GaConfig::default()
        };
        let cfg_b = GaConfig {
            seed: 2,
            ..GaConfig::default()
        };
        for (cfg, done) in [(&cfg_a, true), (&cfg_b, false)] {
            mem.append(&JournalRecord::GaStart {
                cfg: cfg.clone(),
                genome_len: 4,
                menu: Opcode::stress_menu(),
                seeds: vec![],
            })
            .unwrap();
            mem.append(&JournalRecord::Generation(GenerationRecord {
                index: 0,
                ..sample_generation()
            }))
            .unwrap();
            if done {
                mem.append(&JournalRecord::GaEnd).unwrap();
            }
        }
        let journal = mem.as_journal();
        let section = journal.last_ga_section().unwrap();
        assert_eq!(section.cfg.seed, 2);
        assert!(!section.complete);
        assert_eq!(section.generations.len(), 1);
    }

    #[test]
    fn phase_payload_finds_latest_match() {
        let mut mem = MemJournal::default();
        mem.append(&JournalRecord::PhaseEnd {
            name: "resonance".into(),
            payload: JsonValue::from_u64(24),
        })
        .unwrap();
        mem.append(&JournalRecord::PhaseEnd {
            name: "resonance".into(),
            payload: JsonValue::from_u64(26),
        })
        .unwrap();
        let j = mem.as_journal();
        assert_eq!(j.phase_payload("resonance").unwrap().as_u64(), Some(26));
        assert!(j.phase_payload("ga").is_none());
    }
}
