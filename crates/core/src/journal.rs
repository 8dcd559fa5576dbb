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
use audit_error::{AuditError, AuditResult};
use audit_measure::codec;
use audit_measure::json::{self, Codec, Fields, JsonValue, Record};
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

codec! {
    leaf VminOutcome: |x| JsonValue::String(x.as_str().into()),
        |v| json::tag(v, VminOutcome::parse);
}

impl JournalRecord {
    /// Encodes the record to its JSON object.
    pub fn to_json(&self) -> JsonValue {
        self.encode()
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
        JournalRecord::decode(v)
    }
}

// Every record kind of schema v1. An absent optional field reads as its
// default, so journals written before a field existed still decode.
codec! {
    enum JournalRecord "record" {
        "run_start" => RunStart { schema, mode, meta: or_default, } check schema_supported,
        "phase_start" => PhaseStart { name, },
        "phase_end" => PhaseEnd { name, payload: or_default, },
        "ga_start" => GaStart { cfg, genome_len, menu, seeds, },
        "cascade" => Cascade { budget, },
        "repair" => Repair { index, rerolls, },
        "pareto_front" => ParetoFront(ParetoFrontRecord),
        "generation" => Generation(GenerationRecord),
        "ga_end" => GaEnd {},
        "vmin_step" => VminStep { step, voltage, attempt, outcome, },
        "retry" => Retry { step, attempt, reason, backoff_cycles, },
        "quarantine" => Quarantine { step, attempts, fallback, },
        "shmoo_point" => ShmooPoint {
            index, volts, clock_hz, result: with(put_shmoo_result, take_shmoo_result),
        },
        "minimize_step" => MinimizeStep {
            step, kept, key, outcome, droop: if_set,
        } check terminal_step_has_droop,
        "worker_evicted" => WorkerEvicted { worker, key, quarantined, },
        "run_end" => RunEnd {},
    } else retired_kind
}

codec! {
    record GenerationRecord "generation" {
        index, stream_seed, population, scores, executed, cache_hits,
        // Telemetry; `analysis` is absent in journals written before
        // the analyzer.
        wall_s: or_default,
        analysis: if_set,
    } check genomes_match_scores
}

codec! {
    record GenerationAnalysis "analysis" { best_swing, mean_swing, }
}

codec! {
    record ParetoFrontRecord "pareto_front" {
        index, objectives, ranks,
    } check ranks_match_objectives
}

codec! {
    record ShmooPointResult "shmoo_point" { v_fail, margin, steps, }
}

codec! {
    record GaConfig "cfg" {
        // Changed which candidates were measured: fails by name.
        surrogate_budget: retired(retired_knob),
        population, generations, tournament, crossover_rate, mutation_rate, elitism,
        stall_generations, seed, threads, cache_capacity,
        // The retired dispatch-order hint. Schema v1 always carries it
        // (the golden fixture pins these bytes); either value replays
        // unchanged, so it is ignored on read.
        surrogate_rank: const(false),
        // Written only when on, so runs without them keep their
        // earlier bytes.
        fast_tier_budget: if_set,
        pareto: if_set,
        lint_repair: if_set,
    }
}

/// `run_start`: a journal written with another schema fails as
/// [`AuditError::Schema`].
fn schema_supported(record: &JournalRecord) -> AuditResult<()> {
    match record {
        JournalRecord::RunStart { schema, .. } if *schema != SCHEMA_VERSION => {
            Err(AuditError::Schema {
                found: *schema,
                supported: SCHEMA_VERSION,
            })
        }
        _ => Ok(()),
    }
}

/// `minimize_step`: a terminal probe carries the droop it measured.
fn terminal_step_has_droop(record: &JournalRecord) -> AuditResult<()> {
    let message = "terminal `minimize_step` has no `droop`";
    match record {
        JournalRecord::MinimizeStep { outcome, droop, .. } if outcome.is_terminal() => droop
            .map(drop)
            .ok_or_else(|| AuditError::journal(0, message)),
        _ => Ok(()),
    }
}

fn genomes_match_scores(r: &GenerationRecord) -> AuditResult<()> {
    let (genomes, scores) = (r.population.len(), r.scores.len());
    slots_match("generation", ("genomes", genomes), ("scores", scores))
}

fn ranks_match_objectives(r: &ParetoFrontRecord) -> AuditResult<()> {
    let (objectives, ranks) = (r.objectives.len(), r.ranks.len());
    slots_match("pareto_front", ("objectives", objectives), ("ranks", ranks))
}

/// A per-slot list must have one entry per slot, like its sibling.
fn slots_match(record: &str, (a, n): (&str, usize), (b, m): (&str, usize)) -> AuditResult<()> {
    if n == m {
        return Ok(());
    }
    let message = format!("`{record}` has {n} {a} but {m} {b}");
    Err(AuditError::journal(0, message))
}

/// `shmoo_point`'s `outcome` tag: a `pending` point has no results yet,
/// a `done` point carries them inline.
fn put_shmoo_result(result: &Option<ShmooPointResult>, out: &mut Fields) {
    let outcome = if result.is_some() { "done" } else { "pending" };
    out.push(("outcome".into(), JsonValue::String(outcome.into())));
    if let Some(r) = result {
        r.write_fields(out);
    }
}

fn take_shmoo_result(v: &JsonValue, record: &str) -> AuditResult<Option<ShmooPointResult>> {
    match json::field::<String>(v, record, "outcome")?.as_str() {
        "pending" => Ok(None),
        "done" => ShmooPointResult::read_fields(v).map(Some),
        other => Err(AuditError::journal(
            0,
            format!("`{record}.outcome`: unknown outcome `{other}`"),
        )),
    }
}

/// Tags no table lists. The retired `surrogate_budget` marker fails by
/// name.
fn retired_kind(kind: &str) -> AuditError {
    if kind == "surrogate_budget" {
        retired_knob(kind)
    } else {
        json::unknown_kind(kind)
    }
}

/// The error for a journal that used a knob this build no longer has.
/// Replaying it without the knob would silently change results, so it
/// fails by name instead (docs/RUN_JOURNAL.md, "Retired knobs").
fn retired_knob(knob: &str) -> AuditError {
    AuditError::resume(format!(
        "journal uses the retired GA knob `{knob}`; replay it with the build that wrote it"
    ))
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
    pub fn create(path: impl AsRef<Path>, mode: &str, meta: JsonValue) -> Result<Self, AuditError> {
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
            .map(|(i, v)| JournalRecord::from_json(v).map_err(|e| e.on_line(i + 1)))
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
        let back =
            JournalRecord::from_json(&JournalRecord::Generation(rec.clone()).to_json()).unwrap();
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
    fn integers_beyond_u32_are_rejected_not_truncated() {
        // 2^32 + 1 truncates to 1 under `as u32`: schema 1, attempt 1.
        let text = "{\"kind\":\"run_start\",\"schema\":4294967297,\"mode\":\"ga\"}\n";
        assert!(Journal::parse(text).is_err());
        let step = r#"{"kind":"vmin_step","step":0,"voltage":1.0,"attempt":4294967297,"outcome":"pending"}"#;
        let err = JournalRecord::from_json(&JsonValue::parse(step).unwrap()).unwrap_err();
        assert!(err.to_string().contains("`vmin_step.attempt`"), "{err}");
    }

    #[test]
    fn a_present_but_mistyped_optional_field_is_an_error() {
        let mut line = JournalRecord::Generation(sample_generation()).to_json();
        if let JsonValue::Object(pairs) = &mut line {
            pairs.last_mut().unwrap().1 = JsonValue::Number(7.0); // `analysis`
        }
        let err = JournalRecord::from_json(&line).unwrap_err();
        assert!(err.to_string().contains("`generation.analysis`"), "{err}");
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
        assert!(Journal::load(std::path::Path::new(&name))
            .unwrap()
            .is_complete());
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
