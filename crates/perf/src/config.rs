//! What each workload runs: campaign options, measurement specs, the
//! run-start metadata of its journals, and the journal digest the output
//! checks compare. The smoke test includes this file too, so it rebuilds
//! exactly the campaigns the benchmark times.

use audit_core::audit::AuditOptions;
use audit_core::harness::MeasureSpec;
use audit_measure::fault::KeyHasher;
use audit_measure::json::JsonValue;

/// Threads every stressmark runs with (`audit generate`'s default).
pub(crate) const STRESS_THREADS: usize = 4;

/// GA evaluation threads, or distributed workers: the load is sized for
/// a 2-core host.
pub(crate) const EVAL_THREADS: usize = 2;

/// Set-up samples timed before each Table I pass; `setup_s` is the
/// median of all of a run's samples.
pub(crate) const SETUP_REPS: usize = 11;

/// Seconds of untimed evaluations each run starts with, so caches,
/// allocator and clock speed have settled before anything is timed.
pub(crate) const WARMUP_SECONDS: f64 = 1.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    /// Paper-scale A-Res-4T campaigns, journaled, local evaluation.
    GaResonant,
    /// `audit generate --fast-tier-budget 6 --lint-repair`, 120 generations.
    GaCascade,
    /// The `GaResonant` campaigns through a broker and two socket workers.
    GaDistributed,
    /// Table I voltage-at-failure search at the reporting spec.
    VminTable1,
}

impl Workload {
    /// Every workload, in the order a full run visits them.
    pub(crate) const ALL: [Workload; 4] = [
        Workload::GaResonant,
        Workload::GaCascade,
        Workload::GaDistributed,
        Workload::VminTable1,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::GaResonant => "ga_resonant",
            Workload::GaCascade => "ga_cascade",
            Workload::GaDistributed => "ga_distributed",
            Workload::VminTable1 => "vmin_table1",
        }
    }

    pub(crate) fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The campaign options of a GA workload for one seed. Every campaign
/// runs exactly `generations` generations (the stall exit is pushed out
/// of reach), so its work is a function of the build and the seed alone.
pub(crate) fn ga_options(workload: Workload, smoke: bool, seed: u64) -> AuditOptions {
    let mut opts = AuditOptions::paper()
        .with_seed(seed)
        .with_eval_threads(EVAL_THREADS);
    let mut generations = 40;
    if workload == Workload::GaCascade {
        opts = opts.with_fast_tier_budget(if smoke { 2 } else { 6 });
        opts.ga.lint_repair = true;
        generations = 120;
    }
    if smoke {
        opts.ga.population = 6;
        generations = 2;
        opts.resonance_periods = vec![24, 32];
        opts.eval_spec = smoke_spec(MeasureSpec::ga_eval());
    }
    opts.ga.generations = generations;
    opts.ga.stall_generations = generations;
    opts
}

/// The Table I probe spec: the reporting spec (failure check on).
pub(crate) fn vmin_spec(smoke: bool) -> MeasureSpec {
    if smoke {
        smoke_spec(MeasureSpec::reporting())
    } else {
        MeasureSpec::reporting()
    }
}

/// `base` shrunk to a few thousand simulated cycles, for the smoke run.
fn smoke_spec(base: MeasureSpec) -> MeasureSpec {
    MeasureSpec {
        warmup_cycles: 100,
        record_cycles: 400,
        settle_cycles: 2_000,
        ..base
    }
}

/// The `run_start` metadata of a campaign journal. It names the seed and
/// nothing else, so a local and a distributed campaign of one seed write
/// byte-identical journals (modulo `wall_s`).
pub(crate) fn journal_meta(seed: u64) -> JsonValue {
    JsonValue::object(vec![
        ("source", JsonValue::String("audit-perf".into())),
        ("seed", JsonValue::from_u64(seed)),
    ])
}

/// FNV-1a over a journal's text with every `"wall_s"` field removed —
/// the one value in a journal that legitimately differs between runs.
pub(crate) fn digest(journal: &str) -> u64 {
    let mut h = KeyHasher::new();
    for line in journal.lines() {
        h.write_bytes(strip_wall(line).as_bytes())
            .write_bytes(b"\n");
    }
    h.finish()
}

fn strip_wall(line: &str) -> String {
    match line.find("\"wall_s\":") {
        Some(start) => {
            let rest = &line[start..];
            let end = rest.find(',').map_or(line.len(), |e| start + e + 1);
            format!("{}{}", &line[..start], &line[end..])
        }
        None => line.to_string(),
    }
}
