//! Shared command plumbing: rig construction and workload lookup.

use audit_core::audit::AuditOptions;
use audit_core::ga::{CostFunction, Objective, ObjectiveSet};
use audit_core::harness::{MeasureSpec, Rig};
use audit_core::resilient::MeasurePolicy;
use audit_cpu::Program;
use audit_measure::json::JsonValue;
use audit_measure::FaultPlan;
use audit_stressmark::{manual, progfile, workloads};

use crate::args::{ArgError, Args};

/// Captures a journaled mode's result-determining flags (as opposed to
/// where its artifacts are written) as its `run_start` metadata
/// (`{"argv": ["--chip", "phenom", ...]}`), so `--resume` can
/// reconstruct the exact configuration without re-passing them.
/// `minimize` also records its input path, spelled `--input` so the
/// replayed argv parses.
pub fn meta(mode: &str, args: &Args) -> JsonValue {
    let flags: &[&str] = match mode {
        "generate" => &[
            "--chip",
            "--threads",
            "--kind",
            "--volts",
            "--throttle",
            "--seed",
            "--workers",
            "--faults",
            "--repeat",
            "--retries",
            "--cycle-budget",
            "--fast-tier-budget",
            "--objective",
        ],
        // The program selector and the fault policy too: a resumed
        // search must redraw the same fault schedules.
        "failure" => &[
            "--chip",
            "--threads",
            "--volts",
            "--throttle",
            "--cycles",
            "--workload",
            "--stressmark",
            "--file",
            "--faults",
            "--repeat",
            "--retries",
            "--cycle-budget",
        ],
        "shmoo" => &[
            "--chip",
            "--threads",
            "--volts",
            "--throttle",
            "--cycles",
            "--workload",
            "--stressmark",
            "--file",
            "--faults",
            "--repeat",
            "--retries",
            "--cycle-budget",
            "--grid-volts",
            "--grid-clocks",
        ],
        "minimize" => &[
            "--chip",
            "--threads",
            "--volts",
            "--throttle",
            "--cycles",
            "--retain",
        ],
        other => unreachable!("`{other}` is not a journaled mode"),
    };
    let mut argv = Vec::new();
    for flag in flags {
        if let Some(mut v) = args.opt_flag(flag) {
            // `--objective` is order-normalized before journaling, so
            // argv-replay resume is insensitive to the flag order the
            // user typed. A malformed spec is recorded raw — the
            // command errors out before the journal is written.
            if *flag == "--objective" {
                if let Ok((set, variant)) = parse_objective_spec(&v) {
                    v = objective_spec_string(set, variant);
                }
            }
            argv.extend([flag.to_string(), v]);
        }
    }
    if args.bool_flag("--fast") {
        argv.push("--fast".to_string());
    }
    // `--lint-repair` shapes every bred population, so resume must
    // restore it (and its absence must leave the argv untouched — the
    // byte-invisibility contract in docs/ANALYSIS.md).
    if mode == "generate" && args.bool_flag("--lint-repair") {
        argv.push("--lint-repair".to_string());
    }
    if mode == "minimize" {
        if let Some(input) = minimize_input(args) {
            argv.extend(["--input".to_string(), input]);
        }
    }
    JsonValue::object(vec![(
        "argv",
        JsonValue::Array(argv.into_iter().map(JsonValue::String).collect()),
    )])
}

/// The `minimize` input: its positional argument, or `--input` (the
/// spelling its journal records).
pub fn minimize_input(args: &Args) -> Option<String> {
    args.positionals()
        .get(1)
        .cloned()
        .or_else(|| args.opt_flag("--input"))
}

/// Flags this build retired (docs/RUN_JOURNAL.md, "Retired knobs"): a
/// journal that records one cannot replay here.
const RETIRED_FLAGS: &[&str] = &["--eval-batch", "--cost"];

/// Reconstructs the recorded flags from `run_start` metadata written
/// by [`meta`].
///
/// # Errors
///
/// Returns [`ArgError`] when the metadata is missing or malformed, or
/// records a flag this build retired (docs/RUN_JOURNAL.md, "Retired
/// knobs").
pub fn args_from_meta(meta: &JsonValue) -> Result<Args, ArgError> {
    let argv = meta
        .get("argv")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ArgError("journal metadata has no `argv` list".into()))?;
    let words = argv
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| ArgError("journal metadata `argv` holds a non-string".into()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Checked before parsing: the parser does not know these flags take
    // a value, and would misread that value as a positional.
    if let Some(flag) = words.iter().find(|w| RETIRED_FLAGS.contains(&w.as_str())) {
        return Err(ArgError(format!(
            "{flag}: the journal records a retired flag; \
             resume it with the build that wrote it"
        )));
    }
    Args::parse(words)
}

/// Builds the rig from `--chip`, `--volts`, and `--throttle`.
///
/// # Errors
///
/// Returns [`ArgError`] for an unknown chip, malformed numbers, or a
/// `--volts` that is not a positive finite supply.
pub fn rig_from(args: &Args) -> Result<Rig, ArgError> {
    let chip = args.str_flag("--chip", "bulldozer");
    let mut rig = match chip.as_str() {
        "bulldozer" => Rig::bulldozer(),
        "phenom" => Rig::phenom(),
        other => {
            return Err(ArgError(format!(
                "unknown chip `{other}` (expected bulldozer or phenom)"
            )))
        }
    };
    if let Some(v) = args.opt_flag("--volts") {
        let volts: f64 = v
            .parse()
            .map_err(|_| ArgError(format!("--volts: cannot parse `{v}`")))?;
        rig = rig.at_voltage(volts);
        rig.pdn
            .validate()
            .map_err(|e| ArgError(format!("--volts: {e}")))?;
    }
    if let Some(cap) = args.opt_flag("--throttle") {
        let cap: u32 = cap
            .parse()
            .map_err(|_| ArgError(format!("--throttle: cannot parse `{cap}`")))?;
        rig = rig.with_fpu_throttle(cap);
    }
    Ok(rig)
}

/// `--threads` (default 4), checked against the rig's chip with
/// [`Rig::placement`], so a count the chip cannot place is an argument
/// error rather than a simulator panic.
///
/// # Errors
///
/// Returns [`ArgError`] for a malformed count, zero threads, or more
/// threads than the chip has.
pub fn threads_from(args: &Args, rig: &Rig) -> Result<usize, ArgError> {
    let threads = args.num_flag("--threads", 4usize)?;
    rig.placement(threads)
        .map_err(|e| ArgError(format!("--threads: {e}")))?;
    Ok(threads)
}

/// Generation options from `--fast`, `--seed`, `--workers`,
/// `--fast-tier-budget`, `--lint-repair`, `--objective`, and the
/// resilience flags.
///
/// `--workers` sets the GA fitness-evaluation worker count (`0`, the
/// default, means all available cores); it affects wall time only,
/// never results. `--fast-tier-budget <n>` engages the evaluation
/// cascade — at most `n` candidates per generation reach the full
/// simulator — and *does* shape the search, so it is recorded as a
/// result flag for `--resume` (see docs/SIMULATION.md).
///
/// # Errors
///
/// Returns [`ArgError`] for an unknown objective or a malformed count.
pub fn options_from(args: &Args) -> Result<AuditOptions, ArgError> {
    let mut opts = if args.bool_flag("--fast") {
        AuditOptions::fast_demo()
    } else {
        AuditOptions::paper()
    };
    if let Some(seed) = args.opt_flag("--seed") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| ArgError(format!("--seed: cannot parse `{seed}`")))?;
        opts = opts.with_seed(seed);
    }
    if let Some(workers) = args.opt_flag("--workers") {
        let workers: usize = workers
            .parse()
            .map_err(|_| ArgError(format!("--workers: cannot parse `{workers}`")))?;
        opts = opts.with_eval_threads(workers);
    }
    if let Some(budget) = args.opt_flag("--fast-tier-budget") {
        let budget: usize = budget
            .parse()
            .map_err(|_| ArgError(format!("--fast-tier-budget: cannot parse `{budget}`")))?;
        opts = opts.with_fast_tier_budget(budget);
    }
    if args.bool_flag("--lint-repair") {
        opts.ga.lint_repair = true;
    }
    if let Some(spec) = args.opt_flag("--objective") {
        let (set, variant) = parse_objective_spec(&spec)?;
        opts = opts.with_objectives(set);
        if let Some(cost) = variant {
            opts = opts.with_cost(cost);
        }
    }
    opts = opts.with_policy(policy_from(args)?);
    opts.validate().map_err(|e| ArgError(e.to_string()))?;
    Ok(opts)
}

/// Parses a `--objective` spec: comma-separated axes, where the droop
/// axis may be spelled as one of its cost-function variants
/// (`droop-per-amp`, `sensitive`). Axes deduplicate and normalize to
/// canonical order (droop, power, margin).
///
/// # Errors
///
/// Returns [`ArgError`] for an unknown axis, an empty spec, or
/// conflicting droop variants.
pub fn parse_objective_spec(spec: &str) -> Result<(ObjectiveSet, Option<CostFunction>), ArgError> {
    let mut axes = Vec::new();
    let mut variant: Option<CostFunction> = None;
    for token in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (axis, cost) = match token {
            "droop" => (Objective::Droop, None),
            "droop-per-amp" => (Objective::Droop, Some(CostFunction::DroopPerAmp)),
            "sensitive" => (Objective::Droop, Some(CostFunction::SensitivePathDroop)),
            "power" => (Objective::Power, None),
            "margin" => (Objective::Margin, None),
            other => {
                return Err(ArgError(format!(
                    "unknown objective `{other}` \
                     (droop | droop-per-amp | sensitive | power | margin)"
                )))
            }
        };
        if let Some(cost) = cost {
            if variant.is_some_and(|prev| prev != cost) {
                return Err(ArgError(
                    "--objective names conflicting droop variants".into(),
                ));
            }
            variant = Some(cost);
        }
        axes.push(axis);
    }
    let set = ObjectiveSet::from_axes(&axes).map_err(|e| ArgError(format!("--objective: {e}")))?;
    Ok((set, variant))
}

/// The canonical spelling of a parsed `--objective` spec: axes in
/// canonical order, the droop axis carrying its variant name.
fn objective_spec_string(set: ObjectiveSet, variant: Option<CostFunction>) -> String {
    let droop = match variant {
        Some(CostFunction::DroopPerAmp) => "droop-per-amp",
        Some(CostFunction::SensitivePathDroop) => "sensitive",
        _ => "droop",
    };
    set.iter()
        .map(|axis| match axis {
            Objective::Droop => droop,
            Objective::Power => "power",
            Objective::Margin => "margin",
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses a comma-separated voltage/clock grid axis for `audit shmoo`.
///
/// # Errors
///
/// Returns [`ArgError`] for a value that does not parse as a number.
pub fn grid_axis(args: &Args, flag: &str, default: &[f64]) -> Result<Vec<f64>, ArgError> {
    match args.opt_flag(flag) {
        None => Ok(default.to_vec()),
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse::<f64>()
                    .map_err(|_| ArgError(format!("{flag}: cannot parse `{s}`")))
            })
            .collect(),
    }
}

/// Resilience policy from `--faults <seed:rates>`, `--repeat`,
/// `--retries`, and `--cycle-budget`. With none of them given this is
/// the no-op default policy (plain measurement path, bit-identical
/// results).
///
/// # Errors
///
/// Returns [`ArgError`] for a malformed fault spec or count.
pub fn policy_from(args: &Args) -> Result<MeasurePolicy, ArgError> {
    let mut policy = MeasurePolicy::disabled();
    if let Some(spec) = args.opt_flag("--faults") {
        policy.faults = FaultPlan::parse(&spec).map_err(|e| ArgError(format!("--faults: {e}")))?;
    }
    if let Some(k) = args.opt_flag("--repeat") {
        policy.repeat = k
            .parse()
            .map_err(|_| ArgError(format!("--repeat: cannot parse `{k}`")))?;
    }
    if let Some(n) = args.opt_flag("--retries") {
        policy.retries = n
            .parse()
            .map_err(|_| ArgError(format!("--retries: cannot parse `{n}`")))?;
    }
    if let Some(b) = args.opt_flag("--cycle-budget") {
        let budget: u64 = b
            .parse()
            .map_err(|_| ArgError(format!("--cycle-budget: cannot parse `{b}`")))?;
        policy.cycle_budget = Some(budget);
    }
    policy.validate().map_err(|e| ArgError(e.to_string()))?;
    Ok(policy)
}

/// Measurement spec from `--cycles` and `--fast`.
///
/// # Errors
///
/// Returns [`ArgError`] for a malformed cycle count or a spec that
/// fails [`MeasureSpec::validate`] (e.g. `--cycles 0`).
pub fn spec_from(args: &Args) -> Result<MeasureSpec, ArgError> {
    let mut spec = if args.bool_flag("--fast") {
        MeasureSpec::ga_eval()
    } else {
        MeasureSpec::reporting()
    };
    if let Some(c) = args.opt_flag("--cycles") {
        let cycles: u64 = c
            .parse()
            .map_err(|_| ArgError(format!("--cycles: cannot parse `{c}`")))?;
        spec.record_cycles = cycles;
    }
    spec.validate().map_err(|e| ArgError(e.to_string()))?;
    Ok(spec)
}

/// Resolves `--workload <benchmark>`, `--stressmark <name>`, or
/// `--file <path.prog>` to a program.
///
/// # Errors
///
/// Returns [`ArgError`] when no selector is given, the name is unknown,
/// or the file fails to read/parse.
pub fn program_from(args: &Args) -> Result<Program, ArgError> {
    if let Some(path) = args.opt_flag("--file") {
        let text =
            std::fs::read_to_string(&path).map_err(|e| ArgError(format!("reading {path}: {e}")))?;
        return progfile::parse(&text).map_err(|e| ArgError(format!("{path}: {e}")));
    }
    if let Some(name) = args.opt_flag("--workload") {
        return workloads::by_name(&name)
            .map(|p| p.synthesize(4_000, 1))
            .ok_or_else(|| ArgError(format!("unknown workload `{name}` (see `audit list`)")));
    }
    if let Some(name) = args.opt_flag("--stressmark") {
        return stressmark_by_name(&name)
            .ok_or_else(|| ArgError(format!("unknown stressmark `{name}` (see `audit list`)")));
    }
    Err(ArgError(
        "need --workload <name>, --stressmark <name>, or --file <path>".into(),
    ))
}

/// Named manual stressmarks.
pub fn stressmark_by_name(name: &str) -> Option<Program> {
    match name.to_ascii_lowercase().as_str() {
        "sm1" => Some(manual::sm1()),
        "sm2" => Some(manual::sm2()),
        "sm-res" | "smres" => Some(manual::sm_res()),
        "barrier" => Some(manual::barrier_burst()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn lint_repair_flag_round_trips_through_the_journal_meta() {
        let args = parse(&["--lint-repair", "--fast"]);
        assert!(options_from(&args).unwrap().ga.lint_repair);
        let saved = args_from_meta(&meta("generate", &args)).unwrap();
        assert!(options_from(&saved).unwrap().ga.lint_repair);
        // Absent, the flag leaves both the options and the recorded
        // argv untouched (the byte-invisibility contract).
        let plain = parse(&["--fast"]);
        assert!(!options_from(&plain).unwrap().ga.lint_repair);
        assert!(!meta("generate", &plain).encode().contains("lint-repair"));
    }

    #[test]
    fn rig_selects_chip_and_voltage() {
        let rig = rig_from(&parse(&["--chip", "phenom", "--volts", "1.1"])).unwrap();
        assert_eq!(rig.chip.name, "phenom-x4");
        assert!((rig.pdn.nominal_voltage() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn rig_rejects_unknown_chip() {
        assert!(rig_from(&parse(&["--chip", "epyc"])).is_err());
    }

    #[test]
    fn throttle_is_applied() {
        let rig = rig_from(&parse(&["--throttle", "1"])).unwrap();
        assert_eq!(rig.chip.module.fp_throttle, Some(1));
    }

    #[test]
    fn program_lookup_both_kinds() {
        assert_eq!(
            program_from(&parse(&["--workload", "zeusmp"]))
                .unwrap()
                .name(),
            "zeusmp"
        );
        assert_eq!(
            program_from(&parse(&["--stressmark", "SM-Res"]))
                .unwrap()
                .name(),
            "SM-Res"
        );
        assert!(program_from(&parse(&["--workload", "crysis"])).is_err());
        assert!(program_from(&parse(&[])).is_err());
    }

    #[test]
    fn options_cost_parse() {
        let opts = options_from(&parse(&["--objective", "droop-per-amp"])).unwrap();
        assert_eq!(opts.cost, CostFunction::DroopPerAmp);
        assert!(options_from(&parse(&["--objective", "cheapest"])).is_err());
        let fast = options_from(&parse(&["--fast"])).unwrap();
        assert!(fast.ga.population <= 8);
    }

    #[test]
    fn workers_flag_sets_eval_threads() {
        let opts = options_from(&parse(&["--workers", "3"])).unwrap();
        assert_eq!(opts.ga.threads, 3);
        let auto = options_from(&parse(&[])).unwrap();
        assert_eq!(auto.ga.threads, 0);
        assert!(options_from(&parse(&["--workers", "many"])).is_err());
    }

    #[test]
    fn policy_flags_parse_and_round_trip_through_meta() {
        let args = parse(&[
            "--faults",
            "7:noise=0.002,hang=0.01",
            "--repeat",
            "3",
            "--retries",
            "5",
            "--cycle-budget",
            "1048576",
        ]);
        let policy = policy_from(&args).unwrap();
        assert!(policy.faults.is_enabled());
        assert_eq!(policy.faults.seed(), 7);
        assert_eq!(policy.repeat, 3);
        assert_eq!(policy.retries, 5);
        assert_eq!(policy.cycle_budget, Some(1 << 20));
        // The same flags land in the options and are journaled as
        // result flags, so --resume reconstructs the policy.
        let restored = args_from_meta(&meta("generate", &args)).unwrap();
        assert_eq!(options_from(&restored).unwrap().policy, policy);
        // Defaults are the no-op policy.
        assert!(policy_from(&parse(&[])).unwrap().is_noop());
        // Malformed inputs are rejected with the flag named.
        assert!(policy_from(&parse(&["--faults", "nonsense"])).is_err());
        assert!(policy_from(&parse(&["--repeat", "0"])).is_err());
        assert!(policy_from(&parse(&["--cycle-budget", "soon"])).is_err());
    }

    #[test]
    fn cascade_flags_parse_and_round_trip_through_meta() {
        let args = parse(&["--fast-tier-budget", "6"]);
        let opts = options_from(&args).unwrap();
        assert_eq!(opts.ga.fast_tier_budget, 6);
        // The flag is journaled, so --resume reconstructs the exact
        // cascade configuration (the budget shapes the search).
        let restored = args_from_meta(&meta("generate", &args)).unwrap();
        let ropts = options_from(&restored).unwrap();
        assert_eq!(ropts.ga.fast_tier_budget, 6);
        // Default: cascade off.
        let plain = options_from(&parse(&[])).unwrap();
        assert_eq!(plain.ga.fast_tier_budget, 0);
        // Malformed values are rejected with the flag named.
        assert!(options_from(&parse(&["--fast-tier-budget", "lots"])).is_err());
    }

    #[test]
    fn objective_flags_parse_normalize_and_round_trip() {
        // Repeated flags accumulate, axes normalize to canonical order,
        // and the journaled value is order-insensitive.
        let a = parse(&["--objective", "margin", "--objective", "droop"]);
        let opts = options_from(&a).unwrap();
        assert_eq!(
            opts.objectives,
            ObjectiveSet::parse("droop,margin").unwrap()
        );
        assert!(opts.ga.pareto, "multi-axis sets engage pareto mode");
        let b = parse(&["--objective", "droop", "--objective", "margin"]);
        assert_eq!(
            meta("generate", &a).encode(),
            meta("generate", &b).encode(),
            "journaled argv must not depend on flag order"
        );
        // The restored argv reconstructs the same options.
        let restored = args_from_meta(&meta("generate", &a)).unwrap();
        assert_eq!(options_from(&restored).unwrap().objectives, opts.objectives);
        // Droop variants select the axis and its cost function.
        let v = options_from(&parse(&["--objective", "droop-per-amp,power"])).unwrap();
        assert_eq!(v.cost, CostFunction::DroopPerAmp);
        assert!(v.objectives.contains(Objective::Power));
        // Scalar default: no flag means droop-only, pareto off.
        let plain = options_from(&parse(&[])).unwrap();
        assert_eq!(plain.objectives, ObjectiveSet::scalar_droop());
        assert!(!plain.ga.pareto);
        // Unknown axes and conflicting variants are rejected.
        assert!(options_from(&parse(&["--objective", "ipc"])).is_err());
        assert!(options_from(&parse(&["--objective", "droop-per-amp,sensitive"])).is_err());
    }

    #[test]
    fn shmoo_grid_axes_parse() {
        let args = parse(&["--grid-volts", "0.95, 1.0,1.05"]);
        assert_eq!(
            grid_axis(&args, "--grid-volts", &[1.0]).unwrap(),
            vec![0.95, 1.0, 1.05]
        );
        assert_eq!(
            grid_axis(&args, "--grid-clocks", &[3.2e9]).unwrap(),
            vec![3.2e9]
        );
        let bad = parse(&["--grid-clocks", "fast"]);
        assert!(grid_axis(&bad, "--grid-clocks", &[]).is_err());
    }

    #[test]
    fn spec_cycles_override() {
        let spec = spec_from(&parse(&["--cycles", "1234"])).unwrap();
        assert_eq!(spec.record_cycles, 1234);
    }

    #[test]
    fn generate_meta_round_trips_result_flags() {
        let original = parse(&[
            "--chip",
            "phenom",
            "--threads",
            "2",
            "--kind",
            "ex",
            "--seed",
            "9",
            "--fast",
            "--out",
            "ignored.asm",
        ]);
        let restored = args_from_meta(&meta("generate", &original)).unwrap();
        let rig = rig_from(&restored).unwrap();
        assert_eq!(rig.chip.name, "phenom-x4");
        assert_eq!(restored.num_flag("--threads", 4usize).unwrap(), 2);
        assert_eq!(restored.str_flag("--kind", "res"), "ex");
        let opts = options_from(&restored).unwrap();
        assert_eq!(opts.ga.seed, 9);
        assert!(opts.ga.population <= 8, "--fast not preserved");
        // Artifact flags are not result flags and are not recorded.
        assert_eq!(restored.opt_flag("--out"), None);
    }

    #[test]
    fn args_from_meta_rejects_malformed_metadata() {
        assert!(args_from_meta(&JsonValue::Null).is_err());
        assert!(args_from_meta(&JsonValue::object(vec![(
            "argv",
            JsonValue::Array(vec![JsonValue::Number(3.0)]),
        )]))
        .is_err());
    }

    #[test]
    fn each_mode_journals_its_argv_byte_for_byte() {
        // Literals captured from the per-mode meta functions this one
        // replaced: a checkpoint's `run_start` must not move a byte.
        let cases: [(&str, &[&str], &str); 5] = [
            (
                "generate",
                &[
                    "generate",
                    "--fast",
                    "--lint-repair",
                    "--chip",
                    "phenom",
                    "--threads",
                    "2",
                    "--seed",
                    "9",
                    "--objective",
                    "margin,droop-per-amp",
                    "--faults",
                    "7:noise=0.002",
                    "--repeat",
                    "2",
                    "--fast-tier-budget",
                    "3",
                    "--workers",
                    "1",
                    "--kind",
                    "ex",
                    "--throttle",
                    "2",
                    "--retries",
                    "3",
                    "--cycle-budget",
                    "1000000",
                    "--volts",
                    "1.3",
                    "--checkpoint",
                    "g.ndjson",
                    "--save",
                    "g.prog",
                ],
                r#"{"argv":["--chip","phenom","--threads","2","--kind","ex","--volts","1.3","--throttle","2","--seed","9","--workers","1","--faults","7:noise=0.002","--repeat","2","--retries","3","--cycle-budget","1000000","--fast-tier-budget","3","--objective","droop-per-amp,margin","--fast","--lint-repair"]}"#,
            ),
            (
                "failure",
                &[
                    "failure",
                    "--stressmark",
                    "sm-res",
                    "--fast",
                    "--threads",
                    "2",
                    "--volts",
                    "1.2",
                    "--throttle",
                    "2",
                    "--cycles",
                    "3000",
                    "--faults",
                    "5:crash=0.2",
                    "--repeat",
                    "2",
                    "--retries",
                    "4",
                    "--cycle-budget",
                    "100000",
                    "--chip",
                    "bulldozer",
                    "--checkpoint",
                    "f.ndjson",
                ],
                r#"{"argv":["--chip","bulldozer","--threads","2","--volts","1.2","--throttle","2","--cycles","3000","--stressmark","sm-res","--faults","5:crash=0.2","--repeat","2","--retries","4","--cycle-budget","100000","--fast"]}"#,
            ),
            (
                "shmoo",
                &[
                    "shmoo",
                    "--workload",
                    "zeusmp",
                    "--fast",
                    "--threads",
                    "2",
                    "--chip",
                    "phenom",
                    "--throttle",
                    "1",
                    "--cycles",
                    "2000",
                    "--faults",
                    "3:noise=0.001",
                    "--repeat",
                    "3",
                    "--retries",
                    "2",
                    "--cycle-budget",
                    "500000",
                    "--grid-volts",
                    "1.1,1.2",
                    "--grid-clocks",
                    "2.8e9,3.0e9",
                    "--checkpoint",
                    "s.ndjson",
                ],
                r#"{"argv":["--chip","phenom","--threads","2","--throttle","1","--cycles","2000","--workload","zeusmp","--faults","3:noise=0.001","--repeat","3","--retries","2","--cycle-budget","500000","--grid-volts","1.1,1.2","--grid-clocks","2.8e9,3.0e9","--fast"]}"#,
            ),
            (
                "shmoo",
                &[
                    "shmoo",
                    "--stressmark",
                    "sm-res",
                    "--volts",
                    "1.15",
                    "--fast",
                    "--threads",
                    "2",
                    "--checkpoint",
                    "v.ndjson",
                ],
                r#"{"argv":["--threads","2","--volts","1.15","--stressmark","sm-res","--fast"]}"#,
            ),
            (
                "minimize",
                &[
                    "minimize",
                    "--input",
                    "w.prog",
                    "--fast",
                    "--threads",
                    "2",
                    "--chip",
                    "bulldozer",
                    "--volts",
                    "1.2",
                    "--throttle",
                    "3",
                    "--cycles",
                    "2000",
                    "--retain",
                    "0.8",
                    "--checkpoint",
                    "m.ndjson",
                    "--out",
                    "k.prog",
                ],
                r#"{"argv":["--chip","bulldozer","--threads","2","--volts","1.2","--throttle","3","--cycles","2000","--retain","0.8","--fast","--input","w.prog"]}"#,
            ),
        ];
        for (mode, argv, pinned) in cases {
            assert_eq!(meta(mode, &parse(argv)).encode(), pinned, "{mode}");
        }
        // A positional minimize input is journaled as `--input`.
        let positional = parse(&["minimize", "w.prog", "--fast"]);
        assert_eq!(
            meta("minimize", &positional).encode(),
            r#"{"argv":["--fast","--input","w.prog"]}"#
        );
    }
}
