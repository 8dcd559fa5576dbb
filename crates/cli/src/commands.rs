//! The `audit` subcommands.

use std::fs;
use std::path::Path;

use audit_analyze::{check, Code, Diagnostic, LintConfig, Severity, VerifyTarget};
use audit_core::audit::{Audit, StressmarkRun};
use audit_core::ga::EvalDispatcher;
use audit_core::harness::Rig;
use audit_core::journal::{Journal, JournalSink, NullSink};
use audit_core::minimize::{MinimizeResult, MinimizeSearch};
use audit_core::report::{mv, Table};
use audit_core::resilient::{self, VminResult, VminSearch};
use audit_core::resonance::{self, ResonanceResult};
use audit_core::shmoo::{ShmooResult, ShmooSweep};
use audit_core::AuditError;
use audit_cpu::{ChipConfig, Program};
use audit_measure::json::JsonValue;
use audit_measure::traceio::{self, FsckVerdict};
use audit_net::{run_worker, Broker, BrokerConfig, EvalContext, NetFaultPlan, WorkerOptions};
use audit_stressmark::{manual, nasm, progfile, workloads};

use crate::args::{ArgError, Args};
use crate::checkpoint::{self, Checkpoint};
use crate::platform;

/// Maps a core error to a CLI error.
pub(crate) fn core_err(e: AuditError) -> ArgError {
    ArgError(e.to_string())
}

/// Help text.
pub(crate) const USAGE: &str = "\
audit — automated di/dt stressmark generation (AUDIT, MICRO 2012)

USAGE:
  audit resonance  [--chip bulldozer|phenom] [--threads N] [--fast]
      Sweep trivial loops for the platform's resonant period.

  audit generate   [--chip C] [--threads N] [--kind res|ex] [--seed S]
                   [--objective droop|droop-per-amp|sensitive|power|margin]...
                   [--throttle N] [--workers N] [--out file.asm]
                   [--save file.prog] [--iterations N] [--fast]
                   [--checkpoint run.ndjson] [--faults SEED:RATES]
                   [--repeat K] [--retries N] [--cycle-budget N]
                   [--fast-tier-budget N] [--lint-repair]
      Evolve a stressmark; --out writes NASM, --save archives the
      lossless .prog form for later `audit measure --file`.
      --lint-repair re-rolls statically-dead mutations (AUD101/AUD104)
      after breeding, before any simulation; deterministic and
      journaled, so results stay bit-identical across worker counts
      and kill/--resume. Off by default: journals of unrepaired runs
      keep their exact prior bytes.
      --workers sets GA evaluation threads (0 = all cores); results
      are bit-identical for any worker count.
      --fast-tier-budget N engages the evaluation cascade: each
      generation, an analytic fast tier ranks the candidates and only
      the top N reach the full simulator (0 = off, the default). The
      budget shapes the search, so it is journaled and restored by
      --resume; for a fixed budget, results stay bit-identical across
      worker counts and kill/--resume.
      --objective selects the fitness axes and may repeat (or take a
      comma list). One axis is the classic scalar search; two or more
      switch the GA to Pareto mode (NSGA-II non-dominated sort), with
      the per-generation fronts journaled. The droop axis may be
      spelled as a cost variant (droop-per-amp, sensitive). Axes are
      order-normalized before journaling, so --resume is insensitive
      to flag order.
      --checkpoint journals every generation to an NDJSON file,
      atomically, so a killed run can be continued.
      --faults injects deterministic measurement faults (e.g.
      7:noise=0.002,outlier=0.001,hang=0.01,crash=0.005); --repeat
      takes the MAD-filtered median of K measurements, --retries
      bounds transient-fault retries, --cycle-budget arms a watchdog.
      Fault schedules are seeded per candidate: results stay
      bit-identical across worker counts and kill/--resume.

  audit generate   --resume run.ndjson [--out file.asm] [--save file.prog]
                   [--iterations N] [--distributed [--listen A] ...]
      Continue a killed --checkpoint run. Configuration flags are
      restored from the journal; the journaled generations are
      replayed without re-simulation and the final stressmark is
      bit-identical to an uninterrupted run's. With --distributed the
      continuation evaluates on workers, prefilling any evaluations
      the dead broker had write-ahead-logged to run.ndjson.wal.

  audit serve      [generate flags] [--listen HOST:PORT|unix:/path]
                   [--min-workers N] [--window N]
                   [--heartbeat MS] [--dead-after MS]
                   [--net-faults SEED:drop=P,dup=P,corrupt=P,stall=P,lie=P]
                   [--verify-fraction F]
      `generate`, but fitness evaluations are dispatched to worker
      processes (`audit work`) over TCP or a Unix socket. Equivalent
      to `audit generate --distributed`. Results, journals, and
      checkpoints are byte-identical to a local run for any worker
      count — workers may join or die mid-run; lost work is retried
      deterministically on the survivors. --listen defaults to
      127.0.0.1:0 (the bound port is printed); --min-workers (default
      1) blocks until that many workers join; --window bounds
      in-flight evaluations per worker (default 2). --heartbeat
      (default 1000 ms) paces liveness pings; --dead-after (default
      10000 ms, must exceed --heartbeat) declares a silent worker lost
      and doubles as the dispatch lease. --verify-fraction (0..=1,
      default 0) cross-validates that hash-selected fraction of jobs
      on two workers and evicts any worker whose answer loses the
      vote. --net-faults arms deterministic chaos at the broker's wire
      boundary (drops, duplicates, bit-flips, stalls, byzantine lies
      — see docs/ROBUSTNESS.md); every decision is a pure hash, so a
      chaos campaign replays exactly. None of these knobs touch
      results or journal bytes.

  audit work       --connect HOST:PORT|unix:/path
                   [--connect-for MS] [--connect-retry MS]
      Join a broker and serve fitness evaluations until released. The
      worker learns the chip, operating point, and fitness function
      from the broker — no other flags needed. --connect-for (default
      30000 ms) bounds how long to keep trying the initial connect;
      --connect-retry (default 100 ms) is the base of the worker's
      jittered exponential backoff. A worker severed mid-run (broker
      restart, eviction, network fault) automatically rejoins while
      the broker is reachable and exits cleanly once it is gone.

  audit fleet      serve [--listen HOST:PORT|unix:/path] [--min-workers N]
                   [--campaigns N] [--window N] [--heartbeat MS]
                   [--dead-after MS] [--net-faults SEED:drop=P,…]
                   [--verify-fraction F]
      Host a multi-tenant campaign manager: many concurrent GA
      campaigns fair-share-scheduled (deterministic weighted
      round-robin) over one shared worker pool, with worker-side eval
      caches shared across campaigns. Workers join exactly as for
      `serve` (`audit work --connect`). Each campaign's journal is
      byte-identical to its solo run regardless of co-tenants, worker
      count, chaos, or manager restarts (see docs/FLEET.md).
      --campaigns N exits after N campaigns complete (0 = serve
      forever); the remaining knobs match `audit serve`, applied
      per campaign.

  audit fleet      submit --connect ADDR [--weight N]
                   (--checkpoint run.ndjson | --resume run.ndjson)
                   [generate flags]
      Submit a campaign to a fleet manager and block until it
      finishes. Generate flags (--chip, --seed, --objective, …) shape
      the campaign exactly as for `audit generate`; the checkpoint
      path is resolved on the manager's filesystem. --weight (default
      1) is the campaign's fair-share weight; --resume continues a
      checkpoint from a previous (possibly killed) manager.

  audit fleet      (status | metrics) --connect ADDR
      Fetch the manager's per-campaign progress report or its
      plain-text metrics scrape (same format as the broker's
      `audit serve` metrics endpoint).

  audit journal    fsck <run.ndjson> [--repair]
      Classify a checkpoint journal or dispatch WAL: clean, torn tail
      (the ordinary crash signature --resume already tolerates), or
      corrupt interior (bit rot --resume refuses). Reports the longest
      valid prefix and a per-kind record census. With --repair the
      file is atomically truncated to that prefix, reviving the
      checkpoint for --resume. Exits non-zero if the file is (still)
      not resumable.

  audit measure    (--workload NAME | --stressmark NAME | --file X.prog)
                   [--threads N] [--chip C] [--volts V] [--throttle N]
                   [--cycles N] [--fast] [--faults SEED:RATES]
                   [--repeat K] [--retries N] [--cycle-budget N]
      Run a workload and report droop, power, and IPC. The resilience
      flags behave as in `generate`.

  audit failure    (--workload NAME | --stressmark NAME | --file X.prog)
                   [--threads N] [--chip C] [--throttle N] [--fast]
                   [--faults SEED:RATES] [--retries N] [--cycle-budget N]
                   [--checkpoint run.ndjson]
      Bisect Vdd to the failure point (12.5 mV resolution). With
      --checkpoint every probed voltage is journaled write-ahead, so a
      crashed search resumes without repeating completed probes.

  audit failure    --resume run.ndjson
      Continue a killed --checkpoint Vmin search. Configuration is
      restored from the journal; settled probes are replayed and the
      answer is bit-identical to an uninterrupted search.

  audit shmoo      (--workload NAME | --stressmark NAME | --file X.prog)
                   [--threads N] [--chip C] [--throttle N] [--fast]
                   [--grid-volts V1,V2,..] [--grid-clocks HZ1,HZ2,..]
                   [--faults SEED:RATES] [--retries N] [--cycle-budget N]
                   [--checkpoint run.ndjson]
      Sweep the voltage × frequency plane: at every operating point,
      bisect Vdd to the failure point and report the safe margin. The
      grids default to ±5% of nominal voltage and ±12.5% of nominal
      clock. With --checkpoint every point and probe is journaled
      write-ahead, so a sweep killed mid-plane resumes without
      repeating settled points.

  audit shmoo      --resume run.ndjson
      Continue a killed --checkpoint shmoo sweep. The grid and
      workload are restored from the journal; done points replay, the
      interrupted point resumes its own bisection trail, and the
      surface is bit-identical to an uninterrupted sweep.

  audit minimize   (<witness.prog> | <generate-ckpt.ndjson>) [--retain F]
                   [--threads N] [--chip C] [--volts V] [--throttle N]
                   [--cycles N] [--fast] [--checkpoint run.ndjson]
                   [--out kernel.prog]
      Delta-debug an evolved witness down to a 1-minimal kernel that
      still retains --retain (default 0.90) of the full program's peak
      droop on the simulator. A *finished* `generate` checkpoint may
      be given directly: the winning stressmark and its platform are
      reconstructed from the journal (a .prog file instead takes the
      platform flags from the command line). With --checkpoint every
      probe is journaled write-ahead, so a killed minimization resumes
      without repeating settled probes; --out archives the minimized
      kernel in .prog form, small enough to read, re-lint, and check
      in as a regression corpus.

  audit minimize   --resume run.ndjson [--out kernel.prog]
      Continue a killed --checkpoint minimization. The input and knobs
      are restored from the journal; settled probes are replayed and
      the kernel is bit-identical to an uninterrupted run's.

  audit lint       (<file.prog> | --builtin NAME | --all-builtins)
                   [--chip bulldozer|phenom] [--json] [--deny-warnings]
                   [--allow AUD###[,..]] [--deny AUD###[,..]]
      Statically verify and lint a stressmark. File diagnostics carry
      source line numbers; --chip also checks chip capabilities (e.g.
      FMA on Phenom). Exits non-zero on any error-level finding.

  audit list
      List available workloads and manual stressmarks.

  audit spice      [--chip C] [--out file.sp] [--cycles N]
      Capture a current trace and emit a SPICE deck of the PDN.
";

/// `audit resonance`.
pub(crate) fn resonance(args: &Args) -> Result<(), ArgError> {
    let rig = platform::rig_from(args)?;
    let threads = platform::threads_from(args, &rig)?;
    let spec = platform::spec_from(args)?;
    args.reject_unknown()?;

    let result = resonance::find_resonance(&rig, threads, resonance::default_periods(), spec);
    let mut t = Table::new(vec!["period (cycles)", "frequency (MHz)", "max droop"]);
    for (p, d) in &result.samples {
        t.row(vec![
            p.to_string(),
            format!("{:.0}", rig.chip.clock_hz / *p as f64 / 1e6),
            mv(*d),
        ]);
    }
    println!("{t}");
    println!(
        "resonance: {} cycles ({:.0} MHz), droop {}",
        result.period_cycles,
        result.frequency_hz / 1e6,
        mv(result.peak_droop())
    );
    Ok(())
}

/// `audit generate`.
pub(crate) fn generate(args: &Args) -> Result<(), ArgError> {
    let distributed = args.bool_flag("--distributed");
    generate_inner(args, distributed)
}

/// `audit serve`: `generate` with the distributed broker always on.
pub(crate) fn serve(args: &Args) -> Result<(), ArgError> {
    generate_inner(args, true)
}

fn generate_inner(args: &Args, distributed: bool) -> Result<(), ArgError> {
    let (mut checkpoint, cfg) = Checkpoint::new(args, "generate")?;
    let setup = GenerateConfig::from_args(&cfg)?;
    let out = args.opt_flag("--out");
    let save = args.opt_flag("--save");
    let iterations = args.num_flag("--iterations", 100_000_000u64)?;
    let dist = distributed.then(|| dist_flags(args)).transpose()?;
    let wal = checkpoint.path().map(|path| format!("{path}.wal"));
    let (journal, sink) = checkpoint.open()?;
    let run = match &dist {
        Some(dist) => run_distributed(&setup, &cfg, dist, journal, sink, wal)?,
        None => setup.run_local(journal, sink)?,
    };
    checkpoint.close()?;
    print_run(&run, out, save, iterations)
}

/// A `generate` run's result-shaping configuration (`--chip`,
/// `--threads`, `--kind`, the GA options), read from the live argv or a
/// checkpoint's saved one and validated before any journal exists.
pub(crate) struct GenerateConfig {
    audit: Audit,
    threads: usize,
    /// `--kind ex`: the excitation search; otherwise the resonant one.
    excitation: bool,
}

impl GenerateConfig {
    pub(crate) fn from_args(cfg: &Args) -> Result<Self, ArgError> {
        let rig = platform::rig_from(cfg)?;
        let threads = platform::threads_from(cfg, &rig)?;
        let excitation = match cfg.str_flag("--kind", "res").as_str() {
            "res" => false,
            "ex" => true,
            other => return Err(ArgError(format!("unknown kind `{other}` (res | ex)"))),
        };
        let audit = Audit::new(rig, platform::options_from(cfg)?);
        Ok(GenerateConfig {
            audit,
            threads,
            excitation,
        })
    }

    /// Runs the search in-process, resuming `journal`.
    fn run_local(
        &self,
        journal: &Journal,
        sink: &mut dyn JournalSink,
    ) -> Result<StressmarkRun, ArgError> {
        if self.excitation {
            self.audit.resume_excitation(journal, self.threads, sink)
        } else {
            self.audit.resume_resonant(journal, self.threads, sink)
        }
        .map_err(core_err)
    }

    /// Runs the search through the dispatcher `connect` builds from the
    /// worker context, resuming `journal`. The resonance sweep runs
    /// here, not on workers: it is cheap next to the GA, and its result
    /// describes the fitness function to them; a completed sweep is
    /// decoded from the journal. Returns the dispatcher with the GA's
    /// outcome, so the caller settles it either way.
    pub(crate) fn run_dispatched<D: EvalDispatcher>(
        &self,
        cfg: &Args,
        journal: &Journal,
        sink: &mut dyn JournalSink,
        connect: impl FnOnce(EvalContext) -> Result<D, ArgError>,
    ) -> Result<(D, Result<StressmarkRun, AuditError>), ArgError> {
        let (audit, threads) = (&self.audit, self.threads);
        let resonance = match journal.phase_payload("resonance") {
            Some(payload) => ResonanceResult::from_json(payload).map_err(core_err)?,
            None => audit.journaled_resonance(threads, sink).map_err(core_err)?,
        };
        let (fspec, name) = if self.excitation {
            (
                audit.excitation_fitness_spec(threads),
                format!("A-Ex-{threads}T"),
            )
        } else {
            let fspec = audit.resonant_fitness_spec(threads, resonance.period_cycles);
            (fspec, format!("A-Res-{threads}T"))
        };
        let mut dispatcher = connect(eval_context(cfg, fspec)?)?;
        // `seed_miss_load` selects the excitation seeding.
        let run = audit.evolve_dispatched(
            &name,
            &fspec,
            resonance,
            self.excitation,
            &mut dispatcher,
            sink,
            Some(journal),
        );
        Ok((dispatcher, run))
    }

    /// The GA seed (it also seeds dispatch's assignment hashes).
    pub(crate) fn seed(&self) -> u64 {
        self.audit.options().ga.seed
    }
}

/// `audit work`: serve evaluations to a broker until released.
pub(crate) fn work(args: &Args) -> Result<(), ArgError> {
    let connect = args
        .opt_flag("--connect")
        .ok_or_else(|| ArgError("audit work needs --connect HOST:PORT or unix:/path".into()))?;
    let connect_for = args.num_flag("--connect-for", 30_000u64)?;
    let connect_retry = args.num_flag("--connect-retry", 100u64)?;
    if connect_retry == 0 {
        return Err(ArgError("--connect-retry must be at least 1 ms".into()));
    }
    args.reject_unknown()?;

    let opts = WorkerOptions {
        connect_for: std::time::Duration::from_millis(connect_for),
        connect_retry: std::time::Duration::from_millis(connect_retry),
        // Decorrelate a fleet's retry storms; the schedule of any one
        // worker process stays reproducible.
        jitter_salt: u64::from(std::process::id()),
        // A worker process severed mid-run (broker restart, eviction,
        // chaos) rejoins while the broker is reachable.
        rejoin: true,
        max_evals: None,
    };
    println!("worker connecting to {connect}…");
    let stats = run_worker(&connect, &opts).map_err(core_err)?;
    println!(
        "served {} evaluation(s); {}",
        stats.evaluations,
        if stats.clean_exit {
            "released by broker"
        } else {
            "session ended"
        }
    );
    Ok(())
}

/// `audit journal`: offline journal maintenance. Currently one
/// subcommand, `fsck`.
pub(crate) fn journal(args: &Args) -> Result<(), ArgError> {
    match (
        args.positionals().get(1).map(String::as_str),
        args.positionals().get(2),
    ) {
        (Some("fsck"), Some(path)) => journal_fsck(args, path),
        (Some(other), _) if other != "fsck" => Err(ArgError(format!(
            "unknown journal subcommand `{other}` (expected `fsck`)"
        ))),
        _ => Err(ArgError(
            "usage: audit journal fsck <run.ndjson> [--repair]".into(),
        )),
    }
}

/// `audit journal fsck`: classify (and optionally repair) a checkpoint
/// journal or dispatch WAL.
fn journal_fsck(args: &Args, path: &str) -> Result<(), ArgError> {
    let repair = args.bool_flag("--repair");
    args.reject_unknown()?;

    let report = if repair {
        traceio::fsck_repair(path)
    } else {
        traceio::fsck(path)
    }
    .map_err(core_err)?;

    let verdict = match report.verdict {
        FsckVerdict::Clean => "clean".to_string(),
        FsckVerdict::TornTail => "torn tail (crash mid-append; --resume drops it)".to_string(),
        FsckVerdict::CorruptInterior { line } => {
            format!("corrupt interior (first damaged line: {line})")
        }
    };
    println!("{path}: {verdict}");
    println!(
        "  valid prefix: {} of {} bytes, {} record(s)",
        report.valid_bytes, report.total_bytes, report.records
    );
    let mut t = Table::new(vec!["kind", "records"]);
    for (kind, n) in &report.kind_counts {
        t.row(vec![kind.clone(), n.to_string()]);
    }
    if report.records > 0 {
        println!("{t}");
    }
    if repair && report.verdict != FsckVerdict::Clean {
        println!(
            "repaired: truncated to the {}-byte valid prefix",
            report.valid_bytes
        );
    }
    if !repair && !report.resumable() {
        return Err(ArgError(format!(
            "{path} is not resumable; re-run with --repair to truncate \
             it to its valid prefix"
        )));
    }
    Ok(())
}

/// The distribution flags (`--listen`, `--min-workers`, `--window`,
/// `--heartbeat`, `--dead-after`, `--verify-fraction`, `--net-faults`).
/// Deliberately *not* recorded in the checkpoint metadata: they are
/// result-neutral, so a local and a distributed run of the same
/// configuration produce byte-identical journals — including a run
/// under chaos, whose defenses (re-dispatch, cross-validation,
/// eviction) converge on the same bytes.
pub(crate) struct DistFlags {
    pub(crate) listen: String,
    pub(crate) min_workers: usize,
    pub(crate) window: usize,
    pub(crate) heartbeat: std::time::Duration,
    pub(crate) dead_after: std::time::Duration,
    pub(crate) verify_fraction: f64,
    pub(crate) chaos: NetFaultPlan,
}

pub(crate) fn dist_flags(args: &Args) -> Result<DistFlags, ArgError> {
    let heartbeat = args.num_flag("--heartbeat", 1000u64)?;
    let dead_after = args.num_flag("--dead-after", 10_000u64)?;
    if heartbeat == 0 {
        return Err(ArgError("--heartbeat must be at least 1 ms".into()));
    }
    if dead_after <= heartbeat {
        return Err(ArgError(format!(
            "--dead-after ({dead_after} ms) must exceed --heartbeat ({heartbeat} ms); \
             a worker must miss at least one ping before it is declared lost"
        )));
    }
    let verify_fraction = args.num_flag("--verify-fraction", 0.0f64)?;
    if !(0.0..=1.0).contains(&verify_fraction) {
        return Err(ArgError(format!(
            "--verify-fraction must be within 0..=1, got {verify_fraction}"
        )));
    }
    let chaos = match args.opt_flag("--net-faults") {
        Some(spec) => NetFaultPlan::parse(&spec).map_err(core_err)?,
        None => NetFaultPlan::disabled(),
    };
    Ok(DistFlags {
        listen: args.str_flag("--listen", "127.0.0.1:0"),
        min_workers: args.num_flag("--min-workers", 1usize)?,
        window: args.num_flag("--window", 2usize)?,
        heartbeat: std::time::Duration::from_millis(heartbeat),
        dead_after: std::time::Duration::from_millis(dead_after),
        verify_fraction,
        chaos,
    })
}

/// The distributed `generate` driver: a broker dispatching GA
/// evaluations to `audit work` processes. With a checkpoint, dispatch
/// is write-ahead-logged to `wal`, which is deleted once the run
/// completes.
fn run_distributed(
    setup: &GenerateConfig,
    cfg: &Args,
    dist: &DistFlags,
    journal: &Journal,
    sink: &mut dyn JournalSink,
    wal: Option<String>,
) -> Result<StressmarkRun, ArgError> {
    let (mut broker, run) = setup.run_dispatched(cfg, journal, sink, |ctx| {
        let broker_cfg = BrokerConfig {
            seed: setup.seed(),
            window: dist.window.max(1),
            heartbeat: dist.heartbeat,
            dead_after: dist.dead_after,
            verify_fraction: dist.verify_fraction,
            chaos: dist.chaos,
            ..BrokerConfig::default()
        };
        let mut broker = Broker::bind(&dist.listen, &ctx, broker_cfg).map_err(core_err)?;
        if let Some(wal) = wal {
            broker.attach_wal(Path::new(&wal)).map_err(core_err)?;
        }
        println!("broker listening on {}", broker.addr());
        println!("  join with: audit work --connect {}", broker.addr());
        if dist.min_workers > 0 {
            println!("waiting for {} worker(s)…", dist.min_workers);
            broker
                .wait_for_workers(dist.min_workers)
                .map_err(core_err)?;
        }
        Ok(broker)
    })?;
    let run = run.map_err(core_err)?;
    broker.discard_wal();
    broker.shutdown();
    Ok(run)
}

/// Builds the worker-setup context from the platform flags.
fn eval_context(plat: &Args, fspec: audit_core::FitnessSpec) -> Result<EvalContext, ArgError> {
    let volts = match plat.opt_flag("--volts") {
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| ArgError(format!("--volts: cannot parse `{v}`")))?,
        ),
        None => None,
    };
    let throttle = match plat.opt_flag("--throttle") {
        Some(cap) => Some(
            cap.parse::<u32>()
                .map_err(|_| ArgError(format!("--throttle: cannot parse `{cap}`")))?,
        ),
        None => None,
    };
    let fast_tier_budget = match plat.opt_flag("--fast-tier-budget") {
        Some(b) => b
            .parse::<usize>()
            .map_err(|_| ArgError(format!("--fast-tier-budget: cannot parse `{b}`")))?,
        None => 0,
    };
    Ok(EvalContext {
        chip: plat.str_flag("--chip", "bulldozer"),
        volts,
        throttle,
        spec: fspec,
        fast_tier_budget,
    })
}

/// Prints a finished run and writes its `--out` / `--save` artifacts.
fn print_run(
    run: &StressmarkRun,
    out: Option<String>,
    save: Option<String>,
    iterations: u64,
) -> Result<(), ArgError> {
    println!("{}:", run.name);
    println!(
        "  resonance    : {} cycles ({:.0} MHz)",
        run.resonance.period_cycles,
        run.resonance.frequency_hz / 1e6
    );
    println!("  best droop   : {}", mv(run.best_droop));
    println!(
        "  GA           : {} generations, {} simulations + {} cache hits ({:.0}% memoized)",
        run.ga.generations_run,
        run.ga.evaluations,
        run.ga.cache_hits,
        100.0 * run.ga.telemetry.cache_hit_rate()
    );
    println!(
        "  GA wall time : {:.2} s on {} worker(s), {:.0} evals/s",
        run.ga.telemetry.total_wall_s,
        run.ga.telemetry.threads,
        run.ga.telemetry.evals_per_second()
    );
    println!(
        "  loop         : {} instructions ({} HP + {} LP NOPs)",
        run.program.len(),
        run.kernel.hp().len(),
        run.kernel.lp_nops()
    );
    if let Some(front) = &run.ga.pareto_front {
        println!("  pareto front : {} non-dominated genome(s)", front.len());
        for member in front.iter().take(5) {
            let axes: Vec<String> = member
                .objectives
                .0
                .iter()
                .map(|x| format!("{x:.4}"))
                .collect();
            println!("                 [{}]", axes.join(", "));
        }
        if front.len() > 5 {
            println!("                 … {} more", front.len() - 5);
        }
    }
    if run.resilience.evaluations > 0 {
        println!(
            "  resilience   : {} eval(s), {} retry(ies), {} quarantined, backoff {} cycles",
            run.resilience.evaluations,
            run.resilience.retries,
            run.resilience.quarantined,
            run.resilience.backoff_cycles
        );
    }

    if let Some(path) = out {
        let asm = nasm::emit(&run.program, iterations);
        fs::write(&path, asm).map_err(|e| ArgError(format!("writing {path}: {e}")))?;
        println!("  wrote        : {path}");
    }
    if let Some(path) = save {
        let text = audit_stressmark::progfile::emit(&run.program);
        fs::write(&path, text).map_err(|e| ArgError(format!("writing {path}: {e}")))?;
        println!("  saved        : {path}");
    }
    Ok(())
}

/// `audit measure`.
pub(crate) fn measure(args: &Args) -> Result<(), ArgError> {
    let rig = platform::rig_from(args)?;
    let threads = platform::threads_from(args, &rig)?;
    let spec = platform::spec_from(args)?;
    let policy = platform::policy_from(args)?;
    let program = platform::program_from(args, &rig)?;
    args.reject_unknown()?;

    let programs = vec![program.clone(); threads];
    println!("{} × {threads}T on {}:", program.name(), rig.chip.name);
    let m = if policy.is_noop() {
        rig.measure_aligned(&programs, spec)
    } else {
        let key = resilient::program_key(&programs);
        let offsets = vec![0; threads];
        let outcome = policy.measure(&rig, &programs, &offsets, spec, key);
        println!(
            "  resilience   : {} attempt(s), {} of {} repeats kept, backoff {} cycles",
            outcome.attempts, outcome.repeats_kept, policy.repeat, outcome.backoff_cycles
        );
        match outcome.measurement {
            Some(m) => m,
            None => {
                println!(
                    "  quarantined  : no clean measurement in {} attempts",
                    outcome.attempts
                );
                return Ok(());
            }
        }
    };
    println!("  max droop    : {}", mv(m.max_droop()));
    println!("  overshoot    : {}", mv(m.stats.overshoot()));
    println!("  mean current : {:.1} A", m.mean_amps);
    println!("  IPC (chip)   : {:.2}", m.ipc);
    println!("  droop events : {}", m.trigger_events);
    println!("  failed       : {}", m.failed);
    Ok(())
}

/// `audit failure`: the crash-tolerant Vmin bisection.
pub(crate) fn failure(args: &Args) -> Result<(), ArgError> {
    let (mut checkpoint, cfg) = Checkpoint::new(args, "failure")?;
    let rig = platform::rig_from(&cfg)?;
    let threads = platform::threads_from(&cfg, &rig)?;
    let spec = platform::spec_from(&cfg)?;
    let policy = platform::policy_from(&cfg)?;
    let program = platform::program_from(&cfg, &rig)?;
    let (journal, sink) = checkpoint.open()?;

    let programs = vec![program.clone(); threads];
    let offsets = vec![0; threads];
    let search = VminSearch::paper(rig.pdn.nominal_voltage(), policy);
    println!(
        "bisecting from {:.4} V to {:.4} mV resolution…",
        search.v_start,
        search.resolution * 1e3
    );
    let result = search
        .resume_from(journal, &rig, &programs, &offsets, spec, sink)
        .map_err(core_err)?;
    checkpoint.close()?;
    print_vmin(program.name(), threads, &result);
    Ok(())
}

/// Prints a finished Vmin search.
fn print_vmin(name: &str, threads: usize, result: &VminResult) {
    match result.v_fail {
        Some(vf) => println!("{name} × {threads}T fails at {vf:.4} V"),
        None => println!("{name} × {threads}T never failed above the search floor"),
    }
    println!(
        "  probes       : {} ({} live, {} replayed)",
        result.steps,
        result.live_steps,
        result.steps - result.live_steps
    );
    if result.crashes > 0 || result.retries > 0 || result.quarantined > 0 {
        println!(
            "  resilience   : {} crash(es) survived, {} retry(ies), {} quarantined step(s)",
            result.crashes, result.retries, result.quarantined
        );
    }
}

/// `audit minimize`: the delta-debugged witness minimizer.
pub(crate) fn minimize(args: &Args) -> Result<(), ArgError> {
    let (mut checkpoint, cfg) = Checkpoint::new(args, "minimize")?;
    let input = platform::minimize_input(&cfg).ok_or_else(|| {
        ArgError("audit minimize needs an input: a .prog file or a generate checkpoint".into())
    })?;
    let (program, search, rig) = minimize_setup(&cfg, &input)?;
    let out = args.opt_flag("--out");
    let (journal, sink) = checkpoint.open()?;

    println!(
        "minimizing {} ({} instructions), keeping ≥{:.0}% of baseline droop…",
        program.name(),
        program.len(),
        search.retain * 100.0
    );
    let result = search
        .resume_from(journal, &rig, &program, sink)
        .map_err(core_err)?;
    checkpoint.close()?;
    print_minimize(&program, search.threads, &result, out)
}

/// Builds the (witness, search, rig) triple from the minimize input:
/// either a finished `generate` checkpoint — the evolved stressmark
/// and the platform it was evolved on are reconstructed from the
/// journal — or a `.prog` file, with the platform taken from `args`.
/// The probe spec always comes from `args` (`--fast` / `--cycles`), so
/// probe cost is the minimizing run's own choice.
fn minimize_setup(args: &Args, input: &str) -> Result<(Program, MinimizeSearch, Rig), ArgError> {
    let retain = args.num_flag("--retain", 0.9f64)?;
    let spec = platform::spec_from(args)?;
    let text = fs::read_to_string(input).map_err(|e| ArgError(format!("reading {input}: {e}")))?;
    let (program, threads, rig) = if text.trim_start().starts_with('{') {
        let (journal, saved) = checkpoint::load(input, "generate")?;
        if !journal.is_complete() {
            return Err(ArgError(format!(
                "{input}: generate run is incomplete — finish it with \
                 `audit generate --resume {input}` first"
            )));
        }
        let setup = GenerateConfig::from_args(&saved)?;
        let run = setup.run_local(&journal, &mut NullSink)?;
        (run.program, setup.threads, setup.audit.rig().clone())
    } else {
        let program = progfile::parse(&text).map_err(|e| ArgError(format!("{input}: {e}")))?;
        let rig = platform::rig_from(args)?;
        let threads = platform::threads_from(args, &rig)?;
        (platform::runnable(&rig, program)?, threads, rig)
    };
    let mut search = MinimizeSearch::new(threads, spec);
    search.retain = retain;
    search.validate().map_err(core_err)?;
    Ok((program, search, rig))
}

/// Prints a finished minimization and writes the `--out` kernel.
fn print_minimize(
    original: &Program,
    threads: usize,
    result: &MinimizeResult,
    out: Option<String>,
) -> Result<(), ArgError> {
    println!("{} × {threads}T minimized:", original.name());
    println!(
        "  baseline     : {} over {} instructions",
        mv(result.baseline),
        original.len()
    );
    println!(
        "  minimized    : {} over {} instructions ({:.1}% droop retained)",
        mv(result.droop),
        result.program.len(),
        100.0 * result.droop / result.baseline
    );
    println!(
        "  probes       : {} ({} live, {} replayed)",
        result.steps,
        result.live_steps,
        result.steps - result.live_steps
    );
    if let Some(path) = out {
        let text = progfile::emit(&result.program);
        fs::write(&path, text).map_err(|e| ArgError(format!("writing {path}: {e}")))?;
        println!("  saved        : {path}");
    }
    Ok(())
}

/// `audit shmoo`: sweep the V/F plane, running a Vmin search at every
/// operating point, and report the safe-margin surface.
pub(crate) fn shmoo(args: &Args) -> Result<(), ArgError> {
    let (mut checkpoint, cfg) = Checkpoint::new(args, "shmoo")?;
    let rig = platform::rig_from(&cfg)?;
    let threads = platform::threads_from(&cfg, &rig)?;
    let spec = platform::spec_from(&cfg)?;
    let policy = platform::policy_from(&cfg)?;
    let program = platform::program_from(&cfg, &rig)?;
    let sweep = shmoo_sweep(&cfg, &rig, spec, policy)?;
    let (journal, sink) = checkpoint.open()?;

    let programs = vec![program.clone(); threads];
    let offsets = vec![0; threads];
    println!(
        "sweeping {} × {} operating points…",
        sweep.volts.len(),
        sweep.clocks_hz.len()
    );
    let result = sweep
        .resume_from(journal, &rig, &programs, &offsets, sink)
        .map_err(core_err)?;
    checkpoint.close()?;
    print_shmoo(program.name(), threads, &sweep, &result);
    Ok(())
}

/// Builds the sweep from `--grid-volts`/`--grid-clocks`, defaulting to
/// ±5% of the rig's nominal voltage and ±12.5% of its nominal clock.
fn shmoo_sweep(
    args: &Args,
    rig: &audit_core::harness::Rig,
    spec: audit_core::MeasureSpec,
    policy: audit_core::MeasurePolicy,
) -> Result<ShmooSweep, ArgError> {
    let v = rig.pdn.nominal_voltage();
    let f = rig.chip.clock_hz;
    let volts = platform::grid_axis(args, "--grid-volts", &[0.95 * v, v, 1.05 * v])?;
    let clocks = platform::grid_axis(args, "--grid-clocks", &[0.875 * f, f, 1.125 * f])?;
    let sweep = ShmooSweep::grid(volts, clocks, spec, policy);
    sweep.validate().map_err(core_err)?;
    Ok(sweep)
}

/// Prints the margin surface as a volts × clocks table.
fn print_shmoo(name: &str, threads: usize, sweep: &ShmooSweep, result: &ShmooResult) {
    let mut header = vec!["Vdd \\ clock".to_string()];
    header.extend(
        sweep
            .clocks_hz
            .iter()
            .map(|hz| format!("{:.0} MHz", hz / 1e6)),
    );
    let mut t = Table::new(header.iter().map(String::as_str).collect());
    let cols = sweep.clocks_hz.len();
    for (r, &volts) in sweep.volts.iter().enumerate() {
        let mut row = vec![format!("{volts:.4} V")];
        for c in 0..cols {
            let cell = &result.cells[r * cols + c];
            row.push(format!("{:.4} V", cell.margin));
        }
        t.row(row);
    }
    println!("{t}");
    println!(
        "{name} × {threads}T: {} point(s) ({} live, {} replayed)",
        result.cells.len(),
        result.live_points,
        result.replayed_points
    );
}

/// One analyzed program: its diagnostics plus optional source info
/// (present only for `.prog` files): the body-index → byte-span table
/// and the total byte length of the source text.
struct LintReport {
    name: String,
    diags: Vec<Diagnostic>,
    source: Option<(Vec<progfile::Span>, usize)>,
}

/// Every built-in program `--all-builtins` covers: the synthetic
/// workload suites plus the paper's manual stressmarks.
fn all_builtins() -> Vec<Program> {
    let mut programs: Vec<Program> = workloads::spec2006()
        .iter()
        .chain(workloads::parsec().iter())
        .map(|w| w.synthesize(4_000, 1))
        .collect();
    programs.extend([
        manual::sm1(),
        manual::sm2(),
        manual::sm_res(),
        manual::barrier_burst(),
    ]);
    programs
}

/// Looks a `--builtin NAME` up among workloads and manual stressmarks.
fn builtin_by_name(name: &str) -> Result<Program, ArgError> {
    if let Some(w) = workloads::by_name(name) {
        return Ok(w.synthesize(4_000, 1));
    }
    platform::stressmark_by_name(name)
        .ok_or_else(|| ArgError(format!("unknown builtin `{name}` (see `audit list`)")))
}

/// Parses a comma-separated `--allow`/`--deny` code list.
fn codes_from(list: &str, flag: &str) -> Result<Vec<Code>, ArgError> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| Code::parse(s).ok_or_else(|| ArgError(format!("{flag}: unknown code `{s}`"))))
        .collect()
}

fn span_to_json(span: progfile::Span) -> JsonValue {
    JsonValue::object(vec![
        ("line", JsonValue::from_u64(span.line as u64)),
        ("start", JsonValue::from_u64(span.start as u64)),
        ("end", JsonValue::from_u64(span.end as u64)),
    ])
}

fn diag_to_json(d: &Diagnostic, source: Option<&(Vec<progfile::Span>, usize)>) -> JsonValue {
    let mut fields = vec![
        ("code", JsonValue::String(d.code.as_str().to_string())),
        (
            "severity",
            JsonValue::String(
                match d.severity {
                    Severity::Warning => "warning",
                    Severity::Error => "error",
                }
                .to_string(),
            ),
        ),
        ("message", JsonValue::String(d.message.clone())),
    ];
    if let Some(i) = d.inst_index {
        fields.push(("inst", JsonValue::from_u64(i as u64)));
    }
    // Every diagnostic of a `.prog` file carries a byte span: the
    // offending instruction's when it names one, the whole file's for
    // program-level findings.
    if let Some((spans, len)) = source {
        let span = d
            .inst_index
            .and_then(|i| spans.get(i).copied())
            .unwrap_or(progfile::Span {
                line: 1,
                start: 0,
                end: *len,
            });
        fields.push(("span", span_to_json(span)));
    }
    if let Some(help) = &d.help {
        fields.push(("help", JsonValue::String(help.clone())));
    }
    JsonValue::object(fields)
}

fn print_report(report: &LintReport, json: bool) {
    if json {
        let value = JsonValue::object(vec![
            ("program", JsonValue::String(report.name.clone())),
            (
                "diagnostics",
                JsonValue::Array(
                    report
                        .diags
                        .iter()
                        .map(|d| diag_to_json(d, report.source.as_ref()))
                        .collect(),
                ),
            ),
        ]);
        println!("{}", value.encode());
        return;
    }
    if report.diags.is_empty() {
        println!("{}: clean", report.name);
        return;
    }
    println!("{}:", report.name);
    for d in &report.diags {
        let location = match (d.inst_index, &report.source) {
            (Some(i), Some((spans, _))) => spans
                .get(i)
                .map(|span| format!("line {}", span.line))
                .unwrap_or_else(|| format!("inst {i}")),
            (Some(i), None) => format!("inst {i}"),
            (None, _) => "program".to_string(),
        };
        let severity = match d.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        println!("  {} {severity} [{location}]: {}", d.code, d.message);
        if let Some(help) = &d.help {
            println!("    help: {help}");
        }
    }
}

/// `audit lint`.
pub(crate) fn lint(args: &Args) -> Result<(), ArgError> {
    let builtin = args.opt_flag("--builtin");
    let all = args.bool_flag("--all-builtins");
    let chip = args.opt_flag("--chip");
    let json = args.bool_flag("--json");
    let deny_warnings = args.bool_flag("--deny-warnings");
    let allow = args.opt_flag("--allow");
    let deny = args.opt_flag("--deny");
    let file = args.positionals().get(1).cloned();
    args.reject_unknown()?;

    // Without --chip the structural target is permissive: chip
    // capability findings (AUD003) only make sense against a chip.
    let target = match chip.as_deref() {
        None => VerifyTarget::permissive(),
        Some("bulldozer") => VerifyTarget::for_chip(&ChipConfig::bulldozer()),
        Some("phenom") => VerifyTarget::for_chip(&ChipConfig::phenom()),
        Some(other) => {
            return Err(ArgError(format!(
                "unknown chip `{other}` (expected bulldozer or phenom)"
            )))
        }
    };
    let mut lints = LintConfig::new();
    if let Some(list) = allow {
        for code in codes_from(&list, "--allow")? {
            lints = lints.allow(code);
        }
    }
    if let Some(list) = deny {
        for code in codes_from(&list, "--deny")? {
            lints = lints.deny(code);
        }
    }

    let reports: Vec<LintReport> = match (&file, &builtin, all) {
        (Some(path), None, false) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ArgError(format!("reading {path}: {e}")))?;
            let (program, spans) =
                progfile::parse_spanned(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
            vec![LintReport {
                name: path.clone(),
                diags: check(&program, &target, &lints),
                source: Some((spans, text.len())),
            }]
        }
        (None, Some(name), false) => {
            let program = builtin_by_name(name)?;
            vec![LintReport {
                name: program.name().to_string(),
                diags: check(&program, &target, &lints),
                source: None,
            }]
        }
        (None, None, true) => all_builtins()
            .iter()
            .map(|p| LintReport {
                name: p.name().to_string(),
                diags: check(p, &target, &lints),
                source: None,
            })
            .collect(),
        (None, None, false) => {
            return Err(ArgError(
                "need a <file.prog>, --builtin <name>, or --all-builtins".into(),
            ))
        }
        _ => {
            return Err(ArgError(
                "give exactly one of <file.prog>, --builtin, or --all-builtins".into(),
            ))
        }
    };

    for report in &reports {
        print_report(report, json);
    }

    let errors = reports
        .iter()
        .flat_map(|r| &r.diags)
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = reports
        .iter()
        .flat_map(|r| &r.diags)
        .filter(|d| d.severity == Severity::Warning)
        .count();
    if errors > 0 || (deny_warnings && warnings > 0) {
        return Err(ArgError(format!(
            "lint failed: {errors} error(s), {warnings} warning(s)"
        )));
    }
    Ok(())
}

/// `audit list`.
pub(crate) fn list(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown()?;
    println!("workloads (synthetic SPEC CPU2006):");
    for p in workloads::spec2006() {
        println!("  {}", p.name);
    }
    println!("workloads (synthetic PARSEC):");
    for p in workloads::parsec() {
        println!("  {}", p.name);
    }
    println!("manual stressmarks:");
    for name in ["SM1", "SM2", "SM-Res", "barrier"] {
        println!("  {name}");
    }
    Ok(())
}

/// `audit spice`.
pub(crate) fn spice(args: &Args) -> Result<(), ArgError> {
    use audit_core::harness::MeasureSpec;
    let rig = platform::rig_from(args)?;
    let out = args.str_flag("--out", "pdn_tran.sp");
    let cycles = args.num_flag("--cycles", 2_000u64)?;
    // Accepted for symmetry: the deck always samples the GA's spec.
    args.bool_flag("--fast");
    args.reject_unknown()?;

    let spec = MeasureSpec {
        record_cycles: cycles,
        ..MeasureSpec::ga_eval()
    }
    .with_traces();
    spec.validate().map_err(core_err)?;
    let program = platform::stressmark_by_name("sm-res").expect("built-in stressmark");
    let program = platform::runnable(&rig, program)?;
    let m = rig.measure_aligned(&vec![program; 4], spec);
    let deck = audit_pdn::spice::emit_deck(&rig.pdn, &m.current_trace, rig.chip.clock_hz, 1_000);
    fs::write(&out, deck).map_err(|e| ArgError(format!("writing {out}: {e}")))?;
    println!("captured {} samples; wrote {out}", m.current_trace.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn every_builtin_lints_clean() {
        // The self-lint gate: shipping workloads and manual stressmarks
        // must be clean under the default configuration.
        let target = VerifyTarget::permissive();
        let lints = LintConfig::new();
        for program in all_builtins() {
            let diags = check(&program, &target, &lints);
            assert!(diags.is_empty(), "{}: {diags:?}", program.name());
        }
    }

    #[test]
    fn lint_all_builtins_succeeds() {
        assert!(lint(&parse(&["lint", "--all-builtins"])).is_ok());
    }

    #[test]
    fn lint_requires_exactly_one_selector() {
        assert!(lint(&parse(&["lint"])).is_err());
        assert!(lint(&parse(&["lint", "x.prog", "--all-builtins"])).is_err());
        assert!(lint(&parse(&["lint", "--builtin", "sm1", "--all-builtins"])).is_err());
    }

    #[test]
    fn lint_builtin_lookup() {
        assert!(lint(&parse(&["lint", "--builtin", "SM-Res"])).is_ok());
        assert!(lint(&parse(&["lint", "--builtin", "zeusmp"])).is_ok());
        let err = lint(&parse(&["lint", "--builtin", "crysis"])).unwrap_err();
        assert!(err.to_string().contains("crysis"));
    }

    #[test]
    fn lint_rejects_bad_code_lists_and_chips() {
        let err = lint(&parse(&["lint", "--all-builtins", "--deny", "AUD999"])).unwrap_err();
        assert!(err.to_string().contains("AUD999"));
        let err = lint(&parse(&["lint", "--all-builtins", "--chip", "epyc"])).unwrap_err();
        assert!(err.to_string().contains("epyc"));
    }

    #[test]
    fn codes_from_parses_comma_lists() {
        let codes = codes_from("AUD101, AUD104", "--allow").unwrap();
        assert_eq!(codes, vec![Code::DeadValue, Code::SerializingDivide]);
        assert!(codes_from("bogus", "--allow").is_err());
    }

    #[test]
    fn diag_json_carries_byte_spans() {
        let d = Diagnostic::new(
            Code::RegisterOutOfRange,
            Severity::Error,
            Some(1),
            "register r20 outside the 16-entry file",
        );
        let spans = vec![
            progfile::Span {
                line: 4,
                start: 30,
                end: 33,
            },
            progfile::Span {
                line: 9,
                start: 80,
                end: 101,
            },
        ];
        let v = diag_to_json(&d, Some(&(spans, 120)));
        assert_eq!(v.get("code").and_then(JsonValue::as_str), Some("AUD002"));
        let span = v.get("span").expect("span object");
        assert_eq!(span.get("line").and_then(JsonValue::as_f64), Some(9.0));
        assert_eq!(span.get("start").and_then(JsonValue::as_f64), Some(80.0));
        assert_eq!(span.get("end").and_then(JsonValue::as_f64), Some(101.0));
        // A program-level diagnostic (no inst index) spans the file.
        let whole = Diagnostic::new(Code::NopRun, Severity::Warning, None, "all NOPs");
        let v = diag_to_json(&whole, Some(&(Vec::new(), 120)));
        let span = v.get("span").expect("span object");
        assert_eq!(span.get("line").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(span.get("start").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(span.get("end").and_then(JsonValue::as_f64), Some(120.0));
        // Without source text there is no span, but the body index
        // survives.
        let v = diag_to_json(&d, None);
        assert!(v.get("span").is_none());
        assert_eq!(v.get("inst").and_then(JsonValue::as_f64), Some(1.0));
    }
}
