//! End-to-end broker/worker tests over loopback.
//!
//! The invariant under test is the crate's reason to exist: a
//! distributed run is *bit-identical* to the in-process run — same
//! `GaRun` (best genome, fitness, history, evaluation counts), same
//! journal records — for any worker count, with workers joining late,
//! dying mid-generation, and with the broker resuming from a journal
//! prefix plus its write-ahead log.

use std::sync::Mutex;
use std::time::Duration;

use audit_core::ga::{self, CostFunction, GaConfig, GaRun, Gene, LocalDispatcher, ObjectiveSet};
use audit_core::resilient::genome_key;
use audit_core::{FitnessSpec, MeasurePolicy, MeasureSpec, MemJournal, ResilienceReport, Rig};
use audit_cpu::isa::Opcode;
use audit_measure::fault::FaultPlan;
use audit_measure::json::JsonValue;
use audit_net::{
    connect, read_frame, run_worker, write_frame, Broker, BrokerConfig, EvalContext, Fleet,
    FleetConfig, FrameOutcome, Msg, NetFaultPlan, WorkerOptions, PROTOCOL_VERSION,
};

const GENOME_LEN: usize = 10;

fn fspec(policy: MeasurePolicy) -> FitnessSpec {
    FitnessSpec {
        threads: 1,
        sub_blocks: 2,
        lp_slots: 2,
        cost: CostFunction::MaxDroop,
        spec: MeasureSpec::ga_eval(),
        policy,
        objectives: ObjectiveSet::default(),
    }
}

fn ga_cfg() -> GaConfig {
    GaConfig {
        population: 8,
        generations: 4,
        stall_generations: 4,
        seed: 11,
        ..GaConfig::default()
    }
}

fn ctx(spec: FitnessSpec) -> EvalContext {
    EvalContext {
        chip: "bulldozer".into(),
        volts: None,
        throttle: None,
        spec,
        fast_tier_budget: 0,
    }
}

/// The in-process reference run, accumulating resilience deltas the
/// same way the in-process `Audit` generation path does.
fn local_run(spec: FitnessSpec, cfg: &GaConfig) -> (GaRun, MemJournal, ResilienceReport) {
    let rig = Rig::bulldozer();
    let log = Mutex::new(ResilienceReport::default());
    let mut mem = MemJournal::default();
    let run = ga::run(
        cfg,
        &Opcode::stress_menu(),
        GENOME_LEN,
        &[],
        &mut LocalDispatcher::new(
            |genome: &[Gene]| {
                let (objectives, delta) = spec.evaluate_objectives(&rig, genome);
                log.lock().unwrap().merge(&delta);
                objectives
            },
            ga::resolve_workers(cfg.threads),
        ),
        &mut mem,
    )
    .unwrap();
    let report = *log.lock().unwrap();
    (run, mem, report)
}

/// A distributed run over loopback TCP with per-worker options (so a
/// test can hand one worker a kill hook).
fn distributed_run(
    spec: FitnessSpec,
    cfg: &GaConfig,
    worker_opts: &[WorkerOptions],
    wait_for: usize,
) -> (GaRun, MemJournal, ResilienceReport) {
    let broker_cfg = BrokerConfig {
        seed: cfg.seed,
        ..BrokerConfig::default()
    };
    distributed_run_with(spec, cfg, worker_opts, wait_for, broker_cfg)
}

/// Like [`distributed_run`] but with full control of the broker config,
/// so chaos tests can switch on fault injection and cross-validation.
fn distributed_run_with(
    spec: FitnessSpec,
    cfg: &GaConfig,
    worker_opts: &[WorkerOptions],
    wait_for: usize,
    broker_cfg: BrokerConfig,
) -> (GaRun, MemJournal, ResilienceReport) {
    let mut broker = Broker::bind("127.0.0.1:0", &ctx(spec), broker_cfg).unwrap();
    let addr = broker.addr().to_string();
    let handles: Vec<_> = worker_opts
        .iter()
        .map(|opts| {
            let addr = addr.clone();
            let opts = *opts;
            std::thread::spawn(move || run_worker(&addr, &opts))
        })
        .collect();
    broker.wait_for_workers(wait_for).unwrap();
    let mut mem = MemJournal::default();
    let run = ga::run(
        cfg,
        &Opcode::stress_menu(),
        GENOME_LEN,
        &[],
        &mut broker,
        &mut mem,
    )
    .unwrap();
    let report = audit_core::ga::EvalDispatcher::resilience(&broker);
    broker.shutdown();
    for handle in handles {
        handle.join().unwrap().unwrap();
    }
    (run, mem, report)
}

#[test]
fn two_workers_match_the_in_process_run_bit_identically() {
    let spec = fspec(MeasurePolicy::disabled());
    let cfg = ga_cfg();
    let (local, local_journal, _) = local_run(spec, &cfg);
    let opts = [WorkerOptions::default(), WorkerOptions::default()];
    let (dist, dist_journal, _) = distributed_run(spec, &cfg, &opts, 2);
    assert_eq!(dist, local);
    assert_eq!(dist.evaluations, local.evaluations);
    assert_eq!(dist_journal.records, local_journal.records);
}

#[test]
fn metrics_endpoint_answers_a_scrape_and_counts_work() {
    // The "fleet of one" backport: any connection whose first frame is
    // MetricsReq gets a plain-text scrape snapshot and the socket
    // closes; workers and results are unaffected.
    let spec = fspec(MeasurePolicy::disabled());
    let cfg = ga_cfg();
    let mut broker = Broker::bind(
        "127.0.0.1:0",
        &ctx(spec),
        BrokerConfig {
            seed: cfg.seed,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let addr = broker.addr().to_string();
    let worker_addr = addr.clone();
    let worker = std::thread::spawn(move || run_worker(&worker_addr, &WorkerOptions::default()));
    broker.wait_for_workers(1).unwrap();
    let mut mem = MemJournal::default();
    ga::run(
        &cfg,
        &Opcode::stress_menu(),
        GENOME_LEN,
        &[],
        &mut broker,
        &mut mem,
    )
    .unwrap();
    let mut conn = connect(&addr).unwrap();
    write_frame(&mut conn, &Msg::MetricsReq.to_json()).unwrap();
    let text = match read_frame(&mut conn).unwrap() {
        FrameOutcome::Frame(v) => match Msg::from_json(&v).unwrap() {
            Msg::Metrics { text } => text,
            other => panic!("expected metrics, got {other:?}"),
        },
        other => panic!("expected a metrics frame, got {other:?}"),
    };
    assert!(text.contains("audit_workers 1"), "scrape:\n{text}");
    let results: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("audit_results_total "))
        .expect("results counter present")
        .parse()
        .unwrap();
    assert!(results > 0, "no results counted:\n{text}");
    let dispatches: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("audit_dispatches_total "))
        .expect("dispatch counter present")
        .parse()
        .unwrap();
    assert!(dispatches >= results, "scrape:\n{text}");
    broker.shutdown();
    worker.join().unwrap().unwrap();
}

#[test]
fn worker_count_never_changes_the_result() {
    let spec = fspec(MeasurePolicy::disabled());
    let cfg = ga_cfg();
    let (one, j1, _) = distributed_run(spec, &cfg, &[WorkerOptions::default()], 1);
    let four = vec![WorkerOptions::default(); 4];
    let (wide, j4, _) = distributed_run(spec, &cfg, &four, 4);
    assert_eq!(one, wide);
    assert_eq!(j1.records, j4.records);
}

#[test]
fn cascade_pruning_is_bit_identical_across_worker_counts() {
    // Evaluation cascade on: the broker-side engine prunes each
    // generation to the fast-tier budget before dispatch, so workers
    // only ever see survivors — the run must match the in-process
    // cascade run bit-for-bit at any worker count.
    let spec = fspec(MeasurePolicy::disabled());
    let cfg = GaConfig {
        fast_tier_budget: 3,
        ..ga_cfg()
    };
    let (local, local_journal, _) = local_run(spec, &cfg);
    for workers in [1usize, 2, 4] {
        let opts = vec![WorkerOptions::default(); workers];
        let (dist, dist_journal, _) = distributed_run(spec, &cfg, &opts, workers);
        assert_eq!(dist, local, "diverged at {workers} workers");
        assert_eq!(
            dist_journal.records, local_journal.records,
            "journal diverged at {workers} workers"
        );
    }
    // The cascade actually engaged: fewer simulations than slots.
    assert!(
        local_journal.records.iter().any(|r| r.kind() == "cascade"),
        "cascade marker missing from journal"
    );
}

#[test]
fn pareto_mode_matches_the_in_process_run_at_any_worker_count() {
    // Multi-objective evaluation over loopback workers: the objective
    // vectors ride the result frames, the NSGA-II selection happens
    // broker-side in the engine, and the run — GaRun, Pareto front, and
    // journal bytes — must match the in-process run for any worker
    // count.
    let spec = FitnessSpec {
        objectives: ObjectiveSet::parse("droop,power,margin").unwrap(),
        ..fspec(MeasurePolicy::disabled())
    };
    let cfg = GaConfig {
        pareto: true,
        ..ga_cfg()
    };
    let (local, local_journal, _) = local_run(spec, &cfg);
    assert!(
        local.pareto_front.as_ref().is_some_and(|f| !f.is_empty()),
        "pareto run produced no front"
    );
    assert!(
        local_journal
            .records
            .iter()
            .any(|r| r.kind() == "pareto_front"),
        "pareto_front records missing from journal"
    );
    for workers in [1usize, 2, 4] {
        let opts = vec![WorkerOptions::default(); workers];
        let (dist, dist_journal, _) = distributed_run(spec, &cfg, &opts, workers);
        assert_eq!(dist, local, "GaRun diverged at {workers} workers");
        assert_eq!(
            dist_journal.records, local_journal.records,
            "journal diverged at {workers} workers"
        );
    }
}

#[test]
fn late_joining_worker_shares_the_load_without_changing_results() {
    let spec = fspec(MeasurePolicy::disabled());
    let cfg = ga_cfg();
    let (local, local_journal, _) = local_run(spec, &cfg);
    // Only wait for one of the two workers: the second completes its
    // handshake while the generation is already being dispatched.
    let opts = [WorkerOptions::default(), WorkerOptions::default()];
    let (dist, dist_journal, _) = distributed_run(spec, &cfg, &opts, 1);
    assert_eq!(dist, local);
    assert_eq!(dist_journal.records, local_journal.records);
}

#[test]
fn killed_worker_mid_generation_is_retried_with_exact_accounting() {
    // Fault-injected policy so the resilient path (retries, backoff,
    // quarantine counters) is active end to end.
    let policy = MeasurePolicy {
        faults: FaultPlan::parse("5:noise=0.001,crash=0.2").unwrap(),
        ..MeasurePolicy::disabled()
    };
    let spec = fspec(policy);
    let cfg = ga_cfg();
    let (local, local_journal, local_report) = local_run(spec, &cfg);
    // One worker dies (no reply, no goodbye) after 2 evaluations; the
    // survivor absorbs the re-dispatched work.
    let opts = [
        WorkerOptions {
            max_evals: Some(2),
            ..WorkerOptions::default()
        },
        WorkerOptions::default(),
    ];
    let (dist, dist_journal, dist_report) = distributed_run(spec, &cfg, &opts, 2);
    assert_eq!(dist, local);
    assert_eq!(dist_journal.records, local_journal.records);
    // Exactly-once accounting: the dead worker's unreported evaluation
    // is recomputed deterministically, so the merged counters match the
    // single-process run exactly.
    assert_eq!(dist_report, local_report);
    assert!(local_report.evaluations > 0, "fault policy was not active");
}

#[test]
fn broker_resumes_from_journal_prefix_and_wal() {
    let spec = fspec(MeasurePolicy::disabled());
    let cfg = ga_cfg();
    let (full, full_journal, _) = local_run(spec, &cfg);

    // Simulate a broker killed after generation 1 was journaled and two
    // evaluations of generation 2 were WAL-logged but not yet merged.
    let cut = full_journal
        .records
        .iter()
        .position(|r| r.kind() == "generation")
        .unwrap()
        + 1;
    let prefix = audit_core::Journal {
        records: full_journal.records[..cut].to_vec(),
    };

    let dir = std::env::temp_dir().join(format!("audit-dist-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("resume.wal");
    {
        // First broker lineage: log two finished evaluations, then die.
        let rig = Rig::bulldozer();
        let mut first = Broker::bind("127.0.0.1:0", &ctx(spec), BrokerConfig::default()).unwrap();
        first.attach_wal(&wal_path).unwrap();
        drop(first);
        // Hand-write a result line like the dead broker would have
        // logged. (The genome is synthetic, so the entry exercises WAL
        // loading; direct prefill consumption is covered by
        // `broker_with_no_live_workers_serves_fully_prefilled_rounds`.)
        let mut writer = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .unwrap();
        let sample = vec![
            audit_core::ga::Gene {
                opcode: Opcode::SimdFma,
                dst: 0,
                src1: 1,
                src2: 2,
                miss: false,
            };
            GENOME_LEN
        ];
        let (objectives, delta) = spec.evaluate_objectives(&rig, &sample);
        let fitness = objectives.primary();
        let line = audit_measure::json::JsonValue::object(vec![
            (
                "kind",
                audit_measure::json::JsonValue::String("result".into()),
            ),
            (
                "key",
                audit_measure::json::Codec::encode(&genome_key(&sample)),
            ),
            ("fitness", audit_measure::json::JsonValue::from_f64(fitness)),
            (
                "resilience",
                audit_measure::json::JsonValue::object(vec![
                    (
                        "evaluations",
                        audit_measure::json::Codec::encode(&delta.evaluations),
                    ),
                    (
                        "retries",
                        audit_measure::json::Codec::encode(&delta.retries),
                    ),
                    (
                        "quarantined",
                        audit_measure::json::Codec::encode(&delta.quarantined),
                    ),
                    (
                        "backoff_cycles",
                        audit_measure::json::Codec::encode(&delta.backoff_cycles),
                    ),
                ]),
            ),
        ]);
        use std::io::Write as _;
        writeln!(writer, "{}", line.encode()).unwrap();
    }

    // Second broker lineage: resume from the journal prefix with the
    // WAL attached.
    let mut broker = Broker::bind(
        "127.0.0.1:0",
        &ctx(spec),
        BrokerConfig {
            seed: cfg.seed,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    broker.attach_wal(&wal_path).unwrap();
    let addr = broker.addr().to_string();
    let worker = std::thread::spawn(move || run_worker(&addr, &WorkerOptions::default()));
    broker.wait_for_workers(1).unwrap();
    let mut mem = MemJournal::default();
    let resumed = ga::resume(&prefix, &mut broker, &mut mem).unwrap();
    broker.shutdown();
    worker.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(resumed, full);
    // The resumed sink holds the records appended after the cut; prefix
    // + continuation reproduces the uninterrupted journal.
    let mut stitched = full_journal.records[..cut].to_vec();
    stitched.extend(mem.records.iter().cloned());
    assert_eq!(stitched, full_journal.records);
}

#[test]
fn broker_with_no_live_workers_serves_fully_prefilled_rounds() {
    // Every job answered by the WAL: no worker needed at all. This is
    // the degenerate resume case (broker died after the last
    // evaluation, before the generation record).
    let spec = fspec(MeasurePolicy::disabled());
    let rig = Rig::bulldozer();
    let population: Vec<Vec<audit_core::ga::Gene>> = (0..3)
        .map(|i| {
            vec![
                audit_core::ga::Gene {
                    opcode: if i == 0 {
                        Opcode::Load
                    } else {
                        Opcode::SimdFma
                    },
                    dst: i as u8,
                    src1: 1,
                    src2: 2,
                    miss: i == 1,
                };
                GENOME_LEN
            ]
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("audit-dist-prefill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("prefill.wal");
    let expected: Vec<f64> = {
        use std::io::Write as _;
        let mut writer = std::fs::File::create(&wal_path).unwrap();
        population
            .iter()
            .map(|genome| {
                let (objectives, _) = spec.evaluate_objectives(&rig, genome);
                let fitness = objectives.primary();
                let line = audit_measure::json::JsonValue::object(vec![
                    (
                        "kind",
                        audit_measure::json::JsonValue::String("result".into()),
                    ),
                    (
                        "key",
                        audit_measure::json::Codec::encode(&genome_key(genome)),
                    ),
                    ("fitness", audit_measure::json::JsonValue::from_f64(fitness)),
                    (
                        "resilience",
                        audit_measure::json::JsonValue::object(vec![
                            ("evaluations", audit_measure::json::Codec::encode(&1u64)),
                            ("retries", audit_measure::json::Codec::encode(&0u64)),
                            ("quarantined", audit_measure::json::Codec::encode(&0u64)),
                            ("backoff_cycles", audit_measure::json::Codec::encode(&0u64)),
                        ]),
                    ),
                ]);
                writeln!(writer, "{}", line.encode()).unwrap();
                fitness
            })
            .collect()
    };
    let mut broker = Broker::bind("127.0.0.1:0", &ctx(spec), BrokerConfig::default()).unwrap();
    broker.attach_wal(&wal_path).unwrap();
    let mut scores =
        audit_core::ga::EvalDispatcher::evaluate(&mut broker, &population, &[0, 1, 2]).unwrap();
    scores.sort_unstable_by_key(|&(slot, _)| slot);
    let got: Vec<f64> = scores.iter().map(|(_, o)| o.primary()).collect();
    assert_eq!(got, expected);
    assert_eq!(
        audit_core::ga::EvalDispatcher::resilience(&broker).evaluations,
        3
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A hostile-but-survivable network: drops, duplicates, bit-flips,
/// stalled workers, and byzantine lies, all at the same time.
fn chaos_cfg(seed: u64) -> BrokerConfig {
    BrokerConfig {
        seed,
        pool: FleetConfig {
            // The lease must sit safely above worst-case eval latency on a
            // loaded test machine (~1 s), or busy workers get falsely
            // declared dead and their attempts spiral; 3 s keeps dropped
            // frames re-dispatched in test time without that spiral.
            heartbeat: Duration::from_millis(100),
            dead_after: Duration::from_secs(3),
            // A deep retry budget: the contract under test is bit-identity
            // *below* the quarantine budget, so the budget must not bind.
            retries: 20,
            // Cross-validate every job: a lie on an unverified job is
            // undetectable by construction, and this test is about the
            // defended contract, not the undefended corner.
            verify_fraction: 1.0,
            // Drops and corruptions cost a lease expiry each, so keep them
            // rarer than the cheap-to-recover duplicates and lies.
            chaos: NetFaultPlan::parse("3:drop=0.02,dup=0.05,corrupt=0.02,stall=0.01,lie=0.05")
                .unwrap(),
            ..FleetConfig::default()
        },
    }
}

/// Chaos workers rejoin after evictions and severs, each with its own
/// jitter salt so their reconnect schedules decorrelate.
fn chaos_workers(n: usize) -> Vec<WorkerOptions> {
    (0..n)
        .map(|i| WorkerOptions {
            connect_retry: Duration::from_millis(25),
            jitter_salt: 0xC4A0_5000 + i as u64,
            rejoin: true,
            ..WorkerOptions::default()
        })
        .collect()
}

#[test]
fn chaos_storm_is_bit_identical_across_worker_counts() {
    // The tentpole contract: with frames being dropped, duplicated,
    // corrupted, workers stalling out, and workers lying, the defended
    // broker still produces the exact bytes of the in-process run —
    // CRC32 catches the flips, leases re-dispatch the drops, request-id
    // retirement eats the duplicates, and cross-validation votes out
    // the liars.
    let spec = fspec(MeasurePolicy::disabled());
    let cfg = ga_cfg();
    let (local, local_journal, local_report) = local_run(spec, &cfg);
    for workers in [1usize, 2, 4] {
        let (dist, dist_journal, dist_report) = distributed_run_with(
            spec,
            &cfg,
            &chaos_workers(workers),
            workers,
            chaos_cfg(cfg.seed),
        );
        assert_eq!(
            dist, local,
            "GaRun diverged at {workers} workers under chaos"
        );
        assert_eq!(
            dist_journal.records, local_journal.records,
            "journal diverged at {workers} workers under chaos"
        );
        assert_eq!(
            dist_report, local_report,
            "resilience accounting diverged at {workers} workers under chaos"
        );
    }
}

#[test]
fn chaos_plus_killed_worker_still_matches() {
    // Compound failure: the network is hostile *and* one worker dies
    // outright (kill hook, no goodbye) two evaluations in. The
    // rejoining survivor absorbs everything.
    let spec = fspec(MeasurePolicy::disabled());
    let cfg = ga_cfg();
    let (local, local_journal, _) = local_run(spec, &cfg);
    // Worker 0 keeps rejoin on (a chaos sever before the kill hook
    // fires must not surface as a worker error); once the hook fires it
    // returns without rejoining, like a SIGKILL.
    let mut opts = chaos_workers(2);
    opts[0].max_evals = Some(2);
    let (dist, dist_journal, _) = distributed_run_with(spec, &cfg, &opts, 2, chaos_cfg(cfg.seed));
    assert_eq!(dist, local);
    assert_eq!(dist_journal.records, local_journal.records);
}

#[test]
fn replayed_duplicate_result_is_ignored_with_accounting_unchanged() {
    // Satellite defense: a worker (or a confused middlebox) replaying a
    // result frame for an already-settled (key, attempt) must be a
    // no-op. The fake worker here answers every Eval *twice* with
    // byte-identical Result frames. The fault-injected policy makes the
    // resilience deltas nonzero, so double-merging would be visible.
    let policy = MeasurePolicy {
        faults: FaultPlan::parse("5:noise=0.001,crash=0.2").unwrap(),
        ..MeasurePolicy::disabled()
    };
    let spec = fspec(policy);
    let rig = Rig::bulldozer();
    let population: Vec<Vec<audit_core::ga::Gene>> = (0..3)
        .map(|i| {
            vec![
                audit_core::ga::Gene {
                    opcode: if i == 0 {
                        Opcode::Load
                    } else {
                        Opcode::SimdFma
                    },
                    dst: i as u8,
                    src1: 1,
                    src2: 2,
                    miss: i == 2,
                };
                GENOME_LEN
            ]
        })
        .collect();
    let mut expected_report = ResilienceReport::default();
    let expected: Vec<f64> = population
        .iter()
        .map(|g| {
            let (objectives, delta) = spec.evaluate_objectives(&rig, g);
            expected_report.merge(&delta);
            objectives.primary()
        })
        .collect();
    assert!(
        expected_report.evaluations > 0,
        "fault policy was not active — a double-merge would be invisible"
    );

    let mut broker = Broker::bind("127.0.0.1:0", &ctx(spec), BrokerConfig::default()).unwrap();
    let addr = broker.addr().to_string();
    let replayer = std::thread::spawn(move || {
        let mut conn = connect(&addr).unwrap();
        write_frame(
            &mut conn,
            &Msg::Hello {
                protocol: PROTOCOL_VERSION,
            }
            .to_json(),
        )
        .unwrap();
        let fspec = loop {
            match read_frame(&mut conn).unwrap() {
                FrameOutcome::Frame(payload) => match Msg::from_json(&payload).unwrap() {
                    Msg::Setup { ctx } => break ctx.spec,
                    other => panic!("expected setup, got {other:?}"),
                },
                FrameOutcome::Eof => panic!("broker hung up before setup"),
                _ => continue,
            }
        };
        let rig = Rig::bulldozer();
        let mut answered = 0usize;
        loop {
            match read_frame(&mut conn).unwrap() {
                FrameOutcome::Frame(payload) => match Msg::from_json(&payload).unwrap() {
                    Msg::Eval { id, genome } => {
                        let (objectives, resilience) = fspec.evaluate_objectives(&rig, &genome);
                        let reply = Msg::Result {
                            id,
                            objectives,
                            resilience,
                            cached: false,
                        }
                        .to_json();
                        // The answer, then its replay.
                        write_frame(&mut conn, &reply).unwrap();
                        write_frame(&mut conn, &reply).unwrap();
                        answered += 1;
                    }
                    Msg::Ping => write_frame(&mut conn, &Msg::Pong.to_json()).unwrap(),
                    Msg::Shutdown => return answered,
                    other => panic!("unexpected frame {other:?}"),
                },
                FrameOutcome::Eof => return answered,
                _ => continue,
            }
        }
    });
    broker.wait_for_workers(1).unwrap();
    let mut scores =
        audit_core::ga::EvalDispatcher::evaluate(&mut broker, &population, &[0, 1, 2]).unwrap();
    scores.sort_unstable_by_key(|&(slot, _)| slot);
    let got: Vec<f64> = scores.iter().map(|(_, o)| o.primary()).collect();
    assert_eq!(got, expected, "replayed results corrupted the scores");
    // Accounting: exactly one resilience merge per key, despite every
    // result arriving twice — a double-merge would double every counter.
    assert_eq!(
        audit_core::ga::EvalDispatcher::resilience(&broker),
        expected_report
    );
    broker.shutdown();
    let answered = replayer.join().unwrap();
    assert_eq!(
        answered,
        population.len(),
        "every job answered exactly once"
    );
}

#[test]
fn previous_protocol_worker_is_refused_at_handshake() {
    // A v3 worker steps the PDN by RK4 derivative passes, not by the
    // precomputed affine map, so its fitness floats differ from a v4
    // worker's in the last bits. The broker must close the connection
    // before sending Setup rather than let it evaluate.
    let mut broker = Broker::bind(
        "127.0.0.1:0",
        &ctx(fspec(MeasurePolicy::disabled())),
        BrokerConfig::default(),
    )
    .unwrap();
    let mut stale = std::net::TcpStream::connect(broker.addr()).unwrap();
    // Bounded, so an accepted hello fails the test instead of hanging it.
    stale
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(
        &mut stale,
        &Msg::Hello {
            protocol: PROTOCOL_VERSION - 1,
        }
        .to_json(),
    )
    .unwrap();
    assert!(
        matches!(read_frame(&mut stale), Ok(FrameOutcome::Eof)),
        "a previous-version hello must be answered by a hang-up"
    );
    // Control: a current worker on the same listener gets its Setup.
    let mut current = connect(broker.addr()).unwrap();
    let hello = Msg::Hello {
        protocol: PROTOCOL_VERSION,
    };
    write_frame(&mut current, &hello.to_json()).unwrap();
    match read_frame(&mut current).unwrap() {
        FrameOutcome::Frame(v) => assert!(matches!(Msg::from_json(&v), Ok(Msg::Setup { .. }))),
        other => panic!("expected setup, got {other:?}"),
    }
    broker.wait_for_workers(1).unwrap();
    broker.shutdown();
}

/// Opens a connection to `addr`, sends `first` as its first frame, and
/// returns what comes back: a reply frame, or `Eof` for a hang-up.
fn first_frame_answer(addr: &str, first: &str) -> FrameOutcome {
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    // Bounded, so a held connection fails the test instead of hanging it.
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut conn, &JsonValue::parse(first).unwrap()).unwrap();
    read_frame(&mut conn).unwrap()
}

#[test]
fn front_door_serves_tenant_frames_only_with_a_submission_queue() {
    let submit = r#"{"kind":"submit","argv":[],"checkpoint":"c","weight":1}"#;
    let status = r#"{"kind":"status"}"#;
    let unknown = r#"{"kind":"warp"}"#;
    // `audit serve`'s door has no submission queue: every tenant frame,
    // and a kind nobody speaks, is answered by a hang-up, no reply.
    let broker = Broker::bind(
        "127.0.0.1:0",
        &ctx(fspec(MeasurePolicy::disabled())),
        BrokerConfig::default(),
    )
    .unwrap();
    for first in [submit, status, unknown] {
        match first_frame_answer(broker.addr(), first) {
            FrameOutcome::Eof => {}
            other => panic!("a broker answered {first} with {other:?}"),
        }
    }
    // `audit fleet serve`'s door answers a status request with its
    // status report, and still hangs up on an unknown kind.
    let fleet = Fleet::bind("127.0.0.1:0", FleetConfig::default()).unwrap();
    let expected = fleet.handle().status_text().unwrap();
    match first_frame_answer(fleet.addr(), status) {
        FrameOutcome::Frame(v) => {
            assert_eq!(
                v.get("kind").and_then(JsonValue::as_str),
                Some("status_text")
            );
            assert_eq!(
                v.get("text").and_then(JsonValue::as_str),
                Some(expected.as_str())
            );
        }
        other => panic!("a fleet answered status with {other:?}"),
    }
    match first_frame_answer(fleet.addr(), unknown) {
        FrameOutcome::Eof => {}
        other => panic!("a fleet answered {unknown} with {other:?}"),
    }
}

/// Runs `f` on a thread of its own and fails the test if it has not
/// returned within 10 s, so a hang fails CI instead of stalling it.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()).ok());
    rx.recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{what} did not return within 10 s"))
}

#[cfg(unix)]
#[test]
fn closing_a_door_whose_unix_path_was_rebound_returns() {
    let dir = std::env::temp_dir().join(format!("audit-dist-rebind-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let addr = format!("unix:{}", dir.join("door.sock").display());
    let ctx = ctx(fspec(MeasurePolicy::disabled()));
    let mut first = Broker::bind(&addr, &ctx, BrokerConfig::default()).unwrap();
    // Binding the path again unlinks the first door's socket file: its
    // listener is now out of reach, and a wake sent to the path lands on
    // the second door.
    let second = Broker::bind(&addr, &ctx, BrokerConfig::default()).unwrap();
    within("closing the first door", move || first.shutdown());
    // The second door is unaffected: a worker joins it and is released.
    let to = addr.clone();
    let worker = std::thread::spawn(move || run_worker(&to, &WorkerOptions::default()));
    let mut second = within("waiting for a worker at the second door", move || {
        let mut second = second;
        second.wait_for_workers(1).unwrap();
        second
    });
    within("closing the second door", move || second.shutdown());
    worker.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn close_releases_a_peer_that_never_sent_its_first_frame() {
    let mut broker = Broker::bind(
        "127.0.0.1:0",
        &ctx(fspec(MeasurePolicy::disabled())),
        BrokerConfig::default(),
    )
    .unwrap();
    let mut silent = std::net::TcpStream::connect(broker.addr()).unwrap();
    // Bounded, so a peer left hanging fails the test instead of hanging it.
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let addr = broker.addr().to_string();
    let worker = std::thread::spawn(move || run_worker(&addr, &WorkerOptions::default()));
    // Accepts are first in, first out: once the worker has joined, the
    // silent peer was accepted before it, and is still mid-handshake.
    broker.wait_for_workers(1).unwrap();
    broker.shutdown();
    match read_frame(&mut silent) {
        Ok(FrameOutcome::Frame(v)) => {
            assert!(matches!(Msg::from_json(&v), Ok(Msg::Shutdown)), "{v:?}");
        }
        Ok(FrameOutcome::Eof) => {}
        other => panic!("closing the door did not release the silent peer: {other:?}"),
    }
    worker.join().unwrap().unwrap();
}
