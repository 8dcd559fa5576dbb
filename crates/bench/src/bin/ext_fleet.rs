//! Extension experiment: multi-tenant fleet throughput.
//!
//! A lab that wants N stressmark campaigns (different chips, operating
//! points, or just different seeds for confidence) can run them
//! back-to-back on a dedicated broker each — or submit them all to one
//! `audit fleet` manager sharing a single worker pool. This binary
//! measures what sharing buys for the best case, two identical
//! campaigns: the fleet's cross-campaign eval cache answers the second
//! campaign's jobs without recomputation (identical context, identical
//! genome keys), so the pair's makespan approaches a single campaign's
//! instead of twice it. The serial baseline tears its workers down
//! between campaigns, which is exactly what separate broker invocations
//! do — each starts cache-cold.
//!
//! Both schedules must produce bit-identical runs and journals for both
//! campaigns (cached answers carry the same objective bits and the same
//! resilience delta as a recomputation), and the fleet makespan must
//! beat serial by at least 1.5x — the margin a co-tenant pays for
//! *nothing* if isolation were done by partitioning instead of sharing.
//!
//! Results land in `BENCH_fleet.json` next to the table.

use std::time::Instant;

use audit_bench::{banner, emit, fast_mode};
use audit_core::ga::{self, CostFunction, GaConfig, GaRun, ObjectiveSet};
use audit_core::report::Table;
use audit_core::{FitnessSpec, MeasurePolicy, MeasureSpec, MemJournal};
use audit_cpu::Opcode;
use audit_fleet::{CampaignSpec, Fleet, FleetConfig};
use audit_net::{run_worker, Broker, BrokerConfig, EvalContext, WorkerOptions};

const GENOME_LEN: usize = 12;
const CAMPAIGNS: usize = 2;
const WORKERS: usize = 4;

fn main() {
    banner(
        "extension",
        "multi-tenant fleet vs serial campaign makespan",
    );

    let spec = FitnessSpec {
        threads: 2,
        sub_blocks: 4,
        lp_slots: 8,
        cost: CostFunction::MaxDroop,
        spec: MeasureSpec::ga_eval(),
        policy: MeasurePolicy::disabled(),
        objectives: ObjectiveSet::default(),
    };
    let cfg = GaConfig {
        population: if fast_mode() { 8 } else { 16 },
        generations: if fast_mode() { 4 } else { 10 },
        stall_generations: 100,
        seed: 7,
        ..GaConfig::default()
    };

    // Serial baseline: each campaign gets a fresh broker and fresh
    // (cache-cold) workers, like separate `audit serve` invocations.
    let t0 = Instant::now();
    let serial: Vec<(GaRun, MemJournal)> =
        (0..CAMPAIGNS).map(|_| broker_run(&spec, &cfg)).collect();
    let serial_wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        serial[0].0, serial[1].0,
        "identical campaigns must produce identical runs"
    );
    assert_eq!(
        serial[0].1.records, serial[1].1.records,
        "identical campaigns must produce identical journals"
    );

    // Fleet: both campaigns submitted concurrently to one manager
    // sharing one worker pool (and its cross-campaign caches).
    let t0 = Instant::now();
    let (fleet, cache_hits) = fleet_run(&spec, &cfg);
    let fleet_wall = t0.elapsed().as_secs_f64();

    for (i, (run, journal)) in fleet.iter().enumerate() {
        assert_eq!(
            run, &serial[i].0,
            "campaign {i}: fleet GaRun diverged from the dedicated-broker run"
        );
        assert_eq!(
            journal.records, serial[i].1.records,
            "campaign {i}: fleet journal diverged from the dedicated-broker run"
        );
    }

    let evals: u64 = fleet.iter().map(|(run, _)| run.evaluations).sum();
    let speedup = serial_wall / fleet_wall.max(1e-9);
    let mut t = Table::new(vec!["schedule", "wall s", "evals", "cache hits", "speedup"]);
    t.row(vec![
        "serial brokers".into(),
        format!("{serial_wall:.2}"),
        format!("{evals}"),
        "0".into(),
        "1.00x".into(),
    ]);
    t.row(vec![
        "shared fleet".into(),
        format!("{fleet_wall:.2}"),
        format!("{evals}"),
        format!("{cache_hits}"),
        format!("{speedup:.2}x"),
    ]);
    emit(&t);

    assert!(
        cache_hits > 0,
        "the twin campaign never hit the cross-campaign cache"
    );
    // At smoke scale the twin's rounds trail far enough behind that
    // nearly every job is a cache hit (~1.8x); at full scale the
    // campaigns overlap more tightly, so some twin jobs are dispatched
    // while their originals are still in flight and get recomputed —
    // the floor is set below each mode's typical margin.
    let floor = if fast_mode() { 1.5 } else { 1.3 };
    assert!(
        speedup >= floor,
        "fleet makespan speedup {speedup:.2}x below the {floor}x floor \
         (serial {serial_wall:.2}s, fleet {fleet_wall:.2}s)"
    );

    let json = format!(
        concat!(
            "{{\"campaigns\":{},\"workers\":{},",
            "\"serial\":{{\"wall_s\":{:.6}}},",
            "\"fleet\":{{\"wall_s\":{:.6},\"cache_hits\":{}}},",
            "\"speedup\":{:.3},\"bit_identical\":true}}\n"
        ),
        CAMPAIGNS, WORKERS, serial_wall, fleet_wall, cache_hits, speedup,
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("\nwrote BENCH_fleet.json");
    println!("both campaigns bit-identical to their dedicated-broker runs");
}

fn ctx(spec: &FitnessSpec) -> EvalContext {
    EvalContext {
        chip: "bulldozer".into(),
        volts: None,
        throttle: None,
        spec: *spec,
        fast_tier_budget: 0,
    }
}

/// One campaign on a dedicated broker with fresh workers.
fn broker_run(spec: &FitnessSpec, cfg: &GaConfig) -> (GaRun, MemJournal) {
    let mut broker = Broker::bind(
        "127.0.0.1:0",
        &ctx(spec),
        BrokerConfig {
            seed: cfg.seed,
            ..BrokerConfig::default()
        },
    )
    .expect("bind loopback broker");
    let addr = broker.addr().to_string();
    let handles: Vec<_> = (0..WORKERS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || run_worker(&addr, &WorkerOptions::default()))
        })
        .collect();
    broker.wait_for_workers(WORKERS).expect("workers join");
    let mut mem = MemJournal::default();
    let run = ga::run(
        cfg,
        &Opcode::stress_menu(),
        GENOME_LEN,
        &[],
        &mut broker,
        &mut mem,
    )
    .expect("distributed GA run");
    broker.shutdown();
    for h in handles {
        h.join()
            .expect("worker thread")
            .expect("worker exits cleanly");
    }
    (run, mem)
}

/// Both campaigns concurrently on one fleet pool, returning the runs in
/// submission order plus the pool's cache-hit count.
fn fleet_run(spec: &FitnessSpec, cfg: &GaConfig) -> (Vec<(GaRun, MemJournal)>, u64) {
    let mut manager =
        Fleet::bind("127.0.0.1:0", FleetConfig::default()).expect("bind loopback fleet");
    let addr = manager.addr().to_string();
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || run_worker(&addr, &WorkerOptions::default()))
        })
        .collect();
    manager.wait_for_workers(WORKERS).expect("workers join");
    let tenants: Vec<_> = (0..CAMPAIGNS)
        .map(|i| {
            let pool = manager.handle();
            let spec = *spec;
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let id = pool
                    .register(CampaignSpec {
                        name: format!("twin-{i}"),
                        ctx: ctx(&spec),
                        seed: cfg.seed,
                        weight: 1,
                        wal: None,
                    })
                    .expect("register campaign");
                let mut dispatcher = pool.dispatcher(id);
                let mut mem = MemJournal::default();
                let run = ga::run(
                    &cfg,
                    &Opcode::stress_menu(),
                    GENOME_LEN,
                    &[],
                    &mut dispatcher,
                    &mut mem,
                )
                .expect("fleet GA run");
                pool.finish(id, true);
                (run, mem)
            })
        })
        .collect();
    let runs: Vec<_> = tenants.into_iter().map(|t| t.join().unwrap()).collect();
    let scrape = manager.metrics_text().expect("pool metrics");
    let cache_hits: u64 = scrape
        .lines()
        .find_map(|l| l.strip_prefix("audit_fleet_cache_hits_total "))
        .expect("cache hit counter present")
        .parse()
        .expect("counter parses");
    manager.shutdown();
    for worker in workers {
        worker
            .join()
            .expect("worker thread")
            .expect("worker exits cleanly");
    }
    (runs, cache_hits)
}
