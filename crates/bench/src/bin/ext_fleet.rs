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
//! One schedule takes a few hundredths of a second at smoke scale, so a
//! single serial/fleet ratio is at the mercy of host jitter, and both
//! walls are printed to the millisecond. The binary runs
//! [`PAIRS`] serial/fleet pairs, alternating which schedule goes first,
//! checks bit-identity and cache hits in every pair, and gates the
//! median speedup.
//!
//! Results land in `BENCH_fleet.json` (every pair) next to the table.

use std::time::Instant;

use audit_bench::{banner, emit, fast_mode};
use audit_core::ga::{self, CostFunction, GaConfig, GaRun, ObjectiveSet};
use audit_core::report::Table;
use audit_core::{FitnessSpec, MeasurePolicy, MeasureSpec, MemJournal};
use audit_cpu::Opcode;
use audit_net::{
    run_worker, Broker, BrokerConfig, CampaignSpec, EvalContext, Fleet, FleetConfig, WorkerOptions,
};

const GENOME_LEN: usize = 12;
const CAMPAIGNS: usize = 2;
const WORKERS: usize = 4;
const PAIRS: usize = 5;

/// One serial/fleet measurement.
struct Pair {
    /// The schedule that ran first: `"serial"` or `"fleet"`.
    first: &'static str,
    serial_wall: f64,
    fleet_wall: f64,
    cache_hits: u64,
    speedup: f64,
}

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

    let mut t = Table::new(vec![
        "pair",
        "first",
        "serial s",
        "fleet s",
        "evals",
        "cache hits",
        "speedup",
    ]);
    let mut pairs = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        // Alternating the order keeps a slow stretch of the host from
        // always landing on the same schedule.
        let first = if i % 2 == 0 { "serial" } else { "fleet" };
        let ((serial, serial_wall), ((fleet, cache_hits), fleet_wall)) = if first == "serial" {
            let serial = timed(|| serial_run(&spec, &cfg));
            (serial, timed(|| fleet_run(&spec, &cfg)))
        } else {
            let fleet = timed(|| fleet_run(&spec, &cfg));
            (timed(|| serial_run(&spec, &cfg)), fleet)
        };
        assert_eq!(
            serial[0].0, serial[1].0,
            "pair {i}: identical campaigns must produce identical runs"
        );
        assert_eq!(
            serial[0].1.records, serial[1].1.records,
            "pair {i}: identical campaigns must produce identical journals"
        );
        for (c, (run, journal)) in fleet.iter().enumerate() {
            assert_eq!(
                run, &serial[c].0,
                "pair {i}, campaign {c}: fleet GaRun diverged from the dedicated-broker run"
            );
            assert_eq!(
                journal.records, serial[c].1.records,
                "pair {i}, campaign {c}: fleet journal diverged from the dedicated-broker run"
            );
        }
        assert!(
            cache_hits > 0,
            "pair {i}: the twin campaign never hit the cross-campaign cache"
        );

        let evals: u64 = fleet.iter().map(|(run, _)| run.evaluations).sum();
        let speedup = serial_wall / fleet_wall.max(1e-9);
        t.row(vec![
            format!("{i}"),
            first.into(),
            format!("{serial_wall:.3}"),
            format!("{fleet_wall:.3}"),
            format!("{evals}"),
            format!("{cache_hits}"),
            format!("{speedup:.2}x"),
        ]);
        pairs.push(Pair {
            first,
            serial_wall,
            fleet_wall,
            cache_hits,
            speedup,
        });
    }
    emit(&t);

    let mut speedups: Vec<f64> = pairs.iter().map(|p| p.speedup).collect();
    speedups.sort_by(f64::total_cmp);
    let median = speedups[PAIRS / 2];
    // At smoke scale the twin's rounds trail far enough behind that
    // nearly every job is a cache hit (~1.8x); at full scale the
    // campaigns overlap more tightly, so some twin jobs are dispatched
    // while their originals are still in flight and get recomputed —
    // the floor is set below each mode's typical margin.
    let floor = if fast_mode() { 1.5 } else { 1.3 };
    println!("\nmedian speedup over {PAIRS} pairs: {median:.2}x (floor {floor}x)");
    assert!(
        median >= floor,
        "median fleet makespan speedup {median:.2}x below the {floor}x floor \
         (pair speedups {speedups:.2?})"
    );

    let rows: Vec<String> = pairs
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "{{\"first\":\"{}\",\"serial_wall_s\":{:.6},",
                    "\"fleet_wall_s\":{:.6},\"cache_hits\":{},\"speedup\":{:.3}}}"
                ),
                p.first, p.serial_wall, p.fleet_wall, p.cache_hits, p.speedup,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\"campaigns\":{},\"workers\":{},\"pairs\":[{}],",
            "\"median_speedup\":{:.3},\"floor\":{},\"bit_identical\":true}}\n"
        ),
        CAMPAIGNS,
        WORKERS,
        rows.join(","),
        median,
        floor,
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json");
    println!("both campaigns bit-identical to their dedicated-broker runs in every pair");
}

/// Runs `f` and returns its output with its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
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

/// Every campaign back to back, each on a fresh broker with fresh
/// (cache-cold) workers, like separate `audit serve` invocations.
fn serial_run(spec: &FitnessSpec, cfg: &GaConfig) -> Vec<(GaRun, MemJournal)> {
    (0..CAMPAIGNS).map(|_| broker_run(spec, cfg)).collect()
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
    manager
        .handle()
        .wait_for_workers(WORKERS)
        .expect("workers join");
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
    let scrape = manager.handle().metrics_text().expect("pool metrics");
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
