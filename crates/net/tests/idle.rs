//! The no-busy-wait contract for `audit serve`: a round nobody can run
//! parks.
//!
//! With a round open but no worker connected and nothing in flight,
//! there is nobody to ping and no lease to expire, so the dispatch
//! thread must block on its event channel instead of running heartbeat
//! ticks — the same park an idle fleet gets between rounds. Two
//! observables pin it over a 400 ms window, even with a pathologically
//! short heartbeat: the pool thread (named `audit-pool`) is never
//! scheduled — and a heartbeat tick is the only thing that pings, so no
//! ping goes out — and the whole process burns (almost) no CPU. Then a
//! worker joins and the parked round must complete. This file is its
//! own test binary so the measurements are not contaminated by sibling
//! tests.

use std::time::Duration;

use audit_core::ga::{CostFunction, EvalDispatcher, Gene, ObjectiveSet};
use audit_core::{FitnessSpec, MeasurePolicy, MeasureSpec, Rig};
use audit_cpu::isa::Opcode;
use audit_net::{run_worker, Broker, BrokerConfig, EvalContext, FleetConfig, WorkerOptions};

fn ctx() -> EvalContext {
    EvalContext {
        chip: "bulldozer".into(),
        volts: None,
        throttle: None,
        spec: FitnessSpec {
            threads: 1,
            sub_blocks: 2,
            lp_slots: 2,
            cost: CostFunction::MaxDroop,
            spec: MeasureSpec::ga_eval(),
            policy: MeasurePolicy::disabled(),
            objectives: ObjectiveSet::default(),
        },
        fast_tier_budget: 0,
    }
}

/// Cumulative on-CPU nanoseconds of this process, from
/// `/proc/self/schedstat` (first field).
#[cfg(target_os = "linux")]
fn on_cpu_ns() -> u64 {
    schedstat("/proc/self/schedstat")[0]
}

/// How many times the thread named `name` has been scheduled onto a
/// CPU, from its `/proc/self/task/<tid>/schedstat` (third field).
#[cfg(target_os = "linux")]
fn times_scheduled(name: &str) -> u64 {
    let task = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|task| {
            std::fs::read_to_string(task.join("comm")).is_ok_and(|comm| comm.trim() == name)
        })
        .unwrap_or_else(|| panic!("no thread named {name}"));
    schedstat(task.join("schedstat").to_str().unwrap())[2]
}

#[cfg(target_os = "linux")]
fn schedstat(path: &str) -> Vec<u64> {
    std::fs::read_to_string(path)
        .unwrap()
        .split_whitespace()
        .map(|field| field.parse().unwrap())
        .collect()
}

#[test]
fn round_with_no_workers_parks_until_one_joins() {
    // A pathologically short heartbeat: a loop that kept ticking with
    // nobody connected would wake ~40 times in the window.
    let cfg = BrokerConfig {
        seed: 5,
        pool: FleetConfig {
            heartbeat: Duration::from_millis(10),
            dead_after: Duration::from_secs(30),
            ..FleetConfig::default()
        },
    };
    let mut broker = Broker::bind("127.0.0.1:0", &ctx(), cfg).unwrap();
    let addr = broker.addr().to_string();
    let metrics = broker.metrics();
    let genome = vec![
        Gene {
            opcode: Opcode::SimdFma,
            dst: 0,
            src1: 1,
            src2: 2,
            miss: false,
        };
        8
    ];
    let expected = ctx().spec.evaluate_objectives(&Rig::bulldozer(), &genome).0;
    let round = std::thread::spawn(move || {
        let scores = broker.evaluate(&[genome], &[0]);
        (broker, scores)
    });
    // The round is open once its job shows up in the queue gauge.
    while metrics
        .queue_depth
        .load(std::sync::atomic::Ordering::Relaxed)
        == 0
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));

    #[cfg(target_os = "linux")]
    {
        let (woken, cpu) = (times_scheduled("audit-pool"), on_cpu_ns());
        std::thread::sleep(Duration::from_millis(400));
        let woken = times_scheduled("audit-pool") - woken;
        assert!(
            woken < 5,
            "the dispatch thread ran {woken} times with nobody to ping; a parked \
             thread is not scheduled at all"
        );
        let spent = on_cpu_ns() - cpu;
        assert!(
            spent < 200_000_000,
            "a round with no workers burned {spent} ns CPU over a 400 ms window"
        );
    }
    assert_eq!(
        metrics
            .dispatches
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "nothing can be dispatched with no worker connected"
    );

    // A joining worker wakes the pool and the parked round completes.
    let worker = std::thread::spawn(move || run_worker(&addr, &WorkerOptions::default()));
    let (mut broker, scores) = round.join().unwrap();
    assert_eq!(scores.unwrap(), vec![(0, expected)]);
    broker.shutdown();
    worker.join().unwrap().unwrap();
}
