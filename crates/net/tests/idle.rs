//! The no-busy-wait contract: an idle pool parks.
//!
//! Whenever there is nobody to ping and no lease to expire, the pool
//! thread (named `audit-pool`) blocks on its event channel (a condvar
//! wait) instead of running heartbeat ticks. Two cases reach that rule,
//! and each is pinned over a 400 ms window with a pathologically short
//! heartbeat:
//!
//! * **An idle fleet.** With no round open anywhere, a connected worker
//!   receives *no* pings (heartbeat ticks only fire between rounds in
//!   flight) and the whole process burns (almost) no CPU. Opening a
//!   round then makes the pings resume.
//! * **A round nobody can run.** With a round open on an `audit serve`
//!   broker but no worker connected, nothing is in flight: the pool
//!   thread is never scheduled (a heartbeat tick is the only thing that
//!   pings, so no ping goes out), nor is the front door's accept thread
//!   (`audit-door`, blocked in `accept`), and the process burns (almost)
//!   no CPU.
//!   Then a worker joins and the parked round must complete.
//!
//! Each case is its own test, and both hold one lock for their whole
//! body, so their CPU windows never overlap; this file is its own test
//! binary so the measurements are not contaminated by other tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use audit_core::ga::{CostFunction, EvalDispatcher, Gene, ObjectiveSet};
use audit_core::{FitnessSpec, MeasurePolicy, MeasureSpec, Rig};
use audit_cpu::isa::Opcode;
use audit_net::{
    connect, read_frame, run_worker, write_frame, Broker, BrokerConfig, CampaignSpec, EvalContext,
    Fleet, FleetConfig, FrameOutcome, Msg, PoolHandle, WorkerOptions, PROTOCOL_VERSION,
};

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

fn genome() -> Vec<Gene> {
    vec![
        Gene {
            opcode: Opcode::SimdFma,
            dst: 0,
            src1: 1,
            src2: 2,
            miss: false,
        };
        8
    ]
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

/// Held by each test for its whole body: the CPU figures are
/// process-wide, so a sibling running alongside would be charged to the
/// window being measured. A failed sibling does not poison the lock.
fn exclusive() -> MutexGuard<'static, ()> {
    static WINDOW: Mutex<()> = Mutex::new(());
    WINDOW
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn parked_pool_neither_pings_nor_spins() {
    let _window = exclusive();
    // A pathologically short heartbeat: a non-parking event loop would
    // tick ~100×/s and ping the worker every tick.
    let cfg = FleetConfig {
        heartbeat: Duration::from_millis(10),
        dead_after: Duration::from_secs(30),
        ..FleetConfig::default()
    };
    let mut manager = Fleet::bind("127.0.0.1:0", cfg).unwrap();
    let addr = manager.addr().to_string();

    // A hand-rolled worker that counts pings and answers nothing.
    let pings = Arc::new(AtomicUsize::new(0));
    let ping_count = Arc::clone(&pings);
    let silent = std::thread::spawn(move || {
        let mut conn = connect(&addr).unwrap();
        write_frame(
            &mut conn,
            &Msg::Hello {
                protocol: PROTOCOL_VERSION,
            }
            .to_json(),
        )
        .unwrap();
        loop {
            match read_frame(&mut conn) {
                Ok(FrameOutcome::Frame(v)) => match Msg::from_json(&v) {
                    Ok(Msg::Ping) => {
                        ping_count.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(Msg::Shutdown) => return,
                    _ => {}
                },
                _ => return,
            }
        }
    });
    let pool: PoolHandle = manager.handle();
    pool.wait_for_workers(1).unwrap();

    // Idle window: no campaign, no round — the pool must park.
    #[cfg(target_os = "linux")]
    let before = on_cpu_ns();
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        pings.load(Ordering::SeqCst),
        0,
        "a parked pool has no heartbeat tick, so no pings"
    );
    #[cfg(target_os = "linux")]
    {
        let spent = on_cpu_ns() - before;
        // A busy-spinning loop would burn ~the whole 400 ms window on
        // CPU; the parked loop (plus this thread and the blocked
        // reader) should cost a small fraction of it.
        assert!(
            spent < 200_000_000,
            "idle fleet burned {spent} ns CPU over a 400 ms window"
        );
    }

    // Control for the ping half: open a round (the silent worker never
    // answers, leaving it in flight) and the heartbeat timer resumes —
    // pings flow again, proving their absence above was the park, not
    // a missing feature.
    let id = pool
        .register(CampaignSpec {
            name: "waker".into(),
            ctx: ctx(),
            seed: 1,
            weight: 1,
            wal: None,
        })
        .unwrap();
    let mut dispatcher = pool.dispatcher(id);
    let round = std::thread::spawn(move || {
        // Fails when the manager shuts down mid-round — expected.
        let _ = dispatcher.evaluate(&[genome()], &[0]);
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while pings.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        pings.load(Ordering::SeqCst) > 0,
        "heartbeat pings did not resume once a round was in flight"
    );
    manager.shutdown();
    round.join().unwrap();
    silent.join().unwrap();
}

#[test]
fn round_with_no_workers_parks_until_one_joins() {
    let _window = exclusive();
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
    let genome = genome();
    let expected = ctx().spec.evaluate_objectives(&Rig::bulldozer(), &genome).0;
    let round = std::thread::spawn(move || {
        let scores = broker.evaluate(&[genome], &[0]);
        (broker, scores)
    });
    // The round is open once its job shows up in the queue gauge.
    while metrics.queue_depth.load(Ordering::Relaxed) == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));

    #[cfg(target_os = "linux")]
    {
        let (woken, door, cpu) = (
            times_scheduled("audit-pool"),
            times_scheduled("audit-door"),
            on_cpu_ns(),
        );
        std::thread::sleep(Duration::from_millis(400));
        let woken = times_scheduled("audit-pool") - woken;
        assert!(
            woken < 5,
            "the dispatch thread ran {woken} times with nobody to ping; a parked \
             thread is not scheduled at all"
        );
        let door = times_scheduled("audit-door") - door;
        assert!(
            door < 5,
            "the accept thread ran {door} times with nobody connecting; it should \
             block in accept"
        );
        let spent = on_cpu_ns() - cpu;
        assert!(
            spent < 200_000_000,
            "a round with no workers burned {spent} ns CPU over a 400 ms window"
        );
    }
    assert_eq!(
        metrics.dispatches.load(Ordering::Relaxed),
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
