//! Property-based tests for the processor model.

use audit_cpu::{ChipConfig, ChipCycle, ChipSim, DidtLimiter, Inst, MemBehavior, Opcode, Program};
use audit_stressmark::{manual, workloads};
use proptest::prelude::*;

/// Strategy producing an arbitrary (non-branch) instruction.
fn any_inst() -> impl Strategy<Value = Inst> {
    (
        0usize..Opcode::ALL.len(),
        0u8..16,
        0u8..16,
        0u8..16,
        0.0f64..=1.0,
    )
        .prop_map(|(op_idx, d, s1, s2, toggle)| {
            let op = Opcode::ALL[op_idx];
            let mut inst = Inst::new(op).toggle(toggle);
            if op.props().fp_dst {
                inst = inst.fp_dst(d).fp_srcs(s1, s2);
            } else if !matches!(op, Opcode::Nop | Opcode::Store | Opcode::Branch) {
                inst = inst.int_dst(d).int_srcs(s1, s2);
            }
            if matches!(op, Opcode::Load) {
                inst = inst.mem(MemBehavior::L2MissEvery { period: 64 });
            }
            inst
        })
}

fn any_program() -> impl Strategy<Value = Program> {
    prop::collection::vec(any_inst(), 1..64).prop_map(|body| Program::new("prop", body))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No random program can wedge the pipeline: the chip keeps retiring
    /// instructions (forward progress), and current stays within the
    /// physically sensible envelope.
    #[test]
    fn random_programs_make_forward_progress(program in any_program()) {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(1).unwrap();
        let mut chip = ChipSim::new(&cfg, &placement, &[program]).unwrap();
        let mut max_amps = 0.0f64;
        for _ in 0..20_000 {
            let out = chip.step();
            prop_assert!(out.amps.is_finite());
            max_amps = max_amps.max(out.amps);
        }
        prop_assert!(chip.thread_retired(0) > 0, "pipeline wedged");
        // Sanity envelope: a single thread cannot exceed ~40 A + uncore.
        prop_assert!(max_amps < 60.0, "implausible current {max_amps}");
    }

    /// IPC can never exceed the architectural width (paper §4: max IPC
    /// of four per thread).
    #[test]
    fn ipc_respects_width(program in any_program()) {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(1).unwrap();
        let mut chip = ChipSim::new(&cfg, &placement, &[program]).unwrap();
        let cycles = 10_000u64;
        for _ in 0..cycles {
            chip.step();
        }
        let ipc = chip.thread_retired(0) as f64 / cycles as f64;
        prop_assert!(ipc <= 4.0 + 1e-9, "ipc = {ipc}");
    }

    /// Replicating a thread across more modules never lowers chip
    /// current (monotone activity), for FP-free programs where sharing
    /// cannot invert the ordering.
    #[test]
    fn more_modules_more_current(body in prop::collection::vec(any_inst(), 1..32)) {
        let body: Vec<Inst> = body
            .into_iter()
            .filter(|i| !i.opcode.is_fp())
            .collect();
        prop_assume!(!body.is_empty());
        let program = Program::new("int-only", body);
        let cfg = ChipConfig::bulldozer();
        let mut prev = 0.0;
        for n in [1u32, 2, 4] {
            let placement = cfg.spread_placement(n).unwrap();
            let programs = vec![program.clone(); n as usize];
            let mut chip = ChipSim::new(&cfg, &placement, &programs).unwrap();
            let mut total = 0.0;
            for _ in 0..4_000 {
                total += chip.step().amps;
            }
            let avg = total / 4_000.0;
            prop_assert!(avg >= prev - 0.2, "{n}T avg {avg} < prev {prev}");
            prev = avg;
        }
    }

    /// Simulation is deterministic for arbitrary programs.
    #[test]
    fn chip_is_deterministic(program in any_program()) {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(2).unwrap();
        let programs = vec![program.clone(), program];
        let run = || {
            let mut chip = ChipSim::new(&cfg, &placement, &programs).unwrap();
            (0..2_000).map(|_| chip.step().amps).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Raising every instruction's toggle factor never lowers average
    /// current (the data-value effect is monotone).
    #[test]
    fn toggle_effect_is_monotone(body in prop::collection::vec(any_inst(), 4..32)) {
        let mk = |toggle: f64| {
            Program::new(
                "t",
                body.iter().map(|i| { let mut i = *i; i.toggle = toggle; i }).collect(),
            )
        };
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(1).unwrap();
        let avg = |p: Program| {
            let mut chip = ChipSim::new(&cfg, &placement, &[p]).unwrap();
            let mut total = 0.0;
            for _ in 0..4_000 {
                total += chip.step().amps;
            }
            total / 4_000.0
        };
        let lo = avg(mk(0.0));
        let hi = avg(mk(1.0));
        prop_assert!(hi >= lo - 1e-9, "hi {hi} < lo {lo}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Modules given equal loads are simulated once; the chip must be
    /// bit-identical to one where every thread's program differs (by
    /// name only), so nothing is shared. Some threads start late, so
    /// only part of the chip collapses, and a stall injected mid-run
    /// makes one shared module diverge.
    #[test]
    fn collapsed_chip_matches_distinct_loads(
        program in any_program(),
        threads in 1u32..=8,
        knobs in (any::<bool>(), any::<bool>(), any::<bool>()),
        late in prop::collection::vec(any::<bool>(), 8..9),
        stall in (0usize..8, 0u64..3_000, 1u64..400),
    ) {
        let (phenom, limiter, throttle) = knobs;
        let (stall_thread, stall_at, stall_cycles) = stall;
        let mut cfg = if phenom { ChipConfig::phenom() } else { ChipConfig::bulldozer() };
        if limiter {
            cfg = cfg.with_didt_limiter(DidtLimiter::default_tuning());
        }
        if throttle {
            cfg = cfg.with_fpu_throttle(1);
        }
        let body: Vec<Inst> = program
            .body()
            .iter()
            .copied()
            .filter(|i| cfg.supports_fma || !i.opcode.props().needs_fma)
            .collect();
        prop_assume!(!body.is_empty());
        let threads = threads.min(cfg.modules * cfg.module.cores);
        let n = threads as usize;
        let placement = cfg.spread_placement(threads).unwrap();
        let offsets: Vec<u64> = late[..n].iter().map(|&l| if l { 37 } else { 0 }).collect();
        let shared = vec![Program::new("prop", body.clone()); n];
        let distinct: Vec<Program> =
            (0..n).map(|i| Program::new(format!("prop{i}"), body.clone())).collect();
        let mut a = ChipSim::with_start_offsets(&cfg, &placement, &shared, &offsets).unwrap();
        let mut b = ChipSim::with_start_offsets(&cfg, &placement, &distinct, &offsets).unwrap();
        for cycle in 0..3_000u64 {
            if cycle == stall_at {
                a.inject_stall(stall_thread % n, stall_cycles);
                b.inject_stall(stall_thread % n, stall_cycles);
            }
            let (x, y) = (a.step(), b.step());
            prop_assert_eq!(x.amps.to_bits(), y.amps.to_bits(), "amps at cycle {}", cycle);
            prop_assert_eq!(x.max_path.to_bits(), y.max_path.to_bits(), "path at {}", cycle);
            prop_assert_eq!((x.retired, x.fp_issued), (y.retired, y.fp_issued));
        }
        prop_assert_eq!(a.limiter_triggers(), b.limiter_triggers());
        for t in 0..n {
            prop_assert_eq!(a.thread_retired(t), b.thread_retired(t));
            prop_assert_eq!(a.thread_telemetry(t), b.thread_telemetry(t));
        }
    }
}

/// The hand-written stressmarks plus a phased SPEC-like body, or (for
/// any other `pick`) `random`.
fn pick_program(pick: usize, random: Program) -> Program {
    match pick {
        0 => manual::sm_res(),
        1 => manual::sm1(),
        2 => manual::sm2(),
        3 => manual::joseph_virus(),
        4 => manual::barrier_burst(),
        5 => workloads::by_name("zeusmp")
            .expect("zeusmp profile exists")
            .synthesize(400, 1),
        _ => random,
    }
}

/// `program` restricted to what `cfg` can run (no FMA on Phenom).
fn runnable(cfg: &ChipConfig, program: &Program) -> Option<Program> {
    let body: Vec<Inst> = program
        .body()
        .iter()
        .copied()
        .filter(|i| cfg.supports_fma || !i.opcode.props().needs_fma)
        .collect();
    (!body.is_empty()).then(|| Program::new(program.name(), body))
}

fn same_cycle(x: ChipCycle, y: ChipCycle) -> bool {
    x.amps.to_bits() == y.amps.to_bits()
        && x.max_path.to_bits() == y.max_path.to_bits()
        && (x.retired, x.fp_issued) == (y.retired, y.fp_issued)
}

/// Steps a chip that replays its periodic steady state next to one
/// that steps every cycle, and returns the first difference. The
/// reference calls `inject_stall(0, 0)` — a no-op stall — before every
/// step, which restarts its search each cycle, so it never replays.
/// After 3 000 cycles the counters are read mid-replay and thread
/// `stall.0` is stalled for `stall.1` cycles, so the replaying chip must
/// catch up and lock again; after 3 000 more every `ChipCycle` has been
/// compared by bits and the counters are compared once more.
fn replay_mismatch(
    cfg: &ChipConfig,
    program: &Program,
    offsets: &[u64],
    stall: (usize, u64),
) -> Option<String> {
    let n = offsets.len();
    let placement = cfg.spread_placement(n as u32).unwrap();
    let programs = vec![program.clone(); n];
    let mut replay = ChipSim::with_start_offsets(cfg, &placement, &programs, offsets).unwrap();
    let mut stepped = ChipSim::with_start_offsets(cfg, &placement, &programs, offsets).unwrap();
    let counters = |chip: &ChipSim| {
        let threads: Vec<_> = (0..n)
            .map(|t| (chip.thread_retired(t), chip.thread_telemetry(t)))
            .collect();
        (chip.now(), chip.limiter_triggers(), threads)
    };
    let half = 3_000u64;
    for cycle in 0..2 * half {
        if cycle == half {
            if counters(&replay) != counters(&stepped) {
                return Some(format!("counters differ mid-run at cycle {cycle}"));
            }
            replay.inject_stall(stall.0 % n, stall.1);
            stepped.inject_stall(stall.0 % n, stall.1);
        }
        stepped.inject_stall(0, 0);
        let (x, y) = (replay.step(), stepped.step());
        if !same_cycle(x, y) {
            return Some(format!("cycle {cycle}: {x:?} replayed vs {y:?} stepped"));
        }
    }
    (counters(&replay) != counters(&stepped)).then(|| "counters differ at the end".into())
}

/// Cases of [`replay_matches_stepping`]: `PROPTEST_CASES` when set
/// (scripts/check.sh runs 1024 in release), else 64.
fn replay_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(replay_cases()))]

    /// Replaying the periodic steady state is bit-identical to stepping
    /// (see [`replay_mismatch`]), for random programs, the hand-written
    /// stressmarks and a phased SPEC-like body, on 1–8 threads of either
    /// chip, with and without the di/dt limiter, and from start offsets
    /// that are either all equal and small or independent.
    #[test]
    fn replay_matches_stepping(
        random in any_program(),
        pick in 0usize..10,
        threads in 1u32..=8,
        knobs in (any::<bool>(), any::<bool>(), any::<bool>()),
        offsets in prop::collection::vec(0u64..200, 8..9),
        stall in (0usize..8, 1u64..400),
    ) {
        let (phenom, limiter, aligned) = knobs;
        let mut cfg = if phenom { ChipConfig::phenom() } else { ChipConfig::bulldozer() };
        if limiter {
            cfg = cfg.with_didt_limiter(DidtLimiter::default_tuning());
        }
        let program = runnable(&cfg, &pick_program(pick, random));
        prop_assume!(program.is_some());
        let n = threads.min(cfg.modules * cfg.module.cores) as usize;
        let offsets: Vec<u64> = if aligned {
            vec![offsets[0] % 8; n]
        } else {
            offsets[..n].to_vec()
        };
        let mismatch = replay_mismatch(&cfg, &program.unwrap(), &offsets, stall);
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }
}

/// Inputs a mutation search found where a replay keyed on less state
/// diverges from stepping, pinned so every run covers them:
///
/// * a dependent integer chain behind a divide on 5–8 threads, whose
///   state minus the sibling-priority parity (`now % cores`) recurs
///   after an odd number of cycles;
/// * a short integer/SIMD loop on two threads started 61 and 193 cycles
///   late under the di/dt limiter, whose state minus the limiter's
///   memory of the previous cycle's current (`prev_amps`) recurs while
///   that memory still decides whether the limiter fires.
#[test]
fn replay_matches_stepping_on_pinned_witnesses() {
    let chain = Program::new(
        "int-chain",
        vec![
            Inst::new(Opcode::IDiv).int_dst(0).int_srcs(4, 2),
            Inst::new(Opcode::Lea).int_dst(3).int_srcs(3, 0),
            Inst::new(Opcode::Nop),
            Inst::new(Opcode::Lea).int_dst(0).int_srcs(3, 2),
            Inst::new(Opcode::IXor).int_dst(2).int_srcs(1, 2),
            Inst::new(Opcode::IXor).int_dst(0).int_srcs(3, 3),
            Inst::new(Opcode::IMul).int_dst(1).int_srcs(1, 1),
        ],
    );
    let staggered = Program::new(
        "staggered",
        vec![
            Inst::new(Opcode::Lea).int_dst(3).int_srcs(0, 0),
            Inst::new(Opcode::SimdIAdd).fp_dst(3).fp_srcs(3, 5),
            Inst::new(Opcode::ISub).int_dst(0).int_srcs(5, 2),
        ],
    );
    let bulldozer = ChipConfig::bulldozer();
    let limited = bulldozer
        .clone()
        .with_didt_limiter(DidtLimiter::default_tuning());
    let cases = [
        (&bulldozer, &chain, vec![0; 5]),
        (&bulldozer, &chain, vec![0; 8]),
        (&limited, &staggered, vec![61, 193]),
    ];
    for (cfg, program, offsets) in cases {
        if let Some(m) = replay_mismatch(cfg, program, &offsets, (0, 100)) {
            panic!("{} on {} threads: {m}", program.name(), offsets.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chip is time-invariant: delaying every thread's start by `d`
    /// cycles shifts the whole `ChipCycle` stream by `d`, bit for bit,
    /// after `d` cycles of the idle floor — when `d` is a multiple of
    /// the cores per module (sibling cores alternate FPU priority by
    /// cycle parity) and no di/dt limiter is fitted (its memory of the
    /// previous cycle's current starts at zero, not at the idle floor).
    #[test]
    fn chip_stream_is_shift_invariant(
        random in any_program(),
        pick in 0usize..8,
        threads in 1u32..=8,
        phenom in any::<bool>(),
        offsets in prop::collection::vec(0u64..64, 8..9),
        delay in 1u64..60,
    ) {
        let cfg = if phenom { ChipConfig::phenom() } else { ChipConfig::bulldozer() };
        let program = runnable(&cfg, &pick_program(pick, random));
        prop_assume!(program.is_some());
        let program = program.unwrap();
        let threads = threads.min(cfg.modules * cfg.module.cores);
        let n = threads as usize;
        let d = delay * u64::from(cfg.module.cores);
        let placement = cfg.spread_placement(threads).unwrap();
        let programs = vec![program; n];
        let base = &offsets[..n];
        let delayed: Vec<u64> = base.iter().map(|o| o + d).collect();
        let mut early = ChipSim::with_start_offsets(&cfg, &placement, &programs, base).unwrap();
        let mut late = ChipSim::with_start_offsets(&cfg, &placement, &programs, &delayed).unwrap();
        let idle = late.step();
        for cycle in 1..d {
            let c = late.step();
            prop_assert!(same_cycle(c, idle), "cycle {} of the delay: {:?}", cycle, c);
        }
        for cycle in 0..4_000u64 {
            let (x, y) = (early.step(), late.step());
            prop_assert!(same_cycle(x, y), "cycle {}: {:?} vs {:?} shifted", cycle, x, y);
        }
    }
}
