//! Property-based tests for the processor model.

use audit_cpu::{ChipConfig, ChipSim, DidtLimiter, Inst, MemBehavior, Opcode, Program};
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
