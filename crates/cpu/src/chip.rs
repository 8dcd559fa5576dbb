//! The whole-chip simulator: modules + uncore, stepped one clock cycle
//! at a time, reporting total current draw.

use audit_error::AuditError;

use crate::config::{ChipConfig, DidtLimiter};
use crate::inst::Program;
use crate::module_sim::{ModuleCycle, ModuleSim};
use crate::placement::Placement;

/// Per-cycle output of the chip — the sample handed to the PDN solver.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChipCycle {
    /// Total chip current this cycle, in amps.
    pub amps: f64,
    /// Instructions retired chip-wide this cycle.
    pub retired: u32,
    /// FP ops issued chip-wide this cycle.
    pub fp_issued: u32,
    /// Maximum critical-path sensitivity exercised anywhere this cycle —
    /// consumed by the failure model.
    pub max_path: f64,
}

/// The chip simulator.
///
/// Modules share no state, so chip modules given equal loads — the same
/// programs on the same cores at the same start offsets, as when one
/// stressmark is replicated one thread per module — step identically.
/// The chip keeps one [`ModuleSim`] per *distinct* module and steps each
/// once per cycle; [`ChipSim::inject_stall`] gives a module its own copy
/// before it diverges (copy-on-write). Results are bit-identical to
/// stepping every module separately.
///
/// # Example
///
/// ```
/// use audit_cpu::{AuditError, ChipConfig, ChipSim, Program};
///
/// # fn main() -> Result<(), AuditError> {
/// let config = ChipConfig::bulldozer();
/// let placement = config.spread_placement(2)?;
/// let programs = [Program::nops(16), Program::nops(16)];
/// let mut chip = ChipSim::new(&config, &placement, &programs)?;
/// for _ in 0..1000 {
///     let out = chip.step();
///     assert!(out.amps > 0.0);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChipSim {
    /// One simulator per distinct module.
    states: Vec<ModuleSim>,
    /// This cycle's output of each entry of `states`.
    state_cycles: Vec<ModuleCycle>,
    /// Chip module `m` is simulated by `states[module_state[m]]`.
    module_state: Vec<usize>,
    uncore_amps: f64,
    miss_amps: f64,
    now: u64,
    placement: Placement,
    limiter: Option<DidtLimiter>,
    prev_amps: f64,
    throttle_until: u64,
    limiter_triggers: u64,
}

impl ChipSim {
    /// Builds a chip with `programs[i]` loaded on `placement.slots()[i]`,
    /// all threads starting at cycle 0 (use
    /// [`ChipSim::with_start_offsets`] for alignment control).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] if counts mismatch or a
    /// slot is invalid, and [`AuditError::Unsupported`] if a program
    /// needs FMA on a non-FMA chip.
    pub fn new(
        config: &ChipConfig,
        placement: &Placement,
        programs: &[Program],
    ) -> Result<Self, AuditError> {
        Self::with_start_offsets(config, placement, programs, &vec![0; programs.len()])
    }

    /// Builds a chip where thread `i` begins fetching only after
    /// `start_offsets[i]` cycles — the alignment handle the dithering
    /// algorithm sweeps (paper §3.B).
    ///
    /// # Errors
    ///
    /// Fails under the same conditions as [`ChipSim::new`]; offsets
    /// beyond the program count are a mismatch as well.
    pub fn with_start_offsets(
        config: &ChipConfig,
        placement: &Placement,
        programs: &[Program],
        start_offsets: &[u64],
    ) -> Result<Self, AuditError> {
        if placement.thread_count() != programs.len() || programs.len() != start_offsets.len() {
            return Err(AuditError::invalid(
                "ChipSim",
                "programs",
                format!(
                    "placement has {} slots but {} programs were supplied",
                    placement.thread_count(),
                    programs.len()
                ),
            ));
        }
        for p in programs {
            if !config.supports_fma && !p.avoids_fma() {
                return Err(AuditError::Unsupported {
                    context: "ChipSim",
                    message: format!(
                        "program `{}` uses instructions this chip does not support",
                        p.name()
                    ),
                });
            }
        }
        // Each module's loads, `(core, program, start offset)` sorted by
        // core: modules with equal loads share one simulator.
        let mut loads: Vec<Vec<(u32, &Program, u64)>> = vec![Vec::new(); config.modules as usize];
        for ((&(m, c), program), &offset) in
            placement.slots().iter().zip(programs).zip(start_offsets)
        {
            if m >= config.modules || c >= config.module.cores {
                return Err(AuditError::invalid(
                    "ChipSim",
                    "placement",
                    format!("slot ({m}, {c}) does not exist on this chip"),
                ));
            }
            loads[m as usize].push((c, program, offset));
        }
        for module_loads in &mut loads {
            module_loads.sort_by_key(|&(c, ..)| c);
        }
        let mut states = Vec::new();
        let mut module_state: Vec<usize> = Vec::with_capacity(loads.len());
        for (m, module_loads) in loads.iter().enumerate() {
            let state = match loads[..m].iter().position(|l| l == module_loads) {
                Some(earlier) => module_state[earlier],
                None => {
                    let mut sim = ModuleSim::new(config.module, config.core, config.energy);
                    for &(c, program, offset) in module_loads {
                        sim.load(c, program, offset);
                    }
                    states.push(sim);
                    states.len() - 1
                }
            };
            module_state.push(state);
        }
        Ok(ChipSim {
            state_cycles: vec![ModuleCycle::default(); states.len()],
            states,
            module_state,
            uncore_amps: config.energy.uncore_amps,
            miss_amps: config.energy.miss_amps,
            now: 0,
            placement: placement.clone(),
            limiter: config.didt_limiter,
            prev_amps: 0.0,
            throttle_until: 0,
            limiter_triggers: 0,
        })
    }

    /// Advances the chip one clock cycle.
    pub fn step(&mut self) -> ChipCycle {
        let fetch_cap = match self.limiter {
            Some(l) if self.now < self.throttle_until => l.fetch_cap,
            _ => u32::MAX,
        };
        for (state, cycle) in self.states.iter_mut().zip(&mut self.state_cycles) {
            *cycle = state.step_with_fetch_cap(self.now, fetch_cap);
        }
        // Fold in chip-module order, one term per module, exactly as if
        // every module had been stepped on its own.
        let mut out = ChipCycle {
            amps: self.uncore_amps,
            ..ChipCycle::default()
        };
        for &state in &self.module_state {
            let mc = self.state_cycles[state];
            out.amps += mc.amps + mc.misses as f64 * self.miss_amps;
            out.retired += mc.retired;
            out.fp_issued += mc.fp_issued;
            out.max_path = out.max_path.max(mc.max_path);
        }
        // Di/dt controller: trigger on a steep current rise.
        if let Some(l) = self.limiter {
            if out.amps - self.prev_amps > l.slew_amps_per_cycle {
                if self.now >= self.throttle_until {
                    self.limiter_triggers += 1;
                }
                self.throttle_until = self.now + 1 + l.hold_cycles as u64;
            }
        }
        self.prev_amps = out.amps;
        self.now += 1;
        out
    }

    /// Number of distinct di/dt-limiter engagements so far.
    pub fn limiter_triggers(&self) -> u64 {
        self.limiter_triggers
    }

    /// Current chip cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of threads placed.
    pub fn thread_count(&self) -> usize {
        self.placement.thread_count()
    }

    /// Injects a front-end stall into thread `thread_idx` (by placement
    /// order) lasting `cycles` — OS interrupt service and dither padding
    /// both use this hook.
    ///
    /// # Panics
    ///
    /// Panics if `thread_idx` is out of range.
    pub fn inject_stall(&mut self, thread_idx: usize, cycles: u64) {
        let (m, c) = self.placement.slots()[thread_idx];
        let m = m as usize;
        let state = self.module_state[m];
        if self.module_state.iter().filter(|&&s| s == state).count() > 1 {
            // Shared with another module: diverge on a private copy.
            self.states.push(self.states[state].clone());
            self.state_cycles.push(ModuleCycle::default());
            self.module_state[m] = self.states.len() - 1;
        }
        let now = self.now;
        self.states[self.module_state[m]]
            .core_mut(c)
            .inject_stall(now, cycles);
    }

    /// The simulator of chip module `m`.
    fn module(&self, m: u32) -> &ModuleSim {
        &self.states[self.module_state[m as usize]]
    }

    /// Total instructions retired by thread `thread_idx` since load.
    ///
    /// # Panics
    ///
    /// Panics if `thread_idx` is out of range.
    pub fn thread_retired(&self, thread_idx: usize) -> u64 {
        let (m, c) = self.placement.slots()[thread_idx];
        self.module(m).core(c).retired_total()
    }

    /// Cumulative pipeline telemetry for thread `thread_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `thread_idx` is out of range.
    pub fn thread_telemetry(&self, thread_idx: usize) -> crate::core_sim::CoreTelemetry {
        let (m, c) = self.placement.slots()[thread_idx];
        *self.module(m).core(c).telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::isa::Opcode;

    fn fp_program() -> Program {
        Program::new(
            "fp",
            (0..12u8)
                .map(|i| Inst::new(Opcode::SimdFMul).fp_dst(i % 8).fp_srcs(14, 15))
                .collect(),
        )
    }

    fn avg_amps(chip: &mut ChipSim, cycles: u64) -> f64 {
        let mut total = 0.0;
        for _ in 0..cycles {
            total += chip.step().amps;
        }
        total / cycles as f64
    }

    #[test]
    fn more_threads_draw_more_current() {
        let cfg = ChipConfig::bulldozer();
        let mut prev = 0.0;
        for n in [1u32, 2, 4] {
            let placement = cfg.spread_placement(n).unwrap();
            let programs = vec![fp_program(); n as usize];
            let mut chip = ChipSim::new(&cfg, &placement, &programs).unwrap();
            let amps = avg_amps(&mut chip, 5_000);
            assert!(amps > prev, "{n}T {amps} vs prev {prev}");
            prev = amps;
        }
    }

    #[test]
    fn eight_threads_add_less_than_linear_fp() {
        // 4T→8T shares FPUs: current grows sublinearly for FP loops.
        let cfg = ChipConfig::bulldozer();
        let run = |n: u32| {
            let placement = cfg.spread_placement(n).unwrap();
            let programs = vec![fp_program(); n as usize];
            let mut chip = ChipSim::new(&cfg, &placement, &programs).unwrap();
            avg_amps(&mut chip, 5_000)
        };
        let i4 = run(4);
        let i8 = run(8);
        let idle = run_idle(&cfg);
        let gain = (i8 - idle) / (i4 - idle);
        assert!(gain < 1.6, "8T gain over 4T = {gain}");
        assert!(gain > 1.0, "8T should still draw more: {gain}");
    }

    fn run_idle(cfg: &ChipConfig) -> f64 {
        // A single NOP thread approximates the gated-idle floor.
        let placement = cfg.spread_placement(1).unwrap();
        let mut chip = ChipSim::new(cfg, &placement, &[Program::nops(8)]).unwrap();
        avg_amps(&mut chip, 2_000)
    }

    #[test]
    fn fma_program_rejected_on_phenom() {
        let cfg = ChipConfig::phenom();
        let placement = cfg.spread_placement(1).unwrap();
        let p = Program::new("sm1-like", vec![Inst::new(Opcode::SimdFma)]);
        let err = ChipSim::new(&cfg, &placement, &[p]).unwrap_err();
        assert!(matches!(err, AuditError::Unsupported { .. }));
        assert!(err.to_string().contains("sm1-like"));
    }

    #[test]
    fn placement_mismatch_is_reported() {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(2).unwrap();
        let err = ChipSim::new(&cfg, &placement, &[Program::nops(4)]).unwrap_err();
        assert!(matches!(err, AuditError::InvalidConfig { .. }));
        assert!(
            err.to_string().contains("2 slots") && err.to_string().contains("1 programs"),
            "{err}"
        );
    }

    #[test]
    fn start_offsets_shift_thread_progress() {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(2).unwrap();
        let programs = vec![fp_program(), fp_program()];
        let mut chip = ChipSim::with_start_offsets(&cfg, &placement, &programs, &[0, 500]).unwrap();
        for _ in 0..1_000 {
            chip.step();
        }
        assert!(chip.thread_retired(0) > chip.thread_retired(1) + 100);
    }

    #[test]
    fn chip_current_includes_uncore_floor() {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(1).unwrap();
        let mut chip = ChipSim::new(&cfg, &placement, &[Program::nops(8)]).unwrap();
        let amps = chip.step().amps;
        assert!(amps >= cfg.energy.uncore_amps);
    }

    #[test]
    fn determinism_across_clones() {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(4).unwrap();
        let programs = vec![fp_program(); 4];
        let run = || {
            let mut chip = ChipSim::new(&cfg, &placement, &programs).unwrap();
            (0..3_000).map(|_| chip.step().amps).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn didt_limiter_engages_and_cuts_current_swing() {
        use crate::config::DidtLimiter;
        let base = ChipConfig::bulldozer();
        let limited = base
            .clone()
            .with_didt_limiter(DidtLimiter::default_tuning());
        // A bursty loop: quiet then a dense SIMD burst, repeated.
        let mut body = vec![Inst::new(Opcode::Nop); 60];
        body.extend((0..60u8).map(|i| match i % 4 {
            0 | 1 => Inst::new(Opcode::SimdFma).fp_dst(i % 8).fp_srcs(12, 13),
            2 => Inst::new(Opcode::IAdd).int_dst(i % 6).int_srcs(8, 9),
            _ => Inst::new(Opcode::Nop),
        }));
        let program = Program::new("bursty", body);
        let placement = base.spread_placement(4).unwrap();
        let programs = vec![program; 4];

        // The limiter is reactive: it cannot clip the first cycle of a
        // burst (in-flight ops still issue) but it must engage on every
        // burst and smear the sustained activity — measured here as the
        // standard deviation of the current waveform.
        let run = |cfg: &ChipConfig| {
            let mut chip = ChipSim::new(cfg, &placement, &programs).unwrap();
            for _ in 0..2_000 {
                chip.step();
            }
            let trace: Vec<f64> = (0..4_000).map(|_| chip.step().amps).collect();
            let mean = trace.iter().sum::<f64>() / trace.len() as f64;
            let var =
                trace.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / trace.len() as f64;
            (var.sqrt(), chip.limiter_triggers())
        };
        let (free_sigma, free_triggers) = run(&base);
        let (lim_sigma, lim_triggers) = run(&limited);
        assert_eq!(free_triggers, 0);
        assert!(lim_triggers > 0, "limiter never engaged");
        assert!(
            lim_sigma < 0.9 * free_sigma,
            "sigma {lim_sigma} vs unprotected {free_sigma}"
        );
    }

    #[test]
    fn didt_limiter_costs_throughput() {
        use crate::config::DidtLimiter;
        let base = ChipConfig::bulldozer();
        let limited = base.clone().with_didt_limiter(DidtLimiter {
            slew_amps_per_cycle: 2.0,
            hold_cycles: 32,
            fetch_cap: 1,
        });
        let placement = base.spread_placement(2).unwrap();
        let programs = vec![fp_program(); 2];
        let run = |cfg: &ChipConfig| {
            let mut chip = ChipSim::new(cfg, &placement, &programs).unwrap();
            for _ in 0..5_000 {
                chip.step();
            }
            chip.thread_retired(0)
        };
        assert!(run(&limited) < run(&base));
    }

    #[test]
    fn injected_stall_reduces_current() {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(1).unwrap();
        let mut chip = ChipSim::new(&cfg, &placement, &[fp_program()]).unwrap();
        let before = avg_amps(&mut chip, 2_000);
        chip.inject_stall(0, 2_000);
        let during = avg_amps(&mut chip, 1_500);
        assert!(during < before - 1.0, "during {during} vs before {before}");
    }
}
