//! One Bulldozer-style module: one or two cores plus shared front end
//! and shared FP/SIMD unit.
//!
//! Sharing is what makes 8-thread stressmarks behave differently from
//! 4-thread ones in the paper (§5.A.2): with two threads per module the
//! FPU pipes are arbitrated between siblings, shifting loop periods and
//! breaking resonance alignment. FPU throttling (§5.B) is also enforced
//! here, as a static cap on FP issues per module per cycle.

use crate::config::{CoreConfig, ModuleConfig};
use crate::core_sim::{CoreCycle, CoreSim};
use crate::energy::EnergyModel;
use crate::inst::Program;
use crate::isa::Opcode;

/// Per-cycle output of a module.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModuleCycle {
    /// Module current this cycle (cores + shared FPU), amps.
    pub amps: f64,
    /// Total instructions retired by the module's cores this cycle.
    pub retired: u32,
    /// Total FP ops issued this cycle.
    pub fp_issued: u32,
    /// Max critical-path sensitivity across the module this cycle.
    pub max_path: f64,
    /// Off-core misses this cycle.
    pub misses: u32,
}

/// A module simulator: drives its cores with shared-resource budgets.
#[derive(Debug, Clone)]
pub struct ModuleSim {
    cfg: ModuleConfig,
    energy: EnergyModel,
    cores: Vec<CoreSim>,
    fp_sched_used: u32,
    /// Busy-until cycle per FP pipe (unpipelined FDiv blocks a pipe).
    fp_pipe_busy: Vec<u64>,
}

impl ModuleSim {
    /// Creates a module with all cores idle.
    pub fn new(cfg: ModuleConfig, core_cfg: CoreConfig, energy: EnergyModel) -> Self {
        ModuleSim {
            cfg,
            energy,
            cores: (0..cfg.cores)
                .map(|_| CoreSim::idle(core_cfg, energy))
                .collect(),
            fp_sched_used: 0,
            fp_pipe_busy: vec![0; cfg.fp_pipes as usize],
        }
    }

    /// Loads a program onto core `core_idx` of this module.
    ///
    /// # Panics
    ///
    /// Panics if `core_idx` is out of range.
    pub fn load(&mut self, core_idx: u32, program: &Program, start_offset: u64) {
        self.cores[core_idx as usize].load(program, start_offset);
    }

    /// Access to a core (for stall injection and probes).
    pub fn core_mut(&mut self, core_idx: u32) -> &mut CoreSim {
        &mut self.cores[core_idx as usize]
    }

    /// Read access to a core.
    pub fn core(&self, core_idx: u32) -> &CoreSim {
        &self.cores[core_idx as usize]
    }

    /// Number of cores with a loaded program.
    pub fn active_cores(&self) -> u32 {
        self.cores.iter().filter(|c| c.is_active()).count() as u32
    }

    /// Advances one cycle with no external fetch restriction.
    pub fn step(&mut self, now: u64) -> ModuleCycle {
        self.step_with_fetch_cap(now, u32::MAX)
    }

    /// Advances one cycle, with the front end capped at `fetch_cap`
    /// instructions per core — the actuator used by the chip-level di/dt
    /// limiter (fetch/decode throttling, cf. Grochowski et al. \[5\] and
    /// Pant et al. \[18\] in the paper's §2).
    pub fn step_with_fetch_cap(&mut self, now: u64, fetch_cap: u32) -> ModuleCycle {
        let mut out = ModuleCycle::default();

        // Free FP pipes this cycle, after the static throttle.
        let free_pipes = self.fp_pipe_busy.iter().filter(|&&b| b <= now).count() as u32;
        let mut fp_budget = match self.cfg.fp_throttle {
            Some(cap) => free_pipes.min(cap),
            None => free_pipes,
        };

        // Shared front end: with two active cores, alternate full-width
        // fetch between them each cycle.
        let both_active = self.cfg.shared_frontend && self.active_cores() > 1;

        // Alternate FPU priority between siblings for fairness.
        let n = self.cores.len();
        let first = (now % n as u64) as usize;
        let mut fdiv_blocks: Vec<u64> = Vec::new();

        for k in 0..n {
            let idx = (first + k) % n;
            let fetch_budget = if both_active {
                if idx == first {
                    fetch_cap
                } else {
                    0
                }
            } else {
                fetch_cap
            };
            let cycle: CoreCycle = {
                let fp_sched_cap = self.cfg.fp_sched;
                self.cores[idx].step(
                    now,
                    fetch_budget,
                    fp_budget,
                    &mut self.fp_sched_used,
                    fp_sched_cap,
                )
            };
            fp_budget -= cycle.fp_issued.min(fp_budget);
            if let Some(until) = cycle.fdiv_pipe_until {
                fdiv_blocks.push(until);
            }
            out.amps += cycle.amps;
            out.retired += cycle.retired;
            out.fp_issued += cycle.fp_issued;
            out.max_path = out.max_path.max(cycle.max_path);
            out.misses += cycle.misses;
        }

        // Record pipe blocking from FDivs issued this cycle.
        for until in fdiv_blocks {
            if let Some(pipe) = self.fp_pipe_busy.iter_mut().find(|b| **b <= now) {
                *pipe = until;
            }
        }
        // Busy-pipe background current (iterative divide hardware).
        let busy_pipes = self.fp_pipe_busy.iter().filter(|&&b| b > now).count();
        out.amps += busy_pipes as f64 * self.energy.busy_amps(Opcode::FDiv);

        out
    }

    /// Each active core's [`CoreSim::probe`] at cycle `now`.
    pub(crate) fn probes(&self, now: u64) -> impl Iterator<Item = u64> + '_ {
        self.cores
            .iter()
            .filter(|c| c.is_active())
            .flat_map(move |c| c.probe(now))
    }

    /// Appends the module's canonical state at cycle `now` (see
    /// [`CoreSim::encode_state`]): which sibling gets FPU priority
    /// (`now` modulo the core count), the shared FP scheduler
    /// occupancy, each pipe's busy time relative to `now`, then the
    /// cores in order.
    pub(crate) fn encode_state(&self, now: u64, key: &mut Vec<u64>) {
        key.push(now % self.cores.len() as u64);
        key.push(u64::from(self.fp_sched_used));
        key.extend(self.fp_pipe_busy.iter().map(|&b| b.saturating_sub(now)));
        for core in &self.cores {
            core.encode_state(now, key);
        }
    }

    /// Appends each core's [`CoreSim::encode_tags`].
    pub(crate) fn encode_tags(&self, tags: &mut Vec<u64>) {
        for core in &self.cores {
            core.encode_tags(tags);
        }
    }

    /// Cycles until an execution counter of some core could wrap (see
    /// [`CoreSim::exec_headroom`]).
    pub(crate) fn exec_headroom(&self) -> u64 {
        self.cores
            .iter()
            .map(CoreSim::exec_headroom)
            .min()
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipConfig;
    use crate::inst::Inst;

    fn fp_loop(n: u8) -> Program {
        Program::new(
            "fp",
            (0..n)
                .map(|i| Inst::new(Opcode::FMul).fp_dst(i % 8).fp_srcs(14, 15))
                .collect(),
        )
    }

    fn int_loop(n: u8) -> Program {
        Program::new(
            "int",
            (0..n)
                .map(|i| Inst::new(Opcode::IAdd).int_dst(i % 8).int_srcs(10, 11))
                .collect(),
        )
    }

    fn module() -> ModuleSim {
        let cfg = ChipConfig::bulldozer();
        ModuleSim::new(cfg.module, cfg.core, cfg.energy)
    }

    fn run(m: &mut ModuleSim, cycles: u64) -> (f64, u64) {
        let mut amps = 0.0;
        let mut retired = 0u64;
        for now in 0..cycles {
            let out = m.step(now);
            amps += out.amps;
            retired += out.retired as u64;
        }
        (amps / cycles as f64, retired)
    }

    #[test]
    fn two_fp_threads_share_pipes() {
        // One FP thread alone gets ~2 pipes; two sibling FP threads
        // split them, so per-thread throughput roughly halves.
        let mut solo = module();
        solo.load(0, &fp_loop(8), 0);
        let (_, solo_retired) = run(&mut solo, 10_000);

        let mut pair = module();
        pair.load(0, &fp_loop(8), 0);
        pair.load(1, &fp_loop(8), 0);
        let (_, pair_retired) = run(&mut pair, 10_000);

        let per_thread = pair_retired as f64 / 2.0;
        assert!(
            per_thread < 0.75 * solo_retired as f64,
            "per-thread {per_thread} vs solo {solo_retired}"
        );
    }

    #[test]
    fn int_threads_do_not_interfere_like_fp() {
        // Integer resources are private per core — only the shared front
        // end throttles siblings (4-wide alternating = 2/cycle each,
        // which covers a 2-ALU-bound loop).
        let mut solo = module();
        solo.load(0, &int_loop(8), 0);
        let (_, solo_retired) = run(&mut solo, 10_000);

        let mut pair = module();
        pair.load(0, &int_loop(8), 0);
        pair.load(1, &int_loop(8), 0);
        let (_, pair_retired) = run(&mut pair, 10_000);

        let per_thread = pair_retired as f64 / 2.0;
        assert!(
            per_thread > 0.85 * solo_retired as f64,
            "per-thread {per_thread} vs solo {solo_retired}"
        );
    }

    #[test]
    fn fpu_throttle_cuts_fp_throughput_and_current() {
        let cfg = ChipConfig::bulldozer().with_fpu_throttle(1);
        let mut throttled = ModuleSim::new(cfg.module, cfg.core, cfg.energy);
        throttled.load(0, &fp_loop(8), 0);
        let (t_amps, t_retired) = run(&mut throttled, 10_000);

        let mut free = module();
        free.load(0, &fp_loop(8), 0);
        let (f_amps, f_retired) = run(&mut free, 10_000);

        assert!(t_retired < f_retired * 7 / 10, "{t_retired} vs {f_retired}");
        assert!(t_amps < f_amps, "{t_amps} vs {f_amps}");
    }

    #[test]
    fn fdiv_blocks_a_pipe() {
        let mut m = module();
        let body: Vec<Inst> = (0..4)
            .map(|i| Inst::new(Opcode::FDiv).fp_dst(i).fp_srcs(14, 15))
            .collect();
        m.load(0, &Program::new("div", body), 0);
        let (_, retired) = run(&mut m, 10_000);
        // Two pipes, 20-cycle unpipelined divides → ≈ 2 per 20 cycles.
        let per_cycle = retired as f64 / 10_000.0;
        assert!((0.05..0.15).contains(&per_cycle), "div rate {per_cycle}");
    }

    #[test]
    fn idle_module_draws_idle_current() {
        let mut m = module();
        let out = m.step(0);
        let cfg = ChipConfig::bulldozer();
        assert_eq!(out.amps, 2.0 * cfg.energy.core_idle_amps);
    }
}
