//! Tier-1 fast evaluation: an in-order scoreboard current model.
//!
//! The evaluation cascade (docs/SIMULATION.md) runs three tiers of
//! increasing cost:
//!
//! 1. the *static pressure* model (`audit-analyze`): pure per-fetch-group
//!    arithmetic, no timing at all;
//! 2. **this module**: an in-order scoreboard that assigns every
//!    instruction an issue cycle in a single O(insts) sweep and folds
//!    the resulting per-cycle current profile into a swing estimate;
//! 3. the full out-of-order co-simulation ([`crate::core_sim`] driven
//!    through the measurement harness), which is O(cycles) — thousands
//!    of simulated cycles per evaluation.
//!
//! The tier-1 model is a *ranking* device, not a predictor: the GA uses
//! it to decide which candidates deserve a full simulation, so it only
//! has to order programs consistently with the simulator, never to
//! reproduce its numbers. It therefore models exactly the three effects
//! that dominate loop-period shaping — fetch bandwidth, register
//! dependences (including the FMA destination read), and execution-unit
//! occupancy — and deliberately ignores the ROB, schedulers, physical
//! registers, and writeback ports that the full simulator tracks.
//!
//! Everything here is straight-line floating-point arithmetic in
//! instruction order: no randomness, no hashing, no parallelism. The
//! same body always produces bit-identical estimates on every platform,
//! which is what lets the engine's cascade prune deterministically
//! across thread counts, worker fleets, and kill/resume.

use crate::config::ChipConfig;
use crate::inst::{Inst, MemBehavior};
use crate::isa::ExecUnit;

/// Issue resources of the modeled core, reduced to what the scoreboard
/// needs. Mirrors `audit_analyze::MachineModel` (which lives downstream
/// and therefore cannot be used here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierModel {
    /// Instructions fetched/decoded per cycle.
    pub fetch_width: usize,
    /// Integer ALUs per core.
    pub int_alus: usize,
    /// Address-generation units per core.
    pub agus: usize,
    /// Integer multiply/divide units per core.
    pub int_muldiv: usize,
    /// FP/SIMD pipes visible to the core.
    pub fp_pipes: usize,
    /// Cycles a memory-missing load stalls its dependents
    /// (`MemBehavior::MemMissEvery`): the long-latency event of paper
    /// §5.A.1, collapsed to a fixed penalty.
    pub mem_miss_cycles: u64,
}

impl TierModel {
    /// The chip-agnostic 4-wide model the GA cascade uses. Fixed — like
    /// the static analyzer's generic model, it never has to match the
    /// simulated chip, only stay the same so pruning is reproducible.
    pub const fn generic() -> Self {
        TierModel {
            fetch_width: 4,
            int_alus: 2,
            agus: 2,
            int_muldiv: 1,
            fp_pipes: 2,
            mem_miss_cycles: 48,
        }
    }

    /// Model derived from a chip preset, for callers that want the
    /// tier's ranking to track a specific configuration.
    pub fn from_chip(chip: &ChipConfig) -> Self {
        TierModel {
            fetch_width: chip.core.fetch_width as usize,
            int_alus: chip.core.int_alus as usize,
            agus: chip.core.agus as usize,
            int_muldiv: 1,
            fp_pipes: chip.module.fp_pipes as usize,
            mem_miss_cycles: 48,
        }
    }

    fn capacity(&self, unit: ExecUnit) -> usize {
        match unit {
            ExecUnit::IntAlu => self.int_alus.max(1),
            ExecUnit::Agu => self.agus.max(1),
            ExecUnit::IntMulDiv => self.int_muldiv.max(1),
            ExecUnit::FpPipe => self.fp_pipes.max(1),
            ExecUnit::None => 1,
        }
    }
}

impl Default for TierModel {
    fn default() -> Self {
        TierModel::generic()
    }
}

/// Output of one tier-1 sweep over a loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct TierEstimate {
    /// Scoreboard cycles one iteration occupies (last issue cycle + 1).
    pub cycles: u64,
    /// Estimated sustainable IPC: instructions / [`TierEstimate::cycles`].
    pub ipc: f64,
    /// Mean per-cycle issue current over one iteration, amps.
    pub mean_amps: f64,
    /// Estimated current swing: mean circular absolute difference
    /// between consecutive per-cycle currents. The cascade's ranking
    /// key — higher means sharper di/dt edges.
    pub swing: f64,
}

/// Runs the in-order scoreboard over `body` and returns the timing and
/// current estimate. Cost is O(`body.len()`) scoreboard steps (the
/// per-cycle profile it folds is bounded by the issue span, itself
/// bounded by `body.len()` times the longest latency — tens of entries
/// for GA-sized bodies, never the thousands of cycles a full
/// co-simulation steps).
///
/// # Example
///
/// A body that alternates SIMD bursts with NOP gaps has sharper current
/// edges than the same ops issued flat — the tier must rank it higher,
/// exactly like the full simulator would:
///
/// ```
/// use audit_cpu::tier::{estimate, TierModel};
/// use audit_cpu::{Inst, Opcode};
///
/// let burst = |i: u8| Inst::new(Opcode::SimdFMul).fp_dst(i % 8).fp_srcs(12, 13);
/// let mut phased = Vec::new();
/// for round in 0..4u8 {
///     for k in 0..4u8 {
///         phased.push(burst(round * 4 + k));
///     }
///     phased.extend(vec![Inst::new(Opcode::Nop); 4]);
/// }
/// let flat: Vec<_> = (0..32u8).map(burst).collect();
///
/// let model = TierModel::generic();
/// let e_phased = estimate(&phased, &model);
/// let e_flat = estimate(&flat, &model);
/// assert!(e_phased.swing > e_flat.swing);
/// assert_eq!(e_flat.swing, 0.0); // steady-state issue: no edges at all
/// // The NOP gaps cost no pipe time, so the phased body is *shorter* —
/// // the scoreboard packs its 16 muls into half the flat body's span.
/// assert!(e_phased.cycles < e_flat.cycles);
/// ```
pub fn estimate(body: &[Inst], model: &TierModel) -> TierEstimate {
    if body.is_empty() {
        return TierEstimate {
            cycles: 0,
            ipc: 0.0,
            mean_amps: 0.0,
            swing: 0.0,
        };
    }

    // Scoreboard state: per-register ready cycles, per-unit next-free
    // rings (one entry per physical unit of the class), and the in-order
    // issue frontier.
    let mut ready_int = [0u64; 16];
    let mut ready_fp = [0u64; 16];
    let mut unit_free: [Vec<u64>; 4] = [
        vec![0; model.capacity(ExecUnit::IntAlu)],
        vec![0; model.capacity(ExecUnit::Agu)],
        vec![0; model.capacity(ExecUnit::IntMulDiv)],
        vec![0; model.capacity(ExecUnit::FpPipe)],
    ];
    let mut last_issue = 0u64;
    let mut profile: Vec<f64> = Vec::with_capacity(body.len());

    let deposit = |profile: &mut Vec<f64>, cycle: u64, amps: f64| {
        let idx = cycle as usize;
        if profile.len() <= idx {
            profile.resize(idx + 1, 0.0);
        }
        profile[idx] += amps;
    };

    for (i, inst) in body.iter().enumerate() {
        let props = inst.opcode.props();

        // Fetch: the front end delivers `fetch_width` instructions per
        // cycle, in order.
        let fetch_ready = (i / model.fetch_width.max(1)) as u64;

        // Dependences: sources, plus the FMA destination read (FMA
        // reads its accumulator).
        let mut dep_ready = 0u64;
        let lookup = |ri: &[u64; 16], rf: &[u64; 16], r: crate::inst::Reg| {
            let idx = (r.index() % 16) as usize;
            if r.is_fp() {
                rf[idx]
            } else {
                ri[idx]
            }
        };
        for r in inst.srcs.iter().flatten() {
            dep_ready = dep_ready.max(lookup(&ready_int, &ready_fp, *r));
        }
        if props.needs_fma {
            if let Some(d) = inst.dst {
                dep_ready = dep_ready.max(lookup(&ready_int, &ready_fp, d));
            }
        }

        // Structural hazard: the earliest-free unit of the class.
        let unit_slot = match props.unit {
            ExecUnit::IntAlu => Some(0),
            ExecUnit::Agu => Some(1),
            ExecUnit::IntMulDiv => Some(2),
            ExecUnit::FpPipe => Some(3),
            ExecUnit::None => None,
        };
        let mut unit_pick: Option<(usize, usize)> = None;
        let mut unit_ready = 0u64;
        if let Some(u) = unit_slot {
            let (slot, &free) = unit_free[u]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &c)| c)
                .expect("unit rings are non-empty");
            unit_pick = Some((u, slot));
            unit_ready = free;
        }

        // In-order issue: never before the previous instruction.
        let issue = fetch_ready.max(dep_ready).max(unit_ready).max(last_issue);
        last_issue = issue;

        // Occupy the unit: one cycle if pipelined, the full latency if
        // not (divides), matching the full simulator's busy rule.
        let busy = if props.unpipelined {
            u64::from(props.latency)
        } else {
            1
        };
        if let Some((u, slot)) = unit_pick {
            unit_free[u][slot] = issue + busy;
        }

        // Result latency, stretched by a modeled memory miss.
        let mut latency = u64::from(props.latency);
        if matches!(
            inst.mem,
            MemBehavior::MemMissEvery { .. } | MemBehavior::L2MissEvery { .. }
        ) {
            latency += match inst.mem {
                MemBehavior::MemMissEvery { .. } => model.mem_miss_cycles,
                _ => model.mem_miss_cycles / 4,
            };
        }
        if let Some(d) = inst.dst {
            let idx = (d.index() % 16) as usize;
            if d.is_fp() {
                ready_fp[idx] = issue + latency;
            } else {
                ready_int[idx] = issue + latency;
            }
        }

        // Current: the issue-cycle switching current scaled by toggle
        // activity (the same factor the energy model applies), plus the
        // busy-cycle draw of unpipelined ops.
        deposit(
            &mut profile,
            issue,
            props.issue_amps * (0.5 + 0.5 * inst.toggle),
        );
        for extra in 1..busy {
            deposit(&mut profile, issue + extra, props.busy_amps);
        }
    }

    let cycles = last_issue + 1;
    // The loop wraps: pad the profile to the iteration span so idle tail
    // cycles count as zero-current gaps (they are what creates di/dt
    // edges at the loop boundary).
    if (profile.len() as u64) < cycles {
        profile.resize(cycles as usize, 0.0);
    }

    let n = profile.len();
    let mean_amps = profile.iter().sum::<f64>() / n as f64;
    let swing = if n < 2 {
        0.0
    } else {
        let mut acc = 0.0;
        for c in 0..n {
            let prev = profile[(c + n - 1) % n];
            acc += (profile[c] - prev).abs();
        }
        acc / n as f64
    };

    TierEstimate {
        cycles,
        ipc: body.len() as f64 / cycles as f64,
        mean_amps,
        swing,
    }
}

/// Convenience wrapper returning only the cascade's ranking key.
///
/// # Example
///
/// ```
/// use audit_cpu::tier::{estimate_swing, TierModel};
/// use audit_cpu::{Inst, Opcode};
///
/// let flat = vec![Inst::new(Opcode::Nop); 16];
/// assert_eq!(estimate_swing(&flat, &TierModel::generic()), 0.0);
/// ```
pub fn estimate_swing(body: &[Inst], model: &TierModel) -> f64 {
    estimate(body, model).swing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Program;
    use crate::isa::Opcode;

    fn fma(i: u8) -> Inst {
        Inst::new(Opcode::SimdFma).fp_dst(i % 8).fp_srcs(12, 13)
    }

    #[test]
    fn empty_body_estimates_zero() {
        let e = estimate(&[], &TierModel::generic());
        assert_eq!(e.cycles, 0);
        assert_eq!(e.swing, 0.0);
    }

    #[test]
    fn independent_adds_respect_alu_throughput() {
        // 8 adds on 2 ALUs, 4-wide fetch: the ALUs are the bottleneck.
        let body: Vec<Inst> = (0..8)
            .map(|i| Inst::new(Opcode::IAdd).int_dst(i % 8).int_srcs(12, 13))
            .collect();
        let e = estimate(&body, &TierModel::generic());
        assert_eq!(e.cycles, 4);
        assert!((e.ipc - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dependence_chain_stretches_the_iteration() {
        // r0 ← r0 + r13, four times: serial, 1 cycle latency each.
        let chain: Vec<Inst> = (0..4)
            .map(|_| Inst::new(Opcode::IAdd).int_dst(0).int_srcs(0, 13))
            .collect();
        let wide: Vec<Inst> = (0..4)
            .map(|i| Inst::new(Opcode::IAdd).int_dst(i).int_srcs(12, 13))
            .collect();
        let model = TierModel::generic();
        assert!(estimate(&chain, &model).cycles > estimate(&wide, &model).cycles);
    }

    #[test]
    fn fma_accumulator_chains_through_destination() {
        let chained: Vec<Inst> = (0..3).map(|_| fma(0)).collect();
        let spread: Vec<Inst> = (0..3).map(fma).collect();
        let model = TierModel::generic();
        assert!(estimate(&chained, &model).cycles > estimate(&spread, &model).cycles);
    }

    #[test]
    fn unpipelined_divides_serialize_their_unit() {
        let divs: Vec<Inst> = (0..2)
            .map(|i| Inst::new(Opcode::IDiv).int_dst(i % 8).int_srcs(12, 13))
            .collect();
        let e = estimate(&divs, &TierModel::generic());
        assert!(e.cycles >= u64::from(Opcode::IDiv.props().latency));
    }

    #[test]
    fn memory_miss_creates_a_current_gap() {
        // A missing load feeding an FMA burst: the burst waits out the
        // miss, producing a long quiet gap and a sharp edge.
        let mut missy = vec![Inst::new(Opcode::Load)
            .int_dst(9)
            .int_srcs(10, 11)
            .mem(MemBehavior::MemMissEvery { period: 1 })];
        missy.extend((0..4).map(|i| {
            Inst::new(Opcode::Fma)
                .fp_dst(i % 8)
                .fp_srcs(12, 13)
                .src(crate::inst::Reg::Int(9))
        }));
        let mut hitty = missy.clone();
        hitty[0] = Inst::new(Opcode::Load).int_dst(9).int_srcs(10, 11);
        let model = TierModel::generic();
        let e_miss = estimate(&missy, &model);
        let e_hit = estimate(&hitty, &model);
        assert!(e_miss.cycles > e_hit.cycles + model.mem_miss_cycles / 2);
        assert!(e_miss.mean_amps < e_hit.mean_amps);
    }

    #[test]
    fn estimate_is_deterministic() {
        let body: Vec<Inst> = (0..16).map(fma).collect();
        let model = TierModel::generic();
        let a = estimate(&body, &model);
        let b = estimate(&body, &model);
        assert_eq!(a, b);
    }

    #[test]
    fn toggle_scales_current() {
        let hot: Vec<Inst> = (0..8).map(|i| fma(i).toggle(1.0)).collect();
        let cold: Vec<Inst> = (0..8).map(|i| fma(i).toggle(0.0)).collect();
        let model = TierModel::generic();
        assert!(estimate(&hot, &model).mean_amps > estimate(&cold, &model).mean_amps);
    }

    #[test]
    fn nop_loops_are_flat() {
        let e = estimate(Program::nops(32).body(), &TierModel::generic());
        assert_eq!(e.swing, 0.0);
        assert!(e.mean_amps < 0.2);
    }

    #[test]
    fn chip_models_reflect_presets() {
        let bd = TierModel::from_chip(&ChipConfig::bulldozer());
        let ph = TierModel::from_chip(&ChipConfig::phenom());
        assert_eq!(bd.fetch_width, 4);
        assert_eq!(ph.fetch_width, 3);
    }
}
