//! Pass 3: the static pressure model.
//!
//! A cheap, deterministic approximation of what the cycle-level
//! simulator will see: dependency-graph critical path, per-unit
//! occupancy, a bottleneck IPC bound, and a static current-swing score.
//! The GA journals the swing score of every generation as analysis
//! metadata; it never replaces real fitness evaluations, so it only has
//! to correlate with droop potential, not predict it.
//!
//! Everything here is straight-line arithmetic over the instruction
//! list: no hashing, no randomness, no parallelism — the same program
//! always produces bit-identical scores on every platform, which is
//! what lets the GA use the ranking without perturbing results.

use audit_cpu::{ChipConfig, ExecUnit, Inst, Opcode, Program, Reg};

/// Issue/execution resources of the target, reduced to what the static
/// model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineModel {
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
    /// Result-bus write ports per cycle.
    pub writeback_ports: usize,
}

impl MachineModel {
    /// Model derived from a chip preset.
    pub fn from_chip(chip: &ChipConfig) -> Self {
        MachineModel {
            fetch_width: chip.core.fetch_width as usize,
            int_alus: chip.core.int_alus as usize,
            agus: chip.core.agus as usize,
            int_muldiv: 1,
            fp_pipes: chip.module.fp_pipes as usize,
            writeback_ports: chip.core.writeback_ports as usize,
        }
    }

    /// A chip-agnostic 4-wide model. The GA's journal analysis uses
    /// this: since the analysis never changes results, the model only
    /// needs to be fixed, not faithful to the simulated chip.
    pub fn generic() -> Self {
        MachineModel {
            fetch_width: 4,
            int_alus: 2,
            agus: 2,
            int_muldiv: 1,
            fp_pipes: 2,
            writeback_ports: 3,
        }
    }

    fn capacity(&self, unit: ExecUnit) -> usize {
        match unit {
            ExecUnit::IntAlu => self.int_alus,
            ExecUnit::Agu => self.agus,
            ExecUnit::IntMulDiv => self.int_muldiv,
            ExecUnit::FpPipe => self.fp_pipes,
            ExecUnit::None => usize::MAX,
        }
    }
}

/// Static instruction counts per execution unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Occupancy {
    /// Ops bound to the integer ALUs.
    pub int_alu: usize,
    /// Ops bound to the AGUs (loads/stores).
    pub agu: usize,
    /// Ops bound to the multiply/divide unit.
    pub int_muldiv: usize,
    /// Ops bound to the FP/SIMD pipes.
    pub fp_pipe: usize,
    /// Front-end-absorbed ops (NOPs).
    pub none: usize,
}

impl Occupancy {
    /// Count for one unit class.
    pub fn of(&self, unit: ExecUnit) -> usize {
        match unit {
            ExecUnit::IntAlu => self.int_alu,
            ExecUnit::Agu => self.agu,
            ExecUnit::IntMulDiv => self.int_muldiv,
            ExecUnit::FpPipe => self.fp_pipe,
            ExecUnit::None => self.none,
        }
    }
}

/// Output of the static pressure model for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct PressureReport {
    /// Body length in instructions.
    pub len: usize,
    /// Latency-weighted longest dependence chain through one loop
    /// iteration, in cycles.
    pub critical_path_cycles: u64,
    /// Static per-unit instruction counts.
    pub occupancy: Occupancy,
    /// Cycles one iteration needs at minimum, from structural
    /// bottlenecks (fetch width, unit throughput, writeback ports)
    /// and the critical path.
    pub min_cycles: u64,
    /// Upper bound on sustainable IPC: `len / min_cycles`.
    pub ipc_bound: f64,
    /// Static current-swing score: mean absolute difference in issue
    /// current between consecutive fetch groups, circularly. Higher
    /// means sharper di/dt edges.
    pub swing_score: f64,
}

/// Latency-weighted critical path through the body's dependence graph
/// (registers only, single iteration).
fn critical_path(body: &[Inst]) -> u64 {
    // finish[reg file][index] = cycle the latest value becomes ready.
    let mut finish_int = [0u64; Reg::PER_FILE as usize];
    let mut finish_fp = [0u64; Reg::PER_FILE as usize];
    let lookup = |fi: &[u64; 16], ff: &[u64; 16], r: Reg| -> u64 {
        let idx = (r.index() % Reg::PER_FILE) as usize;
        if r.is_fp() {
            ff[idx]
        } else {
            fi[idx]
        }
    };
    let mut longest = 0u64;
    for inst in body {
        let props = inst.opcode.props();
        let mut start = 0u64;
        for r in inst.srcs.iter().flatten() {
            start = start.max(lookup(&finish_int, &finish_fp, *r));
        }
        if matches!(inst.opcode, Opcode::Fma | Opcode::SimdFma) {
            if let Some(d) = inst.dst {
                start = start.max(lookup(&finish_int, &finish_fp, d));
            }
        }
        let done = start + u64::from(props.latency);
        if let Some(d) = inst.dst {
            let idx = (d.index() % Reg::PER_FILE) as usize;
            if d.is_fp() {
                finish_fp[idx] = done;
            } else {
                finish_int[idx] = done;
            }
        }
        longest = longest.max(done);
    }
    longest
}

/// Per-fetch-group issue current, scaled by toggle activity the same
/// way the energy model scales switching power.
fn group_currents(body: &[Inst], fetch_width: usize) -> Vec<f64> {
    body.chunks(fetch_width.max(1))
        .map(|group| {
            group
                .iter()
                .map(|i| i.opcode.props().issue_amps * (0.5 + 0.5 * i.toggle))
                .sum()
        })
        .collect()
}

/// Static current-swing score over an instruction list; see
/// [`PressureReport::swing_score`]. Exposed separately so the GA can
/// score lowered genomes without building a [`Program`].
///
/// A burst of heavy ops followed by a quiet gap scores higher than the
/// same ops spread evenly, because only the former puts an edge
/// between consecutive fetch groups:
///
/// ```
/// use audit_analyze::{swing_score, MachineModel};
/// use audit_cpu::{Inst, Opcode};
///
/// let fmul = |i: u8| Inst::new(Opcode::FMul).fp_dst(i).fp_srcs(12, 13);
/// let nop = Inst::new(Opcode::Nop);
///
/// // 8 FMULs then 8 NOPs: hot groups then quiet groups.
/// let phased: Vec<_> = (0..8).map(fmul).chain([nop; 8]).collect();
/// // The same ops interleaved: every fetch group looks identical.
/// let flat: Vec<_> = (0..8).flat_map(|i| [fmul(i), nop]).collect();
///
/// let model = MachineModel::generic();
/// assert!(swing_score(&phased, &model) > swing_score(&flat, &model));
/// assert_eq!(swing_score(&flat, &model), 0.0);
/// ```
pub fn swing_score(body: &[Inst], model: &MachineModel) -> f64 {
    let currents = group_currents(body, model.fetch_width);
    if currents.len() < 2 {
        return 0.0;
    }
    let mut swing = 0.0;
    for g in 0..currents.len() {
        let prev = currents[(g + currents.len() - 1) % currents.len()];
        swing += (currents[g] - prev).abs();
    }
    swing / currents.len() as f64
}

/// Run the full static pressure model over a program.
///
/// ```
/// use audit_analyze::{pressure, MachineModel};
/// use audit_cpu::{Inst, Opcode, Program};
///
/// let body: Vec<_> = (0..12)
///     .map(|i| Inst::new(Opcode::FAdd).fp_dst(i).fp_srcs(12, 13))
///     .collect();
/// let report = pressure(&Program::new("fp-burst", body), &MachineModel::generic());
///
/// assert_eq!(report.occupancy.fp_pipe, 12);
/// // Twelve independent FP adds through two pipes: throughput-bound
/// // (12 / 2 = 6 cycles beats the 5-cycle single-op critical path).
/// assert_eq!(report.min_cycles, 6);
/// assert_eq!(report.ipc_bound, 2.0);
/// ```
pub fn pressure(program: &Program, model: &MachineModel) -> PressureReport {
    let body = program.body();
    let mut occ = Occupancy::default();
    let mut unit_busy = [0u64; 4]; // IntAlu, Agu, IntMulDiv, FpPipe
    let mut writes = 0u64;
    for inst in body {
        let props = inst.opcode.props();
        // Unpipelined ops hold their unit for the full latency.
        let busy = if props.unpipelined {
            u64::from(props.latency)
        } else {
            1
        };
        match props.unit {
            ExecUnit::IntAlu => {
                occ.int_alu += 1;
                unit_busy[0] += busy;
            }
            ExecUnit::Agu => {
                occ.agu += 1;
                unit_busy[1] += busy;
            }
            ExecUnit::IntMulDiv => {
                occ.int_muldiv += 1;
                unit_busy[2] += busy;
            }
            ExecUnit::FpPipe => {
                occ.fp_pipe += 1;
                unit_busy[3] += busy;
            }
            ExecUnit::None => occ.none += 1,
        }
        if inst.dst.is_some() {
            writes += 1;
        }
    }

    let len = body.len() as u64;
    let div_ceil = |a: u64, b: u64| if b == 0 { 0 } else { a.div_ceil(b) };
    let mut min_cycles = div_ceil(len, model.fetch_width.max(1) as u64);
    for (i, unit) in [
        ExecUnit::IntAlu,
        ExecUnit::Agu,
        ExecUnit::IntMulDiv,
        ExecUnit::FpPipe,
    ]
    .into_iter()
    .enumerate()
    {
        min_cycles = min_cycles.max(div_ceil(unit_busy[i], model.capacity(unit) as u64));
    }
    min_cycles = min_cycles.max(div_ceil(writes, model.writeback_ports.max(1) as u64));
    let crit = critical_path(body);
    min_cycles = min_cycles.max(crit).max(1);

    PressureReport {
        len: body.len(),
        critical_path_cycles: crit,
        occupancy: occ,
        min_cycles,
        ipc_bound: body.len() as f64 / min_cycles as f64,
        swing_score: swing_score(body, model),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_cpu::Inst;

    fn prog(body: Vec<Inst>) -> Program {
        Program::new("t", body)
    }

    #[test]
    fn independent_ops_have_single_op_critical_path() {
        let body: Vec<Inst> = (0..8)
            .map(|i| Inst::new(Opcode::IAdd).int_dst(i % 8).int_srcs(12, 13))
            .collect();
        let r = pressure(&prog(body), &MachineModel::generic());
        assert_eq!(r.critical_path_cycles, 1);
        assert_eq!(r.occupancy.int_alu, 8);
        // 8 adds on 2 ALUs → 4 cycles → IPC 2.
        assert_eq!(r.min_cycles, 4);
        assert!((r.ipc_bound - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dependence_chain_sets_the_critical_path() {
        // r0 ← r0 + … four times: 4 × latency(IAdd).
        let body: Vec<Inst> = (0..4)
            .map(|_| Inst::new(Opcode::IAdd).int_dst(0).int_srcs(0, 13))
            .collect();
        let r = pressure(&prog(body), &MachineModel::generic());
        assert_eq!(
            r.critical_path_cycles,
            4 * u64::from(Opcode::IAdd.props().latency)
        );
    }

    #[test]
    fn fma_chains_through_its_destination() {
        let body: Vec<Inst> = (0..3)
            .map(|_| Inst::new(Opcode::SimdFma).fp_dst(0).fp_srcs(12, 13))
            .collect();
        let r = pressure(&prog(body), &MachineModel::generic());
        assert_eq!(
            r.critical_path_cycles,
            3 * u64::from(Opcode::SimdFma.props().latency)
        );
    }

    #[test]
    fn unpipelined_divides_saturate_their_unit() {
        let body: Vec<Inst> = (0..2)
            .map(|i| Inst::new(Opcode::IDiv).int_dst(i % 8).int_srcs(12, 13))
            .collect();
        let r = pressure(&prog(body), &MachineModel::generic());
        // Two divides on one unpipelined unit: 2 × latency busy cycles.
        assert!(r.min_cycles >= 2 * u64::from(Opcode::IDiv.props().latency));
    }

    #[test]
    fn nops_never_bound_execution_units() {
        let r = pressure(&Program::nops(64), &MachineModel::generic());
        assert_eq!(r.occupancy.none, 64);
        // Bound purely by fetch.
        assert_eq!(r.min_cycles, 16);
        assert!((r.ipc_bound - 4.0).abs() < 1e-12);
    }

    #[test]
    fn alternating_phases_out_swing_flat_bodies() {
        let mut phased = Vec::new();
        for _ in 0..4 {
            for _ in 0..4 {
                phased.push(Inst::new(Opcode::SimdFMul).fp_dst(0).fp_srcs(12, 13));
            }
            phased.extend(vec![Inst::new(Opcode::Nop); 4]);
        }
        let flat = vec![Inst::new(Opcode::SimdFMul).fp_dst(0).fp_srcs(12, 13); 32];
        let model = MachineModel::generic();
        let s_phased = pressure(&prog(phased), &model).swing_score;
        let s_flat = pressure(&prog(flat), &model).swing_score;
        assert!(s_phased > s_flat, "{s_phased} vs {s_flat}");
        assert_eq!(s_flat, 0.0);
    }

    #[test]
    fn swing_score_is_deterministic_and_toggle_sensitive() {
        let mk = |toggle: f64| {
            let mut body = vec![Inst::new(Opcode::Nop); 4];
            body.extend((0..4).map(|i| {
                Inst::new(Opcode::SimdFma)
                    .fp_dst(i % 8)
                    .fp_srcs(12, 13)
                    .toggle(toggle)
            }));
            prog(body)
        };
        let model = MachineModel::generic();
        let hot = pressure(&mk(1.0), &model).swing_score;
        let cold = pressure(&mk(0.0), &model).swing_score;
        assert!(hot > cold);
        assert_eq!(hot, pressure(&mk(1.0), &model).swing_score);
    }

    #[test]
    fn chip_models_reflect_their_presets() {
        let bd = MachineModel::from_chip(&ChipConfig::bulldozer());
        let ph = MachineModel::from_chip(&ChipConfig::phenom());
        assert_eq!(bd.fetch_width, 4);
        assert_eq!(ph.fetch_width, 3);
        assert!(ph.int_alus > bd.int_alus); // Phenom: 3 ALUs vs 2
    }
}
