//! Genome representation: one high-power sub-block as instruction slots.

use audit_cpu::{Inst, MemBehavior, Opcode};
use rand::rngs::SmallRng;
use rand::Rng;

/// One instruction slot of a sub-block.
///
/// Registers are stored as raw indices and resolved against the opcode's
/// register file when lowering to an [`Inst`]; destinations are folded
/// into 8 registers and sources span all 16, so the search can discover
/// both independent streams and dependence chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gene {
    /// The operation in this slot.
    pub opcode: Opcode,
    /// Destination register selector.
    pub dst: u8,
    /// First source register selector.
    pub src1: u8,
    /// Second source register selector.
    pub src2: u8,
    /// For loads: address pattern walks out of the caches, so every
    /// execution misses to memory. The real framework controls load
    /// addresses, and long-stall loads are the classic way to carve a
    /// deep low-power phase (Joseph et al. \[10\]); the GA may discover
    /// or discard this.
    pub miss: bool,
}

impl Gene {
    /// Draws a random gene from the opcode menu.
    pub fn random(menu: &[Opcode], rng: &mut SmallRng) -> Self {
        Gene {
            opcode: menu[rng.gen_range(0..menu.len())],
            dst: rng.gen_range(0..8),
            src1: rng.gen_range(0..16),
            src2: rng.gen_range(0..16),
            miss: rng.gen_bool(0.08),
        }
    }

    /// Mutates one field of the gene in place.
    pub fn mutate(&mut self, menu: &[Opcode], rng: &mut SmallRng) {
        match rng.gen_range(0..5u8) {
            0 => self.opcode = menu[rng.gen_range(0..menu.len())],
            1 => self.dst = rng.gen_range(0..8),
            2 => self.src1 = rng.gen_range(0..16),
            3 => self.src2 = rng.gen_range(0..16),
            _ => self.miss = !self.miss,
        }
    }

    /// Reverse-lowers an instruction into a gene (used to seed the GA
    /// population from an existing stressmark, paper §3: the initial
    /// population "can be generated randomly or seeded with existing
    /// benchmarks or stressmarks"). Memory behaviour other than an
    /// always-missing load does not survive the round trip — genes can
    /// only express what the GA can mutate.
    pub(crate) fn from_inst(inst: &audit_cpu::Inst) -> Self {
        Gene {
            opcode: inst.opcode,
            dst: inst.dst.map(|r| r.index() % 8).unwrap_or(0),
            src1: inst.srcs[0].map(|r| r.index()).unwrap_or(12),
            src2: inst.srcs[1].map(|r| r.index()).unwrap_or(13),
            miss: matches!(inst.mem, MemBehavior::MemMissEvery { period: 1 }),
        }
    }

    /// Lowers the gene to an executable instruction with AUDIT's
    /// maximal data-toggle operands (paper §3).
    pub fn to_inst(self) -> Inst {
        let props = self.opcode.props();
        let mut inst = Inst::new(self.opcode).toggle(1.0);
        if self.opcode == Opcode::Load && self.miss {
            inst = inst.mem(MemBehavior::MemMissEvery { period: 1 });
        }
        if self.opcode.is_nop() {
            inst
        } else if props.fp_dst {
            inst.fp_dst(self.dst % 8)
                .fp_srcs(self.src1 % 16, self.src2 % 16)
        } else if matches!(self.opcode, Opcode::Store | Opcode::Branch) {
            inst.int_srcs(self.src1 % 16, self.src2 % 16)
        } else {
            inst.int_dst(self.dst % 8)
                .int_srcs(self.src1 % 16, self.src2 % 16)
        }
    }
}

/// Lowers a whole genome to the sub-block instruction sequence.
pub fn to_sub_block(genome: &[Gene]) -> Vec<Inst> {
    genome.iter().map(|g| g.to_inst()).collect()
}

/// Reverse-lowers the first `len` instructions of a program into a seed
/// genome, padding with NOP genes if the program is shorter.
pub fn from_program(program: &audit_cpu::Program, len: usize) -> Vec<Gene> {
    let mut genome: Vec<Gene> = program
        .body()
        .iter()
        .take(len)
        .map(Gene::from_inst)
        .collect();
    genome.resize(
        len,
        Gene {
            opcode: Opcode::Nop,
            dst: 0,
            src1: 12,
            src2: 13,
            miss: false,
        },
    );
    genome
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn random_genes_come_from_menu() {
        let menu = [Opcode::IAdd, Opcode::FMul];
        let mut r = rng();
        for _ in 0..100 {
            let g = Gene::random(&menu, &mut r);
            assert!(menu.contains(&g.opcode));
        }
    }

    #[test]
    fn mutation_changes_exactly_one_field_class() {
        let menu = Opcode::stress_menu();
        let mut r = rng();
        let g0 = Gene::random(&menu, &mut r);
        let mut changed = 0;
        for _ in 0..50 {
            let mut g = g0;
            g.mutate(&menu, &mut r);
            if g != g0 {
                changed += 1;
            }
        }
        assert!(changed > 30, "mutation almost never changes the gene");
    }

    #[test]
    fn lowering_respects_register_files() {
        let g = Gene {
            opcode: Opcode::SimdFma,
            dst: 5,
            src1: 12,
            src2: 3,
            miss: false,
        };
        let inst = g.to_inst();
        assert!(inst.dst.unwrap().is_fp());
        assert!(inst.srcs[0].unwrap().is_fp());
        assert_eq!(inst.toggle, 1.0);

        let g = Gene {
            opcode: Opcode::IAdd,
            dst: 5,
            src1: 12,
            src2: 3,
            miss: false,
        };
        assert!(!g.to_inst().dst.unwrap().is_fp());
    }

    #[test]
    fn store_and_nop_have_no_destination() {
        assert!(Gene {
            opcode: Opcode::Store,
            dst: 1,
            src1: 2,
            src2: 3,
            miss: false
        }
        .to_inst()
        .dst
        .is_none());
        assert!(Gene {
            opcode: Opcode::Nop,
            dst: 1,
            src1: 2,
            src2: 3,
            miss: false
        }
        .to_inst()
        .dst
        .is_none());
    }

    #[test]
    fn missing_load_gets_memory_behaviour() {
        let g = Gene {
            opcode: Opcode::Load,
            dst: 2,
            src1: 12,
            src2: 13,
            miss: true,
        };
        assert!(matches!(
            g.to_inst().mem,
            audit_cpu::MemBehavior::MemMissEvery { period: 1 }
        ));
        let g = Gene {
            opcode: Opcode::Load,
            dst: 2,
            src1: 12,
            src2: 13,
            miss: false,
        };
        assert!(matches!(g.to_inst().mem, audit_cpu::MemBehavior::L1Hit));
        // The flag is inert on non-loads.
        let g = Gene {
            opcode: Opcode::IAdd,
            dst: 2,
            src1: 12,
            src2: 13,
            miss: true,
        };
        assert!(matches!(g.to_inst().mem, audit_cpu::MemBehavior::L1Hit));
    }

    #[test]
    fn from_inst_round_trips_expressible_instructions() {
        use audit_cpu::Inst;
        for inst in [
            Inst::new(Opcode::SimdFma).fp_dst(3).fp_srcs(12, 13),
            Inst::new(Opcode::IAdd).int_dst(5).int_srcs(8, 9),
            Inst::new(Opcode::Load)
                .int_dst(1)
                .int_srcs(14, 15)
                .mem(audit_cpu::MemBehavior::MemMissEvery { period: 1 }),
            Inst::new(Opcode::Nop),
        ] {
            let back = Gene::from_inst(&inst).to_inst();
            assert_eq!(back.opcode, inst.opcode);
            assert_eq!(back.dst, inst.dst);
            assert_eq!(back.mem, inst.mem);
        }
    }

    #[test]
    fn from_program_pads_with_nops() {
        let p = audit_cpu::Program::new(
            "short",
            vec![audit_cpu::Inst::new(Opcode::IAdd).int_dst(0).int_srcs(8, 9)],
        );
        let genome = from_program(&p, 4);
        assert_eq!(genome.len(), 4);
        assert_eq!(genome[0].opcode, Opcode::IAdd);
        assert!(genome[1..].iter().all(|g| g.opcode == Opcode::Nop));
    }

    #[test]
    fn to_sub_block_preserves_order_and_length() {
        let menu = Opcode::stress_menu();
        let mut r = rng();
        let genome: Vec<Gene> = (0..24).map(|_| Gene::random(&menu, &mut r)).collect();
        let block = to_sub_block(&genome);
        assert_eq!(block.len(), 24);
        for (g, i) in genome.iter().zip(&block) {
            assert_eq!(g.opcode, i.opcode);
        }
    }
}
