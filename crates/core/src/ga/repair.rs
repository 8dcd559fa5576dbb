//! Lint-driven mutation repair ([`crate::ga::GaConfig::lint_repair`]).
//!
//! Mutation is blind: a re-rolled destination or opcode routinely turns
//! a live value chain into statically-detectable dead work — AUD101
//! (dead value) and AUD104 (serializing divide) — which the GA then
//! pays a full cycle-level simulation to discover is worthless. Repair
//! closes that loop: after breeding, each child is linted under
//! `repair_lint_config` and every offending slot is re-rolled from
//! its *own* RNG stream, bounded attempts, with a NOP fallback that
//! provably converges. Populations stay dense in useful instructions
//! (the FIRESTARTER 2 lesson) without a single extra simulation.
//!
//! # Determinism contract
//!
//! Each re-roll draws from a fresh [`SmallRng`] seeded by
//! `reroll_seed(seed, genome_key(child), slot, attempt)` — a pure
//! function of the run seed and the *as-bred* child's content, never of
//! thread interleaving or the generation's breeding stream. Repair runs
//! on the calling thread before fitness dispatch, so results are
//! bit-identical across 1/2/4 worker threads, loopback workers, and
//! kill/resume; and because the breeding stream is never touched,
//! flipping `lint_repair` off reproduces the unrepaired run exactly.

use audit_analyze::{lint, Code, LintConfig, Severity};
use audit_cpu::{Opcode, Program};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::engine::stream_seed;
use super::genome::{to_sub_block, Gene};
use crate::resilient::genome_key;

/// Re-roll rounds per child before the NOP fallback takes over. Two
/// rounds clear the overwhelming majority of mutants; more buys little
/// because every round re-rolls *every* still-offending slot.
pub const REPAIR_MAX_ATTEMPTS: u32 = 2;

/// The lint configuration repair enforces: the two codes that mark
/// statically-dead work. Everything else keeps its default level —
/// repair is a density filter, not a style gate.
pub(crate) fn repair_lint_config() -> LintConfig {
    LintConfig::new()
        .deny(Code::DeadValue)
        .deny(Code::SerializingDivide)
}

/// Seed for one slot re-roll: a pure function of the run seed, the
/// as-bred child's content key, the slot index, and the attempt number.
fn reroll_seed(seed: u64, child_key: u64, slot: usize, attempt: u32) -> u64 {
    stream_seed(
        stream_seed(seed ^ child_key, slot as u64),
        u64::from(attempt),
    )
}

/// Slots of `genome` carrying a deny-level diagnostic under
/// `repair_lint_config`, ascending and deduplicated.
pub fn offending_slots(genome: &[Gene]) -> Vec<usize> {
    let program = Program::new("repair", to_sub_block(genome));
    let mut slots: Vec<usize> = lint(&program, &repair_lint_config())
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .filter_map(|d| d.inst_index)
        .collect();
    slots.sort_unstable();
    slots.dedup();
    slots
}

/// Repairs one as-bred child in place, returning the number of slot
/// re-rolls performed (the `repair` journal record's currency).
///
/// Up to [`REPAIR_MAX_ATTEMPTS`] rounds re-roll every offending slot
/// via [`Gene::random`] on its `reroll_seed` stream; a child still
/// offending after that has its offending slots replaced with the
/// canonical NOP gene until the lint is clean. The fallback converges
/// within one pass per remaining slot: NOPs write no destination, so
/// they can never carry AUD101/AUD104, and no repair step un-NOPs a
/// slot.
pub(crate) fn repair_genome(genome: &mut [Gene], menu: &[Opcode], seed: u64) -> u64 {
    let child_key = genome_key(genome);
    let mut rerolls = 0u64;
    for attempt in 0..REPAIR_MAX_ATTEMPTS {
        let slots = offending_slots(genome);
        if slots.is_empty() {
            return rerolls;
        }
        for slot in slots {
            let mut rng = SmallRng::seed_from_u64(reroll_seed(seed, child_key, slot, attempt));
            genome[slot] = Gene::random(menu, &mut rng);
            rerolls += 1;
        }
    }
    loop {
        let slots = offending_slots(genome);
        if slots.is_empty() {
            return rerolls;
        }
        for slot in slots {
            genome[slot] = Gene {
                opcode: Opcode::Nop,
                dst: 0,
                src1: 12,
                src2: 13,
                miss: false,
            };
            rerolls += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn menu() -> Vec<Opcode> {
        Opcode::stress_menu()
    }

    fn dead_heavy_genome(len: usize) -> Vec<Gene> {
        // Every slot writes r0 and reads constants: all but the last
        // write (read by nobody either) are dead.
        (0..len)
            .map(|_| Gene {
                opcode: Opcode::IAdd,
                dst: 0,
                src1: 12,
                src2: 13,
                miss: false,
            })
            .collect()
    }

    #[test]
    fn repair_clears_all_deny_diagnostics() {
        let mut g = dead_heavy_genome(16);
        assert!(!offending_slots(&g).is_empty());
        repair_genome(&mut g, &menu(), 0xA0D17);
        assert!(offending_slots(&g).is_empty());
    }

    #[test]
    fn repair_is_deterministic() {
        let mut a = dead_heavy_genome(12);
        let mut b = a.clone();
        let ra = repair_genome(&mut a, &menu(), 7);
        let rb = repair_genome(&mut b, &menu(), 7);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        // A different seed steers the re-rolls elsewhere (still clean).
        let mut c = dead_heavy_genome(12);
        repair_genome(&mut c, &menu(), 8);
        assert!(offending_slots(&c).is_empty());
        assert_ne!(a, c, "distinct seeds should repair differently");
    }

    #[test]
    fn clean_genomes_are_untouched() {
        let mut rng = SmallRng::seed_from_u64(42);
        // Draw random genomes until one lints clean, then repair it.
        loop {
            let g: Vec<Gene> = (0..10).map(|_| Gene::random(&menu(), &mut rng)).collect();
            if offending_slots(&g).is_empty() {
                let mut repaired = g.clone();
                assert_eq!(repair_genome(&mut repaired, &menu(), 0xC1EA), 0);
                assert_eq!(repaired, g);
                return;
            }
        }
    }

    #[test]
    fn nop_fallback_converges_on_a_menu_of_dividers() {
        // A menu of only unpipelined dividers cannot be repaired by
        // re-rolling (every draw is another divide); the NOP fallback
        // must still reach a clean fixpoint.
        let divs = vec![Opcode::IDiv];
        let mut g: Vec<Gene> = (0..8)
            .map(|i| Gene {
                opcode: Opcode::IDiv,
                dst: (i % 2) as u8,
                src1: (i % 2) as u8,
                src2: 13,
                miss: false,
            })
            .collect();
        repair_genome(&mut g, &divs, 1);
        assert!(offending_slots(&g).is_empty());
    }

    #[test]
    fn reroll_seeds_are_distinct_per_slot_and_attempt() {
        let k = genome_key(&dead_heavy_genome(4));
        let mut seen = std::collections::HashSet::new();
        for slot in 0..8 {
            for attempt in 0..3 {
                assert!(seen.insert(reroll_seed(5, k, slot, attempt)));
            }
        }
    }
}
