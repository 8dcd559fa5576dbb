//! Synthetic SPEC CPU2006 and PARSEC workload models.
//!
//! The paper measures real benchmark binaries; this reproduction cannot,
//! so each benchmark is replaced by a *profile-driven instruction-stream
//! generator* (see DESIGN.md). A profile fixes the properties that govern
//! di/dt behaviour — FP/SIMD density, memory intensity, miss and
//! mispredict rates, dependence depth, and phase burstiness — and the
//! generator expands it into a long deterministic loop body.
//!
//! What matters for the reproduction is preserved:
//!
//! * benchmarks droop far less than engineered stressmarks (paper Fig. 9),
//! * their occasional droops come from microarchitectural events (miss
//!   stall → burst, mispredict recovery), not loop resonance (§5.A.1),
//! * zeusmp and swaptions are the strongest standard benchmarks, and the
//!   PARSEC suite behaves like SPEC despite its barriers.

use audit_cpu::{BranchBehavior, Inst, MemBehavior, Opcode, Program};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Benchmark suite tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2006 (run replicated per core, SPECrate-style).
    Spec2006,
    /// PARSEC multi-threaded suite.
    Parsec,
}

/// A synthetic benchmark profile.
///
/// # Example
///
/// ```
/// use audit_stressmark::workloads;
///
/// let zeusmp = workloads::by_name("zeusmp").unwrap();
/// let program = zeusmp.synthesize(2_000, 1);
/// assert!(program.fp_density() > 0.3);
/// assert!(program.avoids_fma());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name (matches the paper's figures).
    pub name: &'static str,
    /// Which suite the benchmark belongs to.
    pub suite: Suite,
    /// Fraction of instructions that are FP.
    pub fp: f64,
    /// Of the FP fraction, how much is 128-bit SIMD.
    pub simd: f64,
    /// Fraction of instructions that are loads/stores.
    pub mem: f64,
    /// Every n-th load misses to L2 (0 = never).
    pub l2_miss_period: u32,
    /// Every n-th load misses to memory (0 = never).
    pub mem_miss_period: u32,
    /// Every n-th branch mispredicts (0 = never).
    pub mispredict_period: u32,
    /// Probability that an op reads a recently produced value (longer
    /// dependence chains ⇒ lower ILP ⇒ lower, steadier current).
    pub dependence: f64,
    /// Phase modulation depth in `[0, 1]`: how strongly the instruction
    /// mix swings between compute-dense and quiet phases.
    pub burstiness: f64,
    /// Instructions per phase half-period.
    pub phase_len: u32,
    /// Fraction of the body spent in tight vectorized inner loops —
    /// literal periodic FP-burst/NOP trains like a compiled stencil
    /// sweep. This is what makes zeusmp-class codes droop more than
    /// their average FP density suggests.
    pub vector_loop: f64,
}

impl WorkloadProfile {
    /// Expands the profile into a deterministic looped [`Program`] of
    /// roughly `len` instructions (phases may round it slightly).
    ///
    /// The same `(profile, len, seed)` always yields the same program.
    pub fn synthesize(&self, len: usize, seed: u64) -> Program {
        let mut rng = SmallRng::seed_from_u64(seed ^ hash_name(self.name));
        let mut body = Vec::with_capacity(len);
        let mut recent_int: u8 = 0;
        let mut recent_fp: u8 = 0;
        let mut vector_budget = (self.vector_loop * len as f64) as usize;
        // Space the vector-loop episodes evenly so the whole budget is
        // actually spent (one 97-instruction episode per interval).
        let episode_interval = if self.vector_loop > 0.0 {
            ((97.0 / self.vector_loop) as usize).max(150)
        } else {
            usize::MAX
        };
        while body.len() < len {
            // Tight vectorized inner loop: a streaming load that misses
            // off-chip at the row boundary (draining the core), followed
            // by a dense SIMD sweep over the fetched row — the classic
            // stencil-code di/dt event. Budgeted by `vector_loop`.
            if vector_budget > 0 && body.len() % episode_interval == episode_interval / 2 {
                body.push(
                    Inst::new(Opcode::Load)
                        .int_dst(7)
                        .int_srcs(12, 13)
                        .mem(MemBehavior::MemMissEvery { period: 2 })
                        .toggle(0.5),
                );
                for i in 0..96u8 {
                    body.push(match i % 4 {
                        0 | 1 => Inst::new(Opcode::SimdFMul)
                            .fp_dst(i % 8)
                            .fp_srcs(8 + i % 4, 10)
                            .toggle(0.5),
                        2 => Inst::new(Opcode::FAdd)
                            .fp_dst((i + 4) % 8)
                            .fp_srcs(9, 11)
                            .toggle(0.5),
                        _ => Inst::new(Opcode::IAdd)
                            .int_dst(i % 6)
                            .int_srcs(8, 9)
                            .toggle(0.5),
                    });
                }
                vector_budget = vector_budget.saturating_sub(97);
                continue;
            }
            let phase_hot = (body.len() as u32 / self.phase_len.max(1)).is_multiple_of(2);
            let gain = if phase_hot {
                1.0 + self.burstiness
            } else {
                1.0 - self.burstiness
            };
            let fp_p = (self.fp * gain).clamp(0.0, 0.95);
            let mem_p = (self.mem * gain).clamp(0.0, 0.9);

            // Loop-carried branch roughly every 16 instructions.
            if body.len() % 16 == 15 {
                let b = if self.mispredict_period > 0 {
                    BranchBehavior::MispredictEvery {
                        period: self.mispredict_period,
                    }
                } else {
                    BranchBehavior::Predicted
                };
                body.push(Inst::new(Opcode::Branch).branch(b));
                continue;
            }

            let roll: f64 = rng.gen();
            let inst = if roll < fp_p {
                let op = if rng.gen_bool(self.simd.clamp(0.0, 1.0)) {
                    *pick(
                        &mut rng,
                        &[Opcode::SimdFMul, Opcode::SimdIAdd, Opcode::SimdShuffle],
                    )
                } else {
                    *pick(&mut rng, &[Opcode::FAdd, Opcode::FMul, Opcode::FMul])
                };
                let dst = rng.gen_range(0..8u8);
                let src = if rng.gen_bool(self.dependence) {
                    recent_fp
                } else {
                    rng.gen_range(8..12u8)
                };
                recent_fp = dst;
                Inst::new(op)
                    .fp_dst(dst)
                    .fp_srcs(src, rng.gen_range(8..12))
                    .toggle(0.5)
            } else if roll < fp_p + mem_p {
                if rng.gen_bool(0.7) {
                    // The profile's miss periods are average rates: one
                    // load in `mem_miss_period` misses to memory. Encode
                    // that as a sparse set of frequently-missing slots
                    // (streaming/stencil loads that miss on most passes)
                    // rather than a per-slot period longer than the run.
                    let mem = if self.mem_miss_period > 0
                        && rng.gen_bool((1.5 / self.mem_miss_period as f64).min(1.0))
                    {
                        MemBehavior::MemMissEvery { period: 4 }
                    } else if self.l2_miss_period > 0
                        && rng.gen_bool((1.0 / self.l2_miss_period as f64).min(1.0))
                    {
                        MemBehavior::L2MissEvery { period: 3 }
                    } else {
                        MemBehavior::L1Hit
                    };
                    let dst = rng.gen_range(0..6u8);
                    recent_int = dst;
                    Inst::new(Opcode::Load)
                        .int_dst(dst)
                        .int_srcs(12, 13)
                        .mem(mem)
                        .toggle(0.5)
                } else {
                    Inst::new(Opcode::Store)
                        .int_srcs(recent_int, 13)
                        .toggle(0.5)
                }
            } else {
                // Compiled benchmark code rarely sits on the multiplier
                // critical path (strength reduction); the engineered
                // stressmarks SM1/SM2 do — that contrast is the paper's
                // §5.A.4 failure-point insight.
                let op = *pick(
                    &mut rng,
                    &[Opcode::IAdd, Opcode::ISub, Opcode::IXor, Opcode::Lea],
                );
                let dst = rng.gen_range(0..6u8);
                let src = if rng.gen_bool(self.dependence) {
                    recent_int
                } else {
                    rng.gen_range(8..12u8)
                };
                recent_int = dst;
                Inst::new(op)
                    .int_dst(dst)
                    .int_srcs(src, rng.gen_range(8..12))
                    .toggle(0.5)
            };
            body.push(inst);
        }
        Program::new(self.name, body)
    }
}

fn pick<'a, T>(rng: &mut SmallRng, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, so profiles differ even with equal seeds.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The SPEC CPU2006 subset used across the paper's figures.
pub fn spec2006() -> Vec<WorkloadProfile> {
    vec![
        WorkloadProfile {
            name: "perlbench",
            suite: Suite::Spec2006,
            fp: 0.02,
            simd: 0.0,
            mem: 0.30,
            l2_miss_period: 60,
            mem_miss_period: 0,
            mispredict_period: 12,
            dependence: 0.55,
            burstiness: 0.15,
            phase_len: 600,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "gcc",
            suite: Suite::Spec2006,
            fp: 0.01,
            simd: 0.0,
            mem: 0.32,
            l2_miss_period: 40,
            mem_miss_period: 300,
            mispredict_period: 14,
            dependence: 0.5,
            burstiness: 0.2,
            phase_len: 500,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "mcf",
            suite: Suite::Spec2006,
            fp: 0.01,
            simd: 0.0,
            mem: 0.38,
            l2_miss_period: 12,
            mem_miss_period: 40,
            mispredict_period: 18,
            dependence: 0.7,
            burstiness: 0.3,
            phase_len: 400,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "zeusmp",
            suite: Suite::Spec2006,
            fp: 0.48,
            simd: 0.60,
            mem: 0.25,
            l2_miss_period: 24,
            mem_miss_period: 40,
            mispredict_period: 0,
            dependence: 0.25,
            burstiness: 0.7,
            phase_len: 96,
            vector_loop: 0.32,
        },
        WorkloadProfile {
            name: "bwaves",
            suite: Suite::Spec2006,
            fp: 0.45,
            simd: 0.5,
            mem: 0.28,
            l2_miss_period: 50,
            mem_miss_period: 600,
            mispredict_period: 0,
            dependence: 0.35,
            burstiness: 0.3,
            phase_len: 700,
            vector_loop: 0.08,
        },
        WorkloadProfile {
            name: "gamess",
            suite: Suite::Spec2006,
            fp: 0.34,
            simd: 0.2,
            mem: 0.22,
            l2_miss_period: 300,
            mem_miss_period: 0,
            mispredict_period: 48,
            dependence: 0.45,
            burstiness: 0.2,
            phase_len: 800,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "milc",
            suite: Suite::Spec2006,
            fp: 0.42,
            simd: 0.6,
            mem: 0.30,
            l2_miss_period: 30,
            mem_miss_period: 200,
            mispredict_period: 0,
            dependence: 0.4,
            burstiness: 0.35,
            phase_len: 350,
            vector_loop: 0.06,
        },
        WorkloadProfile {
            name: "povray",
            suite: Suite::Spec2006,
            fp: 0.35,
            simd: 0.1,
            mem: 0.25,
            l2_miss_period: 260,
            mem_miss_period: 0,
            mispredict_period: 26,
            dependence: 0.5,
            burstiness: 0.15,
            phase_len: 900,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "lbm",
            suite: Suite::Spec2006,
            fp: 0.44,
            simd: 0.35,
            mem: 0.33,
            l2_miss_period: 25,
            mem_miss_period: 400,
            mispredict_period: 0,
            dependence: 0.3,
            burstiness: 0.25,
            phase_len: 450,
            vector_loop: 0.06,
        },
        WorkloadProfile {
            name: "libquantum",
            suite: Suite::Spec2006,
            fp: 0.05,
            simd: 0.3,
            mem: 0.35,
            l2_miss_period: 20,
            mem_miss_period: 100,
            mispredict_period: 0,
            dependence: 0.4,
            burstiness: 0.3,
            phase_len: 300,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "bzip2",
            suite: Suite::Spec2006,
            fp: 0.01,
            simd: 0.0,
            mem: 0.34,
            l2_miss_period: 50,
            mem_miss_period: 400,
            mispredict_period: 16,
            dependence: 0.55,
            burstiness: 0.2,
            phase_len: 450,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "gobmk",
            suite: Suite::Spec2006,
            fp: 0.01,
            simd: 0.0,
            mem: 0.28,
            l2_miss_period: 90,
            mem_miss_period: 0,
            mispredict_period: 10,
            dependence: 0.5,
            burstiness: 0.15,
            phase_len: 550,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "hmmer",
            suite: Suite::Spec2006,
            fp: 0.02,
            simd: 0.1,
            mem: 0.3,
            l2_miss_period: 120,
            mem_miss_period: 0,
            mispredict_period: 45,
            dependence: 0.35,
            burstiness: 0.1,
            phase_len: 900,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "sjeng",
            suite: Suite::Spec2006,
            fp: 0.01,
            simd: 0.0,
            mem: 0.26,
            l2_miss_period: 100,
            mem_miss_period: 0,
            mispredict_period: 11,
            dependence: 0.5,
            burstiness: 0.15,
            phase_len: 600,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "h264ref",
            suite: Suite::Spec2006,
            fp: 0.08,
            simd: 0.3,
            mem: 0.32,
            l2_miss_period: 70,
            mem_miss_period: 0,
            mispredict_period: 22,
            dependence: 0.4,
            burstiness: 0.2,
            phase_len: 500,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "omnetpp",
            suite: Suite::Spec2006,
            fp: 0.02,
            simd: 0.0,
            mem: 0.4,
            l2_miss_period: 16,
            mem_miss_period: 60,
            mispredict_period: 18,
            dependence: 0.6,
            burstiness: 0.25,
            phase_len: 400,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "astar",
            suite: Suite::Spec2006,
            fp: 0.02,
            simd: 0.0,
            mem: 0.36,
            l2_miss_period: 25,
            mem_miss_period: 120,
            mispredict_period: 14,
            dependence: 0.6,
            burstiness: 0.2,
            phase_len: 450,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "xalancbmk",
            suite: Suite::Spec2006,
            fp: 0.01,
            simd: 0.0,
            mem: 0.38,
            l2_miss_period: 30,
            mem_miss_period: 180,
            mispredict_period: 13,
            dependence: 0.55,
            burstiness: 0.2,
            phase_len: 500,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "gromacs",
            suite: Suite::Spec2006,
            fp: 0.38,
            simd: 0.35,
            mem: 0.26,
            l2_miss_period: 200,
            mem_miss_period: 0,
            mispredict_period: 55,
            dependence: 0.4,
            burstiness: 0.2,
            phase_len: 700,
            vector_loop: 0.04,
        },
        WorkloadProfile {
            name: "cactusADM",
            suite: Suite::Spec2006,
            fp: 0.42,
            simd: 0.45,
            mem: 0.3,
            l2_miss_period: 45,
            mem_miss_period: 350,
            mispredict_period: 0,
            dependence: 0.35,
            burstiness: 0.25,
            phase_len: 600,
            vector_loop: 0.05,
        },
        WorkloadProfile {
            name: "leslie3d",
            suite: Suite::Spec2006,
            fp: 0.44,
            simd: 0.5,
            mem: 0.3,
            l2_miss_period: 35,
            mem_miss_period: 250,
            mispredict_period: 0,
            dependence: 0.3,
            burstiness: 0.3,
            phase_len: 500,
            vector_loop: 0.06,
        },
        WorkloadProfile {
            name: "namd",
            suite: Suite::Spec2006,
            fp: 0.4,
            simd: 0.3,
            mem: 0.24,
            l2_miss_period: 220,
            mem_miss_period: 0,
            mispredict_period: 60,
            dependence: 0.4,
            burstiness: 0.15,
            phase_len: 800,
            vector_loop: 0.03,
        },
        WorkloadProfile {
            name: "dealII",
            suite: Suite::Spec2006,
            fp: 0.35,
            simd: 0.25,
            mem: 0.3,
            l2_miss_period: 60,
            mem_miss_period: 500,
            mispredict_period: 24,
            dependence: 0.45,
            burstiness: 0.2,
            phase_len: 550,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "soplex",
            suite: Suite::Spec2006,
            fp: 0.3,
            simd: 0.2,
            mem: 0.36,
            l2_miss_period: 25,
            mem_miss_period: 140,
            mispredict_period: 20,
            dependence: 0.5,
            burstiness: 0.25,
            phase_len: 450,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "GemsFDTD",
            suite: Suite::Spec2006,
            fp: 0.43,
            simd: 0.5,
            mem: 0.32,
            l2_miss_period: 30,
            mem_miss_period: 220,
            mispredict_period: 0,
            dependence: 0.3,
            burstiness: 0.3,
            phase_len: 480,
            vector_loop: 0.05,
        },
        WorkloadProfile {
            name: "tonto",
            suite: Suite::Spec2006,
            fp: 0.36,
            simd: 0.25,
            mem: 0.26,
            l2_miss_period: 110,
            mem_miss_period: 0,
            mispredict_period: 28,
            dependence: 0.45,
            burstiness: 0.2,
            phase_len: 650,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "sphinx3",
            suite: Suite::Spec2006,
            fp: 0.3,
            simd: 0.3,
            mem: 0.3,
            l2_miss_period: 55,
            mem_miss_period: 300,
            mispredict_period: 26,
            dependence: 0.4,
            burstiness: 0.25,
            phase_len: 500,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "wrf",
            suite: Suite::Spec2006,
            fp: 0.4,
            simd: 0.4,
            mem: 0.28,
            l2_miss_period: 60,
            mem_miss_period: 400,
            mispredict_period: 0,
            dependence: 0.35,
            burstiness: 0.3,
            phase_len: 520,
            vector_loop: 0.04,
        },
    ]
}

/// The PARSEC subset used across the paper's figures.
pub fn parsec() -> Vec<WorkloadProfile> {
    vec![
        WorkloadProfile {
            name: "blackscholes",
            suite: Suite::Parsec,
            fp: 0.38,
            simd: 0.15,
            mem: 0.20,
            l2_miss_period: 100,
            mem_miss_period: 0,
            mispredict_period: 40,
            dependence: 0.4,
            burstiness: 0.2,
            phase_len: 700,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "bodytrack",
            suite: Suite::Parsec,
            fp: 0.26,
            simd: 0.15,
            mem: 0.28,
            l2_miss_period: 50,
            mem_miss_period: 0,
            mispredict_period: 28,
            dependence: 0.45,
            burstiness: 0.25,
            phase_len: 500,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "canneal",
            suite: Suite::Parsec,
            fp: 0.05,
            simd: 0.0,
            mem: 0.40,
            l2_miss_period: 10,
            mem_miss_period: 30,
            mispredict_period: 15,
            dependence: 0.65,
            burstiness: 0.3,
            phase_len: 350,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "fluidanimate",
            suite: Suite::Parsec,
            fp: 0.34,
            simd: 0.2,
            mem: 0.30,
            l2_miss_period: 140,
            mem_miss_period: 0,
            mispredict_period: 40,
            dependence: 0.35,
            burstiness: 0.25,
            phase_len: 400,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "streamcluster",
            suite: Suite::Parsec,
            fp: 0.35,
            simd: 0.45,
            mem: 0.35,
            l2_miss_period: 20,
            mem_miss_period: 250,
            mispredict_period: 0,
            dependence: 0.3,
            burstiness: 0.3,
            phase_len: 450,
            vector_loop: 0.0,
        },
        WorkloadProfile {
            name: "swaptions",
            suite: Suite::Parsec,
            fp: 0.50,
            simd: 0.5,
            mem: 0.22,
            l2_miss_period: 60,
            mem_miss_period: 320,
            mispredict_period: 30,
            dependence: 0.25,
            burstiness: 0.55,
            phase_len: 110,
            vector_loop: 0.03,
        },
    ]
}

/// Looks a profile up by benchmark name across both suites.
pub fn by_name(name: &str) -> Option<WorkloadProfile> {
    spec2006()
        .into_iter()
        .chain(parsec())
        .find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        let p = by_name("zeusmp").unwrap();
        assert_eq!(p.synthesize(2000, 7), p.synthesize(2000, 7));
    }

    #[test]
    fn different_seeds_differ() {
        let p = by_name("zeusmp").unwrap();
        assert_ne!(p.synthesize(2000, 7), p.synthesize(2000, 8));
    }

    #[test]
    fn different_benchmarks_differ_with_same_seed() {
        let a = by_name("zeusmp").unwrap().synthesize(2000, 7);
        let b = by_name("bwaves").unwrap().synthesize(2000, 7);
        assert_ne!(a, b);
    }

    #[test]
    fn fp_density_tracks_profile() {
        for name in ["zeusmp", "mcf", "swaptions"] {
            let prof = by_name(name).unwrap();
            let prog = prof.synthesize(8000, 1);
            let measured = prog.fp_density();
            assert!(
                (measured - prof.fp).abs() < 0.12,
                "{name}: profile {} vs measured {measured}",
                prof.fp
            );
        }
    }

    #[test]
    fn benchmarks_use_neutral_toggle() {
        let prog = by_name("gcc").unwrap().synthesize(1000, 0);
        for i in prog.body() {
            if !i.opcode.is_nop() && !matches!(i.opcode, Opcode::Branch) {
                assert_eq!(i.toggle, 0.5);
            }
        }
    }

    #[test]
    fn suites_have_expected_members() {
        assert_eq!(spec2006().len(), 28);
        assert_eq!(parsec().len(), 6);
        assert!(by_name("swaptions").unwrap().suite == Suite::Parsec);
        assert!(by_name("zeusmp").unwrap().suite == Suite::Spec2006);
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn no_benchmark_uses_fma() {
        // Keeps every workload runnable on the Phenom-class part.
        for prof in spec2006().into_iter().chain(parsec()) {
            let prog = prof.synthesize(4000, 3);
            assert!(prog.avoids_fma(), "{} emitted FMA", prof.name);
        }
    }

    #[test]
    fn branches_appear_regularly() {
        let prog = by_name("gcc").unwrap().synthesize(1600, 2);
        let branches = prog
            .body()
            .iter()
            .filter(|i| i.opcode == Opcode::Branch)
            .count();
        assert!((80..=120).contains(&branches), "{branches} branches");
    }
}
