//! Cycle-level multi-core out-of-order x86-like performance and current
//! model.
//!
//! This crate is the reproduction's stand-in for the real AMD hardware
//! used in the AUDIT paper (Kim et al., MICRO 2012). It models the parts
//! of the machine that the paper demonstrates matter for di/dt stress:
//!
//! * a four-wide out-of-order core with finite ROB, schedulers, physical
//!   registers, and an issue-width/result-bus cap — so instruction mixes
//!   create *structural hazards* that stretch loop periods (paper §5.A.5,
//!   the NOP-vs-ADD analysis),
//! * **Bulldozer-style modules**: two cores share the front end and the
//!   floating-point unit, so 8-thread runs interfere in the FPU (paper
//!   §5.A.2),
//! * a per-cycle **current model**: per-op switching current with a
//!   data-toggle factor (paper §3: ≈10 % droop effect), clock-gated idle
//!   current, fetch/decode current for NOPs,
//! * **FPU throttling** (paper §5.B): a static cap on FP issues per
//!   module per cycle,
//! * a second, older-generation chip preset (Phenom-class) with a
//!   narrower pipeline, no multi-threading, weaker clock gating, and no
//!   FMA support (paper §5.C could not run SM1 on it due to incompatible
//!   instructions).
//!
//! The chip is advanced one clock cycle at a time; each step reports the
//! total current drawn, which downstream crates feed into the PDN model.
//!
//! # Example
//!
//! ```
//! use audit_cpu::{ChipConfig, ChipSim, Inst, Opcode, Program};
//!
//! let body = vec![Inst::new(Opcode::FMul).fp_dst(0).fp_srcs(1, 2); 8];
//! let program = Program::new("fp-loop", body);
//! let config = ChipConfig::bulldozer();
//! let placement = config.spread_placement(4).unwrap(); // 1 thread per module
//! let programs = vec![program; 4];
//! let mut chip = ChipSim::new(&config, &placement, &programs).unwrap();
//! let out = chip.step();
//! assert!(out.amps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod chip;
pub mod config;
pub mod core_sim;
pub mod energy;
pub mod inst;
pub mod isa;
pub mod module_sim;
pub mod placement;
pub mod tier;

pub use audit_error::AuditError;
pub use cache::{Cache, CacheConfig, Hierarchy, MemLevel};
pub use chip::{ChipCycle, ChipSim};
pub use config::{ChipConfig, CoreConfig, DidtLimiter, ModuleConfig};
pub use core_sim::{CoreTelemetry, StallReason};
pub use energy::EnergyModel;
pub use inst::{BranchBehavior, Inst, MemBehavior, Program, Reg};
pub use isa::{ExecUnit, OpProps, Opcode};
pub use placement::Placement;
pub use tier::{TierEstimate, TierModel};
