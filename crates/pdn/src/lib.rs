//! Lumped power-distribution-network (PDN) model for di/dt analysis.
//!
//! This crate is the simulation stand-in for the HSPICE + oscilloscope
//! portion of the AUDIT framework (Kim et al., MICRO 2012). It models the
//! PDN of a typical microprocessor as a three-stage RLC ladder —
//! motherboard, package, and die — exactly as sketched in Fig. 2 of the
//! paper, and provides:
//!
//! * a streaming **transient solver** ([`Transient`]) that converts a
//!   per-cycle load-current trace into a die-voltage trace,
//! * an **AC impedance analysis** ([`impedance`]) that reproduces the
//!   first/second/third droop resonances of the network (paper Fig. 3),
//! * a **VRM / load-line** model ([`loadline`]) that can be disabled to
//!   isolate di/dt droop, matching the paper's measurement methodology,
//! * a **SPICE deck emitter** ([`spice`]) reproducing the paper's
//!   simulation path: the ladder plus a per-cycle current trace as a PWL
//!   sink, ready for an external circuit simulator,
//! * an **implicit trapezoidal solver** ([`trapezoidal`]) — SPICE's own
//!   method — as an independent numerical cross-check of the RK4 path.
//!
//! # Example
//!
//! ```
//! use audit_pdn::{PdnModel, Transient};
//!
//! let pdn = PdnModel::bulldozer_board();
//! let mut sim = Transient::new(&pdn, 3.2e9); // one step per 3.2 GHz cycle
//! // Step load from idle to full power and watch the supply droop.
//! let mut min_v = pdn.nominal_voltage();
//! for cycle in 0..10_000 {
//!     let amps = if cycle < 100 { 10.0 } else { 90.0 };
//!     let v = sim.step(amps);
//!     min_v = min_v.min(v);
//! }
//! assert!(min_v < pdn.nominal_voltage());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod complex;
pub mod impedance;
pub mod loadline;
pub mod model;
pub mod spice;
pub mod transient;
pub mod trapezoidal;

pub use audit_error::AuditError;
pub use complex::Complex;
pub use impedance::{ImpedanceSweep, Resonance};
pub use loadline::LoadLine;
pub use model::{PdnModel, PdnStage};
pub use transient::Transient;
