//! AUDIT: AUtomated DI/dT stressmark generation.
//!
//! This crate implements the framework of Kim et al., *AUDIT: Stress
//! Testing the Automatic Way* (MICRO 2012): a genetic algorithm that,
//! given only an opcode menu and a closed measurement loop, evolves
//! instruction sequences that maximize supply-voltage droop on a
//! multi-core processor — no microarchitectural knowledge required.
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`harness`] — the "Measure HW" box of Fig. 5: chip model + PDN +
//!   oscilloscope + failure model co-simulation,
//! * [`resonance`] — the automatic resonance-frequency sweep (§3),
//! * [`dither`] — the exact and approximate dithering algorithms that
//!   guarantee worst-case thread alignment (§3.B), plus their cost model,
//! * [`ga`] — the hierarchical (sub-blocked) genetic search (§3.C),
//! * [`journal`] — crash-safe checkpoint/resume: the NDJSON run journal
//!   every long search can be killed into and resumed from,
//! * [`resilient`] — the resilience layer for fault-injected runs:
//!   repeat-median measurement, bounded retry, watchdog, quarantine,
//!   and the crash-tolerant journaled Vmin search,
//! * [`audit`] — the top-level [`audit::Audit`] driver producing
//!   the paper's A-Ex, A-Res, A-Res-8T, and A-Res-Th stressmarks,
//! * [`patterns`] — the idealized high/low activity pattern of Fig. 7,
//! * [`report`] — plain-text/CSV table emission for the experiment
//!   binaries,
//! * [`suite`] — §5.A.6 stressmark-*suite* generation: one stressmark
//!   per usage scenario, cross-evaluated,
//! * [`analyze`] — the static stressmark analyzer (re-export of
//!   `audit-analyze`): IR verifier, lint catalog, and the static
//!   pressure model whose swing score each journaled GA generation
//!   records.
//!
//! # Quickstart
//!
//! ```no_run
//! use audit_core::audit::{Audit, AuditOptions};
//! use audit_core::harness::Rig;
//!
//! let rig = Rig::bulldozer();
//! let audit = Audit::new(rig, AuditOptions::fast_demo());
//! let run = audit.generate_resonant(4);
//! println!("best droop: {:.1} mV", run.best_droop * 1e3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod codec;
pub mod dither;
pub mod ga;
pub mod harness;
pub mod journal;
pub mod minimize;
pub mod patterns;
pub mod report;
pub mod resilient;
pub mod resonance;
pub mod shmoo;
pub mod suite;

pub use audit::{Audit, AuditOptions, FitnessSpec};
pub use audit_analyze as analyze;
pub use audit_error::{AuditError, AuditResult};
pub use harness::{MeasureSpec, Measurement, Rig};
pub use journal::{Journal, JournalRecord, JournalSink, JournalWriter, MemJournal, NullSink};
pub use minimize::{MinimizeResult, MinimizeSearch};
pub use resilient::{
    MeasurePolicy, ResilienceLog, ResilienceReport, ResilientOutcome, VminResult, VminSearch,
};
pub use shmoo::{ShmooCell, ShmooResult, ShmooSweep, VfPoint};
