//! Shared support for the experiment binaries that regenerate every
//! table and figure of the AUDIT paper (see DESIGN.md for the index).
//!
//! Each binary prints a column-aligned table plus a CSV block, so results
//! can be eyeballed or parsed. Set `AUDIT_FAST=1` to run every experiment
//! in a reduced configuration (used by the integration smoke tests);
//! unset, the binaries run at reporting scale and should be built with
//! `--release`.

pub mod plots;

use audit_core::audit::AuditOptions;
use audit_core::harness::{MeasureSpec, Rig};
use audit_core::report::Table;
use audit_cpu::Program;
use audit_stressmark::workloads;

/// True when `AUDIT_FAST=1` (smoke-test mode).
pub fn fast_mode() -> bool {
    std::env::var("AUDIT_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// AUDIT generation options for this run (paper-scale unless fast mode).
pub fn audit_options() -> AuditOptions {
    if fast_mode() {
        AuditOptions::fast_demo()
    } else {
        AuditOptions::paper()
    }
}

/// Measurement spec for reported numbers.
pub fn reporting_spec() -> MeasureSpec {
    if fast_mode() {
        MeasureSpec {
            record_cycles: 12_000,
            ..MeasureSpec::reporting()
        }
    } else {
        MeasureSpec::reporting()
    }
}

/// Instructions synthesized per workload body.
pub(crate) fn workload_len() -> usize {
    if fast_mode() {
        1_500
    } else {
        4_000
    }
}

/// The standard-benchmark programs (SPEC CPU2006 + PARSEC), synthesized
/// deterministically.
pub fn benchmark_programs() -> Vec<Program> {
    workloads::spec2006()
        .into_iter()
        .chain(workloads::parsec())
        .map(|p| p.synthesize(workload_len(), 1))
        .collect()
}

/// One named benchmark program.
///
/// # Panics
///
/// Panics if the name is unknown.
pub fn benchmark(name: &str) -> Program {
    workloads::by_name(name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`"))
        .synthesize(workload_len(), 1)
}

/// Prints an experiment banner.
pub fn banner(id: &str, caption: &str) {
    println!("=== {id} — {caption} ===");
    println!(
        "platform: simulated (see DESIGN.md); mode: {}",
        if fast_mode() {
            "FAST (smoke test)"
        } else {
            "full"
        }
    );
    println!();
}

/// Prints a table followed by its CSV block.
pub fn emit(table: &Table) {
    println!("{table}");
    println!("--- csv ---");
    println!("{}", table.to_csv());
    println!();
}

/// Convenience: a default Bulldozer rig.
pub fn rig() -> Rig {
    Rig::bulldozer()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_set_is_complete() {
        assert_eq!(benchmark_programs().len(), 34);
    }

    #[test]
    fn benchmark_lookup_works() {
        assert_eq!(benchmark("zeusmp").name(), "zeusmp");
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let _ = benchmark("doom-eternal");
    }
}
