//! Smoke tests: every light experiment binary must run to completion in
//! fast mode and print its expected markers. (The GA-heavy binaries are
//! exercised through `audit-core`'s own tests; one representative is
//! included here.)

use std::process::Command;

fn run_fast(bin: &str) -> (bool, String) {
    let out = Command::new(env(bin))
        .env("AUDIT_FAST", "1")
        .output()
        .unwrap_or_else(|e| panic!("running {bin}: {e}"));
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn env(bin: &str) -> String {
    // Cargo exposes each bin target of the package under test.
    match bin {
        "fig03_resonances" => env!("CARGO_BIN_EXE_fig03_resonances").to_string(),
        "fig04_excitation_vs_resonance" => {
            env!("CARGO_BIN_EXE_fig04_excitation_vs_resonance").to_string()
        }
        "fig06_natural_dithering" => env!("CARGO_BIN_EXE_fig06_natural_dithering").to_string(),
        "fig07_activity_pattern" => env!("CARGO_BIN_EXE_fig07_activity_pattern").to_string(),
        "text_resonance_sweep" => env!("CARGO_BIN_EXE_text_resonance_sweep").to_string(),
        "text_dithering_cost" => env!("CARGO_BIN_EXE_text_dithering_cost").to_string(),
        "text_data_toggle" => env!("CARGO_BIN_EXE_text_data_toggle").to_string(),
        "text_barrier_stressmark" => env!("CARGO_BIN_EXE_text_barrier_stressmark").to_string(),
        "spectrum_analysis" => env!("CARGO_BIN_EXE_spectrum_analysis").to_string(),
        "sim_path_spice" => env!("CARGO_BIN_EXE_sim_path_spice").to_string(),
        "ext_second_droop" => env!("CARGO_BIN_EXE_ext_second_droop").to_string(),
        "ext_noise_aware_scheduling" => {
            env!("CARGO_BIN_EXE_ext_noise_aware_scheduling").to_string()
        }
        "ext_mixed_consolidation" => env!("CARGO_BIN_EXE_ext_mixed_consolidation").to_string(),
        "table3_phenom" => env!("CARGO_BIN_EXE_table3_phenom").to_string(),
        other => panic!("unknown bin {other}"),
    }
}

fn assert_markers(bin: &str, markers: &[&str]) {
    let (ok, text) = run_fast(bin);
    assert!(ok, "{bin} failed");
    for m in markers {
        assert!(text.contains(m), "{bin}: missing `{m}` in output:\n{text}");
    }
}

#[test]
fn fig03_smoke() {
    assert_markers(
        "fig03_resonances",
        &["first droop", "second droop", "third droop"],
    );
}

#[test]
fn fig04_smoke() {
    assert_markers(
        "fig04_excitation_vs_resonance",
        &[
            "first droop excitation",
            "first droop resonance",
            "ratio here",
        ],
    );
}

#[test]
fn fig06_smoke() {
    assert_markers(
        "fig06_natural_dithering",
        &["tick epoch", "aligned reference droop"],
    );
}

#[test]
fn fig07_smoke() {
    assert_markers(
        "fig07_activity_pattern",
        &["high power", "NASM head", "BITS 64"],
    );
}

#[test]
fn text_resonance_sweep_smoke() {
    assert_markers(
        "text_resonance_sweep",
        &["sweep says", "AC analysis says", "agreement"],
    );
}

#[test]
fn text_dithering_cost_smoke() {
    assert_markers(
        "text_dithering_cost",
        &["exact (δ=0)", "paper check", "dithered sweep"],
    );
}

#[test]
fn text_data_toggle_smoke() {
    assert_markers(
        "text_data_toggle",
        &["operand toggle activity", "droop gain"],
    );
}

#[test]
fn text_barrier_smoke() {
    assert_markers(
        "text_barrier_stressmark",
        &[
            "ideal synchronous release",
            "memory-hierarchy skewed release",
        ],
    );
}

#[test]
fn spectrum_smoke() {
    assert_markers("spectrum_analysis", &["dominant line", "SM-Res"]);
}

#[test]
fn spice_smoke() {
    assert_markers("sim_path_spice", &["pdn_tran.sp", "pdn_ac.sp"]);
    let deck = std::fs::read_to_string("target/spice/pdn_tran.sp")
        .or_else(|_| {
            // The binary writes relative to its own CWD (the workspace
            // root when run via cargo); fall back to that layout.
            std::fs::read_to_string(
                std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("../../target/spice/pdn_tran.sp"),
            )
        })
        .expect("deck written");
    assert!(deck.contains(".tran"));
}

#[test]
fn ext_second_droop_smoke() {
    assert_markers("ext_second_droop", &["first droop", "second droop"]);
}

#[test]
fn ext_noise_aware_smoke() {
    assert_markers(
        "ext_noise_aware_scheduling",
        &["constructive droop", "destructive droop"],
    );
}

#[test]
fn ext_mixed_consolidation_smoke() {
    assert_markers(
        "ext_mixed_consolidation",
        &["SPECrate", "worst homogeneous"],
    );
}

#[test]
fn table3_smoke() {
    // One GA-bearing binary as the representative heavy path.
    assert_markers(
        "table3_phenom",
        &["SM1 on Phenom-class part", "rel. droop (SM2 = 1)", "A-Res"],
    );
}
