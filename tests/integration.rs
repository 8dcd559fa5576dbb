//! Cross-crate integration tests: stressmarks, workloads, chips, and the
//! measurement harness working together.

use audit_core::harness::{MeasureSpec, Rig};
use audit_core::report::Table;
use audit_cpu::{ChipConfig, ChipSim, Program};
use audit_stressmark::{manual, nasm, workloads};

fn fast() -> MeasureSpec {
    MeasureSpec::ga_eval()
}

#[test]
fn stressmarks_out_droop_benchmarks_at_4t() {
    // The paper's headline comparison (Fig. 9): engineered resonant
    // stressmarks sit far above standard benchmarks.
    let rig = Rig::bulldozer();
    let sm_res = rig
        .measure_aligned(&vec![manual::sm_res(); 4], fast())
        .max_droop();

    for name in ["zeusmp", "gcc", "swaptions"] {
        let program = workloads::by_name(name).unwrap().synthesize(2_000, 1);
        let offsets: Vec<u64> = (0..4u64).map(|i| i * 37 + 11).collect();
        let bench = rig
            .measure_with_offsets(&vec![program; 4], &offsets, fast())
            .max_droop();
        assert!(
            sm_res > 1.4 * bench,
            "{name}: SM-Res {sm_res} vs benchmark {bench}"
        );
    }
}

#[test]
fn sm2_has_modest_droop_but_high_failure_point() {
    // §5.A.4: droop magnitude is not the only failure indicator.
    let rig = Rig::bulldozer();
    let sm2 = vec![manual::sm2(); 4];
    let zeusmp_prog = workloads::by_name("zeusmp").unwrap().synthesize(2_000, 1);
    let offsets: Vec<u64> = (0..4u64).map(|i| i * 37 + 11).collect();
    let zeusmp = vec![zeusmp_prog; 4];

    let sm2_droop = rig.measure_aligned(&sm2, fast()).max_droop();
    let zeusmp_droop = rig
        .measure_with_offsets(&zeusmp, &offsets, fast())
        .max_droop();
    assert!(
        sm2_droop < zeusmp_droop,
        "SM2 should droop less: {sm2_droop} vs {zeusmp_droop}"
    );

    let sm2_vf = rig
        .voltage_at_failure(&sm2, fast())
        .expect("SM2 fails in range");
    let zeusmp_vf = rig
        .voltage_at_failure_with_offsets(&zeusmp, &offsets, fast())
        .expect("zeusmp fails in range");
    assert!(
        sm2_vf > zeusmp_vf,
        "SM2 must fail at higher voltage: {sm2_vf} vs {zeusmp_vf}"
    );
}

#[test]
fn fpu_throttling_suppresses_resonant_stressmark() {
    let base = Rig::bulldozer();
    let throttled = base.clone().with_fpu_throttle(1);
    let programs = vec![manual::sm_res(); 4];
    let before = base.measure_aligned(&programs, fast()).max_droop();
    let after = throttled.measure_aligned(&programs, fast()).max_droop();
    assert!(after < 0.75 * before, "throttle: {before} → {after}");
}

#[test]
fn sm1_rejected_on_phenom_and_accepted_on_bulldozer() {
    let phenom = ChipConfig::phenom();
    let err = ChipSim::new(
        &phenom,
        &phenom.spread_placement(1).unwrap(),
        &[manual::sm1()],
    );
    assert!(err.is_err(), "SM1 must not run on the Phenom-class part");

    let bd = ChipConfig::bulldozer();
    assert!(ChipSim::new(&bd, &bd.spread_placement(1).unwrap(), &[manual::sm1()]).is_ok());
}

#[test]
fn phenom_runs_sm2_and_workloads() {
    let rig = Rig::phenom();
    let d = rig
        .measure_aligned(&vec![manual::sm2(); 4], fast())
        .max_droop();
    assert!(d > 0.005, "SM2 droop on Phenom {d}");
    let z = workloads::by_name("zeusmp").unwrap().synthesize(2_000, 1);
    let dz = rig.measure_aligned(&vec![z; 4], fast()).max_droop();
    assert!(dz > 0.005, "zeusmp droop on Phenom {dz}");
}

#[test]
fn nasm_emission_round_trips_every_stressmark() {
    for program in [
        manual::sm1(),
        manual::sm2(),
        manual::sm_res(),
        manual::barrier_burst(),
    ] {
        let asm = nasm::emit(&program, 1_000);
        // One line per body instruction plus the fixed scaffold.
        let body_lines = asm.lines().filter(|l| l.starts_with("    ")).count();
        assert!(
            body_lines >= program.len(),
            "{}: {} lines for {} instructions",
            program.name(),
            body_lines,
            program.len()
        );
        assert!(asm.contains(".loop:"));
    }
}

#[test]
fn all_workloads_run_and_draw_distinct_power() {
    let rig = Rig::bulldozer();
    let mut currents = Vec::new();
    for profile in workloads::spec2006().into_iter().chain(workloads::parsec()) {
        let program = profile.synthesize(1_500, 1);
        let m = rig.measure_aligned(&[program], fast());
        assert!(m.ipc > 0.1, "{} wedged (ipc {})", profile.name, m.ipc);
        currents.push(m.mean_amps);
    }
    assert_eq!(currents.len(), 34);
    let lo = currents.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = currents.iter().copied().fold(0.0f64, f64::max);
    assert!(hi > lo + 1.0, "workloads indistinguishable: {lo}..{hi}");
}

#[test]
fn eight_thread_placement_reaches_every_module_core() {
    let cfg = ChipConfig::bulldozer();
    let placement = cfg.spread_placement(8).unwrap();
    let mut seen = std::collections::HashSet::new();
    for slot in placement.slots() {
        seen.insert(*slot);
    }
    assert_eq!(seen.len(), 8);
}

#[test]
fn report_tables_render_experiment_style_rows() {
    let mut t = Table::new(vec!["workload", "1T", "2T", "4T", "8T"]);
    t.row(vec![
        "SM-Res".into(),
        "0.45".into(),
        "0.82".into(),
        "1.57".into(),
        "0.48".into(),
    ]);
    let text = t.to_string();
    assert!(text.contains("SM-Res"));
    let csv = t.to_csv();
    assert_eq!(csv.lines().count(), 2);
}

#[test]
fn lower_voltage_never_unfails_a_workload() {
    // Failure must be monotone in nominal voltage for a deterministic
    // workload: if it fails at v, it fails at v - step.
    let rig = Rig::bulldozer();
    let programs = vec![manual::sm_res(); 2];
    let spec = MeasureSpec {
        check_failure: true,
        ..fast()
    };
    let vf = rig.voltage_at_failure(&programs, spec).expect("must fail");
    for dv in [0.0125, 0.025, 0.05] {
        let m = rig.at_voltage(vf - dv).measure_aligned(&programs, spec);
        assert!(m.failed, "unfailed at {} below first failure", dv);
    }
}

#[test]
fn load_line_reduces_reported_dc_level_not_relative_droop_logic() {
    // The paper disables the load line; verify enabling it changes the
    // measured minimum (sanity for the §5.A methodology note).
    let base = Rig::bulldozer();
    let mut with_ll = base.clone();
    with_ll.pdn = with_ll
        .pdn
        .with_load_line(audit_pdn::LoadLine::with_slope(1.0e-3));
    let programs = vec![manual::sm_res(); 4];
    let v_base = base.measure_aligned(&programs, fast()).stats.v_min();
    let v_ll = with_ll.measure_aligned(&programs, fast()).stats.v_min();
    assert!(
        v_ll < v_base - 0.01,
        "load line should sag the rail: {v_ll} vs {v_base}"
    );
}

#[test]
fn program_name_survives_pipeline() {
    let p = Program::new(
        "my-kernel",
        vec![audit_cpu::Inst::new(audit_cpu::Opcode::Nop)],
    );
    assert_eq!(p.name(), "my-kernel");
    let padded = p.with_nop_padding(4);
    assert!(padded.name().contains("my-kernel"));
}
