//! Suite generation tour (§5.A.6): one stressmark per usage scenario,
//! cross-evaluated, in the fast-demo configuration.
//!
//! Run with: `cargo run --release -p audit-core --example suite_tour`

use audit_core::audit::AuditOptions;
use audit_core::harness::Rig;
use audit_core::suite::{Scenario, Suite};

fn main() {
    let base = Rig::bulldozer();
    // Two small scenarios keep the tour quick; Scenario::paper_set() is
    // the full configuration used by the suite_generation experiment.
    let scenarios = vec![
        Scenario {
            name: "2T".into(),
            threads: 2,
            fpu_throttle: None,
        },
        Scenario {
            name: "2T+throttle".into(),
            threads: 2,
            fpu_throttle: Some(1),
        },
    ];

    println!("generating one stressmark per scenario…");
    let suite = Suite::generate(&base, &AuditOptions::fast_demo(), scenarios);

    println!("\ncross-evaluation (rows = trained-for, columns = evaluated-under):");
    print!("{:>14}", "");
    for sc in &suite.scenarios {
        print!("{:>14}", sc.name);
    }
    println!();
    for (i, member) in suite.members.iter().enumerate() {
        print!("{:>14}", member.scenario.name);
        for j in 0..suite.scenarios.len() {
            let marker = if suite.best_for_scenario(j) == i {
                "◀"
            } else {
                " "
            };
            print!("{:>12.1}mV{marker}", suite.matrix[i][j] * 1e3);
        }
        println!();
    }
    println!(
        "\nself-consistent (each scenario won by its own specialist): {}",
        suite.is_self_consistent()
    );
    println!("this is §5.A.6's argument: no single stressmark covers every usage");
    println!("scenario, and AUDIT is cheap enough to generate one per scenario.");
}
