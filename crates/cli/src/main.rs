//! `audit` — command-line front end for the AUDIT di/dt stressmark
//! framework.
//!
//! ```text
//! audit resonance  [--chip bulldozer|phenom] [--threads N] [--fast]
//! audit generate   [--chip C] [--threads N] [--kind res|ex] [--seed S]
//!                  [--objective droop|droop-per-amp|sensitive|power|margin]...
//!                  [--throttle N] [--out file.asm] [--iterations N] [--fast]
//!                  [--checkpoint run.ndjson | --resume run.ndjson]
//! audit measure    (--workload NAME | --stressmark NAME) [--threads N]
//!                  [--chip C] [--volts V] [--throttle N] [--cycles N] [--fast]
//! audit failure    (--workload NAME | --stressmark NAME) [--threads N] [--chip C] [--fast]
//!                  [--checkpoint run.ndjson | --resume run.ndjson]
//! audit shmoo      (--workload NAME | --stressmark NAME) [--grid-volts V1,..]
//!                  [--grid-clocks HZ1,..] [--checkpoint run.ndjson | --resume run.ndjson]
//! audit minimize   (<witness.prog> | <generate-ckpt.ndjson>) [--retain F]
//!                  [--checkpoint run.ndjson | --resume run.ndjson] [--out kernel.prog]
//! audit serve      [generate flags] [--listen ADDR] [--min-workers N] [--window N]
//!                  [--heartbeat MS] [--dead-after MS]
//!                  [--net-faults SEED:drop=P,…] [--verify-fraction F]
//! audit work       --connect ADDR [--connect-for MS] [--connect-retry MS]
//! audit fleet      serve [--listen ADDR] [--min-workers N] [--campaigns N]
//!                        [--window N] [--heartbeat MS] [--dead-after MS]
//!                        [--net-faults SEED:drop=P,…] [--verify-fraction F]
//! audit fleet      submit --connect ADDR (--checkpoint run.ndjson | --resume run.ndjson)
//!                        [--weight N] [generate flags]
//! audit fleet      (status | metrics) --connect ADDR
//! audit journal    fsck <run.ndjson> [--repair]
//! audit lint       (<file.prog> | --builtin NAME | --all-builtins)
//!                  [--chip C] [--json] [--deny-warnings] [--allow AUD###] [--deny AUD###]
//! audit list
//! audit spice      [--chip C] [--out file.sp] [--cycles N]
//! ```

mod args;
mod checkpoint;
mod commands;
mod fleet;
mod platform;

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("audit: {msg}");
            eprintln!("run `audit help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(raw: Vec<String>) -> Result<(), String> {
    let parsed = args::Args::parse(raw).map_err(|e| e.to_string())?;
    let command = parsed
        .positionals()
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    let result = match command {
        "resonance" => commands::resonance(&parsed),
        "generate" => commands::generate(&parsed),
        "measure" => commands::measure(&parsed),
        "failure" => commands::failure(&parsed),
        "shmoo" => commands::shmoo(&parsed),
        "minimize" => commands::minimize(&parsed),
        "serve" => commands::serve(&parsed),
        "work" => commands::work(&parsed),
        "fleet" => fleet::fleet(&parsed),
        "journal" => commands::journal(&parsed),
        "lint" => commands::lint(&parsed),
        "list" => commands::list(&parsed),
        "spice" => commands::spice(&parsed),
        "help" | "--help" | "-h" => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(args::ArgError(format!("unknown command `{other}`"))),
    };
    result.map_err(|e| e.to_string())
}
