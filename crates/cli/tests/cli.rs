//! End-to-end tests driving the compiled `audit` binary.

use std::process::Command;

fn audit(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_lists_every_command() {
    let out = audit(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in [
        "resonance",
        "generate",
        "measure",
        "failure",
        "list",
        "spice",
    ] {
        assert!(text.contains(cmd), "help missing `{cmd}`");
    }
}

#[test]
fn no_arguments_prints_help() {
    let out = audit(&[]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn list_names_benchmarks_and_stressmarks() {
    let out = audit(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in ["zeusmp", "swaptions", "SM1", "SM-Res"] {
        assert!(text.contains(name), "list missing `{name}`");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = audit(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("frobnicate"));
}

#[test]
fn unknown_flag_fails_loudly() {
    let out = audit(&["list", "--turbo"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--turbo"));
}

#[test]
fn unknown_workload_names_the_culprit() {
    let out = audit(&["measure", "--workload", "crysis", "--fast"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("crysis"));
}

#[test]
fn measure_reports_droop() {
    let out = audit(&[
        "measure",
        "--stressmark",
        "sm-res",
        "--threads",
        "2",
        "--fast",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("max droop"));
    assert!(text.contains("mV"));
}

#[test]
fn measure_respects_chip_flag() {
    let out = audit(&[
        "measure",
        "--stressmark",
        "sm2",
        "--chip",
        "phenom",
        "--fast",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("phenom"));
    // SM1 must be refused on the Phenom-class part.
    let out = audit(&[
        "measure",
        "--stressmark",
        "sm1",
        "--chip",
        "phenom",
        "--fast",
    ]);
    assert!(!out.status.success());
}

#[test]
fn generate_saves_and_replays_a_prog_file() {
    let dir = std::env::temp_dir().join("audit-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("gen.prog");
    let asm = dir.join("gen.asm");

    let out = audit(&[
        "generate",
        "--fast",
        "--threads",
        "2",
        "--save",
        prog.to_str().unwrap(),
        "--out",
        asm.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("best droop"));

    // The NASM artifact looks like assembly.
    let asm_text = std::fs::read_to_string(&asm).unwrap();
    assert!(asm_text.contains("BITS 64"));

    // The .prog artifact replays through `measure --file`.
    let out = audit(&[
        "measure",
        "--file",
        prog.to_str().unwrap(),
        "--threads",
        "2",
        "--fast",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("max droop"));
}

#[test]
fn checkpointed_generate_survives_a_kill() {
    let dir = std::env::temp_dir().join("audit-cli-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("run.ndjson");
    let full_prog = dir.join("full.prog");
    let resumed_prog = dir.join("resumed.prog");

    // Full checkpointed run: records the configuration and every
    // generation in the journal.
    let out = audit(&[
        "generate",
        "--fast",
        "--threads",
        "2",
        "--seed",
        "11",
        "--checkpoint",
        journal.to_str().unwrap(),
        "--save",
        full_prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let full_text = stdout(&out);
    let droop_line = |text: &str| {
        text.lines()
            .find(|l| l.contains("best droop"))
            .map(str::to_string)
            .expect("droop line")
    };

    // Simulate a kill partway through the GA: drop everything after
    // the second generation record (and with it run_end/ga_end).
    let lines: Vec<String> = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    let cut = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("\"generation\""))
        .map(|(i, _)| i)
        .nth(1)
        .expect("at least two generation records");
    assert!(cut + 1 < lines.len(), "cut must drop something");
    std::fs::write(&journal, format!("{}\n", lines[..=cut].join("\n"))).unwrap();

    // Resume needs no configuration flags — they come from the journal.
    let out = audit(&[
        "generate",
        "--resume",
        journal.to_str().unwrap(),
        "--save",
        resumed_prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let resumed_text = stdout(&out);
    assert!(resumed_text.contains("resuming"), "{resumed_text}");
    assert!(resumed_text.contains("ga_start"), "{resumed_text}");

    // Bit-identical final stressmark and droop.
    assert_eq!(
        std::fs::read_to_string(&full_prog).unwrap(),
        std::fs::read_to_string(&resumed_prog).unwrap()
    );
    assert_eq!(droop_line(&full_text), droop_line(&resumed_text));

    // The journal is complete again after the resumed run.
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(text.lines().last().unwrap().contains("run_end"), "{text}");

    // Resuming a *complete* journal replays without re-running and
    // reports the same result once more.
    let out = audit(&["generate", "--resume", journal.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(droop_line(&full_text), droop_line(&stdout(&out)));

    // A non-generate journal is refused.
    let bogus = dir.join("bogus.ndjson");
    std::fs::write(
        &bogus,
        "{\"kind\":\"run_start\",\"schema\":1,\"mode\":\"measure\",\"meta\":{}}\n",
    )
    .unwrap();
    let out = audit(&["generate", "--resume", bogus.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("not a `generate` checkpoint"));
}

#[test]
fn checkpointed_vmin_search_survives_a_kill() {
    let dir = std::env::temp_dir().join("audit-cli-vmin-test");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("vmin.ndjson");

    // Full checkpointed bisection under injected machine crashes.
    let flags = [
        "failure",
        "--stressmark",
        "sm-res",
        "--threads",
        "2",
        "--fast",
        "--faults",
        "5:crash=0.2",
        "--retries",
        "4",
    ];
    let out = audit(&[&flags[..], &["--checkpoint", journal.to_str().unwrap()]].concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let full_text = stdout(&out);
    let fails_line = |text: &str| {
        text.lines()
            .find(|l| l.contains("fails at"))
            .map(str::to_string)
            .expect("fails-at line")
    };
    let full_journal = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = full_journal.lines().collect();
    assert!(
        lines.iter().any(|l| l.contains("\"vmin_step\"")),
        "{full_journal}"
    );

    // Kill 1: cut right after the second *terminal* probe outcome, then
    // tear the next line mid-record — the torn final line must be
    // treated as a clean truncation, not a parse error.
    let cut = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            l.contains("\"outcome\":\"failed\"") || l.contains("\"outcome\":\"passed\"")
        })
        .map(|(i, _)| i)
        .nth(1)
        .expect("at least two settled probes");
    let half = lines[cut + 1].len() / 2;
    let torn = format!("{}\n{}", lines[..=cut].join("\n"), &lines[cut + 1][..half]);
    std::fs::write(&journal, torn).unwrap();
    let out = audit(&["failure", "--resume", journal.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let resumed_text = stdout(&out);
    assert!(resumed_text.contains("resuming"), "{resumed_text}");
    assert!(resumed_text.contains("replayed"), "{resumed_text}");
    assert_eq!(fails_line(&full_text), fails_line(&resumed_text));
    // Cut on a step boundary: the finished journal is byte-identical to
    // the uninterrupted one.
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), full_journal);

    // Kill 2: a valid-JSON final line with no `kind` (write buffered,
    // record half-flushed) is also a clean truncation.
    let kindless = format!("{}\n{{}}\n", lines[..=cut].join("\n"));
    std::fs::write(&journal, kindless).unwrap();
    let out = audit(&["failure", "--resume", journal.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(fails_line(&full_text), fails_line(&stdout(&out)));
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), full_journal);

    // Kill 3: cut mid-step, right after a write-ahead `pending` record
    // whose outcome never landed. The orphan pending line stays in the
    // journal (it is the evidence of the kill); the step is re-probed
    // and the search still reaches the identical answer, with every
    // settled outcome matching the uninterrupted run's.
    let pending_cut = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("\"outcome\":\"pending\""))
        .map(|(i, _)| i)
        .nth(2)
        .expect("at least three pending records");
    std::fs::write(&journal, format!("{}\n", lines[..=pending_cut].join("\n"))).unwrap();
    let out = audit(&["failure", "--resume", journal.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(fails_line(&full_text), fails_line(&stdout(&out)));
    let settled = |text: &str| {
        text.lines()
            .filter(|l| {
                l.contains("\"outcome\":\"failed\"") || l.contains("\"outcome\":\"passed\"")
            })
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let rejournal = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(settled(&rejournal), settled(&full_journal));
    assert!(rejournal.lines().last().unwrap().contains("run_end"));

    // A non-failure journal is refused.
    let bogus = dir.join("bogus.ndjson");
    std::fs::write(
        &bogus,
        "{\"kind\":\"run_start\",\"schema\":1,\"mode\":\"generate\",\"meta\":{}}\n",
    )
    .unwrap();
    let out = audit(&["failure", "--resume", bogus.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("not a `failure` checkpoint"));
}

#[test]
fn lint_json_output_shape_is_pinned() {
    // Golden test: the machine-readable lint output is a contract.
    // Every diagnostic of a `.prog` file carries a byte `span` — the
    // offending instruction's for per-instruction findings, the whole
    // file's for program-level ones.
    let dir = std::env::temp_dir().join("audit-cli-lint-json-test");
    std::fs::create_dir_all(&dir).unwrap();

    // Per-instruction finding: a dependent add behind an IDiv (AUD104).
    let golden = dir.join("golden.prog");
    std::fs::write(
        &golden,
        "# name: golden\nidiv r0 r14 r15 t=1.00\niadd r1 r0 r15 t=1.00\n",
    )
    .unwrap();
    let out = audit(&["lint", golden.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(
        stdout(&out),
        format!(
            "{{\"program\":\"{}\",\"diagnostics\":[\
             {{\"code\":\"AUD104\",\"severity\":\"warning\",\
             \"message\":\"unpipelined IDiv feeds a dependent consumer; \
             the window drains behind it\",\
             \"inst\":0,\"span\":{{\"line\":2,\"start\":15,\"end\":37}},\
             \"help\":\"break the dependence unless the stall is the \
             point of the stressmark\"}}]}}\n",
            golden.display()
        )
    );

    // Program-level finding: an all-NOP body (AUD102, no inst index)
    // gets the whole file as its span.
    let nops = dir.join("nops.prog");
    std::fs::write(&nops, format!("# name: all-nops\n{}", "nop\n".repeat(8))).unwrap();
    let out = audit(&["lint", nops.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(
        stdout(&out),
        format!(
            "{{\"program\":\"{}\",\"diagnostics\":[\
             {{\"code\":\"AUD102\",\"severity\":\"warning\",\
             \"message\":\"program body is entirely NOPs\",\
             \"span\":{{\"line\":1,\"start\":0,\"end\":49}},\
             \"help\":\"a pure-NOP loop draws no switching current at \
             all\"}}]}}\n",
            nops.display()
        )
    );
}

#[test]
fn checkpointed_minimize_survives_a_kill() {
    let dir = std::env::temp_dir().join("audit-cli-minimize-test");
    std::fs::create_dir_all(&dir).unwrap();
    let witness = dir.join("witness.prog");
    let journal = dir.join("min.ndjson");
    let full_kernel = dir.join("full.prog");
    let resumed_kernel = dir.join("resumed.prog");

    // A witness with a dense resonant core padded by NOP freeloaders.
    let mut text = String::from("# name: padded-witness\n");
    for i in 0..8 {
        text.push_str(&format!("simdfma f{} f12 f13 t=1.00\n", i % 4));
    }
    for _ in 0..8 {
        text.push_str("nop\n");
    }
    std::fs::write(&witness, text).unwrap();

    // Full checkpointed minimization.
    let out = audit(&[
        "minimize",
        witness.to_str().unwrap(),
        "--fast",
        "--threads",
        "2",
        "--checkpoint",
        journal.to_str().unwrap(),
        "--out",
        full_kernel.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let full_text = stdout(&out);
    assert!(full_text.contains("minimized"), "{full_text}");
    let full_journal = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = full_journal.lines().collect();
    assert!(
        lines.iter().any(|l| l.contains("\"minimize_step\"")),
        "{full_journal}"
    );
    // The kernel is strictly smaller than the witness and lints clean.
    let kernel_text = std::fs::read_to_string(&full_kernel).unwrap();
    assert!(kernel_text.lines().count() < 17, "{kernel_text}");
    let out = audit(&["lint", full_kernel.to_str().unwrap(), "--deny-warnings"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // Kill right after the first terminal probe, then resume: the
    // stitched journal must be byte-identical to the uninterrupted
    // one and the kernel must match.
    let cut = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("\"minimize_step\"") && l.contains("\"droop\""))
        .map(|(i, _)| i)
        .next()
        .expect("at least one settled probe");
    assert!(cut + 1 < lines.len(), "cut must drop something");
    std::fs::write(&journal, format!("{}\n", lines[..=cut].join("\n"))).unwrap();
    let out = audit(&[
        "minimize",
        "--resume",
        journal.to_str().unwrap(),
        "--out",
        resumed_kernel.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let resumed_text = stdout(&out);
    assert!(resumed_text.contains("resuming"), "{resumed_text}");
    assert!(resumed_text.contains("replayed"), "{resumed_text}");
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), full_journal);
    assert_eq!(
        std::fs::read_to_string(&resumed_kernel).unwrap(),
        kernel_text
    );

    // A non-minimize journal is refused as a --resume target, and a
    // non-generate journal is refused as an *input*.
    let bogus = dir.join("bogus.ndjson");
    std::fs::write(
        &bogus,
        "{\"kind\":\"run_start\",\"schema\":1,\"mode\":\"failure\",\"meta\":{}}\n",
    )
    .unwrap();
    let out = audit(&["minimize", "--resume", bogus.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("not a `minimize` checkpoint"));
    let out = audit(&["minimize", bogus.to_str().unwrap(), "--fast"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("not a `generate` checkpoint"));
}

#[test]
fn measure_with_faults_reports_resilience() {
    let out = audit(&[
        "measure",
        "--stressmark",
        "sm-res",
        "--threads",
        "2",
        "--fast",
        "--faults",
        "7:noise=0.002",
        "--repeat",
        "3",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("resilience"), "{text}");
    assert!(text.contains("max droop"), "{text}");
}

#[test]
fn spice_writes_a_deck() {
    let dir = std::env::temp_dir().join("audit-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let deck = dir.join("pdn.sp");
    let out = audit(&[
        "spice",
        "--out",
        deck.to_str().unwrap(),
        "--cycles",
        "500",
        "--fast",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&deck).unwrap();
    assert!(text.contains(".tran"));
    assert!(text.contains("PWL("));
}

#[test]
fn unplaceable_thread_counts_are_errors_not_panics() {
    // Bulldozer places 8 threads; 0 and 9 must be argument errors (exit
    // 1) on every command that reads --threads, never a panic (exit 101).
    let cases: [&[&str]; 5] = [
        &["generate", "--fast", "--threads", "9"],
        &["generate", "--fast", "--threads", "0"],
        &["resonance", "--threads", "0"],
        &[
            "measure",
            "--stressmark",
            "sm-res",
            "--fast",
            "--threads",
            "9",
        ],
        &[
            "failure",
            "--stressmark",
            "sm-res",
            "--fast",
            "--threads",
            "0",
        ],
    ];
    for args in cases {
        let out = audit(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.contains("thread"), "{args:?}: {err}");
    }
    let err = stderr(&audit(&["generate", "--fast", "--threads", "9"]));
    assert!(err.contains("capacity 8"), "{err}");
}

#[test]
fn unusable_supply_voltages_are_errors_not_panics() {
    // A `--volts` the PDN cannot run at must be an argument error (exit
    // 1) naming the flag, never a simulator panic (exit 101).
    for volts in ["-1", "0", "nan", "inf"] {
        let generate = ["generate", "--fast", "--volts", volts];
        let measure = [
            "measure",
            "--stressmark",
            "sm-res",
            "--fast",
            "--volts",
            volts,
        ];
        for args in [&generate[..], &measure[..]] {
            let out = audit(args);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
            assert!(!err.contains("panicked"), "{args:?}: {err}");
            assert!(err.contains("--volts"), "{args:?}: {err}");
        }
    }
}

#[test]
fn resume_refuses_a_retired_eval_batch_flag() {
    // Checkpoints from builds that had `--eval-batch` (or the `--cost`
    // alias) record it as a result flag. Resume must name the retired
    // flag, not misread its value as a positional or replay under a
    // different configuration.
    let dir = std::env::temp_dir().join("audit-cli-retired-flag-test");
    std::fs::create_dir_all(&dir).unwrap();
    for (flag, value) in [("--eval-batch", "4"), ("--cost", "sensitive")] {
        let journal = dir.join(format!("{}.ndjson", &flag[2..]));
        std::fs::write(
            &journal,
            format!(
                "{{\"kind\":\"run_start\",\"schema\":1,\"mode\":\"generate\",\
                 \"meta\":{{\"argv\":[\"--seed\",\"11\",\"{flag}\",\"{value}\",\"--fast\"]}}}}\n"
            ),
        )
        .unwrap();
        let out = audit(&["generate", "--resume", journal.to_str().unwrap()]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(err.contains(flag), "{err}");
        assert!(!err.contains("panicked"), "{err}");
        assert!(!stdout(&out).contains("resuming"), "{}", stdout(&out));
    }
}

#[test]
fn a_failed_journal_write_leaves_a_clean_resumable_checkpoint() {
    // `ulimit -f` caps the checkpoint's size, so the append that
    // crosses the cap gets a short write and then EFBIG (SIGXFSZ is
    // ignored): a real write failure in the middle of a line.
    let dir = std::env::temp_dir().join("audit-cli-efbig-test");
    std::fs::create_dir_all(&dir).unwrap();
    let full = dir.join("full.ndjson");
    let capped = dir.join("capped.ndjson");
    std::fs::remove_file(&capped).ok();
    let generate = ["generate", "--fast", "--seed", "11", "--checkpoint"];
    let out = audit(&[&generate[..], &[full.to_str().unwrap()]].concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let droop_line = |text: &str| {
        text.lines()
            .find(|l| l.contains("best droop"))
            .map(str::to_string)
            .expect("droop line")
    };
    let full_droop = droop_line(&stdout(&out));

    // Half the full journal's size in KiB: mid-run whether `sh` counts
    // `ulimit -f` in 512- or 1024-byte blocks.
    let blocks = std::fs::metadata(&full).unwrap().len() / 2048;
    let script = format!("trap '' XFSZ; ulimit -f {blocks}; exec \"$0\" \"$@\"");
    let out = Command::new("sh")
        .args(["-c", &script, env!("CARGO_BIN_EXE_audit")])
        .args(generate)
        .arg(&capped)
        .output()
        .expect("sh runs");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("journal write to") && err.contains("failed"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");

    // The failed append was cut back off: the checkpoint is clean, holds
    // at least one generation, and resumes to the uninterrupted result.
    let out = audit(&["journal", "fsck", capped.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains(": clean"), "{}", stdout(&out));
    let text = std::fs::read_to_string(&capped).unwrap();
    assert!(
        text.contains("\"kind\":\"generation\""),
        "cap hit before the GA: {text}"
    );
    let out = audit(&["generate", "--resume", capped.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(droop_line(&stdout(&out)), full_droop);
}

#[test]
fn argument_errors_leave_no_checkpoint() {
    // `--kind` and `--threads` are validated before the journal exists:
    // a checkpoint holding only a doomed `run_start` (or a journaled
    // resonance sweep) could never resume.
    let dir = std::env::temp_dir().join("audit-cli-no-checkpoint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("doomed.ndjson");
    let path = journal.to_str().unwrap();
    // No manager listens here: `fleet submit` must refuse the flags
    // before it connects.
    let manager = format!("unix:{}", dir.join("none.sock").display());
    let cases: [(&[&str], &str); 4] = [
        (
            &[
                "generate",
                "--fast",
                "--kind",
                "bogus",
                "--checkpoint",
                path,
            ],
            "bogus",
        ),
        (
            &["generate", "--fast", "--threads", "9", "--checkpoint", path],
            "--threads",
        ),
        (
            &["serve", "--fast", "--kind", "bogus", "--checkpoint", path],
            "bogus",
        ),
        (
            &[
                "fleet",
                "submit",
                "--connect",
                &manager,
                "--kind",
                "bogus",
                "--checkpoint",
                path,
            ],
            "bogus",
        ),
    ];
    for (args, culprit) in cases {
        std::fs::remove_file(&journal).ok();
        let out = audit(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(culprit), "{args:?}: {err}");
        assert!(!journal.exists(), "{args:?} left a checkpoint behind");
    }
}

#[test]
fn zero_cycle_windows_are_argument_errors() {
    let dir = std::env::temp_dir().join("audit-cli-zero-cycles-test");
    std::fs::create_dir_all(&dir).unwrap();
    let witness = dir.join("witness.prog");
    std::fs::write(&witness, "# name: w\nsimdfma f0 f12 f13 t=1.00\nnop\n").unwrap();
    let deck = dir.join("pdn.sp");
    let cases: [&[&str]; 5] = [
        &["measure", "--stressmark", "sm1", "--fast"],
        &["failure", "--stressmark", "sm-res", "--fast"],
        &["shmoo", "--stressmark", "sm-res", "--fast"],
        &["minimize", witness.to_str().unwrap(), "--fast"],
        &["spice", "--out", deck.to_str().unwrap()],
    ];
    for args in cases {
        let out = audit(&[args, &["--cycles", "0"]].concat());
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("record_cycles"), "{args:?}: {err}");
    }
}

#[test]
fn checkpointed_shmoo_sweep_survives_a_kill() {
    shmoo_checkpoint_survives_a_kill("audit-cli-shmoo-test", &[]);
}

#[test]
fn shmoo_grid_from_volts_survives_a_kill() {
    // The default grid is derived from `--volts`, so the checkpoint must
    // record it for the resumed sweep to rebuild the same grid.
    shmoo_checkpoint_survives_a_kill("audit-cli-shmoo-volts-test", &["--volts", "1.15"]);
}

/// Runs a checkpointed `sm-res` shmoo sweep with `extra` flags, cuts its
/// journal after the first settled point, resumes it flaglessly and
/// checks that the margin surface and the journal bytes come out equal.
fn shmoo_checkpoint_survives_a_kill(scratch: &str, extra: &[&str]) {
    let dir = std::env::temp_dir().join(scratch);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("shmoo.ndjson");
    let base = [
        "shmoo",
        "--stressmark",
        "sm-res",
        "--fast",
        "--threads",
        "2",
        "--checkpoint",
        journal.to_str().unwrap(),
    ];
    let out = audit(&[&base[..], extra].concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    // The margin surface: every table row, without the live/replayed
    // tally that follows it.
    let surface = |text: &str| {
        text.lines()
            .skip_while(|l| !l.starts_with("Vdd"))
            .take_while(|l| !l.is_empty())
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let full_surface = surface(&stdout(&out));
    assert!(full_surface.len() > 2, "{}", stdout(&out));
    let full_journal = std::fs::read_to_string(&journal).unwrap();

    // Kill right after the first settled operating point.
    let lines: Vec<&str> = full_journal.lines().collect();
    let cut = lines
        .iter()
        .position(|l| l.contains("\"kind\":\"shmoo_point\"") && l.contains("\"outcome\":\"done\""))
        .expect("a settled point");
    assert!(cut + 1 < lines.len(), "cut must drop something");
    std::fs::write(&journal, format!("{}\n", lines[..=cut].join("\n"))).unwrap();
    let out = audit(&["shmoo", "--resume", journal.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let resumed_text = stdout(&out);
    assert!(resumed_text.contains("resuming"), "{resumed_text}");
    assert!(resumed_text.contains("1 replayed"), "{resumed_text}");
    assert_eq!(surface(&resumed_text), full_surface);
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), full_journal);
}

#[test]
fn resume_takes_its_config_from_the_checkpoint_alone() {
    // Each journaled command refuses another mode's checkpoint, and a
    // configuration flag next to --resume is an error that leaves the
    // checkpoint's bytes alone (its torn tail included).
    let dir = std::env::temp_dir().join("audit-cli-resume-config-test");
    std::fs::create_dir_all(&dir).unwrap();
    let witness = dir.join("witness.prog");
    std::fs::write(&witness, "# name: w\nsimdfma f0 f12 f13 t=1.00\nnop\n").unwrap();
    let witness = witness.to_str().unwrap().to_string();
    let cases = [
        ("generate", vec!["--fast"]),
        ("failure", vec!["--stressmark", "sm-res", "--fast"]),
        ("shmoo", vec!["--stressmark", "sm-res", "--fast"]),
        ("minimize", vec!["--fast", "--input", &witness]),
    ];
    for (i, (mode, argv)) in cases.iter().enumerate() {
        let journal = dir.join(format!("{mode}.ndjson"));
        let path = journal.to_str().unwrap();
        let argv: Vec<String> = argv.iter().map(|w| format!("{w:?}")).collect();
        let text = format!(
            "{{\"kind\":\"run_start\",\"schema\":1,\"mode\":\"{mode}\",\
             \"meta\":{{\"argv\":[{}]}}}}\n{{\"kind\":\"phase_st",
            argv.join(",")
        );
        std::fs::write(&journal, &text).unwrap();

        let out = audit(&[mode, "--resume", path, "--chip", "phenom"]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{mode}: {err}");
        assert!(err.contains("--chip"), "{mode}: {err}");
        assert_eq!(std::fs::read_to_string(&journal).unwrap(), text, "{mode}");

        let (other, _) = cases[(i + 1) % cases.len()];
        let out = audit(&[other, "--resume", path]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{other}: {err}");
        assert!(
            err.contains(&format!("not a `{other}` checkpoint")),
            "{other}: {err}"
        );
        assert_eq!(std::fs::read_to_string(&journal).unwrap(), text, "{other}");
    }
}
