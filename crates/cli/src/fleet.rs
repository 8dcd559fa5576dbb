//! `audit fleet` — the multi-tenant campaign manager subcommands.
//!
//! `fleet serve` hosts the manager: one socket where workers
//! (`audit work`, unchanged) and tenants (`audit fleet submit`) both
//! connect, many concurrent GA campaigns fair-share-scheduled over the
//! shared worker pool. Each submitted campaign replays the same code
//! path a solo `audit generate --checkpoint` takes — same journal
//! writer, same metadata, same engine — with evaluations dispatched
//! through the pool, so its journal is byte-identical to the solo
//! run's (see docs/FLEET.md). `fleet submit` sends a campaign and
//! blocks until it finishes; `fleet status` and `fleet metrics` read
//! the manager's plain-text endpoints.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use audit_fleet::{CampaignSpec, Fleet, FleetConfig, PoolHandle, Submission};
use audit_measure::json::JsonValue;

use crate::args::{ArgError, Args};
use crate::checkpoint::Checkpoint;
use crate::commands::{core_err, dist_flags, GenerateConfig};
use crate::platform;

/// `audit fleet <serve|submit|status|metrics>`.
pub(crate) fn fleet(args: &Args) -> Result<(), ArgError> {
    match args.positionals().get(1).map(String::as_str) {
        Some("serve") => serve(args),
        Some("submit") => submit(args),
        Some("status") => status(args),
        Some("metrics") => metrics(args),
        Some(other) => Err(ArgError(format!(
            "unknown fleet subcommand `{other}` (expected serve, submit, status, or metrics)"
        ))),
        None => Err(ArgError(
            "usage: audit fleet (serve | submit | status | metrics) …".into(),
        )),
    }
}

/// `audit fleet serve`: host the campaign manager.
fn serve(args: &Args) -> Result<(), ArgError> {
    let dist = dist_flags(args)?;
    let campaigns_target = args.num_flag("--campaigns", 0usize)?;
    args.reject_unknown()?;

    let cfg = FleetConfig {
        window: dist.window.max(1),
        heartbeat: dist.heartbeat,
        dead_after: dist.dead_after,
        verify_fraction: dist.verify_fraction,
        chaos: dist.chaos,
        ..FleetConfig::default()
    };
    let mut manager = Fleet::bind(&dist.listen, cfg).map_err(core_err)?;
    println!("fleet listening on {}", manager.addr());
    println!(
        "  workers join with : audit work --connect {}",
        manager.addr()
    );
    println!(
        "  submit with       : audit fleet submit --connect {} --checkpoint run.ndjson [generate flags]",
        manager.addr()
    );
    if dist.min_workers > 0 {
        println!("waiting for {} worker(s)…", dist.min_workers);
        manager
            .wait_for_workers(dist.min_workers)
            .map_err(core_err)?;
    }

    // Each campaign runs on its own thread (the GA engine blocks per
    // round); the pool thread interleaves their dispatches.
    let finished = Arc::new(AtomicUsize::new(0));
    let mut runners = Vec::new();
    loop {
        if campaigns_target > 0 && finished.load(Ordering::SeqCst) >= campaigns_target {
            break;
        }
        if let Some(sub) = manager.next_submission(Duration::from_millis(200)) {
            let pool = manager.handle();
            let finished = Arc::clone(&finished);
            runners.push(std::thread::spawn(move || {
                run_campaign(&pool, sub);
                finished.fetch_add(1, Ordering::SeqCst);
            }));
        }
    }
    for runner in runners {
        runner.join().ok();
    }
    println!(
        "fleet served {} campaign(s); shutting down",
        finished.load(Ordering::SeqCst)
    );
    manager.shutdown();
    Ok(())
}

/// Drives one submitted campaign to completion and answers the tenant.
fn run_campaign(pool: &PoolHandle, mut sub: Submission) {
    let checkpoint = sub.checkpoint.clone();
    let mut campaign_id = None;
    let outcome = run_campaign_inner(pool, &mut sub, &mut campaign_id);
    let id = campaign_id.unwrap_or(0);
    match outcome {
        Ok(summary) => {
            println!("campaign {id} finished: {checkpoint}");
            sub.finish(id, true, &summary);
        }
        Err(e) => {
            eprintln!("campaign {id} failed ({checkpoint}): {e}");
            sub.finish(id, false, &e.to_string());
        }
    }
}

/// The managed counterpart of `run_distributed`: the campaign runs
/// the `generate` checkpoint path — a fresh argv, or `--resume` of its
/// checkpoint — with its evaluations dispatched through the pool.
/// Dispatch is write-ahead-logged to `<checkpoint>.wal`; the WAL is
/// deleted once the campaign completes and kept when it fails, so a
/// manager killed mid-campaign resumes without re-evaluating logged
/// work.
fn run_campaign_inner(
    pool: &PoolHandle,
    sub: &mut Submission,
    campaign_id: &mut Option<u64>,
) -> Result<String, ArgError> {
    let checkpoint = sub.checkpoint.clone();
    // The argv a solo `generate` would take; a resume's configuration
    // is its journal's alone.
    let mut argv = if sub.resume {
        Vec::new()
    } else {
        sub.argv.clone()
    };
    let flag = if sub.resume {
        "--resume"
    } else {
        "--checkpoint"
    };
    argv.extend([flag.to_string(), checkpoint.clone()]);
    let live = Args::parse(argv)?;
    let (mut session, cfg) = Checkpoint::new(&live, "generate")?;
    let setup = GenerateConfig::from_args(&cfg)?;
    let (journal, sink) = session.open()?;
    let (_, run) = setup.run_dispatched(&cfg, journal, sink, |ctx| {
        let id = pool
            .register(CampaignSpec {
                name: campaign_label(&checkpoint),
                ctx,
                seed: setup.seed(),
                weight: sub.weight,
                wal: Some(format!("{checkpoint}.wal").into()),
            })
            .map_err(core_err)?;
        *campaign_id = Some(id);
        sub.respond_accepted(id);
        println!("campaign {id} started: {checkpoint}");
        Ok(pool.dispatcher(id))
    })?;
    // A finished GA's journal supersedes the WAL; a failed campaign
    // keeps it for a resubmit with --resume to prefill from.
    pool.finish(campaign_id.unwrap_or_default(), run.is_ok());
    let run = run.map_err(core_err)?;
    let records = session.close()?;
    Ok(format!(
        "best droop {:.6} V after {} generation(s); checkpoint {checkpoint} \
         ({records} records)",
        run.best_droop, run.ga.generations_run,
    ))
}

/// The campaign's display name (metrics/status label): the checkpoint
/// file stem.
fn campaign_label(checkpoint: &str) -> String {
    Path::new(checkpoint)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| checkpoint.to_string())
}

/// `audit fleet submit`: send a campaign to a manager and block until
/// it completes.
fn submit(args: &Args) -> Result<(), ArgError> {
    let connect = args.opt_flag("--connect").ok_or_else(|| {
        ArgError("audit fleet submit needs --connect HOST:PORT or unix:/path".into())
    })?;
    let (checkpoint, resume) = match (args.opt_flag("--checkpoint"), args.opt_flag("--resume")) {
        (Some(c), None) => (c, false),
        (None, Some(r)) => (r, true),
        (Some(_), Some(_)) => {
            return Err(ArgError(
                "give either --checkpoint (fresh) or --resume (continue), not both".into(),
            ))
        }
        (None, None) => {
            return Err(ArgError(
                "audit fleet submit needs --checkpoint run.ndjson (or --resume run.ndjson)".into(),
            ))
        }
    };
    let weight = args.num_flag("--weight", 1u32)?;
    if weight == 0 {
        return Err(ArgError("--weight must be at least 1".into()));
    }
    // Refused here rather than by the manager, and before any journal
    // exists.
    GenerateConfig::from_args(args)?;
    // The submitted argv is the normalized result-flag list — the same
    // normalization `generate --checkpoint` journals, so the manager's
    // replay produces byte-identical `run_start` metadata.
    let meta = platform::meta("generate", args);
    args.reject_unknown()?;
    let argv: Vec<String> = meta
        .get("argv")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();

    println!("submitting {checkpoint} to {connect}…");
    let (campaign, ok, summary) =
        audit_fleet::submit(&connect, argv, &checkpoint, weight, resume).map_err(core_err)?;
    if !ok {
        return Err(ArgError(format!("campaign {campaign} failed: {summary}")));
    }
    println!("campaign {campaign} finished: {summary}");
    Ok(())
}

/// `audit fleet status`: the manager's per-campaign progress report.
fn status(args: &Args) -> Result<(), ArgError> {
    let connect = args.opt_flag("--connect").ok_or_else(|| {
        ArgError("audit fleet status needs --connect HOST:PORT or unix:/path".into())
    })?;
    args.reject_unknown()?;
    print!("{}", audit_fleet::status(&connect).map_err(core_err)?);
    Ok(())
}

/// `audit fleet metrics`: the manager's plain-text scrape.
fn metrics(args: &Args) -> Result<(), ArgError> {
    let connect = args.opt_flag("--connect").ok_or_else(|| {
        ArgError("audit fleet metrics needs --connect HOST:PORT or unix:/path".into())
    })?;
    args.reject_unknown()?;
    print!("{}", audit_fleet::scrape(&connect).map_err(core_err)?);
    Ok(())
}
