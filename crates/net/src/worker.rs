//! The worker loop behind `audit work`.
//!
//! A worker is stateless between evaluations: it connects, greets the
//! broker, rebuilds the rig and [`audit_core::FitnessSpec`] from the
//! [`Setup`](crate::proto::Msg::Setup) frame, then answers `Eval`
//! frames with `Result` frames until the broker says
//! [`Shutdown`](crate::proto::Msg::Shutdown) or hangs up. Each result
//! carries the evaluation's resilience-counter delta so the broker can
//! merge accounting exactly once, in any arrival order.
//!
//! A multi-tenant manager (`audit fleet serve`) re-sends `Setup`
//! mid-session whenever it switches the worker between campaigns; the
//! worker rebinds its rig and fitness function in stream order, so
//! every `Eval` is scored under the context most recently set up
//! before it. Completed evaluations land in a **cross-campaign eval
//! cache** keyed by the full setup encoding (interned) plus the genome
//! content hash: identical jobs from different campaigns — or
//! re-dispatched retries of the same job — are answered from the cache
//! with bit-identical objectives *and* the identical resilience delta
//! (evaluation is deterministic), flagged `cached` on the wire for the
//! manager's hit-rate metrics. The cache survives rejoins; contexts
//! that differ in any encoded byte can never share an entry.
//!
//! Connection management is fleet-friendly: connect retries use
//! bounded exponential backoff with deterministic jitter (a thousand
//! workers pointed at a dead broker spread their retries out instead of
//! thundering in lockstep), and with [`WorkerOptions::rejoin`] a worker
//! severed mid-run — evicted by cross-validation, declared dead by a
//! missed heartbeat, or cut by a flaky network — reconnects and keeps
//! serving instead of exiting. A severed worker whose broker is truly
//! gone exits cleanly after a short probe: the broker's disappearance
//! is its release.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use audit_core::ga::Objectives;
use audit_core::resilient::genome_key;
use audit_core::{FitnessSpec, ResilienceReport, Rig};
use audit_error::AuditError;
use audit_measure::fault::{mix, uniform};

use crate::frame::{read_frame, write_frame, FrameOutcome};
use crate::proto::{Msg, PROTOCOL_VERSION};
use crate::transport::{connect, Conn};

/// Ceiling on one backoff sleep, however many attempts have failed.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// How many base retry intervals a severed worker probes for a live
/// broker before concluding it is gone and exiting cleanly.
const REJOIN_WINDOW: u32 = 8;

/// Entries the cross-campaign eval cache holds before a wholesale
/// flush — the same reset idiom as the engine-side eval cache: simple
/// and bounded beats LRU bookkeeping at this size.
const WORKER_CACHE_CAPACITY: usize = 4096;

/// The cross-campaign eval cache (see the module docs). Lives in
/// [`run_worker`], outside the session loop, so it survives rejoins.
#[derive(Default)]
struct EvalStore {
    /// Full setup encodings interned to dense ids. Two contexts share
    /// an id only when every encoded byte of their wire form matches —
    /// fingerprint *hashes* of the encoding are for metrics display,
    /// never for cache keying, so hash collisions cannot leak results
    /// between tenants.
    intern: HashMap<String, u64>,
    map: HashMap<(u64, u64), (Objectives, ResilienceReport)>,
}

impl EvalStore {
    fn ctx_id(&mut self, encoded: &str) -> u64 {
        if let Some(&id) = self.intern.get(encoded) {
            return id;
        }
        let id = self.intern.len() as u64;
        self.intern.insert(encoded.to_string(), id);
        id
    }

    fn lookup(&self, ctx: u64, key: u64) -> Option<(Objectives, ResilienceReport)> {
        self.map.get(&(ctx, key)).cloned()
    }

    fn insert(&mut self, ctx: u64, key: u64, objectives: Objectives, resilience: ResilienceReport) {
        if self.map.len() >= WORKER_CACHE_CAPACITY {
            self.map.clear();
        }
        self.map.insert((ctx, key), (objectives, resilience));
    }
}

/// Worker knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerOptions {
    /// How long to keep retrying the initial connect (the broker may
    /// not be up yet when workers start).
    pub connect_for: Duration,
    /// Base interval between connect attempts; attempt `n` waits
    /// `connect_retry · 2ⁿ` (capped at 5 s), jittered deterministically
    /// into `[50 %, 100 %]` of that.
    pub connect_retry: Duration,
    /// Salt folded into the backoff jitter hash. Give each worker
    /// process a distinct salt (the CLI uses the PID) so a fleet
    /// spreads out; any single worker's schedule stays reproducible.
    pub jitter_salt: u64,
    /// Reconnect and keep serving after an unexpected disconnect
    /// (eviction, missed heartbeat, flaky network). A broker `Shutdown`
    /// still ends the worker, and a severed worker whose broker no
    /// longer answers exits cleanly after a short probe.
    pub rejoin: bool,
    /// Fault-injection hook for tests: after completing this many
    /// evaluations the worker returns abruptly — no reply, no clean
    /// shutdown — as if the process had been killed mid-generation.
    pub max_evals: Option<usize>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            connect_for: Duration::from_secs(30),
            connect_retry: Duration::from_millis(100),
            jitter_salt: 0,
            rejoin: false,
            max_evals: None,
        }
    }
}

/// What a worker session amounted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Evaluations completed and reported (across rejoins).
    pub evaluations: usize,
    /// Of those, how many were answered from the cross-campaign eval
    /// cache instead of being recomputed.
    pub cache_hits: usize,
    /// True when the session ended by broker `Shutdown`, clean EOF, or
    /// a vanished broker after rejoin (false means the
    /// [`WorkerOptions::max_evals`] kill hook fired).
    pub clean_exit: bool,
}

/// How one broker session ended.
enum SessionEnd {
    /// The broker released the worker (`Shutdown`, or clean EOF when
    /// rejoin is off).
    Released,
    /// The [`WorkerOptions::max_evals`] kill hook fired.
    Killed,
    /// The connection died without a `Shutdown` — eviction, missed
    /// heartbeat, or network failure. Rejoin if configured.
    Severed,
}

/// Connects to `addr` and serves evaluations until the broker releases
/// the worker. See the module docs.
///
/// # Errors
///
/// Returns [`AuditError::Io`] when the broker cannot be reached within
/// [`WorkerOptions::connect_for`], and [`AuditError::Journal`] on a
/// malformed or out-of-order protocol frame (including, with rejoin
/// off, a torn frame — the broker died mid-send).
pub fn run_worker(addr: &str, opts: &WorkerOptions) -> Result<WorkerStats, AuditError> {
    let mut stats = WorkerStats::default();
    let mut cache = EvalStore::default();
    let mut sessions: u64 = 0;
    loop {
        let deadline = if sessions == 0 {
            // Initial connect: the broker may still be starting.
            Instant::now() + opts.connect_for
        } else {
            // Rejoin probe: a live broker accepts instantly; a gone
            // broker refuses every attempt in a short window.
            Instant::now()
                + opts
                    .connect_retry
                    .max(Duration::from_millis(1))
                    .saturating_mul(REJOIN_WINDOW)
        };
        let conn = match connect_with_backoff(addr, deadline, opts, sessions) {
            Ok(conn) => conn,
            Err(e) => {
                if sessions > 0 {
                    // The broker vanished after releasing no Shutdown —
                    // its disappearance is the release.
                    stats.clean_exit = true;
                    return Ok(stats);
                }
                return Err(e);
            }
        };
        sessions += 1;
        match serve_session(conn, opts, &mut stats, &mut cache)? {
            SessionEnd::Released => {
                stats.clean_exit = true;
                return Ok(stats);
            }
            SessionEnd::Killed => return Ok(stats),
            SessionEnd::Severed => {
                debug_assert!(opts.rejoin, "sever only surfaces with rejoin on");
                continue;
            }
        }
    }
}

/// One full broker session: handshake, then serve until it ends.
fn serve_session(
    mut conn: Conn,
    opts: &WorkerOptions,
    stats: &mut WorkerStats,
    cache: &mut EvalStore,
) -> Result<SessionEnd, AuditError> {
    let hello = Msg::Hello {
        protocol: PROTOCOL_VERSION,
    }
    .to_json();
    if let Err(e) = write_frame(&mut conn, &hello) {
        // The broker died between accept and handshake; with rejoin on,
        // probe it again instead of failing the worker.
        return if opts.rejoin {
            Ok(SessionEnd::Severed)
        } else {
            Err(e)
        };
    }
    // With rejoin on, any connection-level failure — EOF, torn frame,
    // reset (the signature of eviction or a broker restart) — severs
    // the session instead of erroring the worker.
    let read = |conn: &mut Conn| match read_msg(conn) {
        Ok(r) => Ok(r),
        Err(e) if opts.rejoin => {
            let _ = e;
            Ok(Read::Torn)
        }
        Err(e) => Err(e),
    };
    // The single-campaign broker sends Setup right after the handshake;
    // a fleet manager defers it until the worker's first dispatch and
    // re-sends it mid-session to switch the worker between campaigns.
    // Frames are processed in stream order, so every Eval is scored
    // under the most recent Setup before it.
    let mut bound: Option<(Rig, FitnessSpec, u64)> = None;

    loop {
        match read(&mut conn)? {
            Read::Frame(Msg::Setup { ctx }) => {
                let ctx_id = cache.ctx_id(&ctx.to_json().encode());
                bound = Some((ctx.rig()?, ctx.spec, ctx_id));
            }
            Read::Frame(Msg::Eval { id, genome }) => {
                if opts.max_evals.is_some_and(|cap| stats.evaluations >= cap) {
                    // Kill hook: vanish without replying, like a
                    // SIGKILLed process. The OS closes the socket and
                    // the broker re-dispatches the job.
                    return Ok(SessionEnd::Killed);
                }
                let Some((rig, fspec, ctx_id)) = bound.as_ref() else {
                    return Err(AuditError::journal(0, "eval before setup"));
                };
                if genome.is_empty() {
                    return Err(AuditError::journal(0, "eval of an empty genome"));
                }
                let key = genome_key(&genome);
                let (objectives, resilience, cached) = match cache.lookup(*ctx_id, key) {
                    Some((objectives, resilience)) => (objectives, resilience, true),
                    None => {
                        let (objectives, resilience) = fspec.evaluate_objectives(rig, &genome);
                        cache.insert(*ctx_id, key, objectives.clone(), resilience);
                        (objectives, resilience, false)
                    }
                };
                if cached {
                    stats.cache_hits += 1;
                }
                let reply = Msg::Result {
                    id,
                    objectives,
                    resilience,
                    cached,
                }
                .to_json();
                if let Err(e) = write_frame(&mut conn, &reply) {
                    if opts.rejoin {
                        return Ok(SessionEnd::Severed);
                    }
                    return Err(e);
                }
                stats.evaluations += 1;
            }
            Read::Frame(Msg::Ping) => {
                if let Err(e) = write_frame(&mut conn, &Msg::Pong.to_json()) {
                    if opts.rejoin {
                        return Ok(SessionEnd::Severed);
                    }
                    return Err(e);
                }
            }
            Read::Frame(Msg::Shutdown) => return Ok(SessionEnd::Released),
            Read::Eof => {
                return Ok(if opts.rejoin {
                    SessionEnd::Severed
                } else {
                    // Historical semantics: a clean EOF releases the
                    // worker like a Shutdown.
                    SessionEnd::Released
                });
            }
            Read::Torn if opts.rejoin => return Ok(SessionEnd::Severed),
            Read::Torn => return Err(AuditError::journal(0, "broker connection died mid-frame")),
            Read::Frame(other) => {
                return Err(AuditError::journal(
                    0,
                    format!("unexpected `{}` frame", msg_kind(&other)),
                ))
            }
        }
    }
}

/// One read outcome a session must act on. CRC-rejected frames never
/// surface: they are dropped inside [`read_msg`] and the stream keeps
/// going (the broker's dispatch lease re-issues whatever they carried).
#[allow(clippy::large_enum_variant)] // one short-lived value per frame
enum Read {
    Frame(Msg),
    Eof,
    Torn,
}

fn read_msg(conn: &mut Conn) -> Result<Read, AuditError> {
    loop {
        return Ok(match read_frame(conn)? {
            FrameOutcome::Frame(v) => Read::Frame(Msg::from_json(&v)?),
            FrameOutcome::Corrupt => continue,
            FrameOutcome::Eof => Read::Eof,
            FrameOutcome::TruncatedTail => Read::Torn,
        });
    }
}

/// Retries `connect(addr)` under bounded exponential backoff until
/// `deadline`.
fn connect_with_backoff(
    addr: &str,
    deadline: Instant,
    opts: &WorkerOptions,
    session: u64,
) -> Result<Conn, AuditError> {
    let mut attempt: u32 = 0;
    loop {
        match connect(addr) {
            Ok(conn) => return Ok(conn),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(AuditError::io(addr, &e));
                }
                std::thread::sleep(backoff_delay(opts, session, attempt));
                attempt = attempt.saturating_add(1);
            }
        }
    }
}

/// Attempt `n` sleeps `connect_retry · 2ⁿ`, capped at [`BACKOFF_CAP`],
/// scaled into `[50 %, 100 %]` by a pure hash of
/// `(jitter_salt, session, attempt)` — the SplitMix64 discipline of
/// `audit_measure::fault`, so a worker's schedule is reproducible while
/// a fleet with distinct salts decorrelates.
fn backoff_delay(opts: &WorkerOptions, session: u64, attempt: u32) -> Duration {
    let base = opts.connect_retry.max(Duration::from_millis(1));
    let exp = base
        .saturating_mul(1u32 << attempt.min(20))
        .min(BACKOFF_CAP);
    let factor = 0.5 + 0.5 * uniform(mix(mix(opts.jitter_salt, session), u64::from(attempt)));
    exp.mul_f64(factor)
}

fn msg_kind(msg: &Msg) -> &'static str {
    match msg {
        Msg::Hello { .. } => "hello",
        Msg::Setup { .. } => "setup",
        Msg::Eval { .. } => "eval",
        Msg::Result { .. } => "result",
        Msg::Ping => "ping",
        Msg::Pong => "pong",
        Msg::Shutdown => "shutdown",
        Msg::MetricsReq => "metrics_req",
        Msg::Metrics { .. } => "metrics",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_timeout_is_reported() {
        let opts = WorkerOptions {
            connect_for: Duration::from_millis(50),
            connect_retry: Duration::from_millis(10),
            ..WorkerOptions::default()
        };
        // Nothing listens on a fresh unix path.
        let addr = format!(
            "unix:{}",
            std::env::temp_dir()
                .join(format!("audit-no-broker-{}.sock", std::process::id()))
                .display()
        );
        assert!(run_worker(&addr, &opts).is_err());
    }

    #[test]
    fn eval_store_never_shares_entries_across_contexts() {
        let mut store = EvalStore::default();
        let a = store.ctx_id("ctx-a");
        let b = store.ctx_id("ctx-b");
        assert_ne!(a, b);
        // Interning is stable: the same encoding maps to the same id.
        assert_eq!(store.ctx_id("ctx-a"), a);
        store.insert(a, 42, Objectives::scalar(-1.0), ResilienceReport::default());
        assert_eq!(
            store.lookup(a, 42),
            Some((Objectives::scalar(-1.0), ResilienceReport::default()))
        );
        assert_eq!(store.lookup(b, 42), None, "tenant isolation");
    }

    #[test]
    fn backoff_is_bounded_exponential_with_deterministic_jitter() {
        let opts = WorkerOptions {
            connect_retry: Duration::from_millis(100),
            jitter_salt: 7,
            ..WorkerOptions::default()
        };
        for n in 0..24u32 {
            let d = backoff_delay(&opts, 0, n);
            // Deterministic: the same (salt, session, attempt) always
            // sleeps the same.
            assert_eq!(d, backoff_delay(&opts, 0, n), "attempt {n}");
            // Jitter keeps every sleep within [50 %, 100 %] of the
            // capped exponential.
            let ceiling = Duration::from_millis(100)
                .saturating_mul(1u32 << n.min(20))
                .min(BACKOFF_CAP);
            assert!(d <= ceiling, "attempt {n}: {d:?} > {ceiling:?}");
            assert!(d >= ceiling / 2, "attempt {n}: {d:?} < half of {ceiling:?}");
        }
        // Growth: attempt 3's floor (8x · 50 %) clears attempt 0's
        // ceiling (1x · 100 %).
        assert!(backoff_delay(&opts, 0, 3) > backoff_delay(&opts, 0, 0));
        // The cap holds forever.
        assert!(backoff_delay(&opts, 0, 40) <= BACKOFF_CAP);
        // Distinct salts decorrelate the fleet.
        let other = WorkerOptions {
            jitter_salt: 8,
            ..opts
        };
        assert!((0..24).any(|n| backoff_delay(&opts, 0, n) != backoff_delay(&other, 0, n)));
    }
}
