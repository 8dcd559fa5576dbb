//! `audit fleet`: campaign submission and status on top of the shared
//! dispatch core.
//!
//! [`Fleet::bind`] starts a [`Pool`] and opens a [`FrontDoor`] for it
//! with a submission queue — the same listener, session routing and
//! worker handshake that `audit serve` uses. Workers (`audit work`,
//! byte-for-byte the same binary), `metrics_req` scrapes and `status`
//! requests are answered by the door itself; a `submit` frame surfaces
//! here through [`Fleet::next_submission`]. The caller (the CLI's
//! `fleet serve`) registers the campaign, runs it, and answers on the
//! held connection via [`Submission::respond_accepted`] and
//! [`Submission::finish`].
//!
//! The matching client sides are the free functions [`submit`],
//! [`status`], and [`scrape`].
//!
//! # Multi-tenant determinism contract
//!
//! Each campaign's results — `GaRun`, journal bytes, resilience
//! counters — are **byte-identical to its solo in-process run** no
//! matter how many other campaigns share the fleet, how the arbiter
//! ([`crate::FairShare`]) interleaves them, how many workers serve
//! them, or which worker-side cache entries happen to hit. The argument
//! is the same as for `audit serve`, per campaign: jobs are
//! content-addressed, evaluation is deterministic per genome, the
//! engine sorts scores into slot order, and resilience deltas merge
//! order-insensitively — so scheduling (now including co-tenant
//! scheduling) cannot reach the results. Cross-campaign cache entries
//! are keyed worker-side by the *full* setup encoding (interned
//! byte-for-byte, never a hash), so tenants with differing contexts can
//! never share an entry, and tenants with identical contexts share only
//! values both would have computed identically. See `docs/FLEET.md`.
//!
//! [`Pool`]: crate::pool::Pool

use std::sync::mpsc::{channel, Receiver};
use std::time::Duration;

use audit_error::AuditError;
use audit_measure::json::JsonValue;

use crate::door::FrontDoor;
use crate::frame::{read_frame, write_frame, FrameOutcome};
use crate::metrics::ScrapeFamily;
use crate::pool::{FleetConfig, Pool, PoolHandle};
use crate::proto::{FleetMsg, Msg};
use crate::transport::{connect, Conn};

/// A campaign submission pulled off the socket, with the tenant's
/// connection held open so the manager can answer when the campaign
/// finishes.
pub struct Submission {
    /// Normalized `audit generate` argv (flags only).
    pub argv: Vec<String>,
    /// Journal checkpoint path on the manager's filesystem.
    pub checkpoint: String,
    /// Fair-share weight (≥ 1).
    pub weight: u32,
    /// Resume the checkpoint instead of starting fresh.
    pub resume: bool,
    pub(crate) conn: Conn,
}

impl Submission {
    /// Tells the tenant its campaign is registered and running.
    pub fn respond_accepted(&mut self, campaign: u64) {
        write_frame(&mut self.conn, &FleetMsg::Accepted { campaign }.to_json()).ok();
    }

    /// Tells the tenant its campaign completed (or failed) and closes
    /// the connection.
    pub fn finish(mut self, campaign: u64, ok: bool, summary: &str) {
        write_frame(
            &mut self.conn,
            &FleetMsg::Done {
                campaign,
                ok,
                summary: summary.to_string(),
            }
            .to_json(),
        )
        .ok();
        self.conn.shutdown();
    }
}

/// The running campaign manager: the front door (and the worker pool
/// it owns) plus the submission queue. Dropping it closes the door.
pub struct Fleet {
    door: FrontDoor,
    submissions: Receiver<Submission>,
}

impl Fleet {
    /// Binds `addr` (`host:port` or `unix:/path`) and starts accepting
    /// workers, tenants, and scrapes.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the address cannot be bound.
    pub fn bind(addr: &str, cfg: FleetConfig) -> Result<Fleet, AuditError> {
        let (queue, submissions) = channel();
        let pool = Pool::start(cfg, ScrapeFamily::FLEET);
        let door = FrontDoor::open(addr, pool, Some(queue))?;
        Ok(Fleet { door, submissions })
    }

    /// The bound address in connectable form (`:0` resolved).
    pub fn addr(&self) -> &str {
        self.door.addr()
    }

    /// A clonable handle into the worker pool (campaign registration,
    /// dispatchers, worker waits, metrics and status text).
    pub fn handle(&self) -> PoolHandle {
        self.door.handle()
    }

    /// Waits up to `timeout` for the next campaign submission.
    pub fn next_submission(&self, timeout: Duration) -> Option<Submission> {
        self.submissions.recv_timeout(timeout).ok()
    }

    /// Stops accepting, releases every connection (workers get a
    /// `Shutdown` frame), and joins the pool thread. Called
    /// automatically on drop.
    pub fn shutdown(&mut self) {
        self.door.close();
    }
}

/// Reads one frame, treating EOF and corruption as errors — the client
/// side of a strictly request/response exchange.
fn expect_frame(conn: &mut Conn, what: &str) -> Result<JsonValue, AuditError> {
    match read_frame(conn)? {
        FrameOutcome::Frame(v) => Ok(v),
        _ => Err(AuditError::journal(
            0,
            format!("fleet: {what}: stream ended"),
        )),
    }
}

/// Submits a campaign to the manager at `addr` and blocks until it
/// completes, returning `(campaign id, ok, summary)`.
///
/// # Errors
///
/// Returns [`AuditError::Io`] on connect/write failure and
/// [`AuditError::Journal`] on a malformed or unexpected reply.
pub fn submit(
    addr: &str,
    argv: Vec<String>,
    checkpoint: &str,
    weight: u32,
    resume: bool,
) -> Result<(u64, bool, String), AuditError> {
    let mut conn = connect(addr).map_err(|e| AuditError::io(addr, &e))?;
    write_frame(
        &mut conn,
        &FleetMsg::Submit {
            argv,
            checkpoint: checkpoint.to_string(),
            weight,
            resume,
        }
        .to_json(),
    )?;
    let accepted = expect_frame(&mut conn, "awaiting accept")?;
    let campaign = match FleetMsg::from_json(&accepted)? {
        FleetMsg::Accepted { campaign } => campaign,
        // A submission the manager rejects before registration answers
        // with `done` directly, no `accepted` frame.
        FleetMsg::Done {
            campaign,
            ok,
            summary,
        } => return Ok((campaign, ok, summary)),
        _ => return Err(AuditError::journal(0, "fleet: expected `accepted`")),
    };
    let done = expect_frame(&mut conn, "awaiting completion")?;
    let FleetMsg::Done {
        campaign: done_campaign,
        ok,
        summary,
    } = FleetMsg::from_json(&done)?
    else {
        return Err(AuditError::journal(0, "fleet: expected `done`"));
    };
    if done_campaign != campaign {
        return Err(AuditError::journal(
            0,
            "fleet: done for a different campaign",
        ));
    }
    Ok((campaign, ok, summary))
}

/// Fetches the manager's plain-text status report.
///
/// # Errors
///
/// Returns [`AuditError::Io`] on connect/write failure and
/// [`AuditError::Journal`] on a malformed reply.
pub fn status(addr: &str) -> Result<String, AuditError> {
    let mut conn = connect(addr).map_err(|e| AuditError::io(addr, &e))?;
    write_frame(&mut conn, &FleetMsg::StatusReq.to_json())?;
    let reply = expect_frame(&mut conn, "awaiting status")?;
    let FleetMsg::Status { text } = FleetMsg::from_json(&reply)? else {
        return Err(AuditError::journal(0, "fleet: expected `status_text`"));
    };
    Ok(text)
}

/// Fetches the plain-text metrics scrape of a manager or a broker.
///
/// # Errors
///
/// Returns [`AuditError::Io`] on connect/write failure and
/// [`AuditError::Journal`] on a malformed reply.
pub fn scrape(addr: &str) -> Result<String, AuditError> {
    let mut conn = connect(addr).map_err(|e| AuditError::io(addr, &e))?;
    write_frame(&mut conn, &Msg::MetricsReq.to_json())?;
    let reply = expect_frame(&mut conn, "awaiting metrics")?;
    let Msg::Metrics { text } = Msg::from_json(&reply)? else {
        return Err(AuditError::journal(0, "fleet: expected `metrics`"));
    };
    Ok(text)
}
