//! The fleet front door: campaign submission and status on top of the
//! shared dispatch core.
//!
//! [`Fleet::bind`] starts a [`Pool`] and opens an
//! [`audit_net::FrontDoor`] for it — the same listener, session routing
//! and worker handshake that `audit serve` uses. Workers (`audit work`,
//! byte-for-byte the same binary) and `metrics_req` scrapes are served
//! by the door itself; this module adds the tenant protocol
//! ([`FleetMsg`]) for every other first frame:
//!
//! * `submit` — a campaign submission. It surfaces through
//!   [`Fleet::next_submission`]; the caller (the CLI's `fleet serve`)
//!   registers the campaign, runs it, and answers on the held
//!   connection via [`Submission::respond_accepted`] and
//!   [`Submission::finish`].
//! * `status` — one plain-text status report, then the socket closes.
//!
//! The matching client sides are the free functions [`submit`],
//! [`status`], and [`scrape`].

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use audit_error::AuditError;
use audit_measure::json::JsonValue;
use audit_net::frame::{read_frame, write_frame, FrameOutcome};
use audit_net::pool::{FleetConfig, Pool, PoolHandle};
use audit_net::proto::Msg;
use audit_net::transport::{connect, Conn};
use audit_net::{FrontDoor, ScrapeFamily};

use crate::proto::FleetMsg;

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
    conn: Conn,
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
/// it owns) plus the submission queue.
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
        let pool = Pool::start(cfg, ScrapeFamily::FLEET);
        let tenant_pool = pool.handle();
        let (sub_tx, submissions) = channel();
        let door = FrontDoor::open(
            addr,
            pool,
            Some(Arc::new(move |first, conn| {
                tenant_session(&first, conn, &tenant_pool, &sub_tx);
            })),
        )?;
        Ok(Fleet { door, submissions })
    }

    /// The bound address in connectable form (`:0` resolved).
    pub fn addr(&self) -> &str {
        self.door.addr()
    }

    /// A clonable handle into the worker pool (campaign registration,
    /// dispatchers, metrics).
    pub fn handle(&self) -> PoolHandle {
        self.door.handle()
    }

    /// Blocks until at least `n` workers are connected.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the pool thread has died.
    pub fn wait_for_workers(&self, n: usize) -> Result<(), AuditError> {
        self.door.handle().wait_for_workers(n)
    }

    /// Waits up to `timeout` for the next campaign submission.
    pub fn next_submission(&self, timeout: Duration) -> Option<Submission> {
        self.submissions.recv_timeout(timeout).ok()
    }

    /// The plain-text metrics scrape (what [`scrape`] returns remotely).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the pool thread has died.
    pub fn metrics_text(&self) -> Result<String, AuditError> {
        self.door.handle().metrics_text()
    }

    /// The plain-text status report (what [`status`] returns remotely).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the pool thread has died.
    pub fn status_text(&self) -> Result<String, AuditError> {
        self.door.handle().status_text()
    }

    /// Stops accepting, releases every connection (workers get a
    /// `Shutdown` frame), and joins the pool thread. Called
    /// automatically on drop.
    pub fn shutdown(&mut self) {
        self.door.close();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one tenant connection (a first frame the worker protocol
/// does not know): a status request or a campaign submission.
fn tenant_session(
    first: &JsonValue,
    mut conn: Conn,
    pool: &PoolHandle,
    submissions: &Sender<Submission>,
) {
    match FleetMsg::from_json(first) {
        Ok(FleetMsg::StatusReq) => {
            if let Ok(text) = pool.status_text() {
                write_frame(&mut conn, &FleetMsg::Status { text }.to_json()).ok();
            }
            conn.shutdown();
        }
        Ok(FleetMsg::Submit {
            argv,
            checkpoint,
            weight,
            resume,
        }) => {
            // The connection rides along: the serve loop answers on it
            // when the campaign is accepted and again when it finishes.
            submissions
                .send(Submission {
                    argv,
                    checkpoint,
                    weight,
                    resume,
                    conn,
                })
                .ok();
        }
        _ => conn.shutdown(),
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

/// Fetches the manager's plain-text metrics scrape.
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
