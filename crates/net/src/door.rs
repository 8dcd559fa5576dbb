//! The front door: one listening socket feeding a dispatch [`Pool`].
//!
//! `audit serve` and `audit fleet serve` both open one, and the door
//! owns its pool. [`FrontDoor::open`] binds the address and accepts
//! until closed; each connection gets its own session thread, which
//! sorts the peer by its *first* frame:
//!
//! * `hello` at [`PROTOCOL_VERSION`] — a worker (`audit work`). Its
//!   writer half goes to the pool thread, which sets it up at once (see
//!   [`crate::pool`]); its reader half pumps results and pongs into the
//!   pool until the stream ends.
//! * `metrics_req` — a scrape. It gets one plain-text [`Msg::Metrics`]
//!   snapshot of the pool's counters and the socket closes.
//! * `status` and `submit` ([`FleetMsg`]) — a tenant, served only by a
//!   door with a submission queue (`audit fleet serve`). A status
//!   request gets one [`FleetMsg::Status`] report and the socket
//!   closes; a submission goes down the queue with its connection held
//!   open for the answer (see [`crate::fleet`]).
//!
//! Any other opener — a tenant frame at a door without a queue
//! (`audit serve`), a `hello` from an older protocol, an unknown `kind`
//! — is refused by hanging up before the pool ever sees it.
//!
//! [`Pool`]: crate::pool::Pool

use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use audit_error::AuditError;

use crate::fleet::Submission;
use crate::frame::{read_frame, write_frame, FrameOutcome};
use crate::pool::{Pool, PoolHandle, PoolMsg};
use crate::proto::{FleetMsg, Msg, PROTOCOL_VERSION};
use crate::transport::{self, Conn, Listener};

/// Every accepted socket, including ones still mid-handshake — closing
/// must release them all or a late joiner blocks on a read forever.
/// `None` once the door is closed.
type Registry = Arc<Mutex<Option<Vec<Conn>>>>;

/// A listening socket, its accept thread, and the pool it feeds. See
/// the module docs.
pub struct FrontDoor {
    addr: String,
    pool: Pool,
    conns: Registry,
}

impl FrontDoor {
    /// Binds `addr` (`host:port` or `unix:/path`) and starts accepting
    /// peers for `pool`, which the door owns from now on. With a
    /// `submissions` queue the door also serves tenants: campaign
    /// submissions go down it.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the address cannot be bound.
    pub fn open(
        addr: &str,
        pool: Pool,
        submissions: Option<Sender<Submission>>,
    ) -> Result<FrontDoor, AuditError> {
        let io = |e: std::io::Error| AuditError::io(addr, &e);
        let listener = Listener::bind(addr).map_err(io)?;
        let conns: Registry = Arc::new(Mutex::new(Some(Vec::new())));
        let accept_conns = Arc::clone(&conns);
        let addr = listener.local_addr_string();
        let handle = pool.handle();
        std::thread::Builder::new()
            .name("audit-door".into())
            .spawn(move || accept_loop(&listener, &handle, submissions.as_ref(), &accept_conns))
            .map_err(io)?;
        Ok(FrontDoor { addr, pool, conns })
    }

    /// The bound address in connectable form (`:0` resolved).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A clonable handle into the door's pool.
    pub fn handle(&self) -> PoolHandle {
        self.pool.handle()
    }

    /// Stops accepting, stops the pool, then sends every accepted
    /// connection a `Shutdown` frame and closes it. Idempotent; also
    /// called on drop.
    pub fn close(&mut self) {
        // Taking the registry under its lock is what makes it complete:
        // the accept thread registers each socket under the same lock,
        // and only while the door is open, so a peer connecting from
        // here on is dropped unread instead of missing its release.
        let Some(conns) = lock(&self.conns).take() else {
            return;
        };
        // Wake the accept thread out of `accept` with a connection of
        // our own; it finds the door closed and exits. Best effort, and
        // never joined: if another door has since rebound this `unix:`
        // path, the wake reaches that door instead and this thread
        // stays parked on a listener nobody can reach.
        drop(transport::connect(&self.addr));
        // The pool thread next: once it is gone, nothing else writes to
        // a worker while the `Shutdown` frames go out.
        self.pool.shutdown();
        let shutdown = Msg::Shutdown.to_json();
        for mut conn in conns {
            write_frame(&mut conn, &shutdown).ok();
            conn.shutdown();
        }
    }
}

impl Drop for FrontDoor {
    fn drop(&mut self) {
        self.close();
    }
}

fn lock(conns: &Registry) -> MutexGuard<'_, Option<Vec<Conn>>> {
    conns.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks in `accept` until the door closes; each accepted socket is
/// registered and gets a session thread.
fn accept_loop(
    listener: &Listener,
    pool: &PoolHandle,
    submissions: Option<&Sender<Submission>>,
    conns: &Registry,
) {
    let mut next_id = 0;
    loop {
        let accepted = listener.accept();
        let mut registry = lock(conns);
        let Some(open) = registry.as_mut() else {
            return;
        };
        let Ok(conn) = accepted else {
            // EMFILE and the like: back off instead of spinning.
            drop(registry);
            std::thread::sleep(Duration::from_millis(100));
            continue;
        };
        if let Ok(clone) = conn.try_clone() {
            open.push(clone);
        }
        drop(registry);
        let worker = next_id;
        next_id += 1;
        let pool = pool.clone();
        let submissions = submissions.cloned();
        std::thread::spawn(move || session(conn, worker, &pool, submissions));
    }
}

/// Routes one connection by its first frame (see the module docs).
fn session(
    mut conn: Conn,
    worker: u64,
    pool: &PoolHandle,
    submissions: Option<Sender<Submission>>,
) {
    let Ok(FrameOutcome::Frame(first)) = read_frame(&mut conn) else {
        conn.shutdown();
        return;
    };
    // The two tables' kinds are disjoint, so at most one decodes.
    let reply = match (
        Msg::from_json(&first),
        FleetMsg::from_json(&first),
        submissions,
    ) {
        (Ok(Msg::Hello { protocol }), _, _) if protocol == PROTOCOL_VERSION => {
            return worker_session(conn, worker, pool);
        }
        (Ok(Msg::MetricsReq), _, _) => pool
            .metrics_text()
            .ok()
            .map(|text| Msg::Metrics { text }.to_json()),
        (_, Ok(FleetMsg::StatusReq), Some(_)) => pool
            .status_text()
            .ok()
            .map(|text| FleetMsg::Status { text }.to_json()),
        (
            _,
            Ok(FleetMsg::Submit {
                argv,
                checkpoint,
                weight,
                resume,
            }),
            Some(queue),
        ) => {
            // The connection rides along: the serve loop answers on it
            // when the campaign is accepted and again when it finishes.
            let submission = Submission {
                argv,
                checkpoint,
                weight,
                resume,
                conn,
            };
            queue.send(submission).ok();
            return;
        }
        _ => None,
    };
    if let Some(reply) = reply {
        write_frame(&mut conn, &reply).ok();
    }
    conn.shutdown();
}

/// A worker's session: hands its writer half to the pool, then pumps
/// its frames into the pool until the stream ends.
fn worker_session(mut conn: Conn, worker: u64, pool: &PoolHandle) {
    let Ok(writer) = conn.try_clone() else {
        conn.shutdown();
        return;
    };
    if !pool.send(PoolMsg::Joined { worker, writer }) {
        return;
    }
    // Clean EOF, a torn tail, or a read error ends the session and
    // reports the worker lost; a CRC-rejected frame is dropped and the
    // stream stays alive (the dispatch lease re-issues whatever it
    // carried).
    loop {
        let v = match read_frame(&mut conn) {
            Ok(FrameOutcome::Frame(v)) => v,
            Ok(FrameOutcome::Corrupt) => continue,
            _ => break,
        };
        let msg = match Msg::from_json(&v) {
            Ok(msg @ (Msg::Result { .. } | Msg::Pong | Msg::Ping)) => msg,
            // A worker has no business sending anything else; treat a
            // confused peer as lost.
            _ => break,
        };
        if !pool.send(PoolMsg::Heard { worker, msg }) {
            return;
        }
    }
    pool.send(PoolMsg::Lost { worker });
}
