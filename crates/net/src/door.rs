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
//! * a frame the worker protocol does not know — handed to the door's
//!   [`TenantHandler`] (`audit fleet`'s submit/status frames), or
//!   closed when the door has none.
//!
//! Any other worker-protocol opener, including a `hello` from an older
//! protocol, is refused by hanging up before the pool ever sees it.
//!
//! [`Pool`]: crate::pool::Pool

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use audit_error::AuditError;
use audit_measure::json::JsonValue;

use crate::frame::{read_frame, write_frame, FrameOutcome};
use crate::pool::{Pool, PoolHandle, PoolMsg};
use crate::proto::{Msg, PROTOCOL_VERSION};
use crate::transport::{Conn, Listener};

/// Serves a connection whose first frame is not worker protocol; gets
/// that frame and the connection.
pub type TenantHandler = Arc<dyn Fn(JsonValue, Conn) + Send + Sync>;

/// A listening socket, its accept thread, and the pool it feeds. See
/// the module docs.
pub struct FrontDoor {
    addr: String,
    pool: Pool,
    stop: Arc<AtomicBool>,
    /// Every accepted socket, including ones still mid-handshake —
    /// closing must release them all or a late joiner blocks on a read
    /// forever.
    conns: Arc<Mutex<Vec<Conn>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl FrontDoor {
    /// Binds `addr` (`host:port` or `unix:/path`) and starts accepting
    /// peers for `pool`, which the door owns from now on.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the address cannot be bound.
    pub fn open(
        addr: &str,
        pool: Pool,
        tenants: Option<TenantHandler>,
    ) -> Result<FrontDoor, AuditError> {
        let io = |e: std::io::Error| AuditError::io(addr, &e);
        let listener = Listener::bind(addr).map_err(io)?;
        set_nonblocking(&listener).map_err(io)?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conns);
        let addr = listener.local_addr_string();
        let handle = pool.handle();
        let thread = std::thread::spawn(move || {
            accept_loop(&listener, &handle, tenants.as_ref(), &accept_stop, &accept_conns);
        });
        Ok(FrontDoor {
            addr,
            pool,
            stop,
            conns,
            thread: Some(thread),
        })
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
        self.stop.store(true, Ordering::SeqCst);
        // Join the accept loop *before* draining the registry: a peer
        // connecting in this window is registered at accept time, so
        // once the loop has exited the registry is complete and nobody
        // misses their release.
        if let Some(thread) = self.thread.take() {
            thread.join().ok();
        }
        // The pool thread next: once it is gone, nothing else writes to
        // a worker while the `Shutdown` frames go out.
        self.pool.shutdown();
        let shutdown = Msg::Shutdown.to_json();
        if let Ok(mut conns) = self.conns.lock() {
            for conn in conns.iter_mut() {
                write_frame(conn, &shutdown).ok();
                conn.shutdown();
            }
            conns.clear();
        }
    }
}

impl Drop for FrontDoor {
    fn drop(&mut self) {
        self.close();
    }
}

fn set_nonblocking(listener: &Listener) -> std::io::Result<()> {
    match listener {
        Listener::Tcp(l) => l.set_nonblocking(true),
        #[cfg(unix)]
        Listener::Unix(l) => l.set_nonblocking(true),
    }
}

/// Polls for connections until told to stop; each accepted socket gets
/// a session thread.
fn accept_loop(
    listener: &Listener,
    pool: &PoolHandle,
    tenants: Option<&TenantHandler>,
    stop: &AtomicBool,
    conns: &Mutex<Vec<Conn>>,
) {
    let ids = AtomicU64::new(0);
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(conn) => {
                if let Ok(clone) = conn.try_clone() {
                    if let Ok(mut registry) = conns.lock() {
                        registry.push(clone);
                    }
                }
                let worker = ids.fetch_add(1, Ordering::SeqCst);
                let pool = pool.clone();
                let tenants = tenants.cloned();
                std::thread::spawn(move || session(conn, worker, &pool, tenants.as_ref()));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// Routes one connection by its first frame (see the module docs); a
/// worker's session then pumps its frames into the pool until the
/// stream ends.
fn session(mut conn: Conn, worker: u64, pool: &PoolHandle, tenants: Option<&TenantHandler>) {
    let first = match read_frame(&mut conn) {
        Ok(FrameOutcome::Frame(v)) => v,
        _ => {
            conn.shutdown();
            return;
        }
    };
    match Msg::from_json(&first) {
        Ok(Msg::Hello { protocol }) if protocol == PROTOCOL_VERSION => {}
        Ok(Msg::MetricsReq) => {
            if let Ok(text) = pool.metrics_text() {
                write_frame(&mut conn, &Msg::Metrics { text }.to_json()).ok();
            }
            conn.shutdown();
            return;
        }
        Err(_) => {
            match tenants {
                Some(serve) => serve(first, conn),
                None => conn.shutdown(),
            }
            return;
        }
        Ok(_) => {
            conn.shutdown();
            return;
        }
    }
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
