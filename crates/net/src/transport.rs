//! Std-only stream transports behind one address syntax.
//!
//! Addresses are either `host:port` (TCP; `host:0` asks the OS for a
//! free port — read the bound address back with
//! [`Listener::local_addr_string`]) or `unix:/path/to.sock` (Unix
//! domain socket; the path is unlinked before binding so a stale socket
//! file from a killed broker does not block a restart).
//!
//! The transport itself is a faithful byte pipe: framing and integrity
//! live one layer up in [`crate::frame`], and deterministic network
//! fault injection ([`crate::chaos::NetFaultPlan`]) is applied by the
//! broker at its side of the frame boundary — never inside the
//! transport — so a worker binary contains no chaos code at all.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};

/// A bound listening socket.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener, e.g. `127.0.0.1:9000`.
    Tcp(TcpListener),
    /// A Unix-domain listener, e.g. `unix:/tmp/audit.sock`.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds `addr` (`host:port` or `unix:/path`).
    ///
    /// # Errors
    ///
    /// Returns the underlying bind error; for `unix:` also any failure
    /// removing a stale socket file other than it not existing.
    pub fn bind(addr: &str) -> std::io::Result<Listener> {
        #[cfg(unix)]
        if let Some(path) = addr.strip_prefix("unix:") {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            return Ok(Listener::Unix(UnixListener::bind(path)?));
        }
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// The bound address in the same syntax [`Listener::bind`] accepts,
    /// suitable for handing to [`connect`]. For TCP this resolves
    /// `:0` to the actual port.
    pub fn local_addr_string(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?:?".into()),
            #[cfg(unix)]
            Listener::Unix(l) => {
                let path = l
                    .local_addr()
                    .ok()
                    .and_then(|a| a.as_pathname().map(std::path::Path::to_path_buf))
                    .unwrap_or_default();
                format!("unix:{}", path.display())
            }
        }
    }

    /// Blocks until a peer connects.
    ///
    /// # Errors
    ///
    /// Returns the underlying accept error.
    pub fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true).ok();
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Unix(s))
            }
        }
    }
}

/// A connected byte stream (either transport), usable as `Read` and
/// `Write` and cloneable so one thread can read while another writes.
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Clones the handle; both halves refer to the same socket.
    ///
    /// # Errors
    ///
    /// Returns the underlying duplication error.
    pub fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => Ok(Conn::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            Conn::Unix(s) => Ok(Conn::Unix(s.try_clone()?)),
        }
    }

    /// Shuts down both directions; in-flight reads on clones return EOF.
    pub fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                s.shutdown(std::net::Shutdown::Both).ok();
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.shutdown(std::net::Shutdown::Both).ok();
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Connects to `addr` (`host:port` or `unix:/path`).
///
/// # Errors
///
/// Returns the underlying connect error.
pub fn connect(addr: &str) -> std::io::Result<Conn> {
    #[cfg(unix)]
    if let Some(path) = addr.strip_prefix("unix:") {
        return Ok(Conn::Unix(UnixStream::connect(path)?));
    }
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true).ok();
    Ok(Conn::Tcp(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, FrameOutcome};
    use audit_measure::json::JsonValue;

    #[test]
    fn tcp_loopback_round_trips_a_frame() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr_string();
        let payload = JsonValue::object(vec![("kind", JsonValue::String("ping".into()))]);
        let sent = payload.clone();
        let join = std::thread::spawn(move || {
            let mut conn = connect(&addr).unwrap();
            write_frame(&mut conn, &sent).unwrap();
        });
        let mut server = listener.accept().unwrap();
        assert_eq!(
            read_frame(&mut server).unwrap(),
            FrameOutcome::Frame(payload)
        );
        assert_eq!(read_frame(&mut server).unwrap(), FrameOutcome::Eof);
        join.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trips_and_rebinds_over_stale_path() {
        let dir = std::env::temp_dir().join(format!("audit-net-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr = format!("unix:{}", dir.join("t.sock").display());
        // Bind twice: the second bind must clear the first's socket file.
        let _stale = Listener::bind(&addr).unwrap();
        let listener = Listener::bind(&addr).unwrap();
        assert_eq!(listener.local_addr_string(), addr);
        let payload = JsonValue::from_u64(42);
        let sent = payload.clone();
        let to = addr.clone();
        let join = std::thread::spawn(move || {
            let mut conn = connect(&to).unwrap();
            write_frame(&mut conn, &sent).unwrap();
        });
        let mut server = listener.accept().unwrap();
        assert_eq!(
            read_frame(&mut server).unwrap(),
            FrameOutcome::Frame(payload)
        );
        join.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
