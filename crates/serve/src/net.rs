//! Transport plumbing shared by the server and the client: a TCP or
//! unix-socket endpoint, a unified stream with mandatory I/O timeouts,
//! and a nonblocking listener for the accept loop.
//!
//! Every accepted or connected socket gets *both* a read and a write
//! timeout before any byte moves. The read timeout doubles as idle
//! reaping (a silent client is dropped after one timeout), and the
//! write timeout is what keeps a slow-reading client from pinning its
//! handler thread forever — the accept loop itself never writes, so it
//! can never stall on a slow peer.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where the service listens (or where a client connects).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address, e.g. `127.0.0.1:7654` (`:0` picks a free
    /// port; [`Listener::local_endpoint`] reports the real one).
    Tcp(String),
    /// A unix domain socket path. A stale socket file is removed at
    /// bind; the file is removed again when the listener is dropped.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// One accepted or dialed connection, TCP or unix, with both I/O
/// timeouts armed.
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    /// Arms read *and* write timeouts. `None` is refused by
    /// construction — callers always pass a finite timeout, so no
    /// handler thread can block on a dead peer indefinitely. TCP also
    /// gets `TCP_NODELAY`: frames are a length prefix plus a tiny
    /// payload, and letting Nagle hold the second write hostage to the
    /// peer's delayed ACK turns a microsecond request into ~40-200ms.
    pub(crate) fn set_timeouts(&self, timeout: Duration) -> io::Result<()> {
        let t = Some(timeout);
        match self {
            Stream::Tcp(s) => {
                s.set_nodelay(true)?;
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
            Stream::Unix(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
        }
    }

    /// Dials `endpoint` and arms both timeouts before returning.
    pub(crate) fn connect(endpoint: &Endpoint, timeout: Duration) -> io::Result<Stream> {
        let stream = match endpoint {
            Endpoint::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr)?),
            Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
        };
        stream.set_timeouts(timeout)?;
        Ok(stream)
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound, nonblocking listener. Nonblocking so the accept loop can
/// interleave accepts with shutdown-flag polls instead of parking in
/// the kernel forever.
pub struct Listener {
    inner: ListenerInner,
    /// Set for unix listeners: the socket file to unlink on drop.
    cleanup: Option<PathBuf>,
}

enum ListenerInner {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Binds `endpoint` and switches the socket to nonblocking accepts.
    /// For unix endpoints a stale socket file left by a crashed prior
    /// instance is removed first.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Ok(Listener {
                    inner: ListenerInner::Tcp(l),
                    cleanup: None,
                })
            }
            Endpoint::Unix(path) => {
                if path.exists() {
                    #[allow(
                        clippy::let_underscore_must_use,
                        reason = "a stale socket from a dead server; a live one makes \
                                  the bind below fail loudly anyway"
                    )]
                    let _ = std::fs::remove_file(path);
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener {
                    inner: ListenerInner::Unix(l),
                    cleanup: Some(path.clone()),
                })
            }
        }
    }

    /// The endpoint actually bound — for TCP this resolves `:0` to the
    /// kernel-assigned port, which is how tests find their server.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match &self.inner {
            ListenerInner::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            ListenerInner::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .map(PathBuf::from)
                    .ok_or_else(|| io::Error::other("unnamed unix socket"))?;
                Ok(Endpoint::Unix(path))
            }
        }
    }

    /// One nonblocking accept. `WouldBlock` is surfaced to the caller,
    /// which sleeps briefly and re-polls its shutdown flag.
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match &self.inner {
            ListenerInner::Tcp(l) => {
                let (s, _) = l.accept()?;
                // Accepted sockets inherit nonblocking on some
                // platforms; handlers want blocking reads with a
                // timeout, so flip it back explicitly.
                s.set_nonblocking(false)?;
                Ok(Stream::Tcp(s))
            }
            ListenerInner::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Stream::Unix(s))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Some(path) = &self.cleanup {
            #[allow(
                clippy::let_underscore_must_use,
                reason = "`Drop` cannot report the error, and a leftover socket file \
                          is removed by the next bind"
            )]
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_display() {
        assert_eq!(
            Endpoint::Tcp("1.2.3.4:5".into()).to_string(),
            "tcp://1.2.3.4:5"
        );
        assert_eq!(
            Endpoint::Unix(PathBuf::from("/tmp/x.sock")).to_string(),
            "unix:///tmp/x.sock"
        );
    }

    #[test]
    fn tcp_bind_reports_real_port() {
        let l = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        match l.local_endpoint().unwrap() {
            Endpoint::Tcp(addr) => assert!(!addr.ends_with(":0"), "got {addr}"),
            other => panic!("wrong endpoint kind: {other:?}"),
        }
    }

    #[test]
    fn unix_bind_cleans_up_socket_file() {
        let path = std::env::temp_dir().join(format!("swscc-net-test-{}.sock", std::process::id()));
        {
            let _l = Listener::bind(&Endpoint::Unix(path.clone())).unwrap();
            assert!(path.exists());
            // Rebinding over a stale file (simulated: bind while the old
            // listener is gone) is exercised by dropping and rebinding
            // below.
        }
        assert!(!path.exists(), "socket file must be removed on drop");
        let _l = Listener::bind(&Endpoint::Unix(path.clone())).unwrap();
        assert!(path.exists());
        drop(_l);
        assert!(!path.exists());
    }
}
