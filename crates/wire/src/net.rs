//! Transport endpoints: TCP and Unix-domain sockets behind one enum.
//!
//! Both the replica server and the client connection threads speak
//! [`WireStream`], so every protocol path is transport-agnostic; the
//! choice of TCP loopback vs UDS is a deployment detail parsed from an
//! endpoint string (`tcp:HOST:PORT` / `uds:/path/to.sock`).

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// Address of one replica: TCP host/port or a Unix-domain socket path.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A TCP address in `host:port` form.
    Tcp(String),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

impl Endpoint {
    /// Parses `tcp:HOST:PORT` or `uds:PATH`.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.rsplit_once(':').is_none() {
                return Err(format!("tcp endpoint `{addr}` is not HOST:PORT"));
            }
            Ok(Endpoint::Tcp(addr.to_owned()))
        } else if let Some(path) = s.strip_prefix("uds:") {
            if path.is_empty() {
                return Err(String::from("uds endpoint needs a path"));
            }
            Ok(Endpoint::Uds(PathBuf::from(path)))
        } else {
            Err(format!(
                "endpoint `{s}` must start with `tcp:` or `uds:`"
            ))
        }
    }

    /// The transport kind label (`"tcp"` / `"uds"`), as used for the
    /// `abd.transport.*` metric names.
    pub fn kind(&self) -> &'static str {
        match self {
            Endpoint::Tcp(_) => "tcp",
            Endpoint::Uds(_) => "uds",
        }
    }

    /// Opens a client connection to this endpoint.
    pub fn dial(&self) -> io::Result<WireStream> {
        match self {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(WireStream::Tcp(stream))
            }
            Endpoint::Uds(path) => Ok(WireStream::Uds(UnixStream::connect(path)?)),
        }
    }

    /// Binds a listener on this endpoint. A TCP port of `0` binds an
    /// ephemeral port (read the resolved address back via
    /// [`WireListener::local_endpoint`]); a stale UDS socket file is
    /// removed first, so a crashed replica can rebind its path.
    pub fn bind(&self) -> io::Result<WireListener> {
        match self {
            Endpoint::Tcp(addr) => Ok(WireListener::Tcp(TcpListener::bind(addr)?)),
            Endpoint::Uds(path) => {
                let _ = std::fs::remove_file(path);
                Ok(WireListener::Uds(UnixListener::bind(path)?, path.clone()))
            }
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Uds(path) => write!(f, "uds:{}", path.display()),
        }
    }
}

/// A connected byte stream over either transport.
#[derive(Debug)]
pub enum WireStream {
    /// A TCP connection (nodelay enabled).
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Uds(UnixStream),
}

impl WireStream {
    /// A second handle to the same connection (for a reader thread, or
    /// for shutting the stream down from another thread).
    pub fn try_clone(&self) -> io::Result<WireStream> {
        Ok(match self {
            WireStream::Tcp(s) => WireStream::Tcp(s.try_clone()?),
            WireStream::Uds(s) => WireStream::Uds(s.try_clone()?),
        })
    }

    /// Shuts down both directions, unblocking any thread parked in a
    /// read on another handle to this connection.
    pub fn shutdown(&self) {
        let _ = match self {
            WireStream::Tcp(s) => s.shutdown(Shutdown::Both),
            WireStream::Uds(s) => s.shutdown(Shutdown::Both),
        };
    }

    /// Sets (or clears) the read timeout of the connection (a socket
    /// option: every handle to it shares the setting).
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.set_read_timeout(timeout),
            WireStream::Uds(s) => s.set_read_timeout(timeout),
        }
    }

    /// Sets (or clears) the write timeout of the connection: a write
    /// blocked that long on a peer that stopped reading fails instead.
    pub fn set_write_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.set_write_timeout(timeout),
            WireStream::Uds(s) => s.set_write_timeout(timeout),
        }
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            WireStream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            WireStream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.flush(),
            WireStream::Uds(s) => s.flush(),
        }
    }
}

/// A bound listener over either transport.
#[derive(Debug)]
pub enum WireListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A UDS listener, remembering its path for cleanup.
    Uds(UnixListener, PathBuf),
}

impl WireListener {
    /// Accepts one connection.
    pub fn accept(&self) -> io::Result<WireStream> {
        match self {
            WireListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(WireStream::Tcp(stream))
            }
            WireListener::Uds(l, _) => {
                let (stream, _) = l.accept()?;
                Ok(WireStream::Uds(stream))
            }
        }
    }

    /// The endpoint this listener is actually bound to (resolves a
    /// TCP port of `0` to the kernel-assigned port).
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            WireListener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            WireListener::Uds(_, path) => Ok(Endpoint::Uds(path.clone())),
        }
    }

    /// Removes a UDS listener's socket file (no-op for TCP). Called on
    /// orderly server shutdown; a crashed server's stale file is handled
    /// by [`Endpoint::bind`]'s pre-unlink.
    pub fn cleanup(&self) {
        if let WireListener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_strings_parse_and_render() {
        let e = Endpoint::parse("tcp:127.0.0.1:7070").unwrap();
        assert_eq!(e, Endpoint::Tcp(String::from("127.0.0.1:7070")));
        assert_eq!(e.kind(), "tcp");
        assert_eq!(e.to_string(), "tcp:127.0.0.1:7070");

        let e = Endpoint::parse("uds:/tmp/r0.sock").unwrap();
        assert_eq!(e, Endpoint::Uds(PathBuf::from("/tmp/r0.sock")));
        assert_eq!(e.kind(), "uds");
        assert_eq!(e.to_string(), "uds:/tmp/r0.sock");

        assert!(Endpoint::parse("tcp:noport").is_err());
        assert!(Endpoint::parse("uds:").is_err());
        assert!(Endpoint::parse("http://x").is_err());
    }

    #[test]
    fn tcp_ephemeral_bind_resolves_its_port() {
        let listener = Endpoint::Tcp(String::from("127.0.0.1:0")).bind().unwrap();
        match listener.local_endpoint().unwrap() {
            Endpoint::Tcp(addr) => assert!(!addr.ends_with(":0"), "{addr}"),
            other => panic!("{other:?}"),
        }
    }
}
