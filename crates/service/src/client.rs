//! A blocking line-protocol client, used by `invmeas submit` and tests.
//!
//! Hardening (see `DESIGN.md` §12): every connection carries a default
//! read/write timeout so a hung server cannot wedge the caller forever —
//! and the same bound applies to the TCP **connect** itself, because a
//! partitioned host (no RST coming back) would otherwise block the
//! caller for the OS SYN-retry window (~2 minutes on Linux). And
//! [`Client::request`] transparently reconnects **once** when the
//! server dropped the connection between requests — but only retries
//! *idempotent* requests (`status`, `health`, `characterize`, and the
//! mesh's `replicate`/`fetch-profile`, which install or read checksummed
//! bytes and are safe to repeat). A `submit` that dies mid-flight is
//! never resent: the job may already be running, and replaying it would
//! double-spend shots.
//!
//! The client reuses one response-line buffer across requests (no
//! per-response allocation on the hot path) and can pipeline: send K
//! requests before reading K responses with [`Client::pipeline`], or use
//! the [`Client::send`]/[`Client::recv`] halves directly. The server
//! guarantees responses arrive in request order even when jobs complete
//! out of order, which is what makes the split safe.

use crate::net::{NetFabric, NetStream};
use crate::protocol::{ProtocolError, Request, Response};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

/// Default socket read/write timeout applied by [`Client::connect`] and
/// [`call`]. Override with [`Client::set_timeout`].
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Pause before the single reconnect-and-retry of an idempotent request.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(25);

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket trouble.
    Io(std::io::Error),
    /// The server sent something the protocol module cannot parse.
    Protocol(ProtocolError),
    /// The server closed the connection before responding.
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o error: {e}"),
            ClientError::Protocol(e) => write!(f, "client {e}"),
            ClientError::Closed => write!(f, "server closed the connection before responding"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
            ClientError::Closed => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Whether an error means "the connection is gone" (and a reconnect might
/// help) as opposed to a timeout or protocol problem (where it won't —
/// retrying after a *timeout* could resubmit work that is still running).
fn is_disconnect(e: &ClientError) -> bool {
    match e {
        ClientError::Closed => true,
        ClientError::Io(io) => matches!(
            io.kind(),
            std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::NotConnected
        ),
        ClientError::Protocol(_) => false,
    }
}

/// Whether resending `request` after a reconnect is safe. Reads and cache
/// lookups are, as are replica installs and profile fetches (the same
/// checksummed bytes land twice, harmlessly); `submit`/`sleep` (work) and
/// `set-window`/`shutdown` (state changes we cannot confirm were applied)
/// are not.
fn is_idempotent(request: &Request) -> bool {
    matches!(
        request,
        Request::Status
            | Request::Health
            | Request::Characterize(_)
            | Request::Replicate(_)
            | Request::FetchProfile { .. }
    )
}

/// A persistent connection to a mitigation server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<NetStream>,
    writer: NetStream,
    /// The resolved peer, kept for transparent reconnects.
    peer: SocketAddr,
    /// Every seed address the caller supplied (always contains `peer`).
    /// Reconnects rotate through these, so a clustered client survives
    /// the death of the node it happened to be talking to.
    seeds: Vec<SocketAddr>,
    timeout: Option<Duration>,
    /// The transport every (re)dial goes through — the production
    /// direct fabric unless the caller routed this client through a
    /// fault-scripted one with [`Client::connect_via`].
    fabric: NetFabric,
    /// Reused across responses so steady-state requests allocate nothing
    /// for line assembly.
    line: String,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`) with
    /// [`DEFAULT_TIMEOUT`] on reads and writes.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_timeout(addr, DEFAULT_TIMEOUT)
    }

    /// Connects to `addr` with `timeout` bounding the TCP connect *and*
    /// every read/write. This is what node-to-node mesh calls use: a
    /// partitioned peer costs at most `timeout`, never the OS SYN-retry
    /// window.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (including a connect timeout).
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        Client::connect_via(&NetFabric::direct(), addr, Some(timeout))
    }

    /// Connects through an explicit [`NetFabric`], so mesh-internal
    /// clients (peer calls, replication, forwarded work) and chaos tests
    /// route every dial — including reconnects — through the fault
    /// fabric. `timeout` bounds the connect and every read/write as in
    /// [`Client::connect_timeout`]; `None` waits forever.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (including injected refusals).
    pub fn connect_via(
        fabric: &NetFabric,
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let peer = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?;
        let stream = open(fabric, peer, timeout)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            peer,
            seeds: vec![peer],
            timeout,
            fabric: fabric.clone(),
            line: String::new(),
        })
    }

    /// Connects to the first reachable of several seed addresses (e.g.
    /// the members of a profile-mesh cluster), trying them in order. The
    /// whole list is retained: if the connected node later dies, the
    /// reconnect path rotates to the next seed instead of giving up.
    ///
    /// # Errors
    ///
    /// Returns the *last* connection failure when every seed is down, or
    /// an error when `addrs` is empty or nothing resolves.
    pub fn connect_seeds<S: AsRef<str>>(addrs: &[S]) -> Result<Client, ClientError> {
        let mut seeds = Vec::new();
        for a in addrs {
            if let Some(peer) = a.as_ref().to_socket_addrs()?.next() {
                seeds.push(peer);
            }
        }
        if seeds.is_empty() {
            return Err(ClientError::Io(std::io::Error::other(
                "no seed address resolved",
            )));
        }
        let fabric = NetFabric::direct();
        let mut last: Option<ClientError> = None;
        for peer in seeds.iter().copied() {
            match open(&fabric, peer, Some(DEFAULT_TIMEOUT)) {
                Ok(stream) => {
                    return Ok(Client {
                        reader: BufReader::new(stream.try_clone()?),
                        writer: stream,
                        peer,
                        seeds,
                        timeout: Some(DEFAULT_TIMEOUT),
                        fabric,
                        line: String::new(),
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one seed was tried"))
    }

    /// The address of the node this client is currently connected to.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Bounds how long [`Client::request`] waits for a response line
    /// (`None` waits forever).
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.writer.set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)?;
        self.timeout = timeout;
        Ok(())
    }

    /// Sends one request and blocks for its response. If the server
    /// dropped the connection and the request is idempotent, reconnects
    /// and retries exactly once.
    ///
    /// # Errors
    ///
    /// I/O failures, an early close, or an unparseable response line.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.request_once(request) {
            Err(e) if is_disconnect(&e) && is_idempotent(request) => {
                std::thread::sleep(RECONNECT_BACKOFF);
                self.reconnect()?;
                self.request_once(request)
            }
            other => other,
        }
    }

    fn request_once(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.recv()
    }

    /// Writes one request without waiting for its response (the pipelined
    /// send half). Pair every `send` with a later [`Client::recv`].
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.writer.write_all(request.to_line().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads one response (the pipelined receive half), reusing the
    /// client's persistent line buffer.
    ///
    /// # Errors
    ///
    /// I/O failures, an early close, or an unparseable response line.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(ClientError::Closed);
        }
        Response::from_line(self.line.trim_end()).map_err(ClientError::Protocol)
    }

    /// Like [`Client::recv`], but a read *timeout* leaves any partially
    /// received bytes buffered so a later call resumes assembling the
    /// same line. This is the slice-polling receive the mesh uses to wait
    /// on a long-running forwarded job: the caller loops on timeouts
    /// (checking liveness between slices) without corrupting a response
    /// that happened to arrive split across a slice boundary.
    ///
    /// Do not interleave with [`Client::recv`]/[`Client::request`] after
    /// a timeout: only this method knows the line buffer may hold a
    /// partial frame.
    ///
    /// # Errors
    ///
    /// I/O failures (including timeouts, which are retryable here), an
    /// early close, or an unparseable response line.
    pub fn recv_resumable(&mut self) -> Result<Response, ClientError> {
        // No clear on entry: `read_line` appends, so bytes banked by a
        // timed-out previous call stay and the line completes across
        // calls. (`BufRead::read_line` keeps already-read valid UTF-8 in
        // the buffer when the underlying read errors.)
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(ClientError::Closed);
        }
        let response = Response::from_line(self.line.trim_end()).map_err(ClientError::Protocol);
        self.line.clear();
        response
    }

    /// Sends every request before reading any response — one round trip
    /// for the whole batch instead of one per request. Responses come
    /// back in request order. No reconnect-retry applies: after a
    /// mid-batch disconnect the caller cannot know which requests
    /// executed, so the error surfaces as-is.
    ///
    /// # Errors
    ///
    /// The first send or receive failure, which abandons the rest of the
    /// batch.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        for request in requests {
            self.send(request)?;
        }
        requests.iter().map(|_| self.recv()).collect()
    }

    fn reconnect(&mut self) -> Result<(), ClientError> {
        // Current peer first, then the remaining seeds in list order —
        // so a single-seed client behaves exactly as before, and a
        // multi-seed client rotates off a dead node.
        let start = self.seeds.iter().position(|s| *s == self.peer).unwrap_or(0);
        let mut last: Option<ClientError> = None;
        for k in 0..self.seeds.len() {
            let peer = self.seeds[(start + k) % self.seeds.len()];
            match open(&self.fabric, peer, self.timeout) {
                Ok(stream) => {
                    self.reader = BufReader::new(stream.try_clone()?);
                    self.writer = stream;
                    self.peer = peer;
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            ClientError::Io(std::io::Error::other("no seed address to reconnect to"))
        }))
    }

    /// Splits the connection into an independent send half and receive
    /// half so one thread can keep requests in flight while another
    /// drains responses as the server produces them. Responses still
    /// arrive in request order. Unlike [`Client::request`], split halves
    /// never reconnect: a mid-stream disconnect surfaces as an error on
    /// both halves.
    #[must_use]
    pub fn split(self) -> (ClientSender, ClientReader) {
        (
            ClientSender {
                writer: self.writer,
            },
            ClientReader {
                reader: self.reader,
                line: self.line,
            },
        )
    }
}

/// The write half of a [`Client::split`] connection.
#[derive(Debug)]
pub struct ClientSender {
    writer: NetStream,
}

impl ClientSender {
    /// Writes one request without waiting for its response; the paired
    /// [`ClientReader::recv`] observes it in order.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.writer.write_all(request.to_line().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }
}

/// The read half of a [`Client::split`] connection.
#[derive(Debug)]
pub struct ClientReader {
    reader: BufReader<NetStream>,
    line: String,
}

impl ClientReader {
    /// Reads the next in-order response.
    ///
    /// # Errors
    ///
    /// I/O failures, an early close, or an unparseable response line.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(ClientError::Closed);
        }
        Response::from_line(self.line.trim_end()).map_err(ClientError::Protocol)
    }
}

fn open(
    fabric: &NetFabric,
    peer: SocketAddr,
    timeout: Option<Duration>,
) -> Result<NetStream, ClientError> {
    // The timeout bounds the connect too: a plain `TcpStream::connect`
    // against a partitioned host (packets silently dropped, no RST) blocks
    // for the OS SYN-retry window — minutes — which is exactly the hang
    // the read/write timeouts exist to prevent.
    let stream = fabric.dial(peer, timeout)?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    Ok(stream)
}

/// One-shot convenience: connect (with [`DEFAULT_TIMEOUT`]), send
/// `request`, return the response.
///
/// # Errors
///
/// See [`Client::request`].
pub fn call(addr: impl ToSocketAddrs, request: &Request) -> Result<Response, ClientError> {
    Client::connect(addr)?.request(request)
}
