//! Either-transport plumbing shared by every line-protocol endpoint:
//! Unix domain sockets and TCP behind one listener/stream pair, the one
//! connection loop ([`serve_lines`]) and the one client ([`LineClient`]).
//!
//! Addresses containing `:` are TCP `host:port`; everything else is a
//! Unix socket path. That one rule is shared by the serving tier, the
//! router and the distributed sweep fabric, so `--serve`, `--drive`,
//! `--route` and `--fabric-*` all accept either form interchangeably.
//!
//! The server, the router and the fabric coordinator differ only in
//! what they answer to a request line; [`serve_lines`] owns everything
//! else: accepting under a connection cap, the bounded line reader
//! (a request line is read through a hard [`MAX_LINE_BYTES`] cap, so a
//! client streaming gigabytes without a newline costs one bounded
//! buffer and one `ERR` response, never an unbounded allocation), read
//! polls, write deadlines and the shutdown order.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Longest accepted request line in bytes, newline included. Generous —
/// a maximal `FEEDS` line is a few KiB — but a hard wall against
/// hostile clients.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// `host:port` (TCP) vs socket path (Unix): addresses with a `:` dial
/// TCP, everything else names a filesystem socket.
pub fn is_tcp_addr(addr: &str) -> bool {
    addr.contains(':')
}

/// Binds a Unix socket at `path`, replacing a *stale* socket file left
/// by a dead server — and only a stale one. A leftover path is
/// probe-connected first: if a live server answers, binding fails with
/// [`AddrInUse`](std::io::ErrorKind::AddrInUse) instead of silently
/// clobbering it out from under its clients, and a path that is not a
/// socket at all (a regular file, a directory) is never removed.
///
/// Shared by [`Server`](crate::Server), the [`Router`](crate::Router)
/// and the distributed sweep fabric's coordinator listener, so every
/// line-protocol endpoint in the workspace gets the same stale-vs-live
/// discipline.
pub fn bind_unix_socket(path: &Path) -> std::io::Result<UnixListener> {
    if let Ok(meta) = std::fs::symlink_metadata(path) {
        use std::os::unix::fs::FileTypeExt;
        if !meta.file_type().is_socket() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!(
                    "{} exists and is not a socket; refusing to replace it",
                    path.display()
                ),
            ));
        }
        if UnixStream::connect(path).is_ok() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!(
                    "a live server is already listening on {}; shut it down first",
                    path.display()
                ),
            ));
        }
        // Nothing answered: a stale socket file from a dead server.
        std::fs::remove_file(path)?;
    }
    UnixListener::bind(path)
}

/// A listening endpoint on either transport.
pub enum Listener {
    /// A Unix socket listener plus the path it owns (removed by the
    /// server on shutdown).
    Unix(UnixListener, PathBuf),
    /// A TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `addr` on the transport its shape selects, non-blocking.
    /// Unix paths get the stale-vs-live discipline of
    /// [`bind_unix_socket`].
    pub fn bind(addr: &str) -> std::io::Result<Listener> {
        if is_tcp_addr(addr) {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            Ok(Listener::Tcp(listener))
        } else {
            let path = PathBuf::from(addr);
            let listener = bind_unix_socket(&path)?;
            listener.set_nonblocking(true)?;
            Ok(Listener::Unix(listener, path))
        }
    }

    /// Accepts one connection, or fails with `WouldBlock` when none is
    /// pending (listeners never block; accepted streams do).
    pub fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }

    /// The bound address in the same shape [`Listener::bind`] accepts —
    /// for TCP the *actual* address, so binding port `0` reports the
    /// kernel-chosen port a client can dial.
    pub fn local_addr(&self) -> String {
        match self {
            Listener::Unix(_, path) => path.display().to_string(),
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<tcp>".to_string()),
        }
    }
}

/// Dials each address `addrs` resolves to in turn, under the connect
/// deadline: the first that answers wins, else the last error stands
/// (`localhost` may resolve to `::1` ahead of a server on 127.0.0.1).
fn dial_tcp(addrs: impl ToSocketAddrs) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::other("the address resolves to nothing");
    for addr in addrs.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, CONNECT_DEADLINE) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// One connection on either transport.
pub enum Stream {
    /// A Unix-socket connection.
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to `addr` on the transport its shape selects. A TCP
    /// connect tries each address `addr` resolves to, giving up on each
    /// after 5 s; a Unix connect either lands in the listener's backlog
    /// or is refused at once.
    pub fn connect(addr: &str) -> std::io::Result<Stream> {
        if is_tcp_addr(addr) {
            dial_tcp(addr).map(Stream::Tcp)
        } else {
            UnixStream::connect(addr).map(Stream::Unix)
        }
    }

    /// An independently owned handle to the same connection.
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    /// Sets the read and write timeouts: a blocked call fails with
    /// `WouldBlock`/`TimedOut` after `read` or `write`.
    pub fn set_timeouts(&self, read: Duration, write: Duration) -> std::io::Result<()> {
        let (read, write) = (Some(read), Some(write));
        match self {
            Stream::Unix(s) => s.set_read_timeout(read).and(s.set_write_timeout(write)),
            Stream::Tcp(s) => s.set_read_timeout(read).and(s.set_write_timeout(write)),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// What one bounded line read produced.
#[derive(Debug, PartialEq, Eq)]
pub enum LineStatus {
    /// A complete line is in the buffer (newline-terminated, or the
    /// final unterminated line before EOF).
    Line,
    /// Clean EOF with nothing buffered.
    Closed,
    /// The line crossed [`MAX_LINE_BYTES`] without a newline; the rest
    /// of it is still unread. Respond `ERR` and [`discard_line`].
    Overflow,
}

/// Reads one request line into `buf` through the [`MAX_LINE_BYTES`]
/// cap. Timeouts (`WouldBlock`/`TimedOut`) surface as `Err` with the
/// partial line preserved in `buf` — the caller checks its shutdown
/// flag and calls again; a client writing one byte per 60 ms must never
/// see its request truncated at a timeout boundary.
pub fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
) -> std::io::Result<LineStatus> {
    loop {
        // Read at most one byte past the cap: enough to tell "exactly
        // at the limit" from "over it", never an unbounded append.
        let room = (MAX_LINE_BYTES + 1).saturating_sub(buf.len());
        if room == 0 {
            return Ok(LineStatus::Overflow);
        }
        let n = reader.by_ref().take(room as u64).read_until(b'\n', buf)?;
        if n == 0 {
            return Ok(if buf.is_empty() {
                LineStatus::Closed
            } else {
                LineStatus::Line
            });
        }
        if buf.last() == Some(&b'\n') {
            return Ok(LineStatus::Line);
        }
        // Filled `room` bytes without a newline; loop to flag overflow.
    }
}

/// Consumes the remainder of an oversized line in bounded chunks.
/// Returns `true` once the newline has been swallowed (the connection
/// is back in sync), `false` on EOF. Timeouts surface as `Err`, same
/// contract as [`read_line_bounded`].
pub fn discard_line<R: BufRead>(reader: &mut R) -> std::io::Result<bool> {
    let mut scratch = Vec::with_capacity(1024);
    loop {
        scratch.clear();
        let n = reader.by_ref().take(1024).read_until(b'\n', &mut scratch)?;
        if n == 0 {
            return Ok(false);
        }
        if scratch.last() == Some(&b'\n') {
            return Ok(true);
        }
    }
}

/// Whether an I/O error is a read or write timeout firing.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Longest a response write may block before the connection is dropped
/// (a client that stops reading cannot pin a handler forever).
const WRITE_DEADLINE: Duration = Duration::from_secs(10);

/// How often the acceptor polls for a new connection, for `done`, and
/// for a free slot under the connection cap.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// What an open connection does once the endpoint's `done` flag is set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drain {
    /// Close at the next idle poll or after the next response.
    AtIdlePoll,
    /// Keep answering until the peer hangs up.
    AtHangup,
}

/// A handler's claim on one of the loop's connection slots. Dropping it
/// — when the handler ends, panics included — frees the slot and wakes
/// the acceptor, so a waiting client or a `SHUTDOWN` that just set
/// `done` is seen at once rather than at the next poll.
struct Slot<'a>(&'a AtomicUsize, mpsc::Sender<()>);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
        let _ = self.1.send(());
    }
}

/// The one connection loop behind every line-protocol endpoint: one
/// acceptor, one handler thread per connection and at most
/// `max_connections` open (further clients wait in the kernel backlog).
/// Each connection gets a fresh handler from `connection`, which turns
/// a request line into a response line; reads poll every
/// `read_timeout` and keep partial lines, hostile lines earn typed
/// `ERR`s, and a write that blocks 10 s drops the connection.
///
/// A handler sets `done` to end the endpoint. Then: stop accepting,
/// drop the listener at once (a late dial is refused or reset, never
/// left in a dead backlog), join the handlers as `drain` says, and
/// remove the Unix socket file.
pub fn serve_lines<H, F>(
    listener: Listener,
    max_connections: usize,
    read_timeout: Duration,
    drain: Drain,
    done: &AtomicBool,
    connection: F,
) where
    F: Fn() -> H + Sync,
    H: FnMut(&str) -> String,
{
    let socket_file = match &listener {
        Listener::Unix(_, path) => Some(path.clone()),
        Listener::Tcp(_) => None,
    };
    let closing = || drain == Drain::AtIdlePoll && done.load(Ordering::SeqCst);
    let (closing, connection) = (&closing, &connection);
    let open = AtomicUsize::new(0);
    let (wake, woken) = mpsc::channel();
    std::thread::scope(|scope| {
        while !done.load(Ordering::SeqCst) {
            let accepted = if open.load(Ordering::SeqCst) < max_connections.max(1) {
                listener.accept().ok()
            } else {
                None
            };
            // Nothing pending, no free slot, or a transient failure (an
            // aborted handshake, a full fd table): wait for the next
            // poll or for a handler to end, whichever comes first.
            let Some(stream) = accepted else {
                let _ = woken.recv_timeout(ACCEPT_POLL);
                continue;
            };
            open.fetch_add(1, Ordering::SeqCst);
            let slot = Slot(&open, wake.clone());
            scope.spawn(move || {
                let _slot = slot;
                serve_connection(stream, read_timeout, closing, connection());
            });
        }
        drop(listener);
    });
    if let Some(path) = socket_file {
        let _ = std::fs::remove_file(path);
    }
}

/// Repeats `read` through read-timeout polls. `None` ends the
/// connection: an I/O error, or a poll that finds it `closing`.
fn polled<T>(
    closing: &impl Fn() -> bool,
    mut read: impl FnMut() -> std::io::Result<T>,
) -> Option<T> {
    loop {
        match read() {
            Ok(value) => return Some(value),
            Err(e) if is_timeout(&e) && !closing() => {}
            Err(_) => return None,
        }
    }
}

/// Serves one accepted connection until the peer hangs up, an I/O error,
/// or `closing` turns true at a poll or after a response.
fn serve_connection(
    stream: Stream,
    read_timeout: Duration,
    closing: &impl Fn() -> bool,
    mut handle: impl FnMut(&str) -> String,
) {
    if stream.set_timeouts(read_timeout, WRITE_DEADLINE).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let mut response = match polled(closing, || read_line_bounded(&mut reader, &mut buf)) {
            None | Some(LineStatus::Closed) => return,
            Some(LineStatus::Overflow) => {
                // Swallow the rest of the oversized line, then answer
                // once the connection is back in sync.
                if polled(closing, || discard_line(&mut reader)) != Some(true) {
                    return;
                }
                buf.clear();
                format!("ERR line too long (max {MAX_LINE_BYTES} bytes)")
            }
            Some(LineStatus::Line) => match std::str::from_utf8(&std::mem::take(&mut buf)) {
                Ok(request) if request.trim().is_empty() => continue,
                Ok(request) => handle(request.trim()),
                Err(_) => "ERR request is not valid UTF-8".to_string(),
            },
        };
        response.push('\n');
        if writer.write_all(response.as_bytes()).is_err() || closing() {
            return;
        }
    }
}

/// How long a [`LineClient`] waits for a TCP connection to be accepted
/// by the kernel.
const CONNECT_DEADLINE: Duration = Duration::from_secs(5);

/// How long a [`LineClient`] read or write may block: a response slower
/// than this is reported as a `TimedOut` error instead of a hang.
const CLIENT_DEADLINE: Duration = Duration::from_secs(60);

/// The one line-protocol client: one request line out, one response
/// line in, over either transport, with every connect, read and write
/// under a deadline. After a deadline error the exchange is out of
/// step; drop the client.
pub struct LineClient {
    writer: Stream,
    reader: BufReader<Stream>,
}

/// Request lines in flight per pipeline window — small enough that the
/// un-read responses can never fill both socket buffers and deadlock
/// the writer, large enough to amortize the round trip.
const PIPELINE_WINDOW: usize = 64;

impl LineClient {
    /// Connects to a line-protocol endpoint at `addr`, with a 60 s
    /// deadline on every read and write.
    pub fn connect(addr: &str) -> std::io::Result<LineClient> {
        let writer = Stream::connect(addr)?;
        writer.set_timeouts(CLIENT_DEADLINE, CLIENT_DEADLINE)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(LineClient { writer, reader })
    }

    /// Reads one response line; a deadline that fires is a `TimedOut`
    /// error.
    fn recv_line(&mut self) -> std::io::Result<String> {
        use std::io::ErrorKind;
        let mut buf = Vec::new();
        let (kind, msg) = match read_line_bounded(&mut self.reader, &mut buf) {
            Ok(LineStatus::Line) => return Ok(String::from_utf8_lossy(&buf).trim().to_string()),
            Ok(LineStatus::Closed) => (ErrorKind::UnexpectedEof, "server closed the connection"),
            Ok(LineStatus::Overflow) => (ErrorKind::InvalidData, "response line too long"),
            Err(e) if is_timeout(&e) => (ErrorKind::TimedOut, "no response before the deadline"),
            Err(e) => return Err(e),
        };
        Err(std::io::Error::new(kind, msg))
    }

    /// Sends one request line and reads its response line verbatim
    /// (`ERR` responses included — the router relays them untouched).
    pub fn ask(&mut self, request: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{request}\n").as_bytes())?;
        self.recv_line()
    }

    /// Pipelines `requests`: writes them in windows of a few dozen
    /// lines, then reads the matching responses, so `n` requests cost
    /// ~`n / window` round trips instead of `n`. Responses come back in
    /// request order (the protocol is strictly one line per request).
    pub fn pipeline(&mut self, requests: &[String]) -> std::io::Result<Vec<String>> {
        let mut responses = Vec::with_capacity(requests.len());
        for window in requests.chunks(PIPELINE_WINDOW) {
            for request in window {
                self.writer.write_all(format!("{request}\n").as_bytes())?;
            }
            for _ in window {
                responses.push(self.recv_line()?);
            }
        }
        Ok(responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn bounded_reads_cap_hostile_lines_and_resync() {
        // A normal line, an oversized one, then a normal one again.
        let mut data = Vec::new();
        data.extend_from_slice(b"FIRST\n");
        data.extend_from_slice(&vec![b'x'; MAX_LINE_BYTES + 500]);
        data.push(b'\n');
        data.extend_from_slice(b"SECOND\n");
        let mut reader = Cursor::new(data);
        let mut buf = Vec::new();
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf).unwrap(),
            LineStatus::Line
        );
        assert_eq!(buf, b"FIRST\n");
        buf.clear();
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf).unwrap(),
            LineStatus::Overflow
        );
        assert!(
            buf.len() <= MAX_LINE_BYTES + 1,
            "allocation must stay bounded"
        );
        buf.clear();
        assert!(discard_line(&mut reader).unwrap(), "resync on the newline");
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf).unwrap(),
            LineStatus::Line
        );
        assert_eq!(buf, b"SECOND\n");
        buf.clear();
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf).unwrap(),
            LineStatus::Closed
        );
    }

    #[test]
    fn final_unterminated_line_is_still_delivered() {
        let mut reader = Cursor::new(b"TAIL".to_vec());
        let mut buf = Vec::new();
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf).unwrap(),
            LineStatus::Line
        );
        assert_eq!(buf, b"TAIL");
    }

    #[test]
    fn tcp_dials_every_resolved_address_until_one_answers() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let live = listener.local_addr().expect("bound address");
        // `localhost` names a server bound on 127.0.0.1 whatever order
        // the resolver lists its addresses in.
        Stream::connect(&format!("localhost:{}", live.port())).expect("dial localhost");
        // A refused first address falls through to the live second one.
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        dial_tcp(&[dead, live][..]).expect("second address answers");
        let refused = dial_tcp(&[dead][..]).expect_err("nothing listens");
        assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn address_shapes_pick_the_transport() {
        assert!(is_tcp_addr("127.0.0.1:7700"));
        assert!(is_tcp_addr("[::1]:7700"));
        assert!(!is_tcp_addr("/tmp/server.sock"));
        assert!(!is_tcp_addr("relative.sock"));
    }
}
