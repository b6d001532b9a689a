//! Helpers shared by the socket suites (the bench crate's fabric,
//! process-pool and hostile-line suites include this file too): a
//! watchdog that turns a hang into a failure, per-test socket paths, a
//! raw line client whose reads and writes all have deadlines, and the
//! serving engine's refusal checks.
#![allow(dead_code)]

use oqsc_serve::{MuxStats, Server, ServerConfig, Stream};
use std::io::{BufRead, BufReader, Write};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a test body may run under [`watchdog`] before it counts
/// as hung.
pub const HANG_LIMIT: Duration = Duration::from_secs(120);

/// Runs `body` on its own thread and fails the test with a message if
/// it has not finished within [`HANG_LIMIT`], so a hang is a failure
/// instead of a test binary that never exits. A panic in `body` fails
/// the test as usual.
pub fn watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || tx.send(body()));
    match rx.recv_timeout(HANG_LIMIT) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => {
            panic!("watchdog: still running after {HANG_LIMIT:?}; treating it as hung")
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("the body panicked"))
        }
    }
}

/// A socket path unique to this test process and `name`.
pub fn socket_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("oqsc-test-{}-{name}.sock", std::process::id()))
        .display()
        .to_string()
}

/// Binds a server at `addr` and runs it on its own thread until a
/// `SHUTDOWN`; joining the handle yields its final statistics.
pub fn spawn_server(addr: &str, config: ServerConfig) -> JoinHandle<MuxStats> {
    let server = Server::bind(addr, config).expect("bind server");
    std::thread::spawn(move || server.run().expect("serve"))
}

/// How long a raw client read or write may block.
const RAW_DEADLINE: Duration = Duration::from_secs(30);

/// A line client that sends arbitrary bytes, over either transport.
pub struct RawClient {
    writer: Stream,
    reader: BufReader<Stream>,
}

impl RawClient {
    pub fn connect(addr: &str) -> RawClient {
        RawClient::with_deadline(addr, RAW_DEADLINE)
    }

    /// A client whose every read and write gives up after `deadline`.
    pub fn with_deadline(addr: &str, deadline: Duration) -> RawClient {
        let writer = Stream::connect(addr).expect("connect");
        writer
            .set_timeouts(deadline, deadline)
            .expect("set deadlines");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        RawClient { writer, reader }
    }

    /// Sends one request line and reads its response, handing back an
    /// I/O error (a deadline firing included) instead of failing.
    pub fn try_ask(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut response = String::new();
        self.reader.read_line(&mut response)?;
        Ok(response.trim().to_string())
    }

    /// Reads one full response line.
    pub fn read_response(&mut self) -> String {
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        assert!(
            response.ends_with('\n'),
            "endpoint must answer a full line, got {response:?}"
        );
        response.trim().to_string()
    }

    /// Sends raw bytes (not necessarily a valid line) and reads one
    /// response line.
    pub fn send_raw(&mut self, bytes: &[u8]) -> String {
        self.writer.write_all(bytes).expect("write");
        self.read_response()
    }

    /// Sends `bytes` one at a time, `pause` apart, then reads the
    /// response line: a slow writer whose every request spans polls.
    pub fn trickle(&mut self, bytes: &[u8], pause: Duration) -> String {
        for byte in bytes {
            self.writer.write_all(&[*byte]).expect("write byte");
            std::thread::sleep(pause);
        }
        self.read_response()
    }

    pub fn ask(&mut self, line: &str) -> String {
        self.send_raw(format!("{line}\n").as_bytes())
    }
}

/// The serving engine's own refusals on one connection: an unknown verb
/// and session, a duplicate open, a truncated batch and a double finish
/// each earn an `ERR`, and session 5 is still served end to end between
/// them. Run against a server directly and through a router.
pub fn assert_engine_refusals(client: &mut RawClient) {
    assert!(client.ask("NONSENSE").starts_with("ERR "));
    let unknown = client.ask("FEED 99 1#0");
    assert!(unknown.starts_with("ERR unknown session"), "{unknown}");
    assert_eq!(client.ask("OPEN 5 format 0"), "OK 5 0");
    let again = client.ask("OPEN 5 format 0");
    assert!(again.starts_with("ERR "), "duplicate open: {again}");
    assert_eq!(client.ask("FEED 5 1#01"), "OK 5 4");
    let truncated = client.ask("FEEDS 5 3 01");
    assert!(
        truncated.starts_with("ERR "),
        "truncated batch: {truncated}"
    );
    assert_eq!(client.ask("FEEDS 5 2 1# 01"), "OK 5 8", "batched feed");
    let outcome = client.ask("FINISH 5");
    assert!(outcome.starts_with("OUTCOME 5 "), "got: {outcome}");
    let twice = client.ask("FINISH 5");
    assert!(twice.starts_with("ERR "), "double finish: {twice}");
}
