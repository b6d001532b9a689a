//! The serving front end: [`serve_lines`] on a Unix socket *or* a TCP
//! port, speaking the line protocol against one shared [`MuxEngine`].
//!
//! A single `SHUTDOWN` request (from any connection) drains the whole
//! endpoint without signals or self-connects: every connection closes
//! at its next idle poll. Per-session ordering is the client's contract
//! — the engine serializes operations on one id through its shard lock,
//! and a client that wants a session's tokens in stream order must send
//! them in order on one connection.
//!
//! Hostile request lines (overlong, non-UTF8) are the shared loop's
//! business ([`crate::transport`]): they cost one `ERR` response and a
//! bounded resync, never a panic, a dropped connection, or an unbounded
//! allocation.
//!
//! With a spill store attached, a graceful `SHUTDOWN` flushes every
//! live and warm session into the store, so a server restarted on the
//! same store rehydrates mid-stream sessions instead of losing them.

use crate::catalog::AnyDecider;
use crate::mux::{MuxConfig, MuxEngine, MuxStats};
use crate::protocol::{outcome_line, parse_request, stats_line, Request};
use crate::transport::{serve_lines, Drain, Listener};
use oqsc_machine::CheckpointStore;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Server sizing: open connections, the engine's tier budgets, and the
/// connections' read-poll cadence.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connections served at once, one handler thread each; further
    /// clients wait in the kernel backlog until one closes.
    pub threads: usize,
    /// The multiplexing engine's budgets.
    pub mux: MuxConfig,
    /// Per-read timeout on handler connections. Blocked reads wake at
    /// this cadence to notice the shutdown flag; partial request lines
    /// survive the timeout, so slow writers are never truncated.
    pub read_timeout: Duration,
    /// Checkpoint store path for the spill tier. Opened if it exists
    /// (recovering a torn tail), created otherwise; on graceful
    /// shutdown every resident session is flushed into it.
    pub spill_store: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            mux: MuxConfig::default(),
            read_timeout: Duration::from_millis(50),
            spill_store: None,
        }
    }
}

/// A bound, not-yet-running server. Binding is separate from running so
/// callers (the CLI, tests) can report readiness before blocking.
pub struct Server {
    listener: Listener,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` — `host:port` for TCP, a filesystem path for a Unix
    /// socket. Unix paths get the stale-vs-live discipline of
    /// [`bind_unix_socket`](crate::transport::bind_unix_socket); a path a live server answers on is refused.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = Listener::bind(addr)?;
        Ok(Server { listener, config })
    }

    /// The bound address in dialable form — for TCP the *actual*
    /// address, so binding port `0` reports the kernel-chosen port.
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// Serves until a `SHUTDOWN` request, then returns the engine's
    /// final statistics. With a spill store attached, resident sessions
    /// are flushed into it before returning; a Unix socket file is
    /// removed on return.
    pub fn run(self) -> std::io::Result<MuxStats> {
        let engine = match &self.config.spill_store {
            Some(path) => {
                let store = if path.exists() {
                    CheckpointStore::recover_for::<AnyDecider>(path).map(|(store, _report)| store)
                } else {
                    CheckpointStore::create_for::<AnyDecider>(path)
                }
                .map_err(|e| std::io::Error::other(e.to_string()))?;
                MuxEngine::<AnyDecider>::with_spill(self.config.mux, store)
            }
            None => MuxEngine::<AnyDecider>::new(self.config.mux),
        };
        let done = AtomicBool::new(false);
        serve_lines(
            self.listener,
            self.config.threads,
            self.config.read_timeout,
            Drain::AtIdlePoll,
            &done,
            || |line: &str| respond(&engine, line, &done),
        );
        engine
            .flush_to_spill()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(engine.stats())
    }
}

/// Applies one request to the engine and renders the response line.
fn respond(engine: &MuxEngine<AnyDecider>, line: &str, done: &AtomicBool) -> String {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(msg) => return format!("ERR {msg}"),
    };
    match request {
        Request::Open { id, kind, seed } => match engine.open(id, kind.build(seed)) {
            Ok(()) => format!("OK {id} 0"),
            Err(e) => format!("ERR {e}"),
        },
        Request::Feed { id, word } => match engine.feed(id, &word) {
            Ok(position) => format!("OK {id} {position}"),
            Err(e) => format!("ERR {e}"),
        },
        // The batched fast path: the whole batch lands on the session
        // as one `feed_slice` call and one budget-enforcement pass.
        Request::Feeds { id, words } => match engine.feed(id, &words.concat()) {
            Ok(position) => format!("OK {id} {position}"),
            Err(e) => format!("ERR {e}"),
        },
        Request::Finish { id } => match engine.finish(id) {
            Ok(out) => outcome_line(id, &out),
            Err(e) => format!("ERR {e}"),
        },
        Request::Stats => stats_line(&engine.stats()),
        Request::Shutdown => {
            done.store(true, Ordering::SeqCst);
            "OK shutdown".to_string()
        }
    }
}
