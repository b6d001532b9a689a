//! The benchmark's side of the wire: starting and stopping an
//! in-process [`Server`] (or a [`Router`] in front of one), and the
//! closed-loop client every serve window runs on.
//!
//! Every socket operation here has a deadline. The repo's `LineClient`
//! reads without one, so the client speaks the line protocol over a
//! plain `UnixStream` with read and write timeouts instead; a server
//! that stops answering fails the window with a message instead of
//! wedging the run.

use crate::plan::{ConnPlan, Req, SessionPlan, Shape, Step};
use crate::report::Tally;
use crate::trace::{ns_since, Span};
use oqsc_serve::{MuxStats, Router, RouterConfig, Server, ServerConfig};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll interval of every blocking read.
const READ_POLL: Duration = Duration::from_millis(100);
/// Longest a single write may block.
const WRITE_DEADLINE: Duration = Duration::from_secs(5);
/// How long past the window's end outstanding responses may take.
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);
/// How long a `SHUTDOWN` may take to stop a server or router.
const STOP_DEADLINE: Duration = Duration::from_secs(30);

/// A background server or router thread.
pub struct Endpoint {
    /// Socket path (relative to the working directory).
    pub addr: String,
    handle: JoinHandle<std::io::Result<Option<MuxStats>>>,
}

/// Binds and starts an engine with `shape`'s budgets at `dir/name.sock`
/// (with a spill store at `dir/name.spill` when the shape has one).
pub fn start_server(dir: &Path, name: &str, shape: &Shape) -> std::io::Result<Endpoint> {
    let addr = dir.join(format!("{name}.sock")).display().to_string();
    let spill_store = shape.spill.then(|| dir.join(format!("{name}.spill")));
    if let Some(path) = &spill_store {
        let _ = std::fs::remove_file(path);
    }
    let server = Server::bind(
        &addr,
        ServerConfig {
            threads: shape.connections,
            mux: shape.mux,
            read_timeout: Duration::from_millis(20),
            spill_store,
        },
    )?;
    let handle = std::thread::spawn(move || server.run().map(Some));
    Ok(Endpoint { addr, handle })
}

/// Binds and starts a router at `dir/name.sock` fronting `engines`, with
/// one handler thread per client connection.
pub fn start_router(
    dir: &Path,
    name: &str,
    engines: Vec<String>,
    threads: usize,
) -> std::io::Result<Endpoint> {
    let addr = dir.join(format!("{name}.sock")).display().to_string();
    let router = Router::bind(
        &addr,
        engines,
        RouterConfig {
            threads,
            read_timeout: Duration::from_millis(20),
        },
    )?;
    let handle = std::thread::spawn(move || router.run().map(|()| None));
    Ok(Endpoint { addr, handle })
}

/// Connects one client stream with deadlines set.
pub fn connect(addr: &str) -> std::io::Result<UnixStream> {
    let s = UnixStream::connect(addr)?;
    s.set_read_timeout(Some(READ_POLL))?;
    s.set_write_timeout(Some(WRITE_DEADLINE))?;
    Ok(s)
}

/// Reads one newline-terminated line by `deadline`. Partial bytes
/// survive read timeouts (`read_until` keeps them in `buf`).
fn read_line_by(
    reader: &mut BufReader<UnixStream>,
    buf: &mut Vec<u8>,
    deadline: Instant,
) -> Result<String, String> {
    loop {
        match reader.read_until(b'\n', buf) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(_) if buf.last() == Some(&b'\n') => {
                let line = String::from_utf8_lossy(buf).trim().to_string();
                buf.clear();
                return Ok(line);
            }
            Ok(_) => return Err("server closed the connection mid-line".to_string()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return Err("no response before the deadline".to_string());
                }
            }
            Err(e) => return Err(format!("read failed: {e}")),
        }
    }
}

/// Sends `SHUTDOWN` and waits for the endpoint's thread to end. Returns
/// the engine's final statistics (`None` for a router).
pub fn stop(ep: Endpoint) -> Result<Option<MuxStats>, String> {
    let deadline = Instant::now() + STOP_DEADLINE;
    let answer = (|| {
        let mut s = connect(&ep.addr).map_err(|e| format!("connect for SHUTDOWN: {e}"))?;
        s.write_all(b"SHUTDOWN\n")
            .map_err(|e| format!("write SHUTDOWN: {e}"))?;
        let mut reader = BufReader::new(s);
        read_line_by(&mut reader, &mut Vec::new(), deadline)
    })()?;
    if answer != "OK shutdown" {
        return Err(format!("SHUTDOWN answered {answer:?}"));
    }
    join(ep)
}

/// Waits (with a deadline) for an endpoint that was already told to
/// shut down, e.g. an engine behind a router that broadcast `SHUTDOWN`.
pub fn join(ep: Endpoint) -> Result<Option<MuxStats>, String> {
    let deadline = Instant::now() + STOP_DEADLINE;
    while !ep.handle.is_finished() {
        if Instant::now() >= deadline {
            return Err(format!("{} did not stop after SHUTDOWN", ep.addr));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    match ep.handle.join() {
        Ok(Ok(stats)) => Ok(stats),
        Ok(Err(e)) => Err(format!("{} failed: {e}", ep.addr)),
        Err(_) => Err(format!("{} panicked", ep.addr)),
    }
}

/// What one connection saw during a window.
#[derive(Default)]
pub struct ConnRun {
    /// Requests answered correctly, or not (`FINISH` requests are
    /// tallied later, when their outcome is checked).
    pub tally: Tally,
    /// Requests answered.
    pub requests: u64,
    /// Tokens acknowledged by `FEEDS` responses.
    pub tokens: u64,
    /// Request latencies, µs (write of the line to read of the answer).
    pub request_us: Vec<f64>,
    /// Session latencies, ms (`OPEN` written to `OUTCOME` read).
    pub session_ms: Vec<f64>,
    /// Served `OUTCOME` lines, to check against direct runs.
    pub outcomes: Vec<(SessionPlan, String)>,
    /// When the last response was read.
    pub last: Option<Instant>,
    /// When each response was read, seconds since the window started.
    pub answered_s: Vec<f64>,
    /// Peak RSS (MiB) once `replay_requests` responses were read.
    pub rss_mb: Option<f64>,
    /// `serve.session` / `serve.request` spans (traced windows only).
    pub spans: Vec<Span>,
}

/// Checks one non-`FINISH` response against what a correct server says.
fn check(req: &Req, line: &str) -> Result<(), String> {
    let id = req.plan.id;
    let want = match req.step {
        Step::Open => format!("OK {id} 0"),
        Step::Feed { pos, .. } => format!("OK {id} {pos}"),
        Step::Finish => unreachable!("outcomes are checked against direct runs"),
    };
    if line == want {
        Ok(())
    } else {
        Err(format!("{} answered {line:?}, expected {want:?}", req.line))
    }
}

/// Runs one connection's closed loop: `window` sessions in flight, one
/// request outstanding each, new requests until `window_end`, then a
/// drain of the outstanding ones by `window_end + DRAIN_DEADLINE`.
pub fn drive_conn(
    stream: UnixStream,
    mut plan: ConnPlan,
    shape: &Shape,
    start: Instant,
    window_end: Instant,
    epoch: Option<Instant>,
    span_base: u64,
) -> ConnRun {
    let (window, rss_after) = (shape.window, shape.replay_requests);
    let mut run = ConnRun::default();
    let deadline = window_end + DRAIN_DEADLINE;
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            run.tally.fail(format!("clone stream: {e}"));
            return run;
        }
    };
    let mut writer = stream;
    // (request, written at, span id)
    let mut inflight: VecDeque<(Req, Instant, u64)> = VecDeque::with_capacity(window);
    // per slot: when its session's OPEN was written, and its span id
    let mut opened: Vec<(Instant, u64)> = vec![(Instant::now(), 0); window];
    let mut next_span = span_base;
    let mut send = |req: Req,
                    inflight: &mut VecDeque<(Req, Instant, u64)>,
                    opened: &mut Vec<(Instant, u64)>|
     -> Result<(), String> {
        let line = format!("{}\n", req.line);
        let at = Instant::now();
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write {}: {e}", req.line))?;
        next_span += 1;
        if req.step == Step::Open {
            next_span += 1;
            opened[req.slot] = (at, next_span - 1);
        }
        inflight.push_back((req, at, next_span));
        Ok(())
    };
    for slot in 0..window {
        if let Err(e) = send(plan.next(slot), &mut inflight, &mut opened) {
            run.tally.fail(e);
            return run;
        }
    }
    let mut buf = Vec::new();
    while let Some((req, at, span_id)) = inflight.pop_front() {
        let line = match read_line_by(&mut reader, &mut buf, deadline) {
            Ok(line) => line,
            Err(e) => {
                run.tally.fail(format!("{}: {e}", req.line));
                for (req, _, _) in inflight.drain(..) {
                    run.tally.fail(format!("{}: abandoned ({e})", req.line));
                }
                break;
            }
        };
        let now = Instant::now();
        run.requests += 1;
        run.last = Some(now);
        run.answered_s.push(now.duration_since(start).as_secs_f64());
        if run.answered_s.len() == rss_after {
            run.rss_mb = Some(crate::report::peak_rss_mb());
        }
        run.request_us
            .push(now.duration_since(at).as_secs_f64() * 1e6);
        let (session_start, session_span) = opened[req.slot];
        if let Some(epoch) = epoch {
            run.spans.push(Span {
                id: span_id,
                parent: Some(session_span),
                name: "serve.request",
                start: ns_since(epoch, at),
                end: ns_since(epoch, now),
            });
        }
        match req.step {
            Step::Finish => {
                run.session_ms
                    .push(now.duration_since(session_start).as_secs_f64() * 1e3);
                if let Some(epoch) = epoch {
                    run.spans.push(Span {
                        id: session_span,
                        parent: None,
                        name: "serve.session",
                        start: ns_since(epoch, session_start),
                        end: ns_since(epoch, now),
                    });
                }
                run.outcomes.push((req.plan, line));
            }
            Step::Feed { tokens, .. } => match check(&req, &line) {
                Ok(()) => {
                    run.tally.ok();
                    run.tokens += tokens as u64;
                }
                Err(e) => run.tally.fail(e),
            },
            Step::Open => match check(&req, &line) {
                Ok(()) => run.tally.ok(),
                Err(e) => run.tally.fail(e),
            },
        }
        if now < window_end {
            if let Err(e) = send(plan.next(req.slot), &mut inflight, &mut opened) {
                run.tally.fail(e);
                for (req, _, _) in inflight.drain(..) {
                    run.tally
                        .fail(format!("{}: abandoned after a write failure", req.line));
                }
                break;
            }
        }
    }
    run
}

/// A whole window over `streams` (one closed loop per stream).
pub struct Window {
    /// Per-connection results.
    pub conns: Vec<ConnRun>,
    /// Window start to the last response read, seconds.
    pub elapsed_s: f64,
}

impl Window {
    /// Tokens acknowledged per second.
    pub fn tokens_per_s(&self) -> f64 {
        self.conns.iter().map(|c| c.tokens).sum::<u64>() as f64 / self.elapsed_s
    }

    /// Requests answered.
    pub fn requests(&self) -> u64 {
        self.conns.iter().map(|c| c.requests).sum()
    }

    /// Requests every connection answered.
    pub fn common_prefix(&self) -> usize {
        self.conns
            .iter()
            .map(|c| c.answered_s.len())
            .min()
            .unwrap_or(0)
    }

    /// Wall time per request on one connection over the first `n`
    /// requests of each, µs (averaged over connections). Windows that
    /// follow the same schedules send the same first `n` requests, so
    /// this compares two paths on identical work.
    pub fn prefix_us(&self, n: usize) -> f64 {
        let n = n.clamp(1, self.common_prefix().max(1));
        let per: f64 = self
            .conns
            .iter()
            .map(|c| c.answered_s.get(n - 1).copied().unwrap_or(f64::NAN) / n as f64)
            .sum();
        per * 1e6 / self.conns.len().max(1) as f64
    }
}

/// Runs one closed loop per stream for `dur`; connection `i` follows
/// schedule `conn_base + i`.
pub fn run_window(
    streams: Vec<UnixStream>,
    shape: &Shape,
    pool: &[crate::plan::Word],
    seed: u64,
    conn_base: u64,
    dur: Duration,
    epoch: Option<Instant>,
) -> Window {
    let start = Instant::now();
    let window_end = start + dur;
    let conns: Vec<ConnRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(i, stream)| {
                let conn = conn_base + i as u64;
                let plan = ConnPlan::new(seed, conn, pool, shape);
                scope.spawn(move || {
                    drive_conn(stream, plan, shape, start, window_end, epoch, conn << 48)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut run = ConnRun::default();
                    run.tally.fail("client thread panicked");
                    run
                })
            })
            .collect()
    });
    let last = conns.iter().filter_map(|c| c.last).max().unwrap_or(start);
    Window {
        elapsed_s: last.duration_since(start).as_secs_f64().max(1e-9),
        conns,
    }
}
