//! The reference driver: a deterministic mixed fleet pushed through the
//! serving protocol, plus the same fleet run directly — the two sides
//! of the CI `cmp`.
//!
//! [`demo_fleet`] builds one session per catalog kind times
//! [`SESSIONS_PER_KIND`] member/non-member words (all derived from one
//! base seed), [`drive_fleet`] plays it through a serving endpoint
//! (Unix socket or TCP, direct engine or router), and
//! [`direct_outcome_lines`] computes the identical `OUTCOME` lines with
//! plain [`run_decider_stream`] — no engine, no socket. Byte-equal
//! outputs are the serving rung's end-to-end correctness check.
//!
//! Two feed shapes drive the same fleet: [`FeedMode::Chunks`] sends one
//! `FEED` round trip per [`FEED_CHUNK`]-token slice, round-robin across
//! sessions (maximal interleaving, so the eviction tiers churn);
//! [`FeedMode::Batched`] pipelines one `FEEDS` line per session — the
//! fast path whose speedup the bench record pins. [`DrivePhase`] splits
//! a drive across a server restart: `FirstHalf` feeds half of every
//! word and leaves the sessions mid-stream, `SecondHalf` reopens
//! nothing and relies on spill-store hydration to finish them.

use crate::catalog::DeciderKind;
use crate::protocol::{feeds_line, outcome_line};
use crate::transport::LineClient;
use oqsc_core::sweep::derive_seed;
use oqsc_lang::{random_member, random_nonmember, Sym};
use oqsc_machine::run_decider_stream;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sessions per catalog kind in the demo fleet.
pub const SESSIONS_PER_KIND: usize = 2;

/// Tokens per `FEED` line (and per `FEEDS` chunk) when driving.
pub const FEED_CHUNK: usize = 8;

/// Language parameter for the demo words (`k = 1` keeps every backend
/// fast while still exercising the full `x#y#` shape).
const DEMO_K: u32 = 1;

/// How a drive's tokens travel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeedMode {
    /// One `FEED` round trip per chunk, round-robin across sessions.
    Chunks,
    /// One pipelined `FEEDS` line per session — the batched fast path.
    Batched,
}

/// Which slice of every session's word a drive covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrivePhase {
    /// Open, feed everything, finish.
    Full,
    /// Open and feed the first half of every word, then stop — the
    /// sessions stay mid-stream for a shutdown/restart to preserve.
    FirstHalf,
    /// Feed the second half and finish, *without* opening: every
    /// session must hydrate from the server's spill store.
    SecondHalf,
}

/// One demo session: id, kind, constructor seed, and the word to feed.
pub type FleetEntry = (u64, DeciderKind, u64, Vec<Sym>);

/// The deterministic mixed fleet: every catalog kind, alternating
/// member/non-member words, all seeds derived from `base_seed`.
pub fn demo_fleet(base_seed: u64) -> Vec<FleetEntry> {
    let mut fleet = Vec::new();
    for (ki, kind) in DeciderKind::ALL.into_iter().enumerate() {
        for s in 0..SESSIONS_PER_KIND {
            let i = ki * SESSIONS_PER_KIND + s;
            let seed = derive_seed(base_seed, i);
            let mut rng = StdRng::seed_from_u64(derive_seed(base_seed ^ 0x17EA7, i));
            let word = if s % 2 == 0 {
                random_member(DEMO_K, &mut rng).encode()
            } else {
                random_nonmember(DEMO_K, 1, &mut rng).encode()
            };
            fleet.push((i as u64, kind, seed, word));
        }
    }
    fleet
}

/// The fleet's `OUTCOME` lines from direct, uninterrupted runs — the
/// reference the served lines must match byte for byte.
pub fn direct_outcome_lines(base_seed: u64) -> Vec<String> {
    demo_fleet(base_seed)
        .into_iter()
        .map(|(id, kind, seed, word)| outcome_line(id, &run_decider_stream(kind.build(seed), word)))
        .collect()
}

/// Turns an `ERR` response into an I/O error carrying the request.
fn ok_or_err(request: &str, response: String) -> std::io::Result<String> {
    if let Some(msg) = response.strip_prefix("ERR ") {
        return Err(std::io::Error::other(format!("{request}: {msg}")));
    }
    Ok(response)
}

/// Sends a slab of request lines — pipelined in [`FeedMode::Batched`],
/// one round trip each in [`FeedMode::Chunks`] — and checks every
/// response for `ERR`.
fn send_all(
    client: &mut LineClient,
    mode: FeedMode,
    requests: &[String],
) -> std::io::Result<Vec<String>> {
    let responses = match mode {
        FeedMode::Batched => client.pipeline(requests)?,
        FeedMode::Chunks => requests
            .iter()
            .map(|req| client.ask(req))
            .collect::<std::io::Result<_>>()?,
    };
    requests
        .iter()
        .zip(responses)
        .map(|(req, resp)| ok_or_err(req, resp))
        .collect()
}

/// Drives the demo fleet through a serving endpoint (`addr` is a Unix
/// socket path or TCP `host:port`; an engine or a router, the protocol
/// is the same) and returns the `OUTCOME` lines in id order —
/// [`DrivePhase::FirstHalf`] returns no lines, it leaves the fleet
/// mid-stream on purpose.
pub fn drive_fleet(
    addr: &str,
    base_seed: u64,
    mode: FeedMode,
    phase: DrivePhase,
) -> std::io::Result<Vec<String>> {
    let mut client = LineClient::connect(addr)?;
    let entries: Vec<FleetEntry> = demo_fleet(base_seed)
        .into_iter()
        .map(|(id, kind, seed, word)| {
            let half = word.len() / 2;
            let slice = match phase {
                DrivePhase::Full => word,
                DrivePhase::FirstHalf => word[..half].to_vec(),
                DrivePhase::SecondHalf => word[half..].to_vec(),
            };
            (id, kind, seed, slice)
        })
        .collect();

    if phase != DrivePhase::SecondHalf {
        let opens: Vec<String> = entries
            .iter()
            .map(|(id, kind, seed, _)| format!("OPEN {id} {} {seed}", kind.name()))
            .collect();
        send_all(&mut client, mode, &opens)?;
    }

    match mode {
        FeedMode::Chunks => {
            // Round-robin chunk slices: maximal cross-session
            // interleaving, one round trip per chunk.
            let mut cursors: Vec<(u64, &[Sym], usize)> = entries
                .iter()
                .map(|(id, _, _, word)| (*id, word.as_slice(), 0))
                .collect();
            loop {
                let mut progressed = false;
                for (id, word, pos) in &mut cursors {
                    if *pos < word.len() {
                        let end = (*pos + FEED_CHUNK).min(word.len());
                        let text = oqsc_lang::token::to_string(&word[*pos..end]);
                        let request = format!("FEED {id} {text}");
                        ok_or_err(&request, client.ask(&request)?)?;
                        *pos = end;
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
        }
        FeedMode::Batched => {
            let feeds: Vec<String> = entries
                .iter()
                .filter(|(_, _, _, word)| !word.is_empty())
                .map(|(id, _, _, word)| {
                    let chunks: Vec<Vec<Sym>> =
                        word.chunks(FEED_CHUNK).map(|c| c.to_vec()).collect();
                    feeds_line(*id, &chunks)
                })
                .collect();
            send_all(&mut client, mode, &feeds)?;
        }
    }

    if phase == DrivePhase::FirstHalf {
        return Ok(Vec::new());
    }
    let finishes: Vec<String> = entries
        .iter()
        .map(|(id, _, _, _)| format!("FINISH {id}"))
        .collect();
    send_all(&mut client, mode, &finishes)
}

/// [`drive_fleet`] in its original shape: per-chunk `FEED` round trips
/// over the whole fleet.
pub fn drive_socket(addr: &str, base_seed: u64) -> std::io::Result<Vec<String>> {
    drive_fleet(addr, base_seed, FeedMode::Chunks, DrivePhase::Full)
}

/// Requests the endpoint's `STATS` line.
pub fn stats_socket(addr: &str) -> std::io::Result<String> {
    let mut client = LineClient::connect(addr)?;
    let response = client.ask("STATS")?;
    ok_or_err("STATS", response)
}

/// Sends `SHUTDOWN`, draining the endpoint's accept pool (and, through
/// a router, every engine behind it).
pub fn shutdown_socket(addr: &str) -> std::io::Result<()> {
    let mut client = LineClient::connect(addr)?;
    let response = client.ask("SHUTDOWN")?;
    ok_or_err("SHUTDOWN", response).map(|_| ())
}
