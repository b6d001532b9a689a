//! Deterministic serve inputs: the word pool and each connection's
//! request schedule, both pure functions of the seed.
//!
//! A connection keeps `window` sessions in flight with one request
//! outstanding per session. Responses come back in request order, so
//! each response releases the next request of the *oldest* session and
//! the schedule is strict round-robin over the window's slots. That is
//! what makes the live socket run a prefix of [`ConnPlan::sequence`],
//! and the in-process replays exact.

use oqsc_lang::{random_member, random_nonmember, LdisjInstance, Sym};
use oqsc_serve::{DeciderKind, MuxConfig, LDISJ_REPS};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Threads of the in-process engine replay that estimates lock wait:
/// the host has two cores, so at most two.
pub const LOCK_THREADS: usize = 2;

/// One serve workload's shape.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Language parameter of every word.
    pub k: u32,
    /// Distinct words in the pool (half members, half `t = 1`
    /// non-members).
    pub pool: usize,
    /// Tokens per `FEEDS` request.
    pub tokens_per_request: usize,
    /// Tokens per chunk inside one `FEEDS` line.
    pub chunk: usize,
    /// Client connections, one client thread and one server handler
    /// thread each (the host has two cores, so at most two).
    pub connections: usize,
    /// Sessions in flight per connection.
    pub window: usize,
    /// Engine budgets (the server's and the replays').
    pub mux: MuxConfig,
    /// Whether a spill store sits behind the warm tier.
    pub spill: bool,
    /// Requests per connection in the deterministic in-process replay.
    pub replay_requests: usize,
    /// Mid-stream sessions the checkpoint/LZ4/store layers are timed on.
    pub micro_sessions: usize,
    /// Decider seeds the per-procedure ns/token figures average over.
    pub micro_seeds: usize,
    /// Whether the traced run also measures the router hop.
    pub route: bool,
}

/// `serve-churn`: light k=3 deciders, 32-token requests, a live budget
/// far below the in-flight set and a warm budget below the warm working
/// set, so tier transitions and the spill store dominate.
///
/// One connection: the engine then sees one fixed request order, so
/// which hydrations read the spill store is a function of the seed and
/// not of how two connections happen to interleave, and two busy
/// threads (client and handler) fit the host's two cores. With two
/// connections a run's store hits and tails followed the host's
/// scheduling (the four threads ping-pong on two cores, and a handler
/// preempted while holding the shared warm-tier or store lock stalls
/// the other).
pub fn churn(smoke: bool) -> Shape {
    Shape {
        name: "serve-churn",
        k: 3,
        pool: if smoke { 8 } else { 64 },
        tokens_per_request: 32,
        chunk: 8,
        connections: 1,
        window: if smoke { 8 } else { 64 },
        mux: MuxConfig {
            live_bytes_budget: 2 << 10,
            warm_bytes_budget: 40 << 10,
            shards: 4,
            ..MuxConfig::default()
        },
        spill: true,
        replay_requests: if smoke { 400 } else { 20_000 },
        micro_sessions: if smoke { 4 } else { 64 },
        micro_seeds: if smoke { 2 } else { 8 },
        route: true,
    }
}

/// `serve-deep`: k=6 words (two 14-qubit registers per session), ~16k
/// tokens per request, everything resident, so decider feed dominates.
pub fn deep(smoke: bool) -> Shape {
    Shape {
        name: "serve-deep",
        k: if smoke { 4 } else { 6 },
        pool: if smoke { 2 } else { 8 },
        tokens_per_request: if smoke { 4096 } else { 16_384 },
        chunk: 1024,
        connections: 2,
        window: if smoke { 4 } else { 8 },
        mux: MuxConfig::default(),
        spill: false,
        replay_requests: if smoke { 64 } else { 408 },
        micro_sessions: 2,
        micro_seeds: if smoke { 1 } else { 2 },
        route: false,
    }
}

/// SplitMix64 finalizer: the benchmark's seed derivation.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Each amplified copy's Grover iteration count `j` for decider seed
/// `seed`: the catalog seeds a `StdRng` with it and each complement
/// recognizer draws A2's point, A3's measurement seed and A3's `j` seed,
/// in that order (pinned against the public constructors by a test in
/// `layers`).
pub fn grover_js(seed: u64, k: u32) -> [usize; LDISJ_REPS] {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut js = [0; LDISJ_REPS];
    for j in &mut js {
        let _a2_point = rng.next_u64();
        let _measure = rng.next_u64();
        *j = (rng.next_u64() % (1u64 << k)) as usize;
    }
    js
}

/// One pool word with its pre-rendered `FEEDS` tails.
pub struct Word {
    /// The instance the word encodes.
    pub inst: LdisjInstance,
    /// The encoded word.
    pub syms: Vec<Sym>,
    /// Whether the word is in `L_DISJ`.
    pub member: bool,
    /// `tails[f]` is `" <n> <chunk1> … <chunkn>"` of the session's
    /// `f`-th `FEEDS` request.
    pub tails: Vec<String>,
}

/// Generates the pool: even indices members, odd ones `t = 1`
/// non-members.
pub fn make_pool(shape: &Shape, seed: u64) -> Vec<Word> {
    let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0x9001));
    (0..shape.pool)
        .map(|i| {
            let inst = if i % 2 == 0 {
                random_member(shape.k, &mut rng)
            } else {
                random_nonmember(shape.k, 1, &mut rng)
            };
            let syms = inst.encode();
            let tails = syms
                .chunks(shape.tokens_per_request)
                .map(|req| {
                    let chunks: Vec<String> = req
                        .chunks(shape.chunk)
                        .map(oqsc_lang::token::to_string)
                        .collect();
                    format!(" {} {}", chunks.len(), chunks.join(" "))
                })
                .collect();
            Word {
                member: inst.is_member(),
                inst,
                syms,
                tails,
            }
        })
        .collect()
}

/// Who a session is: its id, decider kind and seed, and its pool word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionPlan {
    /// Session id (unique per connection index).
    pub id: u64,
    /// `ldisj-dense` or `ldisj-adaptive`, alternating.
    pub kind: DeciderKind,
    /// Decider constructor seed.
    pub seed: u64,
    /// Index into the pool.
    pub word: usize,
}

/// What a request asks, and what a correct answer says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// `OPEN` → `OK id 0`.
    Open,
    /// `FEEDS` of `tokens` → `OK id pos`.
    Feed {
        /// Tokens in the request.
        tokens: usize,
        /// Stream position after it.
        pos: u64,
    },
    /// `FINISH` → `OUTCOME id …`.
    Finish,
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Req {
    /// The request line, without the newline.
    pub line: String,
    /// The session it belongs to.
    pub plan: SessionPlan,
    /// Its step.
    pub step: Step,
    /// The window slot it occupies.
    pub slot: usize,
}

/// One connection's request schedule.
pub struct ConnPlan<'a> {
    seed: u64,
    conn: u64,
    connections: usize,
    pool: &'a [Word],
    k: u32,
    window: usize,
    tokens_per_request: usize,
    next_session: u64,
    slots: Vec<(SessionPlan, usize)>,
}

impl<'a> ConnPlan<'a> {
    /// The schedule of connection index `conn` (distinct indices give
    /// disjoint session ids).
    pub fn new(seed: u64, conn: u64, pool: &'a [Word], shape: &Shape) -> Self {
        let window = shape.window;
        let mut plan = ConnPlan {
            seed,
            conn,
            connections: shape.connections,
            pool,
            k: shape.k,
            window,
            tokens_per_request: shape.tokens_per_request,
            next_session: 0,
            slots: Vec::with_capacity(window),
        };
        for _ in 0..window {
            let s = plan.new_session();
            plan.slots.push((s, 0));
        }
        plan
    }

    /// The next session. All sessions have the same length and the
    /// schedule is round-robin, so the window's sessions start and finish
    /// together in waves, and session `n` sits at position `n % window`
    /// of wave `n / window`. Everything that sets a session's cost is a
    /// function of that position alone, so every wave carries the same
    /// mix:
    /// - kinds alternate dense/adaptive;
    /// - words alternate members/non-members (pairs of positions), the
    ///   word pair itself taken block by block: the fleet's blocks of four
    ///   positions (a wave on every connection, in turn) take consecutive
    ///   pairs of the pool, so a serve-deep wave (2 connections x 2
    ///   blocks, 4 pairs) holds every pair once and serve-churn's waves
    ///   alternate between the two halves of its 32 pairs;
    /// - each copy's Grover count `j` (A3's cost grows with it, 5x faster
    ///   on non-members) takes its own point of an even grid over
    ///   `0..2^k`: the decider seed is the first candidate drawing it.
    ///
    /// Without this a 20 s window holds a few dozen k=6 sessions whose
    /// costs differ 100-fold, and the seed, not the program, would set
    /// the medians. The seed still draws the words and every other coin.
    fn new_session(&mut self) -> SessionPlan {
        let n = self.next_session as usize;
        self.next_session += 1;
        let id = (self.conn << 40) | n as u64;
        let window = self.window;
        let (wave, p) = (n / window, n % window);
        let grid = 1usize << self.k;
        let points = LDISJ_REPS * window;
        // The midpoint of grid cell `LDISJ_REPS * p + copy`.
        let want = |copy: usize| ((2 * (LDISJ_REPS * p + copy) + 1) * grid) / (2 * points);
        let seed = (0u64..)
            .map(|i| mix64(self.seed ^ mix64(id) ^ mix64(i)))
            .find(|&h| {
                grover_js(h, self.k)
                    .iter()
                    .enumerate()
                    .all(|(copy, &j)| j == want(copy))
            })
            .expect("some candidate seed draws every grid point");
        let member = (p / 2) % 2 == 0;
        let pairs = (self.pool.len() / 2).max(1);
        let block = (wave * self.connections + self.conn as usize) * window.div_ceil(4) + p / 4;
        let word = 2 * (block % pairs) + usize::from(!member);
        SessionPlan {
            id,
            kind: if p % 2 == 0 {
                DeciderKind::LdisjDense
            } else {
                DeciderKind::LdisjAdaptive
            },
            seed,
            word: word % self.pool.len(),
        }
    }

    /// The next request of `slot`'s session; after its `FINISH` the slot
    /// moves on to a fresh session.
    pub fn next(&mut self, slot: usize) -> Req {
        let (plan, step) = self.slots[slot];
        let word = &self.pool[plan.word];
        let feeds = word.tails.len();
        let id = plan.id;
        let (line, what) = if step == 0 {
            (
                format!("OPEN {id} {} {}", plan.kind.name(), plan.seed),
                Step::Open,
            )
        } else if step <= feeds {
            let start = (step - 1) * self.tokens_per_request;
            let end = (start + self.tokens_per_request).min(word.syms.len());
            (
                format!("FEEDS {id}{}", word.tails[step - 1]),
                Step::Feed {
                    tokens: end - start,
                    pos: end as u64,
                },
            )
        } else {
            (format!("FINISH {id}"), Step::Finish)
        };
        if step == feeds + 1 {
            let fresh = self.new_session();
            self.slots[slot] = (fresh, 0);
        } else {
            self.slots[slot].1 += 1;
        }
        Req {
            line,
            plan,
            step: what,
            slot,
        }
    }

    /// The first `n` requests in wire order (round-robin over slots).
    pub fn sequence(mut self, n: usize) -> Vec<Req> {
        (0..n).map(|i| self.next(i % self.window)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seed_determined_and_positions_add_up() {
        let shape = churn(true);
        let pool = make_pool(&shape, 7);
        let again = make_pool(&shape, 7);
        assert!(pool.iter().zip(&again).all(|(a, b)| a.syms == b.syms));
        assert!(pool.iter().step_by(2).all(|w| w.member));
        assert!(pool.iter().skip(1).step_by(2).all(|w| !w.member));
        let a: Vec<String> = ConnPlan::new(7, 0, &pool, &shape)
            .sequence(500)
            .into_iter()
            .map(|r| r.line)
            .collect();
        let b: Vec<String> = ConnPlan::new(7, 0, &pool, &shape)
            .sequence(500)
            .into_iter()
            .map(|r| r.line)
            .collect();
        assert_eq!(a, b);
        let other: Vec<String> = ConnPlan::new(8, 0, &pool, &shape)
            .sequence(500)
            .into_iter()
            .map(|r| r.line)
            .collect();
        assert_ne!(a, other);

        // Every session's FEEDS lines decode to exactly its word.
        let mut fed: std::collections::HashMap<u64, Vec<Sym>> = Default::default();
        for req in ConnPlan::new(7, 1, &pool, &shape).sequence(2000) {
            match (req.step, oqsc_serve::parse_request(&req.line).unwrap()) {
                (Step::Feed { tokens, pos }, oqsc_serve::Request::Feeds { id, words }) => {
                    let got = fed.entry(id).or_default();
                    got.extend(words.concat());
                    assert_eq!(words.concat().len(), tokens);
                    assert_eq!(got.len() as u64, pos);
                }
                (Step::Finish, oqsc_serve::Request::Finish { id }) => {
                    assert_eq!(fed[&id], pool[req.plan.word].syms);
                }
                (Step::Open, oqsc_serve::Request::Open { id, .. }) => {
                    assert_eq!(id, req.plan.id)
                }
                other => panic!("step and line disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn deep_lines_fit_the_line_cap() {
        let shape = deep(false);
        let longest = shape.tokens_per_request + shape.tokens_per_request / shape.chunk + 64;
        assert!(longest < oqsc_serve::MAX_LINE_BYTES);
    }
}
