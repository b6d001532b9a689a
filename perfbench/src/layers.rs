//! Per-layer measurements for the serve workloads, all made from the
//! outside: the recorded request schedule replayed on an in-process
//! [`MuxEngine`], and the checkpoint, LZ4, store, decider and quantum
//! layers timed on the workload's own words and sessions.

use crate::plan::{mix64, ConnPlan, Req, SessionPlan, Shape, Step, Word};
use crate::report::Tally;
use crate::trace::{ns_since, Span};
use oqsc_core::{ConsistencyChecker, FormatChecker, GroverStreamer};
use oqsc_lang::Sym;
use oqsc_machine::{CheckpointStore, Session, StreamingDecider};
use oqsc_quantum::{AdaptiveState, GroverLayout, StateVector};
use oqsc_serve::{parse_request, AnyDecider, DeciderKind, MuxEngine, MuxStats, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The outcome of one in-process replay.
pub struct Replay {
    /// Engine-call time per request, µs.
    pub call_us: Vec<f64>,
    /// Parse (and batch concatenation) time over all `FEEDS`, ns.
    pub parse_ns: f64,
    /// Tokens in those `FEEDS`.
    pub tokens: u64,
    /// The engine's exact counters afterwards.
    pub stats: MuxStats,
    /// `replay.request` spans with `protocol.parse` / `mux.call` children.
    pub spans: Vec<Span>,
    /// Failed engine calls (a correct engine has none).
    pub tally: Tally,
    /// Per session: its plan and the stream position it reached.
    pub reached: Vec<(SessionPlan, u64)>,
}

/// The replay schedule: the first `replay_requests` requests of
/// connections `0..connections`, exactly as the live client would send
/// them.
pub fn schedules(shape: &Shape, pool: &[Word], seed: u64, connections: usize) -> Vec<Vec<Req>> {
    (0..connections as u64)
        .map(|c| ConnPlan::new(seed, c, pool, shape).sequence(shape.replay_requests))
        .collect()
}

fn engine(shape: &Shape, dir: &Path, name: &str) -> Result<MuxEngine<AnyDecider>, String> {
    if !shape.spill {
        return Ok(MuxEngine::new(shape.mux));
    }
    let path = dir.join(format!("{name}.spill"));
    let _ = std::fs::remove_file(&path);
    let store = CheckpointStore::create_for::<AnyDecider>(&path)
        .map_err(|e| format!("create replay store: {e}"))?;
    Ok(MuxEngine::with_spill(shape.mux, store))
}

/// Applies one request the way the server's connection loop does.
fn apply(
    engine: &MuxEngine<AnyDecider>,
    req: &Req,
    epoch: Instant,
    span_id: u64,
    out: &mut Replay,
) {
    let t0 = Instant::now();
    let parsed = parse_request(&req.line).map(|r| match r {
        Request::Feeds { words, .. } => Some(words.concat()),
        _ => None,
    });
    let t1 = Instant::now();
    let result = match (&parsed, req.step) {
        (Ok(_), Step::Open) => engine.open(req.plan.id, req.plan.kind.build(req.plan.seed)),
        (Ok(Some(word)), Step::Feed { .. }) => engine.feed(req.plan.id, word).map(|_| ()),
        (Ok(_), Step::Finish) => engine.finish(req.plan.id).map(|o| {
            black_box(o);
        }),
        _ => {
            out.tally
                .fail(format!("replay could not parse {}", req.line));
            return;
        }
    };
    let t2 = Instant::now();
    match result {
        Ok(()) => out.tally.ok(),
        Err(e) => out.tally.fail(format!("replay {}: {e}", req.line)),
    }
    if let Step::Feed { tokens, .. } = req.step {
        out.parse_ns += t1.duration_since(t0).as_nanos() as f64;
        out.tokens += tokens as u64;
    }
    out.call_us.push(t2.duration_since(t1).as_secs_f64() * 1e6);
    let (s0, s1, s2) = (
        ns_since(epoch, t0),
        ns_since(epoch, t1),
        ns_since(epoch, t2),
    );
    out.spans.push(Span {
        id: span_id,
        parent: None,
        name: "replay.request",
        start: s0,
        end: s2,
    });
    out.spans.push(Span {
        id: span_id + 1,
        parent: Some(span_id),
        name: "protocol.parse",
        start: s0,
        end: s1,
    });
    out.spans.push(Span {
        id: span_id + 2,
        parent: Some(span_id),
        name: "mux.call",
        start: s1,
        end: s2,
    });
}

fn empty_replay() -> Replay {
    Replay {
        call_us: Vec::new(),
        parse_ns: 0.0,
        tokens: 0,
        stats: MuxStats::default(),
        spans: Vec::new(),
        tally: Tally::default(),
        reached: Vec::new(),
    }
}

/// Replays `scheds` on a fresh engine: on one thread with the
/// connections interleaved request by request (the deterministic order
/// the exact counters come from), or on one thread per connection.
pub fn replay(
    shape: &Shape,
    scheds: &[Vec<Req>],
    dir: &Path,
    threads: usize,
    epoch: Instant,
) -> Result<Replay, String> {
    let engine = engine(shape, dir, &format!("replay{}x{threads}", scheds.len()))?;
    let mut out = empty_replay();
    if threads == 1 {
        let longest = scheds.iter().map(Vec::len).max().unwrap_or(0);
        let mut span = 1u64 << 56;
        for i in 0..longest {
            for sched in scheds {
                if let Some(req) = sched.get(i) {
                    apply(&engine, req, epoch, span, &mut out);
                    span += 3;
                }
            }
        }
    } else {
        let parts: Vec<Replay> = std::thread::scope(|scope| {
            let handles: Vec<_> = scheds
                .iter()
                .enumerate()
                .map(|(c, sched)| {
                    let engine = &engine;
                    scope.spawn(move || {
                        let mut part = empty_replay();
                        let mut span = (2u64 << 56) | ((c as u64) << 48);
                        for req in sched {
                            apply(engine, req, epoch, span, &mut part);
                            span += 3;
                        }
                        part
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked"))
                .collect()
        });
        for p in parts {
            out.call_us.extend(p.call_us);
            out.parse_ns += p.parse_ns;
            out.tokens += p.tokens;
            out.spans.extend(p.spans);
            out.tally.absorb(p.tally);
        }
    }
    out.stats = engine.stats();
    let mut reached: std::collections::BTreeMap<u64, (SessionPlan, u64)> = Default::default();
    for req in scheds.iter().flatten() {
        let e = reached.entry(req.plan.id).or_insert((req.plan, 0));
        if let Step::Feed { pos, .. } = req.step {
            e.1 = e.1.max(pos);
        }
    }
    out.reached = reached.into_values().collect();
    Ok(out)
}

/// Diffusions (`U_k S_k U_k`) the A3 copies of a session ran after
/// `fed` tokens: round `r` ends `k + 1 + 3r(m + 1)` tokens in and
/// diffuses iff `r ≤ j`.
pub fn diffusions(seed: u64, k: u32, fed: u64) -> u64 {
    let m = 1u64 << (2 * k);
    let rounds = fed.saturating_sub(u64::from(k) + 1) / (3 * (m + 1));
    crate::plan::grover_js(seed, k)
        .into_iter()
        .map(|j| (j as u64).min(rounds))
        .sum()
}

/// Checkpoint, LZ4 and store costs on mid-stream sessions.
pub struct TierCosts {
    /// Median `Session::suspend`, µs.
    pub suspend_us: f64,
    /// Median `Session::resume`, µs.
    pub resume_us: f64,
    /// Median LZ4 block compress of a checkpoint, µs.
    pub compress_us: f64,
    /// Median LZ4 block decompress, µs.
    pub decompress_us: f64,
    /// Median `CheckpointStore::append`, µs.
    pub append_us: f64,
    /// Median `CheckpointStore::latest`, µs.
    pub latest_us: f64,
    /// Mean raw / LZ4 checkpoint bytes for `[dense, adaptive]`.
    pub raw_bytes: [f64; 2],
    /// See `raw_bytes`.
    pub lz4_bytes: [f64; 2],
    /// Samples behind each median.
    pub samples: usize,
}

fn median_of(v: &[f64]) -> f64 {
    crate::stats::median(v).unwrap_or(0.0)
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Times suspend → compress → decompress → resume and store append →
/// latest on `shape.micro_sessions` sessions fed half of a pool word.
pub fn tier_costs(
    shape: &Shape,
    pool: &[Word],
    seed: u64,
    dir: &Path,
) -> Result<TierCosts, String> {
    let path = dir.join("tiers.spill");
    let _ = std::fs::remove_file(&path);
    let mut store =
        CheckpointStore::create_for::<AnyDecider>(&path).map_err(|e| format!("store: {e}"))?;
    let (mut sus, mut res, mut comp, mut decomp, mut app, mut lat) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut bytes = [[0.0f64; 2]; 2];
    let mut per_kind = [0usize; 2];
    for r in 0..shape.micro_sessions {
        let kind_ix = r % 2;
        let kind = [DeciderKind::LdisjDense, DeciderKind::LdisjAdaptive][kind_ix];
        let word = &pool[r % pool.len()].syms;
        let mut session = Session::new(kind.build(mix64(seed ^ (0x5E55 + r as u64))));
        session.feed_slice(&word[..word.len() / 2]);
        let t = Instant::now();
        let cp = black_box(session.suspend());
        sus.push(us(t));
        let raw = cp.as_bytes();
        let t = Instant::now();
        let packed = black_box(lz4_flex::block::compress(raw));
        comp.push(us(t));
        let t = Instant::now();
        let unpacked = lz4_flex::block::decompress(&packed, raw.len())
            .map_err(|e| format!("lz4 round trip: {e:?}"))?;
        decomp.push(us(t));
        if unpacked != raw {
            return Err("lz4 round trip changed a checkpoint".to_string());
        }
        let t = Instant::now();
        let resumed = Session::<AnyDecider>::resume(&cp).map_err(|e| format!("resume: {e}"))?;
        res.push(us(t));
        black_box(resumed.position());
        bytes[kind_ix][0] += raw.len() as f64;
        bytes[kind_ix][1] += packed.len() as f64;
        per_kind[kind_ix] += 1;
        let t = Instant::now();
        store
            .append(r as u64, &cp)
            .map_err(|e| format!("store append: {e}"))?;
        app.push(us(t));
    }
    for r in 0..shape.micro_sessions {
        let t = Instant::now();
        let cp = store
            .latest(r as u64)
            .map_err(|e| format!("store latest: {e}"))?;
        lat.push(us(t));
        if cp.is_none() {
            return Err(format!("store lost session {r}"));
        }
    }
    drop(store);
    let _ = std::fs::remove_file(&path);
    let mean = |kind: usize, which: usize| bytes[kind][which] / per_kind[kind].max(1) as f64;
    Ok(TierCosts {
        suspend_us: median_of(&sus),
        resume_us: median_of(&res),
        compress_us: median_of(&comp),
        decompress_us: median_of(&decomp),
        append_us: median_of(&app),
        latest_us: median_of(&lat),
        raw_bytes: [mean(0, 0), mean(1, 0)],
        lz4_bytes: [mean(0, 1), mean(1, 1)],
        samples: shape.micro_sessions,
    })
}

/// Per-procedure feed costs, ns per token, on the workload's words.
pub struct DeciderCosts {
    /// A1 format checker.
    pub a1: f64,
    /// A2 consistency checker.
    pub a2: f64,
    /// A3 on the dense backend.
    pub a3_dense: f64,
    /// A3 on the adaptive backend.
    pub a3_adaptive: f64,
    /// Words × seeds measured.
    pub samples: usize,
}

fn ns_per_token(total_ns: f64, tokens: usize) -> f64 {
    total_ns / tokens.max(1) as f64
}

/// Decider time of the replay's own work: every replayed session, fed
/// the tokens it reached in one `Session::feed_slice`. Returns ns.
pub fn replay_decider_ns(pool: &[Word], reached: &[(SessionPlan, u64)]) -> f64 {
    reached
        .iter()
        .map(|(plan, fed)| {
            let mut session = Session::new(plan.kind.build(plan.seed));
            let word = &pool[plan.word].syms[..*fed as usize];
            let t = Instant::now();
            session.feed_slice(word);
            let ns = t.elapsed().as_nanos() as f64;
            black_box(session.position());
            ns
        })
        .sum()
}

/// Feeds whole pool words to each procedure of the recognizer.
pub fn decider_costs(shape: &Shape, pool: &[Word], seed: u64) -> DeciderCosts {
    let (mut a1, mut a2, mut a3d, mut a3a) = (0.0, 0.0, 0.0, 0.0);
    let mut tokens = 0usize;
    let words = pool.len().min(2);
    for (w, word) in pool.iter().take(words).enumerate() {
        let syms: &[Sym] = &word.syms;
        for s in 0..shape.micro_seeds {
            let dseed = mix64(seed ^ (0xDEC1 + (w * 64 + s) as u64));
            let mut rng = StdRng::seed_from_u64(dseed);
            let mut d1 = FormatChecker::new();
            let t = Instant::now();
            d1.feed_all(syms);
            a1 += t.elapsed().as_nanos() as f64;
            black_box(d1.decide());
            let mut d2 = ConsistencyChecker::new(&mut rng);
            let t = Instant::now();
            d2.feed_all(syms);
            a2 += t.elapsed().as_nanos() as f64;
            black_box(d2.decide());
            let mut d3 = GroverStreamer::<StateVector>::new_in(&mut rng);
            let t = Instant::now();
            d3.feed_all(syms);
            a3d += t.elapsed().as_nanos() as f64;
            black_box(d3.decide());
            let mut d4 = GroverStreamer::<AdaptiveState>::new_in(&mut rng);
            let t = Instant::now();
            d4.feed_all(syms);
            a3a += t.elapsed().as_nanos() as f64;
            black_box(d4.decide());
            tokens += syms.len();
        }
    }
    DeciderCosts {
        a1: ns_per_token(a1, tokens),
        a2: ns_per_token(a2, tokens),
        a3_dense: ns_per_token(a3d, tokens),
        a3_adaptive: ns_per_token(a3a, tokens),
        samples: words * shape.micro_seeds,
    }
}

/// Dense-backend kernel costs at the workload's `k`.
pub struct QuantumCosts {
    /// Median ns per streamed-bit update (`apply_vx_bit`/`apply_wx_bit`).
    pub bit_update_ns: f64,
    /// Median µs per diffusion (`apply_uk`, `apply_sk`, `apply_uk`).
    pub diffusion_us: f64,
    /// Bytes the dense kernels read and write per diffusion (computed).
    pub bytes_per_diffusion: f64,
    /// Repetitions behind each median.
    pub samples: usize,
}

/// Times the A3 bit-mode and diffusion kernels on a dense register.
pub fn quantum_costs(shape: &Shape, pool: &[Word]) -> QuantumCosts {
    let layout = GroverLayout::for_k(shape.k);
    let mut state: StateVector = layout.phi_in();
    let x = pool[0].inst.x();
    let y = pool[0].inst.y();
    let reps = 15;
    let mut bits = Vec::with_capacity(reps);
    let mut diffs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for i in 0..layout.domain() {
            layout.apply_vx_bit(&mut state, i, x[i]);
            layout.apply_wx_bit(&mut state, i, y[i]);
        }
        bits.push(t.elapsed().as_nanos() as f64 / (2 * layout.domain()) as f64);
        let t = Instant::now();
        layout.apply_uk(&mut state);
        layout.apply_sk(&mut state);
        layout.apply_uk(&mut state);
        diffs.push(us(t));
    }
    black_box(&state);
    // U_k is one Hadamard pass per index qubit (2k of them) and S_k one
    // phase pass, each reading and writing every 16-byte amplitude.
    let n = layout.num_qubits();
    let passes = 2 * (2 * shape.k as usize) + 1;
    QuantumCosts {
        bit_update_ns: median_of(&bits),
        diffusion_us: median_of(&diffs),
        bytes_per_diffusion: (passes * (1usize << n) * 32) as f64,
        samples: reps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oqsc_serve::LDISJ_REPS;

    /// The copies' `j` as the public constructors draw them, read back
    /// through `GroverStreamer::j`.
    fn js_via_constructors(seed: u64, k: u32) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..LDISJ_REPS)
            .map(|_| {
                let _a2 = ConsistencyChecker::new(&mut rng);
                let mut a3 = GroverStreamer::<StateVector>::new_in(&mut rng);
                for _ in 0..k {
                    a3.feed(Sym::One);
                }
                a3.feed(Sym::Hash);
                a3.j()
            })
            .collect()
    }

    #[test]
    fn grover_js_match_the_constructors_draws() {
        for seed in 0..200u64 {
            for k in [2, 3, 6] {
                let seed = crate::plan::mix64(seed);
                assert_eq!(
                    crate::plan::grover_js(seed, k).to_vec(),
                    js_via_constructors(seed, k)
                );
            }
        }
    }

    #[test]
    fn diffusion_count_follows_round_boundaries() {
        let k = 2;
        let m = 1u64 << (2 * k);
        let round = 3 * (m + 1);
        let js = crate::plan::grover_js(99, k);
        assert_eq!(js.len(), LDISJ_REPS);
        assert!(js.iter().all(|&j| j < 1 << k));
        assert_eq!(diffusions(99, k, 0), 0);
        assert_eq!(diffusions(99, k, u64::from(k) + 1 + round - 1), 0);
        let one: u64 = js.iter().map(|&j| (j as u64).min(1)).sum();
        assert_eq!(diffusions(99, k, u64::from(k) + 1 + round), one);
        let all: u64 = js.iter().map(|&j| j as u64).sum();
        assert_eq!(diffusions(99, k, u64::MAX / 2), all);
    }
}
