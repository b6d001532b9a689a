//! The `serve-churn` and `serve-deep` workloads: a fleet of L_DISJ
//! recognizer sessions streamed over a Unix socket into an in-process
//! [`oqsc_serve::Server`], every served outcome checked against a
//! direct run.

use crate::client::{connect, run_window, start_router, start_server, stop, Endpoint, Window};
use crate::layers::{
    decider_costs, diffusions, quantum_costs, replay, replay_decider_ns, schedules, tier_costs,
};
use crate::plan::{make_pool, SessionPlan, Shape, Word, LOCK_THREADS};
use crate::report::{peak_rss_mb, RunResult, Tally};
use crate::stats::{median, p50_and_tail};
use crate::trace::{unaccounted_frac, write_spans};
use oqsc_machine::run_decider_stream;
use oqsc_serve::{outcome_line, parse_outcome_line};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Threads that check the served outcomes after a window (not timed).
const VERIFY_THREADS: usize = 2;

/// One set-up: generate the words, bind and start the server, connect
/// every client.
fn setup_once(
    shape: &Shape,
    seed: u64,
    dir: &Path,
) -> Result<(Vec<Word>, Endpoint, Vec<UnixStream>, f64), String> {
    let t = Instant::now();
    let pool = make_pool(shape, seed);
    let ep = start_server(dir, "engine", shape).map_err(|e| format!("start server: {e}"))?;
    let streams = connect_all(&ep.addr, shape.connections)?;
    Ok((pool, ep, streams, t.elapsed().as_secs_f64()))
}

fn connect_all(addr: &str, connections: usize) -> Result<Vec<UnixStream>, String> {
    (0..connections)
        .map(|_| connect(addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect {addr}: {e}"))
}

/// Checks every served `OUTCOME` line against `run_decider_stream` on
/// the same (kind, seed, word), and that no member word is rejected.
/// Returns `(non-member sessions, non-member accepts)`.
fn verify(pool: &[Word], outcomes: &[(SessionPlan, String)], tally: &mut Tally) -> (u64, u64) {
    let check = |(plan, line): &(SessionPlan, String)| -> Result<Option<bool>, String> {
        let word = &pool[plan.word];
        let direct = outcome_line(
            plan.id,
            &run_decider_stream(plan.kind.build(plan.seed), word.syms.iter().copied()),
        );
        if *line != direct {
            return Err(format!(
                "session {} ({}): served {line:?}, direct run gives {direct:?}",
                plan.id,
                plan.kind.name()
            ));
        }
        let accept = parse_outcome_line(line).map(|(_, o)| o.accept);
        match (word.member, accept) {
            (true, Some(true)) => Ok(None),
            (true, _) => Err(format!("session {}: member word rejected", plan.id)),
            (false, Some(a)) => Ok(Some(a)),
            (false, None) => Err(format!("session {}: unparsable outcome", plan.id)),
        }
    };
    let half = outcomes.len().div_ceil(VERIFY_THREADS).max(1);
    let results: Vec<Result<Option<bool>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = outcomes
            .chunks(half)
            .map(|part| scope.spawn(move || part.iter().map(check).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verify thread panicked"))
            .collect()
    });
    let (mut non, mut accepted) = (0, 0);
    for r in results {
        match r {
            Ok(None) => tally.ok(),
            Ok(Some(a)) => {
                tally.ok();
                non += 1;
                accepted += u64::from(a);
            }
            Err(e) => tally.fail(e),
        }
    }
    (non, accepted)
}

/// Folds a window's counts and outcome checks into the run's tally.
fn absorb_window(w: &mut Window, pool: &[Word], r: &mut RunResult, non: &mut (u64, u64)) {
    let mut outcomes = Vec::new();
    for c in &mut w.conns {
        r.tally.absorb(std::mem::take(&mut c.tally));
        outcomes.append(&mut c.outcomes);
    }
    let (n, a) = verify(pool, &outcomes, &mut r.tally);
    non.0 += n;
    non.1 += a;
}

/// Runs a serve workload. `seconds` is the measured window; the traced
/// run splits it between an untraced and a traced window.
pub fn run(shape: &Shape, seed: u64, seconds: u64, trace: bool, dir: &Path) -> RunResult {
    let mut r = RunResult::default();
    match run_inner(shape, seed, seconds, trace, dir, &mut r) {
        Ok(()) => {}
        Err(e) => r.tally.fail(e),
    }
    r
}

fn run_inner(
    shape: &Shape,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: &Path,
    r: &mut RunResult,
) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let (pool, ep, streams, dt) = setup_once(shape, seed, dir)?;
        setups.push(dt);
        if i + 1 < SETUPS {
            drop(streams);
            stop(ep)?;
        } else {
            kept = Some((pool, ep, streams));
        }
    }
    let (pool, ep, streams) = kept.expect("at least one set-up");
    let setup_s = median(&setups).unwrap_or(0.0);
    let mut non = (0u64, 0u64);
    let window = Duration::from_secs_f64(seconds as f64 / if trace { 2.0 } else { 1.0 });

    let mut main = run_window(streams, shape, &pool, seed, 0, window, None);
    // Memory after a fixed amount of work (the spill store's index grows
    // with every append), so a slow host does not read as a lean program.
    let rss = main.conns[0].rss_mb.unwrap_or_else(peak_rss_mb);
    if !trace {
        let requests = main.requests() as usize;
        let mut req_us: Vec<f64> = main
            .conns
            .iter()
            .flat_map(|c| c.request_us.clone())
            .collect();
        let mut sess_ms: Vec<f64> = main
            .conns
            .iter()
            .flat_map(|c| c.session_ms.clone())
            .collect();
        let tps = main.tokens_per_s();
        absorb_window(&mut main, &pool, r, &mut non);
        let ep_stats = stop(ep)?;
        r.metric(
            "setup_s",
            setup_s,
            "s",
            SETUPS,
            "median set-up: words, bind, connect",
        );
        r.metric(
            "tokens_per_s",
            tps,
            "1/s",
            requests,
            "FEEDS tokens acknowledged over the socket",
        );
        let (p50, tail) = p50_and_tail(&mut req_us).ok_or("no request answered")?;
        r.metric("request_p50_us", p50.value, "us", p50.samples, p50.label());
        r.report_only("request_tail_us", tail, "us");
        let (p50, tail) = p50_and_tail(&mut sess_ms).ok_or("no session finished")?;
        r.metric("session_p50_ms", p50.value, "ms", p50.samples, p50.label());
        r.report_only("session_tail_ms", tail, "ms");
        r.metric(
            "peak_rss_mb",
            rss,
            "MB",
            1,
            format!(
                "VmHWM after {} requests on connection 0 (MiB)",
                shape.replay_requests
            ),
        );
        if let Some(s) = ep_stats {
            r.note(
                "server counters (timing-dependent)",
                format!(
                    "evictions={} hydrations={} spills={} spill_hydrations={} peak_live={}",
                    s.evictions, s.hydrations, s.spills, s.spill_hydrations, s.peak_live
                ),
            );
        }
        note_nonmembers(r, non);
        return Ok(());
    }

    // Traced run. Every window below follows the same schedules
    // (connection indices 0 and 1) on a fresh engine, so their first
    // requests are identical work and their prefixes compare directly.
    absorb_window(&mut main, &pool, r, &mut non);
    stop(ep)?;
    let epoch = Instant::now();
    let traced_ep = start_server(dir, "traced", shape).map_err(|e| format!("start server: {e}"))?;
    let mut traced = run_window(
        connect_all(&traced_ep.addr, shape.connections)?,
        shape,
        &pool,
        seed,
        0,
        window,
        Some(epoch),
    );
    stop(traced_ep)?;
    let common = main.common_prefix().min(traced.common_prefix());
    let overhead = traced.prefix_us(common) / main.prefix_us(common) - 1.0;
    let mut spans: Vec<_> = traced
        .conns
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.spans))
        .collect();
    absorb_window(&mut traced, &pool, r, &mut non);

    if shape.route {
        let engine =
            start_server(dir, "route-engine", shape).map_err(|e| format!("route engine: {e}"))?;
        let router = start_router(dir, "router", vec![engine.addr.clone()], shape.connections)
            .map_err(|e| format!("router: {e}"))?;
        let mut routed = run_window(
            connect_all(&router.addr, shape.connections)?,
            shape,
            &pool,
            seed,
            0,
            window,
            None,
        );
        let common = main.common_prefix().min(routed.common_prefix());
        r.metric(
            "route.hop_us",
            routed.prefix_us(common) - main.prefix_us(common),
            "us",
            common * shape.connections,
            "routed minus direct wall per request, same requests",
        );
        absorb_window(&mut routed, &pool, r, &mut non);
        stop(router)?;
        // The router broadcast SHUTDOWN to its engine; wait for it.
        crate::client::join(engine)?;
    }

    // `one` replays the live schedules on one thread: the exact counters
    // and the engine time per request; `live` on one thread per
    // connection, as the server runs them. Lock wait is estimated on two
    // schedules, interleaved on one thread against one thread each; a
    // one-connection workload replays a second schedule only for that.
    let scheds = schedules(shape, &pool, seed, shape.connections);
    let mut one = replay(shape, &scheds, dir, 1, epoch)?;
    let mut live = match shape.connections {
        1 => None,
        n => Some(replay(shape, &scheds, dir, n, epoch)?),
    };
    let mut lock = if shape.connections == LOCK_THREADS {
        None
    } else {
        let pair = schedules(shape, &pool, seed, LOCK_THREADS);
        Some((
            replay(shape, &pair, dir, 1, epoch)?,
            replay(shape, &pair, dir, LOCK_THREADS, epoch)?,
        ))
    };
    r.tally.absorb(std::mem::take(&mut one.tally));
    for rp in live
        .iter_mut()
        .chain(lock.iter_mut().flat_map(|(a, b)| [a, b]))
    {
        r.tally.absorb(std::mem::take(&mut rp.tally));
    }
    let live = live.as_ref().unwrap_or(&one);
    let (seq, par) = lock.as_ref().map_or((&one, live), |(a, b)| (a, b));
    let n_req = one.call_us.len().max(1) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (call1, call_live) = (mean(&one.call_us), mean(&live.call_us));
    let lock_wait = mean(&par.call_us) - mean(&seq.call_us);
    let mut calls = one.call_us.clone();
    let (p50, tail) = p50_and_tail(&mut calls).ok_or("empty replay")?;
    // The untraced window's first `replay_requests` per connection are
    // exactly the replayed requests.
    let socket_us = main.prefix_us(shape.replay_requests);
    r.metric(
        "transport.request_us",
        socket_us - call_live,
        "us",
        one.call_us.len(),
        "socket wall per request minus the engine call of a replay on one thread per connection, same requests",
    );
    r.metric(
        "protocol.parse_ns_per_token",
        one.parse_ns / one.tokens.max(1) as f64,
        "ns",
        one.tokens as usize,
        "parse_request + batch concat on the workload's FEEDS lines",
    );
    r.metric("mux.feed_p50_us", p50.value, "us", p50.samples, p50.label());
    r.metric(
        "mux.feed_tail_us",
        tail.value,
        "us",
        tail.samples,
        tail.label(),
    );
    r.metric(
        "mux.lock_wait_us",
        lock_wait,
        "us",
        par.call_us.len(),
        "estimate: mean engine call over two schedules at 2 threads minus at 1",
    );
    let st = one.stats;
    let exact = "exact, deterministic replay";
    r.metric("mux.evictions", st.evictions as f64, "count", 1, exact);
    r.metric("mux.hydrations", st.hydrations as f64, "count", 1, exact);
    r.metric("mux.spills", st.spills as f64, "count", 1, exact);
    r.metric(
        "mux.spill_hydrations",
        st.spill_hydrations as f64,
        "count",
        1,
        exact,
    );

    let tiers = tier_costs(shape, &pool, seed, dir)?;
    let n = tiers.samples;
    r.metric(
        "session.suspend_us",
        tiers.suspend_us,
        "us",
        n,
        "median, mid-stream sessions",
    );
    r.metric(
        "session.resume_us",
        tiers.resume_us,
        "us",
        n,
        "median, mid-stream sessions",
    );
    r.metric("lz4.compress_us", tiers.compress_us, "us", n, "median");
    r.metric("lz4.decompress_us", tiers.decompress_us, "us", n, "median");
    r.metric(
        "checkpoint.dense.raw_bytes",
        tiers.raw_bytes[0],
        "B",
        n / 2,
        "mean, ldisj-dense at mid-word",
    );
    r.metric(
        "checkpoint.dense.lz4_bytes",
        tiers.lz4_bytes[0],
        "B",
        n / 2,
        "mean",
    );
    r.metric(
        "checkpoint.adaptive.raw_bytes",
        tiers.raw_bytes[1],
        "B",
        n / 2,
        "mean, ldisj-adaptive at mid-word",
    );
    r.metric(
        "checkpoint.adaptive.lz4_bytes",
        tiers.lz4_bytes[1],
        "B",
        n / 2,
        "mean",
    );
    r.metric("store.append_us", tiers.append_us, "us", n, "median");
    r.metric("store.latest_us", tiers.latest_us, "us", n, "median");

    let dec = decider_costs(shape, &pool, seed);
    let m = dec.samples;
    r.metric(
        "a1.ns_per_token",
        dec.a1,
        "ns",
        m,
        "feed_all over whole words",
    );
    r.metric(
        "a2.ns_per_token",
        dec.a2,
        "ns",
        m,
        "feed_all over whole words",
    );
    r.metric(
        "a3.dense.ns_per_token",
        dec.a3_dense,
        "ns",
        m,
        "feed_all over whole words",
    );
    r.metric(
        "a3.adaptive.ns_per_token",
        dec.a3_adaptive,
        "ns",
        m,
        "feed_all over whole words",
    );
    let decider_ns = replay_decider_ns(&pool, &one.reached);
    r.metric(
        "decider.ns_per_token",
        decider_ns / one.tokens.max(1) as f64,
        "ns",
        one.reached.len(),
        "Session::feed_slice of every replayed session",
    );

    let q = quantum_costs(shape, &pool);
    r.metric(
        "quantum.bit_update_ns",
        q.bit_update_ns,
        "ns",
        q.samples,
        "median, dense",
    );
    r.metric(
        "quantum.diffusion_us",
        q.diffusion_us,
        "us",
        q.samples,
        "median, dense",
    );
    let diffs: u64 = one
        .reached
        .iter()
        .map(|(plan, fed)| diffusions(plan.seed, shape.k, *fed))
        .sum();
    r.metric("quantum.diffusions", diffs as f64, "count", 1, exact);
    r.metric(
        "quantum.bytes_per_diffusion",
        q.bytes_per_diffusion,
        "B",
        1,
        "computed: (4k+1) passes x 2^(2k+2) amplitudes x 32 B",
    );

    // Engine time per request, split by the layers measured above.
    let per = |count: u64| count as f64 / n_req;
    let decider_us = decider_ns / n_req / 1e3;
    let warm = st.hydrations - st.spill_hydrations;
    let parts = [
        decider_us,
        per(st.evictions) * (tiers.suspend_us + tiers.compress_us),
        per(warm) * (tiers.decompress_us + tiers.resume_us),
        per(st.spill_hydrations) * (tiers.latest_us + tiers.resume_us),
        per(st.spills) * (tiers.decompress_us + tiers.append_us),
    ];
    let unaccounted = unaccounted_frac(call1, &parts) * call1 / socket_us;
    r.metric(
        "trace.overhead_frac",
        overhead,
        "ratio",
        common * shape.connections,
        "traced / untraced wall over the same requests - 1",
    );
    r.metric(
        "unaccounted_frac",
        unaccounted,
        "ratio",
        one.call_us.len(),
        "engine time no layer accounts for, over socket wall per request",
    );
    r.note(
        "breakdown_us_per_request",
        format!(
            "socket={socket_us:.3} transport={:.3} engine={call1:.3} decider={:.3} \
             evict={:.3} warm_hydrate={:.3} spill_hydrate={:.3} spill={:.3} lock_wait={:.3}",
            socket_us - call_live,
            parts[0],
            parts[1],
            parts[2],
            parts[3],
            parts[4],
            lock_wait
        ),
    );
    note_nonmembers(r, non);
    spans.extend(one.spans);
    let path = Path::new(".perfbench_out").join(format!("{}-seed{seed}.spans.tsv", shape.name));
    write_spans(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    r.note(
        "spans",
        format!("{} written to {}", spans.len(), path.display()),
    );
    Ok(())
}

fn note_nonmembers(r: &mut RunResult, (non, accepted): (u64, u64)) {
    r.note(
        "nonmember_accept_frac",
        format!(
            "{} ({accepted} of {non} t=1 non-member sessions; bound (3/4)^{} = {})",
            accepted as f64 / non.max(1) as f64,
            oqsc_serve::LDISJ_REPS,
            0.75f64.powi(oqsc_serve::LDISJ_REPS as i32)
        ),
    );
}
