//! The `paper-tables` workload: the E6 (k ≤ 7) and F1 (k ≤ 8) tables at
//! the `experiments` defaults, on the in-process `BatchRunner` with two
//! workers and on a fabric coordinator with two local worker processes
//! over a Unix socket. Both must print the reference rows.
//!
//! The inputs are the paper's own instances, fixed by the experiments'
//! seeds, so the benchmark seed changes nothing here but the span file's
//! name.

use crate::report::{peak_rss_mb, RunResult};
use crate::stats::{median, p50_and_tail};
use crate::trace::{self_time, write_spans, Span};
use oqsc_bench::{
    e6_instance_count, e6_task, f1_seeds, rows_from_reports, Coordinator, FabricConfig,
    FabricWorkReport, SweepRows, SweepSpec,
};
use oqsc_core::{separation_classical_task, separation_quantum_task, GroverStreamer};
use oqsc_lang::Sym;
use oqsc_machine::{BatchReport, BatchRunner, Checkpointable, SessionSchedule, StreamingDecider};
use std::hint::black_box;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The reference rows, one `Debug` line per table row.
const REFERENCE: &str = include_str!("../reference/paper_tables.txt");

/// Scheduler workers, on either path: the host has two cores.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Longest one fabric job may take before its workers are killed. A
/// healthy job takes seconds; this catches the completion deadlock.
const FABRIC_DEADLINE: Duration = Duration::from_secs(30);

/// The two sweeps at the `experiments` defaults (smaller when smoking).
pub fn specs(smoke: bool) -> [SweepSpec; 2] {
    if smoke {
        [SweepSpec::E6 { k_max: 6 }, SweepSpec::F1 { k_max: 6 }]
    } else {
        [SweepSpec::E6 { k_max: 7 }, SweepSpec::F1 { k_max: 8 }]
    }
}

/// One row per line, prefixed with its table.
pub fn render(rows: &SweepRows) -> Vec<String> {
    match rows {
        SweepRows::E6(rows) => rows.iter().map(|r| format!("E6 {r:?}")).collect(),
        SweepRows::F1(rows) => rows.iter().map(|r| format!("F1 {r:?}")).collect(),
        other => unreachable!("paper-tables runs E6 and F1 only, not {other:?}"),
    }
}

/// The reference lines for `spec` (the tables' rows for `k ≤ k_max`
/// are a prefix of the full tables').
fn reference(spec: SweepSpec) -> Vec<String> {
    let prefix = format!("{} ", spec.name().to_uppercase());
    REFERENCE
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .take(spec.k_max() as usize)
        .map(str::to_string)
        .collect()
}

/// When one instance's word was first pulled and when it ran out.
#[derive(Clone, Copy)]
struct Interval {
    fleet: usize,
    start: Instant,
    end: Instant,
}

/// A word iterator that records its first pull and its exhaustion: the
/// instance's decide time as the scheduler drives it.
struct TimedWord<'a, I> {
    inner: I,
    fleet: usize,
    start: Option<Instant>,
    sink: &'a Mutex<Vec<Interval>>,
}

impl<I: Iterator<Item = Sym>> Iterator for TimedWord<'_, I> {
    type Item = Sym;

    fn next(&mut self) -> Option<Sym> {
        let start = *self.start.get_or_insert_with(Instant::now);
        let next = self.inner.next();
        if next.is_none() {
            let end = Instant::now();
            self.sink
                .lock()
                .expect("interval sink poisoned")
                .push(Interval {
                    fleet: self.fleet,
                    start,
                    end,
                });
        }
        next
    }
}

/// One in-process pass with per-instance timing.
struct Pass {
    rows: Vec<SweepRows>,
    start: Instant,
    end: Instant,
    fleets: Vec<(Instant, Instant)>,
    instances: Vec<Interval>,
}

fn fleet<D, I, F>(
    runner: &BatchRunner,
    count: usize,
    task: F,
    id: usize,
    sink: &Mutex<Vec<Interval>>,
    fleets: &mut Vec<(Instant, Instant)>,
) -> BatchReport
where
    D: Checkpointable,
    I: Iterator<Item = Sym> + Send,
    F: Fn(usize) -> (D, I) + Sync,
{
    let t = Instant::now();
    let report = runner.run(count, SessionSchedule::Uninterrupted, |i| {
        let (decider, word) = task(i);
        (
            decider,
            TimedWord {
                inner: word,
                fleet: id,
                start: None,
                sink,
            },
        )
    });
    fleets.push((t, Instant::now()));
    report
}

/// `SweepSpec::rows_in_process` for E6 and F1, fleet by fleet, with
/// every instance's word timed.
fn timed_pass(specs: &[SweepSpec; 2]) -> Pass {
    let runner = BatchRunner::new(WORKERS);
    let sink = Mutex::new(Vec::new());
    let mut fleets = Vec::new();
    let start = Instant::now();
    let rows = specs
        .iter()
        .map(|&spec| {
            let reports = match spec {
                SweepSpec::E6 { k_max } => vec![fleet(
                    &runner,
                    e6_instance_count(k_max),
                    e6_task,
                    fleets.len(),
                    &sink,
                    &mut fleets,
                )],
                SweepSpec::F1 { k_max } => {
                    let seeds = f1_seeds(k_max);
                    let q = fleet(
                        &runner,
                        seeds.len(),
                        |i| separation_quantum_task(1, &seeds, i),
                        fleets.len(),
                        &sink,
                        &mut fleets,
                    );
                    let c = fleet(
                        &runner,
                        seeds.len(),
                        |i| separation_classical_task(1, &seeds, i),
                        fleets.len(),
                        &sink,
                        &mut fleets,
                    );
                    vec![q, c]
                }
                other => unreachable!("paper-tables runs E6 and F1 only, not {other:?}"),
            };
            rows_from_reports(spec, &reports)
        })
        .collect();
    Pass {
        rows,
        start,
        end: Instant::now(),
        fleets,
        instances: sink.into_inner().expect("interval sink poisoned"),
    }
}

impl Pass {
    fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    /// Summed instance time, seconds.
    fn work_s(&self) -> f64 {
        self.instances
            .iter()
            .map(|i| i.end.duration_since(i.start).as_secs_f64())
            .sum()
    }

    /// The largest instance of each (sequential) fleet, summed, seconds.
    fn critical_path_s(&self) -> f64 {
        (0..self.fleets.len())
            .map(|f| {
                self.instances
                    .iter()
                    .filter(|i| i.fleet == f)
                    .map(|i| i.end.duration_since(i.start).as_secs_f64())
                    .fold(0.0, f64::max)
            })
            .sum()
    }

    /// `tables.pass` → `tables.fleet` → `tables.instance` spans.
    fn spans(&self, epoch: Instant, base: u64) -> Vec<Span> {
        let ns = |t: Instant| crate::trace::ns_since(epoch, t);
        let mut spans = vec![Span {
            id: base,
            parent: None,
            name: "tables.pass",
            start: ns(self.start),
            end: ns(self.end),
        }];
        for (f, &(s, e)) in self.fleets.iter().enumerate() {
            spans.push(Span {
                id: base + 1 + f as u64,
                parent: Some(base),
                name: "tables.fleet",
                start: ns(s),
                end: ns(e),
            });
        }
        let first = base + 1 + self.fleets.len() as u64;
        for (n, i) in self.instances.iter().enumerate() {
            spans.push(Span {
                id: first + n as u64,
                parent: Some(base + 1 + i.fleet as u64),
                name: "tables.instance",
                start: ns(i.start),
                end: ns(i.end),
            });
        }
        spans
    }
}

/// Checks rows against the reference, counting one operation per table.
fn check_rows(rows: &[SweepRows], specs: &[SweepSpec; 2], path: &str, r: &mut RunResult) {
    for (spec, rows) in specs.iter().zip(rows) {
        let got = render(rows);
        let want = reference(*spec);
        if got == want {
            r.tally.ok();
        } else {
            r.tally.fail(format!(
                "{path} {} table differs from the reference: got {got:?}",
                spec.name()
            ));
        }
    }
}

/// Kills and reaps worker processes.
fn reap(children: &mut [Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// Parses a worker's `FABRIC_WORK leases=… instances=… expired=…` line.
fn parse_report(out: &str) -> Option<FabricWorkReport> {
    let line = out.lines().find(|l| l.starts_with("FABRIC_WORK "))?;
    let field = |key: &str| -> Option<u64> {
        line.split_whitespace()
            .find_map(|f| f.strip_prefix(key))
            .and_then(|v| v.parse().ok())
    };
    Some(FabricWorkReport {
        leases: field("leases=")?,
        instances: field("instances=")?,
        expired: field("expired=")?,
    })
}

/// One sweep on a fabric coordinator with two local worker processes.
/// Past [`FABRIC_DEADLINE`] the workers are killed, which closes their
/// connections and lets the coordinator return, so a wedged job fails
/// the run instead of hanging it.
fn fabric_job(spec: SweepSpec, dir: &Path) -> Result<(SweepRows, FabricWorkReport), String> {
    let addr = dir
        .join(format!("fabric-{}.sock", spec.name()))
        .display()
        .to_string();
    let coord = Coordinator::bind(&addr, spec, FabricConfig::default())
        .map_err(|e| format!("bind coordinator: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut children = Vec::with_capacity(WORKERS);
    for _ in 0..WORKERS {
        let child = Command::new(&exe)
            .args([
                "--fabric-worker",
                &addr,
                spec.name(),
                &spec.k_max().to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn();
        match child {
            Ok(c) => children.push(c),
            Err(e) => {
                reap(&mut children);
                return Err(format!("spawn fabric worker: {e}"));
            }
        }
    }
    let deadline = Instant::now() + FABRIC_DEADLINE;
    let handle = std::thread::spawn(move || coord.run());
    let mut timed_out = false;
    while !handle.is_finished() {
        if Instant::now() >= deadline && !timed_out {
            timed_out = true;
            reap(&mut children);
        }
        if Instant::now() >= deadline + Duration::from_secs(10) {
            return Err(format!(
                "{} fabric job: coordinator still running after its workers were killed",
                spec.name()
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let rows = handle
        .join()
        .map_err(|_| "coordinator panicked".to_string())?
        .map_err(|e| format!("{} fabric job failed: {e}", spec.name()));
    let mut total = FabricWorkReport::default();
    let mut worker_err = None;
    for mut c in children {
        let exit_by = Instant::now() + Duration::from_secs(10);
        let status = loop {
            match c.try_wait() {
                Ok(Some(s)) => break Some(s),
                Ok(None) if Instant::now() < exit_by => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => {
                    let _ = c.kill();
                    let _ = c.wait();
                    break None;
                }
            }
        };
        let mut out = String::new();
        if let Some(mut stdout) = c.stdout.take() {
            use std::io::Read;
            let _ = stdout.read_to_string(&mut out);
        }
        match (status, parse_report(&out)) {
            (Some(s), Some(rep)) if s.success() => {
                total.leases += rep.leases;
                total.instances += rep.instances;
                total.expired += rep.expired;
            }
            (status, _) => {
                worker_err = Some(format!("fabric worker ended with {status:?}: {out:?}"))
            }
        }
    }
    if timed_out {
        return Err(format!(
            "{} fabric job did not finish within {FABRIC_DEADLINE:?}; workers killed",
            spec.name()
        ));
    }
    let rows = rows?;
    if let Some(e) = worker_err {
        return Err(e);
    }
    Ok((rows, total))
}

/// Both sweeps on the fabric: `(rows, summed worker reports, seconds)`.
fn fabric_pass(
    specs: &[SweepSpec; 2],
    dir: &Path,
) -> Result<(Vec<SweepRows>, FabricWorkReport, f64), String> {
    let t = Instant::now();
    let mut rows = Vec::new();
    let mut total = FabricWorkReport::default();
    for &spec in specs {
        let (r, rep) = fabric_job(spec, dir)?;
        rows.push(r);
        total.leases += rep.leases;
        total.instances += rep.instances;
        total.expired += rep.expired;
    }
    Ok((rows, total, t.elapsed().as_secs_f64()))
}

/// The `--fabric-worker` child: leases and runs instances until the
/// coordinator says the sweep is finished, then prints its report.
pub fn fabric_worker(addr: &str, name: &str, k_max: u32) -> i32 {
    let Some(spec) = SweepSpec::from_cli(name, k_max, 0) else {
        eprintln!("unknown sweep {name}");
        return 2;
    };
    let config = oqsc_bench::WorkerConfig {
        threads: 1,
        ..Default::default()
    };
    match oqsc_bench::fabric_work(addr, spec, &config) {
        Ok(rep) => {
            println!(
                "FABRIC_WORK leases={} instances={} expired={}",
                rep.leases, rep.instances, rep.expired
            );
            0
        }
        Err(e) => {
            eprintln!("fabric worker: {e}");
            1
        }
    }
}

/// Symbols every instance of both sweeps streams (F1's two fleets
/// stream the same words), derived as each scheduler derives them.
fn symbols(specs: &[SweepSpec; 2]) -> u64 {
    let mut total = 0u64;
    for spec in specs {
        match *spec {
            SweepSpec::E6 { k_max } => {
                for i in 0..e6_instance_count(k_max) {
                    total += e6_task(i).1.count() as u64;
                }
            }
            SweepSpec::F1 { k_max } => {
                let seeds = f1_seeds(k_max);
                for i in 0..seeds.len() {
                    total += 2 * separation_quantum_task(1, &seeds, i).1.count() as u64;
                }
            }
            _ => {}
        }
    }
    total
}

fn time_feed<D: StreamingDecider>(mut d: D, word: &[Sym]) -> f64 {
    let t = Instant::now();
    d.feed_all(word);
    let ns = t.elapsed().as_nanos() as f64;
    black_box(d.decide());
    ns / word.len().max(1) as f64
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, trace: bool, smoke: bool, dir: &Path) -> RunResult {
    let mut r = RunResult::default();
    let specs = specs(smoke);
    let mut setups = Vec::new();
    let mut syms = 0;
    for _ in 0..SETUPS {
        let t = Instant::now();
        syms = symbols(&specs);
        setups.push(t.elapsed().as_secs_f64());
    }
    if trace {
        traced(&specs, seed, dir, &mut r);
        return r;
    }
    // A fixed number of in-process/fabric pairs (about 6 s each on a
    // 2-core host), not "until the time is up": the medians are over
    // sample counts that do not depend on the host's speed.
    let pairs = (seconds / 6).max(1);
    let mut table_s = Vec::new();
    let mut jobs: Vec<(f64, FabricWorkReport)> = Vec::new();
    let mut rss = None;
    for _ in 0..pairs {
        let (rows, s) = plain_pass(&specs);
        check_rows(&rows, &specs, "in-process", &mut r);
        table_s.push(s);
        // Later passes only add allocator retention noise.
        rss.get_or_insert_with(peak_rss_mb);
        match fabric_pass(&specs, dir) {
            Ok((rows, rep, s)) => {
                check_rows(&rows, &specs, "fabric", &mut r);
                jobs.push((s, rep));
            }
            Err(e) => {
                r.tally.fail(e);
                break;
            }
        }
    }
    let table = median(&table_s).unwrap_or(f64::NAN);
    let mut table_us: Vec<f64> = table_s.iter().map(|s| s * 1e6).collect();
    let mut job_ms: Vec<f64> = jobs.iter().map(|(s, _)| s * 1e3).collect();
    r.metric(
        "setup_s",
        median(&setups).unwrap_or(0.0),
        "s",
        SETUPS,
        "median: derive every E6/F1 instance word",
    );
    r.metric(
        "tokens_per_s",
        syms as f64 / table,
        "1/s",
        table_s.len(),
        format!("{syms} symbols per in-process E6+F1 job / median job"),
    );
    if let Some(p50) = p50_and_tail(&mut table_us).map(|(p50, _)| p50) {
        let what = "one E6+F1 job on BatchRunner(2): table_s";
        r.metric(
            "request_p50_us",
            p50.value,
            "us",
            p50.samples,
            format!("{}: {what}", p50.label()),
        );
    }
    if let Some(p50) = p50_and_tail(&mut job_ms).map(|(p50, _)| p50) {
        let what = "one E6+F1 job on the fabric: fabric_table_s";
        r.metric(
            "session_p50_ms",
            p50.value,
            "ms",
            p50.samples,
            format!("{}: {what}", p50.label()),
        );
    }
    r.metric(
        "peak_rss_mb",
        rss.unwrap_or_else(peak_rss_mb),
        "MB",
        1,
        "VmHWM after the first in-process job (MiB)",
    );
    r.note("table_s", format!("{table} (median of {table_s:?})"));
    r.note(
        "fabric_table_s",
        format!("{:?}", jobs.iter().map(|j| j.0).collect::<Vec<_>>()),
    );
    if let Some((_, rep)) = jobs.first() {
        r.note(
            "fabric leases/expired (first job)",
            format!("{} / {}", rep.leases, rep.expired),
        );
    }
    r
}

/// Both sweeps through `SweepSpec::rows_in_process` on two workers, the
/// path `experiments --sweep … --workers 2` takes: `(rows, seconds)`.
fn plain_pass(specs: &[SweepSpec; 2]) -> (Vec<SweepRows>, f64) {
    let runner = BatchRunner::new(WORKERS);
    let t = Instant::now();
    let rows = specs
        .iter()
        .map(|s| s.rows_in_process(&runner, SessionSchedule::Uninterrupted))
        .collect();
    (rows, t.elapsed().as_secs_f64())
}

/// The traced run: one uninstrumented pass (`rows_in_process`), one
/// instrumented pass, one fabric job, and the decider micro-costs.
fn traced(specs: &[SweepSpec; 2], seed: u64, dir: &Path, r: &mut RunResult) {
    let (plain, plain_s) = plain_pass(specs);
    check_rows(&plain, specs, "rows_in_process", r);
    let epoch = Instant::now();
    let pass = timed_pass(specs);
    check_rows(&pass.rows, specs, "in-process", r);
    let table = pass.seconds();
    let spans = pass.spans(epoch, 1);
    let fleet_self: u64 = spans
        .iter()
        .filter(|s| s.name == "tables.fleet")
        .map(|s| self_time(s, &spans))
        .sum();
    let pass_ns = spans[0].dur().max(1);
    let mut fleets_gap = pass_ns as f64;
    for s in spans.iter().filter(|s| s.name == "tables.fleet") {
        fleets_gap -= s.dur() as f64;
    }
    r.metric(
        "batch.work_s",
        pass.work_s(),
        "s",
        pass.instances.len(),
        "summed instance time",
    );
    r.metric(
        "batch.critical_path_s",
        pass.critical_path_s(),
        "s",
        pass.fleets.len(),
        "largest instance per fleet, summed",
    );
    r.metric(
        "batch.efficiency",
        pass.work_s() / (WORKERS as f64 * table),
        "ratio",
        1,
        "work_s / (2 x table_s)",
    );
    r.metric(
        "tables.table_s",
        table,
        "s",
        1,
        "instrumented in-process pass",
    );
    match fabric_pass(specs, dir) {
        Ok((rows, rep, s)) => {
            check_rows(&rows, specs, "fabric", r);
            r.metric(
                "tables.fabric_table_s",
                s,
                "s",
                1,
                "E6 then F1 on coordinator + 2 workers",
            );
            r.metric(
                "fabric.overhead_s",
                s - table,
                "s",
                1,
                "fabric_table_s - table_s",
            );
            r.metric(
                "fabric.leases",
                rep.leases as f64,
                "count",
                1,
                "summed over workers and both sweeps",
            );
            r.metric(
                "fabric.expired",
                rep.expired as f64,
                "count",
                1,
                "summed over workers and both sweeps",
            );
        }
        Err(e) => r.tally.fail(e),
    }
    // Per-token costs of the two sweeps' heaviest procedures, on the
    // largest E6 word and on F1's k = 7 word.
    let (prop37, e6_word) = e6_task(e6_instance_count(specs[0].k_max()) - 1);
    let e6_word: Vec<Sym> = e6_word.collect();
    r.metric(
        "classical.prop37_ns_per_token",
        time_feed(prop37, &e6_word),
        "ns",
        e6_word.len(),
        "largest E6 word",
    );
    let seeds = f1_seeds(specs[1].k_max());
    let i = seeds.len().saturating_sub(2);
    let f1_word: Vec<Sym> = separation_quantum_task(1, &seeds, i).1.collect();
    r.metric(
        "a3.metering_ns_per_token",
        time_feed(GroverStreamer::metering_only(), &f1_word),
        "ns",
        f1_word.len(),
        format!("F1 k={} word", i + 1),
    );
    r.metric(
        "trace.overhead_frac",
        table / plain_s - 1.0,
        "ratio",
        2,
        "instrumented / rows_in_process pass - 1",
    );
    r.metric(
        "unaccounted_frac",
        (fleet_self as f64 + fleets_gap) / pass_ns as f64,
        "ratio",
        pass.fleets.len(),
        "pass time not covered by any instance span",
    );
    let path = Path::new(".perfbench_out").join(format!("paper-tables-seed{seed}.spans.tsv"));
    match write_spans(&path, &spans) {
        Ok(()) => r.note(
            "spans",
            format!("{} written to {}", spans.len(), path.display()),
        ),
        Err(e) => r.tally.fail(format!("write {}: {e}", path.display())),
    }
}
