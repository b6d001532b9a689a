//! The sweep registry and the two things every scheduler shares: the
//! row merge and the outcome ledger.
//!
//! [`SweepSpec`] names every experiment a scheduler can run: its decider
//! fleets, their pure per-index task functions, and its row merge. Two
//! schedulers run it:
//!
//! * **in process** — [`SweepSpec::rows_in_process`] on a
//!   [`BatchRunner`], or, with a store prefix,
//!   [`SweepSpec::rows_with_store`], which persists each fleet's
//!   sessions into `<prefix>.<fleet>.shard0of1.cps` every
//!   `checkpoint_every` tokens via [`BatchRunner::run_resumable_budgeted`].
//!   A run cut short (simulated deterministically by
//!   `crash_after_tokens`, after which `experiments` exits with
//!   [`CRASH_EXIT`]) loses only its unpersisted tail: resuming recovers
//!   each store, salvages the valid record prefix, breaks the dead
//!   writer's orphaned lock, and continues from the last persisted
//!   boundaries — producing the identical table;
//! * **on the fabric** ([`crate::fabric`]) — a coordinator leases index
//!   ranges to worker processes, each of which runs them through
//!   [`fleet_outcomes`] and reports one `OUTCOME` line per instance into
//!   the coordinator's [`OutcomeLedger`]. `experiments --processes P`
//!   is this scheduler with `P` local workers; its resume unit is the
//!   finished instance, recorded in the coordinator's ledger store.
//!
//! Both end in [`rows_from_reports`], so their tables are byte-identical
//! by construction.

use crate::experiments::{
    e6_instance_count, e6_rows_from_report, e6_task, f1_seeds, f3_rows_from_reports, f4_budgets,
    f4_rows_from_reports, print_e6_rows, print_f1_rows, print_f3_rows, print_f4_rows, E6Row, F3Row,
    F4Row,
};
use oqsc_core::separation::{
    separation_classical_task, separation_quantum_task, separation_rows_from_reports, SeparationRow,
};
use oqsc_core::{f3_fingerprint_task, f4_sketch_task};
use oqsc_machine::{
    BatchReport, BatchRunner, CheckpointStore, Checkpointable, RunOutcome, SessionSchedule,
    StoreError,
};
use std::path::{Path, PathBuf};

/// Exit code of an in-process `--store` sweep whose token budget ran dry
/// — the deterministic stand-in for being killed mid-sweep. Anything
/// non-zero and different is a real failure.
pub const CRASH_EXIT: i32 = 9;

/// Per-`k` fleet names for the F3 sweep (static, because
/// [`SweepSpec::fleets`] hands out `&'static str` names; the table is
/// the contract's bound, independent of the CLI's own `--k-max` cap).
fn f3_fleet_name(k: u32) -> &'static str {
    const NAMES: [&str; 8] = ["k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"];
    assert!(
        (1..=NAMES.len() as u32).contains(&k),
        "F3 sweeps support k in 1..={} (fleet names are static); got {k}",
        NAMES.len()
    );
    NAMES[k as usize - 1]
}

/// Per-budget fleet names for the F4 sweep (the budget set is the fixed
/// powers of two of [`f4_budgets`]).
fn f4_fleet_name(budget: usize) -> &'static str {
    match budget {
        1 => "b1",
        2 => "b2",
        4 => "b4",
        8 => "b8",
        16 => "b16",
        32 => "b32",
        64 => "b64",
        128 => "b128",
        256 => "b256",
        other => unreachable!("budget {other} is not in the F4 sweep"),
    }
}

/// A sweep the schedulers know how to run: the **single registry** of
/// experiments — every entry defines its decider fleets (name + instance
/// count), its pure per-index task functions, and its row merge, so one
/// engine drives it in-process ([`SweepSpec::rows_in_process`]),
/// crash-recoverably through the persistent store
/// ([`SweepSpec::rows_with_store`]), and across fabric worker processes.
/// Every instance must be a pure function of its index (and the spec),
/// so a worker process can re-derive a leased range from the spec alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepSpec {
    /// Experiment E6 (Proposition 3.7 decider) for `k ∈ 1..=k_max`.
    E6 {
        /// Largest language parameter measured.
        k_max: u32,
    },
    /// Experiment F1 (the separation table) for `k ∈ 1..=k_max`.
    F1 {
        /// Largest language parameter measured.
        k_max: u32,
    },
    /// Experiment F3 (A2 fingerprint false-accept rates) for
    /// `k ∈ 1..=k_max`, one Monte-Carlo fleet of `trials` per `k`.
    F3 {
        /// Largest language parameter measured.
        k_max: u32,
        /// Trials per `k` fleet.
        trials: usize,
    },
    /// Experiment F4 (sketch failure below √m) at `k`, one fleet of
    /// `trials` per budget in [`f4_budgets`].
    F4 {
        /// Language parameter.
        k: u32,
        /// Trials per budget fleet.
        trials: usize,
    },
}

impl SweepSpec {
    /// CLI name (`--sweep e6|f1|f3|f4`).
    pub fn name(&self) -> &'static str {
        match self {
            SweepSpec::E6 { .. } => "e6",
            SweepSpec::F1 { .. } => "f1",
            SweepSpec::F3 { .. } => "f3",
            SweepSpec::F4 { .. } => "f4",
        }
    }

    /// The sweep's language-parameter knob (what the CLI's `--k-max`
    /// sets: the largest `k` for E6/F1/F3, *the* `k` for F4).
    pub fn k_max(&self) -> u32 {
        match self {
            SweepSpec::E6 { k_max } | SweepSpec::F1 { k_max } | SweepSpec::F3 { k_max, .. } => {
                *k_max
            }
            SweepSpec::F4 { k, .. } => *k,
        }
    }

    /// Monte-Carlo fleet size, for the sweeps that have one (F3/F4).
    pub fn trials(&self) -> Option<usize> {
        match self {
            SweepSpec::E6 { .. } | SweepSpec::F1 { .. } => None,
            SweepSpec::F3 { trials, .. } | SweepSpec::F4 { trials, .. } => Some(*trials),
        }
    }

    /// Parses a CLI sweep name. `trials` is ignored by the sweeps that
    /// have no Monte-Carlo fleet (the CLI rejects `--trials` for them
    /// up front).
    pub fn from_cli(name: &str, k_max: u32, trials: usize) -> Option<SweepSpec> {
        match name {
            "e6" => Some(SweepSpec::E6 { k_max }),
            "f1" => Some(SweepSpec::F1 { k_max }),
            "f3" => Some(SweepSpec::F3 { k_max, trials }),
            "f4" => Some(SweepSpec::F4 { k: k_max, trials }),
            _ => None,
        }
    }

    /// The decider fleets this sweep runs, with their instance counts.
    /// (F1 runs two fleets over the same words: the quantum recognizers
    /// and the classical Proposition 3.7 deciders. F3 runs one fleet per
    /// `k`, F4 one per sketch budget.)
    pub fn fleets(&self) -> Vec<(&'static str, usize)> {
        match self {
            SweepSpec::E6 { k_max } => vec![("e6", e6_instance_count(*k_max))],
            SweepSpec::F1 { k_max } => {
                let n = *k_max as usize;
                vec![("quantum", n), ("classical", n)]
            }
            SweepSpec::F3 { k_max, trials } => {
                (1..=*k_max).map(|k| (f3_fleet_name(k), *trials)).collect()
            }
            SweepSpec::F4 { k, trials } => f4_budgets(*k)
                .into_iter()
                .map(|b| (f4_fleet_name(b), *trials))
                .collect(),
        }
    }

    /// Runs every fleet in-process under `runner`/`schedule` and merges
    /// the reports into table rows. This is the classic sweep path —
    /// `experiments --sweep … --workers N` without a store or
    /// `--processes` — and the reference the fabric's tables are
    /// byte-compared against; both end in [`rows_from_reports`], so they
    /// agree by construction.
    pub fn rows_in_process(&self, runner: &BatchRunner, schedule: SessionSchedule) -> SweepRows {
        let reports: Vec<BatchReport> = match *self {
            SweepSpec::E6 { k_max } => {
                vec![runner.run(e6_instance_count(k_max), schedule, e6_task)]
            }
            SweepSpec::F1 { k_max } => {
                let seeds = f1_seeds(k_max);
                vec![
                    runner.run(seeds.len(), schedule, |i| {
                        separation_quantum_task(1, &seeds, i)
                    }),
                    runner.run(seeds.len(), schedule, |i| {
                        separation_classical_task(1, &seeds, i)
                    }),
                ]
            }
            SweepSpec::F3 { k_max, trials } => (1..=k_max)
                .map(|k| runner.run(trials, schedule, |i| f3_fingerprint_task(k, i)))
                .collect(),
            SweepSpec::F4 { k, trials } => f4_budgets(k)
                .into_iter()
                .map(|budget| runner.run(trials, schedule, |i| f4_sketch_task(k, budget, i)))
                .collect(),
        };
        rows_from_reports(*self, &reports)
    }

    /// Runs every fleet in-process under `runner`, persisting each
    /// fleet's sessions into its own store under `opts.prefix` (see the
    /// module docs). `Ok(None)`: the token budget cut a fleet short, so
    /// resume to finish.
    pub fn rows_with_store(
        &self,
        runner: &BatchRunner,
        opts: &StoreRunOpts,
    ) -> Result<Option<SweepRows>, PoolError> {
        let mut reports = Vec::new();
        for (fleet, _) in self.fleets() {
            let run = StoreRun {
                fleet,
                runner,
                opts,
            };
            match visit_fleet(*self, fleet, run).expect("fleets() names only visitable fleets")? {
                Some(report) => reports.push(report),
                None => return Ok(None),
            }
        }
        Ok(Some(rows_from_reports(*self, &reports)))
    }
}

/// Why a sweep failed.
#[derive(Debug)]
pub enum PoolError {
    /// Spawning or talking to a worker failed at the OS level.
    Io(std::io::Error),
    /// A checkpoint or ledger store could not be opened or written.
    Store(StoreError),
    /// Every local fabric worker exited while the ledger was still
    /// incomplete; this one failed first.
    WorkerFailed {
        /// Which worker failed (its spawn order, from 0).
        worker: usize,
        /// Its exit code (`None`: killed by a signal).
        code: Option<i32>,
    },
    /// A worker's report violated the `OUTCOME` protocol, or the merged
    /// outcomes did not cover the instance space.
    Protocol(String),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Io(e) => write!(f, "sweep I/O error: {e}"),
            PoolError::Store(e) => write!(f, "sweep store error: {e}"),
            PoolError::WorkerFailed {
                worker,
                code: Some(c),
            } => write!(f, "fabric worker {worker} failed with exit code {c}"),
            PoolError::WorkerFailed { worker, code: None } => {
                write!(f, "fabric worker {worker} was killed by a signal")
            }
            PoolError::Protocol(what) => write!(f, "worker protocol violation: {what}"),
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Io(e) => Some(e),
            PoolError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PoolError {
    fn from(e: std::io::Error) -> Self {
        PoolError::Io(e)
    }
}

impl From<StoreError> for PoolError {
    fn from(e: StoreError) -> Self {
        PoolError::Store(e)
    }
}

/// Options of an in-process persistent sweep ([`SweepSpec::rows_with_store`]).
#[derive(Clone, Debug)]
pub struct StoreRunOpts {
    /// Persist checkpoints under this path prefix (one store file per
    /// fleet).
    pub prefix: PathBuf,
    /// Recover existing stores and continue from their last persisted
    /// boundaries; without it, a leftover store file is an error
    /// (stale-store protection), never silently reused.
    pub resume: bool,
    /// Tokens between persisted checkpoints (clamped to ≥ 1).
    pub checkpoint_every: usize,
    /// Testing hook: per fleet, stop dead after feeding this many
    /// tokens — the deterministic crash model.
    pub crash_after_tokens: Option<u64>,
    /// Write fresh stores in the legacy v2 format (raw payloads, no
    /// compression) — the `--store-format 2` compatibility hook that
    /// lets tests and CI produce v2 logs for the upgrade path. Resuming
    /// an existing v2 store is still a typed `ReadOnly` error until
    /// `--compact` upgrades it.
    pub legacy_v2: bool,
}

/// The table rows a sweep produced, whatever path computed them.
#[derive(Clone, Debug, PartialEq)]
pub enum SweepRows {
    /// E6 rows.
    E6(Vec<E6Row>),
    /// F1 rows.
    F1(Vec<SeparationRow>),
    /// F3 rows.
    F3(Vec<F3Row>),
    /// F4 rows (the header names the language parameter).
    F4 {
        /// Language parameter the budgets were swept at.
        k: u32,
        /// The per-budget rows.
        rows: Vec<F4Row>,
    },
}

impl SweepRows {
    /// Prints the table with the same row formatters the all-tables
    /// binary uses, so every path prints byte-identical tables.
    pub fn print(&self) {
        match self {
            SweepRows::E6(rows) => print_e6_rows(rows),
            SweepRows::F1(rows) => print_f1_rows(rows),
            SweepRows::F3(rows) => print_f3_rows(rows),
            SweepRows::F4 { k, rows } => print_f4_rows(*k, rows),
        }
    }
}

/// Folds per-fleet [`BatchReport`]s (in [`SweepSpec::fleets`] order)
/// into table rows — the **single row-merge definition** every path
/// ends in: the in-process sweep, the persistent in-process run, and
/// the fabric's ledger all call this, which is why their printed tables
/// are byte-identical by construction.
pub fn rows_from_reports(spec: SweepSpec, reports: &[BatchReport]) -> SweepRows {
    match spec {
        SweepSpec::E6 { k_max } => SweepRows::E6(e6_rows_from_report(k_max, &reports[0])),
        SweepSpec::F1 { .. } => {
            SweepRows::F1(separation_rows_from_reports(1, &reports[0], &reports[1]))
        }
        SweepSpec::F3 { k_max, .. } => SweepRows::F3(f3_rows_from_reports(k_max, reports)),
        SweepSpec::F4 { k, .. } => SweepRows::F4 {
            k,
            rows: f4_rows_from_reports(k, reports),
        },
    }
}

/// `prefix` with `suffix` appended to its file name.
fn with_suffix(prefix: &Path, suffix: &str) -> PathBuf {
    let mut os = prefix.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// The store file of `fleet` in an in-process persistent sweep under
/// `prefix`. The `shard0of1` suffix is the name earlier releases wrote,
/// kept so their stores still resume.
fn fleet_store_path(prefix: &Path, fleet: &str) -> PathBuf {
    with_suffix(prefix, &format!(".{fleet}.shard0of1.cps"))
}

/// The coordinator's outcome ledger of a `--processes` sweep under
/// `prefix`.
pub fn ledger_store_path(prefix: &Path) -> PathBuf {
    with_suffix(prefix, ".ledger.cps")
}

/// Every checkpoint store file under `prefix`, sorted: the `.cps` files
/// whose names extend the prefix's file name **at a `.` boundary** (the
/// shape [`fleet_store_path`] and [`ledger_store_path`] write), or
/// `prefix` itself when it names one store file directly. The separator
/// requirement keeps sibling runs apart: `--compact /data/run1` must never touch
/// `/data/run10.e6.shard0of1.cps`. This is what `experiments --compact
/// PREFIX` iterates — the operator passes the same prefix they swept
/// with.
pub fn find_store_files(prefix: &Path) -> std::io::Result<Vec<PathBuf>> {
    let name = prefix.file_name().map(|n| n.to_string_lossy().into_owned());
    if prefix.is_file() {
        if name.as_deref().is_some_and(|n| n.ends_with(".cps")) {
            return Ok(vec![prefix.to_path_buf()]);
        }
        return Ok(Vec::new());
    }
    let Some(stem) = name else {
        return Ok(Vec::new());
    };
    let stem_dot = format!("{stem}.");
    let dir = match prefix.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let file_name = entry.file_name().to_string_lossy().into_owned();
        if file_name.starts_with(&stem_dot) && file_name.ends_with(".cps") {
            found.push(entry.path());
        }
    }
    found.sort();
    Ok(found)
}

fn open_fleet_store<D: Checkpointable>(
    path: &Path,
    resume: bool,
    legacy_v2: bool,
) -> Result<CheckpointStore, StoreError> {
    let version = if legacy_v2 {
        oqsc_machine::STORE_VERSION_V2
    } else {
        oqsc_machine::STORE_VERSION
    };
    if resume {
        // The sweep owns these single-writer files, and resume only runs
        // after the previous run died — the one situation where breaking
        // an orphaned lock is sound. (A kill before the first append
        // leaves a lock but no store file; break the orphan either way.)
        CheckpointStore::break_lock(path)?;
        if path.exists() {
            return CheckpointStore::recover_for::<D>(path).map(|(store, _)| store);
        }
        CheckpointStore::create_with_version(path, D::TYPE_TAG, version)
    } else {
        // Fresh runs refuse stale stores (`StoreError::AlreadyExists`).
        CheckpointStore::create_with_version(path, D::TYPE_TAG, version)
    }
}

/// One visit to a fleet's task function with its concrete decider type.
///
/// [`SweepSpec::fleets`] names the fleets, but each fleet's task builds
/// a *different* decider type, so running "fleet X of spec S" needs a
/// generic call site per fleet. This trait inverts that: a scheduler
/// implements `visit` once, generically, and [`visit_fleet`] owns the
/// single spec-to-task dispatch — the persistent in-process run and the
/// fabric worker both go through it, which is how their instance
/// derivations stay identical by construction.
trait FleetVisitor {
    /// What the visit produces.
    type Out;
    /// Runs against one fleet: `count` instances, each the pure function
    /// `task` of its global index.
    fn visit<D, W, F>(self, count: usize, task: F) -> Self::Out
    where
        D: Checkpointable,
        W: IntoIterator<Item = oqsc_lang::Sym>,
        W::IntoIter: Send,
        F: Fn(usize) -> (D, W) + Sync;
}

/// Dispatches `visitor` to `fleet`'s task function, or `None` when the
/// spec has no fleet of that name. The **only** place that pairs fleet
/// names with task functions.
fn visit_fleet<V: FleetVisitor>(spec: SweepSpec, fleet: &str, visitor: V) -> Option<V::Out> {
    match spec {
        SweepSpec::E6 { k_max } => {
            (fleet == "e6").then(|| visitor.visit(e6_instance_count(k_max), e6_task))
        }
        SweepSpec::F1 { k_max } => {
            let seeds = f1_seeds(k_max);
            let n = seeds.len();
            match fleet {
                "quantum" => Some(visitor.visit(n, move |i| separation_quantum_task(1, &seeds, i))),
                "classical" => {
                    Some(visitor.visit(n, move |i| separation_classical_task(1, &seeds, i)))
                }
                _ => None,
            }
        }
        SweepSpec::F3 { k_max, trials } => (1..=k_max)
            .find(|&k| f3_fleet_name(k) == fleet)
            .map(|k| visitor.visit(trials, move |i| f3_fingerprint_task(k, i))),
        SweepSpec::F4 { k, trials } => f4_budgets(k)
            .into_iter()
            .find(|&budget| f4_fleet_name(budget) == fleet)
            .map(|budget| visitor.visit(trials, move |i| f4_sketch_task(k, budget, i))),
    }
}

/// Runs one whole fleet in-process against its persistent store.
/// Produces `Ok(None)` when the token budget cut the fleet short
/// (outcomes gathered so far are discarded — a crash loses everything
/// that is not in the store).
struct StoreRun<'a> {
    fleet: &'static str,
    runner: &'a BatchRunner,
    opts: &'a StoreRunOpts,
}

impl FleetVisitor for StoreRun<'_> {
    type Out = Result<Option<BatchReport>, PoolError>;

    fn visit<D, W, F>(self, count: usize, task: F) -> Self::Out
    where
        D: Checkpointable,
        W: IntoIterator<Item = oqsc_lang::Sym>,
        W::IntoIter: Send,
        F: Fn(usize) -> (D, W) + Sync,
    {
        let path = fleet_store_path(&self.opts.prefix, self.fleet);
        let mut store = open_fleet_store::<D>(&path, self.opts.resume, self.opts.legacy_v2)?;
        Ok(self.runner.run_resumable_budgeted(
            count,
            self.opts.checkpoint_every.max(1),
            &mut store,
            self.opts.crash_after_tokens.unwrap_or(u64::MAX),
            task,
        )?)
    }
}

/// Runs an explicit index set of one fleet, in the given order — the
/// fabric worker's execution primitive (a leased range is such a set).
struct IndicesRun<'a> {
    indices: &'a [usize],
    workers: usize,
}

impl FleetVisitor for IndicesRun<'_> {
    type Out = Result<Vec<RunOutcome>, PoolError>;

    fn visit<D, W, F>(self, count: usize, task: F) -> Self::Out
    where
        D: Checkpointable,
        W: IntoIterator<Item = oqsc_lang::Sym>,
        W::IntoIter: Send,
        F: Fn(usize) -> (D, W) + Sync,
    {
        if let Some(&bad) = self.indices.iter().find(|&&i| i >= count) {
            return Err(PoolError::Protocol(format!(
                "instance index {bad} out of range for a fleet of {count}"
            )));
        }
        let runner = BatchRunner::new(self.workers.max(1));
        Ok(runner
            .run(self.indices.len(), SessionSchedule::Uninterrupted, |j| {
                task(self.indices[j])
            })
            .outcomes)
    }
}

/// Runs `indices` of `spec`'s fleet `fleet` across `workers` threads and
/// returns their outcomes in `indices` order. Unknown fleets and
/// out-of-range indices are protocol errors — the fabric worker calls
/// this with coordinator-granted ranges, and a bad grant must surface,
/// not panic.
pub fn fleet_outcomes(
    spec: SweepSpec,
    fleet: &str,
    indices: &[usize],
    workers: usize,
) -> Result<Vec<RunOutcome>, PoolError> {
    visit_fleet(spec, fleet, IndicesRun { indices, workers }).unwrap_or_else(|| {
        Err(PoolError::Protocol(format!(
            "sweep {:?} has no fleet {fleet:?}",
            spec.name()
        )))
    })
}

/// An incrementally-merged sweep result: one slot per instance of every
/// fleet in `spec`, filled from `(fleet, index, outcome)` triples as
/// they arrive. The fabric coordinator feeds it one `OUTCOME` line at a
/// time and asks it when ranges — and the whole sweep — are complete.
pub struct OutcomeLedger {
    spec: SweepSpec,
    fleets: Vec<(&'static str, usize)>,
    slots: Vec<Vec<Option<RunOutcome>>>,
    remaining: usize,
}

impl OutcomeLedger {
    /// An empty ledger covering every instance of every fleet of `spec`.
    pub fn new(spec: SweepSpec) -> Self {
        let fleets = spec.fleets();
        let slots: Vec<Vec<Option<RunOutcome>>> =
            fleets.iter().map(|&(_, count)| vec![None; count]).collect();
        let remaining = fleets.iter().map(|&(_, count)| count).sum();
        OutcomeLedger {
            spec,
            fleets,
            slots,
            remaining,
        }
    }

    /// The position of `fleet` in [`SweepSpec::fleets`] order.
    pub fn fleet_index(&self, fleet: &str) -> Option<usize> {
        self.fleets.iter().position(|&(name, _)| name == fleet)
    }

    fn slot_mut(&mut self, fleet: &str, idx: usize) -> Result<&mut Option<RunOutcome>, PoolError> {
        let f = self
            .fleet_index(fleet)
            .ok_or_else(|| PoolError::Protocol(format!("unknown fleet {fleet:?}")))?;
        self.slots[f]
            .get_mut(idx)
            .ok_or_else(|| PoolError::Protocol(format!("fleet {fleet:?} index {idx} out of range")))
    }

    /// Records an outcome idempotently — the fabric contract, where a
    /// re-leased range is legitimately re-executed. Every instance is a
    /// pure function of its index, so a duplicate report must be
    /// *identical*; returns `Ok(true)` for a fresh outcome, `Ok(false)`
    /// for an identical duplicate, and a protocol error for a
    /// conflicting one (a worker computing the wrong sweep).
    pub fn merge(
        &mut self,
        fleet: &str,
        idx: usize,
        outcome: RunOutcome,
    ) -> Result<bool, PoolError> {
        let slot = self.slot_mut(fleet, idx)?;
        match slot {
            Some(existing) if *existing == outcome => Ok(false),
            Some(existing) => Err(PoolError::Protocol(format!(
                "fleet {fleet:?} index {idx} re-reported with a conflicting outcome \
                 ({existing:?} vs {outcome:?})"
            ))),
            None => {
                *slot = Some(outcome);
                self.remaining -= 1;
                Ok(true)
            }
        }
    }

    /// Whether every instance of `start..end` in fleet `fleet_idx` (by
    /// [`SweepSpec::fleets`] position) has an outcome. Out-of-range
    /// ranges are simply not complete.
    pub fn range_complete(&self, fleet_idx: usize, start: usize, end: usize) -> bool {
        self.slots
            .get(fleet_idx)
            .and_then(|slots| slots.get(start..end))
            .is_some_and(|range| range.iter().all(Option::is_some))
    }

    /// Instances still missing an outcome, across all fleets.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Whether the whole sweep has been reported.
    pub fn is_complete(&self) -> bool {
        self.remaining == 0
    }

    /// Folds the filled slots into table rows; errors if any fleet still
    /// has missing instances.
    pub fn into_rows(self) -> Result<SweepRows, PoolError> {
        let mut reports = Vec::with_capacity(self.fleets.len());
        for (&(name, _), fleet_slots) in self.fleets.iter().zip(self.slots) {
            let outcomes: Option<Vec<RunOutcome>> = fleet_slots.into_iter().collect();
            let outcomes = outcomes.ok_or_else(|| {
                PoolError::Protocol(format!("fleet {name:?} is missing instance outcomes"))
            })?;
            reports.push(BatchReport::from_outcomes(outcomes));
        }
        Ok(rows_from_reports(self.spec, &reports))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs every fleet of `spec` the way `pieces` fabric workers would
    /// — contiguous index ranges through [`fleet_outcomes`] — and merges
    /// the outcomes in the ledger.
    fn ranged_rows(spec: SweepSpec, pieces: usize) -> SweepRows {
        let mut ledger = OutcomeLedger::new(spec);
        for (fleet, count) in spec.fleets() {
            let width = count.div_ceil(pieces).max(1);
            for start in (0..count).step_by(width) {
                let indices: Vec<usize> = (start..(start + width).min(count)).collect();
                let outcomes = fleet_outcomes(spec, fleet, &indices, 1).expect("runs");
                for (&idx, outcome) in indices.iter().zip(outcomes) {
                    assert!(ledger.merge(fleet, idx, outcome).expect("fresh"));
                }
            }
        }
        ledger.into_rows().expect("complete")
    }

    #[test]
    fn merged_outcomes_must_cover_the_instance_space_exactly_once() {
        let spec = SweepSpec::E6 { k_max: 2 };
        let full = |ledger: &mut OutcomeLedger, upto: usize| {
            for i in 0..upto {
                ledger
                    .merge("e6", i, RunOutcome::default())
                    .expect("merges");
            }
        };
        let mut ledger = OutcomeLedger::new(spec);
        full(&mut ledger, 4);
        // An identical re-report counts once.
        full(&mut ledger, 4);
        assert_eq!(ledger.remaining(), 0);
        assert!(ledger.into_rows().is_ok());
        // A missing instance, an unknown fleet, and an out-of-range index
        // are each protocol violations.
        let mut short = OutcomeLedger::new(spec);
        full(&mut short, 3);
        assert!(matches!(short.into_rows(), Err(PoolError::Protocol(_))));
        let mut ledger = OutcomeLedger::new(spec);
        assert!(ledger.merge("f9", 0, RunOutcome::default()).is_err());
        assert!(ledger.merge("e6", 99, RunOutcome::default()).is_err());
    }

    #[test]
    fn f3_and_f4_specs_describe_their_fleets() {
        let f3 = SweepSpec::F3 {
            k_max: 3,
            trials: 10,
        };
        assert_eq!(
            f3.fleets(),
            vec![("k1", 10), ("k2", 10), ("k3", 10)],
            "one fleet per k"
        );
        assert_eq!(f3.name(), "f3");
        assert_eq!(f3.trials(), Some(10));
        let f4 = SweepSpec::F4 { k: 1, trials: 7 };
        assert_eq!(
            f4.fleets(),
            vec![("b1", 7), ("b2", 7), ("b4", 7)],
            "budgets capped at m = 4 when k = 1"
        );
        assert_eq!(f4.k_max(), 1);
        assert_eq!(
            SweepSpec::from_cli("f4", 2, 9),
            Some(SweepSpec::F4 { k: 2, trials: 9 })
        );
        assert_eq!(
            SweepSpec::from_cli("e6", 2, 9),
            Some(SweepSpec::E6 { k_max: 2 })
        );
    }

    #[test]
    fn f3_and_f4_worker_shards_merge_to_the_in_process_rows() {
        for spec in [
            SweepSpec::F3 {
                k_max: 2,
                trials: 9,
            },
            SweepSpec::F4 { k: 2, trials: 8 },
        ] {
            let reference =
                spec.rows_in_process(&BatchRunner::new(2), SessionSchedule::Uninterrupted);
            assert_eq!(ranged_rows(spec, 3), reference, "{}", spec.name());
        }
    }

    #[test]
    fn find_store_files_matches_the_shard_naming() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("oqsc-find-stores-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let prefix = dir.join("sweep");
        assert_eq!(
            fleet_store_path(&prefix, "e6"),
            dir.join("sweep.e6.shard0of1.cps")
        );
        assert_eq!(ledger_store_path(&prefix), dir.join("sweep.ledger.cps"));
        for name in [
            "sweep.e6.shard0of1.cps",
            "sweep.ledger.cps",
            "sweep.e6.shard0of1.cps.lock",
            "other.e6.shard0of1.cps",
            // A sibling run whose name merely *starts with* the prefix:
            // the `.` separator requirement must keep it out.
            "sweep2.e6.shard0of1.cps",
            "sweep.notes.txt",
        ] {
            std::fs::write(dir.join(name), b"x").expect("write");
        }
        let found = find_store_files(&prefix).expect("scan");
        let names: Vec<String> = found
            .iter()
            .map(|p| p.file_name().expect("name").to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["sweep.e6.shard0of1.cps", "sweep.ledger.cps"]);
        // A direct path to one store file is accepted as-is.
        let one = find_store_files(&dir.join("other.e6.shard0of1.cps")).expect("scan");
        assert_eq!(one.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_merge_is_idempotent_but_rejects_conflicts() {
        let spec = SweepSpec::E6 { k_max: 2 };
        let mut ledger = OutcomeLedger::new(spec);
        assert_eq!(ledger.remaining(), 4);
        assert!(!ledger.is_complete());
        let out = RunOutcome {
            accept: true,
            classical_bits: 5,
            peak_qubits: 2,
            peak_amplitudes: 4,
        };
        assert!(ledger.merge("e6", 1, out).expect("fresh"));
        // An identical re-report (a re-leased range re-executed) is fine
        // and changes nothing.
        assert!(!ledger.merge("e6", 1, out).expect("duplicate"));
        assert_eq!(ledger.remaining(), 3);
        // A *conflicting* re-report means a worker computed the wrong
        // instance — protocol error.
        let mut other = out;
        other.classical_bits += 1;
        assert!(matches!(
            ledger.merge("e6", 1, other),
            Err(PoolError::Protocol(_))
        ));
        assert!(matches!(
            ledger.merge("nope", 0, out),
            Err(PoolError::Protocol(_))
        ));
        assert!(matches!(
            ledger.merge("e6", 99, out),
            Err(PoolError::Protocol(_))
        ));
        assert!(!ledger.range_complete(0, 0, 4));
        assert!(ledger.range_complete(0, 1, 2));
        assert!(
            !ledger.range_complete(0, 2, 99),
            "out of range is not complete"
        );
        for idx in [0, 2, 3] {
            ledger
                .merge("e6", idx, RunOutcome::default())
                .expect("fresh");
        }
        assert!(ledger.is_complete());
        assert!(ledger.range_complete(0, 0, 4));
        assert!(ledger.into_rows().is_ok());
    }

    #[test]
    fn fleet_outcomes_runs_granted_ranges_and_rejects_bad_grants() {
        let spec = SweepSpec::E6 { k_max: 3 };
        // A leased range must reproduce exactly the in-process outcomes
        // for the same indices.
        let all = BatchRunner::new(1)
            .run(
                e6_instance_count(3),
                SessionSchedule::Uninterrupted,
                e6_task,
            )
            .outcomes;
        let indices: Vec<usize> = (2..5).collect();
        let ranged = fleet_outcomes(spec, "e6", &indices, 2).expect("runs");
        for (j, &i) in indices.iter().enumerate() {
            assert_eq!(ranged[j], all[i], "index {i}");
        }
        assert!(matches!(
            fleet_outcomes(spec, "f9", &[0], 1),
            Err(PoolError::Protocol(_))
        ));
        assert!(matches!(
            fleet_outcomes(spec, "e6", &[10_000], 1),
            Err(PoolError::Protocol(_))
        ));
    }

    #[test]
    fn worker_outcomes_match_the_in_process_sweep() {
        // Two workers' ranges of the E6 sweep, merged, equal the one-shot
        // rows.
        let rows = ranged_rows(SweepSpec::E6 { k_max: 3 }, 2);
        let reference = crate::experiments::e6_classical_rows(
            3,
            &BatchRunner::new(2),
            SessionSchedule::Uninterrupted,
        );
        assert_eq!(rows, SweepRows::E6(reference));
    }
}
