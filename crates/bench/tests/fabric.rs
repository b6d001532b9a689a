//! The distributed sweep fabric's contract:
//!
//! * a coordinator plus workers over a **Unix socket** produce rows
//!   equal to the in-process sweep — including with a deliberately
//!   throttled straggler whose tail gets stolen;
//! * the same holds over **TCP** even when a client leases a range and
//!   vanishes without reporting: the lease lapses and the range is
//!   re-leased to a live worker;
//! * the lease state machine itself ([`FabricState::handle`]) is pinned
//!   sockets-free — grant coverage, steal policy, TTL expiry, premature
//!   `DONE` rejection, sweep-identity checks, and store-backed resume.
//!
//! * a worker dialling a coordinator whose sweep is already complete
//!   is refused at once and cannot hang either side;
//! * a local fabric whose workers all fail stops its coordinator and
//!   names the failed worker and its exit code.
//!
//! The binary-level version (SIGKILL a worker process mid-sweep, then
//! resume the coordinator from its store) runs in CI's fabric smoke.

#[path = "../../serve/tests/common/mod.rs"]
mod common;

use common::{watchdog, RawClient};
use oqsc_bench::{
    fabric_work, fleet_outcomes, run_local_fabric, split_fabric_instance_id, Coordinator,
    FabricConfig, FabricState, PoolError, SweepSpec, WorkerConfig,
};
use oqsc_machine::{BatchRunner, SessionSchedule};
use oqsc_serve::{
    fabric_request_line, parse_fabric_response, FabricRequest, FabricResponse, Stream,
};
use std::io::ErrorKind;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn spec_e6(k_max: u32) -> SweepSpec {
    SweepSpec::from_cli("e6", k_max, 0).expect("e6 spec")
}

fn reference_rows(spec: SweepSpec) -> oqsc_bench::SweepRows {
    spec.rows_in_process(&BatchRunner::new(2), SessionSchedule::Uninterrupted)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oqsc-fabric-{}-{name}", std::process::id()))
}

#[test]
fn unix_fabric_with_a_straggler_matches_the_in_process_sweep() {
    watchdog(|| {
        let spec = spec_e6(4);
        let reference = reference_rows(spec);
        let sock = temp_path("unix.sock");
        let _ = std::fs::remove_file(&sock);
        let addr = sock.to_string_lossy().into_owned();
        let coordinator = Coordinator::bind(
            &addr,
            spec,
            FabricConfig {
                lease_size: 2,
                lease_ttl: Duration::from_millis(500),
                ..FabricConfig::default()
            },
        )
        .expect("bind coordinator");

        let (rows, slow, fast) = std::thread::scope(|scope| {
            let coord = scope.spawn(move || coordinator.run().expect("coordinate"));
            // A deliberate straggler: one instance per 40 ms guarantees the
            // fast worker exhausts the open pool and steals its tail.
            let slow = scope.spawn(|| {
                fabric_work(
                    &addr,
                    spec,
                    &WorkerConfig {
                        worker_id: 1,
                        throttle: Some(Duration::from_millis(40)),
                        heartbeat_every: Duration::from_millis(100),
                        ..WorkerConfig::default()
                    },
                )
                .expect("slow worker")
            });
            let fast = scope.spawn(|| {
                fabric_work(
                    &addr,
                    spec,
                    &WorkerConfig {
                        worker_id: 2,
                        threads: 2,
                        heartbeat_every: Duration::from_millis(100),
                        ..WorkerConfig::default()
                    },
                )
                .expect("fast worker")
            });
            (
                coord.join().expect("coordinator thread"),
                slow.join().expect("slow thread"),
                fast.join().expect("fast thread"),
            )
        });

        assert_eq!(rows, reference, "fabric rows differ from in-process");
        assert!(!sock.exists(), "coordinator unlinks its socket");
        // Both workers took part, and together they covered everything (the
        // straggler may double-report stolen indices — that's the design).
        assert!(fast.leases > 0 && fast.instances > 0, "{fast:?}");
        assert!(slow.leases > 0, "{slow:?}");
    });
}

/// Runs `spec` on a coordinator bound at `addr` while a raw client
/// leases a range with `lease_line` and vanishes without reporting a
/// single outcome (no heartbeat either): its lease must lapse after the
/// TTL, and one worker with `threads` threads re-runs the range and
/// finishes a table identical to the in-process one.
fn survive_a_vanished_lease(addr: &str, spec: SweepSpec, lease_line: &str, threads: usize) {
    let reference = reference_rows(spec);
    let config = FabricConfig {
        lease_size: 2,
        lease_ttl: Duration::from_millis(300),
        wait_millis: 50,
        ..FabricConfig::default()
    };
    let coordinator = Coordinator::bind(addr, spec, config).expect("bind coordinator");
    let bound = coordinator.local_addr();
    assert_eq!(bound.contains(':'), addr.contains(':'), "bound at {bound}");
    let addr = bound;
    let coord = std::thread::spawn(move || coordinator.run().expect("coordinate"));
    // Dropped at once: no OUTCOME, no RENEW, no DONE.
    let grant_line = RawClient::connect(&addr).ask(lease_line);
    assert!(grant_line.starts_with("LEASE "), "got: {grant_line}");
    let worker = WorkerConfig {
        worker_id: 7,
        threads,
        heartbeat_every: Duration::from_millis(100),
        ..WorkerConfig::default()
    };
    let report = fabric_work(&addr, spec, &worker).expect("worker");
    assert!(report.instances > 0, "{report:?}");
    let rows = coord.join().expect("coordinator thread");
    assert_eq!(rows, reference, "re-leased rows differ from in-process");
}

#[test]
fn tcp_fabric_releases_a_vanished_clients_lease() {
    watchdog(|| survive_a_vanished_lease("127.0.0.1:0", spec_e6(3), "LEASE 99 e6 3 0", 1));
}

/// The F1 sweep (two fleets, quantum registers included), over a Unix
/// socket, with a worker that dies holding a lease.
#[test]
fn f1_fabric_survives_a_mid_lease_death() {
    watchdog(|| {
        let spec = SweepSpec::from_cli("f1", 4, 0).expect("f1 spec");
        let sock = temp_path("f1.sock");
        let _ = std::fs::remove_file(&sock);
        survive_a_vanished_lease(&sock.to_string_lossy(), spec, "LEASE 99 f1 4 0", 2)
    });
}

/// The completion hang, pinned. A sweep is finished by hand over a raw
/// connection that stays open, so the coordinator is still serving.
/// It must still drop its listener at once: a dial after completion is
/// refused rather than left forever in a backlog nobody accepts from.
/// So a worker that arrives then fails at once with the refused connect
/// (the contract for a late worker, DESIGN §13), and the coordinator
/// still returns its rows once the raw connection hangs up.
#[test]
fn a_worker_dialling_after_completion_cannot_hang_the_fabric() {
    watchdog(|| {
        let spec = spec_e6(2);
        let reference = reference_rows(spec);
        let coordinator = Coordinator::bind("127.0.0.1:0", spec, FabricConfig::default())
            .expect("bind coordinator");
        let addr = coordinator.local_addr();
        let coord = std::thread::spawn(move || coordinator.run().expect("coordinate"));

        let mut raw = RawClient::connect(&addr);
        let lease_line = "LEASE 99 e6 2 0";
        while let FabricResponse::Grant {
            lease,
            fleet,
            start,
            end,
        } = parse_fabric_response(&raw.ask(lease_line)).expect("lease answer")
        {
            let indices: Vec<usize> = (start as usize..end as usize).collect();
            let outcomes = fleet_outcomes(spec, &fleet, &indices, 1).expect("run range");
            for (&index, outcome) in indices.iter().zip(outcomes) {
                let report = FabricRequest::Outcome {
                    fleet: fleet.clone(),
                    index: index as u64,
                    outcome,
                };
                assert_eq!(
                    raw.ask(&fabric_request_line(&report)),
                    format!("OK {index}")
                );
            }
            let done = fabric_request_line(&FabricRequest::Done { lease });
            assert_eq!(raw.ask(&done), format!("OK {lease}"));
        }
        assert_eq!(raw.ask(lease_line), "FINISHED", "the sweep is complete");

        // The acceptor sees completion within a poll; until it does, a
        // probe is accepted and hung up on. A listener kept open while
        // `raw` is served never refuses, and the watchdog fails the test.
        while Stream::connect(&addr).is_ok() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let dialled = Instant::now();
        let late = fabric_work(&addr, spec, &WorkerConfig::default());
        assert!(
            dialled.elapsed() < Duration::from_secs(10),
            "the late worker took {:?}",
            dialled.elapsed()
        );
        match late {
            Err(PoolError::Io(e)) => assert_eq!(e.kind(), ErrorKind::ConnectionRefused, "{e}"),
            other => panic!("a worker dialling after completion must be refused, got {other:?}"),
        }
        drop(raw);
        assert_eq!(coord.join().expect("coordinator thread"), reference);
    });
}

/// A "worker" that exits 3 at once: the sweep can never complete, so
/// the driver must notice every child gone, stop the coordinator, and
/// report the first failure rather than wait forever.
#[test]
fn a_local_fabric_whose_workers_fail_reports_the_exit_code() {
    watchdog(|| {
        use std::os::unix::fs::PermissionsExt;
        let script = temp_path("exit3.sh");
        std::fs::write(&script, "#!/bin/sh\nexit 3\n").expect("write script");
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
            .expect("chmod script");
        let result = run_local_fabric(&script, spec_e6(2), 2, None, FabricConfig::default());
        let _ = std::fs::remove_file(&script);
        match result {
            Err(e @ PoolError::WorkerFailed { .. }) => {
                assert!(
                    matches!(
                        e,
                        PoolError::WorkerFailed {
                            worker: 0,
                            code: Some(3)
                        }
                    ),
                    "{e:?}"
                );
                assert!(e.to_string().contains("exit code 3"), "{e}");
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    });
}

/// Drives a [`FabricState`] to completion by replaying granted ranges
/// through [`fleet_outcomes`] — the sockets-free worker.
fn run_range(state: &mut FabricState, spec: SweepSpec, lease: u64, fleet: &str, range: (u64, u64)) {
    let indices: Vec<usize> = (range.0 as usize..range.1 as usize).collect();
    let outcomes = fleet_outcomes(spec, fleet, &indices, 1).expect("run range");
    let now = Instant::now();
    for (&index, outcome) in indices.iter().zip(&outcomes) {
        let ok = state
            .handle(
                &FabricRequest::Outcome {
                    fleet: fleet.to_string(),
                    index: index as u64,
                    outcome: *outcome,
                },
                now,
            )
            .expect("outcome accepted");
        assert_eq!(
            ok,
            FabricResponse::Ok {
                token: index as u64
            }
        );
    }
    let done = state
        .handle(&FabricRequest::Done { lease }, now)
        .expect("done accepted");
    assert_eq!(done, FabricResponse::Ok { token: lease });
}

fn lease_of(state: &mut FabricState, worker: u64, now: Instant) -> FabricResponse {
    state
        .handle(
            &FabricRequest::Lease {
                worker,
                sweep: "e6".to_string(),
                k_max: 4,
                trials: 0,
            },
            now,
        )
        .expect("lease handled")
}

#[test]
fn lease_machine_grants_steals_expires_and_verifies_done() {
    let spec = spec_e6(4);
    let reference = reference_rows(spec);
    let total = spec.fleets().iter().map(|&(_, n)| n).sum::<usize>();
    let mut state = FabricState::new(
        spec,
        FabricConfig {
            lease_size: total.div_ceil(2),
            lease_ttl: Duration::from_secs(60),
            ..FabricConfig::default()
        },
    )
    .expect("state");
    assert_eq!(state.remaining(), total);
    let now = Instant::now();

    // A mismatched sweep identity is refused outright.
    let err = state
        .handle(
            &FabricRequest::Lease {
                worker: 1,
                sweep: "e6".to_string(),
                k_max: 9,
                trials: 0,
            },
            now,
        )
        .expect_err("wrong k_max");
    assert!(err.contains("does not match"), "{err}");

    // Two chunks cover the fleet; worker 1 takes both.
    let FabricResponse::Grant {
        lease: l1,
        fleet,
        start: s1,
        end: e1,
    } = lease_of(&mut state, 1, now)
    else {
        panic!("first grant")
    };
    let FabricResponse::Grant {
        lease: l2,
        start: s2,
        end: e2,
        ..
    } = lease_of(&mut state, 1, now)
    else {
        panic!("second grant")
    };
    assert_eq!((s1 as usize, e2 as usize), (0, total), "contiguous cover");
    assert_eq!(e1, s2, "half-open ranges abut");

    // Worker 1 already holds every chunk: it cannot steal from itself.
    assert_eq!(
        lease_of(&mut state, 1, now),
        FabricResponse::Wait { millis: 200 }
    );
    // Worker 2 can — it duplicates the least-contended chunk (the first).
    let FabricResponse::Grant {
        lease: stolen,
        start,
        ..
    } = lease_of(&mut state, 2, now)
    else {
        panic!("steal grant")
    };
    assert_eq!(start, s1, "steal duplicates the first chunk");

    // DONE before the range is fully reported is a protocol error and
    // retires nothing.
    let err = state
        .handle(&FabricRequest::Done { lease: l1 }, now)
        .expect_err("premature DONE");
    assert!(err.contains("fully reported"), "{err}");

    // Worker 2 finishes the stolen copy; that retires worker 1's lease
    // on the same chunk too, and 1's next RENEW says EXPIRED.
    run_range(&mut state, spec, stolen, &fleet, (s1, e1));
    assert_eq!(
        state
            .handle(&FabricRequest::Renew { lease: l1 }, now)
            .expect("renew handled"),
        FabricResponse::Expired { lease: l1 }
    );

    // Let worker 1's second lease lapse: after the TTL a HEARTBEAT has
    // nothing to renew and the chunk returns to the open pool...
    let after_ttl = now + Duration::from_secs(61);
    run_range(&mut state, spec, l2, &fleet, (s2, e2));
    // ...unless, as here, it was already completed before the lapse —
    // so the sweep is simply done and further leases answer FINISHED.
    assert_eq!(
        state
            .handle(&FabricRequest::Heartbeat { worker: 1 }, after_ttl)
            .expect("heartbeat handled"),
        FabricResponse::Ok { token: 1 }
    );
    assert!(state.is_complete());
    assert_eq!(lease_of(&mut state, 2, after_ttl), FabricResponse::Finished);
    assert_eq!(state.finish().expect("rows"), reference);
}

#[test]
fn ttl_expiry_reopens_a_lapsed_chunk() {
    let spec = spec_e6(4);
    let total = spec.fleets().iter().map(|&(_, n)| n).sum::<usize>();
    let mut state = FabricState::new(
        spec,
        FabricConfig {
            lease_size: total, // one chunk: the whole fleet
            lease_ttl: Duration::from_millis(100),
            ..FabricConfig::default()
        },
    )
    .expect("state");
    let now = Instant::now();
    let FabricResponse::Grant { lease, .. } = lease_of(&mut state, 1, now) else {
        panic!("grant")
    };
    // Renewed in time, the lease survives...
    let later = now + Duration::from_millis(80);
    assert_eq!(
        state
            .handle(&FabricRequest::Renew { lease }, later)
            .expect("renew handled"),
        FabricResponse::Ok { token: lease }
    );
    // ...but after a silent TTL it lapses, and the whole chunk is open
    // again for the next worker — a fresh lease id on the same range.
    let lapsed = later + Duration::from_millis(101);
    let FabricResponse::Grant {
        lease: release,
        start,
        end,
        ..
    } = lease_of(&mut state, 2, lapsed)
    else {
        panic!("re-grant")
    };
    assert_ne!(release, lease);
    assert_eq!((start as usize, end as usize), (0, total));
    assert_eq!(
        state
            .handle(&FabricRequest::Renew { lease }, lapsed)
            .expect("renew handled"),
        FabricResponse::Expired { lease }
    );
}

#[test]
fn store_backed_fabric_resumes_and_refuses_fresh_reuse() {
    let spec = spec_e6(4);
    let reference = reference_rows(spec);
    let total = spec.fleets().iter().map(|&(_, n)| n).sum::<usize>();
    let store = temp_path("resume.cps");
    let _ = std::fs::remove_file(&store);
    let half = total.div_ceil(2);
    let durable = FabricConfig {
        lease_size: half,
        lease_ttl: Duration::from_secs(60),
        store_path: Some(store.clone()),
        ..FabricConfig::default()
    };

    // First coordinator: complete exactly one chunk, then "crash" (drop).
    {
        let mut state = FabricState::new(spec, durable.clone()).expect("fresh state");
        let now = Instant::now();
        let FabricResponse::Grant {
            lease,
            fleet,
            start,
            end,
        } = lease_of(&mut state, 1, now)
        else {
            panic!("grant")
        };
        run_range(&mut state, spec, lease, &fleet, (start, end));
        assert_eq!(state.remaining(), total - half);
    }

    // A fresh (non-resume) run over the leftover store must refuse it.
    let err = FabricState::new(spec, durable.clone());
    assert!(err.is_err(), "stale store accepted by a fresh run");

    // Resume: the persisted chunk is already retired, only the second
    // half is leased out, and the final rows are identical.
    let mut state = FabricState::new(
        spec,
        FabricConfig {
            resume: true,
            ..durable
        },
    )
    .expect("resume state");
    assert_eq!(state.remaining(), total - half);
    let now = Instant::now();
    let FabricResponse::Grant {
        lease,
        fleet,
        start,
        end,
    } = lease_of(&mut state, 2, now)
    else {
        panic!("resume grant")
    };
    assert_eq!(
        (start as usize, end as usize),
        (half, total),
        "resume leases only the unfinished half"
    );
    run_range(&mut state, spec, lease, &fleet, (start, end));
    assert!(state.is_complete());
    assert_eq!(state.finish().expect("rows"), reference);
    let _ = std::fs::remove_file(&store);
}

#[test]
fn fabric_instance_ids_round_trip() {
    for (fleet, index) in [(0, 0), (1, 1), (3, (1 << 48) - 1), (7, 123_456_789)] {
        let id = oqsc_bench::fabric_instance_id(fleet, index);
        assert_eq!(split_fabric_instance_id(id), (fleet, index));
    }
}
