//! End-to-end: a server under a churn-forcing budget — on a Unix socket
//! or a TCP port, fed per-token or batched — driven through the text
//! protocol must reproduce direct runs byte for byte; with a spill
//! store attached, even across a shutdown/restart. The in-process
//! version of the CI serve smokes. Plus the connection cap: a full
//! server makes clients wait, never refuses them, and a `SHUTDOWN`
//! dialled right after a close is answered.

mod common;

use common::{socket_path, spawn_server, watchdog, RawClient};
use oqsc_serve::{
    direct_outcome_lines, drive_fleet, drive_socket, shutdown_socket, stats_socket, DrivePhase,
    FeedMode, LineClient, MuxConfig, Server, ServerConfig,
};
use std::io::ErrorKind;
use std::os::unix::net::UnixListener;
use std::time::Duration;

/// The identity tests' churn-forcing sizing.
fn tight_config(threads: usize, live_bytes_budget: usize) -> ServerConfig {
    ServerConfig {
        threads,
        mux: MuxConfig {
            live_bytes_budget,
            warm_bytes_budget: 1 << 30,
            shards: 4,
        },
        ..ServerConfig::default()
    }
}

#[test]
fn served_fleet_matches_direct_runs_byte_for_byte() {
    watchdog(|| {
        const SEED: u64 = 0xD21F7; // deterministic driver seed
        let path = socket_path("identity");
        // Tight enough that the demo fleet churns through the warm tier
        // constantly.
        let handle = spawn_server(&path, tight_config(3, 2 << 10));

        let served = drive_socket(&path, SEED).expect("drive");
        let direct = direct_outcome_lines(SEED);
        assert_eq!(served, direct);

        let stats = stats_socket(&path).expect("stats");
        assert!(stats.starts_with("STATS "), "bad stats line: {stats}");

        shutdown_socket(&path).expect("shutdown");
        let final_stats = handle.join().expect("server thread");
        assert_eq!(final_stats.finished, direct.len() as u64);
        assert!(
            !std::path::Path::new(&path).exists(),
            "socket file should be removed on shutdown"
        );
    });
}

/// The same identity over TCP: an address with a `:` binds a TCP
/// listener (port 0 → kernel-chosen), and the transcript is identical
/// to the Unix-socket one because the protocol never sees the
/// transport.
#[test]
fn tcp_served_fleet_matches_direct_runs_byte_for_byte() {
    watchdog(|| {
        const SEED: u64 = 0xD21F7;
        let server = Server::bind("127.0.0.1:0", tight_config(3, 2 << 10)).expect("bind tcp");
        let addr = server.local_addr();
        assert!(addr.contains(':'), "dialable TCP address, got {addr}");
        let handle = std::thread::spawn(move || server.run().expect("serve"));

        let served = drive_socket(&addr, SEED).expect("drive over tcp");
        assert_eq!(served, direct_outcome_lines(SEED));

        shutdown_socket(&addr).expect("shutdown");
        handle.join().expect("server thread");
    });
}

/// Batched `FEEDS` driving is byte-identical to per-token `FEED`
/// driving across the budget × thread grid — including budget 0, where
/// every batch straddles a full evict + rehydrate cycle.
#[test]
fn batched_feeds_match_per_token_feeds_over_the_socket() {
    watchdog(|| {
        const SEED: u64 = 0xD21F7;
        let direct = direct_outcome_lines(SEED);
        for live_budget in [0usize, 4 << 10] {
            for threads in [1usize, 8] {
                let mut transcripts = Vec::new();
                for mode in [FeedMode::Chunks, FeedMode::Batched] {
                    let path = socket_path(&format!("batched-{live_budget}-{threads}-{mode:?}"));
                    let handle = spawn_server(&path, tight_config(threads, live_budget));
                    let served =
                        drive_fleet(&path, SEED, mode, DrivePhase::Full).expect("drive fleet");
                    shutdown_socket(&path).expect("shutdown");
                    handle.join().expect("server thread");
                    transcripts.push(served);
                }
                assert_eq!(
                    transcripts[0], direct,
                    "per-token FEED, budget {live_budget}, threads {threads}"
                );
                assert_eq!(
                    transcripts[1], direct,
                    "batched FEEDS, budget {live_budget}, threads {threads}"
                );
            }
        }
    });
}

/// With a spill store attached, a graceful shutdown mid-stream loses
/// nothing: a restarted server on the same store hydrates every session
/// at its exact position, and the finished outcomes still match direct
/// runs byte for byte.
#[test]
fn restart_from_spill_resumes_mid_stream_sessions() {
    watchdog(|| {
        const SEED: u64 = 0xD21F7;
        let path = socket_path("restart");
        let store = std::env::temp_dir().join(format!(
            "oqsc-serve-test-{}-restart.cps",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&store);
        let config = ServerConfig {
            spill_store: Some(store.clone()),
            ..tight_config(3, 2 << 10)
        };

        let handle = spawn_server(&path, config.clone());
        let none =
            drive_fleet(&path, SEED, FeedMode::Batched, DrivePhase::FirstHalf).expect("first half");
        assert!(none.is_empty(), "FirstHalf leaves every session mid-stream");
        shutdown_socket(&path).expect("shutdown");
        handle.join().expect("server thread");

        let handle = spawn_server(&path, config);
        let served = drive_fleet(&path, SEED, FeedMode::Batched, DrivePhase::SecondHalf)
            .expect("second half");
        assert_eq!(served, direct_outcome_lines(SEED));
        shutdown_socket(&path).expect("shutdown");
        let stats = handle.join().expect("server thread");
        assert!(
            stats.spill_hydrations > 0,
            "second-half sessions must have hydrated from the store: {stats:?}"
        );
        let _ = std::fs::remove_file(&store);
    });
}

/// Binding replaces a *stale* socket file (dead server) and only a
/// stale one: a live server is refused, and a path that is not a socket
/// is never touched.
#[test]
fn bind_replaces_stale_sockets_but_refuses_live_servers_and_files() {
    watchdog(|| {
        // Stale: a socket file whose listener is gone accepts the bind.
        let stale = socket_path("stale");
        let dead = UnixListener::bind(&stale).expect("first bind");
        drop(dead); // closes the fd, leaves the socket file behind
        assert!(
            std::path::Path::new(&stale).exists(),
            "dead listener leaves its socket file"
        );
        let server = Server::bind(&stale, ServerConfig::default()).expect("stale file is replaced");
        drop(server);
        let _ = std::fs::remove_file(&stale);

        // Live: a served socket is refused instead of clobbered.
        let live = socket_path("live");
        let handle = spawn_server(&live, ServerConfig::default());
        let err = match Server::bind(&live, ServerConfig::default()) {
            Ok(_) => panic!("live server must be refused"),
            Err(err) => err,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
        // The refusal must not have unlinked the live server's socket.
        shutdown_socket(&live).expect("still serving after refused bind");
        handle.join().expect("server thread");

        // Not a socket: refused and preserved.
        let file = socket_path("plain-file");
        std::fs::write(&file, b"precious").expect("write");
        let err = match Server::bind(&file, ServerConfig::default()) {
            Ok(_) => panic!("regular file must be refused"),
            Err(err) => err,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists, "{err}");
        assert_eq!(std::fs::read(&file).expect("still there"), b"precious");
        let _ = std::fs::remove_file(&file);
    });
}

/// Protocol errors get an `ERR` and leave the session and the
/// connection usable: unknown verbs and sessions, a duplicate open, a
/// truncated batch, a double finish.
#[test]
fn protocol_errors_leave_the_connection_usable() {
    watchdog(|| {
        let path = socket_path("errors");
        let handle = spawn_server(&path, ServerConfig::default());
        let mut client = RawClient::connect(&path);
        common::assert_engine_refusals(&mut client);
        assert_eq!(client.ask("SHUTDOWN"), "OK shutdown");
        handle.join().expect("server thread");
    });
}

/// At the connection cap a new client waits in the backlog: with one
/// connection slot held by an idle client, a second client's request
/// runs into its own read deadline (a typed error, not a block and not
/// an `ERR busy`), and once the idle client hangs up the retry is
/// served. A `SHUTDOWN` dialled right after a client closes — the
/// benchmark's stop sequence, with as many slots as clients — is
/// answered.
#[test]
fn a_full_server_makes_clients_wait_and_serves_them_once_a_slot_frees() {
    watchdog(|| {
        let path = socket_path("cap");
        let config = ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        };
        let handle = spawn_server(&path, config);

        // The idle client holds the only slot (the answer proves it was
        // accepted), then sends nothing.
        let mut idle = RawClient::connect(&path);
        assert_eq!(idle.ask("OPEN 1 format 0"), "OK 1 0");

        let mut waiting = RawClient::with_deadline(&path, Duration::from_millis(300));
        let err = waiting.try_ask("STATS").expect_err("no slot: no answer");
        assert!(
            matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "a deadline error, got {err}"
        );
        drop(waiting);

        drop(idle);
        let mut retry = LineClient::connect(&path).expect("connect");
        let stats = retry.ask("STATS").expect("served once the slot frees");
        assert!(stats.starts_with("STATS "), "got: {stats}");
        drop(retry);

        let mut stop = LineClient::connect(&path).expect("connect");
        assert_eq!(stop.ask("SHUTDOWN").expect("shutdown"), "OK shutdown");
        handle.join().expect("server thread");
    });
}
