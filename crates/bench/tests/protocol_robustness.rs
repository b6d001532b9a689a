//! Hostile-line battery, run against every line-protocol endpoint — the
//! server, a router in front of one, and the sweep fabric's coordinator:
//! every malformed input — overlong lines, non-UTF8 bytes, truncated
//! `FEEDS` counts, absurd declared counts, requests a serving engine
//! must refuse — earns a typed `ERR` line and leaves the connection
//! usable. Never a panic, never a dropped connection, never an
//! allocation proportional to what the client *claims* to be sending,
//! and never a slow writer's request truncated at a read poll.

#[path = "../../serve/tests/common/mod.rs"]
mod common;

use common::{socket_path, watchdog, RawClient};
use oqsc_bench::{fabric_work, Coordinator, FabricConfig, SweepSpec, WorkerConfig};
use oqsc_serve::{
    demo_fleet, direct_outcome_lines, Router, RouterConfig, Server, ServerConfig, MAX_LINE_BYTES,
};
use std::thread::JoinHandle;
use std::time::Duration;

/// The server's and router's read poll in this suite (non-default, so
/// the partial-line guarantee is pinned at a configured value).
const POLL: Duration = Duration::from_millis(25);
/// The coordinator's fixed read poll.
const FABRIC_POLL: Duration = Duration::from_millis(50);

#[derive(Clone, Copy, Debug)]
enum Kind {
    Server,
    Router,
    Coordinator,
}

const ENDPOINTS: [Kind; 3] = [Kind::Server, Kind::Router, Kind::Coordinator];

/// One running endpoint and what it takes to stop it.
struct Endpoint {
    kind: Kind,
    addr: String,
    threads: Vec<JoinHandle<()>>,
}

/// The fabric sweep the coordinator runs: tiny, so a worker finishes it
/// in moments when the test is done with the coordinator.
fn fabric_spec() -> SweepSpec {
    SweepSpec::from_cli("e6", 2, 0).expect("e6 spec")
}

impl Endpoint {
    fn start(kind: Kind, name: &str) -> Endpoint {
        let addr = socket_path(&format!("{name}-{kind:?}"));
        let serve = |addr: &str| {
            let config = ServerConfig {
                read_timeout: POLL,
                ..ServerConfig::default()
            };
            let server = Server::bind(addr, config).expect("bind server");
            std::thread::spawn(move || {
                server.run().expect("serve");
            })
        };
        let threads = match kind {
            Kind::Server => vec![serve(&addr)],
            Kind::Router => {
                let engine = socket_path(&format!("{name}-engine"));
                let engine_thread = serve(&engine);
                let config = RouterConfig {
                    read_timeout: POLL,
                    ..RouterConfig::default()
                };
                let router = Router::bind(&addr, vec![engine], config).expect("bind router");
                vec![
                    engine_thread,
                    std::thread::spawn(move || router.run().expect("route")),
                ]
            }
            Kind::Coordinator => {
                let coordinator = Coordinator::bind(&addr, fabric_spec(), FabricConfig::default())
                    .expect("bind coordinator");
                vec![std::thread::spawn(move || {
                    coordinator.run().expect("coordinate");
                })]
            }
        };
        Endpoint {
            kind,
            addr,
            threads,
        }
    }

    /// How long a slow writer pauses between bytes: longer than one
    /// read poll, so every request is cut by several timeouts.
    fn byte_pause(&self) -> Duration {
        let poll = match self.kind {
            Kind::Coordinator => FABRIC_POLL,
            _ => POLL,
        };
        poll + Duration::from_millis(10)
    }

    /// A valid request and the exact response it earns on a fresh
    /// endpoint.
    fn valid(&self) -> (&'static str, &'static str) {
        match self.kind {
            Kind::Coordinator => ("HEARTBEAT 7", "OK 7"),
            _ => ("OPEN 1 format 0", "OK 1 0"),
        }
    }

    /// Stops the endpoint through `client`: `SHUTDOWN` for the serving
    /// endpoints; the coordinator instead serves until its sweep is
    /// complete, so a worker finishes it once `client` has hung up.
    fn stop(self, mut client: RawClient) {
        match self.kind {
            Kind::Coordinator => {
                drop(client);
                fabric_work(&self.addr, fabric_spec(), &WorkerConfig::default())
                    .expect("worker finishes the sweep");
            }
            _ => assert_eq!(client.ask("SHUTDOWN"), "OK shutdown"),
        }
        for thread in self.threads {
            thread.join().expect("endpoint thread");
        }
    }
}

#[test]
fn hostile_lines_get_typed_errors_and_the_connection_survives() {
    watchdog(|| {
        for kind in ENDPOINTS {
            let endpoint = Endpoint::start(kind, "battery");
            let mut client = RawClient::connect(&endpoint.addr);

            // A line crossing the cap without a newline: one bounded ERR
            // once the newline finally arrives, then business as usual.
            let mut overlong = vec![b'x'; MAX_LINE_BYTES + 4096];
            overlong.push(b'\n');
            let response = client.send_raw(&overlong);
            assert!(
                response.starts_with("ERR line too long"),
                "{kind:?}: {response}"
            );

            // Non-UTF8 bytes in an otherwise well-framed line.
            let response = client.send_raw(b"FEED 1 \xff\xfe\x80\n");
            assert!(
                response.starts_with("ERR request is not valid UTF-8"),
                "{kind:?}: {response}"
            );

            for bad in [
                // Truncated FEEDS batches: fewer chunks than declared.
                "FEEDS 1 2 01",
                "FEEDS 1 3 01",
                "FEEDS 1 1",
                // A count chosen to bankrupt a server that preallocates
                // by it.
                "FEEDS 1 18446744073709551615 01",
                "FEEDS 1 9999999999 01 10",
                // Excess chunks and garbage counts.
                "FEEDS 1 1 01 10",
                "FEEDS 1 -3 01",
                "FEEDS 1 zz 01",
                // Garbage words inside a well-counted batch.
                "FEEDS 1 2 01 0x2",
                // Assorted malformed frames.
                "OPEN 1 format",
                "OPEN 99999999999999999999999999 format 0",
                "FEED",
                "FINISH one",
                "STATS now",
                "NONSENSE",
                "\u{1F980} 1", // a verb from outside ASCII entirely
            ] {
                let response = client.ask(bad);
                assert!(
                    response.starts_with("ERR "),
                    "{kind:?}: {bad:?} got: {response}"
                );
            }

            // After all of that abuse, the same connection still answers
            // a valid request.
            let (request, expected) = endpoint.valid();
            assert_eq!(client.ask(request), expected, "{kind:?}");
            if let Kind::Router = kind {
                // The engine's own refusals, relayed verbatim (the server
                // meets them in `serve_socket.rs`).
                common::assert_engine_refusals(&mut client);
            }
            endpoint.stop(client);
        }
    });
}

/// Two overlong lines back to back, with a pipelined valid request
/// behind them: the resync must swallow exactly one line per ERR.
#[test]
fn oversized_line_resync_is_exact() {
    watchdog(|| {
        for kind in ENDPOINTS {
            let endpoint = Endpoint::start(kind, "resync");
            let mut client = RawClient::connect(&endpoint.addr);
            let (request, expected) = endpoint.valid();

            let mut blob = Vec::new();
            for _ in 0..2 {
                blob.extend_from_slice(&vec![b'y'; MAX_LINE_BYTES + 100]);
                blob.push(b'\n');
            }
            blob.extend_from_slice(format!("{request}\n").as_bytes());
            let first = client.send_raw(&blob);
            assert!(first.starts_with("ERR line too long"), "{kind:?}: {first}");
            let next = client.read_response();
            assert!(
                next.starts_with("ERR line too long"),
                "{kind:?}: second oversized line, got: {next}"
            );
            assert_eq!(
                client.read_response(),
                expected,
                "{kind:?}: the valid request behind the junk"
            );
            endpoint.stop(client);
        }
    });
}

/// A client writing one byte per read poll crosses the endpoint's read
/// timeout in the middle of every request line. The already-read prefix
/// must survive each timeout: a serving endpoint still plays a demo
/// session to the exact direct-run outcome, the coordinator still
/// answers its heartbeat.
#[test]
fn byte_at_a_time_slow_writer_is_never_corrupted() {
    watchdog(|| {
        const SEED: u64 = 0xD21F7; // the serve suites' demo fleet
        for kind in ENDPOINTS {
            let endpoint = Endpoint::start(kind, "trickle");
            let mut client = RawClient::connect(&endpoint.addr);
            let pause = endpoint.byte_pause();
            let mut trickle = |line: String| client.trickle(format!("{line}\n").as_bytes(), pause);
            if let Kind::Coordinator = kind {
                let (request, expected) = endpoint.valid();
                assert_eq!(trickle(request.to_string()), expected);
            } else {
                let (id, decider, seed, word) = demo_fleet(SEED).into_iter().next().expect("fleet");
                let open = trickle(format!("OPEN {id} {} {seed}", decider.name()));
                assert_eq!(open, format!("OK {id} 0"), "{kind:?}");
                let feed = trickle(format!("FEED {id} {}", oqsc_lang::token::to_string(&word)));
                assert!(feed.starts_with(&format!("OK {id} ")), "{kind:?}: {feed}");
                assert_eq!(
                    trickle(format!("FINISH {id}")),
                    direct_outcome_lines(SEED)[id as usize],
                    "{kind:?}: a one-byte-per-poll client must see the direct-run outcome"
                );
            }
            endpoint.stop(client);
        }
    });
}
