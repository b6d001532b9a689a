//! `perfbench` — end-to-end and per-layer benchmark of the L_DISJ
//! serving tier and the E6/F1 sweep schedulers.
//!
//! ```text
//! perfbench --workload serve-churn|serve-deep|paper-tables|all
//!           --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced); `all`
//! runs the three workloads in turn, each ending with its own line.
//! Exits 1 on any wrong output, ERR or timeout. See `README.md` beside this
//! crate for the workloads and the layer → metric → workload map.

mod client;
mod layers;
mod plan;
mod report;
mod serve;
mod stats;
mod tables;
mod trace;

use report::{print_report, result_line, Metric, RunResult};
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics, as listed in `BENCHMARK.json`. The serve
/// workloads also print `request_tail_us` and `session_tail_ms`, as
/// report-only notes.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("tokens_per_s", "1/s"),
    ("request_p50_us", "us"),
    ("session_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as listed in `BENCHMARK.json`. A layer a workload
/// does not exercise reports 0, noted as such.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("transport.request_us", "us"),
    ("protocol.parse_ns_per_token", "ns"),
    ("route.hop_us", "us"),
    ("mux.feed_p50_us", "us"),
    ("mux.feed_tail_us", "us"),
    ("mux.lock_wait_us", "us"),
    ("mux.evictions", "count"),
    ("mux.hydrations", "count"),
    ("mux.spills", "count"),
    ("mux.spill_hydrations", "count"),
    ("session.suspend_us", "us"),
    ("session.resume_us", "us"),
    ("lz4.compress_us", "us"),
    ("lz4.decompress_us", "us"),
    ("checkpoint.dense.raw_bytes", "B"),
    ("checkpoint.dense.lz4_bytes", "B"),
    ("checkpoint.adaptive.raw_bytes", "B"),
    ("checkpoint.adaptive.lz4_bytes", "B"),
    ("store.append_us", "us"),
    ("store.latest_us", "us"),
    ("a1.ns_per_token", "ns"),
    ("a2.ns_per_token", "ns"),
    ("a3.dense.ns_per_token", "ns"),
    ("a3.adaptive.ns_per_token", "ns"),
    ("decider.ns_per_token", "ns"),
    ("quantum.bit_update_ns", "ns"),
    ("quantum.diffusion_us", "us"),
    ("quantum.diffusions", "count"),
    ("quantum.bytes_per_diffusion", "B"),
    ("classical.prop37_ns_per_token", "ns"),
    ("a3.metering_ns_per_token", "ns"),
    ("batch.work_s", "s"),
    ("batch.critical_path_s", "s"),
    ("batch.efficiency", "ratio"),
    ("tables.table_s", "s"),
    ("tables.fabric_table_s", "s"),
    ("fabric.overhead_s", "s"),
    ("fabric.leases", "count"),
    ("fabric.expired", "count"),
    ("trace.overhead_frac", "ratio"),
    ("unaccounted_frac", "ratio"),
];

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["serve-churn", "serve-deep", "paper-tables"];

/// Per workload: a run that has not printed its result by then is
/// failed and ended, inside the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be `all` or one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Orders the run's metrics as `BENCHMARK.json` lists them; a per-layer
/// metric the workload did not measure is 0 with an `n/a` note, and a
/// missing end-to-end metric is a failure.
fn contract_metrics(r: &mut RunResult, trace: bool) -> Vec<Metric> {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        match r.metrics.iter().find(|m| m.name == name) {
            Some(m) => out.push(m.clone()),
            None if trace => out.push(Metric {
                name,
                value: 0.0,
                unit,
                samples: 0,
                note: "n/a: layer not on this workload's path".to_string(),
            }),
            None => r
                .tally
                .fail(format!("end-to-end metric {name} was not measured")),
        }
    }
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--fabric-worker") {
        let code = match argv.as_slice() {
            [_, addr, sweep, k] => match k.parse() {
                Ok(k) => tables::fabric_worker(addr, sweep, k),
                Err(e) => {
                    eprintln!("bad k_max {k}: {e}");
                    2
                }
            },
            _ => {
                eprintln!("usage: perfbench --fabric-worker ADDR SWEEP K_MAX");
                2
            }
        };
        std::process::exit(code);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    // A hang must still end the run with a failed result.
    let limit = WATCHDOG * workloads.len() as u32;
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        println!("perfbench: watchdog: the run did not finish within {limit:?}");
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        std::process::exit(3);
    });
    let mut all_correct = true;
    for workload in workloads {
        all_correct &= run_workload(workload, &args);
    }
    std::process::exit(if all_correct { 0 } else { 1 });
}

/// Runs one workload, prints its report and result line, and returns
/// whether every check passed.
fn run_workload(workload: &str, args: &Args) -> bool {
    let dir = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let seconds = if args.smoke { 1 } else { args.seconds };
    let (seed, trace) = (args.seed, args.trace);
    let mut result = match workload {
        "serve-churn" => serve::run(&plan::churn(args.smoke), seed, seconds, trace, &dir),
        "serve-deep" => serve::run(&plan::deep(args.smoke), seed, seconds, trace, &dir),
        _ => tables::run(seed, seconds, trace, args.smoke, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    let metrics = contract_metrics(&mut result, trace);
    let correct = result.tally.failed == 0;
    print_report(workload, seed, seconds, trace, &result);
    println!("{}", result_line(correct, &result.tally, &metrics));
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve-deep --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-deep", 9, 12, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload serve-deep --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve-deep --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload serve-deep --seed")).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists exactly these metrics"
        );
    }
}
