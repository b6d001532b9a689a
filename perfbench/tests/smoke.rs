//! Runs the benchmark binary in its reduced-size smoke mode: every
//! workload in both modes must pass its correctness gate and print the
//! contract's last line, and one seed must reproduce the exact counts.

use std::path::PathBuf;
use std::process::Command;

/// A working directory of the test's own (the benchmark writes its
/// scratch and span files relative to it).
fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Runs one smoke workload; returns the last stdout line.
fn smoke(dir: &str, workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string(), "--smoke"])
        .current_dir(workdir(dir))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// `"name": {"value": V` → V.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing in {line}"))
        + key.len();
    let rest = &line[at..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("numeric value")
}

#[test]
fn every_workload_passes_in_both_modes() {
    for workload in ["serve-churn", "serve-deep", "paper-tables"] {
        for (trace, metrics) in [(0, 5), (1, 41)] {
            let line = smoke(&format!("modes-{workload}"), workload, 3, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert_eq!(line.matches("\"unit\"").count(), metrics, "{line}");
            if trace == 0 {
                assert!(value(&line, "tokens_per_s") > 0.0);
                assert!(value(&line, "setup_s") > 0.0);
            }
        }
    }
}

#[test]
fn one_seed_reproduces_the_exact_counts() {
    let counts = [
        "mux.evictions",
        "mux.hydrations",
        "mux.spills",
        "mux.spill_hydrations",
        "quantum.diffusions",
    ];
    let a = smoke("seed-a", "serve-churn", 5, 1);
    let b = smoke("seed-b", "serve-churn", 5, 1);
    for name in counts {
        assert_eq!(value(&a, name), value(&b, name), "{name} under seed 5");
    }
    assert!(value(&a, "mux.evictions") > 0.0, "the churn smoke evicts");
}
