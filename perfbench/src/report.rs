//! The run's result: named metrics with units and sample counts, the
//! correctness tally, host provenance, and the one-line JSON object the
//! benchmark prints last.

use crate::stats::Quantile;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, all digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
    /// What the value is on this workload (percentile, estimate, n/a).
    pub note: String,
}

/// Operations attempted and failed, with the first failure messages.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted (requests, table passes, checks).
    pub attempted: u64,
    /// ERRs, timeouts and wrong outputs among them.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempted operation that failed.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < 8 {
            let msg: String = msg.into();
            // FEEDS lines run to ~16 KiB; keep the report readable.
            self.messages.push(msg.chars().take(240).collect());
        }
    }

    /// Folds another tally in.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Contract metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Correctness tally over the whole run.
    pub tally: Tally,
    /// Extra human-readable facts (correctness rates, configuration).
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    /// Adds a metric.
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            note: note.into(),
        });
    }

    /// Adds a note line.
    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.push((key.to_string(), value.into()));
    }

    /// Notes a tail that the report prints but the contract leaves out:
    /// on a shared host its value follows the host's steal time (see the
    /// README's "Tails").
    pub fn report_only(&mut self, name: &str, q: Quantile, unit: &str) {
        self.note(
            &format!("{name} (report only)"),
            format!("{} {unit}, {}", q.value, q.label()),
        );
    }
}

/// Renders an `f64` as a JSON number with all its digits (non-finite
/// values, which no metric should produce, become `null`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// JSON string escaping for the few characters our notes can hold.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build provenance, printed with every result.
fn provenance() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    vec![
        ("nproc".to_string(), nproc),
        (
            "simd_detected".to_string(),
            oqsc_quantum::simd::detected().name().to_string(),
        ),
        (
            "OQSC_SIMD".to_string(),
            std::env::var("OQSC_SIMD").unwrap_or_else(|_| "<unset>".to_string()),
        ),
        ("commit".to_string(), commit()),
    ]
}

/// The checked-out commit, read from `.git` without spawning git; the
/// benchmark also runs from plain exports, which have no `.git`.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git in the working directory)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

/// Prints the human-readable report lines (every metric with its unit,
/// sample count and note, then the notes and provenance).
pub fn print_report(workload: &str, seed: u64, seconds: u64, trace: bool, r: &RunResult) {
    println!("perfbench workload={workload} seed={seed} seconds={seconds} trace={trace}");
    for m in &r.metrics {
        println!(
            "  {:<34} {:>16} {:<6} n={:<8} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples,
            m.note
        );
    }
    for (k, v) in &r.notes {
        println!("  note {k}: {v}");
    }
    println!(
        "  failed_frac: {} ({} of {} operations)",
        r.tally.failed as f64 / r.tally.attempted.max(1) as f64,
        r.tally.failed,
        r.tally.attempted
    );
    for msg in &r.tally.messages {
        println!("  FAILURE: {msg}");
    }
    let mut host = format!("  host: run_seconds={seconds}");
    for (k, v) in provenance() {
        let _ = write!(host, " {k}={v}");
    }
    println!("{host}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut tally = Tally::default();
        tally.ok();
        tally.fail("boom");
        let metrics = vec![
            Metric {
                name: "latency_ms",
                value: 1.25,
                unit: "ms",
                samples: 3,
                note: String::new(),
            },
            Metric {
                name: "count",
                value: 3.0,
                unit: "count",
                samples: 1,
                note: String::new(),
            },
        ];
        assert_eq!(
            result_line(false, &tally, &metrics),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
