//! In-memory spans recorded by the benchmark around its calls into the
//! program, plus the two derived quantities the layer breakdown needs:
//! a span's self time and the unaccounted remainder of a total.
//!
//! Spans are plain records (name, start, end, parent). Each thread keeps
//! its own `Vec<Span>`; they are merged and written out once, after the
//! measured window, so recording costs one `Instant::now()` per edge.

use std::io::Write;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the trace epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within one trace.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `serve.request`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (`>= start`).
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Nanoseconds from `epoch` to `t`.
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the interval first, so overlapping or overhanging
/// children are never double counted).
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover.
pub fn self_time(span: &Span, spans: &[Span]) -> u64 {
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start, c.end))
        .collect();
    span.dur() - covered(span.start, span.end, &children)
}

/// The share of `total` the named `parts` do not account for, signed:
/// negative when the parts over-account (estimates that overlap).
pub fn unaccounted_frac(total: f64, parts: &[f64]) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    (total - parts.iter().sum::<f64>()) / total
}

/// Writes spans as tab-separated `id parent name start_ns end_ns` lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.id, parent, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips_overhangs() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (30, 40)]), 20);
        assert_eq!(covered(0, 100, &[(10, 30), (20, 40)]), 30);
        assert_eq!(covered(0, 100, &[(10, 40), (20, 30)]), 30);
        assert_eq!(covered(10, 20, &[(0, 15), (18, 50)]), 7);
        assert_eq!(covered(10, 20, &[(0, 5), (25, 30)]), 0);
        assert_eq!(covered(0, 10, &[(0, 10), (0, 10)]), 10);
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60), // overlaps its sibling
            span(4, Some(2), 15, 20), // grandchild: not a child of 1
            span(5, None, 50, 70),    // unrelated
        ];
        assert_eq!(self_time(&spans[0], &spans), 50);
        assert_eq!(self_time(&spans[1], &spans), 25);
        assert_eq!(self_time(&spans[4], &spans), 20);
    }

    #[test]
    fn unaccounted_remainder_is_signed() {
        assert_eq!(unaccounted_frac(10.0, &[4.0, 4.0]), 0.2);
        assert_eq!(unaccounted_frac(10.0, &[6.0, 6.0]), -0.2);
        assert_eq!(unaccounted_frac(10.0, &[]), 1.0);
        assert_eq!(unaccounted_frac(0.0, &[1.0]), 0.0);
    }
}
