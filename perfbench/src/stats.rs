//! Order statistics for the report: medians, nearest-rank percentiles,
//! and the tail rule every `*_tail_*` metric follows.

/// Percentiles a tail may be reported at, highest first. A tail is the
/// highest of these with at least [`TAIL_MIN_BEYOND`] samples above it.
/// The ladder stops at p95: on a shared 2-core host, stalls of other
/// tenants reach the p99 of a closed loop (the serve-churn p99 doubled
/// between runs of identical code while its p95 moved with the median).
pub const TAIL_LADDER: [f64; 4] = [95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A value at a named percentile, with the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// Percentile in `0..=100`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

impl Quantile {
    /// `p99 of 1234` style label for the report.
    pub fn label(&self) -> String {
        format!("p{} of {}", self.pct, self.samples)
    }
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending). `None` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<Quantile> {
    if sorted.is_empty() {
        return None;
    }
    Some(Quantile {
        pct,
        value: sorted[rank(pct, sorted.len()) - 1],
        samples: sorted.len(),
    })
}

/// The median (nearest rank) of `values`, in any order.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).map(|q| q.value)
}

/// The tail of `sorted`: the highest [`TAIL_LADDER`] percentile with at
/// least [`TAIL_MIN_BEYOND`] samples strictly beyond its rank. Too few
/// samples for even p50 to qualify falls back to the median, whose label
/// then says so (`p50 of 7`).
pub fn tail(sorted: &[f64]) -> Option<Quantile> {
    let n = sorted.len();
    let pct = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(p, n.max(1)) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    percentile(sorted, pct)
}

/// Sorts in place and returns `(p50, tail)`.
pub fn p50_and_tail(values: &mut [f64]) -> Option<(Quantile, Quantile)> {
    values.sort_by(f64::total_cmp);
    Some((percentile(values, 50.0)?, tail(values)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0).unwrap().value, 5.0);
        assert_eq!(percentile(&v, 90.0).unwrap().value, 9.0);
        assert_eq!(percentile(&v, 100.0).unwrap().value, 10.0);
        assert_eq!(percentile(&v, 0.0).unwrap().value, 1.0);
        assert!(percentile(&[], 50.0).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // Many samples: the ladder's top, p95.
        let q = tail(&ramp(100_000)).unwrap();
        assert_eq!((q.pct, q.value, q.samples), (95.0, 95_000.0, 100_000));
        // 199 samples: p95's rank is 190, only 9 beyond, so p90.
        let q = tail(&ramp(199)).unwrap();
        assert_eq!((q.pct, q.value), (90.0, 180.0));
        // 100 samples: p90 has 10 beyond.
        assert_eq!(tail(&ramp(100)).unwrap().pct, 90.0);
        // 99 samples: p90 has 9 beyond, p75 has 24.
        assert_eq!(tail(&ramp(99)).unwrap().pct, 75.0);
        // 200 samples: p95 has 10 beyond.
        assert_eq!(tail(&ramp(200)).unwrap().pct, 95.0);
        // 20 samples: p75 has 5 beyond, p50 exactly 10.
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50.0);
    }

    #[test]
    fn too_few_samples_fall_back_to_a_labelled_median() {
        let q = tail(&ramp(7)).unwrap();
        assert_eq!((q.pct, q.value, q.samples), (50.0, 4.0, 7));
        assert_eq!(q.label(), "p50 of 7");
        assert_eq!(tail(&[2.5]).unwrap().value, 2.5);
        assert!(tail(&[]).is_none());
    }
}
