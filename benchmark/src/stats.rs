//! Order statistics over raw samples.

/// The median of `values` (the mean of the middle two for an even
/// count). `NaN` for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (in 0..=1) of sorted samples: the
/// smallest sample with at least a `q` share of the samples at or
/// below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that still has at
/// least ten samples above its rank, as `(q, label)`. Tail percentiles
/// past that point are set by fewer than ten samples and so are noise.
pub fn highest_supported(samples: usize) -> (f64, &'static str) {
    let mut best = (0.5, "p50");
    // Each tail as `1 / share`: p90 leaves a tenth of the samples above.
    for (inverse_share, q, label) in
        [(10, 0.9, "p90"), (100, 0.99, "p99"), (1_000, 0.999, "p99.9"), (10_000, 0.9999, "p99.99")]
    {
        if samples >= 10 * inverse_share {
            best = (q, label);
        }
    }
    best
}

/// "`n` passes, wall min/median/max a/b/c s" for the report.
pub fn pass_summary(walls: &[f64]) -> String {
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls.iter().copied().fold(0.0, f64::max);
    format!(
        "{} timed passes, wall min/median/max {min:.4}/{:.4}/{max:.4} s",
        walls.len(),
        median(walls)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 0.5), 500);
        assert_eq!(percentile(&samples, 0.99), 990);
        assert_eq!(percentile(&samples, 1.0), 1000);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(19).1, "p50");
        assert_eq!(highest_supported(100).1, "p90");
        assert_eq!(highest_supported(999).1, "p90");
        assert_eq!(highest_supported(1000).1, "p99");
        assert_eq!(highest_supported(10_000).1, "p99.9");
    }
}
