//! Order statistics for repeated trials, and a continuous quantile read
//! out of the runtime's bucketed latency histogram.

use hcc_common::stats::LatencyHistogram;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: a metric with no trials is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them — the same rule the
/// builder's contract applies to ten runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |k: usize| {
        // Position k*(n+1)/4 in 1-based rank space, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Spread of repeated trials as the contract measures it: interquartile
/// distance as a share of the median. One value has no spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Quantile `q` of a latency histogram in nanoseconds, interpolated
/// linearly inside the containing bucket.
///
/// `LatencyHistogram::quantile` returns the bucket's lower edge (1 µs
/// steps below 1 ms), so at a 37 µs median two runs would read the same
/// integer. The histogram's buckets are private, but its quantile function
/// is monotone: bisecting on `q` finds the cumulative share at which the
/// bucket starts and ends, and the position of `q` between the two places
/// the quantile inside the bucket.
pub fn interpolated_quantile_ns(h: &LatencyHistogram, q: f64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let edge = h.quantile(q);
    let width_ns = match edge.0 {
        0..=999_999 => 1_000.0,
        1_000_000..=9_999_999 => 10_000.0,
        _ => 100_000.0,
    };
    // Smallest share whose quantile reaches this bucket.
    let (mut lo, mut hi) = (0.0, q);
    for _ in 0..40 {
        let mid = (lo + hi) / 2.0;
        if h.quantile(mid) >= edge {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let start = hi;
    // Largest share whose quantile is still in this bucket.
    let (mut lo, mut hi) = (q, 1.0);
    for _ in 0..40 {
        let mid = (lo + hi) / 2.0;
        if h.quantile(mid) <= edge {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let end = lo;
    let inside = if end > start {
        ((q - start) / (end - start)).clamp(0.0, 1.0)
    } else {
        0.5
    };
    edge.0 as f64 + inside * width_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_common::Nanos;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        let (q1, q3) = quartiles(&[64.0, 1.0, 8.0, 2.0, 32.0, 4.0, 16.0]);
        assert_eq!((q1, q3), (2.0, 32.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn interpolated_quantile_moves_inside_the_bucket() {
        // 100 samples in the 40 µs bucket, 100 in the 41 µs bucket: the
        // bucketed median is 40 µs flat; the interpolated one sits at the
        // top of the 40 µs bucket.
        let mut h = LatencyHistogram::default();
        for _ in 0..100 {
            h.record(Nanos(40_500));
            h.record(Nanos(41_500));
        }
        assert_eq!(h.quantile(0.5), Nanos::from_micros(40));
        let p50 = interpolated_quantile_ns(&h, 0.5);
        assert!((p50 - 41_000.0).abs() < 20.0, "{p50}");
        // Shift a tenth of the mass down: the median moves down inside
        // the bucket instead of staying pinned to its edge.
        let mut g = LatencyHistogram::default();
        for _ in 0..120 {
            g.record(Nanos(40_500));
        }
        for _ in 0..80 {
            g.record(Nanos(41_500));
        }
        let p50g = interpolated_quantile_ns(&g, 0.5);
        assert!(p50g < p50 - 100.0 && p50g > 40_000.0, "{p50g}");
        assert_eq!(
            interpolated_quantile_ns(&LatencyHistogram::default(), 0.5),
            0.0
        );
    }
}
