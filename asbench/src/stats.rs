//! Percentiles and medians over raw samples.
//!
//! Every timing is kept as a raw nanosecond sample, so a reported
//! percentile is an observed value, not a bucket bound.

/// Appends a nanosecond sample, saturating at `u32::MAX` (about 4.3 s).
pub fn push_ns(samples: &mut Vec<u32>, ns: u64) {
    samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
}

/// Nearest-rank percentile: the smallest sample with at least a `q` share
/// of the samples at or below it (`q` in `0.0..=1.0`). Reorders `samples`;
/// `None` when there are none.
pub fn percentile(samples: &mut [u32], q: f64) -> Option<u32> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    Some(*v)
}

/// Median of `values` (mean of the middle two for an even count);
/// `None` when empty. Reorders `values`.
pub fn median(values: &mut [f64]) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    values.sort_by(f64::total_cmp);
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

/// Nearest-rank quantile of `values`, as [`percentile`]; 0 when empty.
fn quantile(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v.sort_by(f64::total_cmp);
    v[rank - 1]
}

/// The values of the `keep` share (rounded up) of `(steal, value)` samples
/// with the least host CPU steal; ties keep their order.
fn least_stolen(samples: impl IntoIterator<Item = (f64, f64)>, keep: f64) -> Vec<f64> {
    let mut s: Vec<(f64, f64)> = samples.into_iter().collect();
    s.sort_by(|a, b| a.0.total_cmp(&b.0));
    s.truncate((keep * s.len() as f64).ceil() as usize);
    s.into_iter().map(|(_, v)| v).collect()
}

/// The slower quartile of a run's `(steal, value)` samples (its windows or
/// probe rounds): drops the quarter with the most host CPU steal, then
/// takes the `q` quantile of the rest, 0.25 for a rate and 0.75 for a time.
///
/// On a shared host samples run in a few speed modes set by other tenants,
/// for seconds at a time and apart from steal: a slow one that shows in
/// nearly every run, and faster stretches whose share changes from run to
/// run. The median and the mean follow that share; the slower quartile
/// stays inside the slow mode. Steal, which delays every wake-up, comes on
/// top and is dropped where it touches only part of a run.
pub fn slower_quartile(samples: impl IntoIterator<Item = (f64, f64)>, q: f64) -> f64 {
    quantile(least_stolen(samples, 0.75), q)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50));
        assert_eq!(percentile(&mut v, 0.99), Some(99));
        assert_eq!(percentile(&mut v, 1.0), Some(100));
        assert_eq!(percentile(&mut v, 0.0), Some(1));
        assert_eq!(percentile(&mut v, 0.001), Some(1));
    }

    #[test]
    fn nearest_rank_rounds_up_between_samples() {
        // 10 samples: p50 is the 5th, p99 the 10th, p91 the 10th, p90 the 9th.
        let mut v = vec![70, 10, 100, 40, 20, 90, 30, 60, 50, 80];
        assert_eq!(percentile(&mut v, 0.5), Some(50));
        assert_eq!(percentile(&mut v, 0.99), Some(100));
        assert_eq!(percentile(&mut v, 0.91), Some(100));
        assert_eq!(percentile(&mut v, 0.9), Some(90));
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(percentile(&mut [7], 0.99), Some(7));
        let mut dup = vec![5, 5, 5, 1];
        assert_eq!(percentile(&mut dup, 0.5), Some(5));
    }

    #[test]
    fn samples_saturate() {
        let mut v = Vec::new();
        push_ns(&mut v, 12);
        push_ns(&mut v, u64::MAX);
        assert_eq!(v, vec![12, u32::MAX]);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        // 8 values: q1 is the 2nd, the median the 4th, q3 the 6th.
        let v = [100.0, 1.0, 4.0, 3.0, 6.0, 5.0, 2.0, 900.0];
        assert_eq!(quantile(v, 0.25), 2.0);
        assert_eq!(quantile(v, 0.5), 4.0);
        assert_eq!(quantile(v, 0.75), 6.0);
        assert_eq!(quantile(v, 1.0), 900.0);
        assert_eq!(quantile([7.0], 0.25), 7.0);
        assert_eq!(quantile([], 0.75), 0.0);
    }

    #[test]
    fn least_stolen_keeps_the_calmest_share() {
        let s = [
            (0.3, 90.0),
            (0.0, 10.0),
            (0.5, 99.0),
            (0.1, 30.0),
            (0.0, 20.0),
        ];
        // 3 of 5 (0.6 rounded up): steal 0, 0 and 0.1.
        assert_eq!(least_stolen(s, 0.5), vec![10.0, 20.0, 30.0]);
        assert_eq!(least_stolen(s, 0.75), vec![10.0, 20.0, 30.0, 90.0]);
        assert!(least_stolen([], 0.75).is_empty());
    }

    #[test]
    fn slower_quartile_of_the_calmest_three_quarters() {
        // Steal drops (0.4, 1.0); of the other 8 values (1..=8), q = 0.25
        // is the 2nd and q = 0.75 the 6th.
        let s = (1..=8)
            .map(|v| (0.01 * f64::from(v), f64::from(v)))
            .chain([(0.4, 1.0)]);
        assert_eq!(slower_quartile(s.clone(), 0.25), 2.0);
        assert_eq!(slower_quartile(s, 0.75), 6.0);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
