//! Time-series helpers: differencing, window averaging, aggregation and
//! autocorrelation.
//!
//! Figure 5 of the paper averages NYC prices over 5-minute, 1-hour, 3-hour,
//! 12-hour and 24-hour windows before taking standard deviations; Figure 3
//! plots daily averages of hourly prices; Figure 7 histograms the
//! hour-to-hour *differences*. These transformations live here.

/// First differences: `out[i] = xs[i + 1] - xs[i]`.
///
/// Returns an empty vector for inputs with fewer than two samples.
pub fn diff_series(xs: &[f64]) -> Vec<f64> {
    if xs.len() < 2 {
        return Vec::new();
    }
    xs.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Element-wise difference of two equal-length series: `a[i] - b[i]`.
///
/// Returns `None` if the lengths differ. This is the "price differential"
/// series of §3.3.
pub fn pairwise_difference(a: &[f64], b: &[f64]) -> Option<Vec<f64>> {
    if a.len() != b.len() {
        return None;
    }
    Some(a.iter().zip(b).map(|(x, y)| x - y).collect())
}

/// Non-overlapping window averages with window length `window` (in samples).
///
/// A trailing partial window is averaged over however many samples it holds.
/// Returns an empty vector when `window == 0` or the input is empty.
pub fn window_average(xs: &[f64], window: usize) -> Vec<f64> {
    if window == 0 || xs.is_empty() {
        return Vec::new();
    }
    xs.chunks(window).map(|c| c.iter().sum::<f64>() / c.len() as f64).collect()
}

/// Sample autocorrelation at a given lag.
///
/// Returns `None` when the lag leaves fewer than two overlapping samples or
/// the series has zero variance.
pub fn autocorrelation(xs: &[f64], lag: usize) -> Option<f64> {
    if xs.len() <= lag + 1 {
        return None;
    }
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let denom: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
    if denom == 0.0 {
        return None;
    }
    let num: f64 = (0..n - lag).map(|i| (xs[i] - mean) * (xs[i + lag] - mean)).sum();
    Some(num / denom)
}

/// Group samples by a key function and average each group, returning groups
/// in ascending key order.
///
/// Used to aggregate hourly prices by hour-of-day (Figure 12) or by month
/// (Figure 11).
pub fn group_average<F>(xs: &[f64], key: F) -> Vec<(usize, f64)>
where
    F: Fn(usize) -> usize,
{
    use std::collections::BTreeMap;
    let mut sums: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    for (i, &x) in xs.iter().enumerate() {
        let entry = sums.entry(key(i)).or_insert((0.0, 0));
        entry.0 += x;
        entry.1 += 1;
    }
    sums.into_iter().map(|(k, (sum, count))| (k, sum / count as f64)).collect()
}

/// Collect the values of each group defined by a key function, in ascending
/// key order. Like [`group_average`] but returning the raw per-group samples
/// so the caller can compute medians / IQRs.
pub fn group_values<F>(xs: &[f64], key: F) -> Vec<(usize, Vec<f64>)>
where
    F: Fn(usize) -> usize,
{
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (i, &x) in xs.iter().enumerate() {
        groups.entry(key(i)).or_default().push(x);
    }
    groups.into_iter().collect()
}

/// Lengths of maximal runs for which `predicate` holds, measured in samples.
///
/// §3.3 defines the *duration* of a sustained price differential as the
/// number of consecutive hours one location is favoured by more than
/// $5/MWh; [`run_lengths`] extracts exactly those runs.
pub fn run_lengths<F>(xs: &[f64], predicate: F) -> Vec<usize>
where
    F: Fn(f64) -> bool,
{
    let mut runs = Vec::new();
    let mut current = 0usize;
    for &x in xs {
        if predicate(x) {
            current += 1;
        } else if current > 0 {
            runs.push(current);
            current = 0;
        }
    }
    if current > 0 {
        runs.push(current);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} vs {b}");
    }

    #[test]
    fn diff_series_basic() {
        assert_eq!(diff_series(&[1.0, 4.0, 2.0]), vec![3.0, -2.0]);
        assert!(diff_series(&[1.0]).is_empty());
        assert!(diff_series(&[]).is_empty());
    }

    #[test]
    fn pairwise_difference_basic() {
        assert_eq!(pairwise_difference(&[5.0, 7.0], &[1.0, 10.0]), Some(vec![4.0, -3.0]));
        assert_eq!(pairwise_difference(&[1.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn window_average_exact_chunks() {
        let xs = [1.0, 3.0, 5.0, 7.0];
        assert_eq!(window_average(&xs, 2), vec![2.0, 6.0]);
    }

    #[test]
    fn window_average_partial_tail() {
        let xs = [1.0, 3.0, 5.0];
        assert_eq!(window_average(&xs, 2), vec![2.0, 5.0]);
    }

    #[test]
    fn window_average_degenerate() {
        assert!(window_average(&[1.0], 0).is_empty());
        assert!(window_average(&[], 3).is_empty());
        assert_eq!(window_average(&[1.0, 2.0], 1), vec![1.0, 2.0]);
    }

    #[test]
    fn window_averaging_reduces_variance() {
        // The core observation behind Figure 5: longer averaging windows
        // lower the standard deviation of a noisy series.
        let xs: Vec<f64> = (0..2000)
            .map(|i| 50.0 + 30.0 * ((i * 2654435761u64 as usize) % 100) as f64 / 100.0)
            .collect();
        let sd_raw = crate::descriptive::std_dev(&xs).unwrap();
        let sd_12 = crate::descriptive::std_dev(&window_average(&xs, 12)).unwrap();
        let sd_24 = crate::descriptive::std_dev(&window_average(&xs, 24)).unwrap();
        assert!(sd_12 < sd_raw);
        assert!(sd_24 < sd_12 * 1.05, "24h window should not be much noisier than 12h");
    }

    #[test]
    fn autocorrelation_periodic_signal() {
        let xs: Vec<f64> =
            (0..240).map(|i| ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin()).collect();
        let ac24 = autocorrelation(&xs, 24).unwrap();
        let ac12 = autocorrelation(&xs, 12).unwrap();
        assert!(ac24 > 0.8, "diurnal signal should correlate at lag 24, got {ac24}");
        assert!(ac12 < -0.5, "and anti-correlate at lag 12, got {ac12}");
    }

    #[test]
    fn autocorrelation_degenerate() {
        assert_eq!(autocorrelation(&[1.0, 2.0], 5), None);
        assert_eq!(autocorrelation(&[3.0; 10], 2), None);
    }

    #[test]
    fn group_average_by_hour_of_day() {
        // 48 "hourly" samples: value = hour of day.
        let xs: Vec<f64> = (0..48).map(|i| (i % 24) as f64).collect();
        let grouped = group_average(&xs, |i| i % 24);
        assert_eq!(grouped.len(), 24);
        for (hour, avg) in grouped {
            assert_close(avg, hour as f64, 1e-12);
        }
    }

    #[test]
    fn group_values_collects_all() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let groups = group_values(&xs, |i| i % 2);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1, vec![1.0, 3.0, 5.0]);
        assert_eq!(groups[1].1, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn run_lengths_basic() {
        let xs = [6.0, 7.0, 1.0, 8.0, 9.0, 10.0, 0.0];
        let runs = run_lengths(&xs, |x| x > 5.0);
        assert_eq!(runs, vec![2, 3]);
    }

    #[test]
    fn run_lengths_trailing_run_counted() {
        let xs = [0.0, 6.0, 6.0];
        assert_eq!(run_lengths(&xs, |x| x > 5.0), vec![2]);
    }

    #[test]
    fn run_lengths_no_matches() {
        assert!(run_lengths(&[1.0, 2.0], |x| x > 5.0).is_empty());
    }
}
