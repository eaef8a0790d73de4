//! Correlation measures between price series.
//!
//! Figure 8 of the paper plots the Pearson correlation coefficient of hourly
//! prices for all 406 hub pairs against inter-hub distance, and footnote 8
//! notes that *mutual information* separates same-RTO from different-RTO
//! pairs even more cleanly. Both measures are implemented here, along with
//! Spearman rank correlation as a robustness check.

use crate::quantiles::quantile_sorted;

/// Pearson product-moment correlation coefficient of two equal-length series.
///
/// Returns `None` if the series are empty, of different lengths, or either
/// has zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.is_empty() {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Assign average ranks to a series (ties receive the mean of their ranks).
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).unwrap_or(std::cmp::Ordering::Equal));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // average rank for the tie group [i, j]
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg_rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation coefficient.
///
/// Returns `None` under the same conditions as [`pearson`].
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.is_empty() {
        return None;
    }
    pearson(&ranks(xs), &ranks(ys))
}

/// Binned mutual information (in bits) between two equal-length series.
///
/// Each series is discretised into `bins` equi-probable bins (using its own
/// quantiles), and `I(X;Y) = Σ p(x,y) log2( p(x,y) / (p(x)p(y)) )` is
/// estimated from the joint counts. This is the measure the paper uses
/// (footnote 8) to show that intra-RTO relationships can be non-linear.
///
/// Returns `None` if the series are empty, mismatched in length, or constant.
pub fn mutual_information(xs: &[f64], ys: &[f64], bins: usize) -> Option<f64> {
    if xs.len() != ys.len() || xs.is_empty() || bins < 2 {
        return None;
    }
    let bx = quantile_bin_edges(xs, bins)?;
    let by = quantile_bin_edges(ys, bins)?;

    let mut joint = vec![vec![0u64; bins]; bins];
    let mut px = vec![0u64; bins];
    let mut py = vec![0u64; bins];
    for (&x, &y) in xs.iter().zip(ys) {
        let ix = bin_index(&bx, x);
        let iy = bin_index(&by, y);
        joint[ix][iy] += 1;
        px[ix] += 1;
        py[iy] += 1;
    }
    let n = xs.len() as f64;
    let mut mi = 0.0;
    for ix in 0..bins {
        for iy in 0..bins {
            let pxy = joint[ix][iy] as f64 / n;
            if pxy > 0.0 {
                let pxi = px[ix] as f64 / n;
                let pyi = py[iy] as f64 / n;
                mi += pxy * (pxy / (pxi * pyi)).log2();
            }
        }
    }
    Some(mi.max(0.0))
}

/// Interior bin edges (length `bins - 1`) at the equi-probable quantiles of a
/// series. Returns `None` for empty or all-identical series.
fn quantile_bin_edges(xs: &[f64], bins: usize) -> Option<Vec<f64>> {
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if sorted[0] == sorted[sorted.len() - 1] {
        return None; // constant series carries no information
    }
    let edges: Vec<f64> =
        (1..bins).map(|i| quantile_sorted(&sorted, i as f64 / bins as f64)).collect();
    Some(edges)
}

/// Index of the bin that `x` falls into given interior `edges`.
fn bin_index(edges: &[f64], x: f64) -> usize {
    edges.iter().take_while(|&&e| x > e).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} vs {b}");
    }

    #[test]
    fn pearson_perfect_positive() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 20.0, 30.0, 40.0];
        assert_close(pearson(&xs, &ys).unwrap(), 1.0, 1e-12);
    }

    #[test]
    fn pearson_perfect_negative() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [4.0, 3.0, 2.0, 1.0];
        assert_close(pearson(&xs, &ys).unwrap(), -1.0, 1e-12);
    }

    #[test]
    fn pearson_uncorrelated() {
        let xs = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        let ys = [1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0];
        assert_close(pearson(&xs, &ys).unwrap(), 0.0, 1e-12);
    }

    #[test]
    fn pearson_rejects_degenerate() {
        assert_eq!(pearson(&[], &[]), None);
        assert_eq!(pearson(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None);
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        // y = x^3 is nonlinear but perfectly monotone: Spearman = 1.
        let xs: Vec<f64> = (-5..=5).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.powi(3)).collect();
        assert_close(spearman(&xs, &ys).unwrap(), 1.0, 1e-12);
        // Pearson is high but below 1.
        assert!(pearson(&xs, &ys).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 2.0, 2.0, 3.0];
        let ys = [1.0, 2.0, 2.0, 3.0];
        assert_close(spearman(&xs, &ys).unwrap(), 1.0, 1e-12);
    }

    #[test]
    fn ranks_average_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn mutual_information_of_identical_series_is_high() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 20.0 + 50.0).collect();
        let mi_self = mutual_information(&xs, &xs, 8).unwrap();
        assert!(mi_self > 2.0, "self MI should approach log2(bins) = 3, got {mi_self}");
    }

    /// SplitMix64 finalizer: a cheap deterministic hash used to build
    /// independent-looking sequences for the tests below.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn mutual_information_of_independent_series_is_low() {
        // Deterministic pseudo-independent sequences built from different
        // hash streams of the sample index.
        let xs: Vec<f64> = (0..5000u64).map(|i| mix(i) as f64).collect();
        let ys: Vec<f64> =
            (0..5000u64).map(|i| mix(i.wrapping_add(0xDEAD_BEEF) * 31) as f64).collect();
        let mi = mutual_information(&xs, &ys, 8).unwrap();
        assert!(mi < 0.15, "independent MI should be near zero, got {mi}");
    }

    #[test]
    fn mutual_information_detects_nonlinear_dependence() {
        // y = |x| has near-zero Pearson correlation but high MI.
        let xs: Vec<f64> = (-2000..2000).map(|i| i as f64 / 100.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.abs()).collect();
        let r = pearson(&xs, &ys).unwrap().abs();
        let mi = mutual_information(&xs, &ys, 8).unwrap();
        assert!(r < 0.05, "pearson should miss |x| dependence, got {r}");
        assert!(mi > 1.0, "MI should catch |x| dependence, got {mi}");
    }

    #[test]
    fn mutual_information_degenerate_inputs() {
        assert_eq!(mutual_information(&[1.0; 10], &[2.0; 10], 4), None);
        assert_eq!(mutual_information(&[], &[], 4), None);
        assert_eq!(mutual_information(&[1.0, 2.0], &[1.0, 2.0], 1), None);
    }
}
