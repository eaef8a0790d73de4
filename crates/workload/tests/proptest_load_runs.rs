//! The run-length load store is exact: every statistic it reports equals,
//! bit for bit, the same statistic of the raw series it stands for.
//!
//! Series are built from random runs over a small pool of values that
//! holds both zeros, NaN and both infinities, so runs of equal values
//! recur, adjacent runs may merge, and the stable order of `+0.0` and
//! `-0.0` decides which zero an order statistic returns.

use proptest::prelude::*;
use wattroute_workload::bandwidth::{percentile_95, LoadRuns};

const POOL: [f64; 9] =
    [0.0, -0.0, 1.5, 2.5, 1.0e6, 3.25, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

fn expand(runs: &[(f64, usize)]) -> Vec<f64> {
    runs.iter().flat_map(|&(value, count)| std::iter::repeat(value).take(count)).collect()
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

fn run_bits(runs: &LoadRuns) -> Vec<(u64, u32)> {
    runs.runs().map(|(value, count)| (value.to_bits(), count)).collect()
}

/// Every statistic of `runs` against the same statistic of `series`.
fn assert_exact(runs: &LoadRuns, series: &[f64]) {
    assert_eq!(runs.len(), series.len());
    assert_eq!(runs.is_empty(), series.is_empty());
    let expanded: Vec<u64> = runs.expand().into_iter().map(f64::to_bits).collect();
    let raw: Vec<u64> = series.iter().map(|x| x.to_bits()).collect();
    assert_eq!(expanded, raw, "expansion");
    assert_eq!(bits(runs.percentile_95()), bits(percentile_95(series)), "p95 of {series:?}");
    for init in [0.0, f64::NAN, f64::NEG_INFINITY] {
        let want = series.iter().copied().fold(init, f64::max);
        assert_eq!(runs.fold_max(init).to_bits(), want.to_bits(), "max from {init}");
    }
    assert_eq!(bits(runs.mean()), bits(wattroute_stats::mean(series)), "mean");
    assert_eq!(run_bits(&LoadRuns::from_series(&runs.expand())), run_bits(runs), "round trip");
}

proptest! {
    #[test]
    fn run_statistics_equal_the_expanded_series_bit_for_bit(
        picks in prop::collection::vec((0usize..POOL.len(), 1usize..41), 1..60),
    ) {
        let runs: Vec<(f64, usize)> = picks.iter().map(|&(v, n)| (POOL[v], n)).collect();
        let series = expand(&runs);
        let mut pushed = LoadRuns::new();
        for &(value, count) in &runs {
            pushed.push(value, count);
        }
        let compressed = LoadRuns::from_series(&series);
        prop_assert_eq!(run_bits(&pushed), run_bits(&compressed));
        prop_assert!(compressed.num_runs() <= runs.len());
        assert_exact(&compressed, &series);
    }

    // Many alternating `+0.0` / `-0.0` runs among a few larger values:
    // the 95th percentile lands on a zero whose sign only the series' own
    // (stable) order decides.
    #[test]
    fn signed_zero_runs_keep_their_stable_order(
        zeros in prop::collection::vec(1usize..41, 40..200),
        tail in prop::collection::vec((2usize..6, 1usize..4), 1..20),
    ) {
        let mut runs: Vec<(f64, usize)> = Vec::new();
        let mut tail = tail.iter();
        for (k, &count) in zeros.iter().enumerate() {
            runs.push((if k % 2 == 0 { 0.0 } else { -0.0 }, count));
            if k % 9 == 4 {
                if let Some(&(v, n)) = tail.next() {
                    runs.push((POOL[v], n));
                }
            }
        }
        let series = expand(&runs);
        assert_exact(&LoadRuns::from_series(&series), &series);
    }
}

#[test]
fn a_single_sample_and_an_all_equal_series() {
    for value in POOL {
        assert_exact(&LoadRuns::from_series(&[value]), &[value]);
        let series = vec![value; 997];
        let runs = LoadRuns::from_series(&series);
        assert_eq!(runs.num_runs(), 1);
        assert_exact(&runs, &series);
    }
    let empty = LoadRuns::new();
    assert_exact(&empty, &[]);
    assert_eq!(empty.percentile_95(), None);
    assert_eq!(empty.mean(), None);
}

#[test]
fn a_value_recurring_in_non_adjacent_runs_stays_in_separate_runs() {
    let series = [2.5, 2.5, 1.5, 2.5, 0.0, 0.0, 2.5];
    let runs = LoadRuns::from_series(&series);
    assert_eq!(runs.num_runs(), 5);
    assert_exact(&runs, &series);
}

#[test]
fn counts_merge_up_to_the_count_limit_then_split() {
    let limit = u32::MAX as usize;
    let seven = 7.0f64.to_bits();
    let mut runs = LoadRuns::new();
    runs.push(7.0, 3);
    runs.push(7.0, 4);
    assert_eq!(run_bits(&runs), vec![(seven, 7)]);

    // Filling the last run to the limit continues in a second run.
    runs.push(7.0, limit - 7 + 5);
    assert_eq!(run_bits(&runs), vec![(seven, u32::MAX), (seven, 5)]);
    assert_eq!(runs.len(), limit + 5);
    assert_eq!(runs.percentile_95(), Some(7.0));
    assert_eq!(runs.fold_max(0.0), 7.0);

    // A push longer than the limit splits on its own.
    let mut long = LoadRuns::new();
    long.push(1.0, 2 * limit + 1);
    assert_eq!(long.runs().map(|(_, count)| count).collect::<Vec<_>>(), [u32::MAX, u32::MAX, 1]);

    // A different value, or a zero of the other sign, starts a new run;
    // a zero-length push adds nothing.
    let mut zeros = LoadRuns::new();
    zeros.push(0.0, 2);
    zeros.push(-0.0, 2);
    zeros.push(-0.0, 0);
    zeros.push(0.0, 1);
    assert_eq!(zeros.num_runs(), 3);
    assert_eq!(zeros.len(), 5);
}
