//! The run-length load store is exact: every statistic it reports equals,
//! bit for bit, the same statistic of the raw series it stands for.
//!
//! Series are built from random runs over a small pool of values that
//! holds both zeros, NaN and both infinities, so runs of equal values
//! recur, adjacent runs may merge, and the stable order of `+0.0` and
//! `-0.0` decides which zero an order statistic returns. The strided 95th
//! percentile is checked against a decimating reservoir fed the series.

mod reservoir;

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
    assert_eq!(bits(runs.percentile_95_every(1)), bits(runs.percentile_95()), "stride 1");
    for init in [0.0, f64::NAN, f64::NEG_INFINITY] {
        let want = series.iter().copied().fold(init, f64::max);
        assert_eq!(runs.fold_max(init).to_bits(), want.to_bits(), "max from {init}");
    }
    assert_eq!(run_bits(&LoadRuns::from_series(&runs.expand())), run_bits(runs), "round trip");
}

/// The reservoir settles on the smallest power-of-two stride that leaves
/// it at most `cap` samples (at least 2), keeps exactly the finite samples
/// at multiples of that stride, and the runs read its 95th percentile at
/// that stride bit for bit.
fn assert_reads_the_reservoirs_p95(series: &[f64], cap: usize) {
    let (kept, stride) = reservoir::decimate(series.iter().copied(), cap);
    let finite: Vec<f64> = series.iter().copied().filter(|x| x.is_finite()).collect();
    let smallest = (0..usize::BITS)
        .map(|k| 1usize << k)
        .find(|&s| finite.len().div_ceil(s) <= cap.max(2))
        .expect("a stride fits");
    assert_eq!(stride, smallest, "stride for {} finite samples, cap {cap}", finite.len());
    let every: Vec<u64> = finite.iter().step_by(stride).map(|x| x.to_bits()).collect();
    assert_eq!(kept.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), every, "kept samples");
    let runs = LoadRuns::from_series(series);
    assert_eq!(
        bits(runs.percentile_95_every(stride)),
        bits(percentile_95(&kept)),
        "p95 at stride {stride}, cap {cap}"
    );
}

proptest! {
    // Run lengths scaled up to cross many stride boundaries, so caps of 2,
    // 3 and 97 decimate most series and 4096 the longest.
    #[test]
    fn the_strided_p95_is_the_decimating_reservoirs_bit_for_bit(
        picks in prop::collection::vec((0usize..POOL.len(), 1usize..41), 1..60),
        scale in prop::sample::select(vec![1usize, 5, 129]),
        cap in prop::sample::select(vec![2usize, 3, 97, 4096]),
    ) {
        let runs: Vec<(f64, usize)> = picks.iter().map(|&(v, n)| (POOL[v], n * scale)).collect();
        assert_reads_the_reservoirs_p95(&expand(&runs), cap);
    }

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
}

#[test]
fn a_reservoir_past_its_capacity_keeps_every_strided_sample() {
    // 5000 finite samples among non-finite runs: a 4096-sample reservoir
    // keeps every other one, a 97-sample one every 64th.
    let mut series: Vec<f64> = (0..5000).map(|i| f64::from(i % 613) * 0.5).collect();
    series.splice(100..100, [f64::NAN; 7]);
    series.splice(4000..4000, [f64::INFINITY, f64::NEG_INFINITY]);
    for cap in [0, 2, 3, 97, 4096, 5000] {
        assert_reads_the_reservoirs_p95(&series, cap);
    }
    assert_eq!(reservoir::decimate(series.iter().copied(), 4096).1, 2);
    assert_eq!(reservoir::decimate(series.iter().copied(), 97).1, 64);
    assert_eq!(LoadRuns::new().percentile_95_every(8), None);
}

#[test]
#[should_panic(expected = "power of two")]
fn a_stride_that_is_not_a_power_of_two_is_rejected() {
    LoadRuns::from_series(&[1.0, 2.0, 3.0]).percentile_95_every(3);
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
