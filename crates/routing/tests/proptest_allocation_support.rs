//! Property test: an allocation's support walks give, bit for bit, what
//! the same walks over every entry give.
//!
//! Random sequences of `add`, `reset` at an unchanged shape, reshapes and
//! `from_matrix` replacements run against a dense reference matrix. Rows
//! hold 0, 1, 51, 64, 65, 128 or 130 states, so a row's support spans zero,
//! one or several 64-bit words, and entries take `+0.0`, `-0.0`, subnormal,
//! ordinary and huge loads. A row whose entries are all `-0.0` sums to
//! `-0.0`; any `+0.0` entry outside the support makes it `+0.0`. After every
//! step the values, the cluster loads (against `row.iter().sum()`), the
//! distance samples (against the dense haversine walk) and, after a reset,
//! the all-`+0.0` matrix are compared through `to_bits`.

use proptest::prelude::*;
use wattroute_geo::UsState;
use wattroute_routing::allocation::Allocation;
use wattroute_routing::price_conscious::CompiledPreferences;
use wattroute_workload::ClusterSet;

/// Loads an entry can receive or hold.
const VALUES: [f64; 6] = [0.0, -0.0, 1.5, 4.9e-324, 2.5e300, 7.25];

/// (clusters, states) shapes, one to nine clusters of the nine-cluster
/// deployment.
const SHAPES: [(usize, usize); 7] = [(1, 0), (3, 1), (3, 64), (4, 65), (9, 51), (2, 130), (3, 128)];

/// A deployment of `clusters` clusters serving `states` states (repeating
/// past the 51 there are), and the geometry compiled for them.
struct Shape {
    deployment: ClusterSet,
    states: Vec<UsState>,
    geometry: CompiledPreferences,
}

impl Shape {
    fn new((clusters, states): (usize, usize)) -> Self {
        let nine = ClusterSet::akamai_like_nine();
        let deployment = ClusterSet::new(nine.clusters()[..clusters].to_vec());
        let all: Vec<UsState> = UsState::all().collect();
        let states: Vec<UsState> = all.iter().copied().cycle().take(states).collect();
        let geometry = CompiledPreferences::build(&deployment, &states);
        Self { deployment, states, geometry }
    }
}

/// A `clusters × states` matrix drawn from `seed`: all `+0.0`, sparse,
/// dense with no `+0.0`, or all `-0.0`, by `seed % 4`.
fn matrix(clusters: usize, states: usize, seed: usize) -> Vec<Vec<f64>> {
    let mut z = seed as u64;
    let mut next = move || {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let x = (z ^ (z >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (x ^ (x >> 29)) as usize
    };
    (0..clusters)
        .map(|_| {
            (0..states)
                .map(|_| match seed % 4 {
                    0 => 0.0,
                    1 if next() % 3 != 0 => 0.0,
                    1 => VALUES[next() % VALUES.len()],
                    2 => VALUES[1 + next() % (VALUES.len() - 1)],
                    _ => -0.0,
                })
                .collect()
        })
        .collect()
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter().map(|row| row.iter().map(|x| x.to_bits()).collect()).collect()
}

/// Every support walk of `a` against the same walk over `dense`, which
/// `a` must equal entry for entry.
fn assert_matches_dense(a: &Allocation, dense: &[Vec<f64>], shape: &Shape, step: usize) {
    assert_eq!(a.num_clusters(), dense.len());
    let rows: Vec<Vec<f64>> = (0..dense.len()).map(|c| a.row(c).to_vec()).collect();
    assert_eq!(bits(&rows), bits(dense), "values at step {step}");

    // A cluster with no states serves `+0.0`, not the empty sum's `-0.0`.
    let sum = |row: &Vec<f64>| if row.is_empty() { 0.0 } else { row.iter().sum::<f64>() };
    let loads: Vec<u64> = a.cluster_loads().iter().map(|x| x.to_bits()).collect();
    let sums: Vec<u64> = dense.iter().map(|row| sum(row).to_bits()).collect();
    assert_eq!(loads, sums, "cluster loads at step {step}");

    let mut samples = Vec::new();
    a.for_each_distance_sample(&shape.geometry, |km, load| {
        samples.push((km.to_bits(), load.to_bits()));
    });
    let walk: Vec<(u64, u64)> = a
        .distance_samples(&shape.deployment, &shape.states)
        .iter()
        .map(|(km, load)| (km.to_bits(), load.to_bits()))
        .collect();
    assert_eq!(samples, walk, "distance samples at step {step}");
    assert_eq!(a, &Allocation::from_matrix(dense.to_vec()), "value equality at step {step}");
}

proptest! {
    #[test]
    fn support_walks_equal_the_dense_walks_bit_for_bit(
        start in 0usize..SHAPES.len(),
        ops in prop::collection::vec((0usize..12, 0usize..1000, 0usize..1000), 1..80),
    ) {
        let (mut clusters, mut states) = SHAPES[start];
        let mut shape = Shape::new((clusters, states));
        let mut a = Allocation::zeros(clusters, states);
        let mut dense = vec![vec![0.0; states]; clusters];
        for (step, &(kind, x, y)) in ops.iter().enumerate() {
            let before = (clusters, states);
            match kind {
                0..=7 if states > 0 => {
                    let (c, s, load) = (x % clusters, y % states, VALUES[(x + y) % VALUES.len()]);
                    a.add(c, s, load);
                    dense[c][s] += load;
                }
                8 => {
                    a.reset(clusters, states);
                    dense = vec![vec![0.0; states]; clusters];
                    prop_assert!(a.matrix().iter().flatten().all(|x| x.to_bits() == 0));
                }
                9 => {
                    (clusters, states) = SHAPES[x % SHAPES.len()];
                    a.reset(clusters, states);
                    dense = vec![vec![0.0; states]; clusters];
                    prop_assert!(a.matrix().iter().flatten().all(|x| x.to_bits() == 0));
                }
                _ => {
                    (clusters, states) = SHAPES[x % SHAPES.len()];
                    dense = matrix(clusters, states, y);
                    a = Allocation::from_matrix(dense.clone());
                }
            }
            if (clusters, states) != before {
                shape = Shape::new((clusters, states));
            }
            assert_matches_dense(&a, &dense, &shape, step);
        }
    }
}

#[test]
fn signed_zero_rows_sum_as_the_dense_sum_does() {
    let mut a = Allocation::from_matrix(vec![vec![-0.0; 65], vec![-0.0; 65]]);
    assert!(a.cluster_loads().iter().all(|x| x.to_bits() == (-0.0f64).to_bits()));
    a.add(1, 64, 2.0);
    let loads = a.cluster_loads();
    assert_eq!(loads[0].to_bits(), (-0.0f64).to_bits());
    assert_eq!(loads[1], 2.0);

    let mut row = vec![-0.0; 65];
    row[3] = 0.0;
    let b = Allocation::from_matrix(vec![row]);
    assert_eq!(b.cluster_loads()[0].to_bits(), 0.0f64.to_bits(), "+0.0 outside the support");

    a.reset(2, 65);
    assert!(a.matrix().iter().flatten().all(|x| x.to_bits() == 0));
    assert_eq!(a, Allocation::zeros(2, 65));
}
