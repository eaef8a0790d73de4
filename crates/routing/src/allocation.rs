//! Allocations: how much of each client state's demand each cluster serves
//! during one 5-minute step.

use crate::price_conscious::CompiledPreferences;
use serde::{Deserialize, Serialize};
use wattroute_geo::{hubs, state_to_hub_km, UsState};
use wattroute_workload::ClusterSet;

/// A per-step assignment of demand to clusters.
///
/// Entry `(cluster, state)` is the demand (hits/second) from
/// `states[state]` served by `clusters[cluster]`. Storage is one flat
/// row-major buffer (`num_states` is the row stride): a policy allocates
/// exactly once per reallocation however many clusters it routes, and the
/// row scans stay on contiguous memory.
///
/// Beside the values the allocation keeps its *support*: the entries that
/// carry load, as a row-major bitset of `num_states.div_ceil(64)` words per
/// cluster row. Every entry outside the support is `+0.0`, bit for bit:
/// [`Self::add`] puts its entry in, [`Self::from_matrix`] puts in every
/// entry whose bits are not `+0.0` (a `-0.0` too), and [`Self::reset`]
/// takes them all out. So [`Self::reset`], [`Self::cluster_loads_into`]
/// and [`Self::for_each_distance_sample`] walk the support alone: the
/// allocation-epoch hot path of both the batch engine and the
/// hierarchical replay shards costs what the allocation serves, not
/// clusters × states. Equality compares shapes and values, never supports.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Allocation {
    num_clusters: usize,
    num_states: usize,
    loads: Vec<f64>,
    support: Vec<u64>,
}

impl PartialEq for Allocation {
    fn eq(&self, other: &Self) -> bool {
        self.num_clusters == other.num_clusters
            && self.num_states == other.num_states
            && self.loads == other.loads
    }
}

impl Allocation {
    /// An empty allocation for a given number of clusters and states.
    pub fn zeros(num_clusters: usize, num_states: usize) -> Self {
        Self {
            num_clusters,
            num_states,
            loads: vec![0.0; num_clusters * num_states],
            support: vec![0; num_clusters * num_states.div_ceil(64)],
        }
    }

    /// Reset this allocation in place to all-zeros with the given shape,
    /// reusing the existing buffer when it is large enough. This is the
    /// buffer-recycling entry point behind
    /// [`RoutingPolicy::allocate_into`](crate::policy::RoutingPolicy::allocate_into):
    /// an engine hands its one cached allocation back to the policy every
    /// reallocation instead of allocating a fresh matrix. At an unchanged
    /// shape only the support's entries are zeroed.
    pub fn reset(&mut self, num_clusters: usize, num_states: usize) {
        if (num_clusters, num_states) == (self.num_clusters, self.num_states) {
            let Self { loads, support, .. } = self;
            let words = support.iter_mut().map(std::mem::take);
            for_each_in_support(words, num_states, |c, s| loads[c * num_states + s] = 0.0);
            return;
        }
        self.num_clusters = num_clusters;
        self.num_states = num_states;
        self.loads.clear();
        self.loads.resize(num_clusters * num_states, 0.0);
        self.support.clear();
        self.support.resize(num_clusters * num_states.div_ceil(64), 0);
    }

    /// Build from an explicit matrix (`loads[cluster][state]`).
    ///
    /// # Panics
    /// Panics if rows are ragged or any entry is negative / non-finite.
    pub fn from_matrix(loads: Vec<Vec<f64>>) -> Self {
        let width = loads.first().map(Vec::len).unwrap_or(0);
        for (c, row) in loads.iter().enumerate() {
            assert_eq!(row.len(), width, "ragged allocation row for cluster {c}");
            assert!(
                row.iter().all(|x| x.is_finite() && *x >= 0.0),
                "allocation for cluster {c} contains negative or non-finite demand"
            );
        }
        let mut allocation = Self::zeros(loads.len(), width);
        for (c, row) in loads.iter().enumerate() {
            for (s, &load) in row.iter().enumerate() {
                if load.to_bits() != 0.0f64.to_bits() {
                    allocation.loads[c * width + s] = load;
                    allocation.mark(c, s);
                }
            }
        }
        allocation
    }

    /// Put entry `(cluster, state)` in the support.
    fn mark(&mut self, cluster: usize, state: usize) {
        self.support[cluster * self.num_states.div_ceil(64) + state / 64] |= 1 << (state % 64);
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Number of client states.
    pub fn num_states(&self) -> usize {
        if self.num_clusters == 0 {
            0
        } else {
            self.num_states
        }
    }

    /// Add demand from a state to a cluster.
    pub fn add(&mut self, cluster: usize, state: usize, hits_per_sec: f64) {
        assert!(hits_per_sec >= 0.0 && hits_per_sec.is_finite());
        assert!(cluster < self.num_clusters && state < self.num_states, "index out of range");
        self.loads[cluster * self.num_states + state] += hits_per_sec;
        self.mark(cluster, state);
    }

    /// One cluster's per-state loads.
    pub fn row(&self, cluster: usize) -> &[f64] {
        &self.loads[cluster * self.num_states..(cluster + 1) * self.num_states]
    }

    /// The matrix as nested rows (`matrix[cluster][state]`), materialized.
    /// Convenient for tests and serialization; hot paths should use
    /// [`Self::row`] or the aggregate accessors instead.
    pub fn matrix(&self) -> Vec<Vec<f64>> {
        self.loads.chunks(self.num_states.max(1)).map(<[f64]>::to_vec).collect()
    }

    /// Total load per cluster in hits/second.
    pub fn cluster_loads(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.cluster_loads_into(&mut out);
        out
    }

    /// [`Self::cluster_loads`] into a caller-owned buffer (cleared first),
    /// so per-epoch accounting loops can reuse one allocation.
    ///
    /// Each cluster's load is `row.iter().sum::<f64>()` bit for bit, read
    /// off the support. That sum adds every entry in state order from the
    /// empty sum, `-0.0`. An entry outside the support is `+0.0`, which
    /// turns a `-0.0` running sum into `+0.0` and leaves any other sum as
    /// it is. So the support's entries, summed in state order from `+0.0`
    /// when the row has any entry outside the support and from the empty
    /// sum otherwise, give the same bits.
    pub fn cluster_loads_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.num_clusters);
        if self.num_states == 0 {
            out.extend((0..self.num_clusters).map(|_| 0.0));
            return;
        }
        let empty_sum: f64 = std::iter::empty::<f64>().sum();
        let rows = self.loads.chunks_exact(self.num_states);
        for (row, words) in rows.zip(self.support.chunks_exact(self.num_states.div_ceil(64))) {
            let served: usize = words.iter().map(|word| word.count_ones() as usize).sum();
            let mut load = if served < self.num_states { 0.0 } else { empty_sum };
            for_each_in_support(words.iter().copied(), self.num_states, |_, s| load += row[s]);
            out.push(load);
        }
    }

    /// Total load per state in hits/second (how much of each state's demand
    /// was served).
    pub fn state_loads(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.num_states()];
        if self.num_states == 0 {
            return out;
        }
        for row in self.loads.chunks_exact(self.num_states) {
            for (s, v) in row.iter().enumerate() {
                out[s] += v;
            }
        }
        out
    }

    /// Total demand served, hits/second.
    pub fn total_load(&self) -> f64 {
        self.loads.iter().sum()
    }

    /// Demand-weighted client–server distance statistics for this
    /// allocation: `(distance_km, weight)` samples, one per served
    /// (cluster, state) pair in row-major order, where the distance is the
    /// population-weighted distance from the client state to the hub of
    /// the cluster serving it and the weight is the assigned demand. The
    /// samples are returned so callers can accumulate 99th percentiles
    /// across steps (Figure 17).
    ///
    /// Derives every distance afresh; hot loops use
    /// [`Self::for_each_distance_sample`] with the run's compiled
    /// [`CompiledPreferences`].
    pub fn distance_samples(&self, clusters: &ClusterSet, states: &[UsState]) -> Vec<(f64, f64)> {
        assert_eq!(self.num_clusters(), clusters.len(), "cluster count mismatch");
        assert_eq!(self.num_states(), states.len(), "state count mismatch");
        let mut samples = Vec::new();
        if self.num_states == 0 {
            return samples;
        }
        for (c, row) in self.loads.chunks_exact(self.num_states).enumerate() {
            let hub = hubs::hub(clusters.get(c).expect("validated").hub);
            for (s, &load) in row.iter().enumerate() {
                if load > 0.0 {
                    samples.push((state_to_hub_km(states[s], hub), load));
                }
            }
        }
        samples
    }

    /// Visit [`Self::distance_samples`] in order, reading each distance
    /// from `geometry` (compiled for this allocation's deployment and state
    /// list): `visit(distance_km, load)` once per served pair. Per-epoch
    /// accounting loops turn the samples into whatever they accumulate in
    /// this one walk, with no buffer in between and no distance computed.
    pub fn for_each_distance_sample(
        &self,
        geometry: &CompiledPreferences,
        mut visit: impl FnMut(f64, f64),
    ) {
        assert_eq!(self.num_clusters(), geometry.hub_ids().len(), "cluster count mismatch");
        assert_eq!(self.num_states(), geometry.states().len(), "state count mismatch");
        // Entries outside the support are `+0.0`, which serve nothing.
        for_each_in_support(self.support.iter().copied(), self.num_states, |c, s| {
            let load = self.loads[c * self.num_states + s];
            if load > 0.0 {
                visit(geometry.km(c, s), load);
            }
        });
    }

    /// Visit every entry in this allocation's support or `other`'s, in
    /// row-major order, as `visit(cluster, state, own load, other's load)`.
    /// Every entry outside both supports is `+0.0` in both.
    ///
    /// # Panics
    /// Panics if the two allocations differ in shape.
    pub(crate) fn for_each_in_either_support(
        &self,
        other: &Allocation,
        mut visit: impl FnMut(usize, usize, f64, f64),
    ) {
        assert_eq!(
            (self.num_clusters, self.num_states),
            (other.num_clusters, other.num_states),
            "allocation shape mismatch"
        );
        let either = self.support.iter().zip(&other.support).map(|(a, b)| a | b);
        for_each_in_support(either, self.num_states, |c, s| {
            let k = c * self.num_states + s;
            visit(c, s, self.loads[k], other.loads[k]);
        });
    }

    /// Demand-weighted mean client–server distance in km, or `None` if the
    /// allocation is empty.
    pub fn mean_distance_km(&self, clusters: &ClusterSet, states: &[UsState]) -> Option<f64> {
        let samples = self.distance_samples(clusters, states);
        let total: f64 = samples.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return None;
        }
        Some(samples.iter().map(|(d, w)| d * w).sum::<f64>() / total)
    }

    /// Check that the allocation serves exactly the given per-state demand
    /// (within a tolerance). Used by tests and debug assertions.
    pub fn serves_demand(&self, demand: &[f64], tolerance: f64) -> bool {
        if demand.len() != self.num_states() {
            return false;
        }
        self.state_loads()
            .iter()
            .zip(demand)
            .all(|(served, want)| (served - want).abs() <= tolerance * want.max(1.0))
    }
}

/// Call `visit(row, column)` for each set bit of a row-major bitset of
/// `num_states` columns per row (`num_states.div_ceil(64)` words), in
/// row-major order.
fn for_each_in_support(
    words: impl Iterator<Item = u64>,
    num_states: usize,
    mut visit: impl FnMut(usize, usize),
) {
    let (mut row, mut base) = (0, 0);
    for mut bits in words {
        while bits != 0 {
            visit(row, base + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
        base += 64;
        if base >= num_states {
            (row, base) = (row + 1, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_totals() {
        let mut a = Allocation::zeros(2, 3);
        a.add(0, 0, 100.0);
        a.add(0, 2, 50.0);
        a.add(1, 1, 200.0);
        assert_eq!(a.num_clusters(), 2);
        assert_eq!(a.num_states(), 3);
        assert_eq!(a.cluster_loads(), vec![150.0, 200.0]);
        assert_eq!(a.state_loads(), vec![100.0, 200.0, 50.0]);
        assert_eq!(a.total_load(), 350.0);
    }

    #[test]
    fn reset_zeroes_in_place_and_reshapes() {
        let mut a = Allocation::zeros(2, 3);
        a.add(0, 1, 42.0);
        a.reset(2, 3);
        assert_eq!(a, Allocation::zeros(2, 3), "same shape resets to zeros");
        a.add(1, 2, 7.0);
        a.reset(3, 2);
        assert_eq!(a, Allocation::zeros(3, 2), "reshape resets to the new zeros");
    }

    #[test]
    fn serves_demand_check() {
        let mut a = Allocation::zeros(2, 2);
        a.add(0, 0, 100.0);
        a.add(1, 1, 200.0);
        assert!(a.serves_demand(&[100.0, 200.0], 1e-9));
        assert!(!a.serves_demand(&[100.0, 150.0], 1e-9));
        assert!(!a.serves_demand(&[100.0], 1e-9));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_matrix_rejected() {
        let _ = Allocation::from_matrix(vec![vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    #[should_panic(expected = "negative or non-finite")]
    fn negative_entry_rejected() {
        let _ = Allocation::from_matrix(vec![vec![1.0, -2.0]]);
    }

    #[test]
    fn distance_accounting() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = vec![UsState::MA, UsState::CA];
        // Serve MA from Boston (index 2) and CA from Palo Alto (index 0).
        let mut local = Allocation::zeros(clusters.len(), states.len());
        local.add(2, 0, 1000.0);
        local.add(0, 1, 1000.0);
        let mean_local = local.mean_distance_km(&clusters, &states).unwrap();

        // Serve both from New York (index 3): much longer average distance.
        let mut remote = Allocation::zeros(clusters.len(), states.len());
        remote.add(3, 0, 1000.0);
        remote.add(3, 1, 1000.0);
        let mean_remote = remote.mean_distance_km(&clusters, &states).unwrap();

        assert!(mean_local < 300.0, "local mean {mean_local}");
        assert!(mean_remote > 1500.0, "remote mean {mean_remote}");
        assert!(local.distance_samples(&clusters, &states).len() == 2);
    }

    #[test]
    fn tabulated_samples_match_the_haversine_walk_bit_for_bit() {
        let clusters = ClusterSet::akamai_like_nine();
        let states: Vec<UsState> = UsState::all().collect();
        let geometry = CompiledPreferences::build(&clusters, &states);
        assert_eq!((geometry.hub_ids().len(), geometry.states().len()), (9, 51));
        // Rows 1, 4 and 8 carry no load at all; the rest serve a scattered
        // subset of states, including fractional and tiny loads.
        let mut a = Allocation::zeros(clusters.len(), states.len());
        for c in [0, 2, 3, 5, 6, 7] {
            for s in (c % 3..states.len()).step_by(c + 2) {
                a.add(c, s, 0.125 + (c * 51 + s) as f64 * 17.3);
            }
        }
        a.add(7, 50, 1e-300);
        let mut samples = Vec::new();
        a.for_each_distance_sample(&geometry, |km, load| samples.push((km, load)));
        let reference = a.distance_samples(&clusters, &states);
        assert!(!reference.is_empty());
        assert_eq!(samples.len(), reference.len());
        for (got, want) in samples.iter().zip(&reference) {
            assert_eq!(got.0.to_bits(), want.0.to_bits());
            assert_eq!(got.1.to_bits(), want.1.to_bits());
        }

        // A 0-state allocation samples nothing either way.
        let none = Allocation::zeros(clusters.len(), 0);
        let stateless = CompiledPreferences::build(&clusters, &[]);
        none.for_each_distance_sample(&stateless, |_, _| panic!("nothing is served"));
        assert!(none.distance_samples(&clusters, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "state count mismatch")]
    fn distance_table_shape_is_checked() {
        let clusters = ClusterSet::akamai_like_nine();
        let geometry = CompiledPreferences::build(&clusters, &[UsState::MA]);
        Allocation::zeros(clusters.len(), 2).for_each_distance_sample(&geometry, |_, _| {});
    }

    #[test]
    fn empty_allocation_has_no_mean_distance() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = vec![UsState::MA];
        let a = Allocation::zeros(clusters.len(), 1);
        assert!(a.mean_distance_km(&clusters, &states).is_none());
    }
}
