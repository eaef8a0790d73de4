//! The region → metro → site deployment tree.
//!
//! The paper's world is flat: nine clusters, one per market hub. A
//! production CDN is a tree — a handful of market *regions*, each holding
//! the *metros* (hubs) inside its footprint, each metro holding many edge
//! *sites*. [`Topology`] is the arena-backed form of that tree: every node
//! lives in a flat per-tier vector, children of one parent occupy a
//! contiguous index range, and per-node attributes (hub, server counts,
//! optional tier bandwidth caps) sit in parallel vectors so the replay
//! core can walk a 1000-site tree without chasing pointers.
//!
//! Two constructions matter:
//!
//! * [`Topology::synthetic`] — a seeded generator that spreads N sites
//!   over the 29 market hubs, grouped by RTO, for at-scale replays;
//! * the *trivial embedding* (one region, one metro per cluster, one site
//!   per metro — see `wattroute_workload::hierarchy::single_region_of`),
//!   which represents today's flat deployments losslessly: a replay over
//!   it is bit-identical to the flat engine.

use crate::distance::state_to_hub_km;
use crate::hubs::{self, HubId};
use crate::rto::Rto;
use crate::state::UsState;

/// An arena-backed region → metro → site tree. Nodes are indexed per tier;
/// children of one parent are contiguous, so a `(start, end)` range is all
/// the tree structure a traversal needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    region_labels: Vec<String>,
    metro_labels: Vec<String>,
    site_labels: Vec<String>,
    /// Parent region of each metro.
    metro_region: Vec<usize>,
    /// Parent metro of each site.
    site_metro: Vec<usize>,
    /// Parent region of each site (derived, kept for O(1) lookup).
    site_region: Vec<usize>,
    /// Contiguous metro range `[start, end)` of each region.
    region_metros: Vec<(usize, usize)>,
    /// Contiguous site range `[start, end)` of each metro.
    metro_sites: Vec<(usize, usize)>,
    /// Contiguous site range `[start, end)` of each region.
    region_sites: Vec<(usize, usize)>,
    /// Market hub each site buys power at.
    site_hub: Vec<HubId>,
    /// Server count per site.
    site_servers: Vec<u32>,
    /// Per-server request capacity per site (hits/second).
    site_hits_per_server: Vec<f64>,
    /// Aggregate bandwidth cap per metro in hits/second (`∞` = uncapped).
    metro_cap_hits_per_sec: Vec<f64>,
    /// Aggregate bandwidth cap per region in hits/second (`∞` = uncapped).
    region_cap_hits_per_sec: Vec<f64>,
}

/// Incrementally builds a [`Topology`]. Regions, metros and sites are
/// appended in order; a metro always attaches to the most recently added
/// region and a site to the most recently added metro, which makes child
/// ranges contiguous by construction. The built tree is uncapped;
/// [`Topology::with_tier_slack`] derives a capped copy.
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    region_labels: Vec<String>,
    metro_labels: Vec<String>,
    site_labels: Vec<String>,
    metro_region: Vec<usize>,
    site_metro: Vec<usize>,
    site_hub: Vec<HubId>,
    site_servers: Vec<u32>,
    site_hits_per_server: Vec<f64>,
}

impl TopologyBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a region and return its index.
    pub fn add_region(&mut self, label: impl Into<String>) -> usize {
        self.region_labels.push(label.into());
        self.region_labels.len() - 1
    }

    /// Append a metro under the most recently added region and return its
    /// index.
    ///
    /// # Panics
    /// Panics if no region has been added yet.
    pub fn add_metro(&mut self, label: impl Into<String>) -> usize {
        assert!(!self.region_labels.is_empty(), "add a region before adding metros");
        self.metro_labels.push(label.into());
        self.metro_region.push(self.region_labels.len() - 1);
        self.metro_labels.len() - 1
    }

    /// Append a site under the most recently added metro and return its
    /// index.
    ///
    /// # Panics
    /// Panics if no metro has been added yet, or on a non-finite or
    /// negative per-server capacity.
    pub fn add_site(
        &mut self,
        label: impl Into<String>,
        hub: HubId,
        servers: u32,
        hits_per_server_per_sec: f64,
    ) -> usize {
        assert!(!self.metro_labels.is_empty(), "add a metro before adding sites");
        assert!(
            hits_per_server_per_sec.is_finite() && hits_per_server_per_sec >= 0.0,
            "per-server capacity must be finite and non-negative"
        );
        self.site_labels.push(label.into());
        self.site_metro.push(self.metro_labels.len() - 1);
        self.site_hub.push(hub);
        self.site_servers.push(servers);
        self.site_hits_per_server.push(hits_per_server_per_sec);
        self.site_labels.len() - 1
    }

    /// Finalize the tree: derive the contiguous child ranges and the
    /// site → region parent vector.
    ///
    /// # Panics
    /// Panics on an empty tree (no regions or no sites).
    pub fn build(self) -> Topology {
        assert!(!self.region_labels.is_empty(), "topology has no regions");
        assert!(!self.site_labels.is_empty(), "topology has no sites");
        let region_metros = child_ranges(&self.metro_region, self.region_labels.len());
        let metro_sites = child_ranges(&self.site_metro, self.metro_labels.len());
        let site_region: Vec<usize> =
            self.site_metro.iter().map(|&m| self.metro_region[m]).collect();
        let region_sites = child_ranges(&site_region, self.region_labels.len());
        let (num_metros, num_regions) = (self.metro_labels.len(), self.region_labels.len());
        Topology {
            region_labels: self.region_labels,
            metro_labels: self.metro_labels,
            site_labels: self.site_labels,
            metro_region: self.metro_region,
            site_metro: self.site_metro,
            site_region,
            region_metros,
            metro_sites,
            region_sites,
            site_hub: self.site_hub,
            site_servers: self.site_servers,
            site_hits_per_server: self.site_hits_per_server,
            metro_cap_hits_per_sec: vec![f64::INFINITY; num_metros],
            region_cap_hits_per_sec: vec![f64::INFINITY; num_regions],
        }
    }
}

/// Derive contiguous `[start, end)` child ranges from a child → parent
/// vector whose parent indices are non-decreasing (guaranteed by the
/// builder's append discipline).
fn child_ranges(parents: &[usize], num_parents: usize) -> Vec<(usize, usize)> {
    let mut ranges = vec![(0usize, 0usize); num_parents];
    let mut cursor = 0usize;
    for (parent, range) in ranges.iter_mut().enumerate() {
        let start = cursor;
        while cursor < parents.len() && parents[cursor] == parent {
            cursor += 1;
        }
        *range = (start, cursor);
    }
    assert_eq!(cursor, parents.len(), "child parent indices must be non-decreasing");
    ranges
}

/// A tiny deterministic generator (SplitMix64) so synthetic topologies are
/// reproducible without pulling a random-number dependency into the geo
/// crate.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Topology {
    /// A seeded synthetic deployment: one region per market RTO (in
    /// [`Rto::MARKETS`] order), one metro per market hub, and `n_sites`
    /// sites spread as evenly as possible over the 29 metros with seeded
    /// per-site server-count jitter. Total capacity is sized to match the
    /// paper's nine-cluster deployment (so the synthetic traces drive it
    /// at comparable utilization) regardless of `n_sites`. All tier caps
    /// start uncapped; see [`Self::with_tier_slack`].
    ///
    /// # Panics
    /// Panics when `n_sites` is zero.
    pub fn synthetic(seed: u64, n_sites: usize) -> Self {
        assert!(n_sites > 0, "a synthetic topology needs at least one site");
        let metros: Vec<&'static hubs::Hub> =
            Rto::MARKETS.iter().flat_map(|&rto| hubs::hubs_in_rto(rto)).collect();
        let base = n_sites / metros.len();
        let extra = n_sites % metros.len();
        // The paper's nine clusters total 19 400 servers at 200 hits/s
        // each; hold that total so demand-to-capacity ratios carry over.
        let mean_servers = (19_400.0 / n_sites as f64).max(1.0);
        let mut rng = SplitMix64(seed ^ 0xC0FF_EE00_D15E_A5E5);
        let mut builder = TopologyBuilder::new();
        let mut metro_cursor = 0usize;
        for &rto in &Rto::MARKETS {
            builder.add_region(rto.abbreviation());
            for hub in hubs::hubs_in_rto(rto) {
                builder.add_metro(hub.code);
                let sites_here = base + usize::from(metro_cursor < extra);
                for k in 0..sites_here {
                    let jitter = 0.5 + rng.next_f64(); // [0.5, 1.5)
                    let servers = ((mean_servers * jitter).round() as u32).max(1);
                    builder.add_site(format!("{}-{:03}", hub.code, k), hub.id, servers, 200.0);
                }
                metro_cursor += 1;
            }
        }
        builder.build()
    }

    /// Derive a capped copy: every metro cap becomes `slack ×` the sum of
    /// its sites' capacities, every region cap `slack ×` the sum of its
    /// metros' caps. A slack below 1.0 makes the tier constraints bind.
    ///
    /// # Panics
    /// Panics on a non-finite or negative slack.
    pub fn with_tier_slack(mut self, slack: f64) -> Self {
        assert!(slack.is_finite() && slack >= 0.0, "tier slack must be finite and >= 0");
        for m in 0..self.num_metros() {
            let (s0, s1) = self.metro_sites[m];
            let capacity: f64 = (s0..s1).map(|s| self.site_capacity_hits_per_sec(s)).sum();
            self.metro_cap_hits_per_sec[m] = slack * capacity;
        }
        for r in 0..self.num_regions() {
            let (m0, m1) = self.region_metros[r];
            let capacity: f64 = (m0..m1).map(|m| self.metro_cap_hits_per_sec[m]).sum();
            self.region_cap_hits_per_sec[r] = slack * capacity;
        }
        self
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.region_labels.len()
    }

    /// Number of metros.
    pub fn num_metros(&self) -> usize {
        self.metro_labels.len()
    }

    /// Number of sites (the leaves the replay core routes over).
    pub fn num_sites(&self) -> usize {
        self.site_labels.len()
    }

    /// Region labels in index order.
    pub fn region_labels(&self) -> &[String] {
        &self.region_labels
    }

    /// Metro labels in index order.
    pub fn metro_labels(&self) -> &[String] {
        &self.metro_labels
    }

    /// Site labels in index order.
    pub fn site_labels(&self) -> &[String] {
        &self.site_labels
    }

    /// Parent region of a metro.
    pub fn metro_region(&self, metro: usize) -> usize {
        self.metro_region[metro]
    }

    /// Parent metro of a site.
    pub fn site_metro(&self, site: usize) -> usize {
        self.site_metro[site]
    }

    /// Parent region of a site.
    pub fn site_region(&self, site: usize) -> usize {
        self.site_region[site]
    }

    /// The site → metro parent vector (tree-indexed SoA form).
    pub fn site_metros(&self) -> &[usize] {
        &self.site_metro
    }

    /// The site → region parent vector (tree-indexed SoA form).
    pub fn site_regions(&self) -> &[usize] {
        &self.site_region
    }

    /// Contiguous metro range `[start, end)` of a region.
    pub fn region_metros(&self, region: usize) -> (usize, usize) {
        self.region_metros[region]
    }

    /// Contiguous site range `[start, end)` of a metro.
    pub fn metro_sites(&self, metro: usize) -> (usize, usize) {
        self.metro_sites[metro]
    }

    /// Contiguous site range `[start, end)` of a region.
    pub fn region_sites(&self, region: usize) -> (usize, usize) {
        self.region_sites[region]
    }

    /// The hub a site buys power at.
    pub fn site_hub(&self, site: usize) -> HubId {
        self.site_hub[site]
    }

    /// Server count of a site.
    pub fn site_servers(&self, site: usize) -> u32 {
        self.site_servers[site]
    }

    /// Per-server capacity of a site in hits/second.
    pub fn site_hits_per_server(&self, site: usize) -> f64 {
        self.site_hits_per_server[site]
    }

    /// Total request capacity of a site in hits/second.
    pub fn site_capacity_hits_per_sec(&self, site: usize) -> f64 {
        self.site_servers[site] as f64 * self.site_hits_per_server[site]
    }

    /// A metro's aggregate bandwidth cap (`∞` = uncapped).
    pub fn metro_cap_hits_per_sec(&self, metro: usize) -> f64 {
        self.metro_cap_hits_per_sec[metro]
    }

    /// A region's aggregate bandwidth cap (`∞` = uncapped).
    pub fn region_cap_hits_per_sec(&self, region: usize) -> f64 {
        self.region_cap_hits_per_sec[region]
    }

    /// Whether any metro or region carries a finite bandwidth cap.
    pub fn has_tier_caps(&self) -> bool {
        self.metro_cap_hits_per_sec.iter().any(|c| c.is_finite())
            || self.region_cap_hits_per_sec.iter().any(|c| c.is_finite())
    }

    /// Whether the tree is a trivial embedding of a flat deployment: a
    /// single region, exactly one site per metro, and no tier caps. Replays
    /// over such a tree are bit-identical to the flat engine.
    pub fn is_flat_embedding(&self) -> bool {
        self.num_regions() == 1 && self.num_metros() == self.num_sites() && !self.has_tier_caps()
    }

    /// Assign every client state to the region serving it best: the region
    /// whose closest site (population-weighted state-to-hub distance) is
    /// nearest. Ties break toward the lower region index, so the
    /// assignment is deterministic.
    pub fn assign_states(&self, states: &[UsState]) -> Vec<usize> {
        states
            .iter()
            .map(|&state| {
                let mut best_region = 0usize;
                let mut best_km = f64::INFINITY;
                for r in 0..self.num_regions() {
                    let (s0, s1) = self.region_sites[r];
                    let mut region_km = f64::INFINITY;
                    for s in s0..s1 {
                        let km = state_to_hub_km(state, hubs::hub(self.site_hub[s]));
                        if km < region_km {
                            region_km = km;
                        }
                    }
                    if region_km < best_km {
                        best_km = region_km;
                        best_region = r;
                    }
                }
                best_region
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_region_toy() -> Topology {
        let mut b = TopologyBuilder::new();
        b.add_region("EAST");
        b.add_metro("NYC");
        b.add_site("NYC-0", HubId::NewYorkNy, 100, 200.0);
        b.add_site("NYC-1", HubId::NewYorkNy, 50, 200.0);
        b.add_metro("BOS");
        b.add_site("BOS-0", HubId::BostonMa, 80, 200.0);
        b.add_region("WEST");
        b.add_metro("SFO");
        b.add_site("SFO-0", HubId::PaloAltoCa, 120, 200.0);
        b.build()
    }

    #[test]
    fn ranges_are_contiguous_and_parents_consistent() {
        let t = two_region_toy();
        assert_eq!(t.num_regions(), 2);
        assert_eq!(t.num_metros(), 3);
        assert_eq!(t.num_sites(), 4);
        assert_eq!(t.region_metros(0), (0, 2));
        assert_eq!(t.region_metros(1), (2, 3));
        assert_eq!(t.metro_sites(0), (0, 2));
        assert_eq!(t.metro_sites(2), (3, 4));
        assert_eq!(t.region_sites(0), (0, 3));
        assert_eq!(t.region_sites(1), (3, 4));
        for s in 0..t.num_sites() {
            let m = t.site_metro(s);
            assert_eq!(t.metro_region(m), t.site_region(s));
            let (s0, s1) = t.metro_sites(m);
            assert!((s0..s1).contains(&s));
        }
    }

    #[test]
    fn site_capacity_and_tier_slack() {
        let t = two_region_toy();
        assert_eq!(t.site_capacity_hits_per_sec(0), 20_000.0);
        assert!(!t.has_tier_caps());
        let capped = t.with_tier_slack(0.5);
        assert!(capped.has_tier_caps());
        // Metro NYC: (100 + 50) servers × 200 = 30 000; slack 0.5 → 15 000.
        assert_eq!(capped.metro_cap_hits_per_sec(0), 15_000.0);
        // Region EAST: (15 000 + 8 000) × 0.5 = 11 500.
        assert_eq!(capped.region_cap_hits_per_sec(0), 11_500.0);
    }

    #[test]
    fn synthetic_spreads_sites_over_all_metros() {
        let t = Topology::synthetic(7, 200);
        assert_eq!(t.num_regions(), 6);
        assert_eq!(t.num_metros(), 29);
        assert_eq!(t.num_sites(), 200);
        // Even spread: every metro holds ⌊200/29⌋ or ⌈200/29⌉ sites.
        for m in 0..t.num_metros() {
            let (s0, s1) = t.metro_sites(m);
            assert!((6..=7).contains(&(s1 - s0)), "metro {m} holds {} sites", s1 - s0);
        }
        // Total capacity tracks the paper's deployment within jitter.
        let total: f64 = (0..t.num_sites()).map(|s| t.site_capacity_hits_per_sec(s)).sum();
        assert!((2.0e6..=6.0e6).contains(&total), "total capacity {total}");
        assert!(!t.is_flat_embedding());
    }

    #[test]
    fn synthetic_is_deterministic_per_seed() {
        assert_eq!(Topology::synthetic(3, 150), Topology::synthetic(3, 150));
        assert_ne!(Topology::synthetic(3, 150), Topology::synthetic(4, 150));
    }

    #[test]
    fn state_assignment_is_total_and_deterministic() {
        let t = two_region_toy();
        let states = [UsState::MA, UsState::NY, UsState::CA, UsState::NV];
        let owners = t.assign_states(&states);
        assert_eq!(owners.len(), 4);
        assert!(owners.iter().all(|&r| r < t.num_regions()));
        assert_eq!(owners[0], 0, "Massachusetts belongs to the east region");
        assert_eq!(owners[2], 1, "California belongs to the west region");
        assert_eq!(owners, t.assign_states(&states));
    }

    #[test]
    fn single_region_owns_every_state() {
        let mut b = TopologyBuilder::new();
        b.add_region("US");
        b.add_metro("NYC");
        b.add_site("NYC-0", HubId::NewYorkNy, 100, 200.0);
        let t = b.build();
        assert!(t.is_flat_embedding());
        let owners = t.assign_states(&[UsState::CA, UsState::TX, UsState::ME]);
        assert!(owners.iter().all(|&r| r == 0));
    }

    #[test]
    #[should_panic(expected = "add a region")]
    fn metro_without_region_panics() {
        TopologyBuilder::new().add_metro("NYC");
    }

    #[test]
    #[should_panic(expected = "no sites")]
    fn empty_tree_panics() {
        let mut b = TopologyBuilder::new();
        b.add_region("US");
        b.add_metro("NYC");
        b.build();
    }
}
