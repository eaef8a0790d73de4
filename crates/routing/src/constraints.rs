//! The unified constraint layer: what a routing decision may not do.
//!
//! The paper's savings are only credible because the price-conscious
//! router is *constrained*: it may not raise any cluster's 95th-percentile
//! bandwidth above the level observed under the original assignment (§4,
//! §6.1), and it may not route demand beyond a cluster's request capacity.
//! A [`ConstraintSet`] gathers everything of that kind — per-cluster 95/5
//! bandwidth caps, metro/region tier caps, and the [`OverflowMode`]
//! governing what happens to demand that no ceiling can absorb — into one
//! value that a simulation configuration owns and a
//! [`RoutingContext`](crate::policy::RoutingContext) *borrows*. Borrowing
//! matters: the simulator re-routes up to every five-minute step, and the
//! constraint set is immutable run-state, so the hot loop must not clone
//! cap vectors per step (it used to).
//!
//! Caps are positional (aligned with a deployment's cluster order). For
//! consumers that compare *different* deployments — the placement
//! optimizer searches over varying active-hub sets — [`HubBandwidthCaps`]
//! keys the same caps by [`HubId`] and resolves them against any cluster
//! set, so one calibration pass can constrain an entire search.

use wattroute_geo::topology::Topology;
use wattroute_geo::HubId;
use wattroute_workload::ClusterSet;

/// What happens to demand routed beyond a cluster's capacity.
///
/// The paper treats capacity as a soft planning constraint and never
/// models turned-away requests; [`OverflowMode::BillAtCapacity`] reproduces
/// that behaviour exactly. [`OverflowMode::Reject`] models the service
/// degradation explicitly: over-capacity demand is counted as
/// `rejected_hits` and excluded from served totals, so a cost-vs-QoS
/// objective can trade electricity savings against turned-away traffic.
/// Energy and dollars are identical in both modes — the power model
/// saturates at capacity either way; only the hit accounting moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowMode {
    /// Demand beyond capacity is billed as if served at capacity and
    /// surfaced as `overflow_hits` (the original behaviour, and the
    /// default — results are bit-for-bit unchanged).
    #[default]
    BillAtCapacity,
    /// Demand beyond capacity is turned away: counted as `rejected_hits`,
    /// excluded from `total_hits`, and `overflow_hits` stays zero.
    Reject,
}

/// Aggregate bandwidth ceilings for the metro and region tiers of a
/// hierarchical deployment, in tree-indexed SoA form: each site (cluster
/// position) carries its parent metro and region index, and each tier
/// carries one cap per node (`f64::INFINITY` = uncapped).
///
/// A tier cap constrains the *sum* of loads over the tier's sites, so the
/// effective ceiling of a site is `site ∧ metro ∧ region ∧ 95/5` — the
/// router pours demand into a site only while all three tiers have
/// headroom. Flat deployments never carry tier caps and pay nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct TierCaps {
    /// Parent metro of each site (cluster position).
    site_metro: Vec<usize>,
    /// Parent region of each site (cluster position).
    site_region: Vec<usize>,
    /// Aggregate cap per metro in hits/second (`∞` = uncapped).
    metro_caps: Vec<f64>,
    /// Aggregate cap per region in hits/second (`∞` = uncapped).
    region_caps: Vec<f64>,
}

impl TierCaps {
    /// Build from explicit parent vectors and per-tier caps.
    ///
    /// # Panics
    /// Panics when the parent vectors differ in length, a parent index is
    /// out of range, or a cap is NaN or negative.
    pub fn new(
        site_metro: Vec<usize>,
        site_region: Vec<usize>,
        metro_caps: Vec<f64>,
        region_caps: Vec<f64>,
    ) -> Self {
        assert_eq!(site_metro.len(), site_region.len(), "one parent pair per site required");
        assert!(site_metro.iter().all(|&m| m < metro_caps.len()), "site metro index out of range");
        assert!(
            site_region.iter().all(|&r| r < region_caps.len()),
            "site region index out of range"
        );
        let valid = |c: &f64| !c.is_nan() && *c >= 0.0;
        assert!(metro_caps.iter().all(valid), "metro caps must be >= 0");
        assert!(region_caps.iter().all(valid), "region caps must be >= 0");
        Self { site_metro, site_region, metro_caps, region_caps }
    }

    /// Lift a topology's metro/region caps into routing form. Returns
    /// `None` when every cap is infinite — an uncapped tree routes on the
    /// flat (and cheaper) path, bit-identical to a flat deployment.
    pub fn from_topology(topology: &Topology) -> Option<Self> {
        if !topology.has_tier_caps() {
            return None;
        }
        Some(Self::new(
            topology.site_metros().to_vec(),
            topology.site_regions().to_vec(),
            (0..topology.num_metros()).map(|m| topology.metro_cap_hits_per_sec(m)).collect(),
            (0..topology.num_regions()).map(|r| topology.region_cap_hits_per_sec(r)).collect(),
        ))
    }

    /// Number of sites the parent vectors describe.
    pub fn num_sites(&self) -> usize {
        self.site_metro.len()
    }

    /// Parent metro index of each site, in cluster order.
    pub fn site_metros(&self) -> &[usize] {
        &self.site_metro
    }

    /// Parent region index of each site, in cluster order.
    pub fn site_regions(&self) -> &[usize] {
        &self.site_region
    }

    /// Aggregate caps per metro.
    pub fn metro_caps(&self) -> &[f64] {
        &self.metro_caps
    }

    /// Aggregate caps per region.
    pub fn region_caps(&self) -> &[f64] {
        &self.region_caps
    }
}

/// Everything a routing decision must respect, for one deployment.
///
/// The set is cheap when unconstrained (no vectors allocated) and
/// immutable once a run starts, so the simulator hands the *same* set to
/// every reallocation by reference.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConstraintSet {
    /// Optional per-cluster 95/5 bandwidth ceilings in hits/second,
    /// typically derived from a baseline calibration pass ("follow
    /// original 95/5 constraints"). `None` relaxes the constraint.
    bandwidth_caps: Option<Vec<f64>>,
    /// Optional aggregate metro/region tier caps for hierarchical
    /// deployments. `None` (every flat deployment) routes on the
    /// per-cluster-only path.
    tier_caps: Option<TierCaps>,
    /// What happens to demand beyond every ceiling.
    overflow: OverflowMode,
}

impl ConstraintSet {
    /// A fully relaxed set: nominal capacities, no bandwidth caps, default
    /// overflow accounting. Allocates nothing.
    pub fn unconstrained() -> Self {
        Self::default()
    }

    /// Attach per-cluster 95/5 bandwidth ceilings (hits/second).
    pub fn with_bandwidth_caps(mut self, caps: Vec<f64>) -> Self {
        self.bandwidth_caps = Some(caps);
        self
    }

    /// Attach aggregate metro/region tier caps (hierarchical deployments).
    pub fn with_tier_caps(mut self, tier_caps: TierCaps) -> Self {
        self.tier_caps = Some(tier_caps);
        self
    }

    /// Set the overflow mode (what happens to over-capacity demand).
    pub fn with_overflow(mut self, overflow: OverflowMode) -> Self {
        self.overflow = overflow;
        self
    }

    /// The per-cluster 95/5 bandwidth ceilings, if any.
    pub fn bandwidth_caps(&self) -> Option<&[f64]> {
        self.bandwidth_caps.as_deref()
    }

    /// The aggregate metro/region tier caps, if any.
    pub fn tier_caps(&self) -> Option<&TierCaps> {
        self.tier_caps.as_ref()
    }

    /// The overflow mode in force.
    pub fn overflow(&self) -> OverflowMode {
        self.overflow
    }

    /// Whether 95/5 bandwidth caps are in force.
    pub fn is_bandwidth_constrained(&self) -> bool {
        self.bandwidth_caps.is_some()
    }

    /// The effective routing ceiling for one cluster: the minimum of its
    /// nominal capacity and its bandwidth cap (when one is set).
    pub fn effective_cap(&self, cluster: usize, nominal_capacity: f64) -> f64 {
        match &self.bandwidth_caps {
            Some(caps) => nominal_capacity.min(caps[cluster]),
            None => nominal_capacity,
        }
    }

    /// Scale the bandwidth caps by a factor — relaxing (factor > 1) or
    /// tightening the 95/5 regime, as the savings-vs-slack curve sweeps.
    /// A non-finite factor removes the caps entirely (the ∞ point of the
    /// curve *is* the unconstrained run). No-op on an uncapped set.
    ///
    /// # Panics
    /// Panics on a negative factor.
    pub fn with_bandwidth_caps_scaled(mut self, factor: f64) -> Self {
        assert!(factor >= 0.0, "cap multiplier must be non-negative");
        self.bandwidth_caps = match (self.bandwidth_caps, factor.is_finite()) {
            (Some(caps), true) => Some(caps.into_iter().map(|c| c * factor).collect()),
            _ => None,
        };
        self
    }

    /// Check every positional vector against a deployment size.
    ///
    /// # Panics
    /// Panics on a length mismatch — a configuration error, not a data
    /// condition.
    pub fn validate(&self, n_clusters: usize) {
        if let Some(caps) = &self.bandwidth_caps {
            assert_eq!(caps.len(), n_clusters, "bandwidth cap length mismatch");
        }
        if let Some(tiers) = &self.tier_caps {
            assert_eq!(tiers.num_sites(), n_clusters, "tier cap site count mismatch");
        }
    }

    /// Append the set to `key` as exact bits: two sets append equal words
    /// exactly when every cap, tier and the overflow mode agree
    /// bit for bit, so a `0.0` cap and a `-0.0` cap differ. A scenario
    /// sweep keys the cells that may share one routing stream on it.
    pub fn push_bits(&self, key: &mut Vec<u64>) {
        // Field by field, so a new field must be keyed before it compiles.
        let Self { bandwidth_caps, tier_caps, overflow } = self;
        let push_all = |key: &mut Vec<u64>, values: &[f64]| {
            key.push(values.len() as u64);
            key.extend(values.iter().map(|v| v.to_bits()));
        };
        key.push(u64::from(bandwidth_caps.is_some()));
        push_all(key, bandwidth_caps.as_deref().unwrap_or_default());
        key.push(u64::from(tier_caps.is_some()));
        if let Some(TierCaps { site_metro, site_region, metro_caps, region_caps }) = tier_caps {
            for parents in [site_metro, site_region] {
                key.push(parents.len() as u64);
                key.extend(parents.iter().map(|&p| p as u64));
            }
            push_all(key, metro_caps);
            push_all(key, region_caps);
        }
        key.push(*overflow as u64);
    }
}

/// 95/5 bandwidth caps keyed by market hub rather than cluster position,
/// so one calibration pass constrains *any* deployment over the same
/// hubs — including the placement optimizer's candidates, whose active-hub
/// sets differ from the calibrated deployment's.
///
/// Hubs the calibration never observed resolve to an unconstrained cap
/// (`f64::INFINITY`): the baseline assignment sent them no traffic, so
/// there is no observed 95/5 level to hold them to (a freshly activated
/// hub would negotiate a fresh bandwidth contract).
#[derive(Debug, Clone, PartialEq)]
pub struct HubBandwidthCaps {
    caps: Vec<(HubId, f64)>,
}

impl HubBandwidthCaps {
    /// Build from explicit (hub, cap) pairs. Later duplicates of a hub are
    /// ignored (first wins, matching cluster-order resolution).
    pub fn new(caps: Vec<(HubId, f64)>) -> Self {
        Self { caps }
    }

    /// Build from a deployment's hub order and its positional caps.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn from_cluster_caps(clusters: &ClusterSet, caps: &[f64]) -> Self {
        let hub_ids = clusters.hub_ids();
        assert_eq!(hub_ids.len(), caps.len(), "cap vector must align with the deployment");
        Self::new(hub_ids.into_iter().zip(caps.iter().copied()).collect())
    }

    /// The cap for one hub, if the calibration observed it.
    pub fn get(&self, hub: HubId) -> Option<f64> {
        self.caps.iter().find(|(h, _)| *h == hub).map(|(_, c)| *c)
    }

    /// The (hub, cap) pairs, in calibration cluster order.
    pub fn entries(&self) -> &[(HubId, f64)] {
        &self.caps
    }

    /// Scale every cap by a factor (see
    /// [`ConstraintSet::with_bandwidth_caps_scaled`] for semantics — a
    /// non-finite factor here still yields caps, each infinite, which
    /// resolve to unconstrained sets; a zero calibrated cap becomes
    /// infinite too, not `0 × ∞ = NaN`).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor >= 0.0, "cap multiplier must be non-negative");
        let scale = |c: f64| if factor.is_finite() { c * factor } else { f64::INFINITY };
        Self::new(self.caps.iter().map(|&(h, c)| (h, scale(c))).collect())
    }

    /// Positional caps for an arbitrary deployment: each cluster gets its
    /// hub's calibrated cap, or `f64::INFINITY` when the hub was never
    /// observed.
    pub fn resolve(&self, clusters: &ClusterSet) -> Vec<f64> {
        clusters.hub_ids().into_iter().map(|h| self.get(h).unwrap_or(f64::INFINITY)).collect()
    }

    /// Derive a deployment's [`ConstraintSet`] from a base set: everything
    /// (overflow mode, tier caps) is kept, the bandwidth caps are
    /// replaced by this calibration's resolution — unless every resolved
    /// cap is infinite, in which case the set is left bandwidth-relaxed.
    pub fn apply(&self, clusters: &ClusterSet, base: &ConstraintSet) -> ConstraintSet {
        let resolved = self.resolve(clusters);
        let mut set = base.clone();
        set.bandwidth_caps =
            if resolved.iter().all(|c| c.is_infinite()) { None } else { Some(resolved) };
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_set_uses_nominal_capacity() {
        let set = ConstraintSet::unconstrained();
        assert_eq!(set.effective_cap(0, 1000.0), 1000.0);
        assert!(!set.is_bandwidth_constrained());
        assert_eq!(set.overflow(), OverflowMode::BillAtCapacity);
        set.validate(9); // no vectors, nothing to mismatch
    }

    #[test]
    fn effective_cap_is_the_minimum_of_all_ceilings() {
        let set = ConstraintSet::unconstrained().with_bandwidth_caps(vec![500.0, 1500.0]);
        // capacity ∧ bandwidth cap, per cluster.
        assert_eq!(set.effective_cap(0, 1000.0), 500.0);
        assert_eq!(set.effective_cap(1, 1000.0), 1000.0);
        assert_eq!(set.effective_cap(1, 1800.0), 1500.0);
    }

    #[test]
    fn scaling_relaxes_and_infinite_scaling_removes() {
        let set = ConstraintSet::unconstrained().with_bandwidth_caps(vec![100.0, 200.0]);
        let relaxed = set.clone().with_bandwidth_caps_scaled(1.5);
        assert_eq!(relaxed.bandwidth_caps(), Some(&[150.0, 300.0][..]));
        let removed = set.clone().with_bandwidth_caps_scaled(f64::INFINITY);
        assert_eq!(removed, ConstraintSet::unconstrained());
        // Scaling an uncapped set stays uncapped.
        let still = ConstraintSet::unconstrained().with_bandwidth_caps_scaled(2.0);
        assert!(!still.is_bandwidth_constrained());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_multiplier_rejected() {
        let _ = ConstraintSet::unconstrained()
            .with_bandwidth_caps(vec![1.0])
            .with_bandwidth_caps_scaled(-0.5);
    }

    #[test]
    #[should_panic(expected = "bandwidth cap length mismatch")]
    fn validation_rejects_misaligned_caps() {
        ConstraintSet::unconstrained().with_bandwidth_caps(vec![1.0, 2.0]).validate(3);
    }

    #[test]
    fn overflow_mode_travels_with_the_set() {
        let set = ConstraintSet::unconstrained().with_overflow(OverflowMode::Reject);
        assert_eq!(set.overflow(), OverflowMode::Reject);
        assert_eq!(set.clone().with_bandwidth_caps_scaled(2.0).overflow(), OverflowMode::Reject);
    }

    #[test]
    fn hub_caps_resolve_against_any_deployment() {
        let nine = ClusterSet::akamai_like_nine();
        let caps: Vec<f64> = (0..nine.len()).map(|i| 1000.0 + i as f64).collect();
        let by_hub = HubBandwidthCaps::from_cluster_caps(&nine, &caps);
        assert_eq!(by_hub.resolve(&nine), caps);
        assert_eq!(by_hub.get(nine.hub_ids()[3]), Some(1003.0));

        // A subset deployment resolves each cluster to its own hub's cap.
        let subset = ClusterSet::new(nine.clusters().iter().skip(4).cloned().collect::<Vec<_>>());
        let resolved = by_hub.resolve(&subset);
        assert_eq!(resolved, caps[4..].to_vec());

        // An unobserved hub is unconstrained.
        let scaled = by_hub.scaled(2.0);
        assert_eq!(scaled.get(nine.hub_ids()[0]), Some(2000.0));
        assert_eq!(scaled.entries().len(), nine.len());
    }

    #[test]
    fn infinite_scaling_of_a_zero_cap_is_infinite_not_nan() {
        // A calibration against a concentrating baseline leaves unused
        // hubs with a 0.0 cap; infinite slack must relax them too (0 × ∞
        // would be NaN, which is neither infinite nor a usable ceiling).
        let nine = ClusterSet::akamai_like_nine();
        let mut caps = vec![1000.0; nine.len()];
        caps[3] = 0.0;
        let by_hub = HubBandwidthCaps::from_cluster_caps(&nine, &caps).scaled(f64::INFINITY);
        assert!(by_hub.entries().iter().all(|&(_, c)| c.is_infinite()));
        let relaxed = by_hub.apply(&nine, &ConstraintSet::unconstrained());
        assert!(!relaxed.is_bandwidth_constrained());
    }

    #[test]
    fn tier_caps_validate_and_travel_with_the_set() {
        let tiers =
            TierCaps::new(vec![0, 0, 1], vec![0, 0, 0], vec![500.0, f64::INFINITY], vec![800.0]);
        assert_eq!(tiers.num_sites(), 3);
        assert_eq!(tiers.metro_caps()[0], 500.0);
        let set = ConstraintSet::unconstrained().with_tier_caps(tiers.clone());
        set.validate(3);
        assert_eq!(set.tier_caps(), Some(&tiers));
        // Tier caps survive bandwidth-cap scaling and hub-cap application.
        let scaled = set.clone().with_bandwidth_caps_scaled(2.0);
        assert_eq!(scaled.tier_caps(), Some(&tiers));
    }

    #[test]
    #[should_panic(expected = "tier cap site count mismatch")]
    fn tier_caps_length_checked_by_validate() {
        let tiers = TierCaps::new(vec![0], vec![0], vec![100.0], vec![100.0]);
        ConstraintSet::unconstrained().with_tier_caps(tiers).validate(9);
    }

    #[test]
    #[should_panic(expected = "metro index out of range")]
    fn tier_caps_reject_bad_parent_index() {
        let _ = TierCaps::new(vec![2], vec![0], vec![100.0], vec![100.0]);
    }

    #[test]
    fn tier_caps_from_topology() {
        use wattroute_geo::topology::Topology;
        let uncapped = Topology::synthetic(1, 50);
        assert!(TierCaps::from_topology(&uncapped).is_none());
        let capped = uncapped.with_tier_slack(0.8);
        let tiers = TierCaps::from_topology(&capped).expect("finite caps present");
        assert_eq!(tiers.num_sites(), 50);
        assert_eq!(tiers.metro_caps().len(), 29);
        assert_eq!(tiers.region_caps().len(), 6);
        assert!(tiers.metro_caps().iter().all(|c| c.is_finite()));
    }

    #[test]
    fn hub_caps_apply_keeps_the_rest_of_the_base_set() {
        let nine = ClusterSet::akamai_like_nine();
        let caps = vec![700.0; 9];
        let by_hub = HubBandwidthCaps::from_cluster_caps(&nine, &caps);
        let base = ConstraintSet::unconstrained().with_overflow(OverflowMode::Reject);
        let derived = by_hub.apply(&nine, &base);
        assert_eq!(derived.overflow(), OverflowMode::Reject);
        assert_eq!(derived.bandwidth_caps(), Some(&caps[..]));

        // All-infinite resolutions leave the set relaxed rather than
        // carrying a vector of infinities.
        let foreign = HubBandwidthCaps::new(vec![]);
        let relaxed = foreign.apply(&nine, &base);
        assert!(!relaxed.is_bandwidth_constrained());
        assert_eq!(relaxed.overflow(), OverflowMode::Reject);
    }
}
