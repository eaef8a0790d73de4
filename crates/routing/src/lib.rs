//! Request-routing policies for electricity-cost-aware load direction.
//!
//! This crate implements the routing side of *Cutting the Electric Bill for
//! Internet-Scale Systems* (Qureshi et al., SIGCOMM 2009):
//!
//! * [`allocation`] — the per-step assignment of client-state demand to
//!   clusters, plus distance accounting;
//! * [`policy`] — the [`policy::RoutingPolicy`] trait, the per-step
//!   [`policy::RoutingContext`] (the run's client–cluster geometry,
//!   demand, prices, and the constraint set in force), and the shared
//!   greedy assignment engine;
//! * [`constraints`] — the unified [`constraints::ConstraintSet`]
//!   (95/5 bandwidth caps, tier caps, overflow mode) that
//!   simulations own and routing contexts borrow, plus the hub-keyed
//!   [`constraints::HubBandwidthCaps`] used to carry one calibration
//!   across deployments;
//! * [`baseline`] — the comparison policies: nearest-cluster
//!   (distance-optimal), an Akamai-like baseline allocation, and the static
//!   cheapest-hub placement of §6.3;
//! * [`price_conscious`] — the paper's distance-constrained electricity
//!   price optimizer (§6.1) with its distance threshold and $5/MWh price
//!   threshold, and the client–cluster geometry every policy reads
//!   ([`price_conscious::CompiledPreferences`]);
//! * [`extensions`] — the §8 future-work policies: carbon-aware routing and
//!   a joint price/distance optimizer.
//!
//! ```
//! use std::sync::Arc;
//! use wattroute_routing::prelude::*;
//! use wattroute_workload::ClusterSet;
//! use wattroute_geo::UsState;
//! use wattroute_market::time::SimHour;
//!
//! let clusters = ClusterSet::akamai_like_nine();
//! // The run's client–cluster geometry, compiled once and lent to every
//! // context (an engine does this for you).
//! let geometry = Arc::new(CompiledPreferences::build(&clusters, &[UsState::MA, UsState::CA]));
//! let demand = vec![1000.0, 3000.0];
//! // Palo Alto is currently cheap, everything else expensive.
//! let prices = vec![20.0, 80.0, 80.0, 80.0, 80.0, 80.0, 80.0, 80.0, 80.0];
//! let ctx = RoutingContext::new(&clusters, &geometry, &demand, &prices, SimHour(0));
//!
//! let mut optimizer = PriceConsciousPolicy::unconstrained_distance();
//! let allocation = optimizer.allocate(&ctx);
//! // All demand lands on the cheapest cluster (index 0 = Palo Alto).
//! assert!(allocation.cluster_loads()[0] > 3999.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod baseline;
pub mod constraints;
pub mod extensions;
pub mod policy;
pub mod price_conscious;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::allocation::Allocation;
    pub use crate::baseline::{AkamaiLikePolicy, NearestClusterPolicy, StaticCheapestPolicy};
    pub use crate::constraints::{ConstraintSet, HubBandwidthCaps, OverflowMode, TierCaps};
    pub use crate::extensions::{CarbonAwarePolicy, JointCostPolicy};
    pub use crate::policy::{RoutingContext, RoutingKey, RoutingPolicy};
    pub use crate::price_conscious::{CompiledPreferences, PriceConsciousPolicy};
}

pub use prelude::*;
