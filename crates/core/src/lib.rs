//! # wattroute
//!
//! Electricity-price-aware request routing for Internet-scale systems — a
//! Rust reproduction of *Cutting the Electric Bill for Internet-Scale
//! Systems* (Qureshi, Weber, Balakrishnan, Guttag, Maggs — SIGCOMM 2009).
//!
//! The paper's thesis: wholesale electricity prices at different US
//! locations are volatile and imperfectly correlated, and a geographically
//! distributed system that already does dynamic request routing can shift
//! load toward wherever energy is currently cheap, cutting its electricity
//! *cost* (not its energy) by a few percent to tens of percent depending on
//! how energy-proportional its clusters are.
//!
//! This crate is the user-facing facade. It provides the discrete-time cost
//! [`simulation`] engine, pre-packaged [`scenario`]s matching the paper's
//! §6.2 (24 days of traffic) and §6.3 (39 months of prices) setups, and the
//! [`report`] types used to express savings. The substrates live in their
//! own crates and are re-exported here:
//!
//! | crate | role |
//! |---|---|
//! | [`market`] | calibrated wholesale price simulator, differentials, demand response |
//! | [`workload`] | Akamai-like CDN traces, 95/5 percentiles, capacity |
//! | [`energy`] | cluster power model, fleet cost estimates, router energy |
//! | [`routing`] | price-conscious optimizer, baselines, carbon/joint extensions |
//! | [`geo`] | hubs, RTOs, census populations, distances |
//! | [`stats`] | statistics kernels |
//!
//! See `docs/engine.md` for the compile-then-run engine design and
//! `docs/paper_fidelity.md` for the paper-section-by-section fidelity map.
//!
//! # Quickstart
//!
//! ```
//! use wattroute::prelude::*;
//!
//! // A small window keeps the doctest fast; examples/ and the bench harness
//! // run the full 24-day and 39-month scenarios.
//! let start = SimHour::from_date(2008, 12, 19);
//! let scenario = Scenario::custom_window(42, HourRange::new(start, start.plus_hours(48)))
//!     .with_energy(EnergyModelParams::optimistic_future());
//!
//! let baseline = scenario.baseline_report();
//! let mut optimizer = PriceConsciousPolicy::with_distance_threshold(1500.0);
//! let optimized = scenario.execute(&mut optimizer, RunOptions::new());
//!
//! let savings = optimized.savings_percent_vs(&baseline);
//! assert!(savings > 0.0, "price-conscious routing should save money, got {savings:.2}%");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraints;
pub mod engine;
pub mod hierarchy;
pub mod json;
pub mod montecarlo;
pub mod objective;
pub mod report;
pub mod run;
pub mod scenario;
pub mod simulation;
pub mod sweep;

/// Compiles and runs every Rust code block in the workspace README as a
/// doc-test, so the documented quickstart cannot drift from the real API.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctest;

/// How many workers a pool runs for `jobs` jobs: `threads` when the caller
/// pinned it, else the available parallelism, clamped to `1..=jobs` (one
/// worker when there are no jobs).
pub(crate) fn worker_count(threads: Option<usize>, jobs: usize) -> usize {
    threads
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
        .clamp(1, jobs.max(1))
}

/// Run `work(worker)` for each worker in `0..workers` on its own scoped
/// thread and return what each returned, in worker order. A panic in a
/// worker reaches the caller with its own payload (see [`join_workers`]).
pub(crate) fn pool<T: Send>(workers: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let work = &work;
    std::thread::scope(|scope| {
        join_workers((0..workers).map(|worker| scope.spawn(move || work(worker))).collect())
    })
}

/// Join a pool's scoped workers in order and return what each returned.
/// Once every worker is joined, the first that panicked has its panic
/// re-raised here with its own payload; left to `std::thread::scope`, the
/// caller would see only "a scoped thread panicked".
pub(crate) fn join_workers<T>(workers: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut results = Vec::with_capacity(workers.len());
    let mut panic = None;
    for worker in workers {
        match worker.join() {
            Ok(result) => results.push(result),
            Err(payload) => {
                panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    results
}

/// A policy that panics, and what a panic says, for the tests that follow
/// a worker's panic to the caller.
#[cfg(test)]
pub(crate) mod panics {
    use wattroute_routing::prelude::*;

    /// Routes nearest-first, and panics with "boom from the policy" on its
    /// `n`-th allocation.
    pub(crate) struct Boom {
        inner: NearestClusterPolicy,
        calls_left: usize,
    }

    impl Boom {
        pub(crate) fn on_call(n: usize) -> Self {
            Self { inner: NearestClusterPolicy::new(), calls_left: n }
        }
    }

    impl RoutingPolicy for Boom {
        fn name(&self) -> &str {
            "boom"
        }

        fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
            self.calls_left -= 1;
            if self.calls_left == 0 {
                panic!("boom from the policy");
            }
            self.inner.allocate_into(out, ctx);
        }
    }

    /// The payload a panic in `f` carries, as text.
    pub(crate) fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the run must panic");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload.downcast::<&str>().map(|m| m.to_string()).unwrap_or_default(),
        }
    }
}

pub use wattroute_energy as energy;
pub use wattroute_geo as geo;
pub use wattroute_market as market;
pub use wattroute_routing as routing;
pub use wattroute_stats as stats;
pub use wattroute_workload as workload;

/// Convenient re-exports of the most commonly used items across the
/// workspace.
pub mod prelude {
    pub use crate::constraints::{BandwidthTariff, CalibratedScenario};
    pub use crate::engine::{DemandSlice, EngineSnapshot, PriceSlice, SimulationEngine};
    pub use crate::hierarchy::HierarchicalReplay;
    pub use crate::montecarlo::{
        BandSummary, ClusterBand, MonteCarlo, PathOutcome, SavingsDistribution, SharedPolicyFactory,
    };
    pub use crate::objective::{Objective, ObjectiveTerms};
    pub use crate::report::{PolicyComparison, SimulationReport};
    pub use crate::run::RunOptions;
    pub use crate::scenario::Scenario;
    pub use crate::simulation::{Simulation, SimulationConfig};
    pub use crate::sweep::{PolicyFactory, ScenarioSweep, SweepReport};
    pub use wattroute_energy::model::EnergyModelParams;
    pub use wattroute_geo::{HubId, Rto, UsState};
    pub use wattroute_market::prelude::*;
    pub use wattroute_routing::prelude::*;
    pub use wattroute_workload::prelude::*;
}
