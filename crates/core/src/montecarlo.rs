//! Monte Carlo replay: savings *distributions* instead of point estimates.
//!
//! Every other harness in this workspace replays one deterministic price
//! trace, so its savings figures are point estimates. The calibrated
//! stochastic market model ([`wattroute_market::model::MarketModel`]) can do
//! better: this module draws `N` seeded, cross-hub-correlated price paths
//! from [`PriceGenerator`], replays each one through the incremental
//! [`SimulationEngine`], and aggregates the per-path reports into a
//! [`SavingsDistribution`] — mean and p5/p50/p95 bands of the electric
//! bill and the savings percentage, conditional value-at-risk (CVaR) of the
//! bill, and per-cluster cost quantile rollups.
//!
//! # Determinism
//!
//! Path `k` draws its prices from the generator reseeded with
//! [`path_seed`]`(master_seed, k)` — a SplitMix64-mixed stream derived from
//! one master seed. A path's price series is therefore a pure function of
//! `(model, master_seed, k, range)`, independent of which worker thread
//! happens to draw it, and results are folded back in path order. The same
//! master seed yields a byte-identical [`SavingsDistribution::to_json`]
//! string at any worker-thread count, and an `n_paths = 1` run reproduces a
//! direct [`Simulation`](crate::simulation::Simulation) replay of the same
//! generated prices bit for bit (both are pinned by property tests).
//!
//! # Workspace reuse
//!
//! Each worker owns exactly one generator (reseeded per path — the
//! calibrated model is cloned once per worker, not per path), one
//! [`SimulationEngine`] reset from a pristine [`EngineSnapshot`] between
//! replays, and one flat `hour × hub` price buffer refilled per path. The
//! client–cluster geometry ([`CompiledPreferences`]) is compiled once per
//! run and shared by every worker's engine, so drawing more paths performs
//! **zero** additional artifact compiles — asserted by the compile-counter
//! tests.
//!
//! # CVaR
//!
//! `CVaR_α` of the bill is the expected bill in the worst `(1 − α)` tail of
//! the path distribution (Rockafellar–Uryasev sample form; see
//! [`wattroute_stats::quantiles::cvar`]), taken at `α = 0.95`.
//!
//! ```
//! use wattroute::montecarlo::MonteCarlo;
//! use wattroute::prelude::*;
//!
//! let start = SimHour::from_date(2008, 6, 1);
//! let scenario = Scenario::custom_window(42, HourRange::new(start, start.plus_hours(24)));
//! let model = MarketModel::calibrated().restricted_to(&scenario.clusters.hub_ids());
//! let dist =
//!     MonteCarlo::new(&scenario.clusters, &scenario.trace, model, scenario.config.clone(), 2009)
//!         .with_paths(4)
//!         .with_threads(2)
//!         .run();
//! assert_eq!(dist.per_path.len(), 4);
//! assert!(dist.bill.p95 >= dist.bill.p5);
//! assert!(dist.bill_cvar_dollars >= dist.bill.mean);
//! ```

use crate::engine::{EngineSnapshot, PriceSlice, SimulationEngine, Threads};
use crate::json::{self, JsonValue};
use crate::report::SimulationReport;
use crate::simulation::{step_coverage, SimulationConfig};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use wattroute_market::generator::{path_seed, PriceGenerator};
use wattroute_market::model::MarketModel;
use wattroute_routing::baseline::AkamaiLikePolicy;
use wattroute_routing::policy::RoutingPolicy;
use wattroute_routing::price_conscious::{CompiledPreferences, PriceConsciousPolicy};
use wattroute_stats as stats;
use wattroute_workload::trace::Trace;
use wattroute_workload::ClusterSet;

/// A shareable, cloneable policy constructor: every worker thread builds
/// its own policy instance from the one factory, so policies need not be
/// `Sync`. Monte Carlo runs and the optimizer's evaluators take one.
pub type SharedPolicyFactory = Arc<dyn Fn() -> Box<dyn RoutingPolicy> + Send + Sync>;

/// The confidence level `α` of every run's bill CVaR.
const CVAR_ALPHA: f64 = 0.95;

/// Mean and p5/p50/p95 band of one scalar across Monte Carlo paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandSummary {
    /// Mean over paths.
    pub mean: f64,
    /// 5th percentile over paths.
    pub p5: f64,
    /// Median over paths.
    pub p50: f64,
    /// 95th percentile over paths.
    pub p95: f64,
}

impl BandSummary {
    /// Summarise a non-empty sample of per-path values.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a band summary needs at least one sample");
        let q = |p: f64| stats::quantile(samples, p).expect("non-empty finite sample");
        Self {
            mean: stats::mean(samples).expect("non-empty sample"),
            p5: q(0.05),
            p50: q(0.50),
            p95: q(0.95),
        }
    }

    /// Encode as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        json::object([
            ("mean", JsonValue::Number(self.mean)),
            ("p5", JsonValue::Number(self.p5)),
            ("p50", JsonValue::Number(self.p50)),
            ("p95", JsonValue::Number(self.p95)),
        ])
    }
}

/// Per-cluster cost band across paths.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterBand {
    /// Cluster label (e.g. `NY`).
    pub label: String,
    /// Electricity cost band for this cluster, in dollars.
    pub cost: BandSummary,
}

impl ClusterBand {
    /// Encode as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        json::object([
            ("label", JsonValue::String(self.label.clone())),
            ("cost", self.cost.to_json_value()),
        ])
    }
}

/// The retained scalars of one Monte Carlo path: the optimized and baseline
/// bills plus the optimized policy's QoS aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct PathOutcome {
    /// Path index in the master seed's stream.
    pub path: u64,
    /// The generator seed this path used ([`path_seed`] of the master seed).
    pub seed: u64,
    /// Optimized policy's total electricity cost in dollars.
    pub cost_dollars: f64,
    /// Baseline policy's total electricity cost in dollars.
    pub baseline_cost_dollars: f64,
    /// Savings of the optimized policy vs the baseline, in percent.
    pub savings_percent: f64,
    /// Overflow plus rejected hits under the optimized policy.
    pub unserved_hits: f64,
    /// Hits actually served (total minus overflow) under the optimized
    /// policy.
    pub served_hits: f64,
    /// Demand-weighted mean client–server distance (km) under the optimized
    /// policy.
    pub mean_distance_km: f64,
    /// 95/5 bandwidth bill in dollars under the optimized policy (zero when
    /// the run carries no tariff).
    pub bandwidth_cost_dollars: f64,
}

impl PathOutcome {
    /// Encode as a JSON value. Seeds are emitted as hex strings (`u64` does
    /// not round-trip through a JSON number); zero `unserved_hits` and
    /// `bandwidth_cost_dollars` are omitted, matching the report encoders.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("path", JsonValue::Number(self.path as f64)),
            ("seed", JsonValue::String(format!("{:#018x}", self.seed))),
            ("cost_dollars", JsonValue::Number(self.cost_dollars)),
            ("baseline_cost_dollars", JsonValue::Number(self.baseline_cost_dollars)),
            ("savings_percent", JsonValue::Number(self.savings_percent)),
            ("served_hits", JsonValue::Number(self.served_hits)),
            ("mean_distance_km", JsonValue::Number(self.mean_distance_km)),
        ];
        if self.unserved_hits != 0.0 {
            fields.push(("unserved_hits", JsonValue::Number(self.unserved_hits)));
        }
        if self.bandwidth_cost_dollars != 0.0 {
            fields.push(("bandwidth_cost_dollars", JsonValue::Number(self.bandwidth_cost_dollars)));
        }
        json::object_iter(fields)
    }
}

/// The aggregate of a Monte Carlo run: distribution bands over the electric
/// bill and the savings percentage, tail risk of the bill, per-cluster
/// rollups, and the per-path scalars they were folded from.
#[derive(Debug, Clone, PartialEq)]
pub struct SavingsDistribution {
    /// The master seed the path stream was derived from.
    pub master_seed: u64,
    /// First path index drawn (0 unless
    /// [`MonteCarlo::with_first_path`] shifted the stream).
    pub first_path: u64,
    /// Number of paths drawn.
    pub n_paths: usize,
    /// The CVaR confidence level used for [`Self::bill_cvar_dollars`].
    pub cvar_alpha: f64,
    /// Name of the optimized policy.
    pub policy: String,
    /// Name of the baseline policy.
    pub baseline: String,
    /// Distribution of the optimized policy's total bill, in dollars.
    pub bill: BandSummary,
    /// Distribution of the baseline policy's total bill, in dollars.
    pub baseline_bill: BandSummary,
    /// Distribution of the per-path savings percentage.
    pub savings_percent: BandSummary,
    /// `CVaR_α` of the optimized bill: the expected bill over the worst
    /// `(1 − α)` fraction of paths. Always at least the mean bill.
    pub bill_cvar_dollars: f64,
    /// Per-cluster cost bands, in cluster order.
    pub clusters: Vec<ClusterBand>,
    /// Per-path scalars, in path order.
    pub per_path: Vec<PathOutcome>,
}

impl SavingsDistribution {
    /// Standard error of the mean savings percentage
    /// (sample standard deviation over `√n`), or `None` below two paths.
    /// Shrinks like `1/√n`, which is what the convergence smoke pins.
    pub fn mean_savings_standard_error(&self) -> Option<f64> {
        let samples: Vec<f64> = self.per_path.iter().map(|p| p.savings_percent).collect();
        let sd = stats::descriptive::sample_std_dev(&samples)?;
        Some(sd / (samples.len() as f64).sqrt())
    }

    /// Width of the 90% confidence interval on the mean savings percentage
    /// (`2 × 1.645 ×` the standard error), or `None` below two paths.
    pub fn mean_savings_ci90_width(&self) -> Option<f64> {
        self.mean_savings_standard_error().map(|se| 2.0 * 1.645 * se)
    }

    /// Encode as a JSON value. Object keys are sorted (the encoder uses a
    /// `BTreeMap`), so the encoding is deterministic; seeds are hex strings;
    /// a zero `first_path` is omitted.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("master_seed", JsonValue::String(format!("{:#018x}", self.master_seed))),
            ("n_paths", JsonValue::Number(self.n_paths as f64)),
            ("cvar_alpha", JsonValue::Number(self.cvar_alpha)),
            ("policy", JsonValue::String(self.policy.clone())),
            ("baseline", JsonValue::String(self.baseline.clone())),
            ("bill", self.bill.to_json_value()),
            ("baseline_bill", self.baseline_bill.to_json_value()),
            ("savings_percent", self.savings_percent.to_json_value()),
            ("bill_cvar_dollars", JsonValue::Number(self.bill_cvar_dollars)),
            (
                "clusters",
                JsonValue::Array(self.clusters.iter().map(ClusterBand::to_json_value).collect()),
            ),
            (
                "per_path",
                JsonValue::Array(self.per_path.iter().map(PathOutcome::to_json_value).collect()),
            ),
        ];
        if self.first_path != 0 {
            fields.push(("first_path", JsonValue::Number(self.first_path as f64)));
        }
        json::object_iter(fields)
    }

    /// Serialize to a compact JSON string. Byte-identical across worker
    /// thread counts for the same configuration and master seed.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }
}

/// One worker's answer for one path, tagged with its slot so the run can
/// fold results back in path order whichever worker drew each path.
struct PathResult {
    slot: usize,
    outcome: PathOutcome,
    cluster_costs: Vec<f64>,
}

/// The Monte Carlo replay engine. See the [module docs](self) for the
/// determinism and workspace-reuse contracts.
pub struct MonteCarlo<'a> {
    clusters: &'a ClusterSet,
    trace: &'a Trace,
    model: MarketModel,
    config: SimulationConfig,
    master_seed: u64,
    first_path: u64,
    n_paths: usize,
    threads: Option<usize>,
    policy: SharedPolicyFactory,
}

impl<'a> MonteCarlo<'a> {
    /// Create an engine over a deployment, a traffic trace, a calibrated
    /// price model (which must cover every deployment hub), a simulation
    /// configuration, and the master seed the path stream derives from.
    ///
    /// Defaults: 64 paths, all available threads and price-conscious
    /// routing (1500 km threshold). The baseline is the Akamai-like policy.
    pub fn new(
        clusters: &'a ClusterSet,
        trace: &'a Trace,
        model: MarketModel,
        config: SimulationConfig,
        master_seed: u64,
    ) -> Self {
        assert!(trace.num_steps() > 0, "Monte Carlo needs a non-empty trace");
        Self {
            clusters,
            trace,
            model,
            config,
            master_seed,
            first_path: 0,
            n_paths: 64,
            threads: None,
            policy: Arc::new(|| Box::new(PriceConsciousPolicy::with_distance_threshold(1500.0))),
        }
    }

    /// Set the number of price paths to draw (at least one).
    pub fn with_paths(mut self, n_paths: usize) -> Self {
        assert!(n_paths > 0, "at least one path is required");
        self.n_paths = n_paths;
        self
    }

    /// Pin the worker-thread count (results do not depend on it).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread is required");
        self.threads = Some(threads);
        self
    }

    /// Start the path stream at index `first` instead of 0, so a run can be
    /// split across calls (or a single path `k` replayed on its own).
    pub fn with_first_path(mut self, first: u64) -> Self {
        self.first_path = first;
        self
    }

    /// Replace the optimized policy with an already-boxed shared factory
    /// (the placement optimizer's native currency).
    pub fn with_policy_factory(mut self, factory: SharedPolicyFactory) -> Self {
        self.policy = factory;
        self
    }

    /// Draw every path, replay it under both policies, and aggregate. A
    /// panic in a worker reaches the caller with the worker's own payload.
    pub fn run(&self) -> SavingsDistribution {
        let coverage = step_coverage(self.trace);
        let n_hours = coverage.len_hours() as usize;
        let hubs = self.clusters.hub_ids();
        let n_hubs = hubs.len();
        let delay = self.config.reaction_delay_hours as usize;
        let clamped = self.config.reaction_delay_hours.min(n_hours as u64);
        // The one artifact compile of the whole run: every worker's engine
        // shares this geometry, so path count never changes compile counts.
        let geometry = Arc::new(CompiledPreferences::build(self.clusters, &self.trace.states));
        let policy_name = (self.policy)().name().to_string();
        let baseline_name = AkamaiLikePolicy::default().name().to_string();
        let n_paths = self.n_paths;
        let workers = crate::worker_count(self.threads, n_paths);

        let next = AtomicUsize::new(0);
        wattroute_obs::gauge!("montecarlo.workers").set(workers as f64);
        // Worker-utilization accounting (telemetry only): total busy
        // nanoseconds across workers vs. the pool's wall time.
        let run_start = wattroute_obs::Telemetry::enabled().then(std::time::Instant::now);
        let busy_ns = AtomicU64::new(0);
        let mut results: Vec<PathResult> = crate::pool(workers, |_| {
            // Per-worker workspaces, reused across paths: one generator
            // (the model clone), one engine + pristine snapshot, one flat
            // hour × hub price buffer, one instance of each policy.
            let mut generator = PriceGenerator::new(self.model.clone(), 0);
            let mut engine = SimulationEngine::with_geometry(
                self.clusters,
                &self.trace.states,
                Arc::clone(&geometry),
                self.config.clone(),
            )
            .with_clamped_lead_hours(clamped);
            let pristine = engine.snapshot();
            let mut billing = vec![0.0f64; n_hours * n_hubs];
            let mut policy = (self.policy)();
            let mut baseline = AkamaiLikePolicy::default();
            let mut results = Vec::new();
            loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                if slot >= n_paths {
                    break;
                }
                let path_span = wattroute_obs::span!("montecarlo.path");
                let path_start = path_span.is_active().then(std::time::Instant::now);
                let path = self.first_path + slot as u64;
                let seed = path_seed(self.master_seed, path);
                generator.reseed(seed);
                let prices = generator.realtime_hourly(coverage);
                for (j, hub) in hubs.iter().enumerate() {
                    let series =
                        prices.for_hub(*hub).expect("the model covers every deployment hub");
                    for (h, &p) in series.prices.iter().enumerate() {
                        billing[h * n_hubs + j] = p;
                    }
                }
                let optimized = replay(
                    &mut engine,
                    &pristine,
                    policy.as_mut(),
                    self.trace,
                    coverage.start.0,
                    &billing,
                    n_hubs,
                    delay,
                );
                let base = replay(
                    &mut engine,
                    &pristine,
                    &mut baseline,
                    self.trace,
                    coverage.start.0,
                    &billing,
                    n_hubs,
                    delay,
                );
                let served: f64 = optimized.clusters.iter().map(|c| c.total_hits).sum();
                let outcome = PathOutcome {
                    path,
                    seed,
                    cost_dollars: optimized.total_cost_dollars,
                    baseline_cost_dollars: base.total_cost_dollars,
                    savings_percent: optimized.savings_percent_vs(&base),
                    unserved_hits: optimized.total_overflow_hits + optimized.total_rejected_hits,
                    served_hits: served - optimized.total_overflow_hits,
                    mean_distance_km: optimized.mean_distance_km,
                    bandwidth_cost_dollars: optimized.total_bandwidth_cost_dollars,
                };
                let cluster_costs = optimized.clusters.iter().map(|c| c.cost_dollars).collect();
                if let Some(start) = path_start {
                    busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                drop(path_span);
                results.push(PathResult { slot, outcome, cluster_costs });
            }
            results
        })
        .into_iter()
        .flatten()
        .collect();
        if let Some(start) = run_start {
            let wall_secs = start.elapsed().as_secs_f64();
            if wall_secs > 0.0 {
                let busy_secs = busy_ns.load(Ordering::Relaxed) as f64 / 1.0e9;
                wattroute_obs::gauge!("montecarlo.worker_utilization")
                    .set(busy_secs / (wall_secs * workers as f64));
            }
        }

        // Each slot was drawn once, so sorting by slot restores path order.
        results.sort_unstable_by_key(|result| result.slot);
        let mut per_path = Vec::with_capacity(n_paths);
        let mut cluster_costs: Vec<Vec<f64>> =
            (0..n_hubs).map(|_| Vec::with_capacity(n_paths)).collect();
        for PathResult { outcome, cluster_costs: costs, .. } in results {
            for (samples, cost) in cluster_costs.iter_mut().zip(costs) {
                samples.push(cost);
            }
            per_path.push(outcome);
        }

        let bills: Vec<f64> = per_path.iter().map(|p| p.cost_dollars).collect();
        let baseline_bills: Vec<f64> = per_path.iter().map(|p| p.baseline_cost_dollars).collect();
        let savings: Vec<f64> = per_path.iter().map(|p| p.savings_percent).collect();
        let clusters = self
            .clusters
            .labels()
            .into_iter()
            .zip(&cluster_costs)
            .map(|(label, samples)| ClusterBand {
                label: label.to_string(),
                cost: BandSummary::from_samples(samples),
            })
            .collect();
        SavingsDistribution {
            master_seed: self.master_seed,
            first_path: self.first_path,
            n_paths,
            cvar_alpha: CVAR_ALPHA,
            policy: policy_name,
            baseline: baseline_name,
            bill: BandSummary::from_samples(&bills),
            baseline_bill: BandSummary::from_samples(&baseline_bills),
            savings_percent: BandSummary::from_samples(&savings),
            bill_cvar_dollars: stats::cvar(&bills, CVAR_ALPHA)
                .expect("non-empty finite bill sample"),
            clusters,
            per_path,
        }
    }
}

/// Replay one generated path through the engine from a pristine snapshot.
///
/// The billing buffer is indexed exactly like the batch path's
/// `PriceTable`: the billing row of hour `h` is row `h − start`, and the
/// delayed (router-visible) row is `max(h − start − delay, 0)` — the same
/// clamp `PriceSeries::delayed_price_at` applies for a series starting at
/// the coverage start. Together with the engine's snapshot/restore being
/// lossless, this makes a replay bit-identical to
/// [`Simulation::execute`](crate::simulation::Simulation) on the same
/// prices.
#[allow(clippy::too_many_arguments)]
fn replay(
    engine: &mut SimulationEngine<'_>,
    pristine: &EngineSnapshot,
    policy: &mut dyn RoutingPolicy,
    trace: &Trace,
    coverage_start: u64,
    billing: &[f64],
    n_hubs: usize,
    delay: usize,
) -> SimulationReport {
    engine.restore(pristine);
    engine.replay_trace(Threads::One, policy, trace, |hour| {
        let h_idx = (hour.0 - coverage_start) as usize;
        let delayed = &billing[h_idx.saturating_sub(delay) * n_hubs..][..n_hubs];
        let bill = &billing[h_idx * n_hubs..][..n_hubs];
        PriceSlice::new(hour, delayed, bill)
    });
    engine.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panics::{panic_message, Boom};
    use crate::scenario::Scenario;
    use wattroute_market::time::{HourRange, SimHour};

    fn small_scenario() -> Scenario {
        let start = SimHour::from_date(2008, 6, 1);
        Scenario::custom_window(42, HourRange::new(start, start.plus_hours(24)))
    }

    fn mc(scenario: &Scenario) -> MonteCarlo<'_> {
        let model = MarketModel::calibrated().restricted_to(&scenario.clusters.hub_ids());
        MonteCarlo::new(&scenario.clusters, &scenario.trace, model, scenario.config.clone(), 2009)
    }

    #[test]
    fn a_path_panic_reaches_the_caller_with_its_own_payload() {
        let scenario = small_scenario();
        let boom: SharedPolicyFactory = Arc::new(|| Box::new(Boom::on_call(20)));
        let run = mc(&scenario).with_paths(4).with_threads(2).with_policy_factory(boom);
        assert_eq!(panic_message(|| drop(run.run())), "boom from the policy");
    }

    #[test]
    fn aggregates_are_internally_consistent() {
        let scenario = small_scenario();
        let dist = mc(&scenario).with_paths(6).with_threads(2).run();
        assert_eq!(dist.n_paths, 6);
        assert_eq!(dist.per_path.len(), 6);
        assert_eq!(dist.clusters.len(), scenario.clusters.len());
        // Paths come back sorted, each with its stream seed.
        for (k, path) in dist.per_path.iter().enumerate() {
            assert_eq!(path.path, k as u64);
            assert_eq!(path.seed, path_seed(2009, k as u64));
            assert!(path.cost_dollars > 0.0);
            assert!(path.baseline_cost_dollars > 0.0);
        }
        // Bands are ordered and CVaR dominates the mean bill.
        assert!(dist.bill.p5 <= dist.bill.p50 && dist.bill.p50 <= dist.bill.p95);
        assert!(dist.bill_cvar_dollars >= dist.bill.mean);
        // The bill band aggregates exactly the per-path bills.
        let bills: Vec<f64> = dist.per_path.iter().map(|p| p.cost_dollars).collect();
        assert_eq!(dist.bill, BandSummary::from_samples(&bills));
        // Per-cluster means sum to the mean total bill.
        let cluster_mean_sum: f64 = dist.clusters.iter().map(|c| c.cost.mean).sum();
        assert!((cluster_mean_sum - dist.bill.mean).abs() < 1e-6 * dist.bill.mean.abs());
    }

    #[test]
    fn json_round_trip_is_parseable_and_stable() {
        let scenario = small_scenario();
        let dist = mc(&scenario).with_paths(3).with_threads(1).run();
        let text = dist.to_json();
        let parsed = JsonValue::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("n_paths").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(parsed.to_string(), text, "encoding is canonical");
    }

    #[test]
    fn first_path_shifts_the_stream() {
        let scenario = small_scenario();
        let full = mc(&scenario).with_paths(4).with_threads(2).run();
        let tail = mc(&scenario).with_paths(2).with_first_path(2).with_threads(2).run();
        assert_eq!(&full.per_path[2..], &tail.per_path[..]);
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn zero_paths_rejected() {
        let scenario = small_scenario();
        let _ = mc(&scenario).with_paths(0);
    }
}
