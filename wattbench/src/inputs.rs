//! Seeded inputs: each workload's set-up. The program receives only what
//! these functions generate from the seed.

use crate::host::Host;
use std::time::Instant;
use wattroute::geo::topology::Topology;
use wattroute::prelude::*;

/// Builds of the inputs before the timed phase.
pub const SETUP_REPS: usize = 5;

/// Share of a run spent rebuilding the inputs between repetitions of the
/// timed phase. `setup_s` is the median of every build, so it samples the
/// whole run, not only its first second.
pub const SETUP_SHARE: f64 = 0.1;

/// One build of a workload's inputs and the time each generator took.
pub struct Built<T> {
    /// The inputs.
    pub value: T,
    /// Deployment or topology construction.
    pub geo_s: f64,
    /// Trace generation.
    pub workload_s: f64,
    /// Price generation.
    pub market_s: f64,
}

/// Set-up times, one entry per build.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Whole set-up.
    pub total_s: Vec<f64>,
    /// The host-speed scale of the group of builds each was timed in
    /// ([`Host::scale`]).
    pub scale: Vec<f64>,
    /// See [`Built::geo_s`].
    pub geo_s: Vec<f64>,
    /// See [`Built::workload_s`].
    pub workload_s: Vec<f64>,
    /// See [`Built::market_s`].
    pub market_s: Vec<f64>,
}

fn timed<T>(generate: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = generate();
    (value, start.elapsed().as_secs_f64())
}

impl SetupTimes {
    /// Seconds all builds so far took together.
    pub fn spent_s(&self) -> f64 {
        self.total_s.iter().sum()
    }
}

/// A workload's inputs: the latest build from the seed, and the time of
/// every build. Every build of one seed is the same, so a rebuild replaces
/// the inputs in place; the old build is dropped before the new one
/// starts, so memory holds one and `peak_rss_mb` counts one.
pub struct Inputs<T, B> {
    build: B,
    value: Option<T>,
    /// One entry per build.
    pub times: SetupTimes,
}

impl<T, B: Fn() -> Built<T>> Inputs<T, B> {
    /// Build the inputs [`SETUP_REPS`] times, as one group.
    pub(crate) fn new(build: B, host: &mut Host) -> Self {
        let mut inputs = Self { build, value: None, times: SetupTimes::default() };
        host.mark();
        for _ in 0..SETUP_REPS {
            inputs.rebuild();
        }
        inputs.scale_group(host);
        inputs
    }

    /// Probe `host` and scale every build since the last group by it.
    pub(crate) fn scale_group(&mut self, host: &mut Host) {
        let scale = host.scale();
        self.times.scale.resize(self.times.total_s.len(), scale);
    }

    /// Drop the inputs and build them again, timing the build. A group of
    /// rebuilds starts after [`Host::mark`] and ends with
    /// [`Inputs::scale_group`].
    pub fn rebuild(&mut self) {
        self.value = None;
        let start = Instant::now();
        let built = (self.build)();
        self.times.total_s.push(start.elapsed().as_secs_f64());
        self.times.geo_s.push(built.geo_s);
        self.times.workload_s.push(built.workload_s);
        self.times.market_s.push(built.market_s);
        self.value = Some(built.value);
    }

    /// The latest build.
    pub fn get(&self) -> &T {
        self.value.as_ref().expect("Inputs::new builds at least once")
    }
}

/// The §6.2 scenario: nine Akamai-like clusters over the 24-day trace,
/// re-routed every step — what [`Scenario::akamai_24_day`] builds, one
/// generator at a time.
pub fn scenario_24_day(seed: u64) -> Built<Scenario> {
    let range = HourRange::akamai_24_days();
    let (clusters, geo_s) = timed(ClusterSet::akamai_like_nine);
    let (trace, workload_s) =
        timed(|| SyntheticWorkloadConfig { seed, ..Default::default() }.generate(range));
    let (prices, market_s) =
        timed(|| PriceGenerator::nine_cluster_default(seed).realtime_hourly(range));
    let config = SimulationConfig::default();
    Built { value: Scenario { clusters, trace, prices, config }, geo_s, workload_s, market_s }
}

/// The §6.3 scenario: the 24-day trace reduced to a weekly profile and
/// replayed over the 39-month price history, re-routed hourly — what
/// [`Scenario::synthetic_39_month`] builds.
pub fn scenario_39_month(seed: u64) -> Built<Scenario> {
    let range = HourRange::paper_39_months();
    let (clusters, geo_s) = timed(ClusterSet::akamai_like_nine);
    let (trace, workload_s) = timed(|| {
        let base = SyntheticWorkloadConfig { seed, ..Default::default() }
            .generate(HourRange::akamai_24_days());
        WeeklyProfile::from_trace(&base)
            .expect("the 24-day trace covers every hour of the week")
            .replay(range)
    });
    let (prices, market_s) =
        timed(|| PriceGenerator::nine_cluster_default(seed).realtime_hourly(range));
    let config = SimulationConfig::default().with_reallocation_interval(12);
    Built { value: Scenario { clusters, trace, prices, config }, geo_s, workload_s, market_s }
}

/// `hierarchy_smoke`'s seeded tree and the trace and prices it replays.
pub struct Tree {
    /// Region → metro → site topology with 10% tier slack.
    pub topology: Topology,
    /// Client demand from 2007-01-01.
    pub trace: Trace,
    /// Prices for every market hub over the trace.
    pub prices: PriceSet,
}

/// `hierarchy_smoke`'s inputs: `sites` synthetic sites under 29 metros and
/// 6 regions, over `days` days from 2007-01-01.
pub fn tree(seed: u64, sites: usize, days: u64) -> Built<Tree> {
    let start = SimHour::from_date(2007, 1, 1);
    let range = HourRange::new(start, start.plus_hours(days * 24));
    let (topology, geo_s) = timed(|| Topology::synthetic(seed, sites).with_tier_slack(1.1));
    let (trace, workload_s) =
        timed(|| SyntheticWorkloadConfig { seed, ..Default::default() }.generate(range));
    let (prices, market_s) =
        timed(|| PriceGenerator::new(MarketModel::calibrated(), seed).realtime_hourly(range));
    Built { value: Tree { topology, trace, prices }, geo_s, workload_s, market_s }
}
