//! The four workloads. Each builds its inputs from the seed ([`inputs`]),
//! then repeats its timed phase until the run's seconds are spent, checking
//! every output. A traced run alternates untraced and traced repetitions:
//! the untraced ones time the program as users run it, the traced ones
//! give the per-layer numbers, and the ratio of the two is the tracing
//! overhead. The [`Host`] probe brackets every timed repetition and every
//! group of input builds, and the end-to-end times are scaled by it.

use crate::checks::{self, Outcome, DEFAULT_SEED};
use crate::engine_loop::{self, EngineTimes};
use crate::host::Host;
use crate::inputs::{self, Built, Inputs, SetupTimes, SETUP_SHARE};
use crate::loadgen::{self, Picker};
use crate::measure::{self, median, quantile, secs, Digest, Samples, Stopwatch};
use crate::timed::{self, Recorder, RoutingTrace, TimedPolicy};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wattroute::engine::EngineSnapshot;
use wattroute::json::JsonValue;
use wattroute::market::price_table::BillingMatrix;
use wattroute::prelude::*;
use wattroute::sweep::{CompiledArtifacts, PolicyFactory};

/// Distance threshold of every price-conscious policy here: the paper's
/// 1500 km default (about Boston–Chicago).
const THRESHOLD_KM: f64 = 1500.0;

/// sweep-24d's energy models as (idle fraction, PUE) at 250 W peak: the two
/// ends of Figure 15, fully proportional and Google-like.
const SWEEP_MODELS: [(f64, f64); 2] = [(0.0, 1.1), (0.65, 1.3)];

/// tree-1000's size: `hierarchy_smoke`'s 1000 sites, over 60 days — long
/// enough that the 4096-sample load reservoirs decimate.
const TREE_SITES: usize = 1000;
const TREE_DAYS: u64 = 60;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The fig15–17 grids over the 24-day trace.
    Sweep24d,
    /// The §6.3 calibrate → constrain → account chain over 39 months.
    Replay39m,
    /// `routed` replaying 24 days under mixed read load.
    DaemonMixed,
    /// The seeded 1000-site tree, sharded then sequential.
    Tree1000,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::Sweep24d, Workload::Replay39m, Workload::DaemonMixed, Workload::Tree1000];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep24d => "sweep-24d",
            Workload::Replay39m => "replay-39m",
            Workload::DaemonMixed => "daemon-mixed",
            Workload::Tree1000 => "tree-1000",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads and connections of the load generator.
    pub fn loadgen(self) -> (usize, usize) {
        match self {
            Workload::DaemonMixed => (loadgen::THREADS, loadgen::CONNECTIONS),
            _ => (0, 0),
        }
    }

    /// Set up, measure and check.
    pub fn run(self, run: &Run) -> Measured {
        match self {
            Workload::Sweep24d => sweep_24d(run),
            Workload::Replay39m => replay_39m(run),
            Workload::DaemonMixed => daemon_mixed(run),
            Workload::Tree1000 => tree_1000(run),
        }
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Run {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long to repeat the timed phase.
    pub seconds: u64,
    /// Whether to take the per-layer numbers.
    pub traced: bool,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Measured {
    /// Outputs attempted and failed.
    pub outcome: Outcome,
    /// Samples of every metric.
    pub samples: Samples,
    /// Digest of the outputs every repetition produced.
    pub digest: Option<String>,
    /// Repetitions of the timed phase.
    pub repetitions: usize,
    untraced_walls: Vec<f64>,
    traced_walls: Vec<f64>,
}

impl Measured {
    /// One repetition's raw wall time, and its wall and CPU times as
    /// reported: scaled by the host probe where it tracks them.
    fn timed(&mut self, traced: bool, raw_wall_s: f64, wall_s: f64, cpu_s: f64) {
        let kind = if traced { "traced" } else { "untraced" };
        eprintln!(
            "wattbench: {kind} repetition: {raw_wall_s} s wall; reported {wall_s} s wall, {cpu_s} s cpu"
        );
        if traced {
            self.traced_walls.push(wall_s);
        } else {
            self.untraced_walls.push(wall_s);
            self.samples.push("host.wall_raw_s", raw_wall_s);
            self.samples.push("wall_s", wall_s);
            self.samples.push("cpu_s", cpu_s);
        }
    }

    /// Every repetition, traced or not, must produce the same outputs.
    fn outputs(&mut self, digest: Digest) {
        let hex = digest.hex();
        match &self.digest {
            None => self.digest = Some(hex),
            Some(first) if *first != hex => {
                let error = format!("digest {hex} differs from the first repetition's {first}");
                self.outcome.fail("outputs", &error);
            }
            Some(_) => {}
        }
    }

    fn finish(mut self, run: &Run, repetitions: usize, setup: &SetupTimes, host: &Host) -> Self {
        self.repetitions = repetitions;
        for (&total, &scale) in setup.total_s.iter().zip(&setup.scale) {
            self.samples.push("setup_s", total * scale);
        }
        for &probe in &host.probes_s {
            self.samples.push("host.probe_ms", probe * 1.0e3);
        }
        for (name, times) in [
            ("host.setup_raw_s", &setup.total_s),
            ("geo.topology_s", &setup.geo_s),
            ("workload.trace_s", &setup.workload_s),
            ("market.generate_s", &setup.market_s),
        ] {
            for &t in times {
                self.samples.push(name, t);
            }
        }
        if !self.traced_walls.is_empty() && !self.untraced_walls.is_empty() {
            let ratio = median(&self.traced_walls) / median(&self.untraced_walls);
            self.samples.push("trace.overhead_pct", (ratio - 1.0) * 100.0);
        }
        if run.seed == DEFAULT_SEED {
            let pinned = checks::pinned(run.workload.name());
            if pinned != self.digest.as_deref() {
                let error = format!("outputs digest {:?}, pinned {pinned:?}", self.digest);
                self.outcome.fail("pinned digest", &error);
            }
        }
        if let Some(mb) = measure::peak_rss_mb() {
            self.samples.push("peak_rss_mb", mb);
        }
        self
    }
}

/// Repeat one timed phase until `run.seconds` have passed: untraced in a
/// plain run; untraced and traced in turn, at least one of each, in a
/// traced run. The phase brackets its timed part with [`Host::mark`] and
/// [`Host::scale`]. Between repetitions, rebuild the inputs while this
/// run's builds have taken less than [`SETUP_SHARE`] of it.
fn repeat<T>(
    run: &Run,
    inputs: &mut Inputs<T, impl Fn() -> Built<T>>,
    host: &mut Host,
    mut phase: impl FnMut(bool, &T, &mut Host),
) -> usize {
    let started = Instant::now();
    let deadline = started + Duration::from_secs(run.seconds);
    let spent_before = inputs.times.spent_s();
    let least = if run.traced { 2 } else { 1 };
    let mut done = 0;
    while done < least || Instant::now() < deadline {
        phase(run.traced && done % 2 == 1, inputs.get(), host);
        done += 1;
        let rebuild = |spent_s: f64| {
            Instant::now() < deadline
                && spent_s - spent_before < SETUP_SHARE * secs(started.elapsed())
        };
        if rebuild(inputs.times.spent_s()) {
            host.mark();
            while rebuild(inputs.times.spent_s()) {
                inputs.rebuild();
            }
            inputs.scale_group(host);
        }
    }
    done
}

/// The policy an entry point routes with, timed when the repetition is traced.
fn policy<P: RoutingPolicy + 'static>(
    inner: P,
    routing: &Option<Recorder>,
) -> Box<dyn RoutingPolicy> {
    match routing {
        Some(sink) => Box::new(TimedPolicy::new(inner, sink)),
        None => Box::new(inner),
    }
}

fn factory<P: RoutingPolicy + 'static>(
    make: impl Fn() -> P + Send + Sync + 'static,
    routing: &Option<Recorder>,
) -> PolicyFactory {
    let routing = routing.clone();
    Box::new(move || policy(make(), &routing))
}

fn price_conscious() -> PriceConsciousPolicy {
    PriceConsciousPolicy::with_distance_threshold(THRESHOLD_KM)
}

/// The process-wide compile counters before a phase.
struct Compiles {
    billing: usize,
    prefs: usize,
}

impl Compiles {
    fn start() -> Self {
        Self { billing: BillingMatrix::build_count(), prefs: CompiledPreferences::build_count() }
    }

    fn record(&self, samples: &mut Samples) {
        let billing = BillingMatrix::build_count() - self.billing;
        let prefs = CompiledPreferences::build_count() - self.prefs;
        samples.push("market.table_builds", billing as f64);
        samples.push("routing.prefs_builds", prefs as f64);
    }
}

fn routing_samples(samples: &mut Samples, trace: &RoutingTrace) {
    let call_us: Vec<f64> = trace.call_ns.iter().map(|&ns| ns as f64 / 1.0e3).collect();
    samples.push("routing.allocate_calls", trace.call_ns.len() as f64);
    samples.push("routing.allocate_s", secs(trace.busy));
    samples.push("routing.allocate_p50_us", quantile(&call_us, 0.5));
    samples.push("routing.allocate_p99_us", quantile(&call_us, 0.99));
}

fn engine_samples(samples: &mut Samples, times: &EngineTimes) {
    samples.push("engine.ticks", times.ticks as f64);
    samples.push("engine.realloc_ticks", times.realloc_ticks as f64);
    samples.push("engine.realloc_self_s", secs(times.realloc_self));
    samples.push("engine.steady_tick_s", secs(times.steady));
    samples.push("engine.report_s", secs(times.report));
    samples.push("market.table_build_s", secs(times.table_build));
}

fn report_samples(samples: &mut Samples, json: &[String], json_s: f64) {
    samples.push("report.json_s", json_s);
    samples.push("report.json_bytes", json.iter().map(String::len).sum::<usize>() as f64);
}

/// How long each policy instance lived, in seconds.
fn lives_s(trace: &RoutingTrace) -> Vec<f64> {
    trace.lives.iter().map(|&(built, dropped)| secs(dropped - built)).collect()
}

fn energy_model(idle: f64, pue: f64) -> EnergyModelParams {
    EnergyModelParams::new(250.0, idle, pue)
}

/// sweep-24d: per energy model an Akamai-like baseline, then relaxed and
/// follow-95/5 price-conscious cells at the ten standard thresholds, on
/// the sweep's default worker pool with one shared artifact cache.
fn sweep_24d(run: &Run) -> Measured {
    let seed = run.seed;
    let mut host = Host::new();
    let mut setup = Inputs::new(move || inputs::scenario_24_day(seed), &mut host);
    let scenario = setup.get();
    let steps = scenario.trace.num_steps();
    let offered = checks::offered_hits(&scenario.trace, scenario.config.reallocate_every_steps);
    let thresholds = wattroute_bench::standard_thresholds();
    let mut measured = Measured::default();
    let repetitions = repeat(run, &mut setup, &mut host, |traced, scenario, host| {
        let routing = traced.then(timed::recorder);
        let compiles = Compiles::start();
        host.mark();
        let clock = Stopwatch::start();
        let mut artifacts = CompiledArtifacts::new();
        let mut baselines =
            ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices);
        for (i, &(idle, pue)) in SWEEP_MODELS.iter().enumerate() {
            let config = scenario.config.clone().with_energy(energy_model(idle, pue));
            baselines.add_boxed_point(
                format!("base:{i}"),
                config,
                factory(AkamaiLikePolicy::default, &routing),
            );
        }
        let baselines = baselines.execute(RunOptions::new().reuse_artifacts(&mut artifacts));
        let mut grid = ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices);
        for (i, &(idle, pue)) in SWEEP_MODELS.iter().enumerate() {
            let config = scenario.config.clone().with_energy(energy_model(idle, pue));
            let caps: Vec<f64> =
                baselines.runs[i].report.clusters.iter().map(|c| c.p95_hits_per_sec).collect();
            for &km in &thresholds {
                let make = move || PriceConsciousPolicy::with_distance_threshold(km);
                grid.add_boxed_point(
                    format!("relaxed:{i}:{km}"),
                    config.clone(),
                    factory(make, &routing),
                );
                let follow = config.clone().with_bandwidth_caps(caps.clone());
                grid.add_boxed_point(format!("follow:{i}:{km}"), follow, factory(make, &routing));
            }
        }
        let cells = baselines.runs.len() + grid.len();
        let grid = grid.execute(RunOptions::new().reuse_artifacts(&mut artifacts));
        let encoding = Instant::now();
        let json = [baselines.to_json(), grid.to_json()];
        let json_s = secs(encoding.elapsed());
        let (wall_s, cpu_s) = (secs(clock.wall()), secs(clock.cpu()));
        let scale = host.scale();

        let mut digest = Digest::default();
        for text in &json {
            digest.update(text.as_bytes());
        }
        for cell in baselines.runs.iter().chain(&grid.runs) {
            let check = checks::replayed(&cell.report, steps, offered)
                .and_then(|()| checks::capped(&cell.report, cell.label.starts_with("follow")));
            measured.outcome.record(&cell.label, check);
        }
        measured.outputs(digest);
        measured.timed(traced, wall_s, wall_s * scale, cpu_s * scale);

        let Some(routing) = routing else { return };
        let samples = &mut measured.samples;
        compiles.record(samples);
        let trace = timed::take(&routing);
        routing_samples(samples, &trace);
        let lives = lives_s(&trace);
        let workers = std::thread::available_parallelism().map_or(1, usize::from).min(cells);
        samples.push("sweep.cells", lives.len() as f64);
        samples.push("sweep.cell_p50_s", median(&lives));
        samples.push("sweep.cell_max_s", lives.iter().copied().fold(0.0, f64::max));
        samples.push("sweep.worker_busy", lives.iter().sum::<f64>() / (workers as f64 * wall_s));
        samples.push("sweep.artifact_hit_rate", artifacts.hit_rate().unwrap_or(0.0));
        report_samples(samples, &json, json_s);
        let mut times = EngineTimes::default();
        let check = cell_by_hand(scenario, &artifacts, &grid, &mut times);
        measured.outcome.record("a sweep cell through the benchmark's tick loop", check);
        engine_samples(&mut measured.samples, &times);
    });
    measured.finish(run, repetitions, &setup.times, &host)
}

/// Replay the relaxed 1500 km cell of the first energy model through the
/// benchmark's tick loop, over the sweep's own table and geometry.
fn cell_by_hand(
    scenario: &Scenario,
    artifacts: &CompiledArtifacts,
    grid: &SweepReport,
    times: &mut EngineTimes,
) -> Result<(), String> {
    let (idle, pue) = SWEEP_MODELS[0];
    let config = scenario.config.clone().with_energy(energy_model(idle, pue));
    let table = artifacts.table(0, config.reaction_delay_hours);
    let mut policy = TimedPolicy::new(price_conscious(), &timed::recorder());
    policy.attach_preferences(artifacts.preferences(0));
    let engine = engine_loop::replay(
        &scenario.clusters,
        &scenario.trace,
        table,
        config,
        &mut policy,
        times,
    )?;
    let report = engine_loop::report(&engine, times);
    let label = format!("relaxed:0:{THRESHOLD_KM}");
    let swept = grid.get(&label).ok_or(format!("the sweep has no cell {label}"))?;
    checks::same(&report, swept)
}

/// The §6.3 chain's three reports.
struct Chain {
    calibrated: CalibratedScenario,
    relaxed: SimulationReport,
    follow: SimulationReport,
}

impl Chain {
    fn reports(&self) -> [&SimulationReport; 3] {
        [self.calibrated.baseline(), &self.relaxed, &self.follow]
    }
}

/// The follow-95/5 run's configuration: the calibrated caps, billed under
/// the default CDN tariff.
fn follow_config(scenario: &Scenario, caps: &[f64]) -> SimulationConfig {
    scenario
        .config
        .clone()
        .with_bandwidth_caps(caps.to_vec())
        .with_bandwidth_tariff(BandwidthTariff::default_cdn())
}

fn chain(scenario: &Scenario, routing: &Option<Recorder>) -> Chain {
    let calibrated = CalibratedScenario::calibrate_with(
        scenario,
        policy(AkamaiLikePolicy::default(), routing).as_mut(),
    );
    let relaxed = scenario.execute(policy(price_conscious(), routing).as_mut(), RunOptions::new());
    let config = follow_config(scenario, calibrated.p95_caps());
    let follow = scenario.execute(
        policy(price_conscious(), routing).as_mut(),
        RunOptions::new().with_config(config),
    );
    Chain { calibrated, relaxed, follow }
}

/// replay-39m: calibrate, then relaxed and follow-95/5 price-conscious
/// runs, on one thread over the 39-month weekly-profile trace.
fn replay_39m(run: &Run) -> Measured {
    let seed = run.seed;
    let mut host = Host::new();
    let mut setup = Inputs::new(move || inputs::scenario_39_month(seed), &mut host);
    let scenario = setup.get();
    let steps = scenario.trace.num_steps();
    let offered = checks::offered_hits(&scenario.trace, scenario.config.reallocate_every_steps);
    let mut measured = Measured::default();
    let repetitions = repeat(run, &mut setup, &mut host, |traced, scenario, host| {
        let routing = traced.then(timed::recorder);
        let compiles = Compiles::start();
        host.mark();
        let clock = Stopwatch::start();
        let chain = chain(scenario, &routing);
        let encoding = Instant::now();
        let json = chain.reports().map(SimulationReport::to_json);
        let json_s = secs(encoding.elapsed());
        let (wall_s, cpu_s) = (secs(clock.wall()), secs(clock.cpu()));
        let scale = host.scale();

        let mut digest = Digest::default();
        for text in &json {
            digest.update(text.as_bytes());
        }
        for (label, report) in ["calibrate", "relaxed", "follow"].into_iter().zip(chain.reports()) {
            let follow = label == "follow";
            let check = checks::replayed(report, steps, offered)
                .and_then(|()| checks::capped(report, follow))
                .and_then(|()| match follow && report.total_bandwidth_cost_dollars <= 0.0 {
                    true => Err("the tariff billed no bandwidth".to_string()),
                    false => Ok(()),
                });
            measured.outcome.record(label, check);
        }
        measured.outputs(digest);
        measured.timed(traced, wall_s, wall_s * scale, cpu_s * scale);

        let Some(routing) = routing else { return };
        let samples = &mut measured.samples;
        compiles.record(samples);
        routing_samples(samples, &timed::take(&routing));
        report_samples(samples, &json, json_s);
        let mut times = EngineTimes::default();
        let check = chain_by_hand(scenario, &chain, &mut times);
        measured.outcome.record("the chain through the benchmark's tick loop", check);
        engine_samples(&mut measured.samples, &times);
    });
    measured.finish(run, repetitions, &setup.times, &host)
}

/// One run of the chain through the benchmark's tick loop: compile its
/// table, replay, report.
fn by_hand<'a>(
    scenario: &'a Scenario,
    config: SimulationConfig,
    inner: impl RoutingPolicy + 'static,
    times: &mut EngineTimes,
) -> Result<(SimulationReport, SimulationEngine<'a>), String> {
    let (clusters, trace) = (&scenario.clusters, &scenario.trace);
    let table = engine_loop::compile_table(
        clusters,
        trace,
        &scenario.prices,
        config.reaction_delay_hours,
        times,
    );
    let mut policy = TimedPolicy::new(inner, &timed::recorder());
    let engine = engine_loop::replay(clusters, trace, &table, config, &mut policy, times)?;
    Ok((engine_loop::report(&engine, times), engine))
}

fn chain_by_hand(
    scenario: &Scenario,
    chain: &Chain,
    times: &mut EngineTimes,
) -> Result<(), String> {
    let (baseline, engine) =
        by_hand(scenario, scenario.config.clone(), AkamaiLikePolicy::default(), times)?;
    checks::same(&baseline, chain.calibrated.baseline())?;
    let profile = BandwidthProfile::from_cluster_loads(&engine.into_load_series())
        .ok_or("the calibration run recorded no loads")?;
    if profile.p95_hits_per_sec != chain.calibrated.p95_caps() {
        return Err("calibrated caps differ from the calibration run's".to_string());
    }
    let (relaxed, _) = by_hand(scenario, scenario.config.clone(), price_conscious(), times)?;
    checks::same(&relaxed, &chain.relaxed)?;
    let config = follow_config(scenario, &profile.p95_hits_per_sec);
    let (follow, _) = by_hand(scenario, config, price_conscious(), times)?;
    checks::same(&follow, &chain.follow)
}

/// tree-1000: `run_sharded`, then `run` on the same inputs. An untraced
/// run replays `run` once, for the check that it equals `run_sharded`, so
/// its time goes to sharded repetitions; a traced run times `run` in every
/// repetition.
fn tree_1000(run: &Run) -> Measured {
    let seed = run.seed;
    let mut host = Host::new();
    let mut setup = Inputs::new(move || inputs::tree(seed, TREE_SITES, TREE_DAYS), &mut host);
    let tree = setup.get();
    let steps = tree.trace.num_steps();
    let config = SimulationConfig::default().with_reallocation_interval(12);
    let offered = checks::offered_hits(&tree.trace, config.reallocate_every_steps);
    let mut measured = Measured::default();
    let mut serial_walls = Vec::new();
    let mut checked = false;
    let repetitions = repeat(run, &mut setup, &mut host, |traced, tree, host| {
        let config = config.clone();
        let replay = HierarchicalReplay::new(&tree.topology, &tree.trace, &tree.prices, config);
        let shard_sink = traced.then(timed::recorder);
        let serial_sink = traced.then(timed::recorder);
        let compiles = Compiles::start();
        host.mark();
        let clock = Stopwatch::start();
        let sharded = replay.run_sharded(&|| policy(price_conscious(), &shard_sink));
        let merged = Instant::now();
        let json = [sharded.to_json()];
        let json_s = secs(merged.elapsed());
        let (wall_s, cpu_s) = (secs(clock.wall()), secs(clock.cpu()));
        let scale = host.scale();

        let mut digest = Digest::default();
        digest.update(json[0].as_bytes());
        measured.outcome.record("sharded", checks::replayed(&sharded, steps, offered));
        if run.traced || !checked {
            checked = true;
            host.mark();
            let start = Instant::now();
            let serial = replay.run(&|| policy(price_conscious(), &serial_sink));
            std::hint::black_box(serial.to_json());
            let serial_s = secs(start.elapsed()) * host.scale();
            if !traced {
                serial_walls.push(serial_s);
            }
            measured.outcome.record("sequential ≡ sharded", checks::same(&serial, &sharded));
        }
        measured.outputs(digest);
        measured.timed(traced, wall_s, wall_s * scale, cpu_s * scale);

        let (Some(shard_sink), Some(serial_sink)) = (shard_sink, serial_sink) else { return };
        let samples = &mut measured.samples;
        compiles.record(samples);
        let shards = timed::take(&shard_sink);
        let mut routing = timed::take(&serial_sink);
        let lives = lives_s(&shards);
        let last_shard = shards.lives.iter().map(|&(_, dropped)| dropped).max();
        samples.push("hierarchy.shards", lives.len() as f64);
        samples.push("hierarchy.shard_max_s", lives.iter().copied().fold(0.0, f64::max));
        samples.push("hierarchy.shard_sum_s", lives.iter().sum());
        let merge = last_shard.map_or(Duration::ZERO, |end| merged.saturating_duration_since(end));
        samples.push("hierarchy.merge_s", secs(merge));
        routing.busy += shards.busy;
        routing.call_ns.extend(&shards.call_ns);
        routing_samples(samples, &routing);
        report_samples(samples, &json, json_s);
    });
    for &wall in &serial_walls {
        measured.samples.push("hierarchy.serial_wall_s", wall);
    }
    if !serial_walls.is_empty() {
        let speedup = median(&serial_walls) / median(&measured.untraced_walls);
        measured.samples.push("hierarchy.speedup", speedup);
    }
    measured.finish(run, repetitions, &setup.times, &host)
}

/// Every untraced daemon session's load numbers, pooled.
#[derive(Default)]
struct DaemonLoad {
    loaded_us: Vec<f64>,
    idle_us: Vec<f64>,
    lag_us: Vec<f64>,
    stats_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    steps_per_s: Vec<f64>,
    answered: u64,
    span_s: f64,
    errors: usize,
}

impl DaemonLoad {
    fn add(&mut self, session: &loadgen::Session) {
        let (route, poll) = (&session.route, &session.poll);
        self.loaded_us.extend(&route.loaded_us);
        self.idle_us.extend(&route.idle_us);
        self.lag_us.extend(&route.lag_us);
        self.stats_ms.extend(&poll.stats_ms);
        self.snapshot_ms.extend(&poll.snapshot_ms);
        self.snapshot_bytes.extend(poll.final_snapshot.as_ref().map(|line| line.len() as f64));
        self.steps_per_s.extend(poll.steps_per_s);
        self.answered += route.answered;
        self.span_s += secs(route.span);
        self.errors += session.errors().count();
    }

    fn record(&self, samples: &mut Samples) {
        samples.push("daemon.route_p50_us", quantile(&self.loaded_us, 0.5));
        samples.push("daemon.route_p99_us", quantile(&self.loaded_us, 0.99));
        samples.push("daemon.route_samples", self.loaded_us.len() as f64);
        samples.push("daemon.route_idle_p50_us", quantile(&self.idle_us, 0.5));
        samples.push("daemon.stats_p50_ms", quantile(&self.stats_ms, 0.5));
        samples.push("daemon.snapshot_p50_ms", quantile(&self.snapshot_ms, 0.5));
        samples.push("daemon.snapshot_p99_ms", quantile(&self.snapshot_ms, 0.99));
        samples.push("daemon.snapshot_bytes", median(&self.snapshot_bytes));
        samples.push("daemon.steps_per_s", median(&self.steps_per_s));
        samples.push("daemon.errors", self.errors as f64);
        samples.push("loadgen.offered_rps", loadgen::ROUTE_RPS);
        let achieved = if self.span_s > 0.0 { self.answered as f64 / self.span_s } else { 0.0 };
        samples.push("loadgen.achieved_rps", achieved);
        samples.push("loadgen.lag_p99_us", quantile(&self.lag_us, 0.99));
    }
}

/// daemon-mixed: `serve` replays the 24-day trace with price-conscious
/// routing under the [`loadgen`] load, then lingers until shut down.
fn daemon_mixed(run: &Run) -> Measured {
    let seed = run.seed;
    let mut host = Host::new();
    let mut setup = Inputs::new(move || inputs::scenario_24_day(seed), &mut host);
    let scenario = setup.get();
    let steps = scenario.trace.num_steps();
    let offered = checks::offered_hits(&scenario.trace, scenario.config.reallocate_every_steps);
    // The flushed report must equal the batch run of the same scenario and
    // policy.
    let reference = scenario.execute(&mut price_conscious(), RunOptions::new());
    let mut picker = Picker::new(run.seed);
    let mut measured = Measured::default();
    let mut load = DaemonLoad::default();
    let mut sessions = 0;
    let repetitions = repeat(run, &mut setup, &mut host, |traced, scenario, host| {
        sessions += 1;
        let socket = PathBuf::from(format!(".wattbench-{}-{sessions}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let routing = traced.then(timed::recorder);
        let compiles = Compiles::start();
        host.mark();
        let session = loadgen::session(
            scenario,
            policy(price_conscious(), &routing).as_mut(),
            &socket,
            &mut picker,
        );
        let scale = host.scale();
        measured.outcome.attempted += session.requests();
        for error in session.errors() {
            measured.outcome.fail("daemon", error);
        }
        if session.route.loaded_us.len() < 1000 {
            let error = format!(
                "{} route? samples under load, fewer than 1000",
                session.route.loaded_us.len()
            );
            measured.outcome.fail("route? samples", &error);
        }
        let mut digest = Digest::default();
        let check = match (&session.report, &session.poll.final_snapshot) {
            (Some(report), Some(snapshot)) => {
                digest.update(report.to_json().as_bytes());
                digest.update(snapshot.as_bytes());
                checks::same(report, &reference)
                    .and_then(|()| checks::replayed(report, steps, offered))
                    .and_then(|()| restores(scenario, snapshot, report, steps))
            }
            (None, _) => Err("the daemon flushed no report".to_string()),
            (_, None) => Err("no final snapshot".to_string()),
        };
        measured.outcome.record("flushed report", check);
        measured.outputs(digest);
        // The replay's pauses and the idle phase's schedule set the wall
        // time: it is not scaled. The daemon's CPU time is part work that
        // slows with the host as the probe does and part socket calls and
        // wake-ups that slow less; over 28 runs it followed the probe with
        // an exponent of 0.68, and the square root of the scale left the
        // smallest spread.
        let wall_s = secs(session.wall);
        measured.timed(traced, wall_s, wall_s, secs(session.cpu) * scale.sqrt());
        match routing {
            Some(routing) => {
                compiles.record(&mut measured.samples);
                routing_samples(&mut measured.samples, &timed::take(&routing));
            }
            None => load.add(&session),
        }
    });
    load.record(&mut measured.samples);
    measured.finish(run, repetitions, &setup.times, &host)
}

/// The final snapshot restores into a fresh engine that reports exactly
/// what the daemon flushed.
fn restores(
    scenario: &Scenario,
    line: &str,
    flushed: &SimulationReport,
    steps: usize,
) -> Result<(), String> {
    let reply = JsonValue::parse(line).map_err(|e| format!("final snapshot is not JSON: {e}"))?;
    let encoded = reply.get("snapshot").ok_or("the final snapshot reply has no snapshot")?;
    let snapshot = EngineSnapshot::from_json_value(encoded)
        .map_err(|e| format!("the final snapshot does not decode: {e}"))?;
    if snapshot.steps() != steps {
        return Err(format!("the final snapshot covers {} of {steps} steps", snapshot.steps()));
    }
    let mut engine =
        SimulationEngine::new(&scenario.clusters, &scenario.trace.states, scenario.config.clone());
    engine.restore(&snapshot);
    checks::same(&engine.report(), flushed)
}
