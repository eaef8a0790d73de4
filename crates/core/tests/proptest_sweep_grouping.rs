//! Property-based bit-identity for grouped sweep replays.
//!
//! A scenario sweep replays the cells whose routing inputs agree bit for
//! bit, and whose policies share a routing key, as one group: one policy
//! instance and one engine, with one accounting lane per energy model.
//! Whatever the grid, every cell's report must equal the report of that
//! cell run alone through `Simulation::execute`, struct-equal and
//! byte-equal through the JSON encoding. The random grids draw each cell's
//! routing inputs from a per-grid palette of three entries that differ in
//! one or two inputs, so groups form often and cells one input apart meet
//! often, and mix energy models, distance thresholds, delays, intervals,
//! caps (including `0.0` against `-0.0`), tariffs, overflow modes,
//! deployments and a keyless policy that never groups.

use proptest::prelude::*;
use std::sync::OnceLock;
use wattroute::constraints::BandwidthTariff;
use wattroute::prelude::*;
use wattroute_market::time::{HourRange, SimHour};
use wattroute_routing::allocation::Allocation;
use wattroute_routing::constraints::OverflowMode;
use wattroute_routing::policy::{RoutingContext, RoutingPolicy};

/// Price-conscious routing behind a wrapper that keeps the default
/// (absent) routing key.
struct Keyless(PriceConsciousPolicy);

impl RoutingPolicy for Keyless {
    fn name(&self) -> &str {
        "keyless"
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        self.0.allocate_into(out, ctx);
    }
}

fn policy(kind: usize) -> Box<dyn RoutingPolicy> {
    match kind {
        0 => Box::new(PriceConsciousPolicy::with_distance_threshold(1500.0)),
        1 => Box::new(PriceConsciousPolicy::with_distance_threshold(800.0)),
        2 => Box::new(AkamaiLikePolicy::default()),
        _ => Box::new(Keyless(PriceConsciousPolicy::with_distance_threshold(1500.0))),
    }
}

fn energy(kind: usize) -> EnergyModelParams {
    match kind {
        0 => EnergyModelParams::optimistic_future(),
        1 => EnergyModelParams::no_power_management(),
        _ => EnergyModelParams::new(250.0, 0.33, 1.7),
    }
}

/// A half-day scenario and a second, under-provisioned deployment over
/// the same hubs, so `Reject` turns demand away there.
struct Inputs {
    scenario: Scenario,
    small: ClusterSet,
    caps: Vec<f64>,
}

fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let start = SimHour::from_date(2008, 12, 19);
        let scenario = Scenario::custom_window(31, HourRange::new(start, start.plus_hours(12)));
        let small = scenario.clusters.scaled(0.05);
        let caps = scenario.bandwidth_caps_from_baseline();
        Inputs { scenario, small, caps }
    })
}

/// The routing inputs a grid varies, one digit each: delay, interval,
/// caps, tariff, overflow mode and deployment, with their radices.
const RADICES: [usize; 6] = [2, 3, 4, 2, 2, 2];

/// Decode routing-input digits into (deployment, configuration): a delay,
/// an interval, caps (none, calibrated, or calibrated with one cap at
/// `0.0` or `-0.0`), a tariff, an overflow mode and a deployment.
fn routing(digits: [usize; 6]) -> (usize, SimulationConfig) {
    let [delay, interval, caps_kind, tariff, overflow, deployment] = digits;
    let inputs = inputs();
    let mut config = inputs
        .scenario
        .config
        .clone()
        .with_reaction_delay(delay as u64)
        .with_reallocation_interval([1, 12, 5][interval]);
    if caps_kind > 0 {
        let mut caps = inputs.caps.clone();
        if caps_kind > 1 {
            caps[2] = if caps_kind == 2 { 0.0 } else { -0.0 };
        }
        config = config.with_bandwidth_caps(caps);
    }
    if tariff == 1 {
        config = config.with_bandwidth_tariff(BandwidthTariff::default_cdn());
    }
    if overflow == 1 {
        config = config.with_overflow(OverflowMode::Reject);
    }
    (deployment, config)
}

/// A grid's palette of routing inputs: `base`, and `base` with each of
/// `flips`' digits stepped to its next value, so the palette's entries
/// differ from one another in exactly one or two inputs.
fn palette(base: [usize; 6], flips: (usize, usize)) -> [[usize; 6]; 3] {
    let step = |digit: usize| {
        let mut digits = base;
        digits[digit] = (digits[digit] + 1) % RADICES[digit];
        digits
    };
    [base, step(flips.0), step(flips.1)]
}

proptest! {
    #[test]
    fn a_grouped_sweep_equals_each_cell_run_alone(
        base in (
            (0usize..2, 0usize..3),
            (0usize..4, 0usize..2),
            (0usize..2, 0usize..2),
        ),
        flips in (0usize..6, 0usize..6),
        // (palette entry, energy model, policy) per cell.
        cells in prop::collection::vec((0usize..3, 0usize..3, 0usize..4), 2..9),
    ) {
        let ((delay, interval), (caps, tariff), (overflow, deployment)) = base;
        let palette = palette([delay, interval, caps, tariff, overflow, deployment], flips);
        let inputs = inputs();
        let s = &inputs.scenario;
        let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices).with_threads(2);
        let small = sweep.add_deployment("small", &inputs.small);
        let mut alone = Vec::new();
        for (i, &(pick, energy_kind, policy_kind)) in cells.iter().enumerate() {
            let (deployment, config) = routing(palette[pick]);
            let config = config.with_energy(energy(energy_kind));
            let clusters = if deployment == 1 { &inputs.small } else { &s.clusters };
            let sim = Simulation::new(clusters, &s.trace, &s.prices, config.clone());
            alone.push(sim.execute(policy(policy_kind).as_mut()));
            let on = if deployment == 1 { small } else { 0 };
            sweep.add_boxed_point_on(on, format!("cell{i}"), config, Box::new(move || {
                policy(policy_kind)
            }));
        }
        let report = sweep.execute(RunOptions::new());
        prop_assert_eq!(report.runs.len(), alone.len());
        for (run, alone) in report.runs.iter().zip(&alone) {
            prop_assert_eq!(&run.report, alone, "{} != the cell run alone", run.label);
            prop_assert_eq!(
                run.report.to_json_value().to_string(),
                alone.to_json_value().to_string(),
                "{}: JSON encodings differ",
                run.label
            );
        }
    }
}
