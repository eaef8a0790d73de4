//! The traced run's own tick loop, for entry points that hide theirs.
//!
//! [`replay`] drives [`SimulationEngine::tick`] over a compiled
//! [`PriceTable`] exactly as `Simulation::execute` does. It times each
//! re-routing tick on its own, and each run of consecutive steady ticks as
//! one span: a timer around every sub-µs steady tick would cost more than
//! the tick.

use crate::timed::TimedPolicy;
use std::time::{Duration, Instant};
use wattroute::prelude::*;
use wattroute::workload::trace::STEPS_PER_HOUR;

/// What the loop measured, summed over every replay it ran.
#[derive(Debug, Default)]
pub struct EngineTimes {
    /// Ticks driven.
    pub ticks: u64,
    /// Ticks that re-routed.
    pub realloc_ticks: u64,
    /// Re-routing ticks minus the `allocate_into` inside them: the epoch
    /// refresh plus one accumulate.
    pub realloc_self: Duration,
    /// Ticks that reused the cached allocation.
    pub steady: Duration,
    /// [`SimulationEngine::report`] calls.
    pub report: Duration,
    /// [`PriceTable::build`] calls made through [`compile_table`].
    pub table_build: Duration,
}

/// Compile the price table `Simulation::new` compiles: every hour a step
/// of the trace falls in.
pub fn compile_table(
    clusters: &ClusterSet,
    trace: &Trace,
    prices: &PriceSet,
    delay_hours: u64,
    times: &mut EngineTimes,
) -> PriceTable {
    let hours = trace.num_steps().div_ceil(STEPS_PER_HOUR) as u64;
    let range = HourRange::new(trace.start, trace.start.plus_hours(hours));
    let start = Instant::now();
    let table = PriceTable::build(prices, &clusters.hub_ids(), range, delay_hours);
    times.table_build += start.elapsed();
    table
}

/// Whether the engine re-routes at step `i`: on the interval, and whenever
/// the hour changes, so an allocation never straddles hours.
pub fn reroutes(trace: &Trace, interval: usize, i: usize) -> bool {
    i == 0 || i.is_multiple_of(interval) || trace.step_hour(i) != trace.step_hour(i - 1)
}

/// Replay the whole trace through a fresh engine, returning it for
/// [`report`] (or its load series).
///
/// # Errors
/// Fails if the engine re-routed where the loop expected a steady tick, or
/// the reverse: the timings would then be filed under the wrong phase.
pub fn replay<'a>(
    clusters: &'a ClusterSet,
    trace: &'a Trace,
    table: &PriceTable,
    config: SimulationConfig,
    policy: &mut TimedPolicy,
    times: &mut EngineTimes,
) -> Result<SimulationEngine<'a>, String> {
    let interval = config.reallocate_every_steps;
    let mut engine = SimulationEngine::new(clusters, &trace.states, config)
        .with_clamped_lead_hours(table.clamped_lead_hours());
    let prices = |i: usize| {
        let hour = trace.step_hour(i);
        PriceSlice::new(
            hour,
            table.delayed_at(hour).expect("the table covers the trace"),
            table.billing_at(hour).expect("the table covers the trace"),
        )
    };
    let steps = trace.steps();
    let mut i = 0;
    while i < steps.len() {
        let calls = policy.calls();
        let start = Instant::now();
        engine.tick(policy, prices(i), DemandSlice::new(&steps[i].us_demand));
        let tick = start.elapsed();
        if policy.calls() != calls + 1 {
            return Err(format!("step {i} was expected to re-route"));
        }
        times.realloc_self += tick.saturating_sub(policy.last_call());
        times.realloc_ticks += 1;
        i += 1;
        let end = (i..steps.len()).find(|&j| reroutes(trace, interval, j)).unwrap_or(steps.len());
        if end > i {
            let start = Instant::now();
            for (j, step) in steps.iter().enumerate().take(end).skip(i) {
                engine.tick(policy, prices(j), DemandSlice::new(&step.us_demand));
            }
            times.steady += start.elapsed();
            if policy.calls() != calls + 1 {
                return Err(format!("steps {i}..{end} were expected to reuse the allocation"));
            }
            i = end;
        }
    }
    times.ticks += steps.len() as u64;
    Ok(engine)
}

/// Time [`SimulationEngine::report`].
pub fn report(engine: &SimulationEngine<'_>, times: &mut EngineTimes) -> SimulationReport {
    let start = Instant::now();
    let report = engine.report();
    times.report += start.elapsed();
    report
}
