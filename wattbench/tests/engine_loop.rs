//! The benchmark's own tick loop reproduces `Scenario::execute` bit for bit,
//! and re-routes exactly where the engine does, at intervals that divide
//! the hour and one that does not.

use wattbench::engine_loop::{self, EngineTimes};
use wattbench::timed::{recorder, TimedPolicy};
use wattroute::prelude::*;

#[test]
fn tick_loop_matches_the_batch_run() {
    let start = SimHour::from_date(2008, 12, 19);
    let scenario = Scenario::custom_window(5, HourRange::new(start, start.plus_hours(30)));
    for interval in [1, 5, 12] {
        let config = scenario.config.clone().with_reallocation_interval(interval);
        let mut batch_policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        let batch =
            scenario.execute(&mut batch_policy, RunOptions::new().with_config(config.clone()));

        let mut times = EngineTimes::default();
        let table = engine_loop::compile_table(
            &scenario.clusters,
            &scenario.trace,
            &scenario.prices,
            config.reaction_delay_hours,
            &mut times,
        );
        let mut policy =
            TimedPolicy::new(PriceConsciousPolicy::with_distance_threshold(1500.0), &recorder());
        let engine = engine_loop::replay(
            &scenario.clusters,
            &scenario.trace,
            &table,
            config,
            &mut policy,
            &mut times,
        )
        .expect("the loop predicts every re-route");
        assert_eq!(engine_loop::report(&engine, &mut times), batch, "interval {interval}");
        assert_eq!(times.ticks as usize, scenario.trace.num_steps());
        assert_eq!(times.realloc_ticks, policy.calls());
    }
}
