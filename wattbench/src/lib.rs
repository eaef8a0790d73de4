//! `wattbench`: the wattroute benchmark.
//!
//! Four seeded workloads run through the entry points users call — a
//! [`ScenarioSweep`](wattroute::sweep::ScenarioSweep) grid, the §6.3
//! calibrate → constrain → account chain, the `routed` daemon under a load
//! generator, and the sharded region → metro → site replay — and every
//! output is checked. An untraced run prints the end-to-end metrics; a
//! traced run times calls into each layer from this package's own code
//! and prints the per-layer metrics. `README.md` beside this package's
//! manifest explains the workloads, the metrics and how to run them.

pub mod catalogue;
pub mod checks;
pub mod engine_loop;
pub mod host;
pub mod inputs;
pub mod loadgen;
pub mod measure;
pub mod timed;
pub mod workloads;
