//! The unified run surface.
//!
//! Historically every layer grew its own entry points — `Simulation::run` /
//! `run_with`, `Scenario::run` / `run_with_config`, `ScenarioSweep::run` /
//! `run_streaming` / `run_streaming_with` — each threading one more
//! optional argument through. [`RunOptions`] collapses the optional
//! arguments into a single builder that the scenario and sweep `execute`
//! methods accept:
//!
//! ```
//! use wattroute::prelude::*;
//!
//! let scenario = Scenario::akamai_24_day(7);
//! let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
//! let report = scenario.execute(&mut policy, RunOptions::new());
//!
//! // The same surface carries the configuration override:
//! let report = scenario.execute(
//!     &mut policy,
//!     RunOptions::new().with_config(SimulationConfig::default().with_reaction_delay(3)),
//! );
//! assert_eq!(report.reaction_delay_hours, 3);
//! ```
//!
//! Each option applies at the one layer that owns the concept: a
//! configuration override at the scenario layer (a bare
//! [`Simulation`](crate::simulation::Simulation) is already bound to its
//! configuration and takes no options), a caller-owned
//! [`CompiledArtifacts`] cache at the sweep layer. Passing an option to
//! the other layer is a configuration error and panics with a message
//! naming the right one.
//!
//! The `execute` methods are the only entry points: the historical
//! `run`/`run_with`/`run_with_config`/`run_streaming` shims have been
//! removed after a deprecation cycle.

use crate::simulation::SimulationConfig;
use crate::sweep::CompiledArtifacts;

/// Options for one run: the optional knobs shared by
/// [`Scenario::execute`](crate::scenario::Scenario::execute) and
/// [`ScenarioSweep::execute`](crate::sweep::ScenarioSweep::execute). See
/// the [module docs](self) for which option applies at which layer.
#[derive(Default)]
pub struct RunOptions<'r> {
    pub(crate) config: Option<SimulationConfig>,
    pub(crate) artifacts: Option<&'r mut CompiledArtifacts>,
}

impl std::fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("config", &self.config)
            .field("artifacts", &self.artifacts.is_some())
            .finish()
    }
}

impl<'r> RunOptions<'r> {
    /// No overrides: run with the target's own configuration and a fresh
    /// artifact cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the scenario's [`SimulationConfig`] for this run only.
    /// Honoured by [`Scenario::execute`](crate::scenario::Scenario::execute);
    /// a sweep's points each carry their own configuration, so a sweep
    /// rejects it.
    pub fn with_config(mut self, config: SimulationConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Reuse a caller-owned compiled-artifact cache (price tables, ranked
    /// preferences) across runs. Honoured by
    /// [`ScenarioSweep::execute`](crate::sweep::ScenarioSweep::execute); the
    /// grid-sweep evaluator holds one cache across a whole placement search
    /// this way. A single scenario run compiles its own price
    /// table and rejects it.
    pub fn reuse_artifacts(mut self, artifacts: &'r mut CompiledArtifacts) -> Self {
        self.artifacts = Some(artifacts);
        self
    }
}
