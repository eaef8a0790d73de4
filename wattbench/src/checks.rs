//! Output checks behind `attempted` / `failed`: invariants every seed must
//! satisfy, plus digests of the outputs pinned for the default seed.

use crate::engine_loop::reroutes;
use wattroute::prelude::*;
use wattroute::workload::trace::STEP_SECONDS;

/// The seed a run uses without `--seed`; [`PINNED`] holds its digests.
pub const DEFAULT_SEED: u64 = 2009;

/// Digest of each workload's outputs on [`DEFAULT_SEED`]: the JSON of both
/// sweep reports; of the three chain reports; of the daemon's flushed
/// report followed by its final `snapshot` reply; of the sharded report.
pub const PINNED: &[(&str, &str)] = &[
    ("sweep-24d", "dbbc976479ecf61d"),
    ("replay-39m", "0e40d55e3d9df35f"),
    ("daemon-mixed", "aaab904e86f6fefb"),
    ("tree-1000", "900e4cbdb03d1bda"),
];

/// The pinned digest of a workload.
pub fn pinned(workload: &str) -> Option<&'static str> {
    PINNED.iter().find(|(w, _)| *w == workload).map(|(_, digest)| *digest)
}

/// Attempted and failed outputs of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reports produced and daemon requests sent.
    pub attempted: u64,
    /// Outputs whose check failed, error replies, missing replies and
    /// refused connections.
    pub failed: u64,
}

impl Outcome {
    /// Count one output and its check.
    pub fn record(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = check {
            self.fail(what, &error);
        }
    }

    /// Count a failure, reporting it on stderr.
    pub fn fail(&mut self, what: &str, error: &str) {
        self.failed += 1;
        eprintln!("wattbench: FAILED {what}: {error}");
    }
}

/// The hits a replay is offered: every step carries the demand of the step
/// that last re-routed (on the interval or at an hour boundary), because
/// an allocation holds its loads for its whole epoch.
pub fn offered_hits(trace: &Trace, interval: usize) -> f64 {
    let mut total = 0.0;
    let mut epoch_demand = 0.0;
    for (i, step) in trace.steps().iter().enumerate() {
        if reroutes(trace, interval, i) {
            epoch_demand = step.us_total();
        }
        total += epoch_demand;
    }
    total * STEP_SECONDS as f64
}

/// A replay covered every step and routed every offered hit: served plus
/// rejected hits equal [`offered_hits`]. The two sides are summed in
/// different orders, so they agree to a relative 1e-9, not bit for bit.
pub fn replayed(report: &SimulationReport, steps: usize, offered_hits: f64) -> Result<(), String> {
    if report.steps != steps {
        return Err(format!("{} steps replayed, the trace has {steps}", report.steps));
    }
    let served: f64 = report.clusters.iter().map(|c| c.total_hits).sum();
    let routed = served + report.total_rejected_hits;
    if ((routed - offered_hits) / offered_hits).abs() > 1e-9 {
        return Err(format!("served + rejected = {routed} hits, the trace offered {offered_hits}"));
    }
    Ok(())
}

/// A report equals its reference field for field and byte for byte as JSON.
pub fn same(report: &SimulationReport, reference: &SimulationReport) -> Result<(), String> {
    if report != reference || report.to_json() != reference.to_json() {
        return Err(format!(
            "report differs from its reference (total cost {} vs {})",
            report.total_cost_dollars, reference.total_cost_dollars
        ));
    }
    Ok(())
}

/// A run carries 95/5 caps exactly when it was meant to.
pub fn capped(report: &SimulationReport, expected: bool) -> Result<(), String> {
    if report.bandwidth_constrained != expected {
        return Err(format!(
            "bandwidth_constrained is {}, expected {expected}",
            report.bandwidth_constrained
        ));
    }
    Ok(())
}
