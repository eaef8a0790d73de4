//! The metrics the benchmark prints, by name and unit. `BENCHMARK.json` at
//! the repository root lists the same names; `tests/catalogue.rs` keeps the
//! two in step.

/// Printed by an untraced run (`--trace 0`): what a user of the system
/// sees, on every workload.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")];

/// Printed by a traced run (`--trace 1`), one layer each. A metric of a
/// layer the workload does not run, or whose loop the program hides from
/// the benchmark, reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("market.generate_s", "s"),
    ("market.table_builds", "count"),
    ("market.table_build_s", "s"),
    ("workload.trace_s", "s"),
    ("geo.topology_s", "s"),
    ("routing.allocate_calls", "count"),
    ("routing.allocate_s", "s"),
    ("routing.allocate_p50_us", "us"),
    ("routing.allocate_p99_us", "us"),
    ("routing.prefs_builds", "count"),
    ("engine.ticks", "count"),
    ("engine.realloc_ticks", "count"),
    ("engine.realloc_self_s", "s"),
    ("engine.steady_tick_s", "s"),
    ("engine.report_s", "s"),
    ("sweep.cells", "count"),
    ("sweep.cell_p50_s", "s"),
    ("sweep.cell_max_s", "s"),
    ("sweep.worker_busy", "ratio"),
    ("sweep.artifact_hit_rate", "ratio"),
    ("hierarchy.shards", "count"),
    ("hierarchy.shard_max_s", "s"),
    ("hierarchy.shard_sum_s", "s"),
    ("hierarchy.merge_s", "s"),
    ("hierarchy.serial_wall_s", "s"),
    ("hierarchy.speedup", "ratio"),
    ("report.json_s", "s"),
    ("report.json_bytes", "bytes"),
    ("daemon.route_p50_us", "us"),
    ("daemon.route_p99_us", "us"),
    ("daemon.route_samples", "count"),
    ("daemon.route_idle_p50_us", "us"),
    ("daemon.stats_p50_ms", "ms"),
    ("daemon.snapshot_p50_ms", "ms"),
    ("daemon.snapshot_p99_ms", "ms"),
    ("daemon.snapshot_bytes", "bytes"),
    ("daemon.steps_per_s", "1/s"),
    ("daemon.errors", "count"),
    ("loadgen.offered_rps", "1/s"),
    ("loadgen.achieved_rps", "1/s"),
    ("loadgen.lag_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("host.probe_ms", "ms"),
    ("host.wall_raw_s", "s"),
    ("host.setup_raw_s", "s"),
];

/// Whether `name` is a metric of either list.
pub fn known(name: &str) -> bool {
    END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name)
}
