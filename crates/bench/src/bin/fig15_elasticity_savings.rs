//! Figure 15: maximum 24-day savings vs energy-model parameters, with and
//! without the 95/5 bandwidth constraints (1500 km distance threshold).

use wattroute_bench::{banner, elasticity_savings_sweep, fmt, print_table, scenario_24_day};
use wattroute_energy::model::EnergyModelParams;

fn main() {
    wattroute_obs::Telemetry::enable_from_env();
    banner(
        "Figure 15",
        "24-day savings vs (idle %, PUE), price-conscious routing @ 1500 km threshold",
    );
    let scenario = scenario_24_day();
    let rows = elasticity_savings_sweep(&scenario, 1500.0, &EnergyModelParams::figure_15_sweep());

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.label.clone(), fmt(r.relaxed_percent, 1), fmt(r.constrained_percent, 1)])
        .collect();
    print_table(&["(idle, PUE)", "savings % (relax 95/5)", "savings % (follow 95/5)"], &table);

    println!();
    println!("Paper shape: ~40% relaxed savings for a fully proportional system, dropping steeply");
    println!(
        "as idle power and PUE rise (roughly 5% at Google's (65%, 1.3)); obeying the original"
    );
    println!("95/5 constraints cuts savings to roughly a third of the relaxed value.");

    // Ablation (§5.1): the linear (r = 1) utilization curve, over the same
    // energy models.
    println!("\nAblation: linear (r = 1) utilization curve, same sweep:");
    let linear_models: Vec<(String, EnergyModelParams)> = EnergyModelParams::figure_15_sweep()
        .into_iter()
        .map(|(label, p)| (label, p.with_linear_curve()))
        .collect();
    let linear_rows = elasticity_savings_sweep(&scenario, 1500.0, &linear_models);
    let table: Vec<Vec<String>> = linear_rows
        .iter()
        .map(|r| vec![r.label.clone(), fmt(r.relaxed_percent, 1), fmt(r.constrained_percent, 1)])
        .collect();
    print_table(&["(idle, PUE)", "savings % (relax)", "savings % (follow)"], &table);
}
