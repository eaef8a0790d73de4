//! The cluster energy-consumption model of §5.1.
//!
//! ```text
//! P_cluster(u_t) = F(n) + V(u_t, n) + ε
//! F(n)           = n · (P_idle + (PUE − 1) · P_peak)
//! V(u_t, n)      = n · (P_peak − P_idle) · (2·u_t − u_t^r)        r = 1.4
//! ```
//!
//! The model is adapted from Google's warehouse-scale power study; the paper
//! adds the PUE term for cooling and distribution overhead. The absolute
//! values of `P_peak` and `P_idle` do not matter for the savings analysis —
//! what matters is the *energy elasticity* `P_cluster(0) / P_cluster(1)`.

use serde::{Deserialize, Serialize};

/// Parameters of the per-server power curve plus facility overhead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModelParams {
    /// Average peak power of one server in watts.
    pub peak_watts: f64,
    /// Idle power as a fraction of peak (0.0 = perfectly energy
    /// proportional, 1.0 = no elasticity at all).
    pub idle_fraction: f64,
    /// Power usage effectiveness of the facility (≥ 1.0).
    pub pue: f64,
    /// Exponent `r` of the utilization curve; Google's empirical fit is 1.4,
    /// and `r = 1` gives the linear model the study also found reasonable.
    pub utilization_exponent: f64,
    /// Empirical correction constant ε in watts per cluster (small; the
    /// Google study's residual term).
    pub epsilon_watts: f64,
}

impl EnergyModelParams {
    /// Construct parameters with the default exponent (1.4) and zero ε.
    pub fn new(peak_watts: f64, idle_fraction: f64, pue: f64) -> Self {
        assert!(peak_watts > 0.0, "peak power must be positive");
        assert!((0.0..=1.0).contains(&idle_fraction), "idle fraction must be in [0,1]");
        assert!(pue >= 1.0, "PUE cannot be below 1.0");
        Self { peak_watts, idle_fraction, pue, utilization_exponent: 1.4, epsilon_watts: 0.0 }
    }

    /// "Optimistic future" preset: fully energy-proportional servers in a
    /// very efficient facility — (0 % idle, 1.1 PUE) in Figure 15.
    pub fn optimistic_future() -> Self {
        Self::new(250.0, 0.0, 1.1)
    }

    /// "Cutting-edge / Google" preset: (65 % idle, 1.3 PUE). §6.2 calls
    /// (60-65 % idle, 1.3 PUE) "Google's published elasticity level".
    pub fn google_2009() -> Self {
        Self::new(140.0, 0.65, 1.3)
    }

    /// "Disabled power management" preset: (95 % idle, 2.0 PUE) — an
    /// off-the-shelf server drawing ~95 % of peak when idle in an average
    /// facility.
    pub fn no_power_management() -> Self {
        Self::new(250.0, 0.95, 2.0)
    }

    /// The named parameter sweep of Figure 15, in the order plotted:
    /// (idle %, PUE) = (0, 1.0), (0, 1.1), (25, 1.3), (33, 1.3), (33, 1.7),
    /// (65, 1.3), (65, 2.0).
    pub fn figure_15_sweep() -> Vec<(String, Self)> {
        let mk = |idle: f64, pue: f64| Self::new(250.0, idle, pue);
        vec![
            ("(0%, 1.0)".to_string(), mk(0.0, 1.0)),
            ("(0%, 1.1)".to_string(), mk(0.0, 1.1)),
            ("(25%, 1.3)".to_string(), mk(0.25, 1.3)),
            ("(33%, 1.3)".to_string(), mk(0.33, 1.3)),
            ("(33%, 1.7)".to_string(), mk(0.33, 1.7)),
            ("(65%, 1.3)".to_string(), mk(0.65, 1.3)),
            ("(65%, 2.0)".to_string(), mk(0.65, 2.0)),
        ]
    }

    /// Idle power of one server in watts.
    pub fn idle_watts(&self) -> f64 {
        self.peak_watts * self.idle_fraction
    }

    /// A copy of these parameters with the linear (`r = 1`) utilization
    /// curve, for the ablation discussed in §5.1.
    pub fn with_linear_curve(mut self) -> Self {
        self.utilization_exponent = 1.0;
        self
    }
}

/// The power model for a whole cluster of `n` servers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterPowerModel {
    /// Per-server parameters and facility overhead.
    pub params: EnergyModelParams,
    /// Number of servers in the cluster.
    pub servers: u32,
}

impl ClusterPowerModel {
    /// Create a model for a cluster of `servers` machines.
    pub fn new(params: EnergyModelParams, servers: u32) -> Self {
        Self { params, servers }
    }

    /// Fixed power `F(n)` in watts: idle draw plus facility overhead.
    pub fn fixed_watts(&self) -> f64 {
        let p = &self.params;
        self.servers as f64 * (p.idle_watts() + (p.pue - 1.0) * p.peak_watts)
    }

    /// Variable power `V(u, n)` in watts at utilization `u` (clamped to
    /// `[0, 1]`).
    pub fn variable_watts(&self, utilization: f64) -> f64 {
        let p = &self.params;
        let u = utilization.clamp(0.0, 1.0);
        let curve = 2.0 * u - u.powf(p.utilization_exponent);
        self.servers as f64 * (p.peak_watts - p.idle_watts()) * curve
    }

    /// Total cluster power in watts at utilization `u`.
    pub fn power_watts(&self, utilization: f64) -> f64 {
        self.fixed_watts() + self.variable_watts(utilization) + self.params.epsilon_watts
    }

    /// Energy in watt-hours consumed over `hours` at utilization `u`.
    pub fn energy_watt_hours(&self, utilization: f64, hours: f64) -> f64 {
        assert!(hours >= 0.0, "duration must be non-negative");
        self.power_watts(utilization) * hours
    }

    /// The energy elasticity `P(0) / P(1)` — the quantity §5.1 identifies as
    /// "critical in determining the savings that can be achieved". 1.0 means
    /// completely inelastic; 0.0 means perfectly proportional.
    pub fn elasticity_ratio(&self) -> f64 {
        let peak = self.power_watts(1.0);
        if peak <= 0.0 {
            return 1.0;
        }
        self.power_watts(0.0) / peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn fixed_power_formula() {
        // 100 servers, 200W peak, 50% idle, PUE 1.5:
        // F = 100 * (100 + 0.5*200) = 20_000 W.
        let m = ClusterPowerModel::new(EnergyModelParams::new(200.0, 0.5, 1.5), 100);
        assert!(close(m.fixed_watts(), 20_000.0, 1e-9));
    }

    #[test]
    fn variable_power_curve_endpoints() {
        let m = ClusterPowerModel::new(EnergyModelParams::new(200.0, 0.5, 1.0), 10);
        // At u=0 the variable term vanishes; at u=1 it is n*(Ppeak-Pidle).
        assert_eq!(m.variable_watts(0.0), 0.0);
        assert!(close(m.variable_watts(1.0), 10.0 * 100.0, 1e-9));
    }

    #[test]
    fn superlinear_curve_front_loads_power() {
        // 2u - u^1.4 exceeds u for intermediate utilizations: the machine
        // draws proportionally more power at moderate load.
        let m = ClusterPowerModel::new(EnergyModelParams::new(200.0, 0.0, 1.0), 1);
        let half = m.variable_watts(0.5);
        let linear_half = 0.5 * m.variable_watts(1.0);
        assert!(half > linear_half);
    }

    #[test]
    fn linear_variant_matches_at_r_equals_one() {
        let params = EnergyModelParams::new(250.0, 0.6, 1.3).with_linear_curve();
        let m = ClusterPowerModel::new(params, 50);
        // With r = 1, V(u) = n*(Ppeak-Pidle)*u exactly.
        let u = 0.37;
        assert!(close(m.variable_watts(u), 50.0 * (250.0 - 150.0) * u, 1e-9));
    }

    #[test]
    fn power_is_monotone_in_utilization() {
        let m = ClusterPowerModel::new(EnergyModelParams::google_2009(), 500);
        let mut last = m.power_watts(0.0);
        for i in 1..=20 {
            let p = m.power_watts(i as f64 / 20.0);
            assert!(p >= last - 1e-9, "power should not fall as load rises");
            last = p;
        }
    }

    #[test]
    fn utilization_is_clamped() {
        let m = ClusterPowerModel::new(EnergyModelParams::google_2009(), 500);
        assert_eq!(m.power_watts(-0.5), m.power_watts(0.0));
        assert_eq!(m.power_watts(1.5), m.power_watts(1.0));
    }

    #[test]
    fn elasticity_of_named_presets() {
        // Fully proportional server in a PUE-1.0 facility: idle power is zero.
        let ideal = ClusterPowerModel::new(EnergyModelParams::new(250.0, 0.0, 1.0), 100);
        assert!(close(ideal.elasticity_ratio(), 0.0, 1e-9));

        // The paper: state-of-the-art systems idle around 60% of peak; with
        // facility overhead the cluster-level ratio is even higher.
        let google = ClusterPowerModel::new(EnergyModelParams::google_2009(), 100);
        assert!(google.elasticity_ratio() > 0.6 && google.elasticity_ratio() < 0.9);

        let none = ClusterPowerModel::new(EnergyModelParams::no_power_management(), 100);
        assert!(none.elasticity_ratio() > 0.9);

        // Monotone across the Figure 15 sweep.
        let sweep = EnergyModelParams::figure_15_sweep();
        let ratios: Vec<f64> =
            sweep.iter().map(|(_, p)| ClusterPowerModel::new(*p, 100).elasticity_ratio()).collect();
        for w in ratios.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "sweep should be ordered by inelasticity: {ratios:?}");
        }
    }

    #[test]
    fn figure_15_sweep_has_seven_points() {
        // Figure 15's energy models, in the order plotted: the sweep is the
        // only place that states them.
        let expected = [
            ("(0%, 1.0)", 0.0, 1.0),
            ("(0%, 1.1)", 0.0, 1.1),
            ("(25%, 1.3)", 0.25, 1.3),
            ("(33%, 1.3)", 0.33, 1.3),
            ("(33%, 1.7)", 0.33, 1.7),
            ("(65%, 1.3)", 0.65, 1.3),
            ("(65%, 2.0)", 0.65, 2.0),
        ];
        let sweep = EnergyModelParams::figure_15_sweep();
        assert_eq!(sweep.len(), expected.len());
        for ((label, params), (want_label, idle, pue)) in sweep.iter().zip(expected) {
            assert_eq!(label, want_label);
            assert_eq!((params.idle_fraction, params.pue), (idle, pue), "{label}");
            assert_eq!(params.peak_watts, 250.0, "{label}");
            assert_eq!(params.utilization_exponent, 1.4, "{label}");
            assert_eq!(params.epsilon_watts, 0.0, "{label}");
        }
    }

    #[test]
    fn energy_accumulates_over_time() {
        let m = ClusterPowerModel::new(EnergyModelParams::google_2009(), 1000);
        let one_hour = m.energy_watt_hours(0.3, 1.0);
        let day = m.energy_watt_hours(0.3, 24.0);
        assert!(close(day, one_hour * 24.0, 1e-6));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_rejected() {
        let m = ClusterPowerModel::new(EnergyModelParams::google_2009(), 10);
        let _ = m.energy_watt_hours(0.5, -1.0);
    }

    #[test]
    #[should_panic(expected = "PUE")]
    fn sub_unity_pue_rejected() {
        let _ = EnergyModelParams::new(250.0, 0.5, 0.9);
    }

    #[test]
    #[should_panic(expected = "idle fraction")]
    fn bad_idle_fraction_rejected() {
        let _ = EnergyModelParams::new(250.0, 1.5, 1.3);
    }

    #[test]
    fn zero_server_cluster_draws_only_epsilon() {
        let mut params = EnergyModelParams::google_2009();
        params.epsilon_watts = 12.0;
        let m = ClusterPowerModel::new(params, 0);
        assert!(close(m.power_watts(0.7), 12.0, 1e-9));
        assert_eq!(m.elasticity_ratio(), 1.0);
    }
}
