//! Rendering a [`RegistrySnapshot`] as text: the Prometheus-style
//! exposition the daemon's `metrics` verb serves.
//!
//! Naming: registry names are dotted `subsystem.phase.metric` paths; the
//! exposition mangles them to `wattroute_subsystem_phase_metric`, with
//! the conventional unit/kind suffixes appended — `_total` for counters,
//! `_seconds` for histograms (every registry histogram is a duration
//! histogram), gauges bare.

use crate::registry::RegistrySnapshot;
use std::fmt::Write;

/// Format an `f64` for JSON: finite shortest round-trip representation;
/// non-finite values (unrepresentable in JSON) become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Mangle a dotted metric name into a Prometheus-style identifier:
/// `engine.tick.realloc` → `wattroute_engine_tick_realloc`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 10);
    out.push_str("wattroute_");
    for c in name.chars() {
        out.push(match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' => c,
            _ => '_',
        });
    }
    out
}

/// Render the snapshot as a Prometheus-style text exposition
/// (`# TYPE` comments, `_total`/`_seconds` suffixes, cumulative
/// `_bucket{le="..."}` series per histogram). Deterministic: metrics
/// appear in sorted name order, counters first, then gauges, then
/// histograms.
pub fn prometheus(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let id = prometheus_name(name) + "_total";
        let _ = writeln!(out, "# TYPE {id} counter");
        let _ = writeln!(out, "{id} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let id = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {id} gauge");
        let _ = writeln!(out, "{id} {}", json_f64(*value));
    }
    for (name, hist) in &snapshot.histograms {
        let id = prometheus_name(name) + "_seconds";
        let _ = writeln!(out, "# TYPE {id} histogram");
        let mut cum = hist.underflow;
        let _ = writeln!(out, "{id}_bucket{{le=\"{}\"}} {cum}", json_f64(hist.lo));
        for (i, &c) in hist.counts.iter().enumerate() {
            cum += c;
            let _ = writeln!(out, "{id}_bucket{{le=\"{}\"}} {cum}", json_f64(hist.bucket_hi(i)));
        }
        let _ = writeln!(out, "{id}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{id}_sum {}", json_f64(hist.sum));
        let _ = writeln!(out, "{id}_count {}", hist.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("daemon.requests.stats").add(3);
        r.gauge("montecarlo.worker_utilization").set(0.875);
        let h: &Histogram = r.histogram("engine.tick");
        h.record(1.0e-5);
        h.record(2.0e-5);
        r
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = prometheus(&sample_registry().snapshot());
        assert!(text.contains("# TYPE wattroute_daemon_requests_stats_total counter"));
        assert!(text.contains("wattroute_daemon_requests_stats_total 3"));
        assert!(text.contains("# TYPE wattroute_montecarlo_worker_utilization gauge"));
        assert!(text.contains("wattroute_montecarlo_worker_utilization 0.875"));
        assert!(text.contains("# TYPE wattroute_engine_tick_seconds histogram"));
        assert!(text.contains("wattroute_engine_tick_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("wattroute_engine_tick_seconds_count 2"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn name_mangling() {
        assert_eq!(prometheus_name("engine.tick.realloc"), "wattroute_engine_tick_realloc");
        assert_eq!(prometheus_name("a-b c"), "wattroute_a_b_c");
    }
}
