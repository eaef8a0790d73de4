//! The metric registry: name → handle interning, and frozen snapshots.
//!
//! Registration is the *only* locked path in the crate, and it is cold:
//! each distinct metric name is resolved once (call sites cache the
//! returned `&'static` handle, usually via the [`counter!`](crate::counter)
//! / [`gauge!`](crate::gauge) / [`span!`](crate::span) macros), after
//! which every mutation is lock-free. Handles live for the whole process
//! — the registry leaks one small allocation per name, which is exactly
//! the lifetime a process-wide metrics surface needs.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// What a registered name resolves to.
#[derive(Debug, Clone, Copy)]
enum Handle {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// The process-wide metric table. Obtain the global instance through
/// [`telemetry()`](crate::telemetry); constructing private registries is
/// possible (tests do) but instrumented library code always talks to the
/// global one.
#[derive(Debug, Default)]
pub struct Registry {
    // BTreeMap so snapshots iterate in stable (sorted) name order — the
    // exposition formats are deterministic for a given set of metrics.
    inner: Mutex<BTreeMap<&'static str, Handle>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve (registering on first use) the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind
    /// — two subsystems disagreeing about a name is a programming error.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut inner = self.inner.lock().expect("registry lock");
        match inner.entry(name).or_insert_with(|| Handle::Counter(Box::leak(Box::default()))) {
            Handle::Counter(c) => c,
            other => panic!("metric '{name}' is already registered as {}", kind_name(other)),
        }
    }

    /// Resolve (registering on first use) the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        let mut inner = self.inner.lock().expect("registry lock");
        match inner.entry(name).or_insert_with(|| Handle::Gauge(Box::leak(Box::default()))) {
            Handle::Gauge(g) => g,
            other => panic!("metric '{name}' is already registered as {}", kind_name(other)),
        }
    }

    /// Resolve (registering on first use) the duration histogram `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut inner = self.inner.lock().expect("registry lock");
        match inner.entry(name).or_insert_with(|| Handle::Histogram(Box::leak(Box::default()))) {
            Handle::Histogram(h) => h,
            other => panic!("metric '{name}' is already registered as {}", kind_name(other)),
        }
    }

    /// Freeze every registered metric into a [`RegistrySnapshot`], sorted
    /// by name. Counters and gauges are read with relaxed loads;
    /// histograms copy their bucket arrays. Registration that races the
    /// snapshot lands in the next one.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().expect("registry lock");
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (&name, handle) in inner.iter() {
            match handle {
                Handle::Counter(c) => counters.push((name, c.get())),
                Handle::Gauge(g) => gauges.push((name, g.get())),
                Handle::Histogram(h) => histograms.push((name, h.snapshot())),
            }
        }
        RegistrySnapshot { counters, gauges, histograms }
    }
}

fn kind_name(handle: &Handle) -> &'static str {
    match handle {
        Handle::Counter(_) => "a counter",
        Handle::Gauge(_) => "a gauge",
        Handle::Histogram(_) => "a histogram",
    }
}

/// A frozen, name-sorted copy of every registered metric — what the
/// Prometheus-style exposition is rendered from.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(&'static str, f64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Look up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Look up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("x.y.z");
        let b = r.counter("x.y.z");
        assert!(std::ptr::eq(a, b), "same name must intern to the same counter");
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("conflict.metric");
        let _ = r.gauge("conflict.metric");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b.counter").add(2);
        r.gauge("a.gauge").set(0.5);
        r.histogram("c.hist").record(1.0);
        let s = r.snapshot();
        assert_eq!(s.counter("b.counter"), Some(2));
        assert_eq!(s.gauge("a.gauge"), Some(0.5));
        assert_eq!(s.histogram("c.hist").unwrap().count, 1);
        assert_eq!(s.counter("missing"), None);
        let names: Vec<_> = s.counters.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
