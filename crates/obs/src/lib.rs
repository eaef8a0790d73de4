//! `wattroute_obs` — the zero-cost telemetry layer.
//!
//! Every performance claim this repo makes (tick throughput, sweep cell
//! latency, Monte Carlo paths/second, daemon request latency) flows
//! through one process-wide surface: a lock-free metrics registry of
//! monotonic [`Counter`]s, [`Gauge`]s and log₂-bucketed duration
//! [`Histogram`]s, fed by [`Span`] timers in the instrumented
//! subsystems, rendered as a Prometheus-style text exposition (the
//! `routed` daemon's `metrics` verb). See `docs/observability.md`.
//!
//! # Cost model
//!
//! * **Telemetry off** (the default): every hot-path instrumentation
//!   site is guarded by [`Telemetry::enabled`] — one relaxed atomic
//!   load — and opens no span, takes no timestamp, records nothing.
//!   Simulated results are byte-identical either way (telemetry never
//!   touches engine state; pinned by the transparency property test).
//! * **Telemetry on**: spans cost two `Instant::now` calls plus a
//!   lock-free histogram record. `obs_report`, a CI gate, holds the
//!   end-to-end replay overhead under 5%.
//! * **Counters are always live** regardless of the flag: they are cold
//!   (artifact compiles, daemon requests) and the compile-count test
//!   pins (`BillingMatrix::build_count` et al.) rely on them counting
//!   unconditionally.
//!
//! # Naming
//!
//! Dotted `subsystem.phase.metric` paths, e.g. `engine.tick.realloc`,
//! `sweep.artifact_cache.hits`, `daemon.requests.stats`. The exposition
//! mangles these to `wattroute_*` identifiers with `_total`/`_seconds`
//! suffixes (see [`expo::prometheus_name`]).
//!
//! # Usage
//!
//! ```
//! use wattroute_obs::{telemetry, Telemetry};
//!
//! Telemetry::enable();
//! {
//!     let _span = wattroute_obs::span!("example.phase");
//!     // ... timed work ...
//! }
//! wattroute_obs::counter!("example.events").inc();
//! let snapshot = telemetry().snapshot();
//! assert_eq!(snapshot.counter("example.events"), Some(1));
//! assert!(telemetry().prometheus().contains("wattroute_example_phase_seconds_count"));
//! Telemetry::disable();
//! ```

#![warn(missing_docs)]

pub mod expo;
mod metrics;
mod registry;
mod span;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS, HISTOGRAM_LO_SECONDS,
};
pub use registry::{Registry, RegistrySnapshot};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Environment variable consulted by [`Telemetry::enable_from_env`]:
/// `1`, `true`, `on` or `yes` (case-insensitive) enable telemetry.
pub const TELEMETRY_ENV: &str = "WATTROUTE_TELEMETRY";

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide telemetry handle: the global flag, the global
/// registry and the exposition renderers. All methods are callable from
/// any thread.
#[derive(Debug)]
pub struct Telemetry {
    registry: Registry,
}

/// The global [`Telemetry`] instance.
pub fn telemetry() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(|| Telemetry { registry: Registry::new() })
}

impl Telemetry {
    /// Is hot-path instrumentation (spans, phase timers) live? One
    /// relaxed load — the entire cost of disabled telemetry on the hot
    /// path.
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Turn hot-path instrumentation on.
    pub fn enable() {
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Turn hot-path instrumentation off. Registered metrics keep their
    /// accumulated values; only new span timings stop being recorded.
    pub fn disable() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// Enable telemetry if the [`TELEMETRY_ENV`] environment variable is
    /// set to a truthy value; returns whether telemetry is now enabled.
    /// The harness binaries call this on startup so CI can flip the
    /// whole figure pipeline to instrumented mode without new flags.
    pub fn enable_from_env() -> bool {
        if let Ok(v) = std::env::var(TELEMETRY_ENV) {
            if matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes") {
                Self::enable();
            }
        }
        Self::enabled()
    }

    /// Resolve (registering on first use) a monotonic counter. Prefer
    /// the [`counter!`] macro on hot call sites — it caches this lookup.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        self.registry.counter(name)
    }

    /// Resolve (registering on first use) a gauge. Prefer the
    /// [`gauge!`] macro on hot call sites.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        self.registry.gauge(name)
    }

    /// Resolve (registering on first use) a duration histogram. Prefer
    /// the [`span!`] macro for timing scopes.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        self.registry.histogram(name)
    }

    /// Freeze every registered metric into a [`RegistrySnapshot`].
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// The registry as a Prometheus-style text exposition — the payload
    /// of the daemon's `metrics` verb. See [`expo::prometheus`].
    pub fn prometheus(&self) -> String {
        expo::prometheus(&self.snapshot())
    }
}

/// Resolve a counter by literal name, caching the registry lookup at the
/// call site: `wattroute_obs::counter!("daemon.requests.stats").inc()`.
/// After the first call the expansion is one `OnceLock` load.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static __WR_OBS_COUNTER: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__WR_OBS_COUNTER.get_or_init(|| $crate::telemetry().counter($name))
    }};
}

/// Resolve a gauge by literal name, caching the registry lookup at the
/// call site: `wattroute_obs::gauge!("montecarlo.workers").set(4.0)`.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static __WR_OBS_GAUGE: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *__WR_OBS_GAUGE.get_or_init(|| $crate::telemetry().gauge($name))
    }};
}

/// Resolve a duration histogram by literal name, caching the registry
/// lookup at the call site.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static __WR_OBS_HISTOGRAM: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__WR_OBS_HISTOGRAM.get_or_init(|| $crate::telemetry().histogram($name))
    }};
}

/// Open a [`Span`] timing the enclosing scope onto the named duration
/// histogram: `let _span = wattroute_obs::span!("engine.tick");`.
///
/// When telemetry is disabled this costs exactly one relaxed atomic
/// load and returns an inert span — no timestamp, no registry lookup,
/// nothing recorded on drop. When enabled, the registry lookup is
/// cached at the call site after the first hit.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        if $crate::Telemetry::enabled() {
            $crate::Span::active($crate::histogram!($name))
        } else {
            $crate::Span::disabled()
        }
    };
}

#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    // Tests that toggle the global enabled flag must not interleave;
    // everything else is lock-free and order-free.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggleable() {
        let _guard = test_guard();
        Telemetry::disable();
        assert!(!Telemetry::enabled());
        Telemetry::enable();
        assert!(Telemetry::enabled());
        Telemetry::disable();
    }

    #[test]
    fn macros_intern_one_handle_per_name() {
        let a = counter!("lib.test.counter");
        let b = telemetry().counter("lib.test.counter");
        assert!(std::ptr::eq(a, b));
        a.inc();
        assert_eq!(telemetry().snapshot().counter("lib.test.counter"), Some(b.get()));
    }

    #[test]
    fn span_macro_is_inert_when_disabled() {
        let _guard = test_guard();
        Telemetry::disable();
        {
            let span = span!("lib.test.inert_span");
            assert!(!span.is_active());
        }
        // The histogram may not even be registered: the disabled arm
        // never touches the registry.
        Telemetry::enable();
        {
            let span = span!("lib.test.inert_span");
            assert!(span.is_active());
        }
        Telemetry::disable();
        let snap = telemetry().snapshot();
        assert_eq!(snap.histogram("lib.test.inert_span").map(|h| h.count), Some(1));
    }

    #[test]
    fn enable_from_env_respects_the_variable() {
        let _guard = test_guard();
        Telemetry::disable();
        // SAFETY(test-only): no other thread reads the environment here
        // (the guard serializes every env-touching test in this binary).
        std::env::set_var(TELEMETRY_ENV, "0");
        assert!(!Telemetry::enable_from_env());
        std::env::set_var(TELEMETRY_ENV, "1");
        assert!(Telemetry::enable_from_env());
        std::env::remove_var(TELEMETRY_ENV);
        Telemetry::disable();
    }
}
