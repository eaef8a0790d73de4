//! Lightweight span timers: time a scope and record the duration into a
//! histogram on drop.

use crate::metrics::Histogram;
use std::time::Instant;

/// A scope timer. While a `Span` is alive the phase is "open"; dropping
/// it records the elapsed wall time (seconds) into the phase's duration
/// histogram.
///
/// A span obtained while telemetry is disabled is *inert*: it holds no
/// timestamp (no `Instant::now` call was made) and its drop does
/// nothing. The [`span!`](crate::span) macro produces inert spans behind
/// a single relaxed atomic load, which is the entire hot-path cost of
/// disabled telemetry.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    histogram: &'static Histogram,
    start: Instant,
}

impl Span {
    /// Open a span onto an already-resolved histogram (what the
    /// [`span!`](crate::span) macro expands to). The caller has already
    /// checked [`Telemetry::enabled`](crate::Telemetry::enabled).
    pub fn active(histogram: &'static Histogram) -> Self {
        Self { active: Some(ActiveSpan { histogram, start: Instant::now() }) }
    }

    /// An inert span: no timestamp, records nothing on drop.
    pub fn disabled() -> Self {
        Self { active: None }
    }

    /// Whether this span is live (telemetry was enabled when it opened).
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(span) = self.active.take() {
            span.histogram.record(span.start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        let span = Span::disabled();
        assert!(!span.is_active());
        drop(span); // must not panic or record
    }

    #[test]
    fn active_span_records_on_drop() {
        // A private histogram keeps this test independent of the global
        // enabled flag (other tests toggle it).
        static HIST: std::sync::OnceLock<Histogram> = std::sync::OnceLock::new();
        let hist = HIST.get_or_init(Histogram::duration);
        {
            let _span = Span::active(hist);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(hist.count(), 1);
        assert!(hist.sum() >= 0.001, "recorded at least the slept millisecond");
    }
}
