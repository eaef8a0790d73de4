//! A timing [`RoutingPolicy`] wrapper: the traced run's view into the
//! routing layer of every entry point, taken from outside the program.
//!
//! The wrapper forwards all four trait methods and times `allocate` /
//! `allocate_into`. Its life, from the factory call that builds it to its
//! drop, brackets one unit of routed work — a sweep cell, a hierarchy
//! shard, a replay run or a daemon session — so those durations are
//! measured without spans inside the program.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wattroute::prelude::*;

/// What the [`TimedPolicy`] instances sharing one [`Recorder`] reported.
#[derive(Debug, Default)]
pub struct RoutingTrace {
    /// Time inside `allocate` / `allocate_into` calls, summed over threads.
    pub busy: Duration,
    /// Each call's duration in nanoseconds, one entry per call.
    pub call_ns: Vec<u64>,
    /// One `(built, dropped)` pair per policy instance.
    pub lives: Vec<(Instant, Instant)>,
}

/// The sink [`TimedPolicy`] instances fold their numbers into on drop.
pub type Recorder = Arc<Mutex<RoutingTrace>>;

/// An empty [`Recorder`].
pub fn recorder() -> Recorder {
    Arc::default()
}

/// Take everything a [`Recorder`] holds, leaving it empty.
///
/// # Panics
/// Panics if a thread panicked while folding into the sink.
pub fn take(sink: &Recorder) -> RoutingTrace {
    std::mem::take(&mut *sink.lock().expect("no policy panicked while folding into the sink"))
}

/// A policy that times its inner policy's allocation calls.
pub struct TimedPolicy {
    inner: Box<dyn RoutingPolicy>,
    sink: Recorder,
    built: Instant,
    busy: Duration,
    call_ns: Vec<u64>,
    last: Duration,
}

impl TimedPolicy {
    /// Wrap `inner`, reporting into `sink` when dropped.
    pub fn new(inner: impl RoutingPolicy + 'static, sink: &Recorder) -> Self {
        Self {
            inner: Box::new(inner),
            sink: Arc::clone(sink),
            built: Instant::now(),
            busy: Duration::ZERO,
            call_ns: Vec::new(),
            last: Duration::ZERO,
        }
    }

    /// Allocation calls so far.
    pub fn calls(&self) -> u64 {
        self.call_ns.len() as u64
    }

    /// Duration of the latest allocation call.
    pub fn last_call(&self) -> Duration {
        self.last
    }

    fn record(&mut self, took: Duration) {
        self.busy += took;
        self.last = took;
        self.call_ns.push(took.as_nanos() as u64);
    }
}

impl RoutingPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn allocate(&mut self, ctx: &RoutingContext<'_>) -> Allocation {
        let start = Instant::now();
        let allocation = self.inner.allocate(ctx);
        self.record(start.elapsed());
        allocation
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        let start = Instant::now();
        self.inner.allocate_into(out, ctx);
        self.record(start.elapsed());
    }

    fn attach_preferences(&mut self, prefs: &Arc<CompiledPreferences>) {
        self.inner.attach_preferences(prefs);
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        let dropped = Instant::now();
        // A poisoned sink means another thread panicked, which fails the
        // run anyway; losing this instance's numbers then costs nothing.
        if let Ok(mut sink) = self.sink.lock() {
            sink.busy += self.busy;
            sink.call_ns.append(&mut self.call_ns);
            sink.lives.push((self.built, dropped));
        }
    }
}
