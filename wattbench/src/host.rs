//! Host speed. On a shared host the same code runs up to twice as slow for
//! seconds or minutes at a time, while neighbours load the shared
//! caches and memory; CPU time slows with wall time, so `cpu_s` does not
//! escape it. Right before and after each timed stretch the benchmark
//! therefore times a fixed probe, one sort of 2^20 pseudo-random floats,
//! and scales the stretch by [`REFERENCE_PROBE_S`] over the geometric mean
//! of the two probe times: it reads as it would on a host where the probe
//! takes [`REFERENCE_PROBE_S`].
//!
//! The probe runs in a child process (`wattbench --probe`), so its memory
//! stays out of `peak_rss_mb`. It runs on one thread even for work that
//! takes both cores: on the two-worker sweep and the sharded tree, scaling
//! by a one-thread probe left a smaller spread than a probe on both cores.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// What the probe takes on the host the bounds were set on (a quiet
/// 2-vCPU Xeon virtual machine): scaled timings read as they would there.
pub const REFERENCE_PROBE_S: f64 = 0.0335;

/// Floats the probe sorts.
const PROBE_LEN: usize = 1 << 20;

/// One thread's probe: fill an array from a fixed xorshift stream, then
/// time sorting it.
fn sort_once() -> f64 {
    let mut z: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<f64> = (0..PROBE_LEN)
        .map(|_| {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            (z >> 11) as f64
        })
        .collect();
    let start = Instant::now();
    keys.sort_unstable_by(f64::total_cmp);
    black_box(&keys);
    start.elapsed().as_secs_f64()
}

/// The child's side of a probe: print the seconds the sort took.
pub fn probe_main() {
    println!("{}", sort_once());
}

/// The parent's side: the probe's latest time and every time it took.
pub(crate) struct Host {
    last_s: f64,
    /// Every probe time, in seconds, but the warm-up.
    pub(crate) probes_s: Vec<f64>,
}

impl Host {
    /// Start probing with an untimed warm-up; [`Host::mark`] before the
    /// first timed stretch.
    pub(crate) fn new() -> Self {
        let mut host = Self { last_s: f64::NAN, probes_s: Vec::new() };
        host.probe();
        host.probes_s.clear();
        host
    }

    fn probe(&mut self) -> f64 {
        let exe = std::env::current_exe().expect("the benchmark knows its own executable");
        let out = Command::new(exe).arg("--probe").output().expect("the probe process starts");
        let text = String::from_utf8_lossy(&out.stdout);
        let seconds = text.trim().parse::<f64>().ok().filter(|s| out.status.success() && *s > 0.0);
        let seconds = seconds.unwrap_or_else(|| panic!("the probe failed: {out:?}"));
        self.probes_s.push(seconds);
        seconds
    }

    /// Probe now, as the start of the next timed stretch.
    pub(crate) fn mark(&mut self) {
        self.last_s = self.probe();
    }

    /// Probe now and return the scale for what ran since the last probe:
    /// [`REFERENCE_PROBE_S`] over the geometric mean of the two probes.
    pub(crate) fn scale(&mut self) -> f64 {
        let now = self.probe();
        let scale = REFERENCE_PROBE_S / (self.last_s * now).sqrt();
        self.last_s = now;
        scale
    }
}
