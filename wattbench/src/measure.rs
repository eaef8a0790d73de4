//! Measurement helpers: medians, nearest-rank quantiles, output digests,
//! peak memory, and the per-metric sample store a run reports from.

use crate::catalogue;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Seconds in a duration.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, now: *mut Timespec) -> std::ffi::c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;

fn cpu_clock(clock: std::ffi::c_int) -> Duration {
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `now` is a valid, writable timespec for the call's duration.
    let status = unsafe { clock_gettime(clock, &mut now) };
    assert_eq!(status, 0, "the CPU-time clocks exist on every Linux");
    Duration::new(now.tv_sec as u64, now.tv_nsec as u32)
}

/// CPU time every thread of this process has used so far, including
/// threads that have exited. Time the host takes the CPU away (steal) and
/// time spent waiting are not in it.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// The wall clock and the process's CPU clock, read together when a timed
/// phase starts.
pub struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    /// Start both clocks.
    pub fn start() -> Self {
        Self { wall: Instant::now(), cpu: process_cpu() }
    }

    /// Wall time since the start.
    pub fn wall(&self) -> Duration {
        self.wall.elapsed()
    }

    /// Process CPU time since the start.
    pub fn cpu(&self) -> Duration {
        process_cpu().saturating_sub(self.cpu)
    }
}

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile for `0 < q <= 1`; 0 when empty. Failed
/// requests enter as `f64::INFINITY`, so they raise high quantiles instead
/// of dropping out of them.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// FNV-1a digest of a workload's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident memory of this process in MB (`VmHWM` in `/proc`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Every sample of every metric one run took; a metric reports its median.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Add one sample.
    ///
    /// # Panics
    /// Panics on a name missing from the [`catalogue`]: a misspelt metric
    /// would otherwise print a silent 0.
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(catalogue::known(name), "metric {name} is not in the catalogue");
        self.0.entry(name).or_default().push(value);
    }

    /// The median of a metric's samples, if it has any.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| median(v))
    }
}
