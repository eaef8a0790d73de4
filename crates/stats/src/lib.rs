//! Statistics utilities used throughout the `wattroute` workspace.
//!
//! The reproduction of *Cutting the Electric Bill for Internet-Scale Systems*
//! (Qureshi et al., SIGCOMM 2009) leans heavily on a small set of statistical
//! primitives: trimmed means and standard deviations (Figure 6), kurtosis of
//! price-change distributions (Figure 7), pairwise correlation coefficients
//! and mutual information (Figure 8), histograms of price differentials
//! (Figure 10), quantiles / inter-quartile ranges (Figures 11 and 12),
//! 95th-percentile bandwidth computations for the 95/5 billing model (§4),
//! and conditional value-at-risk ([`quantiles::cvar`]) for the Monte Carlo
//! layer's electric-bill distributions.
//!
//! This crate implements those primitives with no external numeric
//! dependencies so that the rest of the workspace can rely on a single,
//! well-tested implementation.
//!
//! # Conventions
//!
//! * All functions operate on `&[f64]` slices.
//! * Empty inputs return [`None`] from functions that would otherwise have to
//!   invent a value; panicking variants are never provided.
//! * Non-finite samples (NaN, ±∞) are the caller's responsibility; helper
//!   [`descriptive::retain_finite`] is provided to filter them.
//!
//! # Example
//!
//! ```
//! use wattroute_stats::descriptive::{mean, std_dev, trimmed};
//!
//! let prices = [40.0, 42.0, 38.0, 41.0, 1900.0]; // one spike, like NYC RT
//! let all = mean(&prices).unwrap();
//! let trimmed_stats = trimmed(&prices, 0.2).unwrap();
//! assert!(all > 400.0);                 // spike dominates the raw mean
//! assert!(trimmed_stats.mean < 45.0);   // trimming removes it
//! assert!(std_dev(&prices).unwrap() > 700.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod descriptive;
pub mod histogram;
pub mod online;
pub mod quantiles;
pub mod timeseries;

pub use correlation::{mutual_information, pearson, spearman};
pub use descriptive::{kurtosis, mean, skewness, std_dev, trimmed, variance, TrimmedStats};
pub use histogram::Histogram;
pub use online::OnlineStats;
pub use quantiles::{cvar, iqr, median, percentile, quantile, quartiles};
pub use timeseries::{diff_series, window_average};
