#![warn(missing_docs)]

//! # ompvar-core — variability characterization
//!
//! The methodological core of the study: the nested run protocol
//! (run-to-run × intra-run repetitions), the statistics the paper reports
//! (mean, CV, normalized min/max, outlier runs, variance decomposition),
//! frequency-trace analysis, and paper-style table/CSV reporting.
//!
//! This crate is dependency-free and backend-agnostic: it consumes plain
//! `f64` samples produced by either runtime backend.

pub mod freqtrace;
pub mod report;
pub mod stats;
pub mod variability;

pub use freqtrace::{FreqTrace, FreqTraceError};
pub use report::{fmt_ratio, fmt_us, sparkline, Table};
pub use stats::{ks_test, mad, mad_outliers, percentile, Summary};
pub use variability::{RunSample, RunSet};
