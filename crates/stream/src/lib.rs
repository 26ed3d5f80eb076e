#![warn(missing_docs)]

//! # ompvar-bench-stream — BabelStream port
//!
//! The BabelStream memory-bandwidth benchmark: five vector kernels (copy,
//! mul, add, triad, dot) over arrays of 2²⁵ doubles, repeated for a
//! configurable number of iterations. Per kernel, each run reports the
//! minimum, average and maximum execution time; the paper normalizes min
//! and max to the average to depict run-to-run variation.

pub mod kernels;
pub mod results;

pub use kernels::{region, StreamConfig, StreamKernel};
pub use results::{kernel_stats, KernelStats};
