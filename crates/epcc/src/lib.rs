#![warn(missing_docs)]

//! # ompvar-bench-epcc — EPCC OpenMP micro-benchmarks
//!
//! A port of the two EPCC micro-benchmarks the paper evaluates:
//!
//! * [`schedbench`] — loop-scheduling overheads for `static`, `dynamic`
//!   and `guided` schedules with configurable chunk sizes;
//! * [`taskbench`] — explicit-task spawning/dispatch overheads (the EPCC
//!   suite's task micro-benchmarks; the paper lists these as future work);
//! * [`syncbench`] — overheads of all OpenMP synchronization constructs
//!   (parallel, for, parallel-for, barrier, single, critical,
//!   lock/unlock, ordered, atomic, reduction), with EPCC-style
//!   auto-calibration of inner repetitions against a target test time.
//!
//! Both produce [`ompvar_rt::RegionSpec`]s runnable on either backend,
//! and the [`runner`] module implements the paper's 10-run protocol.

pub mod params;
pub mod runner;
pub mod schedbench;
pub mod syncbench;
pub mod taskbench;

pub use params::EpccConfig;
pub use runner::{run_many, run_seed, run_seeds};
pub use syncbench::SyncConstruct;
