#![warn(missing_docs)]

//! # ompvar-analyze — static analysis of the region IR
//!
//! The construct IR ([`region`]) lives here, together with everything
//! that can be decided about a program *without running it*:
//!
//! * [`passes::analyze`] — the lint pipeline. An abstract interpretation
//!   of the SPMD construct sequence producing structured
//!   [`diag::Diagnostic`]s: `OMPV0xx` codes with a severity
//!   (`Error`/`Warn`/`Info`), a construct-path span addressing the
//!   offending node, and a human rendering. Four analyses run: barrier
//!   matching / team divergence (structural), nowait-hazard phase
//!   partitioning, may-deadlock (lock nesting + acquisition-order cycle
//!   detection), and a static cost model flagging serial bottlenecks.
//! * [`predict`] — the static effect and cost prediction. The predicted
//!   [`SemanticEffects`](ompvar_sim::trace::SemanticEffects) are the
//!   single source of truth the differential-fuzzing oracles compare
//!   both backends against ([`region::RegionSpec::expected_effects`]
//!   delegates here).
//!
//! [`region::RegionSpec::validate`] is the error-severity surface of the
//! analyzer: it runs the pipeline's error-capable passes and returns the
//! first `Error`-severity [`diag::Diagnostic`] — the one error both
//! backends reject with. `Warn` and `Info` findings do not block
//! execution — they feed the fuzzer's soundness oracle (any dynamic
//! deadlock/violation must have been flagged at least `Warn`) and the
//! reports.

pub mod diag;
pub mod passes;
pub mod predict;
pub mod region;

pub use diag::{Analysis, DiagCode, Diagnostic, Severity, Span};
pub use passes::analyze;
pub use region::{Construct, RegionSpec, Schedule};
