#![warn(missing_docs)]

//! # ompvar-obs — unified tracing & telemetry
//!
//! The observability layer shared by both runtime backends. The paper's
//! method is *attribution* — explaining run-to-run variability by lining
//! timing distributions up against frequency logs and placement — and
//! that requires seeing *which* barrier, workshare pass, or noise burst
//! inside a run produced an outlier, not just aggregate counters.
//!
//! This crate is dependency-free and backend-agnostic:
//!
//! * [`event`] — the typed event vocabulary: span kinds
//!   ([`SpanKind`]: region, workshare, chunk, barrier, single, critical,
//!   ordered, task), instant kinds ([`InstantKind`]: noise preemption,
//!   fault injection, frequency retarget), and the flat [`TraceEvent`]
//!   record (timestamp, thread, core).
//! * [`record`] — the [`TraceSink`] trait plus a lock-free-ish
//!   per-thread buffered recorder ([`ThreadRecorder`]/[`TeamRecorder`]):
//!   the hot path is a plain vector push; the only lock is taken once
//!   per thread at submission time.
//! * [`wellformed`] — structural validation (every begin matched by an
//!   end, per-thread LIFO nesting, per-thread monotone timestamps) and
//!   span recovery.
//! * [`metrics`] — the per-construct [`MetricsRegistry`]
//!   (p50/p95/p99/max), one [`QuantileSketch`] per span kind.
//! * [`attr`] — the causal time-attribution vocabulary: the typed
//!   [`AttrSource`] ledger ([`RunAttribution`]) the sim engine charges
//!   every preemption, migration, SMT co-run, DVFS droop, sync wait and
//!   fault stall to, with a per-thread conservation invariant.
//! * [`sketch`] — streaming mergeable statistics ([`QuantileSketch`],
//!   [`VarAccum`]) whose integer merges are exactly associative and
//!   commutative, so sharded campaigns aggregate byte-identically at
//!   any worker count.
//! * [`chrome`] — Chrome trace-event JSON export, loadable
//!   in Perfetto / `chrome://tracing`, with frequency samples exported
//!   as counter tracks.
//! * [`json`] — a minimal JSON value model, parser, and the one
//!   streaming writer every emitted artifact (journal lines, run
//!   reports, traces) goes through.
//!
//! Timestamps are plain `u64` nanoseconds: virtual time on the simulated
//! backend, a monotonic clock on the native one. The two backends thus
//! produce structurally identical traces that all downstream tooling
//! consumes uniformly.

pub mod attr;
pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod record;
pub mod sketch;
pub mod wellformed;

pub use attr::{AttrSample, AttrSource, RunAttribution, ThreadAttribution, N_SOURCES};
pub use chrome::{chrome_trace, chrome_trace_attr, chrome_trace_lanes};
pub use event::{
    EventKind, InstantKind, Span, SpanKind, Trace, TraceEvent, CORE_UNKNOWN, THREAD_GLOBAL,
};
pub use metrics::{MetricsRegistry, SpanStats};
pub use record::{NullSink, TeamRecorder, ThreadRecorder, TraceSink};
pub use sketch::{QuantileSketch, VarAccum};
