//! Histogram-backed metrics: per-construct latency distributions.

use crate::event::{SpanKind, Trace};
use crate::sketch::QuantileSketch;
use crate::wellformed::pair_spans;

/// Percentile summary of one span kind's latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans observed.
    pub count: u64,
    /// Median duration (ns).
    pub p50_ns: u64,
    /// 95th-percentile duration (ns).
    pub p95_ns: u64,
    /// 99th-percentile duration (ns).
    pub p99_ns: u64,
    /// Maximum duration (ns), exact.
    pub max_ns: u64,
}

/// Per-construct latency registry: one [`QuantileSketch`] per
/// [`SpanKind`].
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    hists: Vec<QuantileSketch>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry { hists: vec![QuantileSketch::new(); SpanKind::ALL.len()] }
    }
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Build a registry from a trace's completed spans. Pairing is
    /// best-effort: a structurally broken trace contributes the spans
    /// that could still be recovered.
    pub fn from_trace(trace: &Trace) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let (spans, _errors) = pair_spans(trace);
        for s in spans {
            reg.record(s.kind, s.duration_ns());
        }
        reg
    }

    /// Record one span duration.
    pub fn record(&mut self, kind: SpanKind, duration_ns: u64) {
        self.hists[kind.index()].record(duration_ns);
    }

    /// The underlying histogram of one kind.
    pub fn histogram(&self, kind: SpanKind) -> &QuantileSketch {
        &self.hists[kind.index()]
    }

    /// Percentile summary of one kind, `None` when no spans of that
    /// kind were observed.
    pub fn stats(&self, kind: SpanKind) -> Option<SpanStats> {
        let h = &self.hists[kind.index()];
        Some(SpanStats {
            count: h.count(),
            p50_ns: h.quantile(0.50)?,
            p95_ns: h.quantile(0.95)?,
            p99_ns: h.quantile(0.99)?,
            max_ns: h.max()?,
        })
    }

    /// Summaries of every kind with at least one span.
    ///
    /// Ordering is explicitly deterministic: entries appear sorted by
    /// ascending [`SpanKind`] discriminant (the order of
    /// [`SpanKind::ALL`]), independent of recording order. Report
    /// byte-identity across runs and shards depends on this, so the
    /// guarantee is part of the API contract and regression-tested
    /// (`snapshot_order_is_discriminant_sorted`).
    pub fn snapshot(&self) -> Vec<(SpanKind, SpanStats)> {
        let out: Vec<(SpanKind, SpanStats)> = SpanKind::ALL
            .iter()
            .filter_map(|&k| self.stats(k).map(|s| (k, s)))
            .collect();
        debug_assert!(
            out.windows(2).all(|w| w[0].0.index() < w[1].0.index()),
            "snapshot must be sorted by SpanKind discriminant"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, SpanKind, TraceEvent};

    #[test]
    fn snapshot_order_is_discriminant_sorted() {
        // Record in *reverse* discriminant order: the snapshot must come
        // back sorted by discriminant regardless.
        let mut reg = MetricsRegistry::new();
        for (i, &k) in SpanKind::ALL.iter().enumerate().rev() {
            reg.record(k, 100 + i as u64);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.len(), SpanKind::ALL.len());
        let idx: Vec<usize> = snap.iter().map(|(k, _)| k.index()).collect();
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(idx, sorted, "snapshot not discriminant-sorted");
        // And it is stable across repeated calls (byte-identity driver).
        let again: Vec<usize> = reg.snapshot().iter().map(|(k, _)| k.index()).collect();
        assert_eq!(idx, again);
    }

    #[test]
    fn registry_from_trace_pairs_and_summarizes() {
        use EventKind::{Begin, End};
        let t = Trace::new(vec![
            TraceEvent { time_ns: 0, thread: 0, core: 0, kind: Begin(SpanKind::Barrier) },
            TraceEvent { time_ns: 100, thread: 0, core: 0, kind: End(SpanKind::Barrier) },
            TraceEvent { time_ns: 200, thread: 0, core: 0, kind: Begin(SpanKind::Barrier) },
            TraceEvent { time_ns: 500, thread: 0, core: 0, kind: End(SpanKind::Barrier) },
        ]);
        let reg = MetricsRegistry::from_trace(&t);
        let s = reg.stats(SpanKind::Barrier).expect("barrier spans present");
        assert_eq!(s.count, 2);
        assert_eq!(s.max_ns, 300);
        assert!(s.p50_ns >= 96 && s.p50_ns <= 100, "{}", s.p50_ns);
        assert_eq!(reg.stats(SpanKind::Task), None);
        assert_eq!(reg.snapshot().len(), 1);
    }
}
