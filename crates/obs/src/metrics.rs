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

/// Per-construct latency summaries of a trace's completed spans: one
/// [`QuantileSketch`] per [`SpanKind`], reported for every kind with at
/// least one span. Pairing is best-effort: a structurally broken trace
/// contributes the spans that could still be recovered.
///
/// Ordering is explicitly deterministic: entries appear sorted by
/// ascending [`SpanKind`] discriminant (the order of [`SpanKind::ALL`]),
/// independent of recording order. Report byte-identity across runs and
/// shards depends on this, so the guarantee is part of the API contract
/// and regression-tested (`span_stats_order_is_discriminant_sorted`).
pub fn span_stats(trace: &Trace) -> Vec<(SpanKind, SpanStats)> {
    let mut hists = vec![QuantileSketch::new(); SpanKind::ALL.len()];
    for s in pair_spans(trace).0 {
        hists[s.kind.index()].record(s.duration_ns());
    }
    SpanKind::ALL
        .iter()
        .filter_map(|&k| {
            let h = &hists[k.index()];
            let stats = SpanStats {
                count: h.count(),
                p50_ns: h.quantile(0.50)?,
                p95_ns: h.quantile(0.95)?,
                p99_ns: h.quantile(0.99)?,
                max_ns: h.max()?,
            };
            Some((k, stats))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, SpanKind, TraceEvent};

    fn span(t0: u64, t1: u64, thread: u32, kind: SpanKind) -> [TraceEvent; 2] {
        [
            TraceEvent { time_ns: t0, thread, core: 0, kind: EventKind::Begin(kind) },
            TraceEvent { time_ns: t1, thread, core: 0, kind: EventKind::End(kind) },
        ]
    }

    #[test]
    fn span_stats_order_is_discriminant_sorted() {
        // Record in *reverse* discriminant order, one thread per kind:
        // the summaries must come back sorted by discriminant regardless.
        let events: Vec<TraceEvent> = SpanKind::ALL
            .iter()
            .enumerate()
            .rev()
            .flat_map(|(i, &k)| span(0, 100 + i as u64, i as u32, k))
            .collect();
        let trace = Trace::new(events);
        let snap = span_stats(&trace);
        assert_eq!(snap.len(), SpanKind::ALL.len());
        let idx: Vec<usize> = snap.iter().map(|(k, _)| k.index()).collect();
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(idx, sorted, "span stats not discriminant-sorted");
        // And it is stable across repeated calls (byte-identity driver).
        assert_eq!(span_stats(&trace), snap);
    }

    #[test]
    fn span_stats_pairs_and_summarizes() {
        let t = Trace::new(
            [span(0, 100, 0, SpanKind::Barrier), span(200, 500, 0, SpanKind::Barrier)].concat(),
        );
        let stats = span_stats(&t);
        assert_eq!(stats.len(), 1);
        let (kind, s) = stats[0];
        assert_eq!(kind, SpanKind::Barrier);
        assert_eq!(s.count, 2);
        assert_eq!(s.max_ns, 300);
        assert!(s.p50_ns >= 96 && s.p50_ns <= 100, "{}", s.p50_ns);
    }
}
