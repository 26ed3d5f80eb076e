//! In-memory span recorder for the traced run.
//!
//! The benchmark measures layers from outside: a span wraps each call
//! into a layer's public function. A span carries its name (the layer),
//! start, end, the span that caused it, and the count of work done
//! inside it; all spans of one process share the workload name. Spans
//! stay in memory and are written once, as Chrome trace-event JSON,
//! when the run ends. A layer's *self time* is its span's duration
//! minus the part of that interval its children cover.

use ompvar_obs::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `rt.simrt.run`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Work done inside the span (cases, units, bytes — per layer).
    pub count: u64,
}

/// Handle of an open span, from [`Recorder::open`] to [`Recorder::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Per-layer totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of span self times, ns.
    pub self_ns: u64,
    /// Sum of span counts.
    pub count: u64,
}

/// The recorder. Disabled, `open` and `close` do nothing, which is what
/// the untraced half of `trace.overhead_pct` runs against.
#[derive(Debug)]
pub struct Recorder {
    workload: &'static str,
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for `workload`; `enabled = false` records nothing.
    pub fn new(workload: &'static str, enabled: bool) -> Recorder {
        Recorder {
            workload,
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`, child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            count: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `span`, which did `count` of work. Spans close innermost
    /// first.
    pub fn close(&mut self, span: SpanId, count: u64) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        self.spans[span.0].end_ns = self.now_ns();
        self.spans[span.0].count = count;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per layer name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
            t.count += s.count;
        }
        out
    }

    /// The share of the root spans' wall that lies inside some child
    /// span: how much of the run the layer spans account for.
    pub fn cover_share(&self) -> f64 {
        let selfs = self_times(&self.spans);
        let (mut wall, mut uncovered) = (0u64, 0u64);
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            if s.parent.is_none() {
                wall += s.end_ns - s.start_ns;
                uncovered += self_ns;
            }
        }
        if wall == 0 {
            0.0
        } else {
            1.0 - uncovered as f64 / wall as f64
        }
    }

    /// Chrome trace-event JSON (opens in Perfetto / `chrome://tracing`):
    /// one complete (`ph:"X"`) event per span, the workload as category,
    /// span id / parent id / count under `args`.
    pub fn chrome_json(&self) -> String {
        let num = |n: u64| Value::Num(n as f64);
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str(self.workload.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Value::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), num(1)),
                    ("tid".into(), num(1)),
                    (
                        "args".into(),
                        Value::Obj(vec![
                            ("id".into(), num(id as u64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| num(p as u64)),
                            ),
                            ("workload".into(), Value::Str(self.workload.into())),
                            ("count".into(), num(s.count)),
                        ]),
                    ),
                ])
            })
            .collect();
        ompvar_obs::json::write(&Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ]))
    }
}

/// Self time of each span, ns: its duration minus the union of its
/// children's intervals (clipped to the span, so overlapping or
/// over-long children are never subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30
        let spans = [
            sp("root", 0, 100, None),
            sp("a", 10, 60, Some(0)),
            sp("b", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_as_their_union() {
        // Two workers overlap on 30..50; a third child pokes past the
        // parent's end and is clipped.
        let spans = [
            sp("root", 0, 100, None),
            sp("w0", 10, 50, Some(0)),
            sp("w1", 30, 70, Some(0)),
            sp("late", 90, 130, Some(0)),
        ];
        // Union = 10..70 ∪ 90..100 = 70 ns.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_totals_by_layer() {
        let mut rec = Recorder::new("w", true);
        let root = rec.open("root");
        for _ in 0..3 {
            let leaf = rec.open("leaf");
            rec.close(leaf, 2);
        }
        rec.close(root, 0);
        let layers = rec.layers();
        assert_eq!(layers["leaf"].calls, 3);
        assert_eq!(layers["leaf"].count, 6);
        assert!(rec.spans()[1..].iter().all(|s| s.parent == Some(0)));
        let root = layers["root"];
        assert_eq!(root.total_ns - root.self_ns, layers["leaf"].total_ns);
        assert!((0.0..=1.0).contains(&rec.cover_share()));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new("w", false);
        let x = rec.open("x");
        rec.close(x, 1);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_json_parses_and_carries_parent_links() {
        let mut rec = Recorder::new("engine_dense", true);
        let root = rec.open("root");
        let leaf = rec.open("leaf \"quoted\"");
        rec.close(leaf, 5);
        rec.close(root, 0);
        let doc = ompvar_obs::json::parse(&rec.chrome_json()).expect("well-formed JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents");
        assert_eq!(events.len(), 2);
        let leaf = &events[1];
        assert_eq!(leaf.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(
            leaf.get("cat").and_then(Value::as_str),
            Some("engine_dense")
        );
        let args = leaf.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(args.get("count").and_then(Value::as_f64), Some(5.0));
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("parent")),
            Some(&Value::Null)
        );
    }
}
