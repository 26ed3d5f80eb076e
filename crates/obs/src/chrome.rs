//! Chrome trace-event JSON export — loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Hand-rolled serializer (no external dependencies) with a stable field
//! order (`name, cat, ph, ts, pid, tid, s, args`) so output is
//! byte-reproducible for a given trace. Span events use `ph:"B"/"E"`,
//! point events `ph:"i"`, and frequency samples are emitted as a
//! multi-series counter track (`ph:"C"`, one series per core) that
//! Perfetto renders as per-core frequency lanes under the same timeline
//! as the spans.

use crate::attr::{AttrSample, AttrSource};
use crate::event::{EventKind, Trace, CORE_UNKNOWN, THREAD_GLOBAL};
use crate::json::escape;

/// The `tid` used for engine-global events ([`THREAD_GLOBAL`]).
pub const GLOBAL_TID: u64 = 999_999;

fn tid_of(thread: u32) -> u64 {
    if thread == THREAD_GLOBAL {
        GLOBAL_TID
    } else {
        thread as u64
    }
}

/// Microseconds with nanosecond resolution, the unit of the `ts` field.
fn ts_us(time_ns: u64) -> String {
    format!("{:.3}", time_ns as f64 / 1000.0)
}

fn fmt_f32(v: f32) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Serialize a trace (plus optional per-core frequency samples) to a
/// Chrome trace-event JSON document.
///
/// `freq_ghz` holds `(time_ns, per-core GHz)` samples, typically the
/// simulated frequency logger's output; pass `&[]` when there is none.
/// `label` names the process in the viewer (it is escaped, so any string
/// is safe).
pub fn chrome_trace(trace: &Trace, freq_ghz: &[(u64, Vec<f32>)], label: &str) -> String {
    chrome_trace_lanes(trace, freq_ghz, label, "omp thread")
}

/// [`chrome_trace`] with a custom per-lane thread-name prefix. The
/// parallel campaign executor exports its merged supervisor trace with
/// prefix `"worker"`, so the viewer shows `worker 0`, `worker 1`, …
/// tracks instead of mislabelling executor lanes as OpenMP threads.
pub fn chrome_trace_lanes(
    trace: &Trace,
    freq_ghz: &[(u64, Vec<f32>)],
    label: &str,
    lane_prefix: &str,
) -> String {
    chrome_trace_full(trace, freq_ghz, &[], label, lane_prefix)
}

/// [`chrome_trace`] plus per-source attribution counter tracks: each
/// [`AttrSample`] becomes one multi-series `ph:"C"` sample
/// (`attr_cum_ms`, one series per [`AttrSource`], cumulative
/// milliseconds charged across all threads) so Perfetto renders "where
/// did my time go" as stacked counter lanes under the span timeline.
pub fn chrome_trace_attr(
    trace: &Trace,
    freq_ghz: &[(u64, Vec<f32>)],
    attr_samples: &[AttrSample],
    label: &str,
) -> String {
    chrome_trace_full(trace, freq_ghz, attr_samples, label, "omp thread")
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn attr_counter_event(sample: &AttrSample) -> String {
    let mut s = format!(
        "{{\"name\":\"attr_cum_ms\",\"cat\":\"attr\",\"ph\":\"C\",\"ts\":{},\
         \"pid\":0,\"tid\":0,\"args\":{{",
        ts_us(sample.time_ns)
    );
    for (i, &src) in AttrSource::ALL.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\"{}\":{}",
            src.name(),
            fmt_f64(sample.total_by_source[i] / 1e6)
        ));
    }
    s.push_str("}}");
    s
}

fn chrome_trace_full(
    trace: &Trace,
    freq_ghz: &[(u64, Vec<f32>)],
    attr_samples: &[AttrSample],
    label: &str,
    lane_prefix: &str,
) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&ev);
    };

    // Metadata: process name, then one thread_name per tid seen.
    push(
        &mut out,
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(label)
        ),
    );
    let mut tids: Vec<u32> = trace.events.iter().map(|e| e.thread).collect();
    tids.sort_unstable();
    tids.dedup();
    for t in tids {
        let name = if t == THREAD_GLOBAL {
            "runtime events".to_string()
        } else {
            format!("{lane_prefix} {t}")
        };
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                tid_of(t),
                escape(&name)
            ),
        );
    }

    for ev in &trace.events {
        let (name, cat, ph) = match ev.kind {
            EventKind::Begin(k) => (k.name(), "span", "B"),
            EventKind::End(k) => (k.name(), "span", "E"),
            EventKind::Instant(k) => (k.name(), "instant", "i"),
        };
        let mut s = format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":0,\"tid\":{}",
            name,
            cat,
            ph,
            ts_us(ev.time_ns),
            tid_of(ev.thread)
        );
        if ph == "i" {
            // Instant scope: thread-local when attributed, global else.
            let scope = if ev.thread == THREAD_GLOBAL { "g" } else { "t" };
            s.push_str(&format!(",\"s\":\"{scope}\""));
        }
        if ph == "B" && ev.core != CORE_UNKNOWN {
            s.push_str(&format!(",\"args\":{{\"core\":{}}}", ev.core));
        }
        s.push('}');
        push(&mut out, s);
    }

    for (time_ns, cores) in freq_ghz {
        let mut s = format!(
            "{{\"name\":\"core_freq_ghz\",\"cat\":\"freq\",\"ph\":\"C\",\"ts\":{},\
             \"pid\":0,\"tid\":0,\"args\":{{",
            ts_us(*time_ns)
        );
        for (c, ghz) in cores.iter().enumerate() {
            if c > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"core{c}\":{}", fmt_f32(*ghz)));
        }
        s.push_str("}}");
        push(&mut out, s);
    }

    for sample in attr_samples {
        push(&mut out, attr_counter_event(sample));
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, InstantKind, SpanKind, TraceEvent};
    use crate::json::{parse, Value};

    fn demo_trace() -> Trace {
        Trace::new(vec![
            TraceEvent {
                time_ns: 1500,
                thread: 0,
                core: 3,
                kind: EventKind::Begin(SpanKind::Barrier),
            },
            TraceEvent {
                time_ns: 2750,
                thread: 0,
                core: 3,
                kind: EventKind::End(SpanKind::Barrier),
            },
            TraceEvent {
                time_ns: 2000,
                thread: THREAD_GLOBAL,
                core: CORE_UNKNOWN,
                kind: EventKind::Instant(InstantKind::FaultInjection),
            },
        ])
    }

    #[test]
    fn output_is_valid_json_with_expected_events() {
        let freq = vec![(0u64, vec![3.5f32, 2.0]), (1000, vec![3.4, 2.0])];
        let doc = chrome_trace(&demo_trace(), &freq, "demo run");
        let v = parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_arr).expect("array");
        // 2 meta-threads + process meta + 3 events + 2 counter samples.
        assert_eq!(events.len(), 8);
        let phases: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(Value::as_str)).collect();
        assert_eq!(phases.iter().filter(|p| **p == "B").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "E").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "C").count(), 2);
        // Counter sample carries one series per core.
        let counter = events.iter().find(|e| e.get("ph").and_then(Value::as_str) == Some("C"));
        let args = counter.unwrap().get("args").unwrap();
        assert_eq!(args.get("core0").and_then(Value::as_f64), Some(3.5));
        assert_eq!(args.get("core1").and_then(Value::as_f64), Some(2.0));
        // ts is microseconds: 1500 ns -> 1.5 us.
        let begin = events.iter().find(|e| e.get("ph").and_then(Value::as_str) == Some("B"));
        assert_eq!(begin.unwrap().get("ts").and_then(Value::as_f64), Some(1.5));
        assert_eq!(begin.unwrap().get("args").unwrap().get("core").and_then(Value::as_f64), Some(3.0));
    }

    #[test]
    fn field_order_is_stable_and_output_reproducible() {
        let doc1 = chrome_trace(&demo_trace(), &[], "x");
        let doc2 = chrome_trace(&demo_trace(), &[], "x");
        assert_eq!(doc1, doc2);
        // Span events carry fields in the documented order.
        assert!(
            doc1.contains("{\"name\":\"barrier\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":1.500,\"pid\":0,\"tid\":0,\"args\":{\"core\":3}}"),
            "{doc1}"
        );
        // Global instants land on the reserved tid with global scope.
        assert!(doc1.contains(&format!("\"tid\":{GLOBAL_TID},\"s\":\"g\"")), "{doc1}");
    }

    #[test]
    fn labels_are_escaped() {
        let doc = chrome_trace(&Trace::default(), &[], "we \"said\" \\ hi\n");
        let v = parse(&doc).expect("valid JSON despite hostile label");
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        let name = events[0].get("args").unwrap().get("name").and_then(Value::as_str);
        assert_eq!(name, Some("we \"said\" \\ hi\n"));
    }

    #[test]
    fn lane_prefix_renames_thread_tracks_only() {
        let doc = chrome_trace_lanes(&demo_trace(), &[], "exec", "worker");
        parse(&doc).expect("valid JSON");
        assert!(doc.contains("\"name\":\"worker 0\""), "{doc}");
        assert!(doc.contains("\"name\":\"runtime events\""), "{doc}");
        assert!(!doc.contains("omp thread"), "{doc}");
        // The default entry point is unchanged.
        assert!(chrome_trace(&demo_trace(), &[], "x").contains("\"name\":\"omp thread 0\""));
    }

    #[test]
    fn nonfinite_frequencies_are_sanitized() {
        let doc = chrome_trace(&Trace::default(), &[(0, vec![f32::NAN])], "x");
        parse(&doc).expect("still valid JSON");
        assert!(doc.contains("\"core0\":0"), "{doc}");
    }

    #[test]
    fn attr_counter_tracks_are_valid_and_per_source() {
        use crate::attr::{AttrSample, AttrSource, N_SOURCES};
        let mut by = [0.0f64; N_SOURCES];
        by[AttrSource::Preemption.index()] = 2_000_000.0; // 2 ms
        let samples = vec![
            AttrSample { time_ns: 0, total_by_source: [0.0; N_SOURCES] },
            AttrSample { time_ns: 1_000_000, total_by_source: by },
        ];
        let doc = chrome_trace_attr(&demo_trace(), &[], &samples, "attr run");
        let v = parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("attr_cum_ms"))
            .collect();
        assert_eq!(counters.len(), 2);
        let args = counters[1].get("args").unwrap();
        assert_eq!(args.get("preemption").and_then(Value::as_f64), Some(2.0));
        assert_eq!(args.get("sync_contention").and_then(Value::as_f64), Some(0.0));
        // Every source appears as a series.
        for s in AttrSource::ALL {
            assert!(args.get(s.name()).is_some(), "{}", s.name());
        }
        // Reproducible, and the plain exporters are unchanged by the refactor.
        assert_eq!(doc, chrome_trace_attr(&demo_trace(), &[], &samples, "attr run"));
        assert_eq!(
            chrome_trace(&demo_trace(), &[], "x"),
            chrome_trace_full(&demo_trace(), &[], &[], "x", "omp thread")
        );
    }
}
