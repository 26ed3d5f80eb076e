//! Chrome trace-event JSON export — loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Written through [`crate::json::Writer`] with a stable field order
//! (`name, cat, ph, ts, pid, tid, s, args`), one event per line, so
//! output is byte-reproducible for a given trace. Span events use
//! `ph:"B"/"E"`, point events `ph:"i"`, and frequency samples are
//! emitted as a multi-series counter track (`ph:"C"`, one series per
//! core) that Perfetto renders as per-core frequency lanes under the
//! same timeline as the spans.

use crate::attr::{AttrSample, AttrSource};
use crate::event::{EventKind, Trace, CORE_UNKNOWN, THREAD_GLOBAL};
use crate::json::Writer;

/// The `tid` used for engine-global events ([`THREAD_GLOBAL`]).
pub const GLOBAL_TID: u64 = 999_999;

fn tid_of(thread: u32) -> u64 {
    if thread == THREAD_GLOBAL {
        GLOBAL_TID
    } else {
        thread as u64
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

/// A `ph:"M"` metadata event naming the process or one thread track.
fn meta_event(w: &mut Writer, what: &str, tid: u64, name: &str) {
    w.brk("\n").begin_obj();
    w.key("name").str(what).key("ph").str("M").key("pid").u64(0).key("tid").u64(tid);
    w.key("args").begin_obj().key("name").str(name).end_obj().end_obj();
}

/// Open a timed event on its own line, up to and including `tid`. `ts`
/// is microseconds with nanosecond resolution.
fn begin_event(w: &mut Writer, name: &str, cat: &str, ph: &str, time_ns: u64, tid: u64) {
    w.brk("\n").begin_obj();
    w.key("name").str(name).key("cat").str(cat).key("ph").str(ph);
    w.key("ts").fixed(time_ns as f64 / 1000.0, 3).key("pid").u64(0).key("tid").u64(tid);
}

/// Open a `ph:"C"` counter sample and its `args` object of series.
fn begin_counter(w: &mut Writer, name: &str, cat: &str, time_ns: u64) {
    begin_event(w, name, cat, "C", time_ns, 0);
    w.key("args").begin_obj();
}

fn chrome_trace_full(
    trace: &Trace,
    freq_ghz: &[(u64, Vec<f32>)],
    attr_samples: &[AttrSample],
    label: &str,
    lane_prefix: &str,
) -> String {
    let mut w = Writer::new();
    w.begin_obj().key("displayTimeUnit").str("ns").key("traceEvents").begin_arr();

    // Metadata: process name, then one thread_name per tid seen.
    meta_event(&mut w, "process_name", 0, label);
    let mut tids: Vec<u32> = trace.events.iter().map(|e| e.thread).collect();
    tids.sort_unstable();
    tids.dedup();
    for t in tids {
        let name = if t == THREAD_GLOBAL {
            "runtime events".to_string()
        } else {
            format!("{lane_prefix} {t}")
        };
        meta_event(&mut w, "thread_name", tid_of(t), &name);
    }

    for ev in &trace.events {
        let (name, cat, ph) = match ev.kind {
            EventKind::Begin(k) => (k.name(), "span", "B"),
            EventKind::End(k) => (k.name(), "span", "E"),
            EventKind::Instant(k) => (k.name(), "instant", "i"),
        };
        begin_event(&mut w, name, cat, ph, ev.time_ns, tid_of(ev.thread));
        if ph == "i" {
            // Instant scope: thread-local when attributed, global else.
            w.key("s").str(if ev.thread == THREAD_GLOBAL { "g" } else { "t" });
        }
        if ph == "B" && ev.core != CORE_UNKNOWN {
            w.key("args").begin_obj().key("core").u64(ev.core as u64).end_obj();
        }
        w.end_obj();
    }

    // A counter track needs a number where the writer's rule for a
    // non-finite value is `null`: such a sample is drawn at 0.
    for (time_ns, cores) in freq_ghz {
        begin_counter(&mut w, "core_freq_ghz", "freq", *time_ns);
        for (c, ghz) in cores.iter().enumerate() {
            w.key(&format!("core{c}"));
            if ghz.is_finite() { w.f32(*ghz) } else { w.u64(0) };
        }
        w.end_obj().end_obj();
    }
    for sample in attr_samples {
        begin_counter(&mut w, "attr_cum_ms", "attr", sample.time_ns);
        for (src, ns) in AttrSource::ALL.iter().zip(sample.total_by_source) {
            let ms = ns / 1e6;
            w.key(src.name());
            if ms.is_finite() { w.f64(ms) } else { w.u64(0) };
        }
        w.end_obj().end_obj();
    }

    w.ws("\n").end_arr().end_obj().ws("\n");
    w.finish()
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

    /// Bytes pinned from the exporter this one replaced: span B/E with
    /// and without a core, thread and global instants, a frequency and
    /// an attribution counter sample, hostile label and lane prefix.
    #[test]
    fn hostile_fixture_bytes_are_pinned() {
        use crate::attr::{AttrSample, N_SOURCES};
        let ev = |time_ns, thread, core, kind| TraceEvent { time_ns, thread, core, kind };
        let trace = Trace::new(vec![
            ev(0, 1, 3, EventKind::Begin(SpanKind::Barrier)),
            ev(1, 1, 3, EventKind::End(SpanKind::Barrier)),
            ev(1_234_567, 0, CORE_UNKNOWN, EventKind::Begin(SpanKind::Barrier)),
            ev(u64::MAX, 0, CORE_UNKNOWN, EventKind::End(SpanKind::Barrier)),
            ev(2000, 1, 3, EventKind::Instant(InstantKind::FaultInjection)),
            ev(2001, THREAD_GLOBAL, CORE_UNKNOWN, EventKind::Instant(InstantKind::FaultInjection)),
        ]);
        let freq = vec![(0u64, vec![]), (1500, vec![2.1f32, -0.0, f32::MIN_POSITIVE / 2.0, f32::NAN])];
        let mut by = [0.0f64; N_SOURCES];
        by[0] = 2_000_000.0;
        by[1] = 5e-324;
        by[2] = f64::MAX;
        by[3] = f64::INFINITY;
        let attr = vec![AttrSample { time_ns: 999, total_by_source: by }];
        let label = "q\"b\\s\n\u{1}\u{2028}\u{1f600}";
        let doc = chrome_trace_full(&trace, &freq, &attr, label, "w\"k");
        assert_eq!(doc, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\"}},\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"w\\\"k 0\"}},\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"w\\\"k 1\"}},\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":999999,\"args\":{\"name\":\"runtime events\"}},\n{\"name\":\"barrier\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":0.000,\"pid\":0,\"tid\":1,\"args\":{\"core\":3}},\n{\"name\":\"barrier\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":0.001,\"pid\":0,\"tid\":1},\n{\"name\":\"barrier\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":1234.567,\"pid\":0,\"tid\":0},\n{\"name\":\"barrier\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":18446744073709552.000,\"pid\":0,\"tid\":0},\n{\"name\":\"fault_injection\",\"cat\":\"instant\",\"ph\":\"i\",\"ts\":2.000,\"pid\":0,\"tid\":1,\"s\":\"t\"},\n{\"name\":\"fault_injection\",\"cat\":\"instant\",\"ph\":\"i\",\"ts\":2.001,\"pid\":0,\"tid\":999999,\"s\":\"g\"},\n{\"name\":\"core_freq_ghz\",\"cat\":\"freq\",\"ph\":\"C\",\"ts\":0.000,\"pid\":0,\"tid\":0,\"args\":{}},\n{\"name\":\"core_freq_ghz\",\"cat\":\"freq\",\"ph\":\"C\",\"ts\":1.500,\"pid\":0,\"tid\":0,\"args\":{\"core0\":2.1,\"core1\":-0.0,\"core2\":5.877472e-39,\"core3\":0}},\n{\"name\":\"attr_cum_ms\",\"cat\":\"attr\",\"ph\":\"C\",\"ts\":0.999,\"pid\":0,\"tid\":0,\"args\":{\"preemption\":2.0,\"migration\":0.0,\"smt_corun\":1.797693134862316e302,\"subnominal_freq\":0,\"timer_tick\":0.0,\"fault_stall\":0.0,\"noise_delayed_arrival\":0.0,\"sync_contention\":0.0,\"mem_contention\":0.0,\"runtime_overhead\":0.0}}\n]}\n");
        parse(&doc).expect("valid JSON");
        assert_eq!(chrome_trace(&Trace::default(), &[], ""), "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"\"}}\n]}\n");
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
