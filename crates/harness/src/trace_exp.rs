//! The `trace` experiment: record a construct-span timeline on both
//! backends, export Chrome trace-event JSON (Perfetto-loadable), and
//! report per-construct latency percentiles.
//!
//! The simulated run exercises everything the tracer can see: a mixed
//! region (barrier, dynamic for with ordered, critical, single,
//! reduction, tasks) on pinned Vera cores with the frequency logger on a
//! spare core — its samples become the per-core `core_freq_ghz` counter
//! track — plus an injected noise storm so fault-injection and
//! noise-preemption instants appear on the timeline. The native run
//! covers the same constructs unpinned (CI-safe).
//!
//! Two Chrome traces are written: the simulated one to `--trace` (or
//! `<out_dir>/trace.json`) and the native one next to it with a
//! `.native.json` suffix. The checks assert structural well-formedness
//! (every begin matched, LIFO nesting, monotone per-thread time),
//! construct coverage, and that the instant counts on the timeline agree
//! exactly with the engine's own counters.

use crate::common::{Check, ExpOptions, ExpReport, Platform};
use ompvar_core::Table;
use ompvar_obs::{chrome_trace, wellformed, InstantKind, SpanKind, Trace};
use ompvar_rt::config::{RegionResult, RtConfig};
use ompvar_rt::native::NativeRuntime;
use ompvar_rt::region::{Construct, RegionSpec, Schedule};
use ompvar_rt::simrt::FreqLoggerCfg;
use ompvar_sim::fault::FaultPlan;
use ompvar_sim::time::{SEC, US};
use std::path::{Path, PathBuf};
use std::time::Duration;

const PLATFORM: Platform = Platform::Vera;
const THREADS: usize = 4;

/// A region touching every traced construct kind.
fn mixed_region(n: usize, reps: u32) -> RegionSpec {
    RegionSpec::measured(
        n,
        reps,
        1,
        vec![
            Construct::Barrier,
            Construct::ParallelFor {
                schedule: Schedule::Dynamic { chunk: 1 },
                total_iters: 128,
                body_us: 0.5,
                ordered_us: Some(0.1),
                nowait: false,
            },
            Construct::Critical { body_us: 0.2 },
            Construct::Single { body_us: 0.2 },
            Construct::Reduction { body_us: 0.2 },
            Construct::Tasks {
                per_spawner: 4,
                body_us: 0.2,
                master_only: false,
            },
        ],
    )
}

/// The native trace lands next to the simulated one: `x.json` →
/// `x.native.json`.
fn native_path(sim: &Path) -> PathBuf {
    let stem = sim.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    sim.with_file_name(format!("{stem}.native.json"))
}

/// Per-construct percentile table from a traced result.
fn span_table(title: &str, res: &RegionResult) -> Table {
    let mut t = Table::new(title, &["construct", "count", "p50", "p95", "p99", "max"]);
    let us = |ns: u64| format!("{:.3} µs", ns as f64 / 1000.0);
    for (kind, s) in res.span_stats() {
        t.row(&[
            kind.name().to_string(),
            s.count.to_string(),
            us(s.p50_ns),
            us(s.p95_ns),
            us(s.p99_ns),
            us(s.max_ns),
        ]);
    }
    t
}

/// Structural checks shared by both backends' traces.
fn trace_checks(checks: &mut Vec<Check>, backend: &str, trace: &Trace, n_threads: usize) {
    let wf = wellformed::check(trace);
    checks.push(Check::new(
        &format!("{backend} trace is well-formed"),
        wf.is_ok(),
        match &wf {
            Ok(spans) => format!("{} events, {} paired spans", trace.len(), spans.len()),
            Err(errs) => format!("{} violation(s), first: {}", errs.len(), errs[0]),
        },
    ));
    let constructs: Vec<SpanKind> = SpanKind::ALL
        .iter()
        .copied()
        .filter(|k| k.is_construct())
        .collect();
    let missing: Vec<&str> = constructs
        .iter()
        .filter(|k| trace.count_of(**k) == 0)
        .map(|k| k.name())
        .collect();
    checks.push(Check::new(
        &format!("{backend} trace covers every construct kind"),
        missing.is_empty(),
        if missing.is_empty() {
            format!(
                "all {} kinds present, {} region span(s)",
                constructs.len(),
                trace.count_of(SpanKind::Region)
            )
        } else {
            format!("missing: {}", missing.join(", "))
        },
    ));
    checks.push(Check::new(
        &format!("{backend} trace has one region span per thread"),
        trace.count_of(SpanKind::Region) == n_threads,
        format!(
            "{} region span(s) for {n_threads} thread(s)",
            trace.count_of(SpanKind::Region)
        ),
    ));
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let mut checks = Vec::new();
    let mut tables = Vec::new();
    let sim_path = opts
        .trace_path
        .clone()
        .unwrap_or_else(|| opts.out_dir.join("trace.json"));

    // Simulated backend: pinned NUMA-0 cores, frequency logger on a
    // spare core, default (noisy) parameters so DVFS retargets happen,
    // plus a machine-wide noise storm starting 50 µs in. The run is
    // sub-millisecond, so the logger polls far faster (20 µs) than the
    // paper's 2 ms sysfs logger to land samples on the short timeline.
    let reps = if opts.fast { 4 } else { 10 };
    let region = mixed_region(THREADS, reps);
    let storm = FaultPlan::new().noise_storm(50 * US, SEC, 20 * US, 50 * US, 0.3);
    let logger_cpu = PLATFORM.machine().n_cores() - 1;
    let sim = PLATFORM
        .numa_rt(&[0], THREADS)
        .with_freq_logger(FreqLoggerCfg {
            cpu: Some(logger_cpu),
            period: 20 * US,
            cost: US,
        })
        .with_faults(storm)
        .with_time_limit(30 * SEC)
        .with_tracing(true)
        .with_attribution(opts.attr)
        .run(&region, opts.seed);
    match sim {
        Ok(res) => {
            let trace = res.trace.as_ref().expect("traced sim run records a trace");
            trace_checks(&mut checks, "sim", trace, THREADS);
            // Timeline instants must agree exactly with the engine's own
            // counters — the trace is a faithful account, not a sample.
            let counters = res.counters.as_ref().expect("sim run has counters");
            for (kind, have, label) in [
                (
                    InstantKind::FaultInjection,
                    counters.faults_injected,
                    "fault injections",
                ),
                (
                    InstantKind::NoisePreemption,
                    counters.preemptions,
                    "noise preemptions",
                ),
                (
                    InstantKind::FreqRetarget,
                    counters.freq_transitions,
                    "frequency retargets",
                ),
            ] {
                let seen = trace.instants_of(kind);
                checks.push(Check::new(
                    &format!("sim timeline {label} match engine counter"),
                    seen as u64 == have,
                    format!("{seen} instant(s) vs counter {have}"),
                ));
            }
            checks.push(Check::new(
                "noise storm lands on the timeline",
                counters.faults_injected > 0,
                format!("{} fault injection(s)", counters.faults_injected),
            ));
            checks.push(Check::new(
                "frequency logger sampled the cores",
                !res.freq_samples.is_empty(),
                format!("{} sample(s)", res.freq_samples.len()),
            ));
            let freq: Vec<(u64, Vec<f32>)> = res
                .freq_samples
                .iter()
                .map(|s| (s.time, s.core_ghz.clone()))
                .collect();
            // With `--attr` the exported timeline gains the per-source
            // cumulative attribution counter tracks; the span/instant
            // events themselves are identical either way (attribution is
            // observation-only).
            let label = "ompvar sim (Vera, numa0, noise storm)";
            let doc = match &res.attribution {
                Some(attr) => ompvar_obs::chrome_trace_attr(trace, &freq, &attr.samples, label),
                None => chrome_trace(trace, &freq, label),
            };
            if let Some(attr) = &res.attribution {
                checks.push(Check::new(
                    "attribution ledger recorded under --attr",
                    !attr.samples.is_empty() && attr.threads.len() == THREADS,
                    format!(
                        "{} ledger sample(s), {} thread(s)",
                        attr.samples.len(),
                        attr.threads.len()
                    ),
                ));
            }
            checks.push(Check::wrote("sim Chrome trace written", &sim_path, &doc));
            tables.push(span_table(
                "Trace: per-construct span latency percentiles, sim (Vera)",
                &res,
            ));
        }
        Err(e) => checks.push(Check::new("sim traced run completes", false, e.to_string())),
    }

    // Native backend: same constructs, unpinned, 2 threads (CI-safe).
    let native = NativeRuntime::new(RtConfig::unbound())
        .with_deadline(Some(Duration::from_secs(30)))
        .with_tracing(true)
        .run(&mixed_region(2, 2.min(reps)));
    match native {
        Ok(res) => {
            let trace = res.trace.as_ref().expect("traced native run records a trace");
            trace_checks(&mut checks, "native", trace, 2);
            let doc = chrome_trace(trace, &[], "ompvar native (unbound)");
            let path = native_path(&sim_path);
            checks.push(Check::wrote("native Chrome trace written", &path, &doc));
            tables.push(span_table(
                "Trace: per-construct span latency percentiles, native",
                &res,
            ));
        }
        Err(e) => checks.push(Check::new(
            "native traced run completes",
            false,
            e.to_string(),
        )),
    }

    ExpReport::new("trace", tables, checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompvar_obs::json::{parse, Value};

    #[test]
    fn fast_mode_shapes_hold_and_traces_parse() {
        let out = std::env::temp_dir().join("ompvar_trace_exp_test");
        let opts = ExpOptions {
            trace_path: Some(out.join("t.json")),
            ..ExpOptions::fast()
        };
        let rep = run(&opts);
        assert!(rep.all_passed(), "trace checks failed:\n{}", rep.render());
        // Both exported documents are valid JSON with span events.
        for p in [out.join("t.json"), out.join("t.native.json")] {
            let doc = std::fs::read_to_string(&p).expect("trace file written");
            let v = parse(&doc).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            let events = v.get("traceEvents").and_then(Value::as_arr).expect("array");
            assert!(
                events
                    .iter()
                    .any(|e| e.get("ph").and_then(Value::as_str) == Some("B")),
                "{} has no span begins",
                p.display()
            );
        }
        // The sim document carries the frequency counter track.
        let sim_doc = std::fs::read_to_string(out.join("t.json")).unwrap();
        assert!(sim_doc.contains("\"core_freq_ghz\""), "no counter track");
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn attr_flag_adds_counter_tracks() {
        let out = std::env::temp_dir().join("ompvar_trace_exp_attr_test");
        let opts = ExpOptions {
            trace_path: Some(out.join("t.json")),
            attr: true,
            ..ExpOptions::fast()
        };
        let rep = run(&opts);
        assert!(rep.all_passed(), "trace --attr checks failed:\n{}", rep.render());
        let sim_doc = std::fs::read_to_string(out.join("t.json")).unwrap();
        assert!(sim_doc.contains("\"attr_cum_ms\""), "no attribution counter track");
        parse(&sim_doc).expect("valid chrome trace with attribution tracks");
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn native_path_is_a_sibling() {
        assert_eq!(
            native_path(Path::new("/x/out.json")),
            Path::new("/x/out.native.json")
        );
    }
}
