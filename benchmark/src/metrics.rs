//! The benchmark's catalogue — workloads, end-to-end metrics, per-layer
//! metrics — and the result line every run ends with.
//!
//! `BENCHMARK.json` at the repo root repeats this catalogue for the
//! acceptance driver; a unit test holds the two together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A named workload and the one-line reason it exists.
pub struct WorkloadDef {
    /// Name; later issues cite it.
    pub name: &'static str,
    /// Which layer does the work, and what the workload is there to show.
    pub why: &'static str,
}

/// A metric's fixed description.
pub struct MetricDef {
    /// Name; later issues cite it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The workloads, in run order.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "paper_sweep",
        why: "the wall a reproducer sees: CLI `all --fast --jobs 2`; calibrated noisy-regime engine + epcc/stream drivers + harness do the work",
    },
    WorkloadDef {
        name: "fuzz_campaign",
        why: "CLI full-oracle fuzz at --jobs 2; tiny programs, so lowering, analyzer, oracles and native team spawn dominate and the event loop does little",
    },
    WorkloadDef {
        name: "engine_dense",
        why: "in-process sterile generator programs on one thread; interpreter-bound micro-op dispatch and queue pops, no tick/noise chains",
    },
    WorkloadDef {
        name: "journal_campaign",
        why: "write side of the supervisor: 4096 cheap units per round journaled through the 2-worker executor; checkpoint + fsio + obs::json work, engine almost none",
    },
    WorkloadDef {
        name: "journal_resume",
        why: "read side of the supervisor: resume_shards + replay of 4096 journaled units; beside journal_campaign so a gain on one side that costs the other shows",
    },
];

/// End-to-end metrics: every untraced run of every workload reports all
/// of them.
pub const END_TO_END: [MetricDef; 4] = [
    // Work completed per second of timed wall. The unit of work is the
    // workload's own: experiments (paper_sweep), fuzz cases
    // (fuzz_campaign), simulated region runs (engine_dense), campaign
    // units (journal_campaign, journal_resume).
    //
    // The bounds are chosen from the spreads observed on the 2-core
    // sandbox over ten seeds (README, "Observed spread"): a bound below
    // three times a metric's own quartile spread would flag noise.
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
    e2e("table2_max_rel_err_pct", "%", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Per-layer metrics: every traced run reports all of them; a layer the
/// workload does not call reads 0.
pub const PER_LAYER: [MetricDef; 58] = [
    // sim + rt.simrt, on each workload's own use of the simulator.
    layer("sim.events", "count", Lower),
    layer("sim.events_per_run", "count", Lower),
    layer("sim.ns_per_event", "ns", Lower),
    layer("sim.virtual_s_per_host_s", "s/s", Higher),
    layer("rt.simrt.run_us_p50", "us", Lower),
    layer("rt.simrt.run_us_p99", "us", Lower),
    // engine_dense.
    layer("sim.expected_deadlocks", "count", Lower),
    layer("sim.trace_cost_share", "fraction", Lower),
    layer("obs.attr_cost_share", "fraction", Lower),
    layer("obs.trace_events_per_run", "count", Lower),
    // paper_sweep.
    layer("harness.table2.wall_s", "s", Lower),
    layer("harness.fig1.wall_s", "s", Lower),
    layer("harness.fig2.wall_s", "s", Lower),
    layer("harness.fig3.wall_s", "s", Lower),
    layer("harness.fig4.wall_s", "s", Lower),
    layer("harness.fig5.wall_s", "s", Lower),
    layer("harness.fig6.wall_s", "s", Lower),
    layer("harness.fig7.wall_s", "s", Lower),
    layer("harness.ablation.wall_s", "s", Lower),
    layer("harness.taskbench.wall_s", "s", Lower),
    layer("harness.chunks.wall_s", "s", Lower),
    layer("harness.extensions.wall_s", "s", Lower),
    layer("harness.sweep_wall_s", "s", Lower),
    layer("harness.critical_path_share", "fraction", Lower),
    // fuzz_campaign.
    layer("qcheck.gen.us_per_case", "us", Lower),
    layer("analyze.us_per_case", "us", Lower),
    layer("analyze.diags_per_case", "count", Lower),
    layer("rt.native.us_per_run", "us", Lower),
    layer("obs.wellformed.us_per_trace", "us", Lower),
    layer("qcheck.check_case.us_p50", "us", Lower),
    layer("qcheck.check_case.us_p99", "us", Lower),
    layer("qcheck.oracle.other_us_per_case", "us", Lower),
    layer("qcheck.native_share", "fraction", Lower),
    layer("qcheck.flagged_share", "fraction", Lower),
    // Native construct overhead at 2 pinned threads: informational,
    // too noisy on shared hardware to gate (see README).
    layer("rt.native.parallel_overhead_us", "us", Lower),
    layer("rt.native.for_overhead_us", "us", Lower),
    layer("rt.native.barrier_overhead_us", "us", Lower),
    layer("rt.native.single_overhead_us", "us", Lower),
    layer("rt.native.ordered_overhead_us", "us", Lower),
    layer("rt.native.reduction_overhead_us", "us", Lower),
    // journal_campaign.
    layer("supervisor.unit_body_us", "us", Lower),
    layer("supervisor.exec.nojournal_us_per_unit", "us", Lower),
    layer("supervisor.journal.us_per_unit", "us", Lower),
    layer("supervisor.journal_cost_share", "fraction", Lower),
    layer("supervisor.checkpoint.append_us", "us", Lower),
    layer("supervisor.checkpoint.bytes_per_unit", "B", Lower),
    layer("supervisor.fsio.atomic_write_us", "us", Lower),
    layer("supervisor.exec.jobs2_speedup", "ratio", Higher),
    layer("supervisor.exec.steals", "count", Lower),
    layer("obs.chrome.export_ms", "ms", Lower),
    layer("obs.chrome.bytes", "B", Lower),
    // journal_resume.
    layer("supervisor.checkpoint.resume_us_per_entry", "us", Lower),
    layer("supervisor.exec.replay_us_per_unit", "us", Lower),
    layer("obs.json.parse_mb_per_s", "MB/s", Higher),
    layer("supervisor.resume_scaling_exp", "exponent", Lower),
    // The traced run itself.
    layer("trace.spans", "count", Lower),
    layer("trace.cover_share", "fraction", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// As measured, all digits.
    pub value: f64,
}

/// Shorthand constructor.
pub fn m(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

/// What one run of one workload found.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (checks, cases, runs, units).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness gates that did not hold; empty means correct.
    pub gate_failures: Vec<String>,
    /// Measured catalogue metrics.
    pub metrics: Vec<Metric>,
    /// Further named numbers for the human-readable listing only
    /// (`name`, rendered value, unit): digests, sample counts, quartiles.
    pub info: Vec<(&'static str, String, &'static str)>,
}

impl RunResult {
    /// A run is correct when every gate held and nothing failed.
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0
    }
}

/// Arrange `measured` in `catalogue` order, 0 for a metric the workload
/// does not produce. A measured name outside the catalogue or a
/// non-finite value is a bug in the benchmark and an error.
pub fn complete(
    catalogue: &[MetricDef],
    measured: &[Metric],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    for x in measured {
        if !catalogue.iter().any(|d| d.name == x.name) {
            return Err(format!("metric {} is not in the catalogue", x.name));
        }
        if !x.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", x.name, x.value));
        }
    }
    Ok(catalogue
        .iter()
        .map(|d| {
            let v = measured
                .iter()
                .find(|x| x.name == d.name)
                .map_or(0.0, |x| x.value);
            (d.name, v, d.unit)
        })
        .collect())
}

/// The final stdout line of a run: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`. Written by hand because
/// `attempted` and `failed` must print as whole numbers.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompvar_obs::json::{self, Value};

    fn well_named(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            names.push(d.name);
            assert!(well_named(d.unit, 16, "_/%.-"), "unit {:?}", d.unit);
        }
        for n in &names {
            assert!(well_named(n, 64, "_.-"), "name {n:?}");
            assert!(
                n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()),
                "name {n:?}"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        for d in &END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "bound of {}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; the
    /// catalogue above is what the program emits. They must agree.
    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Value::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("array")
                .to_vec()
        };
        let text = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .expect("string")
                .to_string()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (v, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(
                (text(v, "name"), text(v, "why")),
                (w.name.to_string(), w.why.to_string())
            );
        }
        for (key, catalogue, bounded) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), catalogue.len(), "{key}");
            for (v, d) in listed.iter().zip(catalogue) {
                assert_eq!(text(v, "name"), d.name);
                assert_eq!(text(v, "unit"), d.unit, "{}", d.name);
                let better = if d.better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                assert_eq!(text(v, "better"), better, "{}", d.name);
                assert_eq!(
                    v.get("bound").and_then(Value::as_f64),
                    bounded.then_some(d.bound),
                    "{}",
                    d.name
                );
            }
        }
    }

    #[test]
    fn result_line_round_trips_through_obs_json() {
        let measured = [m("work_per_s", 9312.4471), m("setup_s", 0.81)];
        let metrics = complete(&END_TO_END, &measured).expect("catalogue names");
        let line = result_line(true, 131072, 0, &metrics);
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("result line parses");
        let Value::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(131072.0));
        // Whole numbers print without a fraction.
        assert!(line.contains("\"attempted\": 131072,"));
        let got = doc.get("metrics").expect("metrics");
        assert_eq!(
            got.get("work_per_s")
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64),
            Some(9312.4471)
        );
        assert_eq!(
            got.get("work_per_s")
                .and_then(|v| v.get("unit"))
                .and_then(Value::as_str),
            Some("1/s")
        );
        // Unmeasured catalogue entries are present and read 0.
        assert_eq!(
            got.get("peak_rss_mb")
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn complete_rejects_unknown_names_and_non_finite_values() {
        assert!(complete(&END_TO_END, &[m("no_such_metric", 1.0)]).is_err());
        assert!(complete(&END_TO_END, &[m("setup_s", f64::NAN)]).is_err());
    }
}
