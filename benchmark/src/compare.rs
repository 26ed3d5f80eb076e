//! `--compare A.json B.json`: one row per workload × end-to-end metric,
//! judged against the bounds the catalogue fixes.
//!
//! This is the tool for "two sets of runs agree" and for every later
//! change's table: A is the base (the parent commit), B the new side.

use crate::metrics::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats::quartiles;
use ompvar_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Numbers that repeat exactly for one seed: two result files of the
/// same seed must agree on them to the last digit.
const EXACT: [&str; 6] = [
    "table2_max_rel_err_pct",
    "sweep_csv_digest",
    "sweep_checks",
    "dense_events",
    "dense_expected_deadlocks",
    "dense_wall_digest",
];

/// Runs a side needs before `better` is said at all: with three runs a
/// side, every new run beats every base run once in twenty by chance
/// alone, and on a drifting machine far more often.
const MIN_RUNS_FOR_BETTER: usize = 10;

/// How the new side reads against the base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the base's own run-to-run spread, every new
    /// run beating every base run, at least ten runs a side.
    Better,
    /// Within the bound, and not resolvably better.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run quartile spread is wider than the bound, so the
    /// runs cannot tell.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Median of the base runs.
    pub base: f64,
    /// Median of the new runs.
    pub new: f64,
    /// Larger of the two sides' quartile spreads, as a share of the
    /// side's median.
    pub spread: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judge `new` runs against `base` runs of one metric.
pub fn judge(def: &MetricDef, base: &[f64], new: &[f64]) -> Row {
    let spread_of = |xs: &[f64]| {
        let (q1, q2, q3) = quartiles(xs);
        (q2, if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() })
    };
    let (base_med, base_spread) = spread_of(base);
    let (new_med, new_spread) = spread_of(new);
    let spread = base_spread.max(new_spread);
    let better_than = |a: f64, b: f64| match def.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    // Signed share of the base's median by which the new side is worse.
    let worse_by = if base_med == 0.0 {
        0.0
    } else {
        match def.better {
            Better::Lower => (new_med - base_med) / base_med.abs(),
            Better::Higher => (base_med - new_med) / base_med.abs(),
        }
    };
    let dominates = new.iter().all(|&n| base.iter().all(|&b| better_than(n, b)));
    let enough_runs = base.len().min(new.len()) >= MIN_RUNS_FOR_BETTER;
    let verdict = if spread > def.bound && !dominates {
        // Too noisy to call, unless every new run beats every base run.
        Verdict::Unresolved
    } else if spread <= def.bound && worse_by > def.bound {
        Verdict::Worse
    } else if dominates && enough_runs && -worse_by > base_spread {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row {
        base: base_med,
        new: new_med,
        spread,
        verdict,
    }
}

/// One results file: end-to-end values per (workload, metric) over its
/// untraced runs, and the exact numbers per (workload, name).
struct Results {
    seed: f64,
    values: BTreeMap<(String, String), Vec<f64>>,
    exact: BTreeMap<(String, String), Vec<String>>,
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse(text: &str) -> Result<Results, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(Value::as_str) != Some(crate::RESULTS_SCHEMA) {
        return Err(format!("not an {} document", crate::RESULTS_SCHEMA));
    }
    let mut r = Results {
        seed: doc.get("seed").and_then(Value::as_f64).ok_or("no seed")?,
        values: BTreeMap::new(),
        exact: BTreeMap::new(),
    };
    for run in doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("no runs array")?
    {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without workload")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or("run without metrics")?;
        for def in &END_TO_END {
            let v = metrics
                .get(def.name)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            let v = v.ok_or_else(|| format!("{workload}: no {}", def.name))?;
            r.values
                .entry((workload.into(), def.name.into()))
                .or_default()
                .push(v);
            if EXACT.contains(&def.name) {
                r.exact
                    .entry((workload.into(), def.name.into()))
                    .or_default()
                    .push(v.to_string());
            }
        }
        if let Some(Value::Obj(info)) = run.get("info") {
            for (name, v) in info.iter().filter(|(n, _)| EXACT.contains(&n.as_str())) {
                let v = v
                    .as_str()
                    .ok_or_else(|| format!("{workload}: info {name} is not a string"))?;
                r.exact
                    .entry((workload.into(), name.clone()))
                    .or_default()
                    .push(v.into());
            }
        }
    }
    Ok(r)
}

/// Print the comparison; `Ok(true)` when nothing is worse, unresolved
/// or — for two files of one seed — different where it must be equal.
pub fn run(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let mut agree = true;
    println!(
        "base = {base_path} (seed {}), new = {new_path} (seed {}); ratio = new / base",
        base.seed, new.seed
    );
    println!(
        "{:<17} {:<23} {:>14} {:>14} {:>7} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio", "spread", "bound"
    );
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let key = (w.name.to_string(), def.name.to_string());
            let (Some(b), Some(n)) = (base.values.get(&key), new.values.get(&key)) else {
                continue;
            };
            let row = judge(def, b, n);
            agree &= !matches!(row.verdict, Verdict::Worse | Verdict::Unresolved);
            println!(
                "{:<17} {:<23} {:>14.6} {:>14.6} {:>7.4} {:>7.4} {:>7.2}  {} ({} vs {} run(s))",
                w.name,
                def.name,
                row.base,
                row.new,
                row.new / row.base,
                row.spread,
                def.bound,
                row.verdict,
                b.len(),
                n.len()
            );
        }
    }
    if base.seed == new.seed {
        for (key, b) in &base.exact {
            let Some(n) = new.exact.get(key) else {
                continue;
            };
            let equal = b.iter().chain(n).all(|v| v == &b[0]);
            agree &= equal;
            println!(
                "{:<17} {:<23} {:>14} {}",
                key.0,
                key.1,
                b[0],
                if equal { "equal" } else { "DIFFERS" }
            );
        }
    } else {
        println!("seeds differ: exact numbers not compared");
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "x",
            unit: "u",
            better,
            bound,
        }
    }

    #[test]
    fn same_when_within_bound_and_spread() {
        let row = judge(
            &def(Better::Higher, 0.10),
            &[100.0, 101.0, 99.0],
            &[100.5, 99.5, 101.5],
        );
        assert_eq!(row.verdict, Verdict::Same);
        assert_eq!((row.base, row.new), (100.0, 100.5));
    }

    #[test]
    fn worse_beyond_the_bound_in_either_direction_of_better() {
        let higher = judge(
            &def(Better::Higher, 0.10),
            &[100.0, 101.0, 99.0],
            &[85.0, 86.0, 84.0],
        );
        assert_eq!(higher.verdict, Verdict::Worse);
        let lower = judge(
            &def(Better::Lower, 0.10),
            &[10.0, 10.1, 9.9],
            &[11.5, 11.6, 11.4],
        );
        assert_eq!(lower.verdict, Verdict::Worse);
        // The same move is fine when larger is better, but three runs a
        // side are too few to call it better.
        let fine = judge(
            &def(Better::Higher, 0.10),
            &[10.0, 10.1, 9.9],
            &[11.5, 11.6, 11.4],
        );
        assert_eq!(fine.verdict, Verdict::Same);
    }

    #[test]
    fn unresolved_when_spread_exceeds_bound_unless_every_run_wins() {
        let noisy = judge(
            &def(Better::Lower, 0.05),
            &[10.0, 14.0, 8.0],
            &[10.5, 13.0, 9.0],
        );
        assert_eq!(noisy.verdict, Verdict::Unresolved);
        assert!(noisy.spread > 0.05);
        // Every new run beats every base run: resolved, though three
        // runs a side only ever say "no regression".
        let dominated = judge(
            &def(Better::Lower, 0.05),
            &[10.0, 14.0, 8.0],
            &[5.0, 7.0, 6.0],
        );
        assert_eq!(dominated.verdict, Verdict::Same);
    }

    #[test]
    fn better_needs_ten_runs_a_side_all_winning_by_more_than_the_spread() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let faster: Vec<f64> = base.iter().map(|b| b * 1.2).collect();
        let d = def(Better::Higher, 0.25);
        assert_eq!(judge(&d, &base, &faster).verdict, Verdict::Better);
        assert_eq!(judge(&d, &base[..9], &faster).verdict, Verdict::Same);
        // One new run inside the base's range: not every run wins.
        let mut mixed = faster.clone();
        mixed[0] = 105.0;
        assert_eq!(judge(&d, &base, &mixed).verdict, Verdict::Same);
    }

    #[test]
    fn exact_equal_values_are_same_not_better() {
        let row = judge(
            &def(Better::Lower, 0.10),
            &[3.98, 3.98, 3.98],
            &[3.98, 3.98, 3.98],
        );
        assert_eq!(row.verdict, Verdict::Same);
        assert_eq!(row.spread, 0.0);
    }

    #[test]
    fn single_runs_compare_by_bound_alone() {
        assert_eq!(
            judge(&def(Better::Lower, 0.10), &[1.0], &[1.05]).verdict,
            Verdict::Same
        );
        assert_eq!(
            judge(&def(Better::Lower, 0.10), &[1.0], &[1.2]).verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn results_document_parses_into_values_and_exact_numbers() {
        let line = crate::metrics::result_line(
            true,
            10,
            0,
            &crate::metrics::complete(
                &END_TO_END,
                &[
                    crate::metrics::m("work_per_s", 5.0),
                    crate::metrics::m("table2_max_rel_err_pct", 3.98),
                ],
            )
            .unwrap(),
        );
        let doc = format!(
            "{{\"schema\":\"{}\",\"seed\":7,\"runs\":[{{\"workload\":\"engine_dense\",\"trace\":0,\"result\":{line},\"info\":{{\"dense_events\":\"123\",\"rounds\":\"9\"}}}},{{\"workload\":\"engine_dense\",\"trace\":1,\"result\":{line},\"info\":{{}}}}]}}",
            crate::RESULTS_SCHEMA
        );
        let r = parse(&doc).expect("parses");
        assert_eq!(r.seed, 7.0);
        assert_eq!(
            r.values[&("engine_dense".to_string(), "work_per_s".to_string())],
            vec![5.0]
        );
        assert_eq!(
            r.exact[&("engine_dense".to_string(), "dense_events".to_string())],
            vec!["123".to_string()]
        );
        assert_eq!(
            r.exact[&(
                "engine_dense".to_string(),
                "table2_max_rel_err_pct".to_string()
            )],
            vec!["3.98".to_string()]
        );
        assert!(!r
            .exact
            .contains_key(&("engine_dense".to_string(), "rounds".to_string())));
    }
}
