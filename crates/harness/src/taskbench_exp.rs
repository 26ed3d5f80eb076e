//! Extension experiment: EPCC `taskbench` scaling (the paper's §6 future
//! work — extending the characterization to task-based benchmarks).
//!
//! Reports per-task overhead versus thread count for the PARALLEL TASK
//! and MASTER TASK patterns on both platforms, plus an ST-vs-MT
//! variability comparison on Dardel (does the paper's SMT finding carry
//! over to tasking? It does: task queues are poll-heavy and any spawner
//! or stealer being preempted stalls the drain).

use crate::common::{Check, ExpOptions, ExpReport, Platform};
use ompvar_bench_epcc::taskbench::{self, TaskPattern};
use ompvar_bench_epcc::{run_many, EpccConfig};
use ompvar_core::Table;
use ompvar_rt::runner::RegionRunner;

fn cfg(opts: &ExpOptions) -> EpccConfig {
    EpccConfig::syncbench_default().fast(opts.outer_reps().min(40))
}

/// Per-task overhead (µs) of `pattern` across the platform's scaling
/// thread counts.
pub fn scaling_series(
    opts: &ExpOptions,
    platform: Platform,
    pattern: TaskPattern,
) -> Vec<(usize, f64)> {
    let cfg = cfg(opts);
    let tasks = 64;
    platform
        .scaling_threads()
        .into_iter()
        .map(|n| {
            let rt = platform.pinned_rt(n);
            let region = taskbench::region(&cfg, pattern, n, tasks);
            let res = rt.run_region(&region, opts.seed).expect("experiment region completes");
            (n, taskbench::overhead_per_task_us(&cfg, pattern, n, tasks, res.mean_rep_us()))
        })
        .collect()
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let mut tables = Vec::new();
    let mut checks = Vec::new();

    for platform in [Platform::Dardel, Platform::Vera] {
        let mut t = Table::new(
            &format!("Taskbench: per-task overhead (µs) vs threads on {}", platform.label()),
            &["threads", "parallel_task", "master_task"],
        );
        let par = scaling_series(opts, platform, TaskPattern::ParallelTask);
        let mas = scaling_series(opts, platform, TaskPattern::MasterTask);
        for ((n, p), (_, m)) in par.iter().zip(mas.iter()) {
            t.row(&[n.to_string(), format!("{p:.3}"), format!("{m:.3}")]);
        }
        tables.push(t);

        checks.push(Check::new(
            &format!(
                "{}: parallel-spawn overhead grows with threads",
                platform.label()
            ),
            par.last().unwrap().1 > par.first().unwrap().1 * 2.0,
            format!(
                "{:.3} µs @ {} thr → {:.3} µs @ {} thr",
                par.first().unwrap().1,
                par.first().unwrap().0,
                par.last().unwrap().1,
                par.last().unwrap().0
            ),
        ));
    }

    // SMT sensitivity of tasking on Dardel (extension of Fig 5).
    let n = 32;
    let c = cfg(opts);
    let region = taskbench::region(&c, TaskPattern::ParallelTask, n, 64);
    let cv = |rt: &ompvar_rt::simrt::SimRuntime| {
        let rs = run_many(rt, &region, opts.n_runs(), opts.seed);
        ompvar_core::percentile(&rs.run_cvs(), 50.0)
    };
    let st = cv(&Platform::Dardel.pinned_rt(n));
    let mt = cv(&Platform::Dardel.pinned_mt_rt(n));
    let mut t = Table::new(
        "Taskbench: ST vs MT median per-run CV, 32 threads, Dardel",
        &["config", "median cv"],
    );
    t.row(&["ST".into(), format!("{st:.5}")]);
    t.row(&["MT".into(), format!("{mt:.5}")]);
    tables.push(t);
    checks.push(Check::new(
        "tasking inherits the SMT-noise sensitivity (MT > ST)",
        mt > st,
        format!("median cv ST {st:.5} vs MT {mt:.5}"),
    ));

    ExpReport::new("taskbench", tables, checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let rep = run(&ExpOptions::fast());
        assert!(rep.all_passed(), "taskbench checks failed:\n{}", rep.render());
    }
}
