//! Extension experiment: EPCC `taskbench` scaling (the paper's §6 future
//! work — extending the characterization to task-based benchmarks).
//!
//! Reports per-task overhead versus thread count for the PARALLEL TASK
//! and MASTER TASK patterns on both platforms, plus an ST-vs-MT
//! variability comparison on Dardel (does the paper's SMT finding carry
//! over to tasking? It does: task queues are poll-heavy and any spawner
//! or stealer being preempted stalls the drain).

use crate::claim::{qty, Claim};
use crate::common::{ExpOptions, ExpReport, Platform};
use ompvar_bench_epcc::taskbench::{self, TaskPattern};
use crate::grid::{self, Grid, Plan};
use ompvar_bench_epcc::EpccConfig;
use ompvar_core::Table;

fn cfg(opts: &ExpOptions) -> EpccConfig {
    EpccConfig::syncbench_default().fast(opts.outer_reps().min(40))
}

const TASKS: u32 = 64;

/// The grid: one single-run cell per platform × pattern × thread count,
/// plus ST/MT × `n_runs` for the SMT comparison.
pub fn plan(opts: &ExpOptions) -> Grid {
    let mut p = Plan::new("taskbench", opts);
    let cfg = cfg(opts);
    let scaling = [Platform::Dardel, Platform::Vera].map(|platform| {
        let series = [TaskPattern::ParallelTask, TaskPattern::MasterTask].map(|pattern| {
            let points: Vec<_> = platform
                .scaling_threads()
                .into_iter()
                .map(|n| {
                    let label = format!("{}-{}-{n}", platform.label(), pattern.label());
                    let region = taskbench::region(&cfg, pattern, n, TASKS);
                    (n, p.cells(label, platform.pinned_rt(n), region, 1, grid::mean_rep))
                })
                .collect();
            (pattern, points)
        });
        (platform, series)
    });
    // SMT sensitivity of tasking on Dardel (extension of Fig 5).
    let n = 32;
    let region = taskbench::region(&cfg, TaskPattern::ParallelTask, n, TASKS);
    let st = p.cells("smt-st", Platform::Dardel.pinned_rt(n), region.clone(), opts.n_runs(), grid::reps);
    let mt = p.cells("smt-mt", Platform::Dardel.pinned_mt_rt(n), region, opts.n_runs(), grid::reps);

    p.fold(move |s| {
        let mut tables = Vec::new();
        let mut checks = Vec::new();

        for (platform, series) in scaling {
            let mut t = Table::new(
                &format!("Taskbench: per-task overhead (µs) vs threads on {}", platform.label()),
                &["threads", "parallel_task", "master_task"],
            );
            // Per-task overhead (µs) per thread count.
            let [par, mas] = series.map(|(pattern, points)| {
                let overhead = |(n, run): &(usize, grid::Runs)| {
                    (*n, taskbench::overhead_per_task_us(&cfg, pattern, *n, TASKS, s.one(run)[0]))
                };
                points.iter().map(overhead).collect::<Vec<(usize, f64)>>()
            });
            for ((n, p), (_, m)) in par.iter().zip(mas.iter()) {
                t.row(&[n.to_string(), format!("{p:.3}"), format!("{m:.3}")]);
            }
            tables.push(t);

            let at = |&(n, us): &(usize, f64)| qty(format!("{n} thr"), us, "µs");
            let grows = at(&par[par.len() - 1]).gt(at(&par[0]).times(2.0));
            let name = format!("{}: parallel-spawn overhead grows with threads", platform.label());
            checks.push(Claim::new(name, [grows]).check());
        }

        let cv = |runs| ompvar_core::percentile(&s.runset(runs).run_cvs(), 50.0);
        let (st, mt) = (cv(&st), cv(&mt));
        let mut t = Table::new(
            "Taskbench: ST vs MT median per-run CV, 32 threads, Dardel",
            &["config", "median cv"],
        );
        t.row(&["ST".into(), format!("{st:.5}")]);
        t.row(&["MT".into(), format!("{mt:.5}")]);
        tables.push(t);
        let higher = qty("MT median cv", mt, "").gt(qty("ST", st, ""));
        checks.push(Claim::new("tasking inherits the SMT-noise sensitivity (MT > ST)", [higher]).check());

        ExpReport::new("taskbench", tables, checks)
    })
}
