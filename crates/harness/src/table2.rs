//! Table 2: per-run execution time (µs) of `schedbench` with
//! `schedule(dynamic,1)` on Dardel (4 and 254 threads) and Vera (4 and 30
//! threads), 10 runs each. The paper's table shows tightly clustered
//! times at low thread counts, higher times at high thread counts, and an
//! occasional outlier run (run #9 on Dardel/254 takes 168.8 ms instead of
//! ~154 ms).

use crate::claim::{bound, qty, Claim};
use crate::common::{ExpOptions, ExpReport, Platform};
use crate::grid::{self, Grid, Plan};
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_core::{fmt_us, Summary, Table};
use ompvar_rt::region::Schedule;

/// Paper values for the shape comparison (mean over the non-outlier runs,
/// µs).
pub const PAPER_MEANS_US: [(&str, usize, f64); 4] = [
    ("Dardel", 4, 123_970.0),
    ("Dardel", 254, 154_146.0),
    ("Vera", 4, 136_544.0),
    ("Vera", 30, 164_679.0),
];

/// One column of the table.
#[derive(Debug, Clone)]
pub struct Table2Column {
    /// Platform of the column.
    pub platform: Platform,
    /// Thread count.
    pub threads: usize,
    /// Per-run mean execution time, µs (one entry per run).
    pub run_means_us: Vec<f64>,
}

/// The grid: four columns × `n_runs` seeded runs.
pub fn plan(opts: &ExpOptions) -> Grid {
    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps());
    if opts.fast {
        cfg.iters_per_thr = 1024;
    }
    let mut p = Plan::new("table2", opts);
    let cols = [
        (Platform::Dardel, 4),
        (Platform::Dardel, 254),
        (Platform::Vera, 4),
        (Platform::Vera, 30),
    ]
    .map(|(platform, threads)| {
        let region = schedbench::region(&cfg, Schedule::Dynamic { chunk: 1 }, threads);
        let label = format!("{}-{threads}", platform.label());
        let runs = p.cells(label, platform.pinned_rt(threads), region, opts.n_runs(), grid::reps);
        (platform, threads, runs)
    });
    let fast = opts.fast;

    p.fold(move |s| {
        let cols = cols.map(|(platform, threads, runs)| Table2Column {
            platform,
            threads,
            run_means_us: s.runset(&runs).run_means(),
        });
        let mut table = Table::new(
            "Table 2: schedbench (dynamic_1) execution time (µs) per run",
            &[
                "run #",
                "Dardel 4 thr",
                "Dardel 254 thr",
                "Vera 4 thr",
                "Vera 30 thr",
            ],
        );
        let n_runs = cols[0].run_means_us.len();
        for r in 0..n_runs {
            table.row(&[
                (r + 1).to_string(),
                fmt_us(cols[0].run_means_us[r]),
                fmt_us(cols[1].run_means_us[r]),
                fmt_us(cols[2].run_means_us[r]),
                fmt_us(cols[3].run_means_us[r]),
            ]);
        }

        let mut checks = Vec::new();
        let mean = |c: &Table2Column| Summary::of(&c.run_means_us).mean;
        let at = |c: &Table2Column| qty(format!("{} thr", c.threads), mean(c), "µs");
        // Shape 1: execution time grows with thread count on both platforms
        // (dispatch contention + lower all-core frequency).
        for [lo, hi] in [[&cols[0], &cols[1]], [&cols[2], &cols[3]]] {
            let name = format!("{}: time grows {} → {} threads", lo.platform.label(), lo.threads, hi.threads);
            checks.push(Claim::new(name, [at(hi).gt(at(lo).times(1.1))]).check());
        }
        // Shape 2: low-thread-count columns are tight (CV < 1%).
        for c in [&cols[0], &cols[2]] {
            let cv = qty("cv", Summary::of(&c.run_means_us).cv, "");
            let name = format!("{} {} thr: runs tight", c.platform.label(), c.threads);
            checks.push(Claim::new(name, [cv.lt(bound(0.01))]).check());
        }
        // Shape 3 (when not in fast mode): paper-vs-simulated means agree
        // within 15% for all four columns.
        if !fast {
            for (col, (plat, thr, paper)) in cols.iter().zip(PAPER_MEANS_US) {
                let err = qty("|sim − paper|", (mean(col) - paper).abs(), "µs").over(paper);
                let name = format!("{plat} {thr} thr: mean within 15% of paper");
                checks.push(Claim::new(name, [err.lt(bound(0.15))]).check());
            }
        }
        ExpReport::new("table2", vec![table], checks)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let rep = plan(&ExpOptions::fast()).run();
        assert!(
            rep.all_passed(),
            "table2 shape checks failed:\n{}",
            rep.render()
        );
    }
}
