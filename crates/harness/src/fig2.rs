//! Figure 2: BabelStream execution time (ms) when increasing the number
//! of hardware threads on Dardel (2–254) and Vera (2–30).
//!
//! The paper's observation: execution time *decreases* as threads are
//! added (more cores engage more NUMA domains' bandwidth), flattening as
//! each domain's bandwidth saturates.

use crate::claim::{qty, Claim};
use crate::common::{ExpOptions, ExpReport, Platform};
use crate::grid::{self, Grid, Plan};
use ompvar_bench_stream::{kernels::StreamConfig, region, StreamKernel};
use ompvar_core::Table;

/// The grid: one single-run cell per platform × thread count.
pub fn plan(opts: &ExpOptions) -> Grid {
    let cfg = StreamConfig {
        iterations: opts.stream_iters(),
        ..StreamConfig::default()
    };
    let mut p = Plan::new("fig2", opts);
    let points = [Platform::Dardel, Platform::Vera].map(|platform| {
        let mut counts = platform.scaling_threads();
        if counts[0] != 2 {
            counts.insert(0, 2);
        }
        let points: Vec<_> = counts
            .into_iter()
            .map(|n| {
                let label = format!("{}-{n}", platform.label());
                (n, p.cells(label, platform.pinned_rt(n), region(&cfg, n), 1, grid::stream))
            })
            .collect();
        (platform, points)
    });

    p.fold(move |s| {
        let mut tables = Vec::new();
        let mut checks = Vec::new();
        for (platform, points) in points {
            // Mean kernel time (ms, averaged over the five kernels) per
            // thread count.
            let series: Vec<(usize, f64)> = points
                .iter()
                .map(|(n, run)| {
                    let stats = grid::stream_stats(s.one(run));
                    (*n, stats.map(|k| k.avg_us).sum::<f64>() / (StreamKernel::ALL.len() as f64 * 1e3))
                })
                .collect();
            let mut t = Table::new(
                &format!(
                    "Fig 2{}: BabelStream mean kernel time (ms) vs threads on {}",
                    if platform == Platform::Dardel { "a" } else { "b" },
                    platform.label()
                ),
                &["threads", "mean kernel ms"],
            );
            for &(n, ms) in &series {
                t.row(&[n.to_string(), format!("{ms:.3}")]);
            }
            tables.push(t);

            let at = |&(n, ms): &(usize, f64)| qty(format!("{n} thr"), ms, "ms");
            let (first, last) = (at(&series[0]), at(&series[series.len() - 1]));
            let name = format!("{}: time decreases with threads", platform.label());
            checks.push(Claim::new(name, [last.lt(first.times(0.7))]).check());
            // Never *increases* significantly from one step to the next.
            let steps = series.windows(2).map(|w| at(&w[1]).le(at(&w[0]).times(1.15)));
            checks.push(Claim::new(format!("{}: scaling is (near-)monotone", platform.label()), steps).check());
        }
        ExpReport::new("fig2", tables, checks)
    })
}
