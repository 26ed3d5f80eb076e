//! Figure 1: `syncbench` execution time (µs) when increasing the number
//! of hardware threads, on Dardel (4–254) and Vera (2–30).
//!
//! The paper's observations: time grows with the thread count; it jumps
//! sharply when the second socket is first used (>16 threads on Vera,
//! >64 on Dardel) and again when SMT contexts come into play (254 on
//! > Dardel); and the `reduction` clause is the most expensive
//! > synchronization construct.

use crate::claim::{qty, Claim};
use crate::common::{ExpOptions, ExpReport, Platform};
use crate::grid::{self, Grid, Plan};
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use ompvar_bench_epcc::EpccConfig;
use ompvar_core::{fmt_us, Table};

/// Inner-repetition cap: full EPCC calibration targets 1000 µs per timed
/// repetition; we cap the count to bound simulated event counts (noted in
/// EXPERIMENTS.md). The cap scales inversely with the team size so that
/// repetition *durations* stay comparable across thread counts (simulated
/// event counts scale with `inner × n_threads`).
pub fn inner_cap(opts: &ExpOptions, n_threads: usize) -> u32 {
    if opts.fast {
        ((4096 / n_threads) as u32).clamp(16, 512)
    } else {
        ((32_768 / n_threads) as u32).clamp(60, 2048)
    }
}

/// The grid: the reduction scaling series of both platforms (`n_runs`
/// cells per thread count, inner repetitions calibrated here) and one
/// single-run cell per construct for the inset.
pub fn plan(opts: &ExpOptions) -> Grid {
    let mut p = Plan::new("fig1", opts);
    let cfg = EpccConfig::syncbench_default().fast(opts.outer_reps());
    let series = [Platform::Dardel, Platform::Vera].map(|platform| {
        let points: Vec<_> = platform
            .scaling_threads()
            .into_iter()
            .map(|n| {
                let rt = platform.pinned_rt(n);
                let c = SyncConstruct::Reduction;
                let inner = syncbench::calibrate_inner_reps(&rt, &cfg, c, n, inner_cap(opts, n));
                let region = syncbench::region_with_inner(&cfg, c, n, inner);
                let label = format!("{}-{n}", platform.label());
                (n, inner, p.cells(label, rt, region, opts.n_runs(), grid::reps))
            })
            .collect();
        (platform, points)
    });
    // Inset: every construct at a fixed thread count, one run each.
    let inset_cfg = EpccConfig::syncbench_default().fast(opts.outer_reps().min(10));
    let rt = Platform::Dardel.pinned_rt(32);
    let inset = SyncConstruct::ALL.map(|c| {
        let inner = syncbench::calibrate_inner_reps(&rt, &inset_cfg, c, 32, inner_cap(opts, 32));
        let region = syncbench::region_with_inner(&inset_cfg, c, 32, inner);
        (c, inner, p.cells(format!("inset-{}", c.label()), rt.clone(), region, 1, grid::mean_rep))
    });

    p.fold(move |s| {
        let mut tables = Vec::new();
        let mut checks = Vec::new();

        for (platform, points) in series {
            // `(threads, mean per-op µs, cv)` per thread count.
            let series: Vec<(usize, f64, f64)> = points
                .iter()
                .map(|(n, inner, runs)| {
                    let pooled = s.runset(runs).pooled();
                    (*n, pooled.mean / *inner as f64, pooled.cv)
                })
                .collect();
            let mut t = Table::new(
                &format!(
                    "Fig 1{}: syncbench reduction per-op time (µs) vs threads on {}",
                    if platform == Platform::Dardel { "a" } else { "b" },
                    platform.label()
                ),
                &["threads", "per-op µs", "cv"],
            );
            for &(n, us, cv) in &series {
                t.row(&[n.to_string(), fmt_us(us), format!("{cv:.4}")]);
            }
            tables.push(t);

            // Shape: cost grows with threads end-to-end.
            let at = |&(n, us, _): &(usize, f64, f64)| qty(format!("{n} thr"), us, "µs");
            let (first, last) = (at(&series[0]), at(&series[series.len() - 1]));
            let name = format!("{}: reduction cost grows with threads", platform.label());
            checks.push(Claim::new(name, [last.gt(first.times(2.0))]).check());

            // Shape: sharp jump when the second socket comes into play.
            let socket_cores = match platform {
                Platform::Dardel => 64,
                Platform::Vera => 16,
            };
            let below = series
                .iter()
                .filter(|(n, _, _)| *n <= socket_cores)
                .map(|&(_, us, _)| us)
                .fold(f64::MIN, f64::max);
            let below = qty(format!("max ≤{socket_cores} thr"), below, "µs");
            let above = series.iter().find(|(n, _, _)| *n > socket_cores).map(at).unwrap();
            let name = format!("{}: jump at socket boundary", platform.label());
            checks.push(Claim::new(name, [above.gt(below.times(1.5))]).check());
        }

        // Shape: reduction is the most expensive construct (Dardel, 32 thr).
        let costs = inset.map(|(c, inner, run)| {
            (c, syncbench::overhead_us(&inset_cfg, c, s.one(&run)[0], inner))
        });
        let mut t = Table::new(
            "Fig 1 (inset): per-construct overhead (µs), Dardel, 32 threads",
            &["construct", "overhead µs"],
        );
        for (c, us) in &costs {
            t.row(&[c.label().to_string(), fmt_us(*us)]);
        }
        tables.push(t);
        let red = costs
            .iter()
            .find(|(c, _)| *c == SyncConstruct::Reduction)
            .unwrap()
            .1;
        let max_other = costs
            .iter()
            .filter(|(c, _)| *c != SyncConstruct::Reduction)
            .map(|&(_, us)| us)
            .fold(f64::MIN, f64::max);
        let claim = qty("reduction", red, "µs").ge(qty("max other", max_other, "µs"));
        checks.push(Claim::new("reduction is the most expensive construct", [claim]).check());

        ExpReport::new("fig1", tables, checks)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let rep = plan(&ExpOptions::fast()).run();
        assert!(rep.all_passed(), "fig1 checks failed:\n{}", rep.render());
    }
}
