//! Figure 3: scalability of performance variability — per-run normalized
//! min/max execution time for `schedbench`, `syncbench` and `BabelStream`
//! as the hardware-thread count grows, on both platforms.
//!
//! The paper's observations: variability grows with the thread count,
//! pronounced for `syncbench` and `BabelStream` at high counts (≥128 on
//! Dardel, ≥30 on Vera), and much less pronounced for `schedbench`
//! (dynamic scheduling self-balances perturbations).

use crate::claim::{qty, Claim};
use crate::common::{ExpOptions, ExpReport, Platform};
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use crate::grid::{self, Grid, Plan, Runs, Samples};
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_bench_stream::{kernels::StreamConfig, KernelStats};
use ompvar_core::{fmt_ratio, RunSet, Table};
use ompvar_rt::region::Schedule;

/// The three benchmarks of the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// schedbench, dynamic_1.
    Sched,
    /// syncbench, reduction.
    Sync,
    /// BabelStream (worst kernel).
    Stream,
}

impl Bench {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            Bench::Sched => "schedbench",
            Bench::Sync => "syncbench",
            Bench::Stream => "babelstream",
        }
    }
}

/// Variability envelope of one configuration: the *quartile over runs*
/// of the per-run normalized min and max (25th percentile of the mins,
/// 75th of the maxs). Residual noise hits only a fraction of runs, so a
/// median would miss it, while a worst-case envelope would be dominated
/// by a single rare multi-millisecond IRQ burst; the quartiles capture
/// "a typical bad run".
#[derive(Debug, Clone, Copy)]
pub struct Envelope {
    /// 25th-percentile per-run `min/avg` (≤ 1).
    pub lo: f64,
    /// 75th-percentile per-run `max/avg` (≥ 1).
    pub hi: f64,
}

impl Envelope {
    fn of_runset(rs: &RunSet) -> Envelope {
        Envelope {
            lo: ompvar_core::percentile(&rs.run_norm_mins(), 25.0),
            hi: ompvar_core::percentile(&rs.run_norm_maxs(), 75.0),
        }
    }

    /// Total envelope width (`hi − lo`).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

fn sched_cfg(opts: &ExpOptions) -> EpccConfig {
    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps().min(20));
    if opts.fast {
        cfg.iters_per_thr = 512;
    } else {
        // Keep simulated event counts tractable across the full sweep;
        // per-iteration behaviour is unchanged.
        cfg.iters_per_thr = 2048;
    }
    cfg
}

/// Register the `n_runs` cells of one benchmark at one thread count.
fn cells(p: &mut Plan, opts: &ExpOptions, platform: Platform, bench: Bench, n: usize) -> Runs {
    let label = format!("{}-{}-{n}", platform.label(), bench.label());
    let rt = platform.pinned_rt(n);
    match bench {
        Bench::Sched => {
            let region = schedbench::region(&sched_cfg(opts), Schedule::Dynamic { chunk: 1 }, n);
            p.cells(label, rt, region, opts.n_runs(), grid::reps)
        }
        Bench::Sync => {
            // Residual noise events are rare (a few per second): the
            // measured window needs enough repetitions to sample them, so
            // fast mode uses *more* (cheap, short) repetitions here.
            let reps = if opts.fast { 60 } else { opts.outer_reps() };
            let cfg = EpccConfig::syncbench_default().fast(reps);
            let cap = crate::fig1::inner_cap(opts, n);
            let inner = syncbench::calibrate_inner_reps(&rt, &cfg, SyncConstruct::Reduction, n, cap);
            let region = syncbench::region_with_inner(&cfg, SyncConstruct::Reduction, n, inner);
            p.cells(label, rt, region, opts.n_runs(), grid::reps)
        }
        Bench::Stream => {
            let cfg = StreamConfig {
                iterations: opts.stream_iters(),
                ..StreamConfig::default()
            };
            let region = ompvar_bench_stream::region(&cfg, n);
            p.cells(label, rt, region, opts.n_runs(), grid::stream)
        }
    }
}

/// Envelope of one benchmark at one thread count, from its samples.
fn envelope(s: &Samples, bench: Bench, runs: &Runs) -> Envelope {
    if bench != Bench::Stream {
        return Envelope::of_runset(&s.runset(runs));
    }
    // Per run: worst normalized extremes across kernels; then the
    // quartiles over runs, like the other benchmarks.
    let extreme = |of: fn(&KernelStats) -> f64, pick: fn(f64, f64) -> f64, init: f64| {
        let per_run = s.of(runs).map(|r| grid::stream_stats(r).map(|k| of(&k)).fold(init, pick));
        per_run.collect::<Vec<f64>>()
    };
    Envelope {
        lo: ompvar_core::percentile(&extreme(KernelStats::norm_min, f64::min, f64::INFINITY), 25.0),
        hi: ompvar_core::percentile(&extreme(KernelStats::norm_max, f64::max, f64::NEG_INFINITY), 75.0),
    }
}

/// The grid: `n_runs` cells per platform × benchmark × thread count.
pub fn plan(opts: &ExpOptions) -> Grid {
    let mut p = Plan::new("fig3", opts);
    let grid = [Platform::Dardel, Platform::Vera].map(|platform| {
        let counts = if opts.fast {
            // A low and a high count suffice for the shape in fast mode.
            match platform {
                Platform::Dardel => vec![8, 128],
                Platform::Vera => vec![4, 30],
            }
        } else {
            platform.scaling_threads()
        };
        let benches = [Bench::Sched, Bench::Sync, Bench::Stream].map(|bench| {
            let runs: Vec<_> =
                counts.iter().map(|&n| (n, cells(&mut p, opts, platform, bench, n))).collect();
            (bench, runs)
        });
        (platform, benches)
    });

    p.fold(move |s| {
        let mut tables = Vec::new();
        let mut checks = Vec::new();
        for (platform, benches) in grid {
            let mut t = Table::new(
                &format!(
                    "Fig 3 ({}): normalized min/max envelope vs threads",
                    platform.label()
                ),
                &["bench", "threads", "norm min", "norm max"],
            );
            for (bench, runs) in benches {
                let mut envs = Vec::new();
                for (n, runs) in &runs {
                    let e = envelope(&s, bench, runs);
                    t.row(&[
                        bench.label().to_string(),
                        n.to_string(),
                        fmt_ratio(e.lo),
                        fmt_ratio(e.hi),
                    ]);
                    envs.push((*n, e));
                }
                if matches!(bench, Bench::Sync | Bench::Stream) {
                    // Shape: high thread counts show a wider envelope.
                    let width = |(n, e): &(usize, Envelope)| qty(format!("width @ {n} thr"), e.width(), "");
                    let (low, high) = (width(&envs[0]), width(&envs[envs.len() - 1]));
                    let name = format!("{} {}: variability grows with threads", platform.label(), bench.label());
                    checks.push(Claim::new(name, [high.gt(low)]).check());
                }
            }
            tables.push(t);
        }
        ExpReport::new("fig3", tables, checks)
    })
}
