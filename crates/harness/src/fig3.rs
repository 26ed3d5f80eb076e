//! Figure 3: scalability of performance variability — per-run normalized
//! min/max execution time for `schedbench`, `syncbench` and `BabelStream`
//! as the hardware-thread count grows, on both platforms.
//!
//! The paper's observations: variability grows with the thread count,
//! pronounced for `syncbench` and `BabelStream` at high counts (≥128 on
//! Dardel, ≥30 on Vera), and much less pronounced for `schedbench`
//! (dynamic scheduling self-balances perturbations).

use crate::common::{Check, ExpOptions, ExpReport, Platform};
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use ompvar_bench_epcc::{run_many, run_seeds, schedbench, EpccConfig};
use ompvar_bench_stream::{kernel_stats, kernels::StreamConfig, StreamKernel};
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

/// Envelope of one benchmark at one thread count.
pub fn envelope(opts: &ExpOptions, platform: Platform, bench: Bench, n: usize) -> Envelope {
    match bench {
        Bench::Sched => {
            let cfg = sched_cfg(opts);
            let rt = platform.pinned_rt(n);
            let region = schedbench::region(&cfg, Schedule::Dynamic { chunk: 1 }, n);
            Envelope::of_runset(&run_many(&rt, &region, opts.n_runs(), opts.seed))
        }
        Bench::Sync => {
            // Residual noise events are rare (a few per second): the
            // measured window needs enough repetitions to sample them, so
            // fast mode uses *more* (cheap, short) repetitions here.
            let reps = if opts.fast { 60 } else { opts.outer_reps() };
            let cfg = EpccConfig::syncbench_default().fast(reps);
            let rt = platform.pinned_rt(n);
            let cap = crate::fig1::inner_cap(opts, n);
            let inner = syncbench::calibrate_inner_reps(&rt, &cfg, SyncConstruct::Reduction, n, cap);
            let region = syncbench::region_with_inner(&cfg, SyncConstruct::Reduction, n, inner);
            Envelope::of_runset(&run_many(&rt, &region, opts.n_runs(), opts.seed))
        }
        Bench::Stream => {
            let cfg = StreamConfig {
                iterations: opts.stream_iters(),
                ..StreamConfig::default()
            };
            let rt = platform.pinned_rt(n);
            let region = ompvar_bench_stream::region(&cfg, n);
            // Per run: worst normalized extremes across kernels; then the
            // median over runs, like the other benchmarks.
            let mut los = Vec::new();
            let mut his = Vec::new();
            for res in run_seeds(&rt, &region, opts.n_runs(), opts.seed) {
                let stats = kernel_stats(&res);
                los.push(
                    StreamKernel::ALL
                        .iter()
                        .map(|k| stats[k].norm_min())
                        .fold(f64::INFINITY, f64::min),
                );
                his.push(
                    StreamKernel::ALL
                        .iter()
                        .map(|k| stats[k].norm_max())
                        .fold(f64::NEG_INFINITY, f64::max),
                );
            }
            Envelope {
                lo: ompvar_core::percentile(&los, 25.0),
                hi: ompvar_core::percentile(&his, 75.0),
            }
        }
    }
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let mut tables = Vec::new();
    let mut checks = Vec::new();
    for platform in [Platform::Dardel, Platform::Vera] {
        let counts = if opts.fast {
            // A low and a high count suffice for the shape in fast mode.
            match platform {
                Platform::Dardel => vec![8, 128],
                Platform::Vera => vec![4, 30],
            }
        } else {
            platform.scaling_threads()
        };
        let mut t = Table::new(
            &format!(
                "Fig 3 ({}): normalized min/max envelope vs threads",
                platform.label()
            ),
            &["bench", "threads", "norm min", "norm max"],
        );
        for bench in [Bench::Sched, Bench::Sync, Bench::Stream] {
            let mut envs = Vec::new();
            for &n in &counts {
                let e = envelope(opts, platform, bench, n);
                t.row(&[
                    bench.label().to_string(),
                    n.to_string(),
                    fmt_ratio(e.lo),
                    fmt_ratio(e.hi),
                ]);
                envs.push((n, e));
            }
            if matches!(bench, Bench::Sync | Bench::Stream) {
                // Shape: high thread counts show a wider envelope.
                let low = envs.first().unwrap();
                let high = envs.last().unwrap();
                checks.push(Check::new(
                    &format!(
                        "{} {}: variability grows with threads",
                        platform.label(),
                        bench.label()
                    ),
                    high.1.width() > low.1.width(),
                    format!(
                        "width {:.4} @ {} thr → {:.4} @ {} thr",
                        low.1.width(),
                        low.0,
                        high.1.width(),
                        high.0
                    ),
                ));
            }
        }
        tables.push(t);
    }
    ExpReport::new("fig3", tables, checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let rep = run(&ExpOptions::fast());
        assert!(rep.all_passed(), "fig3 checks failed:\n{}", rep.render());
    }
}
