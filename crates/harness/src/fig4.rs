//! Figure 4: the effect of thread pinning on Dardel.
//!
//! Three sub-experiments, each before (`OMP_PROC_BIND=false`) and after
//! (`close` pinning over one place per core):
//!
//! * (a/d) `schedbench` (dynamic_1) with 16 threads — per-run average
//!   execution time; unbound runs show elevated outlier runs;
//! * (b/e) `syncbench` reduction with 128 threads — unbound shows orders
//!   of magnitude of spread between repetitions (stacked threads share a
//!   hardware thread in 4 ms quanta), pinned is stable;
//! * (c/f) BabelStream with 128 threads — unbound shows up to ~6× min–max
//!   spread per kernel, pinned much less.

use crate::common::{Check, ExpOptions, ExpReport, Platform};
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use ompvar_bench_epcc::{run_many, run_seeds, schedbench, EpccConfig};
use ompvar_bench_stream::{kernel_stats, kernels::StreamConfig, StreamKernel};
use ompvar_core::{fmt_ratio, fmt_us, RunSet, Table};
use ompvar_rt::region::Schedule;
use ompvar_rt::simrt::SimRuntime;

const PLATFORM: Platform = Platform::Dardel;

fn threads_high(opts: &ExpOptions) -> usize {
    if opts.fast {
        48
    } else {
        128
    }
}

/// schedbench sub-experiment: per-run mean times, `(unbound, pinned)`.
pub fn schedbench_runs(opts: &ExpOptions) -> (RunSet, RunSet) {
    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps().min(20));
    cfg.iters_per_thr = if opts.fast { 512 } else { 2048 };
    let region = schedbench::region(&cfg, Schedule::Dynamic { chunk: 1 }, 16);
    let unbound = run_many(&PLATFORM.unbound_rt(), &region, opts.n_runs(), opts.seed);
    let pinned = run_many(&PLATFORM.pinned_rt(16), &region, opts.n_runs(), opts.seed);
    (unbound, pinned)
}

/// syncbench reduction sub-experiment, `(unbound, pinned)`.
pub fn syncbench_runs(opts: &ExpOptions) -> (RunSet, RunSet) {
    let n = threads_high(opts);
    let cfg = EpccConfig::syncbench_default().fast(opts.outer_reps().min(40));
    let pinned_rt = PLATFORM.pinned_rt(n);
    let cap = if opts.fast { 12 } else { 50 };
    // Calibrate on the pinned runtime (EPCC calibrates in-situ; using the
    // same inner count for both keeps the comparison apples-to-apples).
    let inner = syncbench::calibrate_inner_reps(&pinned_rt, &cfg, SyncConstruct::Reduction, n, cap);
    let region = syncbench::region_with_inner(&cfg, SyncConstruct::Reduction, n, inner);
    let unbound = run_many(&PLATFORM.unbound_rt(), &region, opts.n_runs(), opts.seed);
    let pinned = run_many(&pinned_rt, &region, opts.n_runs(), opts.seed);
    (unbound, pinned)
}

/// Per-kernel worst min–max spread across runs.
pub type KernelSpreads = Vec<(StreamKernel, f64)>;

/// BabelStream sub-experiment: per-kernel worst min–max spread across
/// runs, `(unbound, pinned)`.
pub fn stream_spreads(opts: &ExpOptions) -> (KernelSpreads, KernelSpreads) {
    let n = threads_high(opts);
    let cfg = StreamConfig {
        iterations: opts.stream_iters(),
        ..StreamConfig::default()
    };
    let region = ompvar_bench_stream::region(&cfg, n);
    let spread = |rt: &SimRuntime| -> Vec<(StreamKernel, f64)> {
        let mut worst: Vec<(StreamKernel, f64)> =
            StreamKernel::ALL.iter().map(|&k| (k, 0.0)).collect();
        for res in run_seeds(rt, &region, opts.n_runs(), opts.seed) {
            let stats = kernel_stats(&res);
            for (k, w) in worst.iter_mut() {
                let s = stats[k].max_us / stats[k].min_us;
                if s > *w {
                    *w = s;
                }
            }
        }
        worst
    };
    (spread(&PLATFORM.unbound_rt()), spread(&PLATFORM.pinned_rt(n)))
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let mut tables = Vec::new();
    let mut checks = Vec::new();

    // (a/d) schedbench @ 16.
    let (unb, pin) = schedbench_runs(opts);
    let mut t = Table::new(
        "Fig 4a/4d: schedbench (dynamic_1, 16 thr) per-run mean (µs), Dardel",
        &["run #", "unbound", "pinned"],
    );
    for (i, (u, p)) in unb.run_means().iter().zip(pin.run_means()).enumerate() {
        t.row(&[(i + 1).to_string(), fmt_us(*u), fmt_us(p)]);
    }
    tables.push(t);
    checks.push(Check::new(
        "schedbench: pinning tightens run-to-run spread",
        pin.run_spread() <= unb.run_spread(),
        format!(
            "spread unbound {:.4} vs pinned {:.4}",
            unb.run_spread(),
            pin.run_spread()
        ),
    ));

    // (b/e) syncbench reduction @ 128.
    let (unb, pin) = syncbench_runs(opts);
    let mut t = Table::new(
        "Fig 4b/4e: syncbench reduction per-run stats (µs), Dardel",
        &["run #", "unbound mean", "unbound max/min", "pinned mean", "pinned max/min"],
    );
    for i in 0..unb.n_runs() {
        let su = unb.runs[i].summary();
        let sp = pin.runs[i].summary();
        t.row(&[
            (i + 1).to_string(),
            fmt_us(su.mean),
            fmt_ratio(su.spread()),
            fmt_us(sp.mean),
            fmt_ratio(sp.spread()),
        ]);
    }
    tables.push(t);
    let unb_spread = unb.pooled().spread();
    let pin_spread = pin.pooled().spread();
    // The paper's Fig 4b vs 4e contrast: unbound repetitions reach orders
    // of magnitude above what pinned execution ever shows.
    let ratio = unb.pooled().max / pin.pooled().mean;
    checks.push(Check::new(
        "syncbench: unbound reaches ≥50× the pinned time",
        ratio >= 50.0,
        format!(
            "worst unbound rep = {ratio:.0}× pinned mean; unbound max/min {unb_spread:.1}"
        ),
    ));
    checks.push(Check::new(
        "syncbench: unbound is internally unstable, pinned is stable",
        unb_spread > 3.0 && pin_spread < 2.0,
        format!("pooled max/min unbound {unb_spread:.1} vs pinned {pin_spread:.2}"),
    ));

    // (c/f) BabelStream @ 128.
    let (unb, pin) = stream_spreads(opts);
    let mut t = Table::new(
        "Fig 4c/4f: BabelStream worst per-kernel max/min across runs, Dardel",
        &["kernel", "unbound", "pinned"],
    );
    for ((k, u), (_, p)) in unb.iter().zip(pin.iter()) {
        t.row(&[k.label().to_string(), fmt_ratio(*u), fmt_ratio(*p)]);
    }
    tables.push(t);
    let worst_unb = unb.iter().map(|&(_, s)| s).fold(f64::MIN, f64::max);
    let worst_pin = pin.iter().map(|&(_, s)| s).fold(f64::MIN, f64::max);
    checks.push(Check::new(
        "babelstream: pinning reduces worst kernel spread",
        worst_pin < worst_unb,
        format!("worst unbound {worst_unb:.2}× vs pinned {worst_pin:.2}×"),
    ));
    checks.push(Check::new(
        "babelstream: unbound spread is substantial (paper: up to ~6×)",
        worst_unb > 1.5,
        format!("worst unbound {worst_unb:.2}×"),
    ));

    ExpReport::new("fig4", tables, checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let rep = run(&ExpOptions::fast());
        assert!(rep.all_passed(), "fig4 checks failed:\n{}", rep.render());
    }
}
