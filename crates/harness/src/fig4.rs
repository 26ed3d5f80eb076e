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

use crate::claim::{bound, qty, Claim};
use crate::common::{ExpOptions, ExpReport, Platform};
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use crate::grid::{self, Grid, Plan};
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_bench_stream::{kernels::StreamConfig, StreamKernel};
use ompvar_core::{fmt_ratio, fmt_us, Table};
use ompvar_rt::region::Schedule;

const PLATFORM: Platform = Platform::Dardel;

fn threads_high(opts: &ExpOptions) -> usize {
    if opts.fast {
        48
    } else {
        128
    }
}

/// The grid: three sub-experiments × {unbound, pinned} × `n_runs`.
pub fn plan(opts: &ExpOptions) -> Grid {
    let mut p = Plan::new("fig4", opts);
    let runs = opts.n_runs();
    let n = threads_high(opts);

    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps().min(20));
    cfg.iters_per_thr = if opts.fast { 512 } else { 2048 };
    let region = schedbench::region(&cfg, Schedule::Dynamic { chunk: 1 }, 16);
    let sched_unb = p.cells("sched-unbound", PLATFORM.unbound_rt(), region.clone(), runs, grid::reps);
    let sched_pin = p.cells("sched-pinned", PLATFORM.pinned_rt(16), region, runs, grid::reps);

    let cfg = EpccConfig::syncbench_default().fast(opts.outer_reps().min(40));
    let pinned_rt = PLATFORM.pinned_rt(n);
    let cap = if opts.fast { 12 } else { 50 };
    // Calibrate on the pinned runtime (EPCC calibrates in-situ; using the
    // same inner count for both keeps the comparison apples-to-apples).
    let inner = syncbench::calibrate_inner_reps(&pinned_rt, &cfg, SyncConstruct::Reduction, n, cap);
    let region = syncbench::region_with_inner(&cfg, SyncConstruct::Reduction, n, inner);
    let sync_unb = p.cells("sync-unbound", PLATFORM.unbound_rt(), region.clone(), runs, grid::reps);
    let sync_pin = p.cells("sync-pinned", pinned_rt, region, runs, grid::reps);

    let cfg = StreamConfig {
        iterations: opts.stream_iters(),
        ..StreamConfig::default()
    };
    let region = ompvar_bench_stream::region(&cfg, n);
    let stream_unb = p.cells("stream-unbound", PLATFORM.unbound_rt(), region.clone(), runs, grid::stream);
    let stream_pin = p.cells("stream-pinned", PLATFORM.pinned_rt(n), region, runs, grid::stream);

    p.fold(move |s| {
        let mut tables = Vec::new();
        let mut checks = Vec::new();

        // (a/d) schedbench @ 16.
        let (unb, pin) = (s.runset(&sched_unb), s.runset(&sched_pin));
        let mut t = Table::new(
            "Fig 4a/4d: schedbench (dynamic_1, 16 thr) per-run mean (µs), Dardel",
            &["run #", "unbound", "pinned"],
        );
        for (i, (u, p)) in unb.run_means().iter().zip(pin.run_means()).enumerate() {
            t.row(&[(i + 1).to_string(), fmt_us(*u), fmt_us(p)]);
        }
        tables.push(t);
        let tighter = qty("pinned run spread", pin.run_spread(), "").le(qty("unbound", unb.run_spread(), ""));
        checks.push(Claim::new("schedbench: pinning tightens run-to-run spread", [tighter]).check());

        // (b/e) syncbench reduction @ 128.
        let (unb, pin) = (s.runset(&sync_unb), s.runset(&sync_pin));
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
        let (unb, pin) = (unb.pooled(), pin.pooled());
        // The paper's Fig 4b vs 4e contrast: unbound repetitions reach orders
        // of magnitude above what pinned execution ever shows.
        let worst = qty("worst unbound rep", unb.max, "µs").over(pin.mean).ge(bound(50.0));
        checks.push(Claim::new("syncbench: unbound reaches ≥50× the pinned time", [worst]).check());
        let unstable = qty("pooled max/min unbound", unb.spread(), "").gt(bound(3.0));
        let stable = qty("pinned", pin.spread(), "").lt(bound(2.0));
        let name = "syncbench: unbound is internally unstable, pinned is stable";
        checks.push(Claim::new(name, [unstable, stable]).check());

        // (c/f) BabelStream @ 128.
        // Per-kernel worst min–max spread across runs.
        let spreads = |runs| {
            let mut worst = StreamKernel::ALL.map(|k| (k, 0.0));
            for run in s.of(runs) {
                for ((_, w), k) in worst.iter_mut().zip(grid::stream_stats(run)) {
                    let spread = k.max_us / k.min_us;
                    if spread > *w {
                        *w = spread;
                    }
                }
            }
            worst
        };
        let (unb, pin) = (spreads(&stream_unb), spreads(&stream_pin));
        let mut t = Table::new(
            "Fig 4c/4f: BabelStream worst per-kernel max/min across runs, Dardel",
            &["kernel", "unbound", "pinned"],
        );
        for ((k, u), (_, p)) in unb.iter().zip(pin.iter()) {
            t.row(&[k.label().to_string(), fmt_ratio(*u), fmt_ratio(*p)]);
        }
        tables.push(t);
        let worst = |label, xs: &[(StreamKernel, f64)]| {
            qty(label, xs.iter().map(|&(_, s)| s).fold(f64::MIN, f64::max), "")
        };
        let (worst_unb, worst_pin) = (worst("worst max/min unbound", &unb), worst("pinned", &pin));
        let pinning = worst_pin.lt(worst_unb.clone());
        checks.push(Claim::new("babelstream: pinning reduces worst kernel spread", [pinning]).check());
        let name = "babelstream: unbound spread is substantial (paper: up to ~6×)";
        checks.push(Claim::new(name, [worst_unb.gt(bound(1.5))]).check());

        ExpReport::new("fig4", tables, checks)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let rep = plan(&ExpOptions::fast()).run();
        assert!(rep.all_passed(), "fig4 checks failed:\n{}", rep.render());
    }
}
