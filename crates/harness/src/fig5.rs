//! Figure 5: the effect of simultaneous multithreading on Dardel.
//!
//! Same thread count, two placements: **ST** (one thread per physical
//! core, siblings left idle for the OS) vs. **MT** (both hardware threads
//! of half as many cores). The paper's observations:
//!
//! * (a/d) `schedbench` at 128 threads: MT shows very high variability
//!   among the outer repetitions of each run;
//! * (b/e) `syncbench` at 32 threads: the per-run CV of the repetitions
//!   is much higher under MT, especially for `for`, `single`, `ordered`
//!   and `reduction`;
//! * (c/f) BabelStream at 128 threads: MT widens the normalized min/max
//!   band.
//!
//! Mechanism (modeled): with the sibling idle, most per-core kernel
//! housekeeping runs there, costing only a mild SMT co-run slowdown;
//! with both contexts busy, kernel work must preempt a benchmark thread
//! outright (plus a cache-refill penalty on resume).

use crate::common::{Check, ExpOptions, ExpReport, Platform};
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use ompvar_bench_epcc::{run_many, run_seeds, schedbench, EpccConfig};
use ompvar_bench_stream::{kernel_stats, kernels::StreamConfig, StreamKernel};
use ompvar_core::{fmt_ratio, RunSet, Table};
use ompvar_rt::region::Schedule;

const PLATFORM: Platform = Platform::Dardel;

/// The constructs the paper singles out as most SMT-sensitive.
pub const SENSITIVE: [SyncConstruct; 4] = [
    SyncConstruct::For,
    SyncConstruct::Single,
    SyncConstruct::Ordered,
    SyncConstruct::Reduction,
];

/// schedbench at high thread count: `(st, mt)` run sets.
///
/// Uses `static_1`: unlike the dynamic schedule (which self-balances
/// around perturbations), a static partition exposes every preemption of
/// any thread directly in the repetition time — the configuration where
/// the paper's MT variability is starkest.
pub fn schedbench_runs(opts: &ExpOptions) -> (RunSet, RunSet) {
    let n = if opts.fast { 64 } else { 128 };
    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps().min(40));
    cfg.iters_per_thr = if opts.fast { 256 } else { 1024 };
    let region = schedbench::region(&cfg, Schedule::Static { chunk: 1 }, n);
    let st = run_many(&PLATFORM.pinned_rt(n), &region, opts.n_runs(), opts.seed);
    let mt = run_many(&PLATFORM.pinned_mt_rt(n), &region, opts.n_runs(), opts.seed);
    (st, mt)
}

/// syncbench per-construct CV comparison at 32 threads: for each
/// construct, `(mean CV over runs under ST, under MT)`.
pub fn syncbench_cvs(opts: &ExpOptions) -> Vec<(SyncConstruct, f64, f64)> {
    let n = 32;
    let reps = if opts.fast { 60 } else { opts.outer_reps() };
    let cfg = EpccConfig::syncbench_default().fast(reps);
    let cap = crate::fig1::inner_cap(opts, n);
    let st_rt = PLATFORM.pinned_rt(n);
    let mt_rt = PLATFORM.pinned_mt_rt(n);
    SyncConstruct::ALL
        .iter()
        .map(|&c| {
            let inner = syncbench::calibrate_inner_reps(&st_rt, &cfg, c, n, cap);
            let region = syncbench::region_with_inner(&cfg, c, n, inner);
            let st = run_many(&st_rt, &region, opts.n_runs(), opts.seed);
            let mt = run_many(&mt_rt, &region, opts.n_runs(), opts.seed);
            let mean_cv = |rs: &RunSet| ompvar_core::Summary::of(&rs.run_cvs()).mean;
            (c, mean_cv(&st), mean_cv(&mt))
        })
        .collect()
}

/// BabelStream comparison: `(st, mt)` as `(mean kernel time µs, mean
/// absolute intra-run spread µs)`. Absolute spread is the right
/// variability axis here: MT kernels take ~2× longer (half the engaged
/// NUMA domains), which would *dilute* a normalized band even while the
/// microsecond-level spread grows.
pub fn stream_envelopes(opts: &ExpOptions) -> ((f64, f64), (f64, f64)) {
    let n = if opts.fast { 64 } else { 128 };
    let cfg = StreamConfig {
        iterations: opts.stream_iters(),
        ..StreamConfig::default()
    };
    let region = ompvar_bench_stream::region(&cfg, n);
    let envelope = |rt: &ompvar_rt::simrt::SimRuntime| {
        let (mut time_sum, mut spread_sum, mut count) = (0.0, 0.0, 0usize);
        for res in run_seeds(rt, &region, opts.n_runs(), opts.seed) {
            let stats = kernel_stats(&res);
            for k in StreamKernel::ALL {
                time_sum += stats[&k].avg_us;
                spread_sum += stats[&k].max_us - stats[&k].min_us;
                count += 1;
            }
        }
        (time_sum / count as f64, spread_sum / count as f64)
    };
    (
        envelope(&PLATFORM.pinned_rt(n)),
        envelope(&PLATFORM.pinned_mt_rt(n)),
    )
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let mut tables = Vec::new();
    let mut checks = Vec::new();

    // (a/d) schedbench.
    let (st, mt) = schedbench_runs(opts);
    let mut t = Table::new(
        "Fig 5a/5d: schedbench per-run intra-run spread (max/min of reps), Dardel",
        &["run #", "ST", "MT"],
    );
    for i in 0..st.n_runs() {
        t.row(&[
            (i + 1).to_string(),
            fmt_ratio(st.runs[i].summary().spread()),
            fmt_ratio(mt.runs[i].summary().spread()),
        ]);
    }
    tables.push(t);
    let st_w = ompvar_core::percentile(&st.run_cvs(), 50.0);
    let mt_w = ompvar_core::percentile(&mt.run_cvs(), 50.0);
    checks.push(Check::new(
        "schedbench: MT has higher repetition variability than ST",
        mt_w > st_w,
        format!("median per-run cv ST {st_w:.5} vs MT {mt_w:.5}"),
    ));

    // (b/e) syncbench CVs.
    let cvs = syncbench_cvs(opts);
    let mut t = Table::new(
        "Fig 5b/5e: syncbench mean per-run CV, 32 threads, Dardel",
        &["construct", "ST cv", "MT cv"],
    );
    for (c, s, m) in &cvs {
        t.row(&[c.label().to_string(), format!("{s:.5}"), format!("{m:.5}")]);
    }
    tables.push(t);
    let worse = SENSITIVE
        .iter()
        .filter(|c| {
            cvs.iter()
                .find(|(cc, _, _)| cc == *c)
                .map(|(_, s, m)| m > s)
                .unwrap_or(false)
        })
        .count();
    checks.push(Check::new(
        "syncbench: MT raises CV for most SMT-sensitive constructs",
        worse >= 3,
        format!("{worse}/4 of for/single/ordered/reduction worse under MT"),
    ));

    // (c/f) BabelStream.
    let ((st_time, st_spread), (mt_time, mt_spread)) = stream_envelopes(opts);
    let mut t = Table::new(
        "Fig 5c/5f: BabelStream mean kernel time and intra-run spread (µs), Dardel",
        &["config", "mean kernel µs", "mean max−min µs"],
    );
    t.row(&["ST".into(), fmt_ratio(st_time), fmt_ratio(st_spread)]);
    t.row(&["MT".into(), fmt_ratio(mt_time), fmt_ratio(mt_spread)]);
    tables.push(t);
    checks.push(Check::new(
        "babelstream: no benefit from SMT (MT clearly slower)",
        mt_time > st_time * 1.5,
        format!("mean kernel ST {st_time:.1} µs vs MT {mt_time:.1} µs"),
    ));
    checks.push(Check::new(
        "babelstream: MT has larger absolute intra-run spread",
        mt_spread > st_spread,
        format!("mean max−min ST {st_spread:.1} µs vs MT {mt_spread:.1} µs"),
    ));

    ExpReport::new("fig5", tables, checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let rep = run(&ExpOptions::fast());
        assert!(rep.all_passed(), "fig5 checks failed:\n{}", rep.render());
    }
}
