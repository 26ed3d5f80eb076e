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

use crate::claim::{bound, qty, Claim};
use crate::common::{ExpOptions, ExpReport, Platform};
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use crate::grid::{self, Grid, Plan};
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_bench_stream::kernels::StreamConfig;
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

/// The grid: three sub-experiments × {ST, MT} × `n_runs` (syncbench:
/// per construct).
pub fn plan(opts: &ExpOptions) -> Grid {
    let mut p = Plan::new("fig5", opts);
    let runs = opts.n_runs();

    // schedbench at high thread count. Uses `static_1`: unlike the
    // dynamic schedule (which self-balances around perturbations), a
    // static partition exposes every preemption of any thread directly
    // in the repetition time — the configuration where the paper's MT
    // variability is starkest.
    let n = if opts.fast { 64 } else { 128 };
    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps().min(40));
    cfg.iters_per_thr = if opts.fast { 256 } else { 1024 };
    let region = schedbench::region(&cfg, Schedule::Static { chunk: 1 }, n);
    let sched_st = p.cells("sched-st", PLATFORM.pinned_rt(n), region.clone(), runs, grid::reps);
    let sched_mt = p.cells("sched-mt", PLATFORM.pinned_mt_rt(n), region, runs, grid::reps);

    // syncbench per construct at 32 threads, calibrated on ST.
    let reps = if opts.fast { 60 } else { opts.outer_reps() };
    let cfg = EpccConfig::syncbench_default().fast(reps);
    let cap = crate::fig1::inner_cap(opts, 32);
    let (st_rt, mt_rt) = (PLATFORM.pinned_rt(32), PLATFORM.pinned_mt_rt(32));
    let sync = SyncConstruct::ALL.map(|c| {
        let inner = syncbench::calibrate_inner_reps(&st_rt, &cfg, c, 32, cap);
        let region = syncbench::region_with_inner(&cfg, c, 32, inner);
        let st = p.cells(format!("sync-{}-st", c.label()), st_rt.clone(), region.clone(), runs, grid::reps);
        let mt = p.cells(format!("sync-{}-mt", c.label()), mt_rt.clone(), region, runs, grid::reps);
        (c, st, mt)
    });

    // BabelStream at the high thread count.
    let cfg = StreamConfig {
        iterations: opts.stream_iters(),
        ..StreamConfig::default()
    };
    let region = ompvar_bench_stream::region(&cfg, n);
    let stream_st = p.cells("stream-st", PLATFORM.pinned_rt(n), region.clone(), runs, grid::stream);
    let stream_mt = p.cells("stream-mt", PLATFORM.pinned_mt_rt(n), region, runs, grid::stream);

    p.fold(move |s| {
        let mut tables = Vec::new();
        let mut checks = Vec::new();

        // (a/d) schedbench.
        let (st, mt) = (s.runset(&sched_st), s.runset(&sched_mt));
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
        let median_cv = |label, rs: &RunSet| qty(label, ompvar_core::percentile(&rs.run_cvs(), 50.0), "");
        let higher = median_cv("MT median per-run cv", &mt).gt(median_cv("ST", &st));
        checks.push(Claim::new("schedbench: MT has higher repetition variability than ST", [higher]).check());

        // (b/e) syncbench CVs.
        // Per construct: `(mean CV over runs under ST, under MT)`.
        let mean_cv = |rs: RunSet| ompvar_core::Summary::of(&rs.run_cvs()).mean;
        let cvs = sync.map(|(c, st, mt)| (c, mean_cv(s.runset(&st)), mean_cv(s.runset(&mt))));
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
        let most = qty("sensitive constructs worse under MT", worse as f64, "of 4").ge(bound(3.0));
        checks.push(Claim::new("syncbench: MT raises CV for most SMT-sensitive constructs", [most]).check());

        // (c/f) BabelStream.
        // `(mean kernel time µs, mean absolute intra-run spread µs)`.
        // Absolute spread is the right variability axis here: MT kernels
        // take ~2× longer (half the engaged NUMA domains), which would
        // *dilute* a normalized band even while the microsecond-level
        // spread grows.
        let envelope = |runs| {
            let (mut time_sum, mut spread_sum, mut count) = (0.0, 0.0, 0usize);
            for k in s.of(runs).flat_map(grid::stream_stats) {
                time_sum += k.avg_us;
                spread_sum += k.max_us - k.min_us;
                count += 1;
            }
            (time_sum / count as f64, spread_sum / count as f64)
        };
        let ((st_time, st_spread), (mt_time, mt_spread)) = (envelope(&stream_st), envelope(&stream_mt));
        let mut t = Table::new(
            "Fig 5c/5f: BabelStream mean kernel time and intra-run spread (µs), Dardel",
            &["config", "mean kernel µs", "mean max−min µs"],
        );
        t.row(&["ST".into(), fmt_ratio(st_time), fmt_ratio(st_spread)]);
        t.row(&["MT".into(), fmt_ratio(mt_time), fmt_ratio(mt_spread)]);
        tables.push(t);
        let slower = qty("MT mean kernel", mt_time, "µs").gt(qty("ST", st_time, "µs").times(1.5));
        checks.push(Claim::new("babelstream: no benefit from SMT (MT clearly slower)", [slower]).check());
        let wider = qty("MT mean max−min", mt_spread, "µs").gt(qty("ST", st_spread, "µs"));
        checks.push(Claim::new("babelstream: MT has larger absolute intra-run spread", [wider]).check());

        ExpReport::new("fig5", tables, checks)
    })
}
