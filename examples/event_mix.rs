//! Engine event mix of Figure 5's EPCC cells: per run of the schedbench
//! and ten syncbench configurations (ST and MT, `fig5 --fast`
//! parameters and seeds) print host time, events counted, what share of
//! them were ticks / noise arrivals / pre-emptions, and ns per event;
//! the last line totals events and host time over every cell, with the
//! mean ns per event, to compare between two builds. Nearly every event
//! is a CPU boundary while Dardel parks 258 noise timers — the profile
//! the tiered event queue was sized with.
//!
//! Events are counted, not popped: the idle and periodic fast-forwards
//! absorb events without popping them and count each one, so the event
//! columns are the same with or without them, and ns per event divides
//! host time by every counted event, absorbed ones included. It is the
//! engine's cost per simulated event, not per pop: a cell whose loop
//! repeats costs less per event the more of it is jumped.
//!
//! ```text
//! cargo run --release --example event_mix
//! ```

use ompvar::epcc::syncbench::{self, SyncConstruct};
use ompvar::epcc::{run_seed, schedbench, EpccConfig};
use ompvar::harness::{fig1, ExpOptions, Platform};
use ompvar::rt::region::{RegionSpec, Schedule};
use ompvar::rt::simrt::SimRuntime;
use std::time::{Duration, Instant};

fn main() {
    let opts = ExpOptions::fast();
    println!(
        "{:<22} {:>3} {:>8} {:>9} {:>6} {:>6} {:>8} {:>8}",
        "config", "run", "host ms", "events", "ticks", "noise", "preempt", "ns/event"
    );
    let (mut total_events, mut total_host) = (0u64, Duration::ZERO);
    let mut probe = |label: String, rt: &SimRuntime, region: &RegionSpec| {
        for i in 0..opts.n_runs() {
            let clock = Instant::now();
            let res = run_seed(rt, region, opts.seed, i).expect("fig5 cell completes");
            let host = clock.elapsed();
            let c = res
                .counters
                .expect("the simulated backend reports counters");
            println!(
                "{label:<22} {i:>3} {:>8.1} {:>9} {:>6} {:>6} {:>8} {:>8.1}",
                host.as_secs_f64() * 1e3,
                c.events,
                c.ticks,
                c.noise_events,
                c.preemptions,
                host.as_nanos() as f64 / c.events as f64,
            );
            total_events += c.events;
            total_host += host;
        }
    };

    let dardel = Platform::Dardel;
    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps());
    cfg.iters_per_thr = 256;
    let region = schedbench::region(&cfg, Schedule::Static { chunk: 1 }, 64);
    probe("sched-st".into(), &dardel.pinned_rt(64), &region);
    probe("sched-mt".into(), &dardel.pinned_mt_rt(64), &region);

    let cfg = EpccConfig::syncbench_default().fast(60);
    let (st, mt) = (dardel.pinned_rt(32), dardel.pinned_mt_rt(32));
    for c in SyncConstruct::ALL {
        let inner = syncbench::calibrate_inner_reps(&st, &cfg, c, 32, fig1::inner_cap(&opts, 32));
        let region = syncbench::region_with_inner(&cfg, c, 32, inner);
        probe(format!("sync-{}-st", c.label()), &st, &region);
        probe(format!("sync-{}-mt", c.label()), &mt, &region);
    }
    println!(
        "{:<22} {:>3} {:>8.1} {:>9} {:>31.1}",
        "total",
        "",
        total_host.as_secs_f64() * 1e3,
        total_events,
        total_host.as_nanos() as f64 / total_events as f64,
    );
}
