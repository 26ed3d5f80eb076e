//! Frequency study (paper §5.4, Figures 6/7 at reduced scale): the same
//! 16 threads on a simulated Vera node, either on one NUMA domain or
//! split across both, with the frequency logger running on a spare core.
//! Prints an ASCII frequency trace of a benchmark core for both
//! placements.
//!
//! ```text
//! cargo run --release --example frequency_study
//! ```

use ompvar::core::{sparkline, FreqTrace};
use ompvar::epcc::{run_seeds, schedbench, EpccConfig};
use ompvar::harness::fig67::{plan, Driver};
use ompvar::harness::{ExpOptions, Platform};
use ompvar::rt::Schedule;

fn main() {
    // Raw frequency traces of core 0 under both placements, two
    // independently seeded runs each (`run_seeds` yields one full
    // `RegionResult` — frequency samples included — per seed, lazily).
    let mut cfg = EpccConfig::schedbench_default().fast(30);
    cfg.iters_per_thr = 512;
    let region = schedbench::region(&cfg, Schedule::Static { chunk: 1 }, 16);
    for (label, rt) in [
        ("16 cores on 1 NUMA ", Platform::Vera.numa_rt(&[0], 16)),
        ("8+8 cores, 2 NUMAs ", Platform::Vera.numa_rt(&[0, 1], 8)),
    ] {
        for res in run_seeds(&rt, &region, 2, 3) {
            let trace = FreqTrace::new(
                res.freq_samples
                    .iter()
                    .map(|s| (s.time, s.core_ghz.clone()))
                    .collect(),
            )
            .expect("simulated logger emits ordered, rectangular samples");
            let series: Vec<f64> = trace.core_series(0).into_iter().map(f64::from).collect();
            let (lo, hi) = trace.band(0);
            println!(
                "{label} core0 {:.2}–{:.2} GHz, {:3} transitions  {}",
                lo,
                hi,
                trace.transitions(0, 0.05),
                sparkline(&series[..series.len().min(100)])
            );
        }
    }

    // The aggregate comparison the paper draws (Fig 6/7): the harness's
    // own grids, planned and run serially.
    println!();
    let opts = ExpOptions::fast();
    for driver in [Driver::Sched, Driver::Sync] {
        print!("{}", plan(&opts, driver).run().render());
    }
    println!(
        "\n→ 16 active cores pin the socket at its stable all-core turbo;\n  \
         8 active cores per socket sit in an unstable few-core turbo state\n  \
         whose droop pulses show up as execution-time variability (paper §5.4)."
    );
}
