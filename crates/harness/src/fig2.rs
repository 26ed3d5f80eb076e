//! Figure 2: BabelStream execution time (ms) when increasing the number
//! of hardware threads on Dardel (2–254) and Vera (2–30).
//!
//! The paper's observation: execution time *decreases* as threads are
//! added (more cores engage more NUMA domains' bandwidth), flattening as
//! each domain's bandwidth saturates.

use crate::common::{Check, ExpOptions, ExpReport, Platform};
use ompvar_bench_stream::{kernel_stats, kernels::StreamConfig, region, StreamKernel};
use ompvar_core::Table;
use ompvar_rt::runner::RegionRunner;

/// Mean kernel time (ms, averaged over the five kernels) per thread
/// count.
pub fn scaling_series(opts: &ExpOptions, platform: Platform) -> Vec<(usize, f64)> {
    let cfg = StreamConfig {
        iterations: opts.stream_iters(),
        ..StreamConfig::default()
    };
    let mut counts = platform.scaling_threads();
    if counts[0] != 2 {
        counts.insert(0, 2);
    }
    counts
        .into_iter()
        .map(|n| {
            let rt = platform.pinned_rt(n);
            let res = rt.run_region(&region(&cfg, n), opts.seed).expect("experiment region completes");
            let stats = kernel_stats(&res);
            let avg_ms = StreamKernel::ALL
                .iter()
                .map(|k| stats[k].avg_us)
                .sum::<f64>()
                / (StreamKernel::ALL.len() as f64 * 1e3);
            (n, avg_ms)
        })
        .collect()
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let mut tables = Vec::new();
    let mut checks = Vec::new();
    for platform in [Platform::Dardel, Platform::Vera] {
        let series = scaling_series(opts, platform);
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

        let first = series.first().unwrap().1;
        let last = series.last().unwrap().1;
        checks.push(Check::new(
            &format!("{}: time decreases with threads", platform.label()),
            last < first * 0.7,
            format!("{first:.2} → {last:.2} ms"),
        ));
        // Never *increases* significantly from one step to the next.
        let monotone = series.windows(2).all(|w| w[1].1 <= w[0].1 * 1.15);
        checks.push(Check::new(
            &format!("{}: scaling is (near-)monotone", platform.label()),
            monotone,
            format!("{series:?}"),
        ));
    }
    ExpReport::new("fig2", tables, checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let rep = run(&ExpOptions::fast());
        assert!(rep.all_passed(), "fig2 checks failed:\n{}", rep.render());
    }
}
