//! Extension experiment: the schedbench chunk-size sweep.
//!
//! The paper runs schedbench "with three different schedules ... and
//! various different chunk sizes" but only presents chunk size 1. This
//! experiment reports the full sweep: per-iteration dispatch overhead for
//! static/dynamic/guided at chunk sizes 1–128, on both platforms.
//!
//! Expected shapes: dynamic dispatch overhead falls roughly as `1/chunk`
//! (one shared-counter RMW amortized over `chunk` iterations); static is
//! flat and near zero; guided sits near static (its chunks start large).

use crate::common::{Check, ExpOptions, ExpReport, Platform};
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_core::Table;
use ompvar_rt::region::Schedule;
use ompvar_rt::runner::RegionRunner;

/// Chunk sizes swept.
pub const CHUNKS: [u64; 5] = [1, 4, 16, 64, 128];

fn cfg(opts: &ExpOptions) -> EpccConfig {
    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps().min(10));
    cfg.iters_per_thr = if opts.fast { 512 } else { 2048 };
    cfg
}

/// Per-iteration dispatch overhead (µs) for one schedule kind across the
/// chunk sweep.
pub fn sweep(
    opts: &ExpOptions,
    platform: Platform,
    n_threads: usize,
    make: impl Fn(u64) -> Schedule,
) -> Vec<(u64, f64)> {
    let cfg = cfg(opts);
    let rt = platform.pinned_rt(n_threads);
    CHUNKS
        .iter()
        .map(|&chunk| {
            let region = schedbench::region(&cfg, make(chunk), n_threads);
            let res = rt.run_region(&region, opts.seed).expect("experiment region completes");
            (chunk, schedbench::per_iter_overhead_us(&cfg, res.mean_rep_us()))
        })
        .collect()
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let mut tables = Vec::new();
    let mut checks = Vec::new();
    for (platform, n) in [(Platform::Dardel, 64usize), (Platform::Vera, 16)] {
        let stat = sweep(opts, platform, n, |c| Schedule::Static { chunk: c });
        let dyn_ = sweep(opts, platform, n, |c| Schedule::Dynamic { chunk: c });
        let gui = sweep(opts, platform, n, |c| Schedule::Guided { min_chunk: c });
        let mut t = Table::new(
            &format!(
                "Chunk sweep: per-iteration overhead (µs), {} threads, {}",
                n,
                platform.label()
            ),
            &["chunk", "static", "dynamic", "guided"],
        );
        for i in 0..CHUNKS.len() {
            t.row(&[
                CHUNKS[i].to_string(),
                format!("{:.4}", stat[i].1),
                format!("{:.4}", dyn_[i].1),
                format!("{:.4}", gui[i].1),
            ]);
        }
        tables.push(t);

        // The absolute overhead includes the all-core frequency droop,
        // which hits every schedule equally; the *dispatch* component is
        // the delta above static at the same chunk size.
        let disp1 = dyn_[0].1 - stat[0].1;
        let disp128 = dyn_[CHUNKS.len() - 1].1 - stat[CHUNKS.len() - 1].1;
        checks.push(Check::new(
            &format!(
                "{}: dynamic dispatch amortizes with chunk size",
                platform.label()
            ),
            disp128 < disp1 / 4.0,
            format!(
                "dispatch = dynamic − static: {disp1:.4} µs/iter @ chunk 1 vs {disp128:.4} @ 128"
            ),
        ));
        checks.push(Check::new(
            &format!("{}: dynamic_1 dispatch is substantial", platform.label()),
            disp1 > 0.05,
            format!("{disp1:.4} µs/iter"),
        ));
    }
    ExpReport::new("chunks", tables, checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let rep = run(&ExpOptions::fast());
        assert!(rep.all_passed(), "chunks checks failed:\n{}", rep.render());
    }
}
