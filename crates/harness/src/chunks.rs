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

use crate::claim::{bound, qty, Claim};
use crate::common::{ExpOptions, ExpReport, Platform};
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_core::Table;
use crate::grid::{self, Grid, Plan};
use ompvar_rt::region::Schedule;

/// Chunk sizes swept.
pub const CHUNKS: [u64; 5] = [1, 4, 16, 64, 128];

fn cfg(opts: &ExpOptions) -> EpccConfig {
    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps().min(10));
    cfg.iters_per_thr = if opts.fast { 512 } else { 2048 };
    cfg
}

/// The grid: one single-run cell per platform × schedule kind × chunk.
pub fn plan(opts: &ExpOptions) -> Grid {
    let mut p = Plan::new("chunks", opts);
    let cfg = cfg(opts);
    type Make = fn(u64) -> Schedule;
    let kinds: [(&str, Make); 3] = [
        ("static", |c| Schedule::Static { chunk: c }),
        ("dynamic", |c| Schedule::Dynamic { chunk: c }),
        ("guided", |c| Schedule::Guided { min_chunk: c }),
    ];
    let sweeps = [(Platform::Dardel, 64usize), (Platform::Vera, 16)].map(|(platform, n)| {
        let rt = platform.pinned_rt(n);
        let sweeps = kinds.map(|(kind, make)| {
            CHUNKS.map(|chunk| {
                let label = format!("{}-{kind}-{chunk}", platform.label());
                let region = schedbench::region(&cfg, make(chunk), n);
                p.cells(label, rt.clone(), region, 1, grid::mean_rep)
            })
        });
        (platform, n, sweeps)
    });

    p.fold(move |s| {
        let mut tables = Vec::new();
        let mut checks = Vec::new();
        for (platform, n, sweeps) in sweeps {
            // Per-iteration dispatch overhead (µs) across the chunk sweep.
            let [stat, dyn_, gui] = sweeps.map(|runs| {
                runs.map(|run| schedbench::per_iter_overhead_us(&cfg, s.one(&run)[0]))
            });
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
                    format!("{:.4}", stat[i]),
                    format!("{:.4}", dyn_[i]),
                    format!("{:.4}", gui[i]),
                ]);
            }
            tables.push(t);

            // The absolute overhead includes the all-core frequency droop,
            // which hits every schedule equally; the *dispatch* component is
            // the delta above static at the same chunk size.
            let dispatch = |i: usize| qty(format!("dispatch @ chunk {}", CHUNKS[i]), dyn_[i] - stat[i], "µs/iter");
            let (disp1, disp128) = (dispatch(0), dispatch(CHUNKS.len() - 1));
            let name = format!("{}: dynamic dispatch amortizes with chunk size", platform.label());
            checks.push(Claim::new(name, [disp128.lt(disp1.clone().over(4.0))]).check());
            let name = format!("{}: dynamic_1 dispatch is substantial", platform.label());
            checks.push(Claim::new(name, [disp1.gt(bound(0.05))]).check());
        }
        ExpReport::new("chunks", tables, checks)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let rep = plan(&ExpOptions::fast()).run();
        assert!(rep.all_passed(), "chunks checks failed:\n{}", rep.render());
    }
}
