//! Fidelity probe: the four Table 2 columns at full Table 1 size
//! against the paper's means.
//!
//! A speed number for a simulator means nothing without the model's
//! error beside it, so every run of every workload reports
//! `table2_max_rel_err_pct`. It is a simulated statistic: for one seed
//! it repeats exactly, and a pure speed or simplicity change must not
//! move it.

use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_harness::Platform;
use ompvar_rt::region::Schedule;
use std::time::Instant;

/// Paper Table 2: mean over the non-outlier runs, µs, of `schedbench`
/// `dynamic,1` per (platform, threads). Copied, not imported: the
/// benchmark's reference must not move when the harness is refactored.
pub const CELLS: [(Platform, usize, f64); 4] = [
    (Platform::Dardel, 4, 123_970.0),
    (Platform::Dardel, 254, 154_146.0),
    (Platform::Vera, 4, 136_544.0),
    (Platform::Vera, 30, 164_679.0),
];

/// Outer repetitions per cell (Table 1 says 100; 10 keeps the probe
/// under half a second).
const OUTER_REPS: u32 = 10;

/// Seeds per cell behind the end-to-end number: `S`, `S+1`, `S+2`. One
/// seed alone moves the worst column by 4–5 % of itself from seed to
/// seed (quartile spread over ten seeds), too close to the metric's
/// bound; the mean of three is steady enough.
const SEEDS_PER_CELL: u64 = 3;

/// One simulated run of a Table 2 cell in the calibrated (noisy) regime.
#[derive(Debug, Clone, Copy)]
pub struct CellRun {
    /// Mean repetition time, µs.
    pub mean_us: f64,
    /// Engine events the run processed.
    pub events: u64,
    /// Virtual time simulated, seconds.
    pub virtual_s: f64,
    /// Host time `SimRuntime::run` took, seconds.
    pub host_s: f64,
}

/// Simulate one cell of [`CELLS`] with `seed`.
pub fn run_cell(
    &(platform, threads, _): &(Platform, usize, f64),
    seed: u64,
) -> Result<CellRun, String> {
    let cfg = EpccConfig::schedbench_default().fast(OUTER_REPS);
    let rt = platform.pinned_rt(threads);
    let region = schedbench::region(&cfg, Schedule::Dynamic { chunk: 1 }, threads);
    let t0 = Instant::now();
    let res = rt
        .run(&region, seed)
        .map_err(|e| format!("fidelity cell {} {threads} thr: {e}", platform.label()))?;
    let host_s = t0.elapsed().as_secs_f64();
    let reps = res.reps();
    Ok(CellRun {
        mean_us: reps.iter().sum::<f64>() / reps.len() as f64,
        events: res.counters.map_or(0, |c| c.events),
        virtual_s: res.wall_us / 1e6,
        host_s,
    })
}

/// The end-to-end fidelity number: per column the mean over
/// [`SEEDS_PER_CELL`] runs against the paper's mean; worst column,
/// percent.
pub fn max_rel_err_pct(seed: u64) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for cell in &CELLS {
        let mut mean_us = 0.0;
        for i in 0..SEEDS_PER_CELL {
            mean_us += run_cell(cell, seed.wrapping_add(i))?.mean_us / SEEDS_PER_CELL as f64;
        }
        worst = worst.max((mean_us - cell.2).abs() / cell.2);
    }
    Ok(100.0 * worst)
}
