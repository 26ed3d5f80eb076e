//! Figures 6 and 7: the effect of frequency variation on Vera.
//!
//! Sixteen threads pinned to cores, two placements: all 16 cores of one
//! NUMA domain (= one socket on Vera), or 8 + 8 cores across both NUMA
//! domains. A frequency logger samples every core from a spare core, as
//! in the paper. Figure 6 uses `schedbench`, Figure 7 `syncbench`
//! (reduction).
//!
//! The paper's observations: the cross-NUMA placement shows more frequency
//! transitions (the brown/grey regions of Figures 6d/7d) and higher
//! execution-time variability, both run-to-run and across repetitions.
//!
//! Mechanism (modeled): with 16 active cores, a Vera socket sits at its
//! stable all-core turbo bin; with 8 active cores per socket, both
//! sockets run in an unstable few-core turbo state with stochastic droop
//! pulses, and OS daemons waking on the sockets' idle cores keep changing
//! the active-core count, forcing retargets.

use crate::claim::{qty, Claim};
use crate::common::{ExpOptions, ExpReport, Platform};
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use crate::grid::{Grid, Plan};
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_core::freqtrace::{band, transitions};
use ompvar_core::{fmt_ratio, RunSet, Table};
use ompvar_rt::config::RegionResult;
use ompvar_rt::region::{RegionSpec, Schedule};

const PLATFORM: Platform = Platform::Vera;

/// Which benchmark drives the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Figure 6: schedbench (static schedule).
    Sched,
    /// Figure 7: syncbench reduction.
    Sync,
}

/// The two placements compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// 16 cores of NUMA domain 0.
    OneNuma,
    /// 8 cores each from NUMA domains 0 and 1.
    TwoNumas,
}

impl Placement {
    fn runtime(&self) -> ompvar_rt::simrt::SimRuntime {
        match self {
            Placement::OneNuma => PLATFORM.numa_rt(&[0], 16),
            Placement::TwoNumas => PLATFORM.numa_rt(&[0, 1], 8),
        }
    }

    /// Cores hosting benchmark threads under this placement.
    pub fn benchmark_cores(&self) -> Vec<usize> {
        match self {
            Placement::OneNuma => (0..16).collect(),
            Placement::TwoNumas => (0..8).chain(16..24).collect(),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Placement::OneNuma => "1 NUMA",
            Placement::TwoNumas => "2 NUMAs",
        }
    }
}

fn build_region(driver: Driver, opts: &ExpOptions) -> RegionSpec {
    match driver {
        Driver::Sched => {
            let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps().min(30));
            cfg.iters_per_thr = if opts.fast { 256 } else { 1024 };
            schedbench::region(&cfg, Schedule::Static { chunk: 1 }, 16)
        }
        Driver::Sync => {
            let reps = if opts.fast { 40 } else { opts.outer_reps() };
            let cfg = EpccConfig::syncbench_default().fast(reps);
            // Inner count sized for EPCC's ~1 ms test time at 16 threads,
            // so the measured window is long enough to observe frequency
            // events.
            syncbench::region_with_inner(&cfg, SyncConstruct::Reduction, 16, 300)
        }
    }
}

/// One placement's outcome: repetition times and frequency behaviour.
#[derive(Debug, Clone)]
pub struct PlacementOutcome {
    /// Per-run repetition times.
    pub runs: RunSet,
    /// Frequency transitions per benchmark core per second, averaged over
    /// runs.
    pub transitions_per_core_sec: f64,
    /// Fraction of logger samples where some benchmark core ran below
    /// its placement's top observed frequency band.
    pub drooped_fraction: f64,
}

/// One run reduced to `[transitions, droop samples, logger samples,
/// wall µs, repetition times…]`: its frequency trace is folded into the
/// counts here and dropped with the run.
fn sample(res: &RegionResult, cores: &[usize]) -> Vec<f64> {
    let logged = &res.freq_samples;
    let series = |c: usize| logged.iter().map(move |s| s.core_ghz[c]);
    // A sample "droops" when any benchmark core is >100 MHz below the
    // maximum frequency observed on benchmark cores in this run.
    let peak = cores
        .iter()
        .map(|&c| band(series(c)).1)
        .fold(f32::NEG_INFINITY, f32::max);
    let drooped = logged
        .iter()
        .filter(|s| cores.iter().any(|&c| s.core_ghz[c] < peak - 0.1))
        .count();
    let changes = cores.iter().map(|&c| transitions(series(c), 0.05)).sum();
    let counts = [changes, drooped, logged.len()];
    let mut out: Vec<f64> = counts.iter().map(|&n| n as f64).collect();
    out.push(res.wall_us);
    out.extend_from_slice(res.reps());
    out
}

impl PlacementOutcome {
    /// Fold one placement's [`sample`]s, in run order.
    fn of<'a>(n_cores: usize, samples: impl Iterator<Item = &'a [f64]>) -> PlacementOutcome {
        let mut runs = Vec::new();
        let (mut transitions, mut drooped, mut logged, mut total_secs) = (0.0, 0.0, 0.0, 0.0);
        for s in samples {
            transitions += s[0];
            drooped += s[1];
            logged += s[2];
            total_secs += s[3] / 1e6;
            runs.push(s[4..].to_vec());
        }
        PlacementOutcome {
            runs: RunSet::new(runs),
            transitions_per_core_sec: transitions / (n_cores as f64 * total_secs.max(1e-9)),
            drooped_fraction: drooped / logged.max(1.0),
        }
    }
}

/// Median of the per-run CVs: robust against one run being hit by a rare
/// long IRQ burst, which would otherwise dominate a pooled CV.
fn median_cv(rs: &RunSet) -> f64 {
    ompvar_core::percentile(&rs.run_cvs(), 50.0)
}

/// The grid of Figure 6 or 7: two placements × `n_runs`.
pub fn plan(opts: &ExpOptions, driver: Driver) -> Grid {
    let name = match driver {
        Driver::Sched => "fig6",
        Driver::Sync => "fig7",
    };
    let mut p = Plan::new(name, opts);
    let [one, two] = [Placement::OneNuma, Placement::TwoNumas].map(|placement| {
        let cores = placement.benchmark_cores();
        let n_cores = cores.len();
        let label = placement.label().replace(' ', "-");
        let region = build_region(driver, opts);
        let reduce = move |res: &RegionResult| sample(res, &cores);
        (n_cores, p.cells(label, placement.runtime(), region, opts.n_runs(), reduce))
    });

    p.fold(move |s| {
        let one = PlacementOutcome::of(one.0, s.of(&one.1));
        let two = PlacementOutcome::of(two.0, s.of(&two.1));

        let mut t = Table::new(
            &format!(
                "{}: {} on Vera, 16 threads, 1 vs 2 NUMA domains",
                name,
                match driver {
                    Driver::Sched => "schedbench (static_1)",
                    Driver::Sync => "syncbench (reduction)",
                }
            ),
            &[
                "placement",
                "mean rep µs",
                "pooled cv",
                "run spread",
                "freq trans/core/s",
                "droop frac",
            ],
        );
        for (p, o) in [(Placement::OneNuma, &one), (Placement::TwoNumas, &two)] {
            let pooled = o.runs.pooled();
            t.row(&[
                p.label().to_string(),
                format!("{:.2}", pooled.mean),
                format!("{:.5}", pooled.cv),
                fmt_ratio(o.runs.run_spread()),
                format!("{:.2}", o.transitions_per_core_sec),
                format!("{:.4}", o.drooped_fraction),
            ]);
        }

        let transitions = |label, o: &PlacementOutcome| qty(label, o.transitions_per_core_sec, "/core/s");
        let more = transitions("2 NUMAs transitions", &two).gt(transitions("1 NUMA", &one).times(1.5));
        let cv = |label, o: &PlacementOutcome| qty(label, median_cv(&o.runs), "");
        let higher = cv("2 NUMAs median per-run cv", &two).gt(cv("1 NUMA", &one));
        let checks = vec![
            Claim::new("cross-NUMA placement has more frequency transitions", [more]).check(),
            Claim::new("cross-NUMA placement has higher repetition variability", [higher]).check(),
        ];

        ExpReport::new(name, vec![t], checks)
    })
}

/// Figure 6's grid.
pub fn plan_fig6(opts: &ExpOptions) -> Grid {
    plan(opts, Driver::Sched)
}

/// Figure 7's grid.
pub fn plan_fig7(opts: &ExpOptions) -> Grid {
    plan(opts, Driver::Sync)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_fast_mode_shapes_hold() {
        let rep = plan_fig6(&ExpOptions::fast()).run();
        assert!(rep.all_passed(), "fig6 checks failed:\n{}", rep.render());
    }

    #[test]
    fn fig7_fast_mode_shapes_hold() {
        let rep = plan_fig7(&ExpOptions::fast()).run();
        assert!(rep.all_passed(), "fig7 checks failed:\n{}", rep.render());
    }
}
