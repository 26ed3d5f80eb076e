//! The `faults` experiment: graceful degradation under injected faults.
//!
//! Runs one Figure-4-style cell — `schedbench` with `dynamic,1` on 8
//! pinned Vera threads, sterile parameters so every effect is the
//! fault's — under each injector of `ompvar_sim::fault`:
//!
//! * a machine-wide **noise storm** for the whole run;
//! * a **CPU offline** event evacuating one pinned thread;
//! * a machine-wide **thermal frequency cap**;
//! * a 2 ms **task stall** charged to rank 0;
//! * one **lost wakeup**, which deadlocks the run — the watchdog must
//!   diagnose it with a typed error instead of hanging the harness.
//!
//! The checks assert the paper-shaped qualitative outcome: every
//! perturbation costs time relative to the sterile baseline, and the
//! lost-wakeup cell fails *diagnosably and deterministically*.

use crate::claim::{qty, Claim};
use crate::common::{Check, ExpOptions, ExpReport, Platform};
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_core::{fmt_ratio, fmt_us, Table};
use ompvar_rt::region::{RegionSpec, Schedule};
use ompvar_rt::runner::RegionRunner;
use ompvar_rt::RtError;
use ompvar_sim::fault::FaultPlan;
use ompvar_sim::time::{SEC, US};

const PLATFORM: Platform = Platform::Vera;
const THREADS: usize = 8;

/// Open-ended faults fire early so their window covers the whole run.
const AT: ompvar_sim::time::Time = 50 * US;

/// The fault scenarios, in report order. The baseline comes first so
/// every other row can be normalized to it. One-shot faults (the task
/// stall) must land inside the *measured* window, past the region's two
/// warm-up repetitions — `stall_at` is derived from the baseline's
/// repetition time.
fn scenarios(stall_at: ompvar_sim::time::Time) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("baseline", FaultPlan::new()),
        (
            "noise-storm",
            // 20 µs mean arrivals machine-wide for a full second: an
            // antagonist job sharing the node.
            FaultPlan::new().noise_storm(AT, SEC, 20 * US, 50 * US, 0.3),
        ),
        (
            "cpu-offline",
            // Rank 0's hardware thread is evacuated and never returns.
            FaultPlan::new().cpu_offline(AT, 0, None),
        ),
        (
            "freq-cap",
            // All sockets clamped to 1 GHz, far below Vera's bins.
            FaultPlan::new().freq_cap(AT, None, 1.0, None),
        ),
        (
            "task-stall",
            // 2 ms swallowed at once by rank 0 (major fault / SMI),
            // mid-way through a measured repetition.
            FaultPlan::new().task_stall(stall_at, Some(0), 2.0e6),
        ),
        (
            "lost-wakeup",
            // One swallowed release: the classic silent-hang bug.
            FaultPlan::new().lost_wakeups(AT, 1),
        ),
    ]
}

fn region(opts: &ExpOptions) -> RegionSpec {
    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps().min(20));
    cfg.iters_per_thr = if opts.fast { 512 } else { 2048 };
    schedbench::region(&cfg, Schedule::Dynamic { chunk: 1 }, THREADS)
}

/// One completed cell: mean repetition time (µs) and migration count.
type Cell = Result<(f64, u64), RtError>;

fn run_cell(region: &RegionSpec, plan: &FaultPlan, seed: u64) -> Cell {
    let res = PLATFORM.sterile_cell_rt(THREADS, plan.clone()).run_region(region, seed)?;
    let migrations = res.counters.as_ref().map_or(0, |c| c.migrations);
    Ok((res.mean_rep_us(), migrations))
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let region = region(opts);
    let mut t = Table::new(
        "Faults: schedbench (dynamic_1, 8 thr, sterile) under injected faults, Vera",
        &["scenario", "status", "mean rep", "vs baseline", "diagnostic"],
    );
    let mut checks = Vec::new();
    // The baseline runs first: its repetition time places the one-shot
    // stall 2.5 repetitions in, i.e. half a rep past the 2 warm-ups.
    let baseline = run_cell(&region, &FaultPlan::new(), opts.seed);
    let baseline_us = match &baseline {
        Ok((mean, _)) => *mean,
        Err(_) => f64::NAN,
    };
    let stall_at = if baseline_us.is_finite() {
        (2.5 * baseline_us * 1_000.0) as ompvar_sim::time::Time
    } else {
        AT
    };
    let mut outcomes: Vec<(&'static str, Cell)> = Vec::new();
    for (name, plan) in scenarios(stall_at) {
        outcomes.push((
            name,
            if name == "baseline" {
                baseline.clone()
            } else {
                run_cell(&region, &plan, opts.seed)
            },
        ));
    }
    for (name, out) in &outcomes {
        match out {
            Ok((mean, _)) => {
                t.row(&[
                    name.to_string(),
                    "ok".into(),
                    fmt_us(*mean),
                    fmt_ratio(mean / baseline_us),
                    String::new(),
                ]);
            }
            Err(e) => {
                t.row(&[
                    name.to_string(),
                    "failed".into(),
                    "—".into(),
                    "—".into(),
                    e.to_string(),
                ]);
            }
        }
    }

    checks.push(Check::new(
        "baseline cell completes",
        baseline_us.is_finite() && baseline_us > 0.0,
        format!("mean {baseline_us:.3} µs"),
    ));
    for (name, out) in &outcomes {
        match (*name, out) {
            ("baseline", _) | ("lost-wakeup", _) => {}
            ("cpu-offline", Ok((mean, migrations))) => {
                // Evacuation may land on an idle core, so the time can
                // even improve slightly; the migration itself must be
                // visible and the run must complete sanely.
                checks.push(Check::new(
                    "cpu-offline evacuates the pinned thread",
                    *migrations > 0 && mean.is_finite() && *mean > 0.0,
                    format!("{migrations} migration(s), mean {mean:.3} µs"),
                ));
            }
            (_, Ok((mean, _))) => {
                let costs = qty("mean rep", *mean, "µs").gt(qty("baseline", baseline_us, "µs"));
                checks.push(Claim::new(format!("{name} costs time over the baseline"), [costs]).check());
            }
            (_, Err(e)) => {
                checks.push(Check::new(
                    &format!("{name} completes"),
                    false,
                    format!("unexpected failure: {e}"),
                ));
            }
        }
    }

    // The lost-wakeup cell must fail with a deadlock diagnosis naming
    // the stuck waiters — and identically on a replay of the same seed.
    let lw = outcomes
        .iter()
        .find(|(n, _)| *n == "lost-wakeup")
        .map(|(_, o)| o)
        .expect("lost-wakeup scenario present");
    let diagnosed = match lw {
        Err(RtError::Sim(e)) => {
            let s = e.to_string();
            s.contains("deadlock") && s.contains("waiting on")
        }
        _ => false,
    };
    checks.push(Check::new(
        "lost wakeup deadlocks with named waiters",
        diagnosed,
        match lw {
            Err(e) => e.to_string(),
            Ok((mean, _)) => format!("unexpectedly completed, mean {mean:.3} µs"),
        },
    ));
    let plan = scenarios(stall_at).pop().expect("scenario list non-empty").1;
    let replay = run_cell(&region, &plan, opts.seed);
    let same = matches!((lw, &replay), (Err(a), Err(b)) if a.to_string() == b.to_string());
    checks.push(Check::new(
        "deadlock diagnosis is deterministic per seed",
        same,
        format!("replay: {}", match &replay {
            Err(e) => e.to_string(),
            Ok((mean, _)) => format!("completed, mean {mean:.3} µs"),
        }),
    ));

    ExpReport::new("faults", vec![t], checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let rep = run(&ExpOptions::fast());
        assert!(rep.all_passed(), "faults checks failed:\n{}", rep.render());
    }

    /// The same seed must produce byte-identical CSV output.
    #[test]
    fn csv_output_is_bit_identical_per_seed() {
        let base = std::env::temp_dir().join("ompvar_faults_csv_test");
        let opts_in = |sub: &str| ExpOptions {
            out_dir: base.join(sub),
            ..ExpOptions::fast()
        };
        let (a, b) = (opts_in("a"), opts_in("b"));
        let pa = run(&a).write_csvs(&a.out_dir).expect("write run A");
        let pb = run(&b).write_csvs(&b.out_dir).expect("write run B");
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            let bx = std::fs::read(x).expect("read A");
            let by = std::fs::read(y).expect("read B");
            assert_eq!(bx, by, "{} differs from {}", x.display(), y.display());
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}
