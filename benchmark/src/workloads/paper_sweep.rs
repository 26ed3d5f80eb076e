//! `paper_sweep`: the wall a reproducer sees.
//!
//! Spawns the real CLI, `ompvar-repro all --fast --jobs 2`, as a user
//! would. The `sim` engine in the *calibrated* regime (timer ticks,
//! noise, DVFS, the 254-thread Dardel node) plus the `epcc`/`stream`
//! drivers and `harness` do the work; `qcheck` and the supervisor's
//! journaling do almost none. Work on the noisy-regime engine or on
//! putting the paper's cells on the executor shows here.

use super::{Ctx, SimUse, Workload};
use crate::fidelity;
use crate::metrics::{m, RunResult};
use crate::proc::{self, ChildRun};
use crate::span::Recorder;
use crate::stats::{fnv1a, median, FNV_OFFSET};
use ompvar_obs::json::{self, Value};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// The full sweep.
const FULL: &[&str] = &["all"];

/// What the full sweep must contain: the paper's behaviour is pinned at
/// 18 experiments and 91 shape checks. More is fine; fewer means a check
/// was dropped.
const FULL_EXPERIMENTS: u64 = 18;
const FULL_CHECKS: u64 = 91;

/// `--smoke`: the cheap experiments, about 1/16 of the sweep's wall.
const SMOKE: &[&str] = &[
    "fig2",
    "fig4",
    "fig6",
    "taskbench",
    "chunks",
    "analyze",
    "faults",
];

/// The traced run times the paper's experiments one at a time:
/// (experiment, metric).
const PAPER_EXPERIMENTS: [(&str, &str); 11] = [
    ("table2", "harness.table2.wall_s"),
    ("fig1", "harness.fig1.wall_s"),
    ("fig2", "harness.fig2.wall_s"),
    ("fig3", "harness.fig3.wall_s"),
    ("fig4", "harness.fig4.wall_s"),
    ("fig5", "harness.fig5.wall_s"),
    ("fig6", "harness.fig6.wall_s"),
    ("fig7", "harness.fig7.wall_s"),
    ("ablation", "harness.ablation.wall_s"),
    ("taskbench", "harness.taskbench.wall_s"),
    ("chunks", "harness.chunks.wall_s"),
];

/// … and the seven extension experiments together.
const EXTENSIONS: [&str; 7] = [
    "faults",
    "fuzz",
    "analyze",
    "trace",
    "campaign",
    "variability",
    "chaos",
];

/// The seed every sweep runs with, whatever the benchmark's `--seed`:
/// the CLI's default, the one a reproducer uses and the one the 91 shape
/// checks are calibrated on. Measured at this benchmark's first commit,
/// 7 of 10 other seeds fail one to three shape checks, and a workload
/// must be one on which no operation fails.
const SWEEP_SEED: u64 = 20230714;

/// The workload.
pub struct PaperSweep;

/// Where the sweeps write.
pub struct Input {
    dir: PathBuf,
}

/// One CLI invocation, checked.
struct Sweep {
    run: ChildRun,
    experiments: u64,
    checks: u64,
    failed_checks: u64,
    csv_digest: u64,
    gate_failures: Vec<String>,
}

fn cli(ctx: &Ctx, targets: &[&str], jobs: usize, dir: &Path) -> Command {
    let mut cmd = Command::new(&ctx.cli);
    cmd.args(targets)
        .args([
            "--fast",
            "--jobs",
            &jobs.to_string(),
            "--seed",
            &SWEEP_SEED.to_string(),
            "--out",
        ])
        .arg(dir)
        .arg("--report-json")
        .arg(dir.join("r.json"));
    cmd
}

/// FNV-1a over every CSV the sweep wrote, names included, in name
/// order. `trace_1.csv` is left out: it tabulates the *native* backend's
/// wall-clock spans, the one CSV that is not a function of the seed.
fn csv_digest(dir: &Path) -> Result<u64, String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .map_err(|e| format!("list {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".csv") && n != "trace_1.csv")
        .collect();
    names.sort_unstable();
    let mut digest = FNV_OFFSET;
    for n in &names {
        let bytes = fs::read(dir.join(n)).map_err(|e| format!("read {n}: {e}"))?;
        digest = fnv1a(fnv1a(digest, n.as_bytes()), &bytes);
    }
    Ok(digest)
}

fn sweep(ctx: &Ctx, targets: &[&str], jobs: usize, dir: &Path) -> Result<Sweep, String> {
    proc::fresh_dir(dir)?;
    let run = proc::run_child(&mut cli(ctx, targets, jobs, dir), &dir.join("cli.log"))?;
    let mut gate_failures = Vec::new();
    if !run.status.success() {
        gate_failures.push(format!(
            "ompvar-repro {targets:?} exited with {}",
            run.status
        ));
    }
    let text = fs::read_to_string(dir.join("r.json"))
        .map_err(|e| format!("read r.json of {targets:?}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("r.json of {targets:?}: {e}"))?;
    let experiments = doc
        .get("experiments")
        .and_then(Value::as_arr)
        .ok_or("r.json has no experiments array")?;
    let (mut checks, mut failed_checks) = (0, 0);
    for c in experiments
        .iter()
        .filter_map(|e| e.get("checks").and_then(Value::as_arr))
        .flatten()
    {
        checks += 1;
        if c.get("passed").and_then(Value::as_bool) != Some(true) {
            failed_checks += 1;
        }
    }
    Ok(Sweep {
        run,
        experiments: experiments.len() as u64,
        checks,
        failed_checks,
        csv_digest: csv_digest(dir)?,
        gate_failures,
    })
}

/// Fold one sweep's counts and gate failures into `result`.
fn tally(result: &mut RunResult, s: &Sweep) {
    result.attempted += s.experiments + s.checks;
    result.failed += s.failed_checks;
    result.gate_failures.extend(s.gate_failures.iter().cloned());
}

impl Workload for PaperSweep {
    const NAME: &'static str = "paper_sweep";
    type Input = Input;

    /// A scratch directory, and one cheap calibrated-regime experiment so
    /// the binary is resident, the core is out of its idle state and the
    /// CLI is known to work before the long sweep.
    fn setup(ctx: &Ctx) -> Result<Input, String> {
        let dir = ctx.tmp.join(Self::NAME);
        let warm = sweep(ctx, &["fig2"], 1, &dir.join("warm"))?;
        if let Some(why) = warm.gate_failures.first() {
            return Err(format!("warm-up failed: {why}"));
        }
        Ok(Input { dir })
    }

    fn measure(ctx: &Ctx, input: &mut Input) -> Result<RunResult, String> {
        let (targets, want_experiments, want_checks) = if ctx.smoke {
            (SMOKE, SMOKE.len() as u64, 0)
        } else {
            (FULL, FULL_EXPERIMENTS, FULL_CHECKS)
        };
        let mut result = RunResult::default();
        let mut passes: Vec<Sweep> = Vec::new();
        let t0 = Instant::now();
        // Closed loop, one sweep at a time; same seed, so the CSV digests
        // must agree.
        while passes.is_empty() || t0.elapsed().as_secs_f64() < ctx.seconds {
            let s = sweep(
                ctx,
                targets,
                2,
                &input.dir.join(format!("pass{}", passes.len())),
            )?;
            tally(&mut result, &s);
            if s.experiments < want_experiments || s.checks < want_checks {
                result.gate_failures.push(format!(
                    "sweep ran {} experiment(s) with {} check(s); expected at least {want_experiments} and {want_checks}",
                    s.experiments, s.checks
                ));
            }
            if passes
                .first()
                .is_some_and(|first| first.csv_digest != s.csv_digest)
            {
                result.gate_failures.push(format!(
                    "CSV digest of pass {} differs from pass 0",
                    passes.len()
                ));
            }
            passes.push(s);
        }
        let wall: Vec<f64> = passes.iter().map(|p| p.run.wall_s).collect();
        let experiments: u64 = passes.iter().map(|p| p.experiments).sum();
        result.metrics.push(m(
            "work_per_s",
            experiments as f64 / wall.iter().sum::<f64>(),
        ));
        result.metrics.push(m(
            "peak_rss_mb",
            passes.iter().map(|p| p.run.peak_rss_mb).fold(0.0, f64::max),
        ));
        result
            .info
            .push(("sweep_wall_s", median(&wall).to_string(), "s"));
        result
            .info
            .push(("sweep_passes", passes.len().to_string(), "count"));
        result
            .info
            .push(("sweep_checks", passes[0].checks.to_string(), "count"));
        result.info.push((
            "sweep_csv_digest",
            format!("{:016x}", passes[0].csv_digest),
            "fnv1a",
        ));
        Ok(result)
    }

    /// Each experiment alone at `--jobs 1` (so the numbers survive any
    /// reshaping of how the sweep shares its workers), the sweep itself
    /// for the critical-path share, and the calibrated-regime engine on
    /// the four fidelity cells.
    fn traced(ctx: &Ctx, input: &mut Input, rec: &mut Recorder) -> Result<RunResult, String> {
        let mut result = RunResult::default();
        let dir = input.dir.join("traced");
        let timed = |rec: &mut Recorder, result: &mut RunResult, targets: &[&str], jobs: usize| {
            let span = rec.open("harness.cli");
            let s = sweep(ctx, targets, jobs, &dir)?;
            rec.close(span, s.experiments);
            tally(result, &s);
            Ok::<f64, String>(s.run.wall_s)
        };
        let in_scope = |exp: &str| !ctx.smoke || SMOKE.contains(&exp);

        let mut slowest = 0.0f64;
        for (exp, metric) in PAPER_EXPERIMENTS.iter().filter(|(e, _)| in_scope(e)) {
            let wall_s = timed(rec, &mut result, &[exp], 1)?;
            slowest = slowest.max(wall_s);
            result.metrics.push(m(metric, wall_s));
        }
        let extensions: Vec<&str> = EXTENSIONS.iter().copied().filter(|e| in_scope(e)).collect();
        let wall_s = timed(rec, &mut result, &extensions, 1)?;
        result.metrics.push(m("harness.extensions.wall_s", wall_s));
        let sweep_wall_s = timed(rec, &mut result, if ctx.smoke { SMOKE } else { FULL }, 2)?;
        result.metrics.push(m("harness.sweep_wall_s", sweep_wall_s));
        // The slowest experiment bounds what more workers can buy.
        result
            .metrics
            .push(m("harness.critical_path_share", slowest / sweep_wall_s));

        let mut sim = SimUse::default();
        for cell in &fidelity::CELLS {
            let span = rec.open("rt.simrt.run");
            let c = fidelity::run_cell(cell, ctx.seed)?;
            rec.close(span, c.events);
            sim.record(c.events, c.virtual_s, c.host_s);
        }
        result.metrics.extend(sim.metrics());
        Ok(result)
    }
}
