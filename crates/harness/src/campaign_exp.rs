//! The `campaign` experiment: cell-level supervision, end to end.
//!
//! Four schedbench cells — the Figure-4 `dynamic,1` configuration on 8
//! pinned Vera threads — exercise every supervisor path on purpose:
//!
//! * **sterile**: no faults. Completes first try; the adaptive policy
//!   must schedule zero extra repetitions.
//! * **noisy**: a seeded machine-wide noise storm. Completes first try
//!   but disperses across seeds, so adaptive re-measurement must spend
//!   extra repetitions on it (and record them).
//! * **flaky**: a lost-wakeup deadlock injected on the first two
//!   attempts, clean on the third — the model of an intermittent
//!   environment bug. The supervisor must classify the deadlock as
//!   transient, retry twice on the deterministic backoff schedule, and
//!   recover.
//! * **broken**: a structurally invalid region (zero threads). The
//!   supervisor must classify it as permanent and quarantine after one
//!   attempt — retrying a validation failure is pure waste.
//!
//! The cells run on the fault-tolerant campaign executor: `--jobs N`
//! shards them across a work-stealing pool, each worker journaling into
//! its own `ompvar-checkpoint/1` shard manifest (shard 0 is the legacy
//! `campaign.jsonl`), and the executor's attempt spans and retry /
//! quarantine instants are written as a per-worker-lane Chrome trace,
//! all under the campaign's checkpoint directory — the same artifacts
//! `ompvar-repro` keeps per experiment, here demonstrated per cell.

use crate::common::{
    executor_config, run_journaled, Campaign, Check, ExpOptions, ExpReport, Platform,
};
use crate::grid::Sample;
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_core::Table;
use ompvar_rt::region::{RegionSpec, Schedule};
use ompvar_rt::runner::RegionRunner;
use ompvar_sim::fault::FaultPlan;
use ompvar_sim::time::{SEC, US};
use ompvar_supervisor::{
    attempt_seed, name_seed, stabilize, Backoff, ExecUnit, Outcome, StabilityPolicy, UnitError,
};

const PLATFORM: Platform = Platform::Vera;
const THREADS: usize = 8;
const AT: ompvar_sim::time::Time = 50 * US;
/// The cells, in unit (and report) order.
const CELLS: [&str; 4] = ["sterile", "noisy", "flaky", "broken"];

fn region(opts: &ExpOptions) -> RegionSpec {
    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps().min(10));
    cfg.iters_per_thr = if opts.fast { 256 } else { 1024 };
    schedbench::region(&cfg, Schedule::Dynamic { chunk: 1 }, THREADS)
}

/// The per-attempt fault plan of one scenario. `flaky` is the only one
/// that varies by attempt: the injected deadlock "clears" on attempt 2,
/// the deterministic stand-in for an intermittent environment fault.
fn plan(scenario: &str, attempt: u32) -> FaultPlan {
    match scenario {
        "noisy" => FaultPlan::new().noise_storm(AT, SEC, 20 * US, 50 * US, 0.3),
        "flaky" if attempt < 2 => FaultPlan::new().lost_wakeups(AT, 1),
        _ => FaultPlan::new(),
    }
}

/// One measurement run of a cell: mean repetition time (µs) under the
/// scenario's fault plan, or a classified failure.
fn measure(region: &RegionSpec, scenario: &str, attempt: u32, seed: u64) -> Result<f64, UnitError> {
    PLATFORM
        .sterile_cell_rt(THREADS, plan(scenario, attempt))
        .run_region(region, seed)
        .map(|res| res.mean_rep_us())
        .map_err(|e| UnitError::from_rt(&e))
}

/// Rows for the campaign table, one per cell.
struct CellRow {
    name: &'static str,
    status: String,
    attempts: u32,
    retries: usize,
    backoff_ms: Vec<u64>,
    base: usize,
    extra: usize,
    cov: f64,
    stable: bool,
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let good_region = region(opts);
    let broken_region = RegionSpec { n_threads: 0, ..good_region.clone() };
    // The target sits between the sterile cells' cross-seed dispersion
    // (~1e-4: only dynamic-scheduling races move) and the noise storm's
    // (~3e-3): stable cells pass untouched, perturbed ones re-measure.
    let policy = StabilityPolicy {
        target_cov: 0.002,
        max_extra: if opts.fast { 4 } else { 8 },
        min_samples: 3,
    };
    let base_runs = 3usize;

    // Each cell is one executor unit; with `--jobs > 1` the cells run
    // concurrently on the work-stealing pool, each under its own
    // per-worker supervisor lane.
    let seed = opts.seed;
    let units: Vec<ExecUnit<Sample>> = CELLS
        .into_iter()
        .map(|cell| {
            let reg =
                if cell == "broken" { broken_region.clone() } else { good_region.clone() };
            ExecUnit::new(cell, move |attempt| {
                // Base repetitions under this attempt's seed stream; the
                // adaptive pass extends unstable cells with extra seeds.
                let seed0 = attempt_seed(seed, attempt);
                let mut base = Vec::with_capacity(base_runs);
                for i in 0..base_runs {
                    base.push(measure(&reg, cell, attempt, seed0.wrapping_add(i as u64))?);
                }
                let mut failed = None;
                let st = stabilize(base, &policy, |i| {
                    match measure(&reg, cell, attempt, seed0.wrapping_add((base_runs + i) as u64))
                    {
                        Ok(x) => Some(x),
                        Err(e) => {
                            failed = Some(e);
                            None
                        }
                    }
                });
                match failed {
                    Some(e) => Err(e),
                    None => Sample::checked(st.samples),
                }
            })
        })
        .collect();
    // The campaign's own crash-safety artifacts, next to the sweep's:
    // `campaign.jsonl` shards (only an explicit `--resume` replays
    // them) and the executor's attempt spans and retry / quarantine
    // instants as a worker-lane Chrome trace.
    let door = Campaign {
        trace: Some(("campaign.trace.json", "campaign-supervisor")),
        ..Campaign::inner("campaign")
    };
    let run = run_journaled(opts, &door, &units).expect("StartFresh never aborts");

    let rows: Vec<CellRow> = run
        .results
        .into_iter()
        .map(|r| {
            // A quarantined cell has no samples: zero repetitions, zero
            // dispersion, never stable.
            let (status, samples, attempts, retries) = match r.outcome {
                Outcome::Completed { value, attempts, retries, .. } => {
                    ("ok".to_string(), value.values().to_vec(), attempts, retries)
                }
                Outcome::Quarantined { attempts, retries, .. } => {
                    let why = retries.last().map_or("?", |r| r.transience.name());
                    (format!("quarantined ({why})"), Vec::new(), attempts, retries)
                }
            };
            let (cov, _) = ompvar_supervisor::dispersion(&samples);
            CellRow {
                name: CELLS[r.index],
                status,
                attempts,
                retries: retries.len(),
                backoff_ms: retries.iter().map(|r| r.backoff_ms).collect(),
                base: base_runs.min(samples.len()),
                extra: samples.len().saturating_sub(base_runs),
                cov,
                stable: !samples.is_empty() && cov <= policy.target_cov,
            }
        })
        .collect();

    let mut t = Table::new(
        "Campaign: schedbench (dynamic_1, 8 thr) cells under supervision, Vera",
        &["cell", "status", "attempts", "retries", "backoff ms", "reps", "extra", "cov", "stable"],
    );
    for r in &rows {
        t.row(&[
            r.name.to_string(),
            r.status.clone(),
            r.attempts.to_string(),
            r.retries.to_string(),
            if r.backoff_ms.is_empty() {
                "-".to_string()
            } else {
                r.backoff_ms.iter().map(u64::to_string).collect::<Vec<_>>().join("+")
            },
            (r.base + r.extra).to_string(),
            r.extra.to_string(),
            format!("{:.4}", r.cov),
            if r.stable { "yes" } else { "no" }.to_string(),
        ]);
    }

    let cell = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
    let sterile = cell("sterile");
    let noisy = cell("noisy");
    let flaky = cell("flaky");
    let broken = cell("broken");
    // The schedule is recorded and checked; inner campaigns never
    // actually sleep it.
    let sup_cfg = executor_config(opts, false).supervisor;
    let expected_backoff = Backoff::new(sup_cfg.backoff, sup_cfg.seed ^ name_seed("flaky"))
        .schedule(flaky.retries as u32);

    let checks = vec![
        Check::new(
            "sterile cell completes first try with no extra repetitions",
            sterile.status == "ok" && sterile.attempts == 1 && sterile.extra == 0,
            format!(
                "status={} attempts={} extra={} cov={:.4}",
                sterile.status, sterile.attempts, sterile.extra, sterile.cov
            ),
        ),
        Check::new(
            "noisy cell triggers adaptive re-measurement",
            noisy.status == "ok" && noisy.extra > 0,
            format!(
                "status={} extra={} cov={:.4} target={}",
                noisy.status, noisy.extra, noisy.cov, policy.target_cov
            ),
        ),
        Check::new(
            "flaky cell recovers after transient retries",
            flaky.status == "ok" && flaky.attempts == 3 && flaky.retries == 2,
            format!(
                "status={} attempts={} retries={}",
                flaky.status, flaky.attempts, flaky.retries
            ),
        ),
        Check::new(
            "broken cell quarantines as permanent after one attempt",
            broken.status == "quarantined (permanent)" && broken.attempts == 1,
            format!("status={} attempts={}", broken.status, broken.attempts),
        ),
        Check::new(
            "retry backoff follows the seeded deterministic schedule",
            flaky.backoff_ms == expected_backoff,
            format!("recorded={:?} expected={:?}", flaky.backoff_ms, expected_backoff),
        ),
    ];

    ExpReport::new("campaign", vec![t], checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompvar_obs::json::Value;

    fn opts(dir: &str) -> ExpOptions {
        let out = std::env::temp_dir().join(format!("ompvar_campaign_{dir}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        ExpOptions { out_dir: out, ..ExpOptions::fast() }
    }

    #[test]
    fn campaign_checks_pass() {
        let o = opts("pass");
        let rep = run(&o);
        for c in &rep.checks {
            assert!(c.passed, "{}: {}", c.name, c.detail);
        }
        // Its crash-safety artifacts exist and parse.
        let manifest = o.checkpoint_dir().join("campaign.jsonl");
        let text = std::fs::read_to_string(&manifest).unwrap();
        assert!(text.starts_with("{\"schema\":\"ompvar-checkpoint/1\""), "{text}");
        let trace = std::fs::read_to_string(o.checkpoint_dir().join("campaign.trace.json")).unwrap();
        let v = ompvar_obs::json::parse(&trace).expect("valid chrome trace");
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        let named = |n: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(Value::as_str) == Some(n))
                .count()
        };
        // 2 retries on flaky + 1 quarantine on broken, plus an attempt
        // span per supervised attempt (6 begin/end pairs).
        assert_eq!(named("supervisor_retry"), 2, "{trace}");
        assert_eq!(named("supervisor_quarantine"), 1);
        assert!(named("attempt") >= 6);
        let _ = std::fs::remove_dir_all(&o.out_dir);
    }

    /// Satellite: retry determinism. Two runs with the same seed produce
    /// bit-identical tables — backoff schedules, retry counts, and every
    /// measured cell included.
    #[test]
    fn campaign_is_bit_identical_across_runs() {
        let o1 = opts("det1");
        let o2 = opts("det2");
        let r1 = run(&o1);
        let r2 = run(&o2);
        assert_eq!(r1.render(), r2.render());
        let _ = std::fs::remove_dir_all(&o1.out_dir);
        let _ = std::fs::remove_dir_all(&o2.out_dir);
    }

    /// A campaign resumed from its own manifest replays every cell
    /// without re-measuring and reports identically.
    #[test]
    fn campaign_resumes_from_manifest() {
        let o = opts("resume");
        let fresh = run(&o);
        let resumed = run(&ExpOptions { resume: Some(o.checkpoint_dir()), ..o.clone() });
        assert_eq!(fresh.render(), resumed.render());
        let _ = std::fs::remove_dir_all(&o.out_dir);
    }
}
