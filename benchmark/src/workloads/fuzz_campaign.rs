//! `fuzz_campaign`: the full-oracle differential fuzzer through the CLI.
//!
//! Spawns `ompvar-repro fuzz --fuzz-cases N --jobs 2`: clause-annotated
//! generator, all 14 oracles, both backends. The programs are tiny, so
//! per-run set-up and lowering in `rt::simrt`, the analyzer,
//! `qcheck::gen`/`oracle` and native team spawn dominate, and the
//! engine's event loop does little per case. An event-loop speed-up
//! should *not* move this workload; a lowering, oracle or native-spawn
//! change should.

use super::{report_rates, trace_overhead, Ctx, SimUse, Workload};
use crate::metrics::{m, RunResult};
use crate::proc;
use crate::span::Recorder;
use crate::stats::{median, percentile};
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use ompvar_bench_epcc::EpccConfig;
use ompvar_obs::json::{self, Value};
use ompvar_qcheck::gen::{self, GenConfig};
use ompvar_qcheck::oracle;
use ompvar_rt::{NativeRuntime, RtConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Cases per CLI invocation. Several invocations fit in one run; each
/// takes a fresh seed range, so no case repeats.
const CASES_PER_PASS: usize = 12_000;

/// Cases the traced run decomposes in-process, on one thread.
const TRACED_CASES: usize = 4_096;

/// The workload.
pub struct FuzzCampaign;

/// Where the campaigns write.
pub struct Input {
    dir: PathBuf,
}

/// One CLI fuzz campaign, checked.
struct Campaign {
    run: proc::ChildRun,
    cases: u64,
    failures: u64,
    gate_failures: Vec<String>,
}

/// `(cases, failures)` from the fuzz table's title,
/// `Fuzz: N differential case(s), base seed S, F failure(s)`.
fn parse_title(title: &str) -> Option<(u64, u64)> {
    let mut numbers = title
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(str::parse::<u64>);
    let cases = numbers.next()?.ok()?;
    let _seed = numbers.next()?;
    let failures = numbers.next()?.ok()?;
    Some((cases, failures))
}

fn campaign(ctx: &Ctx, cases: usize, seed: u64, dir: &Path) -> Result<Campaign, String> {
    proc::fresh_dir(dir)?;
    let report = dir.join("r.json");
    let mut cmd = Command::new(&ctx.cli);
    cmd.args([
        "fuzz",
        "--fuzz-cases",
        &cases.to_string(),
        "--jobs",
        "2",
        "--seed",
        &seed.to_string(),
        "--out",
    ])
    .arg(dir)
    .arg("--report-json")
    .arg(&report);
    let run = proc::run_child(&mut cmd, &dir.join("cli.log"))?;
    let text = fs::read_to_string(&report).map_err(|e| format!("read fuzz r.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("fuzz r.json: {e}"))?;
    let fuzz = doc
        .get("experiments")
        .and_then(Value::as_arr)
        .and_then(|e| e.first())
        .ok_or("fuzz r.json has no experiment")?;
    let (ran, failures) = fuzz
        .get("tables")
        .and_then(Value::as_arr)
        .and_then(|t| t.first())
        .and_then(|t| t.get("title"))
        .and_then(Value::as_str)
        .and_then(parse_title)
        .ok_or("fuzz table title does not state cases and failures")?;
    let mut gate_failures = Vec::new();
    if !run.status.success() {
        gate_failures.push(format!("ompvar-repro fuzz exited with {}", run.status));
    }
    if ran != cases as u64 {
        gate_failures.push(format!("fuzz ran {ran} case(s), asked for {cases}"));
    }
    // The side oracles of the experiment (parallel-driver equivalence,
    // crash-resume, shrinker, grammar coverage) are gates too.
    for c in fuzz
        .get("checks")
        .and_then(Value::as_arr)
        .into_iter()
        .flatten()
    {
        if c.get("passed").and_then(Value::as_bool) != Some(true) {
            let name = c.get("name").and_then(Value::as_str).unwrap_or("unnamed");
            gate_failures.push(format!("fuzz check failed: {name}"));
        }
    }
    Ok(Campaign {
        run,
        cases: ran,
        failures,
        gate_failures,
    })
}

impl Workload for FuzzCampaign {
    const NAME: &'static str = "fuzz_campaign";
    type Input = Input;

    /// A scratch directory, and a 64-case campaign so the binary is
    /// resident and known to work.
    fn setup(ctx: &Ctx) -> Result<Input, String> {
        let dir = ctx.tmp.join(Self::NAME);
        let warm = campaign(ctx, 64, ctx.seed, &dir.join("warm"))?;
        if let Some(why) = warm.gate_failures.first() {
            return Err(format!("warm-up failed: {why}"));
        }
        Ok(Input { dir })
    }

    fn measure(ctx: &Ctx, input: &mut Input) -> Result<RunResult, String> {
        let cases = ctx.sized(CASES_PER_PASS);
        let mut result = RunResult::default();
        let mut rates = Vec::new();
        let mut peak_rss_mb = 0.0f64;
        let t0 = Instant::now();
        while rates.is_empty() || t0.elapsed().as_secs_f64() < ctx.seconds {
            let seed = ctx.seed.wrapping_add((rates.len() * cases) as u64);
            let c = campaign(ctx, cases, seed, &input.dir.join("pass"))?;
            result.attempted += c.cases;
            result.failed += c.failures;
            result.gate_failures.extend(c.gate_failures);
            peak_rss_mb = peak_rss_mb.max(c.run.peak_rss_mb);
            rates.push(c.cases as f64 / c.run.wall_s);
        }
        report_rates(&mut result, "fuzz_cases_per_s", &rates);
        result.metrics.push(m("peak_rss_mb", peak_rss_mb));
        Ok(result)
    }

    /// The first cases of the campaign again, in-process on one thread,
    /// with each layer `check_case` goes through called on its own
    /// first; then native construct overheads at two pinned threads.
    fn traced(ctx: &Ctx, _input: &mut Input, rec: &mut Recorder) -> Result<RunResult, String> {
        let cases = ctx.sized(TRACED_CASES);
        let mut result = RunResult::default();
        // Spans off, then on: the difference is what tracing costs.
        let span = rec.open("trace.baseline");
        let t0 = Instant::now();
        decompose(ctx, cases, &mut Recorder::new(Self::NAME, false))?;
        let untraced_s = t0.elapsed().as_secs_f64();
        rec.close(span, cases as u64);
        let t0 = Instant::now();
        let d = decompose(ctx, cases, rec)?;
        let traced_s = t0.elapsed().as_secs_f64();
        result.metrics.push(trace_overhead(untraced_s, traced_s));

        result.attempted = cases as u64;
        result.failed = d.violations;
        let n = cases as f64;
        let layers = rec.layers();
        let us_per_case = |name: &str| {
            layers
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / 1e3 / n)
        };
        result
            .metrics
            .push(m("qcheck.gen.us_per_case", us_per_case("qcheck.gen")));
        result
            .metrics
            .push(m("analyze.us_per_case", us_per_case("analyze")));
        result
            .metrics
            .push(m("analyze.diags_per_case", d.diagnostics as f64 / n));
        result.metrics.push(m(
            "rt.native.us_per_run",
            us_per_case("rt.native.run") * n / d.native_runs.max(1) as f64,
        ));
        result.metrics.push(m(
            "obs.wellformed.us_per_trace",
            us_per_case("obs.wellformed") * n / d.traces_checked.max(1) as f64,
        ));
        result.metrics.push(m(
            "qcheck.check_case.us_p50",
            percentile(&d.check_case_us, 50.0),
        ));
        result.metrics.push(m(
            "qcheck.check_case.us_p99",
            percentile(&d.check_case_us, 99.0),
        ));
        // What check_case does beyond one pass through the layers above:
        // determinism replay, engine-equivalence and attribution re-runs.
        let parts = ["analyze", "rt.simrt.run", "rt.native.run", "obs.wellformed"];
        let other =
            us_per_case("qcheck.check_case") - parts.iter().map(|p| us_per_case(p)).sum::<f64>();
        result
            .metrics
            .push(m("qcheck.oracle.other_us_per_case", other));
        result
            .metrics
            .push(m("qcheck.native_share", d.native_runs as f64 / n));
        result
            .metrics
            .push(m("qcheck.flagged_share", d.flagged as f64 / n));
        result.metrics.extend(d.sim.metrics());

        native_overheads(ctx, rec, &mut result)?;
        Ok(result)
    }
}

/// What the in-process decomposition counted.
struct Decomposed {
    sim: SimUse,
    diagnostics: u64,
    flagged: u64,
    native_runs: u64,
    traces_checked: u64,
    violations: u64,
    check_case_us: Vec<f64>,
}

fn decompose(ctx: &Ctx, cases: usize, rec: &mut Recorder) -> Result<Decomposed, String> {
    let cfg = GenConfig::with_vars();
    let native = oracle::native_runtime();
    let mut d = Decomposed {
        sim: SimUse::default(),
        diagnostics: 0,
        flagged: 0,
        native_runs: 0,
        traces_checked: 0,
        violations: 0,
        check_case_us: Vec::with_capacity(cases),
    };
    for i in 0..cases {
        let seed = ctx.seed.wrapping_add(i as u64);
        let case = rec.open("qcheck.case");

        let span = rec.open("qcheck.gen");
        let region = gen::generate(seed, &cfg);
        rec.close(span, 1);

        let span = rec.open("analyze");
        let analysis = ompvar_analyze::analyze(&region);
        rec.close(span, analysis.diagnostics.len() as u64);
        d.diagnostics += analysis.diagnostics.len() as u64;
        // Flagged programs run on the simulator only, as in check_case.
        let flagged = analysis.may_deadlock() || analysis.may_race();
        d.flagged += u64::from(flagged);

        let span = rec.open("rt.simrt.run");
        let t0 = Instant::now();
        let sim = oracle::sim_runtime(region.n_threads).run(&region, seed);
        let host_s = t0.elapsed().as_secs_f64();
        let events = sim
            .as_ref()
            .map_or(0, |r| r.counters.map_or(0, |c| c.events));
        rec.close(span, events);
        let mut traces = Vec::new();
        // A flagged program may deadlock on the simulator: predicted,
        // so neither counted as a run nor as a failure here.
        if let Ok(r) = sim {
            d.sim.record(events, r.wall_us / 1e6, host_s);
            traces.extend(r.trace);
        }

        if !flagged {
            let span = rec.open("rt.native.run");
            let r = native.run(&region);
            rec.close(span, 1);
            d.native_runs += 1;
            traces.extend(r.ok().and_then(|r| r.trace));
        }

        for t in &traces {
            let span = rec.open("obs.wellformed");
            let ok = ompvar_obs::wellformed::check(t).is_ok();
            rec.close(span, t.len() as u64);
            d.traces_checked += 1;
            d.violations += u64::from(!ok);
        }

        let span = rec.open("qcheck.check_case");
        let t0 = Instant::now();
        let reasons = oracle::check_case(&region, seed);
        d.check_case_us.push(t0.elapsed().as_secs_f64() * 1e6);
        rec.close(span, 1);
        d.violations += u64::from(!reasons.is_empty());

        rec.close(case, 1);
    }
    Ok(d)
}

/// Native per-construct overhead, EPCC `syncbench` port, two pinned
/// threads, median repetition. Informational: on shared hardware the
/// numbers move ±25 % from run to run (bimodal when unpinned — the
/// paper's own finding), so nothing is gated on them.
fn native_overheads(ctx: &Ctx, rec: &mut Recorder, result: &mut RunResult) -> Result<(), String> {
    const THREADS: usize = 2;
    const CONSTRUCTS: [(SyncConstruct, &str); 6] = [
        (SyncConstruct::Parallel, "rt.native.parallel_overhead_us"),
        (SyncConstruct::For, "rt.native.for_overhead_us"),
        (SyncConstruct::Barrier, "rt.native.barrier_overhead_us"),
        (SyncConstruct::Single, "rt.native.single_overhead_us"),
        (SyncConstruct::Ordered, "rt.native.ordered_overhead_us"),
        (SyncConstruct::Reduction, "rt.native.reduction_overhead_us"),
    ];
    let cfg = EpccConfig::syncbench_default().fast(ctx.sized(400) as u32);
    let rt = NativeRuntime::new(RtConfig::from_env_strs(
        &format!("threads({THREADS})"),
        "close",
    )?);
    for (construct, metric) in CONSTRUCTS {
        let span = rec.open("rt.native.syncbench");
        let inner = syncbench::calibrate_inner_reps(&rt, &cfg, construct, THREADS, 100_000);
        let region = syncbench::region_with_inner(&cfg, construct, THREADS, inner);
        let res = rt
            .run(&region)
            .map_err(|e| format!("native syncbench {}: {e}", construct.label()))?;
        rec.close(span, u64::from(cfg.outer_reps) * u64::from(inner));
        result.metrics.push(m(
            metric,
            syncbench::overhead_us(&cfg, construct, median(res.reps()), inner),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::parse_title;

    #[test]
    fn title_yields_cases_and_failures_not_the_seed() {
        assert_eq!(
            parse_title("Fuzz: 12000 differential case(s), base seed 20230714, 0 failure(s)"),
            Some((12000, 0))
        );
        assert_eq!(
            parse_title("Fuzz: 60 differential case(s), base seed 7, 3 failure(s)"),
            Some((60, 3))
        );
        assert_eq!(parse_title("Fuzz: no numbers here"), None);
    }
}
