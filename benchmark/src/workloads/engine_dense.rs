//! `engine_dense`: the simulator's interpreter, in-process on one thread.
//!
//! A corpus of generator programs, each run once per pass on the
//! sterile `SimRuntime` the fuzz oracles use (Vera, pinned close, no
//! noise, tracing on, 300 s virtual limit). Same `sim` layer as
//! `paper_sweep`, used differently: micro-op dispatch and queue pops
//! with no tick or noise chains. This is where a single engine path or
//! superops must show, and where a noisy-regime fast path must show
//! nothing.
//!
//! The rate is deliberately **runs**/s, not events/s: fast-forward or
//! superops that *remove* events must read as a gain, not a loss.

use super::{report_rates, trace_overhead, Ctx, SimUse, Workload};
use crate::metrics::{m, RunResult};
use crate::span::Recorder;
use crate::stats::{fnv1a, FNV_OFFSET};
use ompvar_qcheck::gen::{self, GenConfig};
use ompvar_qcheck::oracle;
use ompvar_rt::region::RegionSpec;
use ompvar_rt::SimRuntime;
use std::time::Instant;

/// Batches in the corpus; one batch is one rate sample.
const BATCHES: usize = 8;

/// Programs per batch.
const BATCH: usize = 4096;

/// Programs the traced run repeats with tracing off and with
/// attribution on, to price those two.
const COST_SUBSAMPLE: usize = 16_384;

/// Larger than the fuzz campaign's programs in every dimension, so a run
/// spends its time in the event loop, not in lowering; no data
/// environment.
const DENSE: GenConfig = GenConfig {
    max_threads: 8,
    max_block_len: 8,
    max_depth: 3,
    max_repeat: 8,
    max_iters: 96,
    max_body_us: 2.0,
    max_tasks: 6,
    max_vars: 0,
};

/// The workload.
pub struct EngineDense;

struct Program {
    region: RegionSpec,
    seed: u64,
    /// The analyzer's verdict: a run of this program may legitimately
    /// end in a diagnosed deadlock.
    may_deadlock: bool,
}

/// The corpus and one runtime per team size.
pub struct Input {
    programs: Vec<Program>,
    runtimes: Vec<SimRuntime>,
}

/// One runtime per team size `1..=max_threads`, each adjusted by `f`.
fn runtimes(f: impl Fn(SimRuntime) -> SimRuntime) -> Vec<SimRuntime> {
    (1..=DENSE.max_threads)
        .map(|n| f(oracle::sim_runtime(n)))
        .collect()
}

/// What one pass over some programs found. Everything but `host_s` is a
/// simulated statistic and repeats exactly.
#[derive(Debug, Default, Clone, PartialEq)]
struct PassCounts {
    events: u64,
    trace_events: u64,
    expected_deadlocks: u64,
    failed: u64,
    /// FNV-1a over every run's virtual wall time, bit for bit.
    wall_digest: u64,
}

/// Run `programs` once each; a span and a [`SimUse`] record per run.
fn run_all(
    programs: &[Program],
    runtimes: &[SimRuntime],
    rec: &mut Recorder,
    sim: &mut SimUse,
) -> PassCounts {
    let mut c = PassCounts {
        wall_digest: FNV_OFFSET,
        ..PassCounts::default()
    };
    for p in programs {
        let span = rec.open("rt.simrt.run");
        let t0 = Instant::now();
        let run = runtimes[p.region.n_threads - 1].run(&p.region, p.seed);
        let host_s = t0.elapsed().as_secs_f64();
        match run {
            Ok(r) => {
                let events = r.counters.map_or(0, |k| k.events);
                rec.close(span, events);
                sim.record(events, r.wall_us / 1e6, host_s);
                c.events += events;
                c.trace_events += r.trace.map_or(0, |t| t.len() as u64);
                c.wall_digest = fnv1a(c.wall_digest, &r.wall_us.to_bits().to_le_bytes());
            }
            Err(_) => {
                rec.close(span, 0);
                if p.may_deadlock {
                    c.expected_deadlocks += 1;
                } else {
                    c.failed += 1;
                }
            }
        }
    }
    c
}

impl Workload for EngineDense {
    const NAME: &'static str = "engine_dense";
    type Input = Input;

    /// Generate and analyze the corpus: outside the clock.
    fn setup(ctx: &Ctx) -> Result<Input, String> {
        let programs = (0..BATCHES * ctx.sized(BATCH))
            .map(|i| {
                let seed = ctx.seed.wrapping_add(i as u64);
                let region = gen::generate(seed, &DENSE);
                let may_deadlock = ompvar_analyze::analyze(&region).may_deadlock();
                Program {
                    region,
                    seed,
                    may_deadlock,
                }
            })
            .collect();
        Ok(Input {
            programs,
            runtimes: runtimes(|rt| rt),
        })
    }

    fn measure(ctx: &Ctx, input: &mut Input) -> Result<RunResult, String> {
        let batch = ctx.sized(BATCH);
        let mut result = RunResult::default();
        let mut off = Recorder::new(Self::NAME, false);
        let mut first_pass: Vec<PassCounts> = Vec::with_capacity(BATCHES);
        let mut rates = Vec::new();
        let (mut runs, mut host_s) = (0u64, 0.0f64);
        let t0 = Instant::now();
        // At least the whole corpus once, then whole batches until time
        // is up; a batch seen before must count exactly what it did then.
        while rates.len() < BATCHES || t0.elapsed().as_secs_f64() < ctx.seconds {
            let b = rates.len() % BATCHES;
            let t = Instant::now();
            let c = run_all(
                &input.programs[b * batch..(b + 1) * batch],
                &input.runtimes,
                &mut off,
                &mut SimUse::default(),
            );
            let dt = t.elapsed().as_secs_f64();
            rates.push(batch as f64 / dt);
            runs += batch as u64;
            host_s += dt;
            result.failed += c.failed;
            match first_pass.get(b) {
                Some(first) if *first != c => {
                    result.gate_failures.push(format!(
                        "batch {b} counted {c:?} on a later pass, {first:?} on the first"
                    ));
                }
                Some(_) => {}
                None => first_pass.push(c),
            }
        }
        result.attempted = runs;
        report_rates(&mut result, "dense_runs_per_s", &rates);
        let total = |f: fn(&PassCounts) -> u64| first_pass.iter().map(f).sum::<u64>();
        let digest = first_pass
            .iter()
            .fold(FNV_OFFSET, |d, c| fnv1a(d, &c.wall_digest.to_le_bytes()));
        result.info.push((
            "dense_runs_per_s_total",
            (runs as f64 / host_s).to_string(),
            "1/s",
        ));
        result
            .info
            .push(("dense_events", total(|c| c.events).to_string(), "count"));
        result.info.push((
            "dense_expected_deadlocks",
            total(|c| c.expected_deadlocks).to_string(),
            "count",
        ));
        result
            .info
            .push(("dense_wall_digest", format!("{digest:016x}"), "fnv1a"));
        Ok(result)
    }

    /// The whole corpus once with a span per run (and once without, for
    /// the overhead), then a subsample with tracing off and with
    /// attribution on.
    fn traced(ctx: &Ctx, input: &mut Input, rec: &mut Recorder) -> Result<RunResult, String> {
        let mut result = RunResult::default();
        let span = rec.open("trace.baseline");
        let t0 = Instant::now();
        let plain = run_all(
            &input.programs,
            &input.runtimes,
            &mut Recorder::new(Self::NAME, false),
            &mut SimUse::default(),
        );
        let untraced_s = t0.elapsed().as_secs_f64();
        rec.close(span, plain.events);
        let mut sim = SimUse::default();
        let t0 = Instant::now();
        let c = run_all(&input.programs, &input.runtimes, rec, &mut sim);
        let traced_s = t0.elapsed().as_secs_f64();
        if plain != c {
            result.gate_failures.push(format!(
                "spans changed the simulation: {plain:?} without, {c:?} with"
            ));
        }
        result.attempted = input.programs.len() as u64;
        result.failed = c.failed;
        let completed = (result.attempted - c.failed - c.expected_deadlocks) as f64;
        result.metrics.push(trace_overhead(untraced_s, traced_s));
        result.metrics.extend(sim.metrics());
        result
            .metrics
            .push(m("sim.expected_deadlocks", c.expected_deadlocks as f64));
        result.metrics.push(m(
            "obs.trace_events_per_run",
            c.trace_events as f64 / completed,
        ));

        let sample = &input.programs[..ctx.sized(COST_SUBSAMPLE).min(input.programs.len())];
        let mut timed = |name: &'static str, runtimes: &[SimRuntime]| {
            let span = rec.open(name);
            let t0 = Instant::now();
            let c = run_all(
                sample,
                runtimes,
                &mut Recorder::new(Self::NAME, false),
                &mut SimUse::default(),
            );
            rec.close(span, c.events);
            t0.elapsed().as_secs_f64()
        };
        let on_s = timed("sim.cost.tracing_on", &input.runtimes);
        let off_s = timed(
            "sim.cost.tracing_off",
            &runtimes(|rt| rt.with_tracing(false)),
        );
        let attr_s = timed(
            "sim.cost.attribution_on",
            &runtimes(|rt| rt.with_attribution(true)),
        );
        result
            .metrics
            .push(m("sim.trace_cost_share", (on_s - off_s) / on_s));
        result
            .metrics
            .push(m("obs.attr_cost_share", (attr_s - on_s) / attr_s));
        Ok(result)
    }
}
