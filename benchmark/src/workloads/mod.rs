//! The five workloads and the frame every one of them runs in.

pub mod engine_dense;
pub mod fuzz_campaign;
pub mod journal;
pub mod paper_sweep;

use crate::fidelity;
use crate::metrics::{m, Metric, RunResult};
use crate::proc;
use crate::span::Recorder;
use crate::stats::{median, percentile, quartiles};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Everything a workload is told. The program under test only ever sees
/// inputs generated from `seed`.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// How long the untraced measurement loop runs, seconds.
    pub seconds: f64,
    /// Every size at 1/16, for a CI-sized run through the same code.
    pub smoke: bool,
    /// The release `ompvar-repro` binary `run.sh` built.
    pub cli: PathBuf,
    /// Scratch directory of this process, inside the checkout.
    pub tmp: PathBuf,
}

impl Ctx {
    /// `full`, or `full / 16` under `--smoke`.
    pub fn sized(&self, full: usize) -> usize {
        if self.smoke {
            full / 16
        } else {
            full
        }
    }
}

/// One workload: its inputs, its untraced measurement, and the traced
/// run that splits the same work by layer.
pub trait Workload {
    /// Catalogue name.
    const NAME: &'static str;
    /// Generated inputs.
    type Input;

    /// Build the inputs from `ctx.seed` (timed as `setup_s`).
    fn setup(ctx: &Ctx) -> Result<Self::Input, String>;

    /// Measure for `ctx.seconds`. Reports `work_per_s` and
    /// `peak_rss_mb`; the frame adds the rest.
    fn measure(ctx: &Ctx, input: &mut Self::Input) -> Result<RunResult, String>;

    /// Run a fixed amount of the same work with a span around each call
    /// into a layer, and report the per-layer metrics.
    fn traced(ctx: &Ctx, input: &mut Self::Input, rec: &mut Recorder) -> Result<RunResult, String>;
}

/// A workload's use of the simulator, folded into the `sim.*` and
/// `rt.simrt.*` metrics every traced run reports.
#[derive(Debug, Default)]
pub struct SimUse {
    events: u64,
    virtual_s: f64,
    host_s: Vec<f64>,
}

impl SimUse {
    /// Record one `SimRuntime::run`: engine events, virtual seconds
    /// simulated, host seconds taken.
    pub fn record(&mut self, events: u64, virtual_s: f64, host_s: f64) {
        self.events += events;
        self.virtual_s += virtual_s;
        self.host_s.push(host_s);
    }

    /// Host time over all recorded runs, seconds.
    pub fn host_total_s(&self) -> f64 {
        self.host_s.iter().sum()
    }

    /// The six simulator metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let host = self.host_total_s();
        let us: Vec<f64> = self.host_s.iter().map(|s| s * 1e6).collect();
        vec![
            m("sim.events", self.events as f64),
            m("sim.events_per_run", self.events as f64 / us.len() as f64),
            m("sim.ns_per_event", host * 1e9 / self.events as f64),
            m("sim.virtual_s_per_host_s", self.virtual_s / host),
            m("rt.simrt.run_us_p50", percentile(&us, 50.0)),
            m("rt.simrt.run_us_p99", percentile(&us, 99.0)),
        ]
    }
}

/// Set-up runs this many times; `setup_s` is the median, so one slow
/// directory creation or page-cache miss does not read as a regression.
const SETUP_REPEATS: usize = 3;

/// One run of workload `W`: untraced for the end-to-end metrics, or —
/// given where to write the spans — traced for the per-layer metrics.
pub fn run<W: Workload>(ctx: &Ctx, trace_path: Option<&Path>) -> Result<RunResult, String> {
    match trace_path {
        None => run_untraced::<W>(ctx),
        Some(path) => run_traced::<W>(ctx, path),
    }
}

fn run_untraced<W: Workload>(ctx: &Ctx) -> Result<RunResult, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut input = None;
    for _ in 0..SETUP_REPEATS {
        drop(input.take());
        let t0 = Instant::now();
        input = Some(W::setup(ctx)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut input = input.expect("SETUP_REPEATS > 0");
    let mut result = W::measure(ctx, &mut input)?;
    drop(input);
    // A workload that ran in this process leaves the memory to the
    // frame. Read before the fidelity probe, so its 254-thread Dardel
    // cell does not count towards the workload's peak.
    if !result.metrics.iter().any(|x| x.name == "peak_rss_mb") {
        result
            .metrics
            .push(m("peak_rss_mb", proc::own_peak_rss_mb()?));
    }
    result.metrics.push(m(
        "table2_max_rel_err_pct",
        fidelity::max_rel_err_pct(ctx.seed)?,
    ));
    result.metrics.push(m("setup_s", median(&setup_s)));
    Ok(result)
}

fn run_traced<W: Workload>(ctx: &Ctx, trace_path: &Path) -> Result<RunResult, String> {
    let mut input = W::setup(ctx)?;
    let mut rec = Recorder::new(W::NAME, true);
    let root = rec.open(W::NAME);
    let mut result = W::traced(ctx, &mut input, &mut rec)?;
    rec.close(root, result.attempted);
    result
        .metrics
        .push(m("trace.spans", rec.spans().len() as f64));
    result
        .metrics
        .push(m("trace.cover_share", rec.cover_share()));
    std::fs::write(trace_path, rec.chrome_json())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    Ok(result)
}

/// `work_per_s` from the rate of each sample (invocation, batch or
/// round): the median, listed under `name` with the quartiles and the
/// sample count beside it.
pub fn report_rates(result: &mut RunResult, name: &'static str, rates: &[f64]) {
    let (q1, q2, q3) = quartiles(rates);
    result.metrics.push(m("work_per_s", q2));
    result.info.push((name, q2.to_string(), "1/s"));
    result.info.push(("samples_q1", q1.to_string(), "1/s"));
    result.info.push(("samples_q3", q3.to_string(), "1/s"));
    result
        .info
        .push(("samples", rates.len().to_string(), "count"));
}

/// `trace.overhead_pct`: what the spans cost, from the same loop timed
/// with the recorder off and on.
pub fn trace_overhead(untraced_s: f64, traced_s: f64) -> Metric {
    m(
        "trace.overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    )
}
