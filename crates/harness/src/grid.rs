//! Grids: an experiment declared as seeded cells plus a fold.
//!
//! The paper's protocol is N independent seeded job submissions per
//! configuration, folded into a table. A [`Plan`] registers exactly
//! that: each *cell* is one `(runtime, region, seed_base + i)` run,
//! reduced inside the cell to a small bit-exact [`Sample`]; the fold is
//! the pure function from the completed samples to the report. Whoever
//! holds the [`Grid`] owns scheduling: the CLI flattens every selected
//! experiment's cells into its one journaled campaign ([`Sweep`]), so
//! `--jobs`, `--resume`, retry / quarantine and the watchdog all apply
//! per cell; [`Grid::run`] is the same path, serially.

use crate::common::{Check, ExpOptions, ExpReport};
use ompvar_bench_epcc::run_seed;
use ompvar_bench_stream::{kernel_stats, KernelStats, StreamKernel};
use ompvar_core::RunSet;
use ompvar_obs::json::Value;
use ompvar_rt::config::RegionResult;
use ompvar_rt::region::RegionSpec;
use ompvar_rt::simrt::SimRuntime;
use ompvar_supervisor::{
    attempt_seed, Checkpointable, ExecUnit, Outcome, RetryRecord, Transience, UnitError,
    UnitResult,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one cell leaves in the journal.
#[derive(Debug, Clone)]
pub enum Sample {
    /// A seeded run reduced to a few finite numbers, bit-exact through
    /// the journal text (`{"samples":[…]}`, shortest-roundtrip floats).
    Values(Vec<f64>),
    /// The finished report of an experiment that is one cell.
    Report(ExpReport),
}

impl Sample {
    /// Wrap a cell's reduced values. JSON has no NaN or infinity — the
    /// journal would silently hold `null` — so a non-finite value is a
    /// permanent cell failure instead.
    pub fn checked(values: Vec<f64>) -> Result<Sample, UnitError> {
        match values.iter().position(|v| !v.is_finite()) {
            None => Ok(Sample::Values(values)),
            Some(i) => Err(UnitError {
                message: format!("non-finite sample: value {i} of {} is {}", values.len(), values[i]),
                transience: Transience::Permanent,
                timed_out: false,
            }),
        }
    }

    /// The numbers of a seeded run's sample; a report holds none.
    pub fn values(&self) -> &[f64] {
        match self {
            Sample::Values(v) => v,
            Sample::Report(_) => &[],
        }
    }
}

impl Checkpointable for Sample {
    fn to_ckpt(&self) -> Value {
        match self {
            Sample::Values(v) => Value::Obj(vec![(
                "samples".into(),
                Value::Arr(v.iter().map(|&x| Value::Num(x)).collect()),
            )]),
            Sample::Report(r) => r.to_ckpt(),
        }
    }

    fn from_ckpt(v: &Value) -> Option<Sample> {
        match v.get("samples") {
            Some(s) => s.as_arr()?.iter().map(Value::as_f64).collect::<Option<_>>().map(Sample::Values),
            None => ExpReport::from_ckpt(v).map(Sample::Report),
        }
    }
}

/// One schedulable cell: a campaign unit yielding a [`Sample`].
pub type Cell = ExecUnit<Sample>;

/// The cells of one configuration, as indices into its grid.
pub type Runs = std::ops::Range<usize>;

/// The pure function from a grid's completed samples to its report.
type Fold = Box<dyn FnOnce(Samples) -> ExpReport + Send>;

/// An experiment, declared: cells in canonical order and the fold over
/// their samples (same order).
pub struct Grid {
    /// The cells; names are unique across the whole registry.
    pub cells: Vec<Cell>,
    fold: Fold,
}

impl Grid {
    /// An experiment that is one cell: `run` under the attempt's seed,
    /// its report the sample.
    pub fn whole(name: &str, opts: &ExpOptions, run: fn(&ExpOptions) -> ExpReport) -> Grid {
        let opts = opts.clone();
        let cell = ExecUnit::new(name, move |attempt| {
            let seed = attempt_seed(opts.seed, attempt);
            Ok(Sample::Report(run(&ExpOptions { seed, ..opts.clone() })))
        });
        let fold = |mut s: Samples| match s.0.pop() {
            Some(Sample::Report(report)) => report,
            _ => unreachable!("a whole-experiment cell yields its report"),
        };
        Grid { cells: vec![cell], fold: Box::new(fold) }
    }

    /// An experiment refused before planning: one cell named `name`
    /// that fails with `err` on every attempt, so the supervisor
    /// classifies, journals and reports the refusal like any other.
    pub fn rejected(name: &str, err: UnitError) -> Grid {
        let cell = ExecUnit::new(name, move |_| Err(err.clone()));
        Grid { cells: vec![cell], fold: Box::new(|_| unreachable!("a rejected grid never completes")) }
    }

    /// Plan → cells in order → fold, on this thread.
    ///
    /// # Panics
    ///
    /// Panics if a cell fails.
    pub fn run(self) -> ExpReport {
        let run = |c: &Cell| (c.run)(0).unwrap_or_else(|e| panic!("cell {} failed: {}", c.name, e.message));
        (self.fold)(Samples(self.cells.iter().map(run).collect()))
    }
}

/// The completed samples of one grid, in cell order.
pub struct Samples(Vec<Sample>);

impl Samples {
    /// The values of one configuration's cells, in seed order.
    pub fn of(&self, runs: &Runs) -> impl Iterator<Item = &[f64]> {
        self.0[runs.clone()].iter().map(Sample::values)
    }

    /// The values of a single-run configuration.
    pub fn one(&self, runs: &Runs) -> &[f64] {
        self.of(runs).next().expect("a configuration has at least one run")
    }

    /// One configuration reduced by [`reps`], as the run set the
    /// variability statistics are defined on.
    pub fn runset(&self, runs: &Runs) -> RunSet {
        RunSet::new(self.of(runs).map(<[f64]>::to_vec).collect())
    }
}

/// Builder for a [`Grid`]: register configurations, then attach the fold.
pub struct Plan {
    name: &'static str,
    seed: u64,
    cells: Vec<Cell>,
}

impl Plan {
    /// Start the grid of experiment `name`; run `i` of every
    /// configuration is seeded `opts.seed + i`.
    pub fn new(name: &'static str, opts: &ExpOptions) -> Plan {
        Plan { name, seed: opts.seed, cells: Vec::new() }
    }

    /// Register `n` seeded runs of `region` on `rt` — cells
    /// `<experiment>/<label>/<i>` — each reduced by `reduce` before its
    /// [`RegionResult`] is dropped. The cells share the runtime and the
    /// region; nothing is built per seed.
    pub fn cells(
        &mut self,
        label: impl std::fmt::Display,
        rt: SimRuntime,
        region: RegionSpec,
        n: usize,
        reduce: impl Fn(&RegionResult) -> Vec<f64> + Send + Sync + 'static,
    ) -> Runs {
        let first = self.cells.len();
        let (seed, shared) = (self.seed, Arc::new((rt, region, reduce)));
        self.cells.extend((0..n).map(|i| {
            let shared = Arc::clone(&shared);
            ExecUnit::new(format!("{}/{label}/{i}", self.name), move |attempt| {
                let (rt, region, reduce) = &*shared;
                let res = run_seed(rt, region, attempt_seed(seed, attempt), i)
                    .map_err(|e| UnitError::from_rt(&e))?;
                Sample::checked(reduce(&res))
            })
        }));
        first..self.cells.len()
    }

    /// Attach the fold and finish the grid.
    pub fn fold(self, fold: impl FnOnce(Samples) -> ExpReport + Send + 'static) -> Grid {
        Grid { cells: self.cells, fold: Box::new(fold) }
    }
}

/// Reducer: the repetition times of the measured interval.
pub fn reps(res: &RegionResult) -> Vec<f64> {
    res.reps().to_vec()
}

/// Reducer: the mean repetition time alone.
pub fn mean_rep(res: &RegionResult) -> Vec<f64> {
    vec![res.mean_rep_us()]
}

/// Reducer: BabelStream's per-kernel `min, avg, max` (µs), kernels in
/// [`StreamKernel::ALL`] order.
pub fn stream(res: &RegionResult) -> Vec<f64> {
    let stats = kernel_stats(res);
    StreamKernel::ALL.iter().flat_map(|k| [stats[k].min_us, stats[k].avg_us, stats[k].max_us]).collect()
}

/// The kernel statistics a [`stream`] sample holds, in
/// [`StreamKernel::ALL`] order.
pub fn stream_stats(sample: &[f64]) -> impl Iterator<Item = KernelStats> + '_ {
    sample.chunks_exact(3).map(|s| KernelStats { min_us: s[0], avg_us: s[1], max_us: s[2] })
}

/// One experiment of a [`Sweep`], terminal: what the CLI prints.
pub struct Done {
    /// The folded report — or, if any cell was quarantined, one FAIL
    /// check per quarantined cell, in cell order.
    pub report: ExpReport,
    /// Cells the experiment had.
    pub cells: usize,
    /// Wall-clock summed over its cells (all attempts and backoff).
    pub busy: Duration,
    /// First cell start to last cell end.
    pub wall: Duration,
    /// ` [replayed …]`, ` [recovered …]`, ` [quarantined]` or empty.
    pub note: String,
}

struct Part {
    name: &'static str,
    first: usize,
    slots: Vec<Option<Result<Sample, Check>>>,
    fold: Option<Fold>,
    report: Option<ExpReport>,
    busy: Duration,
    started: Option<Instant>,
    replayed: usize,
    retried: usize,
}

/// Several grids flattened into one campaign's units, with the
/// bookkeeping that folds each experiment the moment its last cell is
/// terminal.
pub struct Sweep {
    units: Vec<Cell>,
    owner: Vec<usize>,
    parts: Vec<Mutex<Part>>,
}

impl Sweep {
    /// Flatten `grids` (experiment name, grid) in order.
    pub fn new(grids: Vec<(&'static str, Grid)>) -> Sweep {
        let mut sweep = Sweep { units: Vec::new(), owner: Vec::new(), parts: Vec::new() };
        for (exp, (name, grid)) in grids.into_iter().enumerate() {
            let n = grid.cells.len();
            sweep.parts.push(Mutex::new(Part {
                name,
                first: sweep.units.len(),
                slots: (0..n).map(|_| None).collect(),
                fold: Some(grid.fold),
                report: None,
                busy: Duration::ZERO,
                started: None,
                replayed: 0,
                retried: 0,
            }));
            sweep.owner.extend(std::iter::repeat_n(exp, n));
            sweep.units.extend(grid.cells);
        }
        sweep
    }

    /// The campaign's units: every cell, experiments in order.
    pub fn units(&self) -> &[Cell] {
        &self.units
    }

    /// Record one terminal cell (the campaign's progress callback; any
    /// thread). Returns the experiment's [`Done`] when this was its last
    /// cell.
    pub fn record(&self, r: &UnitResult<Sample>) -> Option<Done> {
        let mut guard = self.parts[self.owner[r.index]].lock().expect("record never panics");
        let p = &mut *guard;
        let now = Instant::now();
        p.busy += r.duration;
        let began = now.checked_sub(r.duration).unwrap_or(now);
        let started = *p.started.insert(p.started.map_or(began, |s| s.min(began)));
        p.replayed += usize::from(r.outcome.from_checkpoint());
        p.retried += usize::from(r.outcome.attempts() > 1);
        p.slots[r.index - p.first] = Some(match &r.outcome {
            Outcome::Completed { value, .. } => Ok(value.clone()),
            Outcome::Quarantined { retries, .. } => Err(quarantine_check(&r.name, retries)),
        });
        if p.slots.iter().any(Option::is_none) {
            return None;
        }
        let cells = p.slots.len();
        let (mut samples, mut failed) = (Vec::new(), Vec::new());
        for slot in p.slots.drain(..) {
            match slot.expect("every cell is terminal") {
                Ok(sample) => samples.push(sample),
                Err(check) => failed.push(check),
            }
        }
        let (report, note) = if !failed.is_empty() {
            (ExpReport::new(p.name, Vec::new(), failed), " [quarantined]".into())
        } else {
            let samples = Samples(samples);
            let fold = p.fold.take().expect("an experiment folds once");
            // A panicking fold must cost its own experiment a FAIL check,
            // not the worker thread this callback runs on.
            let report = catch_unwind(AssertUnwindSafe(|| fold(samples))).unwrap_or_else(|_| {
                let check = Check::new("experiment folds its samples", false, "fold panicked".into());
                ExpReport::new(p.name, Vec::new(), vec![check])
            });
            let note = match (p.replayed, p.retried) {
                (0, 0) => String::new(),
                (0, k) => format!(" [recovered {k} cell(s) by retry]"),
                (k, _) if k == cells => " [replayed from checkpoint]".into(),
                (k, _) => format!(" [replayed {k} of {cells} cells from checkpoint]"),
            };
            (report, note)
        };
        p.report = Some(report.clone());
        Some(Done { report, cells, busy: p.busy, wall: now - started, note })
    }

    /// After the campaign: total busy time and the reports of the
    /// experiments that reached a terminal state (all of them unless the
    /// campaign was interrupted), in canonical order.
    pub fn finish(self) -> (Duration, Vec<ExpReport>) {
        let parts = self.parts.into_iter().map(|p| p.into_inner().expect("record never panics"));
        let (busy, reports): (Vec<_>, Vec<_>) = parts.map(|p| (p.busy, p.report)).unzip();
        (busy.into_iter().sum(), reports.into_iter().flatten().collect())
    }
}

/// The FAIL check a quarantined cell leaves in its experiment's report.
fn quarantine_check(cell: &str, retries: &[RetryRecord]) -> Check {
    let history = retries
        .iter()
        .map(|r| format!("attempt {}: {} [{}]", r.attempt, r.error, r.transience.name()))
        .collect::<Vec<_>>()
        .join("; ");
    Check::new(
        "experiment completes within its retry budget",
        false,
        format!("cell {cell} quarantined after {} attempt(s): {history}", retries.len()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{run_journaled, Campaign};
    use ompvar_obs::json;

    /// What a journal line carries of a sample: the payload as text.
    fn through_journal_text(s: &Sample) -> Option<Sample> {
        Sample::from_ckpt(&json::parse(&json::write(&s.to_ckpt())).expect("journal text parses"))
    }

    #[test]
    fn samples_round_trip_the_journal_text_bit_for_bit() {
        let subnormal = f64::MIN_POSITIVE / 8.0;
        assert!(subnormal > 0.0 && !subnormal.is_normal());
        let hard = vec![-0.0, 0.0, f64::from_bits(1), subnormal, f64::MIN_POSITIVE, 1e-300, 0.1, -1.5e300, f64::MAX, f64::MIN];
        for values in [hard, Vec::new()] {
            let back = through_journal_text(&Sample::checked(values.clone()).expect("finite")).expect("readable");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(matches!(back, Sample::Values(_)));
            assert_eq!(bits(back.values()), bits(&values));
        }
        // A report stays a report (it has no `samples` field).
        let report = ExpReport::new("demo", Vec::new(), vec![Check::new("c", true, "d".into())]);
        match through_journal_text(&Sample::Report(report.clone())) {
            Some(Sample::Report(back)) => assert_eq!(back.render(), report.render()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_non_finite_sample_is_a_typed_permanent_error_not_a_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Sample::checked(vec![1.0, bad]).expect_err("non-finite");
            assert_eq!(err.transience, Transience::Permanent);
            assert!(err.message.contains("non-finite sample: value 1 of 2"), "{}", err.message);
        }
        // … and a `null` that reached a journal anyway is unreadable (the
        // cell re-runs), never a silently shorter or zeroed sample.
        let null = json::parse(r#"{"samples":[1.0,null]}"#).unwrap();
        assert!(Sample::from_ckpt(&null).is_none());
    }

    /// Rendered report plus the bytes of every CSV it writes.
    fn artifacts(report: &ExpReport, tag: &str) -> (String, Vec<Vec<u8>>) {
        let dir = std::env::temp_dir().join(format!("ompvar_grid_{tag}_{}", std::process::id()));
        let csvs = report.write_csvs(&dir).expect("CSVs written");
        let bytes = csvs.iter().map(|p| std::fs::read(p).expect("CSV readable")).collect();
        let _ = std::fs::remove_dir_all(&dir);
        (report.render(), bytes)
    }

    /// The three ways a grid's cells get run — in order on this thread,
    /// on the executor at `--jobs 4`, and not at all (replayed from the
    /// journal the second way wrote) — fold to the same bytes.
    #[test]
    fn serial_parallel_and_replayed_folds_agree() {
        let out = std::env::temp_dir().join(format!("ompvar_grid_sweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let opts = ExpOptions { jobs: 4, seed: 3, out_dir: out.clone(), ..ExpOptions::fast() };
        let names = ["fig2", "fig4", "table2"];
        let exps = || names.map(|n| crate::EXPERIMENTS.iter().find(|e| e.name == n).unwrap());
        let serial: Vec<_> = exps().iter().map(|e| artifacts(&e.run(&opts), "serial")).collect();

        let swept = |opts: &ExpOptions, tag: &str| {
            let sweep = Sweep::new(exps().iter().map(|e| (e.name, e.plan(opts))).collect());
            let record = |r: &UnitResult<Sample>| drop(sweep.record(r));
            let door = Campaign { progress: Some(&record), ..Campaign::inner("grid") };
            let run = run_journaled(opts, &door, sweep.units()).expect("StartFresh never aborts");
            let replayed = run.results.iter().filter(|r| r.outcome.from_checkpoint()).count();
            let (_, reports) = sweep.finish();
            assert_eq!(reports.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(), names);
            (run.results.len(), replayed, reports.iter().map(|r| artifacts(r, tag)).collect::<Vec<_>>())
        };
        let (cells, replayed, parallel) = swept(&opts, "parallel");
        assert_eq!(replayed, 0);
        assert_eq!(parallel, serial, "jobs 4 vs serial");
        let resumed = ExpOptions { resume: Some(opts.checkpoint_dir()), ..opts.clone() };
        let (_, replayed, from_journal) = swept(&resumed, "replayed");
        assert_eq!(replayed, cells, "every cell replays, none re-runs");
        assert_eq!(from_journal, serial, "journal replay vs serial");
        let _ = std::fs::remove_dir_all(&out);
    }
}
