//! Grids: an experiment declared as seeded cells plus a fold.
//!
//! The paper's protocol is N independent seeded job submissions per
//! configuration, folded into a table. A [`Plan`] registers exactly
//! that: each *cell* is one seeded piece of work — for the paper's
//! experiments one `(runtime, region, seed_base + i)` run
//! ([`Plan::cells`]), for `fuzz` a batch of cases, for `variability` one
//! attributed run ([`Plan::cell`]) — reduced inside the cell to a small
//! bit-exact [`Sample`]; the fold is the pure function from the
//! completed samples to the report. Whoever holds the [`Grid`] owns
//! scheduling: the CLI flattens every selected experiment's cells into
//! its one journaled campaign ([`Sweep`]), so `--jobs`, `--resume`,
//! retry / quarantine and the watchdog all apply per cell;
//! [`Grid::run`] is the same path, serially.

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
    /// the journal text (`{"samples":[…]}`, shortest-roundtrip floats) —
    /// and, beside them, the text a fold cannot re-derive: a fuzz
    /// batch's failing cases as the cell saw them fail (`"notes":[…]`,
    /// written when there is any).
    Values(Vec<f64>, Vec<String>),
    /// The finished report of an experiment that is one cell.
    Report(ExpReport),
}

impl Sample {
    /// Wrap a cell's reduced values.
    pub fn checked(values: Vec<f64>) -> Result<Sample, UnitError> {
        Sample::noted(values, Vec::new())
    }

    /// Wrap a cell's reduced values and the text observed with them.
    /// JSON has no NaN or infinity — the journal would silently hold
    /// `null` — so a non-finite value is a permanent cell failure
    /// instead.
    pub fn noted(values: Vec<f64>, notes: Vec<String>) -> Result<Sample, UnitError> {
        match values.iter().position(|v| !v.is_finite()) {
            None => Ok(Sample::Values(values, notes)),
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
            Sample::Values(v, _) => v,
            Sample::Report(_) => &[],
        }
    }
}

impl Checkpointable for Sample {
    fn to_ckpt(&self) -> Value {
        match self {
            Sample::Values(v, notes) => {
                let mut fields = vec![("samples".into(), Value::Arr(v.iter().map(|&x| Value::Num(x)).collect()))];
                if !notes.is_empty() {
                    fields.push(("notes".into(), Value::Arr(notes.iter().map(|n| Value::Str(n.clone())).collect())));
                }
                Value::Obj(fields)
            }
            Sample::Report(r) => r.to_ckpt(),
        }
    }

    fn from_ckpt(v: &Value) -> Option<Sample> {
        let Some(samples) = v.get("samples") else {
            return ExpReport::from_ckpt(v).map(Sample::Report);
        };
        let values = samples.as_arr()?.iter().map(Value::as_f64).collect::<Option<_>>()?;
        let text = |n: &Value| n.as_str().map(str::to_string);
        let notes = match v.get("notes") {
            Some(n) => n.as_arr()?.iter().map(text).collect::<Option<_>>()?,
            None => Vec::new(),
        };
        Some(Sample::Values(values, notes))
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

    /// The values of one configuration's cells with the text each
    /// observed beside them, in cell order.
    pub fn noted(&self, runs: &Runs) -> impl Iterator<Item = (&[f64], &[String])> {
        self.0[runs.clone()].iter().map(|s| match s {
            Sample::Values(values, notes) => (&values[..], &notes[..]),
            Sample::Report(_) => (&[][..], &[][..]),
        })
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
    /// configuration is seeded from `opts.seed` by
    /// [`ompvar_bench_epcc::runner::run_seed`].
    pub fn new(name: &'static str, opts: &ExpOptions) -> Plan {
        Plan { name, seed: opts.seed, cells: Vec::new() }
    }

    /// Register one cell, `<experiment>/<label>`: `run` maps the attempt
    /// number to the cell's sample. What a retry re-seeds is the cell's
    /// business; attempt 0 is the run the report is defined on.
    pub fn cell(
        &mut self,
        label: impl std::fmt::Display,
        run: impl Fn(u32) -> Result<Sample, UnitError> + Send + Sync + 'static,
    ) -> Runs {
        let at = self.cells.len();
        self.cells.push(ExecUnit::new(format!("{}/{label}", self.name), run));
        at..at + 1
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
        for i in 0..n {
            let shared = Arc::clone(&shared);
            self.cell(format_args!("{label}/{i}"), move |attempt| {
                let (rt, region, reduce) = &*shared;
                let res = run_seed(rt, region, attempt_seed(seed, attempt), i)
                    .map_err(|e| UnitError::from_rt(&e))?;
                Sample::checked(reduce(&res))
            });
        }
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
    /// Cells not yet terminal: the experiment folds at zero.
    remaining: usize,
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
                remaining: n,
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
        // A cell is terminal once, so counting beats scanning the slots
        // (under this lock) for each of a long campaign's cells.
        p.remaining -= 1;
        if p.remaining > 0 {
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
    use proptest::prelude::*;

    /// What a journal line carries of a sample: the payload as text.
    fn through_journal_text(s: &Sample) -> Option<Sample> {
        Sample::from_ckpt(&json::parse(&json::write(&s.to_ckpt())).expect("journal text parses"))
    }

    #[test]
    fn samples_round_trip_the_journal_text_bit_for_bit() {
        let subnormal = f64::MIN_POSITIVE / 8.0;
        assert!(subnormal > 0.0 && !subnormal.is_normal());
        let hard = vec![-0.0, 0.0, f64::from_bits(1), subnormal, f64::MIN_POSITIVE, 1e-300, 0.1, -1.5e300, f64::MAX, f64::MIN];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for values in [hard, Vec::new()] {
            // With and without text beside the numbers, hostile
            // characters included.
            let notes = vec!["case 3: \"quoted\" \\ back\n  slash\ttab \u{1} ü".to_string(), String::new()];
            for notes in [Vec::new(), notes] {
                let sample = Sample::noted(values.clone(), notes.clone()).expect("finite");
                match through_journal_text(&sample).expect("readable") {
                    Sample::Values(v, n) => assert_eq!((bits(&v), n), (bits(&values), notes)),
                    other => panic!("{other:?}"),
                }
            }
        }
        // A cell without text journals what it did before cells could
        // carry any — every paper cell's line is byte for byte the same.
        let line = |s: Result<Sample, UnitError>| json::write(&s.expect("finite").to_ckpt());
        assert_eq!(line(Sample::checked(vec![1.5, -0.0, 3e-7])), r#"{"samples":[1.5,-0.0,3e-7]}"#);
        assert_eq!(line(Sample::noted(vec![2.0], vec!["n".into()])), r#"{"samples":[2.0],"notes":["n"]}"#);
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
            for made in [Sample::checked(vec![1.0, bad]), Sample::noted(vec![1.0, bad], Vec::new())] {
                let err = made.expect_err("non-finite");
                assert_eq!(err.transience, Transience::Permanent);
                assert!(err.message.contains("non-finite sample: value 1 of 2"), "{}", err.message);
            }
        }
        // … and a `null` that reached a journal anyway is unreadable (the
        // cell re-runs), never a silently shorter or zeroed sample.
        let null = json::parse(r#"{"samples":[1.0,null]}"#).unwrap();
        assert!(Sample::from_ckpt(&null).is_none());
    }

    /// A JSON value decoded from arbitrary bytes, object keys drawn
    /// mostly from the ones `Sample::from_ckpt` looks at so that the
    /// type-confused neighbours of every real payload shape come up.
    fn value_from(bytes: &mut std::slice::Iter<'_, u8>, depth: usize) -> Value {
        const KEYS: [&str; 9] = ["samples", "notes", "name", "tables", "checks", "title", "header", "rows", "alien"];
        fn next(bytes: &mut std::slice::Iter<'_, u8>) -> usize {
            bytes.next().copied().unwrap_or(0) as usize
        }
        match next(bytes) % if depth == 0 { 5 } else { 7 } {
            0 => Value::Null,
            1 => Value::Bool(next(bytes) & 1 == 0),
            2 => Value::Num([0.0, -1.5, 1e300, f64::NAN, f64::INFINITY][next(bytes) % 5]),
            3 => Value::Num(next(bytes) as f64),
            4 => Value::Str(KEYS[next(bytes) % KEYS.len()].repeat(next(bytes) % 3)),
            5 => Value::Arr((0..next(bytes) % 4).map(|_| value_from(bytes, depth - 1)).collect()),
            _ => Value::Obj(
                (0..next(bytes) % 4)
                    .map(|_| (KEYS[next(bytes) % KEYS.len()].to_string(), value_from(bytes, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        /// Hostile journal bytes: whatever a payload holds, reading it is
        /// `Err` / `None` or a sample that writes and reads back — never
        /// a panic (a panic here would take the resume's control lane
        /// down with it).
        #[test]
        fn arbitrary_bytes_never_panic_the_payload_reader(bytes in prop::collection::vec(0u8..=255, 0..96)) {
            // As raw text …
            if let Ok(v) = json::parse(&String::from_utf8_lossy(&bytes)) {
                let _ = Sample::from_ckpt(&v);
            }
            // … and as a well-formed value of the wrong shape.
            let v = value_from(&mut bytes.iter(), 3);
            let reparsed = json::parse(&json::write(&v)).expect("the writer's text parses");
            if let Some(sample) = Sample::from_ckpt(&reparsed) {
                prop_assert!(through_journal_text(&sample).is_some(), "{v:?}");
            }
        }

        /// A batch payload cut short or with one byte overwritten: a cut
        /// never parses, an overwrite is unreadable or a sample.
        #[test]
        fn a_damaged_batch_payload_is_unreadable_not_fatal(cut in 0usize..1000, byte in 0u8..=127) {
            let batch = Sample::noted(vec![3.0, 0.0, 17.0], vec!["case 9: sim backend failed\n  replay …".into()]);
            let text = json::write(&batch.expect("finite").to_ckpt());
            let (cut, mut hit) = (cut % text.len(), text.clone().into_bytes());
            let prefix = String::from_utf8_lossy(&hit[..cut]).into_owned();
            prop_assert!(json::parse(&prefix).is_err(), "{prefix}");
            hit[cut] = byte;
            if let Ok(v) = json::parse(&String::from_utf8_lossy(&hit)) {
                let _ = Sample::from_ckpt(&v);
            }
        }
    }

    #[test]
    fn type_confused_batch_payloads_are_unreadable() {
        for alien in [
            r#"{"samples":[1.0],"notes":3}"#,
            r#"{"samples":[1.0],"notes":[3]}"#,
            r#"{"samples":[1.0],"notes":{"0":"x"}}"#,
            r#"{"samples":["1.0"],"notes":[]}"#,
            r#"{"samples":{"0":1.0}}"#,
            r#"{"notes":["x"]}"#,
            r#"[1.0]"#,
        ] {
            assert!(Sample::from_ckpt(&json::parse(alien).expect("valid JSON")).is_none(), "{alien}");
        }
    }

    /// A failing fuzz case travels as the text its cell observed: a
    /// batch sample carrying one failure folds to the same report in
    /// process and through the journal text, the failure detail verbatim.
    #[test]
    fn a_batch_failure_folds_the_same_in_process_and_through_the_journal() {
        use ompvar_qcheck::{case_seed, FuzzFailure};
        use ompvar_rt::region::{Construct, RegionSpec};
        let opts = ExpOptions { fuzz_cases: Some(40), seed: 11, ..ExpOptions::fast() };
        let region = RegionSpec::new(2, vec![Construct::Barrier, Construct::Atomic]).expect("valid");
        let failure = FuzzFailure {
            case: 37,
            case_seed: case_seed(opts.seed, 37),
            region: region.clone(),
            reasons: vec!["native backend failed: \"boom\"".into(), "sim effects diverge".into()],
            shrunk: RegionSpec::new(1, vec![Construct::Atomic]).expect("valid"),
        };
        let detail = crate::fuzz_exp::failure_detail(&failure);
        assert!(detail.starts_with("case 37: native backend failed: \"boom\"; sim effects diverge\n  replay with: ompvar-repro fuzz --fuzz-cases 1 --seed 48\n"), "{detail}");

        let folded = |journaled: bool| {
            let grid = crate::fuzz_exp::plan(&opts);
            let samples = grid.cells.iter().map(|c| {
                let mut sample = (c.run)(0).expect("cell runs");
                if c.name == "fuzz/1" {
                    sample = Sample::noted(sample.values().to_vec(), vec![detail.clone()]).expect("finite");
                }
                if journaled { through_journal_text(&sample).expect("readable") } else { sample }
            });
            (grid.fold)(Samples(samples.collect()))
        };
        let (direct, replayed) = (folded(false), folded(true));
        assert_eq!(direct.render(), replayed.render());
        assert!(direct.tables[0].title().contains("40 differential case(s), base seed 11, 1 failure(s)"));
        let agree = &direct.checks[0];
        assert!(!agree.passed && agree.detail == detail, "{}", agree.detail);
        assert!(direct.checks[1..].iter().all(|c| c.passed), "{}", direct.render());
    }

    /// Rendered report plus the bytes of every CSV (and, for
    /// `variability`, JSON artifact) it writes.
    fn artifacts(report: &ExpReport, out: &std::path::Path, tag: &str) -> (String, Vec<Vec<u8>>) {
        let dir = std::env::temp_dir().join(format!("ompvar_grid_{tag}_{}", std::process::id()));
        let mut written = report.write_csvs(&dir).expect("CSVs written");
        if report.name == "variability" {
            written.extend(["variability.json", "variability.trace.json"].map(|f| out.join(f)));
        }
        let bytes = written.iter().map(|p| std::fs::read(p).expect("artifact readable")).collect();
        // Each way of running the grid must write the artifacts itself.
        written.iter().for_each(|p| std::fs::remove_file(p).expect("artifact removed"));
        let _ = std::fs::remove_dir_all(&dir);
        (report.render(), bytes)
    }

    /// The ways a grid's cells get run — in order on this thread, on
    /// the executor at `--jobs 4`, not at all (replayed from the journal
    /// the second way wrote), and all but one (a batch payload made
    /// unreadable re-runs that cell alone) — fold to the same bytes.
    /// `fuzz` spans three batches; with `variability` it is held to this
    /// like the paper's experiments, which is what says a report does
    /// not depend on `--jobs` or on a resume.
    #[test]
    fn serial_parallel_and_replayed_folds_agree() {
        let out = std::env::temp_dir().join(format!("ompvar_grid_sweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let opts = ExpOptions { jobs: 4, seed: 3, out_dir: out.clone(), fuzz_cases: Some(70), ..ExpOptions::fast() };
        let names = ["fig2", "fig4", "table2", "fuzz", "variability"];
        let exps = || names.map(|n| crate::EXPERIMENTS.iter().find(|e| e.name == n).unwrap());
        let serial: Vec<_> = exps().iter().map(|e| artifacts(&e.run(&opts), &out, "serial")).collect();

        let swept = |opts: &ExpOptions, tag: &str| {
            let sweep = Sweep::new(exps().iter().map(|e| (e.name, e.plan(opts))).collect());
            let record = |r: &UnitResult<Sample>| drop(sweep.record(r));
            let door = Campaign { progress: Some(&record), ..Campaign::inner("grid") };
            let run = run_journaled(opts, &door, sweep.units()).expect("StartFresh never aborts");
            let ran: Vec<_> = run.results.iter().filter(|r| !r.outcome.from_checkpoint()).map(|r| r.name.clone()).collect();
            let (_, reports) = sweep.finish();
            assert_eq!(reports.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(), names);
            (run.results.len(), ran, reports.iter().map(|r| artifacts(r, &out, tag)).collect::<Vec<_>>())
        };
        let (cells, ran, parallel) = swept(&opts, "parallel");
        assert_eq!(ran.len(), cells);
        assert_eq!(ran.iter().filter(|c| c.starts_with("fuzz/") && c["fuzz/".len()..].parse::<u64>().is_ok()).count(), 3);
        assert_eq!(parallel, serial, "jobs 4 vs serial");
        let resumed = ExpOptions { resume: Some(opts.checkpoint_dir()), ..opts.clone() };
        let (_, ran, from_journal) = swept(&resumed, "replayed");
        assert_eq!(ran, [""; 0], "every cell replays, none re-runs");
        assert_eq!(from_journal, serial, "journal replay vs serial");

        // Type-confuse the journaled payload of one fuzz batch.
        let mut confused = 0;
        for shard in std::fs::read_dir(opts.checkpoint_dir()).expect("checkpoint dir").filter_map(Result::ok) {
            let text = std::fs::read_to_string(shard.path()).expect("shard readable");
            let lines = text.lines().map(|l| match l.contains("\"name\":\"fuzz/1\"") {
                true => {
                    confused += 1;
                    l.replace("\"payload\":{", "\"payload\":{\"notes\":3,") + "\n"
                }
                false => l.to_string() + "\n",
            });
            std::fs::write(shard.path(), lines.collect::<String>()).expect("shard rewritten");
        }
        assert_eq!(confused, 1, "fuzz/1 is journaled once");
        let (_, ran, rerun_one) = swept(&resumed, "rerun");
        assert_eq!(ran, ["fuzz/1"], "an unreadable batch re-runs alone");
        assert_eq!(rerun_one, serial, "one batch re-run vs serial");
        let _ = std::fs::remove_dir_all(&out);
    }
}
