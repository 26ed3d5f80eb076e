//! Shared experiment scaffolding: platforms, runtime construction, the
//! experiment report type, and the campaign front door
//! ([`run_journaled`]) — the one place a journal is opened and an
//! executor configured.

use ompvar_rt::config::RtConfig;
use ompvar_rt::simrt::{FreqLoggerCfg, SimRuntime};

use ompvar_core::Table;
use ompvar_obs::json::Value;
use ompvar_sim::fault::FaultPlan;
use ompvar_sim::params::SimParams;
use ompvar_supervisor::{
    atomic_write, create_shards, resolve_jobs, resume_shards, resume_shards_lenient, run_campaign,
    shard_path, CampaignRun, CheckpointError, Checkpointable, ExecUnit, ExecutorConfig, Header,
    ProcChaos, Progress, SupervisorConfig,
};
use ompvar_topology::{MachineSpec, NumaId, Places};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

/// The two platforms of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// HPE Cray EX, 2× AMD EPYC Zen2, 128 cores / 256 HW threads.
    Dardel,
    /// 2× Intel Xeon Gold 6130, 32 cores, no SMT.
    Vera,
}

impl Platform {
    /// Machine model.
    pub fn machine(&self) -> MachineSpec {
        match self {
            Platform::Dardel => MachineSpec::dardel(),
            Platform::Vera => MachineSpec::vera(),
        }
    }

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            Platform::Dardel => "Dardel",
            Platform::Vera => "Vera",
        }
    }

    /// Thread counts used in the scalability figures. The top count
    /// spares two hardware threads for the OS (254 of 256 on Dardel, 30
    /// of 32 on Vera), as in the paper.
    pub fn scaling_threads(&self) -> Vec<usize> {
        match self {
            Platform::Dardel => vec![4, 8, 16, 32, 64, 128, 254],
            Platform::Vera => vec![2, 4, 8, 16, 30],
        }
    }

    /// Place list for `n` threads in the ST style: one thread per
    /// physical core, SMT siblings left idle. For counts above the core
    /// count (Dardel's 254), falls back to SMT-packed placement.
    pub fn st_places(&self, n: usize) -> Places {
        let m = self.machine();
        if n <= m.n_cores() {
            Places::one_per_core(&m, n)
        } else {
            assert!(n <= m.n_hw_threads(), "{n} exceeds {}", m.n_hw_threads());
            Places::smt_packed(&m, n.div_ceil(m.smt))
        }
    }

    /// Place list for `n` threads in the MT style: both hardware threads
    /// of each core used before moving to the next core.
    pub fn mt_places(&self, n: usize) -> Places {
        let m = self.machine();
        assert!(m.smt > 1, "{} has no SMT", self.label());
        assert!(n <= m.n_hw_threads());
        Places::smt_packed(&m, n.div_ceil(m.smt))
    }

    /// Pinned (close) simulated runtime for `n` ST threads.
    pub fn pinned_rt(&self, n: usize) -> SimRuntime {
        SimRuntime::new(self.machine(), RtConfig::pinned_close(self.st_places(n)))
    }

    /// The runtime of a supervised *cell*: `n` pinned ST threads on
    /// sterile parameters — so every effect is `plan`'s — under a 10 s
    /// virtual-time budget that turns an injected deadlock into a typed
    /// error instead of a hang.
    pub fn sterile_cell_rt(&self, n: usize, plan: FaultPlan) -> SimRuntime {
        self.pinned_rt(n)
            .with_params(SimParams::sterile())
            .with_faults(plan)
            .with_time_limit(10 * ompvar_sim::time::SEC)
    }

    /// Pinned runtime in the MT configuration.
    pub fn pinned_mt_rt(&self, n: usize) -> SimRuntime {
        SimRuntime::new(self.machine(), RtConfig::pinned_close(self.mt_places(n)))
    }

    /// Unbound runtime (`OMP_PROC_BIND=false`).
    pub fn unbound_rt(&self) -> SimRuntime {
        SimRuntime::new(self.machine(), RtConfig::unbound())
    }

    /// Pinned runtime over the cores of specific NUMA domains (the Vera
    /// Figure 6/7 placements), with the frequency logger on a spare core
    /// as in the paper.
    pub fn numa_rt(&self, numas: &[usize], per_numa: usize) -> SimRuntime {
        let m = self.machine();
        let numas: Vec<NumaId> = numas.iter().map(|&d| NumaId(d)).collect();
        let places = Places::cores_of_numas(&m, &numas, per_numa);
        // Spare core for the logger: last core of the last socket. The
        // paper's Python logger polled sysfs continuously; sample fast
        // enough (2 ms) to resolve individual turbo droop pulses.
        let logger_cpu = m.n_cores() - 1;
        SimRuntime::new(m, RtConfig::pinned_close(places)).with_freq_logger(FreqLoggerCfg {
            cpu: Some(logger_cpu),
            period: 2 * ompvar_sim::time::MS,
            cost: 20 * ompvar_sim::time::US,
        })
    }
}

/// Options common to all experiments.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Reduced repetition counts for quick runs and tests.
    pub fast: bool,
    /// Base seed; the seed of run `i` of a configuration is defined
    /// once, in [`ompvar_bench_epcc::runner::run_seed`].
    pub seed: u64,
    /// Directory for CSV outputs (created on demand).
    pub out_dir: PathBuf,
    /// Fuzz-case budget override for the `fuzz` experiment
    /// (`--fuzz-cases`); `None` uses the experiment's default.
    pub fuzz_cases: Option<u64>,
    /// Chrome trace output path (`--trace`), honored by the `trace`
    /// experiment; `None` defaults to `<out_dir>/trace.json`.
    pub trace_path: Option<PathBuf>,
    /// Machine-readable diagnostics path (`--lint-json`), honored by the
    /// `analyze` experiment: every corpus program's full diagnostic list
    /// in the `ompvar-diagnostics/1` schema. `None` writes no file.
    pub lint_json: Option<PathBuf>,
    /// Machine-readable JSON run-report path (`--report-json`); `None`
    /// writes no report.
    pub report_json: Option<PathBuf>,
    /// Retry budget per cell for transient failures
    /// (`--max-retries`); `None` uses the supervisor default.
    pub max_retries: Option<u32>,
    /// Resume a previous campaign from its checkpoint directory
    /// (`--resume DIR`): completed cells replay from the manifest
    /// instead of re-running.
    pub resume: Option<PathBuf>,
    /// Worker threads for the campaign executor (`--jobs`); `0`
    /// auto-detects. The sweep's unit is the grid cell
    /// ([`crate::grid`]), so this is also how far a single figure
    /// parallelizes; every simulated byte is identical at any value.
    /// Defaults to 1: the `trace` experiment's *native* runs measure
    /// real wall-clock, which concurrent workers perturb.
    pub jobs: usize,
    /// Per-cell wall-clock deadline, enforced by the executor lane that
    /// waits for the attempt (`--unit-timeout SECS`); `None` disables
    /// reaping.
    pub unit_timeout: Option<std::time::Duration>,
    /// Enable the causal attribution ledger on the `trace` experiment's
    /// simulated run (`--attr`): the exported Chrome trace gains the
    /// per-source cumulative counter tracks. The `variability`
    /// experiment always attributes, flag or not.
    pub attr: bool,
    /// Chaos seed (`--chaos-seed`): drives the `chaos` experiment's
    /// fault plans and, with [`ExpOptions::chaos_proc`], the executor's
    /// process chaos. `None` derives it from [`ExpOptions::seed`].
    pub chaos_seed: Option<u64>,
    /// Inject seeded process chaos — worker kills at unit pickup,
    /// attempt panics, watchdog-tripping stalls — into the campaign
    /// executor (`--chaos-proc`). Replayable from the chaos seed.
    pub chaos_proc: bool,
    /// On `--resume`, quarantine checkpoint shards that fail to parse
    /// (rename to `.corrupt`, re-run their units, record a recovery
    /// note) instead of aborting (`--salvage-corrupt-shards`).
    pub salvage: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            fast: false,
            seed: 20230714, // arbitrary fixed default: SC'23 submission era
            out_dir: PathBuf::from("results"),
            fuzz_cases: None,
            trace_path: None,
            lint_json: None,
            report_json: None,
            max_retries: None,
            resume: None,
            jobs: 1,
            unit_timeout: None,
            attr: false,
            chaos_seed: None,
            chaos_proc: false,
            salvage: false,
        }
    }
}

impl ExpOptions {
    /// Fast preset (used by tests and `--fast`).
    pub fn fast() -> Self {
        ExpOptions {
            fast: true,
            ..Default::default()
        }
    }

    /// Number of independent runs per configuration (paper: 10).
    pub fn n_runs(&self) -> usize {
        if self.fast {
            4
        } else {
            10
        }
    }

    /// EPCC outer repetitions (paper: 100).
    pub fn outer_reps(&self) -> u32 {
        if self.fast {
            8
        } else {
            100
        }
    }

    /// BabelStream iterations (paper: 100).
    pub fn stream_iters(&self) -> u32 {
        if self.fast {
            12
        } else {
            100
        }
    }

    /// Where this run's checkpoint manifest and supervisor artifacts
    /// live: the `--resume` directory when given, else
    /// `<out_dir>/checkpoint`.
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.resume
            .clone()
            .unwrap_or_else(|| self.out_dir.join("checkpoint"))
    }
}

/// One journaled campaign, declared: everything [`run_journaled`] needs
/// beyond [`ExpOptions`] and the units themselves.
pub struct Campaign<'a, R> {
    /// Journal base name under [`ExpOptions::checkpoint_dir`]: shard 0
    /// is `<base>.jsonl`, worker `w` journals to `<base>.shard-<w>.jsonl`.
    pub base: &'a str,
    /// The user's own sweep rather than a campaign nested in one of its
    /// units: resumption is announced on stdout, retry backoffs are
    /// really slept (inner campaigns only record the schedule),
    /// `--chaos-proc` applies, and a journal `--resume` cannot open
    /// (wrong campaign, corrupt shard, sick disk) is a typed error that
    /// touches nothing — the CLI exits 2 rather than splice two
    /// campaigns. An inner campaign warns and starts a fresh journal
    /// instead; one that is simply *absent* is its normal case — the
    /// sweep died before this campaign began — and is created without
    /// comment.
    pub outer: bool,
    /// Write the executor's worker-lane Chrome trace (attempt spans,
    /// retry / quarantine / resume / checkpoint instants) next to the
    /// journal: `(file name, process label)`.
    pub trace: Option<(&'a str, &'a str)>,
    /// Polled at every unit boundary (the CLI's SIGINT flag, a chaos
    /// scope's crash flag).
    pub cancel: Option<&'a AtomicBool>,
    /// Per-unit completion callback.
    pub progress: Progress<'a, R>,
}

impl<'a, R> Campaign<'a, R> {
    /// A campaign nested inside one unit of the sweep, journaling under
    /// `base`: not `outer`, no trace, no cancel flag, no progress
    /// callback.
    pub fn inner(base: &'a str) -> Self {
        Campaign {
            base,
            outer: false,
            trace: None,
            cancel: None,
            progress: None,
        }
    }
}

/// Executor and supervisor policy for a campaign run under `opts`; see
/// [`Campaign::outer`] for what `outer` switches.
pub fn executor_config(opts: &ExpOptions, outer: bool) -> ExecutorConfig {
    ExecutorConfig {
        jobs: resolve_jobs(opts.jobs),
        unit_timeout: opts.unit_timeout,
        supervisor: SupervisorConfig {
            seed: opts.seed,
            max_retries: opts.max_retries.unwrap_or(2),
            sleep: outer,
            ..SupervisorConfig::default()
        },
        chaos: (outer && opts.chaos_proc)
            .then(|| ProcChaos::standard(opts.chaos_seed.unwrap_or(opts.seed))),
    }
}

/// The campaign front door: run `units` on the fault-tolerant executor,
/// journaled under [`ExpOptions::checkpoint_dir`].
///
/// The campaign's identity ([`Header`]) is `opts.seed`, `opts.fast` and
/// the unit names in order. Without `--resume` the shard set is created
/// fresh (stale journals never mask new measurements); with it the
/// shards are merged and replayed — leniently under
/// `--salvage-corrupt-shards`, the quarantine notes joining the run's
/// `recovery_notes` — and a journal that cannot be opened is handled per
/// [`Campaign::outer`]. Only a journal that cannot be *created*
/// degrades to an unjournaled (still supervised) run.
pub fn run_journaled<R>(
    opts: &ExpOptions,
    c: &Campaign<'_, R>,
    units: &[ExecUnit<R>],
) -> Result<CampaignRun<R>, CheckpointError>
where
    R: Checkpointable + Send + 'static,
{
    let cfg = executor_config(opts, c.outer);
    let header = Header {
        seed: opts.seed,
        fast: opts.fast,
        targets: units.iter().map(|u| u.name.clone()).collect(),
    };
    let dir = opts.checkpoint_dir();
    let shard0 = shard_path(&dir, c.base, 0);
    let mut notes = Vec::new();
    let mut resumed = None;
    if opts.resume.is_some() {
        let opened = if opts.salvage {
            resume_shards_lenient(&dir, c.base, &header, cfg.jobs, &mut notes)
        } else {
            resume_shards(&dir, c.base, &header, cfg.jobs)
        };
        match opened {
            Ok((shards, replay)) => {
                if c.outer {
                    let n = replay.len();
                    println!("resuming from {} ({n} completed cell(s))", shard0.display());
                }
                resumed = Some((Some(shards), replay));
            }
            Err(e) if c.outer => return Err(e),
            Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => eprintln!(
                "warning: cannot resume from {}: {e}; starting a fresh journal",
                shard0.display()
            ),
        }
    }
    for n in &notes {
        eprintln!("warning: {n}");
    }
    let (manifests, replay) = resumed.unwrap_or_else(|| {
        let created = create_shards(&dir, c.base, &header, cfg.jobs).map_err(|e| {
            let at = shard0.display();
            eprintln!("warning: no checkpoint manifest at {at}: {e}; running unjournaled")
        });
        (created.ok(), Vec::new())
    });
    let mut run = run_campaign(&cfg, units, manifests, &replay, c.cancel, c.progress);
    run.recovery_notes.extend(notes);
    run.recovery_notes.sort_unstable();
    if let Some((file, label)) = c.trace {
        let path = dir.join(file);
        let doc = ompvar_obs::chrome_trace_lanes(&run.trace, &[], label, "worker");
        if let Err(e) = atomic_write(&path, doc.as_bytes()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    Ok(run)
}

/// One paper-shape validation check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is being checked (e.g. "pinning reduces run spread").
    pub name: String,
    /// Whether the reproduced data shows the paper's shape.
    pub passed: bool,
    /// How far a [`crate::claim::Claim`] sits from its boundary,
    /// positive when it holds; `None` for a plain check.
    pub margin: Option<f64>,
    /// Supporting numbers.
    pub detail: String,
}

impl Check {
    /// Build a plain (margin-less) check result.
    pub fn new(name: &str, passed: bool, detail: String) -> Check {
        Check { name: name.to_string(), passed, margin: None, detail }
    }

    /// Write the artifact `doc` to `path` — atomically, parent
    /// directories created on demand — and report the outcome.
    pub fn wrote(name: &str, path: &std::path::Path, doc: &str) -> Check {
        let detail = match atomic_write(path, doc.as_bytes()) {
            Ok(()) => Ok(format!("{} ({} bytes)", path.display(), doc.len())),
            Err(e) => Err(format!("{}: {e}", path.display())),
        };
        Check::new(name, detail.is_ok(), detail.unwrap_or_else(|e| e))
    }
}

/// The outcome of one experiment.
#[derive(Debug, Clone, Default)]
pub struct ExpReport {
    /// Experiment id (e.g. "table2").
    pub name: String,
    /// Paper-style tables.
    pub tables: Vec<Table>,
    /// Shape checks against the paper's qualitative findings.
    pub checks: Vec<Check>,
}

impl ExpReport {
    /// Build a report.
    pub fn new(name: &str, tables: Vec<Table>, checks: Vec<Check>) -> ExpReport {
        ExpReport { name: name.to_string(), tables, checks }
    }

    /// Render everything to a printable string.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("==== {} ====\n", self.name));
        for t in &self.tables {
            s.push_str(&t.render());
            s.push('\n');
        }
        for c in &self.checks {
            s.push_str(&format!(
                "[{}] {} — {}\n",
                if c.passed { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            ));
        }
        s
    }

    /// Whether every shape check passed.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Write all tables as CSVs under `dir`, named
    /// `<experiment>_<index>.csv`.
    pub fn write_csvs(&self, dir: &std::path::Path) -> std::io::Result<Vec<PathBuf>> {
        let mut paths = Vec::new();
        for (i, t) in self.tables.iter().enumerate() {
            let p = dir.join(format!("{}_{}.csv", self.name, i));
            t.write_csv(&p)?;
            paths.push(p);
        }
        Ok(paths)
    }
}

/// Serialize a whole CLI run — every experiment's tables and shape
/// checks — as a machine-readable JSON document (`--report-json`).
///
/// Stable field order through [`ompvar_obs::json::Writer`], one
/// experiment, check, table and row per line, so the output is
/// byte-reproducible for a given run and parses with
/// [`ompvar_obs::json::parse`].
pub fn run_report_json(
    seed: u64,
    fast: bool,
    interrupted: bool,
    leaked_threads: u64,
    recovery_notes: &[String],
    reports: &[ExpReport],
) -> String {
    let mut w = ompvar_obs::json::Writer::new();
    w.begin_obj().key("schema").str("ompvar-run-report/1");
    w.key("seed").u64(seed).key("fast").bool(fast).key("interrupted").bool(interrupted);
    // Campaign-health fields: watchdog-reaped attempt threads still
    // alive at exit, and human-readable notes from degraded recovery
    // paths (lost journal writes, quarantined shards). Both are zero /
    // empty on a healthy run, so resume byte-identity checks that
    // compare healthy documents are unaffected.
    w.key("leaked_threads").u64(leaked_threads);
    w.key("recovery_notes").strs(recovery_notes);
    w.key("all_passed").bool(reports.iter().all(ExpReport::all_passed));
    w.key("experiments").begin_arr();
    for rep in reports {
        w.brk("\n").begin_obj();
        w.key("name").str(&rep.name).key("passed").bool(rep.all_passed());
        w.key("checks").begin_arr();
        for c in &rep.checks {
            w.brk("\n ").begin_obj().key("name").str(&c.name).key("passed").bool(c.passed);
            if let Some(m) = c.margin {
                w.key("margin").f64(m);
            }
            w.key("detail").str(&c.detail).end_obj();
        }
        w.end_arr().key("tables").begin_arr();
        for t in &rep.tables {
            w.brk("\n ").begin_obj().key("title").str(t.title());
            w.key("header").strs(t.header()).key("rows").begin_arr();
            for row in t.rows() {
                w.brk("\n  ").strs(row);
            }
            w.end_arr().end_obj();
        }
        w.end_arr().end_obj();
    }
    w.ws("\n").end_arr().end_obj().ws("\n");
    w.finish()
}

/// An [`ExpReport`] can live in the checkpoint manifest: the whole
/// report — tables cell-for-cell, checks verbatim — is the payload, so a
/// resumed campaign replays it and the final `--report-json` document is
/// byte-identical to an uninterrupted run's.
impl ompvar_supervisor::Checkpointable for ExpReport {
    fn to_ckpt(&self) -> Value {
        let str_arr = |xs: &[String]| {
            Value::Arr(xs.iter().map(|s| Value::Str(s.clone())).collect())
        };
        let tables = self
            .tables
            .iter()
            .map(|t| {
                Value::Obj(vec![
                    ("title".into(), Value::Str(t.title().to_string())),
                    ("header".into(), str_arr(t.header())),
                    (
                        "rows".into(),
                        Value::Arr(t.rows().iter().map(|r| str_arr(r)).collect()),
                    ),
                ])
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                let mut fields = vec![
                    ("name".into(), Value::Str(c.name.clone())),
                    ("passed".into(), Value::Bool(c.passed)),
                ];
                fields.extend(c.margin.map(|m| ("margin".into(), Value::Num(m))));
                fields.push(("detail".into(), Value::Str(c.detail.clone())));
                Value::Obj(fields)
            })
            .collect();
        Value::Obj(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("tables".into(), Value::Arr(tables)),
            ("checks".into(), Value::Arr(checks)),
        ])
    }

    fn from_ckpt(v: &Value) -> Option<ExpReport> {
        let strings = |v: &Value| -> Option<Vec<String>> {
            v.as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        let name = v.get("name")?.as_str()?.to_string();
        let mut tables = Vec::new();
        for t in v.get("tables")?.as_arr()? {
            let title = t.get("title")?.as_str()?;
            let header = strings(t.get("header")?)?;
            let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
            let mut table = Table::new(title, &header_refs);
            for row in t.get("rows")?.as_arr()? {
                table.row(&strings(row)?);
            }
            tables.push(table);
        }
        let mut checks = Vec::new();
        for c in v.get("checks")?.as_arr()? {
            // A payload written before checks carried margins has none.
            let margin = match c.get("margin") {
                Some(m) => Some(m.as_f64()?),
                None => None,
            };
            checks.push(Check {
                name: c.get("name")?.as_str()?.to_string(),
                passed: c.get("passed")?.as_bool()?,
                margin,
                detail: c.get("detail")?.as_str()?.to_string(),
            });
        }
        Some(ExpReport { name, tables, checks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_thread_lists_spare_two() {
        assert_eq!(*Platform::Dardel.scaling_threads().last().unwrap(), 254);
        assert_eq!(*Platform::Vera.scaling_threads().last().unwrap(), 30);
    }

    #[test]
    fn st_places_prefer_distinct_cores() {
        let p = Platform::Dardel.st_places(128);
        let m = Platform::Dardel.machine();
        let resolved = p.resolve(&m);
        assert_eq!(resolved.len(), 128);
        // All first-context hardware threads.
        assert!(resolved.iter().all(|pl| pl.first().0 < 128));
    }

    #[test]
    fn st_places_fall_back_to_smt_for_254() {
        let p = Platform::Dardel.st_places(254);
        let m = Platform::Dardel.machine();
        assert_eq!(p.resolve(&m).len(), 254);
    }

    #[test]
    #[should_panic(expected = "no SMT")]
    fn vera_has_no_mt_mode() {
        Platform::Vera.mt_places(8);
    }

    #[test]
    fn fast_options_shrink_work() {
        let fast = ExpOptions::fast();
        let full = ExpOptions::default();
        assert!(fast.n_runs() < full.n_runs());
        assert!(fast.outer_reps() < full.outer_reps());
        assert_eq!(full.n_runs(), 10);
        assert_eq!(full.outer_reps(), 100);
    }

    #[test]
    fn report_renders_checks() {
        let mut r = ExpReport {
            name: "demo".into(),
            ..Default::default()
        };
        r.checks.push(Check::new("x", true, "ok".into()));
        assert!(r.render().contains("[PASS] x"));
        assert!(r.all_passed());
        r.checks.push(Check::new("y", false, "bad".into()));
        assert!(!r.all_passed());
    }

    #[test]
    fn run_report_json_round_trips_hostile_strings() {
        use ompvar_obs::json::{parse, Value};
        let mut t = Table::new("T \"quoted\"", &["a", "b"]);
        t.row(&["1".into(), "x\ny".into()]);
        let rep = ExpReport {
            name: "demo".into(),
            tables: vec![t],
            checks: vec![Check::new("c", true, "d \\ e".into())],
        };
        let reps = std::slice::from_ref(&rep);
        let notes = vec!["shard \"s\" quarantined\n(line 2)".to_string()];
        let doc = run_report_json(7, true, false, 3, &notes, reps);
        assert_eq!(
            doc,
            run_report_json(7, true, false, 3, &notes, reps),
            "not reproducible"
        );
        let v = parse(&doc).expect("valid JSON");
        assert_eq!(v.get("seed").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("interrupted").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("leaked_threads").and_then(Value::as_f64), Some(3.0));
        let got_notes = v.get("recovery_notes").and_then(Value::as_arr).unwrap();
        assert_eq!(got_notes[0].as_str(), Some(notes[0].as_str()));
        assert_eq!(v.get("all_passed").and_then(Value::as_bool), Some(true));
        let exps = v.get("experiments").and_then(Value::as_arr).unwrap();
        assert_eq!(exps.len(), 1);
        assert_eq!(exps[0].get("name").and_then(Value::as_str), Some("demo"));
        let tables = exps[0].get("tables").and_then(Value::as_arr).unwrap();
        assert_eq!(
            tables[0].get("title").and_then(Value::as_str),
            Some("T \"quoted\"")
        );
        let rows = tables[0].get("rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows[0].as_arr().unwrap()[1].as_str(), Some("x\ny"));
        let checks = exps[0].get("checks").and_then(Value::as_arr).unwrap();
        assert_eq!(checks[0].get("detail").and_then(Value::as_str), Some("d \\ e"));
    }

    /// Bytes pinned from the emitter this one replaced, layout
    /// whitespace included.
    #[test]
    fn run_report_json_hostile_fixture_bytes_are_pinned() {
        let hostile = "q\"b\\s\n\u{1}\u{2028}\u{1f600}";
        let mut t = Table::new(hostile, &[hostile, "b"]);
        t.row(&["1".into(), hostile.into()]);
        t.row(&["".into(), "2.1".into()]);
        let empty_table = Table::new("no rows", &[]);
        let reps = [
            ExpReport {
                name: hostile.into(),
                tables: vec![t, empty_table],
                checks: vec![
                    Check::new(hostile, true, hostile.into()),
                    Check { margin: Some(-0.25), ..Check::new("y", false, "".into()) },
                ],
            },
            ExpReport { name: "bare".into(), ..Default::default() },
        ];
        let notes = [hostile.to_string(), "second".to_string()];
        let doc = run_report_json(u64::MAX, false, true, u64::MAX, &notes, &reps);
        assert_eq!(doc, "{\"schema\":\"ompvar-run-report/1\",\"seed\":18446744073709551615,\"fast\":false,\"interrupted\":true,\"leaked_threads\":18446744073709551615,\"recovery_notes\":[\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\",\"second\"],\"all_passed\":false,\"experiments\":[\n{\"name\":\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\",\"passed\":false,\"checks\":[\n {\"name\":\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\",\"passed\":true,\"detail\":\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\"},\n {\"name\":\"y\",\"passed\":false,\"margin\":-0.25,\"detail\":\"\"}],\"tables\":[\n {\"title\":\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\",\"header\":[\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\",\"b\"],\"rows\":[\n  [\"1\",\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\"],\n  [\"\",\"2.1\"]]},\n {\"title\":\"no rows\",\"header\":[],\"rows\":[]}]},\n{\"name\":\"bare\",\"passed\":true,\"checks\":[],\"tables\":[]}\n]}\n");
        ompvar_obs::json::parse(&doc).expect("valid JSON");
        assert_eq!(run_report_json(0, true, false, 0, &[], &[]), "{\"schema\":\"ompvar-run-report/1\",\"seed\":0,\"fast\":true,\"interrupted\":false,\"leaked_threads\":0,\"recovery_notes\":[],\"all_passed\":true,\"experiments\":[\n]}\n");
    }

    #[test]
    fn exp_report_checkpoints_roundtrip_exactly() {
        use crate::claim::{bound, qty, Claim};
        use ompvar_supervisor::Checkpointable;
        let mut t = Table::new("T \"q\"", &["col a", "col b"]);
        t.row(&["1.25".into(), "x\ny".into()]);
        let claim = Claim::new("m", [qty("x", 0.1, "").gt(bound(0.3))]);
        let rep = ExpReport {
            name: "faults".into(),
            tables: vec![t],
            checks: vec![Check::new("c", false, "d \\ e".into()), claim.check()],
        };
        // Through the manifest's own serialization layer: to JSON text
        // and back, not just Value-to-Value.
        let text = ompvar_obs::json::write(&rep.to_ckpt());
        let back =
            ExpReport::from_ckpt(&ompvar_obs::json::parse(&text).unwrap()).expect("parses");
        assert_eq!(back.name, rep.name);
        assert_eq!(back.tables[0].title(), rep.tables[0].title());
        assert_eq!(back.tables[0].rows(), rep.tables[0].rows());
        assert_eq!(back.checks[0].detail, rep.checks[0].detail);
        assert!(!back.checks[0].passed);
        assert_eq!(back.checks[0].margin, None);
        let m = rep.checks[1].margin.expect("a claim has a margin");
        assert_eq!(back.checks[1].margin.map(f64::to_bits), Some(m.to_bits()), "bit-exact");
        // The replayed report renders to identical JSON.
        assert_eq!(
            run_report_json(1, true, false, 0, &[], &[back]),
            run_report_json(1, true, false, 0, &[], &[rep])
        );
        // A payload journaled before checks carried margins still replays.
        let legacy = r#"{"name":"faults","tables":[],"checks":[{"name":"c","passed":true,"detail":"d"}]}"#;
        let back = ExpReport::from_ckpt(&ompvar_obs::json::parse(legacy).unwrap()).expect("parses");
        assert_eq!((back.checks[0].passed, back.checks[0].margin), (true, None));
        // A margin that is not a number is a corrupt payload, not `None`.
        let bad = legacy.replace(r#""passed":true,"#, r#""passed":true,"margin":"x","#);
        assert!(ExpReport::from_ckpt(&ompvar_obs::json::parse(&bad).unwrap()).is_none());
    }

    #[test]
    fn checkpoint_dir_prefers_resume() {
        let mut o = ExpOptions::fast();
        assert_eq!(o.checkpoint_dir(), PathBuf::from("results/checkpoint"));
        o.resume = Some(PathBuf::from("/tmp/prev"));
        assert_eq!(o.checkpoint_dir(), PathBuf::from("/tmp/prev"));
    }

    /// The smallest checkpointable payload, for front-door tests.
    #[derive(Debug, Clone, PartialEq)]
    struct Num(f64);

    impl Checkpointable for Num {
        fn to_ckpt(&self) -> Value {
            Value::Num(self.0)
        }
        fn from_ckpt(v: &Value) -> Option<Num> {
            v.as_f64().map(Num)
        }
    }

    fn door<'a>(outer: bool) -> Campaign<'a, Num> {
        Campaign { outer, ..Campaign::inner("door") }
    }

    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::sync::Arc;

    /// Three trivial units that count how often any of them really runs.
    fn counted_units(ran: &Arc<AtomicUsize>) -> Vec<ExecUnit<Num>> {
        (0..3)
            .map(|i| {
                let ran = ran.clone();
                ExecUnit::new(format!("u{i}"), move |_| {
                    ran.fetch_add(1, SeqCst);
                    Ok(Num(i as f64 + 0.5))
                })
            })
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ompvar_door_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn dir_bytes(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut v: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn abort_returns_the_typed_mismatch_and_touches_nothing() {
        let ran = Arc::new(AtomicUsize::new(0));
        let units = counted_units(&ran);
        let fresh = ExpOptions { out_dir: tmp_dir("abort"), seed: 3, ..ExpOptions::fast() };
        run_journaled(&fresh, &door(true), &units).expect("fresh runs never abort");
        assert_eq!(ran.load(SeqCst), 3);
        let before = dir_bytes(&fresh.checkpoint_dir());
        assert!(!before.is_empty());

        // Another campaign (seed 4) resuming from seed 3's journal.
        let other = ExpOptions { seed: 4, resume: Some(fresh.checkpoint_dir()), ..fresh.clone() };
        let err = run_journaled(&other, &door(true), &units).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        assert_eq!(ran.load(SeqCst), 3, "no unit may run");
        assert_eq!(dir_bytes(&fresh.checkpoint_dir()), before, "journal must be untouched");
        let _ = std::fs::remove_dir_all(&fresh.out_dir);
    }

    #[test]
    fn start_fresh_creates_a_missing_journal_and_replays_a_present_one() {
        let ran = Arc::new(AtomicUsize::new(0));
        let units = counted_units(&ran);
        let dir = tmp_dir("fresh");
        let opts = ExpOptions { resume: Some(dir.clone()), seed: 3, ..ExpOptions::fast() };

        // `--resume DIR` with no `door.jsonl` in DIR: created, journaled.
        let first = run_journaled(&opts, &door(false), &units).unwrap();
        assert_eq!(ran.load(SeqCst), 3);
        assert!(first.results.iter().all(|r| !r.outcome.from_checkpoint()));
        let text = std::fs::read_to_string(dir.join("door.jsonl")).expect("journal created");
        assert!(text.starts_with("{\"schema\":\"ompvar-checkpoint/1\""), "{text}");
        assert_eq!(text.lines().count(), 1 + units.len(), "header + one entry per unit");

        // Present: every unit replays, nothing runs, nothing is re-journaled.
        let second = run_journaled(&opts, &door(false), &units).unwrap();
        assert_eq!(ran.load(SeqCst), 3, "replayed, not re-run");
        assert!(second.results.iter().all(|r| r.outcome.from_checkpoint()));
        assert_eq!(std::fs::read_to_string(dir.join("door.jsonl")).unwrap(), text);

        // Unopenable (another campaign's journal): replaced, not spliced.
        let other = ExpOptions { seed: 4, ..opts.clone() };
        let third = run_journaled(&other, &door(false), &units).unwrap();
        assert_eq!(ran.load(SeqCst), 6);
        assert!(third.results.iter().all(|r| !r.outcome.from_checkpoint()));
        let text = std::fs::read_to_string(dir.join("door.jsonl")).unwrap();
        assert!(text.contains("\"seed\":4") && text.lines().count() == 4, "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
