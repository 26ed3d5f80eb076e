//! `ompvar-repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! ompvar-repro [--fast] [--seed N] [--out DIR] [--fuzz-cases N] \
//!              [--trace FILE] [--lint-json FILE] [--attr] \
//!              [--report-json FILE] [--resume DIR] \
//!              [--max-retries N] [--jobs N] [--unit-timeout SECS] \
//!              [--chaos-seed N] [--chaos-proc] [--salvage-corrupt-shards] \
//!              <table2|fig1|...|trace|campaign|chaos|all>
//! ```
//!
//! Each experiment prints its paper-style table(s), runs the shape checks
//! against the paper's qualitative findings, and writes CSVs under the
//! output directory (default `results/`). `--trace` names the Chrome
//! trace file written by the `trace` experiment; `--lint-json` makes the
//! `analyze` experiment export every program's diagnostics as an
//! `ompvar-diagnostics/1` JSON document; `--report-json` writes a
//! machine-readable summary of every table and check in the run.
//! `--fuzz-cases N` sizes the `fuzz` experiment's campaign (at most
//! 10 000 000: every batch of 32 cases is a cell planned up front);
//! `--attr` turns on causal time attribution for the `trace`
//! experiment's traced run.
//!
//! The whole sweep is one campaign on the fault-tolerant executor
//! (`ompvar-supervisor`), and its unit is the *cell*: every selected
//! experiment declares a grid of seeded runs plus a fold
//! (`ompvar_harness::grid`), and the cells of all of them are flattened
//! into that one campaign. `--jobs N` runs the cells on a pool of N
//! workers popping one shared queue (`0` auto-detects; the default is
//! `1`), each journaling completed cells into its own
//! `ompvar-checkpoint/1` shard manifest under `<out>/checkpoint/` so a
//! `kill -9` at any instant tears at most the final line of one shard.
//! An experiment folds, prints its block and writes its CSVs the moment
//! its last cell is terminal. A failing cell is classified — a
//! structurally invalid region or a deadlock is permanent, a panic or a
//! timeout transient — retried on a seeded deterministic backoff
//! schedule and quarantined once its budget is exhausted, which turns
//! its experiment into a FAIL check naming the cell while the sweep
//! continues; `--unit-timeout SECS` arms a watchdog that reaps a hung
//! attempt into the same retry path. `--resume <dir>` merges the shard
//! manifests deterministically, replays the journaled cells and re-runs
//! only the rest, producing a `--report-json` document byte-identical
//! to an uninterrupted run regardless of worker count or crash history.
//! Ctrl-C stops every worker at the next cell boundary, flushes a
//! partial report (the experiments that finished) marked
//! `"interrupted": true` and exits 130.
//!
//! Chaos controls: the `chaos` experiment exercises the deterministic
//! fault-injection layer (seeded I/O faults, exhaustive crash-point
//! exploration, process chaos) with `--chaos-seed N` overriding its
//! seed; `--chaos-proc` injects seeded worker kills / attempt panics /
//! stalls into *this* sweep's executor (replayable from the chaos
//! seed); `--salvage-corrupt-shards` makes `--resume` quarantine a
//! shard manifest that fails to parse (renamed to `.corrupt`, its units
//! re-run, a recovery note recorded in the JSON report) instead of
//! aborting with the shard file, line number and offending bytes.

use ompvar_harness::common::{run_journaled, run_report_json, Campaign};
use ompvar_harness::grid::{Grid, Sample, Sweep};
use ompvar_harness::{select, ExpOptions, ExpReport, Experiment, EXPERIMENTS};
use ompvar_supervisor::{atomic_write, resolve_jobs, UnitResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Set by the SIGINT handler; polled between experiments so an
/// interrupted sweep still flushes its checkpoint manifest and a partial
/// run report before exiting with the conventional 130.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_sig: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

fn install_sigint_handler() {
    // The libc stub carries no `signal`, but the symbol itself links
    // from the C library std already binds to.
    const SIGINT: i32 = 2;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ompvar-repro [--fast] [--seed N] [--out DIR] [--fuzz-cases N] \
         [--trace FILE] [--lint-json FILE] [--attr] [--report-json FILE] [--resume DIR] \
         [--max-retries N] [--jobs N] [--unit-timeout SECS] \
         [--chaos-seed N] [--chaos-proc] [--salvage-corrupt-shards] <{}|all>",
        EXPERIMENTS.map(|e| e.name).join("|")
    );
    std::process::exit(2);
}

/// A flag value parsed, or a usage error.
fn parsed<T: std::str::FromStr>(v: String) -> T {
    v.parse().unwrap_or_else(|_| usage())
}

/// The grid `exp` contributes to the sweep. A panic while planning
/// (planning runs calibration probes) is isolated: the experiment
/// becomes one permanently failing cell (quarantined at its first
/// attempt, journaled, a FAIL check in the JSON report) and none of its
/// real cells exists to be dispatched.
fn planned(exp: &Experiment, opts: &ExpOptions) -> Grid {
    catch_unwind(AssertUnwindSafe(|| exp.plan(opts))).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Grid::rejected(exp.name, &msg)
    })
}

/// This process's peak resident set so far (`VmHWM`), MB; `None`
/// where `/proc/self/status` cannot be read.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn write_report(
    opts: &ExpOptions,
    interrupted: bool,
    leaked_threads: u64,
    recovery_notes: &[String],
    reports: &[ExpReport],
) -> bool {
    let Some(path) = &opts.report_json else {
        return true;
    };
    let doc = run_report_json(
        opts.seed,
        opts.fast,
        interrupted,
        leaked_threads,
        recovery_notes,
        reports,
    );
    match atomic_write(path, doc.as_bytes()) {
        Ok(()) => {
            println!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("error: could not write JSON report {}: {e}", path.display());
            false
        }
    }
}

fn main() -> ExitCode {
    install_sigint_handler();
    let mut opts = ExpOptions::default();
    let mut targets: Vec<String> = Vec::new();
    // `std::env::args` would panic on an argument that is not UTF-8.
    let mut args = std::env::args_os().skip(1).map(|a| {
        a.into_string().unwrap_or_else(|bad| {
            eprintln!("error: argument {bad:?} is not valid UTF-8");
            usage()
        })
    });
    while let Some(a) = args.next() {
        // A flag's value is the next argument; absent is a usage error.
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--fast" => opts.fast = true,
            "--seed" => opts.seed = parsed(value()),
            "--out" => opts.out_dir = value().into(),
            "--fuzz-cases" => {
                // Every batch of cases is a journaled cell planned up front.
                let cases: u64 = parsed(value());
                if cases > 10_000_000 {
                    eprintln!("error: --fuzz-cases {cases} is out of range (max 10000000)");
                    usage();
                }
                opts.fuzz_cases = Some(cases);
            }
            "--trace" => opts.trace_path = Some(value().into()),
            "--lint-json" => opts.lint_json = Some(value().into()),
            "--attr" => opts.attr = true,
            "--report-json" => opts.report_json = Some(value().into()),
            "--resume" => opts.resume = Some(value().into()),
            "--max-retries" => opts.max_retries = Some(parsed(value())),
            "--jobs" => {
                // 0 means auto-detect; anything past 1024 is a typo, not
                // a machine.
                opts.jobs = parsed(value());
                if opts.jobs > 1024 {
                    eprintln!("error: --jobs {} is out of range (max 1024, 0 = auto)", opts.jobs);
                    usage();
                }
            }
            "--unit-timeout" => {
                // `try_from`: NaN, negatives, infinities and seconds past
                // what a `Duration` holds (1e300) are all refused here.
                let secs: f64 = parsed(value());
                let timeout = std::time::Duration::try_from_secs_f64(secs).ok();
                if timeout.is_none() || secs <= 0.0 {
                    eprintln!("error: --unit-timeout must be a positive number of seconds");
                    usage();
                }
                opts.unit_timeout = timeout;
            }
            "--chaos-seed" => opts.chaos_seed = Some(parsed(value())),
            "--chaos-proc" => opts.chaos_proc = true,
            "--salvage-corrupt-shards" => opts.salvage = true,
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown flag: {other}");
                usage();
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        usage();
    }
    let exps = select(&targets).unwrap_or_else(|bad| {
        eprintln!("unknown experiment: {bad}");
        usage()
    });

    let t0 = Instant::now();
    let sweep = Sweep::new(exps.into_iter().map(|exp| (exp.name, planned(exp, &opts))).collect());
    // Stream each experiment's block (tables, CSV paths, timing line)
    // the moment its last cell reaches a terminal state. Stdout is
    // locked per block so blocks stay contiguous under `--jobs > 1`;
    // with one worker cells complete in canonical order, so the blocks
    // match sequential output.
    let progress = |r: &UnitResult<Sample>| {
        let Some(done) = sweep.record(r) else { return };
        use std::io::Write;
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let _ = write!(out, "{}", done.report.render());
        match done.report.write_csvs(&opts.out_dir) {
            Ok(paths) => {
                for p in paths {
                    let _ = writeln!(out, "wrote {}", p.display());
                }
            }
            Err(e) => eprintln!("warning: could not write CSVs: {e}"),
        }
        let _ = writeln!(
            out,
            "({} took {:.1}s busy in {} cells, {:.1}s wall{})\n",
            done.report.name,
            done.busy.as_secs_f64(),
            done.cells,
            done.wall.as_secs_f64(),
            done.note
        );
    };
    // The sweep's journal is `manifest.jsonl` (+ worker shards) under
    // the checkpoint directory, its executor trace `supervisor.json`
    // next to it. A `--resume` that cannot open the journal — another
    // campaign's seed, mode or target list, or a corrupt shard without
    // `--salvage-corrupt-shards` — aborts before anything runs; the
    // error names the shard file, line number and offending bytes.
    let door = Campaign {
        base: "manifest",
        outer: true,
        trace: Some(("supervisor.json", "ompvar-supervisor")),
        cancel: Some(&INTERRUPTED),
        progress: Some(&progress),
    };
    let run = match run_journaled(&opts, &door, sweep.units()) {
        Ok(run) => run,
        Err(e) => {
            let manifest = opts.checkpoint_dir().join("manifest.jsonl");
            eprintln!("error: cannot resume from {}: {e}", manifest.display());
            return ExitCode::from(2);
        }
    };

    // Where the time and memory went: stdout only — reports, CSVs and
    // journals carry no host values.
    // Canonical order whatever the completion order; an interrupted
    // sweep reports the experiments that finished.
    let (busy, reports) = sweep.finish();
    let (wall, jobs) = (t0.elapsed().as_secs_f64(), resolve_jobs(opts.jobs));
    let peak = peak_rss_mb().map(|mb| format!(", peak {mb:.1} MB")).unwrap_or_default();
    println!(
        "sweep: {wall:.1}s wall, {:.1}s busy, {jobs} workers, efficiency {:.2}{peak}",
        busy.as_secs_f64(),
        busy.as_secs_f64() / (wall * jobs as f64)
    );
    let mut all_ok = reports.iter().all(ExpReport::all_passed);
    // Campaign health: watchdog-reaped attempt threads still alive at
    // exit, plus every degraded-recovery note (lost journal writes,
    // quarantined shards) — surfaced in the JSON report and the final
    // log lines.
    let recovery_notes = run.recovery_notes;
    if run.leaked_threads > 0 {
        eprintln!(
            "warning: {} watchdog-reaped attempt thread(s) still running at exit \
             (leaked; they die with the process)",
            run.leaked_threads
        );
    }
    if run.interrupted {
        eprintln!("interrupted: flushing partial report and checkpoint manifest");
        write_report(&opts, true, run.leaked_threads, &recovery_notes, &reports);
        std::process::exit(130);
    }
    all_ok &= write_report(&opts, false, run.leaked_threads, &recovery_notes, &reports);
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("some shape checks FAILED");
        ExitCode::FAILURE
    }
}
