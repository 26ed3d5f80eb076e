//! `ompvar-repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! ompvar-repro [--fast] [--seed N] [--out DIR] [--trace FILE] \
//!              [--lint-json FILE] [--report-json FILE] [--resume DIR] \
//!              [--max-retries N] [--jobs N] [--unit-timeout SECS] \
//!              [--stability-cov X] [--chaos-seed N] [--chaos-proc] \
//!              [--salvage-corrupt-shards] \
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
//!
//! The whole sweep runs on the fault-tolerant campaign executor
//! (`ompvar-supervisor`): `--jobs N` shards the experiments across a
//! work-stealing pool of N workers (`0` auto-detects; the default `1`
//! preserves measurement fidelity), each journaling completed units into
//! its own `ompvar-checkpoint/1` shard manifest under
//! `<out>/checkpoint/` so a `kill -9` at any instant tears at most the
//! final line of one shard. A panicking experiment is retried on a
//! seeded deterministic backoff schedule and quarantined — reported as a
//! synthesized FAIL check — only once its budget is exhausted, while the
//! sweep continues; `--unit-timeout SECS` arms a watchdog that reaps a
//! hung attempt into the same retry path. `--resume <dir>` merges the
//! shard manifests deterministically, replays the journaled experiments
//! and re-runs only the rest, producing a `--report-json` document
//! byte-identical to an uninterrupted run regardless of worker count or
//! crash history. Ctrl-C stops every worker at the next unit boundary,
//! flushes a partial report marked `"interrupted": true` and exits 130.
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

use ompvar_harness::common::{run_journaled, run_report_json, Campaign, Unopenable};
use ompvar_harness::{analyze_exp, select, Check, ExpOptions, ExpReport, Experiment, EXPERIMENTS};
use ompvar_supervisor::{atomic_write, attempt_seed, ExecUnit, Outcome, UnitError, UnitResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

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
         [--max-retries N] [--jobs N] [--unit-timeout SECS] [--stability-cov X] \
         [--chaos-seed N] [--chaos-proc] [--salvage-corrupt-shards] <{}|all>",
        EXPERIMENTS.map(|e| e.name).join("|")
    );
    std::process::exit(2);
}

/// A flag value parsed, or a usage error.
fn parsed<T: std::str::FromStr>(v: String) -> T {
    v.parse().unwrap_or_else(|_| usage())
}

/// One supervised attempt of an experiment: a panic anywhere inside it
/// becomes a classified transient failure the supervisor can retry.
fn attempt(exp: &Experiment, opts: &ExpOptions, n: u32) -> Result<ExpReport, UnitError> {
    // Retries re-run under a decorrelated seed (attempt 0 keeps the base
    // seed, so a never-retried run matches an unsupervised one).
    let opts = ExpOptions { seed: attempt_seed(opts.seed, n), ..opts.clone() };
    match catch_unwind(AssertUnwindSafe(|| (exp.run)(&opts))) {
        Ok(report) => Ok(report),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(UnitError::from_panic(msg))
        }
    }
}

/// The FAIL report synthesized for a quarantined experiment.
fn quarantine_report(name: &str, retries: &[ompvar_supervisor::RetryRecord]) -> ExpReport {
    let history = retries
        .iter()
        .map(|r| format!("attempt {}: {} [{}]", r.attempt, r.error, r.transience.name()))
        .collect::<Vec<_>>()
        .join("; ");
    let check = Check::new(
        "experiment completes within its retry budget",
        false,
        format!("quarantined after {} attempt(s): {history}", retries.len()),
    );
    ExpReport::new(name, Vec::new(), vec![check])
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
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        // A flag's value is the next argument; absent is a usage error.
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--fast" => opts.fast = true,
            "--seed" => opts.seed = parsed(value()),
            "--out" => opts.out_dir = value().into(),
            "--fuzz-cases" => opts.fuzz_cases = Some(parsed(value())),
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
                let secs: f64 = parsed(value());
                if !secs.is_finite() || secs <= 0.0 {
                    eprintln!("error: --unit-timeout must be a positive number of seconds");
                    usage();
                }
                opts.unit_timeout = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--stability-cov" => {
                let x: f64 = parsed(value());
                if !x.is_finite() || x <= 0.0 {
                    usage();
                }
                opts.stability_cov = Some(x);
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

    let units: Vec<ExecUnit<ExpReport>> = exps
        .into_iter()
        .map(|exp| {
            let name = exp.name;
            let opts = opts.clone();
            ExecUnit::new(name, move |n| {
                // Static pre-flight gate: analyze the experiment's
                // built-in region specs before running anything. An
                // Error-severity finding is structural — a permanent
                // failure (quarantined, journaled, a FAIL check in the
                // JSON report) that never spends the experiment's
                // wall-clock budget.
                let rejected = analyze_exp::specs_for(exp.families, &opts)
                    .into_iter()
                    .find_map(|(label, spec)| {
                        ompvar_analyze::analyze(&spec)
                            .first_error()
                            .map(|d| (label, d.render(), d.cause))
                    });
                if let Some((label, rendered, cause)) = rejected {
                    eprintln!("preflight: {name} spec `{label}` statically rejected: {rendered}");
                    let cause =
                        cause.expect("Error-severity diagnostics carry their RegionError");
                    return Err(UnitError::from_rt(&ompvar_rt::RtError::InvalidRegion(cause)));
                }
                attempt(exp, &opts, n)
            })
        })
        .collect();
    // Stream each experiment's block (tables, CSV paths, timing line)
    // the moment it reaches a terminal state. Stdout is locked per unit
    // so blocks stay contiguous under `--jobs > 1`; with one worker the
    // callback fires in canonical order, matching sequential output.
    let progress = |r: &UnitResult<ExpReport>| {
        let (rendered, csvs, note) = match &r.outcome {
            Outcome::Completed { value, attempts, from_checkpoint, .. } => {
                let note = if *from_checkpoint {
                    " [replayed from checkpoint]".to_string()
                } else if *attempts > 1 {
                    format!(" [recovered after {attempts} attempts]")
                } else {
                    String::new()
                };
                (value.render(), value.write_csvs(&opts.out_dir), note)
            }
            Outcome::Quarantined { retries, .. } => {
                let rep = quarantine_report(&r.name, retries);
                (rep.render(), rep.write_csvs(&opts.out_dir), " [quarantined]".to_string())
            }
        };
        use std::io::Write;
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let _ = write!(out, "{rendered}");
        match csvs {
            Ok(paths) => {
                for p in paths {
                    let _ = writeln!(out, "wrote {}", p.display());
                }
            }
            Err(e) => eprintln!("warning: could not write CSVs: {e}"),
        }
        let _ = writeln!(out, "({} took {:.1}s{note})\n", r.name, r.duration.as_secs_f64());
    };
    // The sweep's journal is `manifest.jsonl` (+ worker shards) under
    // the checkpoint directory, its executor trace `supervisor.json`
    // next to it. A `--resume` that cannot open the journal — another
    // campaign's seed, mode or target list, or a corrupt shard without
    // `--salvage-corrupt-shards` — aborts before anything runs; the
    // error names the shard file, line number and offending bytes.
    let door = Campaign {
        base: "manifest",
        unopenable: Unopenable::Abort,
        outer: true,
        trace: Some(("supervisor.json", "ompvar-supervisor")),
        cancel: Some(&INTERRUPTED),
        progress: Some(&progress),
    };
    let run = match run_journaled(&opts, &door, &units) {
        Ok(run) => run,
        Err(e) => {
            let manifest = opts.checkpoint_dir().join("manifest.jsonl");
            eprintln!("error: cannot resume from {}: {e}", manifest.display());
            return ExitCode::from(2);
        }
    };

    let mut all_ok = true;
    let mut reports = Vec::new();
    for r in run.results {
        let report = match r.outcome {
            Outcome::Completed { value, .. } => value,
            Outcome::Quarantined { retries, .. } => quarantine_report(&r.name, &retries),
        };
        all_ok &= report.all_passed();
        reports.push(report);
    }
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
