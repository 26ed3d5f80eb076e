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

use ompvar_harness::{
    ablation, analyze_exp, campaign_exp, chaos_exp, chunks, common, faults_exp, fig1, fig2, fig3,
    fig4, fig5, fig67, fuzz_exp, table2, taskbench_exp, trace_exp, variability, Check, ExpOptions,
    ExpReport,
};
use ompvar_supervisor::{
    atomic_write, attempt_seed, create_shards, resolve_jobs, resume_shards, resume_shards_lenient,
    run_campaign, ExecUnit, ExecutorConfig, Header, Outcome, ProcChaos, SupervisorConfig,
    UnitError, UnitResult,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

const EXPERIMENTS: [&str; 18] = [
    "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "ablation", "taskbench",
    "chunks", "faults", "fuzz", "analyze", "trace", "campaign", "variability", "chaos",
];

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
        EXPERIMENTS.join("|")
    );
    std::process::exit(2);
}

fn run_one(name: &str, opts: &ExpOptions) -> ExpReport {
    match name {
        "table2" => table2::run(opts),
        "fig1" => fig1::run(opts),
        "fig2" => fig2::run(opts),
        "fig3" => fig3::run(opts),
        "fig4" => fig4::run(opts),
        "fig5" => fig5::run(opts),
        "fig6" => fig67::run_fig6(opts),
        "fig7" => fig67::run_fig7(opts),
        "ablation" => ablation::run(opts),
        "taskbench" => taskbench_exp::run(opts),
        "chunks" => chunks::run(opts),
        "faults" => faults_exp::run(opts),
        "fuzz" => fuzz_exp::run(opts),
        "analyze" => analyze_exp::run(opts),
        "trace" => trace_exp::run(opts),
        "campaign" => campaign_exp::run(opts),
        "variability" => variability::run(opts),
        "chaos" => chaos_exp::run(opts),
        // Names are validated before any experiment runs.
        other => unreachable!("unvalidated experiment name {other:?}"),
    }
}

/// One supervised attempt of an experiment: a panic anywhere inside it
/// becomes a classified transient failure the supervisor can retry.
fn attempt(name: &str, opts: &ExpOptions, n: u32) -> Result<ExpReport, UnitError> {
    // Retries re-run under a decorrelated seed (attempt 0 keeps the base
    // seed, so a never-retried run matches an unsupervised one).
    let opts = ExpOptions { seed: attempt_seed(opts.seed, n), ..opts.clone() };
    match catch_unwind(AssertUnwindSafe(|| run_one(name, &opts))) {
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
    ExpReport {
        name: name.to_string(),
        tables: Vec::new(),
        checks: vec![Check::new(
            "experiment completes within its retry budget",
            false,
            format!("quarantined after {} attempt(s): {history}", retries.len()),
        )],
    }
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
    let doc = common::run_report_json(
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

/// Flush the executor's merged Chrome trace (attempt spans, retry /
/// quarantine / timeout / resume / checkpoint instants, one lane per
/// worker) next to the manifest.
fn write_supervisor_trace(trace: &ompvar_obs::Trace, opts: &ExpOptions) {
    let path = opts.checkpoint_dir().join("supervisor.json");
    let doc = ompvar_obs::chrome_trace_lanes(trace, &[], "ompvar-supervisor", "worker");
    if let Err(e) = atomic_write(&path, doc.as_bytes()) {
        eprintln!("warning: could not write supervisor trace {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    install_sigint_handler();
    let mut opts = ExpOptions::default();
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fast" => opts.fast = true,
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--out" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.out_dir = v.into();
            }
            "--fuzz-cases" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.fuzz_cases = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--trace" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.trace_path = Some(v.into());
            }
            "--lint-json" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.lint_json = Some(v.into());
            }
            "--attr" => opts.attr = true,
            "--report-json" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.report_json = Some(v.into());
            }
            "--resume" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.resume = Some(v.into());
            }
            "--max-retries" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.max_retries = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                let n: usize = v.parse().unwrap_or_else(|_| usage());
                // 0 means auto-detect; anything past 1024 is a typo, not
                // a machine.
                if n > 1024 {
                    eprintln!("error: --jobs {n} is out of range (max 1024, 0 = auto)");
                    usage();
                }
                opts.jobs = n;
            }
            "--unit-timeout" => {
                let v = args.next().unwrap_or_else(|| usage());
                let secs: f64 = v.parse().unwrap_or_else(|_| usage());
                if !secs.is_finite() || secs <= 0.0 {
                    eprintln!("error: --unit-timeout must be a positive number of seconds");
                    usage();
                }
                opts.unit_timeout = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--stability-cov" => {
                let v = args.next().unwrap_or_else(|| usage());
                let x: f64 = v.parse().unwrap_or_else(|_| usage());
                if !x.is_finite() || x <= 0.0 {
                    usage();
                }
                opts.stability_cov = Some(x);
            }
            "--chaos-seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.chaos_seed = Some(v.parse().unwrap_or_else(|_| usage()));
            }
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
    // Validate every requested name up front: a typo in the last target
    // must not surface only after hours of earlier experiments.
    if let Some(bad) = targets
        .iter()
        .find(|t| *t != "all" && !EXPERIMENTS.contains(&t.as_str()))
    {
        eprintln!("unknown experiment: {bad}");
        usage();
    }
    let names: Vec<&str> = if targets.iter().any(|t| t == "all") {
        EXPERIMENTS.to_vec()
    } else {
        // Dedupe while preserving first-occurrence order.
        let mut seen = Vec::new();
        for t in &targets {
            if !seen.contains(&t.as_str()) {
                seen.push(t.as_str());
            }
        }
        seen
    };

    // The campaign executor and its sharded checkpoint manifests. A
    // resumed campaign must describe the same work: seed, mode and
    // target list are validated against every shard's header. Shard 0 is
    // the legacy `manifest.jsonl`, so sequential checkpoints from older
    // runs resume unchanged.
    let jobs = resolve_jobs(opts.jobs);
    let header = Header {
        seed: opts.seed,
        fast: opts.fast,
        targets: names.iter().map(|s| s.to_string()).collect(),
    };
    let ckpt_dir = opts.checkpoint_dir();
    let manifest_path = ckpt_dir.join("manifest.jsonl");
    let mut salvage_notes: Vec<String> = Vec::new();
    let (manifests, replay) = if opts.resume.is_some() {
        // `--salvage-corrupt-shards` quarantines a shard that fails to
        // parse (renamed `.corrupt`, its units re-run) instead of
        // aborting; the recovery note lands in the JSON report. Without
        // it, a corrupt shard is fatal and the error names the shard
        // file, line number and offending bytes.
        let opened = if opts.salvage {
            resume_shards_lenient(&ckpt_dir, "manifest", &header, jobs, &mut salvage_notes)
        } else {
            resume_shards(&ckpt_dir, "manifest", &header, jobs)
        };
        match opened {
            Ok((ms, merged)) => {
                for n in &salvage_notes {
                    eprintln!("warning: {n}");
                }
                println!(
                    "resuming from {} ({} completed experiment(s))",
                    manifest_path.display(),
                    merged.len()
                );
                (Some(ms), merged)
            }
            Err(e) => {
                eprintln!("error: cannot resume from {}: {e}", manifest_path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        match create_shards(&ckpt_dir, "manifest", &header, jobs) {
            Ok(ms) => (Some(ms), Vec::new()),
            Err(e) => {
                eprintln!(
                    "warning: no checkpoint manifest at {}: {e}; running unjournaled",
                    manifest_path.display()
                );
                (None, Vec::new())
            }
        }
    };
    let cfg = ExecutorConfig {
        jobs,
        unit_timeout: opts.unit_timeout,
        supervisor: SupervisorConfig {
            seed: opts.seed,
            max_retries: opts.max_retries.unwrap_or(2),
            sleep: true,
            ..SupervisorConfig::default()
        },
        // `--chaos-proc`: seeded worker kills / attempt panics / stalls
        // on this sweep's own executor, replayable from the chaos seed.
        chaos: opts
            .chaos_proc
            .then(|| ProcChaos::standard(opts.chaos_seed.unwrap_or(opts.seed))),
    };
    let units: Vec<ExecUnit<ExpReport>> = names
        .iter()
        .map(|name| {
            let name = name.to_string();
            let opts = opts.clone();
            ExecUnit::new(name.clone(), move |n| {
                // Static pre-flight gate: analyze the experiment's
                // built-in region specs before running anything. An
                // Error-severity finding is structural — a permanent
                // failure (quarantined, journaled, a FAIL check in the
                // JSON report) that never spends the experiment's
                // wall-clock budget.
                let rejected = analyze_exp::preflight_specs(&name, &opts)
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
                attempt(&name, &opts, n)
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
    let run = run_campaign(
        &cfg,
        &units,
        manifests,
        &replay,
        Some(&INTERRUPTED),
        Some(&progress),
    );
    write_supervisor_trace(&run.trace, &opts);

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
    let mut recovery_notes = salvage_notes;
    recovery_notes.extend(run.recovery_notes);
    recovery_notes.sort_unstable();
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
