//! The ompvar benchmark driver. `benchmark/run.sh` builds the release
//! CLI and this program, then hands over its arguments; see
//! `benchmark/README.md`.
//!
//! Three modes:
//!
//! * `--workload W … --trace 0|1` — one run of one workload in this
//!   process. Prints every metric as `workload metric value unit` and,
//!   last, one JSON object `{correct, attempted, failed, metrics}`.
//! * no `--workload` — every workload, each run in a process of its own
//!   so `peak_rss_mb` is per workload; `--passes N` repeats, `--traced`
//!   adds the traced runs, `--out FILE` names the results document.
//! * `--compare A.json B.json` — judge two results documents.

mod compare;
mod fidelity;
mod metrics;
mod proc;
mod span;
mod stats;
mod workloads;

use metrics::{complete, result_line, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use ompvar_obs::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{
    engine_dense::EngineDense, fuzz_campaign::FuzzCampaign, journal, paper_sweep::PaperSweep, Ctx,
};

/// Schema tag of the results document the all-workloads mode writes.
pub const RESULTS_SCHEMA: &str = "ompvar-benchmark/1";

/// Default seed: the paper's presentation date, as everywhere in ompvar.
const DEFAULT_SEED: u64 = 20230714;

/// Seconds one untraced run measures for, at full size and under
/// `--smoke`.
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.5;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    traced: bool,
    smoke: bool,
    passes: usize,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
    cli: PathBuf,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark/run.sh [--workload <{}>] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      [--traced] [--smoke] [--passes N] [--out FILE]\n\
         \x20      benchmark/run.sh --compare BASE.json NEW.json",
        names.join("|")
    )
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        traced: false,
        smoke: false,
        passes: 1,
        out: None,
        compare: None,
        cli: PathBuf::new(),
        out_dir: PathBuf::new(),
    };
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|d| d.name == w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--passes" => {
                a.passes = value()?.parse().map_err(|e| format!("--passes: {e}"))?;
                if a.passes == 0 {
                    return Err("--passes must be at least 1".into());
                }
            }
            "--out" => a.out = Some(value()?.into()),
            "--compare" => a.compare = Some((value()?, value()?)),
            "--cli" => a.cli = value()?.into(),
            "--out-dir" => a.out_dir = value()?.into(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.cli.as_os_str().is_empty() || a.out_dir.as_os_str().is_empty() {
        return Err("run through benchmark/run.sh, which passes --cli and --out-dir".into());
    }
    Ok(a)
}

/// One run of one workload in this process. Returns whether it was
/// correct.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let tmp = args.out_dir.join(format!("tmp.{}", std::process::id()));
    proc::fresh_dir(&tmp)?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        smoke: args.smoke,
        cli: args.cli.clone(),
        tmp: tmp.clone(),
    };
    let trace_path = args.out_dir.join(format!("trace.{name}.json"));
    let trace_path = args.trace.then_some(trace_path.as_path());
    let outcome = match name {
        "paper_sweep" => workloads::run::<PaperSweep>(&ctx, trace_path),
        "fuzz_campaign" => workloads::run::<FuzzCampaign>(&ctx, trace_path),
        "engine_dense" => workloads::run::<EngineDense>(&ctx, trace_path),
        "journal_campaign" => workloads::run::<journal::JournalCampaign>(&ctx, trace_path),
        _ => workloads::run::<journal::JournalResume>(&ctx, trace_path),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let result: RunResult = outcome?;

    let metrics = complete(
        if args.trace { &PER_LAYER } else { &END_TO_END },
        &result.metrics,
    )?;
    // The listing leaves out layers this workload does not call (they
    // read 0); the result line carries every metric.
    for (metric, value, unit) in metrics.iter().filter(|(_, v, _)| *v != 0.0) {
        println!("{name} {metric} {value} {unit}");
    }
    for (info, value, unit) in &result.info {
        println!("{name} {info} {value} {unit}");
    }
    for why in &result.gate_failures {
        eprintln!("{name}: GATE FAILED: {why}");
    }
    if result.failed > 0 {
        eprintln!(
            "{name}: {} of {} operation(s) failed",
            result.failed, result.attempted
        );
    }
    println!(
        "{}",
        result_line(result.correct(), result.attempted, result.failed, &metrics)
    );
    Ok(result.correct())
}

/// Every workload, each run a child process of this program. Returns
/// whether all were correct.
fn run_all(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for trace in [false, true].into_iter().filter(|t| !t || args.traced) {
        for w in &WORKLOADS {
            println!(
                "# {}{}: {}",
                w.name,
                if trace { " (traced)" } else { "" },
                w.why
            );
            for pass in 0..if trace { 1 } else { args.passes } {
                let mut cmd = Command::new(&exe);
                cmd.args([
                    "--workload",
                    w.name,
                    "--seed",
                    &args.seed.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .arg("--cli")
                .arg(&args.cli)
                .arg("--out-dir")
                .arg(&args.out_dir);
                if let Some(s) = args.seconds {
                    cmd.args(["--seconds", &s.to_string()]);
                }
                if args.smoke {
                    cmd.arg("--smoke");
                }
                let out = cmd
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let Some((listing, line)) = stdout.trim_end().rsplit_once('\n') else {
                    return Err(format!("{} printed no result ({})", w.name, out.status));
                };
                println!("{listing}");
                let doc = json::parse(line).map_err(|e| format!("{} result line: {e}", w.name))?;
                all_correct &= out.status.success()
                    && doc.get("correct").and_then(Value::as_bool) == Some(true);
                runs.push(run_entry(w.name, trace, pass, line, listing));
            }
        }
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| args.out_dir.join("results.json"));
    let doc = format!(
        "{{\"schema\":\"{RESULTS_SCHEMA}\",\"seed\":{},\"smoke\":{},\"runs\":[\n{}\n]}}\n",
        args.seed,
        args.smoke,
        runs.join(",\n")
    );
    std::fs::write(&out, doc).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    if args.traced {
        let merged = args.out_dir.join("trace.json");
        merge_traces(&args.out_dir, &merged)?;
        println!("wrote {}", merged.display());
    }
    Ok(all_correct)
}

/// One entry of the results document: the child's result line verbatim,
/// plus the listing's other numbers (digests, quartiles) as strings.
fn run_entry(workload: &str, trace: bool, pass: usize, result_line: &str, listing: &str) -> String {
    let info: Vec<String> = listing
        .lines()
        .filter_map(|l| {
            let mut t = l.split(' ');
            match (t.next(), t.next(), t.next(), t.next(), t.next()) {
                (Some(w), Some(name), Some(value), Some(_unit), None) if w == workload => {
                    Some((name, value))
                }
                _ => None,
            }
        })
        .filter(|(name, _)| !END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == *name))
        .map(|(name, value)| format!("\"{}\":\"{}\"", json::escape(name), json::escape(value)))
        .collect();
    format!(
        "{{\"workload\":\"{workload}\",\"trace\":{},\"pass\":{pass},\"result\":{result_line},\"info\":{{{}}}}}",
        u8::from(trace),
        info.join(",")
    )
}

/// Join the per-workload traces into one Chrome trace, one process
/// track per workload.
fn merge_traces(dir: &Path, merged: &Path) -> Result<(), String> {
    let mut events = Vec::new();
    for (pid, w) in WORKLOADS.iter().enumerate() {
        let path = dir.join(format!("trace.{}.json", w.name));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let pid = Value::Num((pid + 1) as f64);
        events.push(Value::Obj(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), pid.clone()),
            (
                "args".into(),
                Value::Obj(vec![("name".into(), Value::Str(w.name.into()))]),
            ),
        ]));
        for e in doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{}: no traceEvents", path.display()))?
        {
            let Value::Obj(fields) = e else { continue };
            let fields = fields
                .iter()
                .map(|(k, v)| (k.clone(), if k == "pid" { pid.clone() } else { v.clone() }));
            events.push(Value::Obj(fields.collect()));
        }
    }
    let doc = Value::Obj(vec![
        ("traceEvents".into(), Value::Arr(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ]);
    std::fs::write(merged, json::write(&doc))
        .map_err(|e| format!("write {}: {e}", merged.display()))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.compare, &args.workload) {
        (Some((base, new)), _) => compare::run(base, new),
        (None, Some(name)) => run_one(&args, name),
        (None, None) => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn contract_arguments_parse() {
        let a = args(&[
            "--cli",
            "c",
            "--out-dir",
            "o",
            "--workload",
            "engine_dense",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("engine_dense"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--cli", "c", "--out-dir", "o", "--workload", "nope"][..],
            &["--cli", "c", "--out-dir", "o", "--trace", "2"],
            &["--cli", "c", "--out-dir", "o", "--seconds", "0"],
            &["--cli", "c", "--out-dir", "o", "--passes", "0"],
            &["--cli", "c", "--out-dir", "o", "--seed"],
            &["--workload", "engine_dense"],
            &["--bogus"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn run_entry_keeps_only_the_listings_extra_numbers() {
        let listing = "engine_dense work_per_s 9000 1/s\nengine_dense dense_events 123 count\nother_workload x 1 u\nnoise";
        let entry = run_entry("engine_dense", false, 2, "{\"correct\": true}", listing);
        let doc = json::parse(&entry).expect("entry parses");
        assert_eq!(doc.get("pass").and_then(Value::as_f64), Some(2.0));
        assert_eq!(doc.get("trace").and_then(Value::as_f64), Some(0.0));
        let Some(Value::Obj(info)) = doc.get("info") else {
            panic!("no info")
        };
        assert_eq!(info.len(), 1);
        assert_eq!(
            doc.get("info")
                .and_then(|i| i.get("dense_events"))
                .and_then(Value::as_str),
            Some("123")
        );
    }
}
