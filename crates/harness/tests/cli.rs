//! End-to-end tests of the `ompvar-repro` CLI binary.

use ompvar_obs::json::{parse, Value};
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ompvar-repro"))
}

#[test]
fn fast_table2_prints_table_and_checks() {
    let out_dir = std::env::temp_dir().join("ompvar_cli_test");
    let out = repro()
        .args(["--fast", "--seed", "5", "--out"])
        .arg(&out_dir)
        .arg("table2")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("Table 2"));
    assert!(stdout.contains("[PASS]"));
    assert!(!stdout.contains("[FAIL]"), "{stdout}");
    // CSV written.
    assert!(out_dir.join("table2_0.csv").exists());
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn unknown_experiment_fails_with_usage() {
    let out = repro().arg("fig99").output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment: fig99"), "{stderr}");
    assert!(stderr.contains("usage:"));
}

/// A typo anywhere in the target list is rejected before any experiment
/// runs — the valid first target must not start.
#[test]
fn late_unknown_experiment_rejected_up_front() {
    let out = repro()
        .args(["--fast", "fig2", "fig99"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment: fig99"));
    // fig2 must not have produced any output before the rejection.
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn unknown_flag_fails_with_usage() {
    let out = repro()
        .args(["--frobnicate", "fig2"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag: --frobnicate"), "{stderr}");
    assert!(stderr.contains("usage:"));
}

/// Duplicate targets run once (first-occurrence order).
#[test]
fn duplicate_targets_are_deduped() {
    let out_dir = std::env::temp_dir().join("ompvar_cli_dedupe");
    let out = repro()
        .args(["--fast", "--out"])
        .arg(&out_dir)
        .args(["fig2", "fig2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("==== fig2 ====").count(), 1, "{stdout}");
    std::fs::remove_dir_all(&out_dir).ok();
}

/// The faults experiment completes in fast mode, prints its sweep table
/// (including the diagnosed deadlock cell), and writes its CSV.
#[test]
fn faults_fast_reports_diagnosed_deadlock() {
    let out_dir = std::env::temp_dir().join("ompvar_cli_faults");
    let out = repro()
        .args(["--fast", "--out"])
        .arg(&out_dir)
        .arg("faults")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("lost-wakeup"), "{stdout}");
    assert!(stdout.contains("simulation deadlock"), "{stdout}");
    assert!(stdout.contains("waiting on"), "{stdout}");
    assert!(!stdout.contains("[FAIL]"), "{stdout}");
    assert!(out_dir.join("faults_0.csv").exists());
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn no_arguments_fails_with_usage() {
    let out = repro().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn same_seed_reproduces_identical_output() {
    let run = || {
        let out = repro()
            .args(["--fast", "--seed", "9", "--out"])
            .arg(std::env::temp_dir().join("ompvar_cli_det"))
            .arg("fig2")
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.contains("took") && !l.contains("wrote") && !l.starts_with("sweep:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(run(), run());
    std::fs::remove_dir_all(std::env::temp_dir().join("ompvar_cli_det")).ok();
}

/// The trace experiment honors `--trace`, writes Perfetto-loadable
/// Chrome traces for both backends, and `--report-json` captures the
/// whole run — tables and checks — as parseable JSON.
#[test]
fn trace_writes_chrome_traces_and_json_report() {
    let out_dir = std::env::temp_dir().join("ompvar_cli_trace_test");
    let trace = out_dir.join("out.json");
    let report = out_dir.join("report.json");
    let out = repro()
        .args(["--fast", "--seed", "7", "--out"])
        .arg(&out_dir)
        .arg("--trace")
        .arg(&trace)
        .arg("--report-json")
        .arg(&report)
        .arg("trace")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}\nstdout: {stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!stdout.contains("[FAIL]"), "{stdout}");
    // Both Chrome traces are valid JSON with begin/end span events; the
    // simulated one also carries the per-core frequency counter track.
    for (path, want_counters) in [(&trace, true), (&out_dir.join("out.native.json"), false)] {
        let doc = std::fs::read_to_string(path).expect("trace written");
        let v = parse(&doc).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let events = v.get("traceEvents").and_then(Value::as_arr).expect("array");
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
                .count()
        };
        assert!(count("B") > 0 && count("B") == count("E"), "{}", path.display());
        assert_eq!(count("C") > 0, want_counters, "{}", path.display());
    }
    // The run report round-trips: experiment name, pass/fail, and the
    // per-construct percentile tables are all present.
    let doc = std::fs::read_to_string(&report).expect("report written");
    let v = parse(&doc).expect("report parses");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("ompvar-run-report/1")
    );
    assert_eq!(v.get("seed").and_then(Value::as_f64), Some(7.0));
    assert_eq!(v.get("all_passed").and_then(Value::as_bool), Some(true));
    let exps = v.get("experiments").and_then(Value::as_arr).expect("array");
    assert_eq!(exps.len(), 1);
    assert_eq!(exps[0].get("name").and_then(Value::as_str), Some("trace"));
    let tables = exps[0].get("tables").and_then(Value::as_arr).expect("tables");
    assert_eq!(tables.len(), 2, "sim + native percentile tables");
    for t in tables {
        let header: Vec<&str> = t
            .get("header")
            .and_then(Value::as_arr)
            .expect("header")
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(header, ["construct", "count", "p50", "p95", "p99", "max"]);
        assert!(!t.get("rows").and_then(Value::as_arr).expect("rows").is_empty());
    }
    std::fs::remove_dir_all(&out_dir).ok();
}

/// `--report-json` works for any experiment, not just `trace`.
#[test]
fn report_json_captures_non_trace_experiments() {
    let out_dir = std::env::temp_dir().join("ompvar_cli_report_test");
    let report = out_dir.join("r.json");
    let out = repro()
        .args(["--fast", "--out"])
        .arg(&out_dir)
        .arg("--report-json")
        .arg(&report)
        .arg("fig2")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let v = parse(&std::fs::read_to_string(&report).expect("report written"))
        .expect("report parses");
    let exps = v.get("experiments").and_then(Value::as_arr).expect("array");
    assert_eq!(exps[0].get("name").and_then(Value::as_str), Some("fig2"));
    assert!(!exps[0].get("checks").and_then(Value::as_arr).unwrap().is_empty());
    std::fs::remove_dir_all(&out_dir).ok();
}

/// Poll until `path` holds at least `lines` newline-terminated lines
/// (the checkpoint manifest grows one line per completed experiment).
fn wait_for_lines(path: &std::path::Path, lines: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let n = std::fs::read_to_string(path)
            .map(|s| s.lines().count())
            .unwrap_or(0);
        if n >= lines {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{} never reached {lines} line(s)",
            path.display()
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Unit names journaled across every `manifest*.jsonl` shard under
/// `ckpt`, header lines excluded, sorted.
fn journaled_cells(ckpt: &std::path::Path) -> Vec<String> {
    let mut names = Vec::new();
    for e in std::fs::read_dir(ckpt).expect("checkpoint dir").filter_map(Result::ok) {
        let file = e.file_name().to_string_lossy().into_owned();
        if !(file.starts_with("manifest") && file.ends_with(".jsonl")) {
            continue;
        }
        let text = std::fs::read_to_string(e.path()).expect("shard readable");
        for line in text.lines().skip(1) {
            let unit = parse(line).unwrap_or_else(|e| panic!("{file}: {e}: {line}"));
            names.push(unit.get("name").and_then(Value::as_str).expect("unit name").to_string());
        }
    }
    names.sort();
    names
}

/// The campaign's cell names, from shard 0's header, sorted.
fn header_cells(ckpt: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(ckpt.join("manifest.jsonl")).expect("manifest");
    let header = parse(text.lines().next().expect("header line")).expect("header parses");
    let targets = header.get("targets").and_then(Value::as_arr).expect("targets");
    let mut names: Vec<String> =
        targets.iter().map(|t| t.as_str().expect("cell name").to_string()).collect();
    names.sort();
    names
}

/// No `.tmp` staging residue anywhere under `dir` (atomic writes either
/// complete or clean up).
fn assert_no_tmp_residue(dir: &std::path::Path) {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&d) else { continue };
        for e in rd.filter_map(Result::ok) {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                assert!(
                    !p.file_name().unwrap().to_string_lossy().ends_with(".tmp"),
                    "staging residue: {}",
                    p.display()
                );
            }
        }
    }
}

/// The tentpole end to end: a campaign killed with SIGKILL after a few
/// checkpointed cells resumes with `--resume` and produces a
/// `--report-json` document byte-identical to an uninterrupted run's,
/// re-running strictly fewer cells than the campaign has — a kill
/// costs the cells in flight, not their experiment. Also the
/// satellite-1 regression: the kill must leave no half-written report
/// and no temp-file residue.
#[test]
fn kill_then_resume_reproduces_report_byte_for_byte() {
    let base = std::env::temp_dir().join("ompvar_cli_resume");
    std::fs::remove_dir_all(&base).ok();
    let targets = ["fig2", "table2"];

    // Uninterrupted reference.
    let ref_dir = base.join("ref");
    let ref_json = base.join("ref.json");
    let out = repro()
        .args(["--fast", "--seed", "3", "--out"])
        .arg(&ref_dir)
        .arg("--report-json")
        .arg(&ref_json)
        .args(targets)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Same campaign, killed once three cells are checkpointed.
    let kill_dir = base.join("kill");
    let kill_json = base.join("kill.json");
    let mut child = repro()
        .args(["--fast", "--seed", "3", "--out"])
        .arg(&kill_dir)
        .arg("--report-json")
        .arg(&kill_json)
        .args(targets)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary spawns");
    let manifest = kill_dir.join("checkpoint").join("manifest.jsonl");
    // Header + three cell entries.
    wait_for_lines(&manifest, 4);
    child.kill().expect("SIGKILL");
    child.wait().expect("reaped");
    // The kill left either no report or a complete one — never a torn
    // file — and no staging residue.
    assert!(!kill_json.exists(), "report must not exist before the run completes");
    assert_no_tmp_residue(&base);
    let text = std::fs::read_to_string(&manifest).expect("manifest");
    let survived = text.matches('\n').count() - 1;
    assert!(survived >= 3, "{survived} complete cell line(s) survived the kill");

    // Resume: the journaled cells replay, the rest re-run.
    let out = repro()
        .args(["--fast", "--seed", "3", "--out"])
        .arg(&kill_dir)
        .arg("--report-json")
        .arg(&kill_json)
        .arg("--resume")
        .arg(kill_dir.join("checkpoint"))
        .args(targets)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("[replayed"), "{stdout}");
    assert_eq!(
        std::fs::read(&ref_json).expect("reference report"),
        std::fs::read(&kill_json).expect("resumed report"),
        "resumed run report differs from uninterrupted run"
    );
    // Every cell is journaled exactly once — the survivors by the killed
    // run, only the rest by the resumed one.
    let ckpt = kill_dir.join("checkpoint");
    let cells = header_cells(&ckpt);
    assert_eq!(journaled_cells(&ckpt), cells);
    assert!(cells.len() - survived < cells.len(), "a resumed sweep re-runs fewer cells than it has");
    assert!(stdout.contains(&format!("resuming from {} ({survived} completed cell(s))", manifest.display())), "{stdout}");
    std::fs::remove_dir_all(&base).ok();
}

/// Resuming against a manifest from a different campaign (other seed,
/// mode, or cell list) is rejected up front, not silently mixed in.
#[test]
fn resume_rejects_mismatched_campaign() {
    let base = std::env::temp_dir().join("ompvar_cli_resume_mismatch");
    std::fs::remove_dir_all(&base).ok();
    let out = repro()
        .args(["--fast", "--seed", "3", "--out"])
        .arg(&base)
        .arg("fig2")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let out = repro()
        .args(["--fast", "--seed", "4", "--out"])
        .arg(&base)
        .arg("--resume")
        .arg(base.join("checkpoint"))
        .arg("fig2")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot resume"), "{stderr}");

    // A journal written before cells were the unit — its header lists
    // experiments — is another campaign too: refused, exit 2, untouched.
    let manifest = base.join("checkpoint").join("manifest.jsonl");
    let text = std::fs::read_to_string(&manifest).expect("manifest");
    let (from, to) = (text.find("\"targets\":[").expect("targets"), text.find("]}").expect("header end"));
    let old = format!("{}\"targets\":[\"fig2\"{}", &text[..from], &text[to..]);
    std::fs::write(&manifest, &old).expect("manifest rewritten");
    let out = repro()
        .args(["--fast", "--seed", "3", "--out"])
        .arg(&base)
        .arg("--resume")
        .arg(base.join("checkpoint"))
        .arg("fig2")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot resume") && stderr.contains("does not match this campaign"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run: {}", String::from_utf8_lossy(&out.stdout));
    assert_eq!(std::fs::read_to_string(&manifest).expect("manifest"), old, "journal untouched");
    std::fs::remove_dir_all(&base).ok();
}

/// Ctrl-C between cells flushes a partial run report — the experiments
/// whose every cell finished — marked `"interrupted": true` and exits
/// with the conventional 130; the checkpoint manifest keeps every cell
/// completed so far.
#[test]
fn sigint_flushes_partial_report_and_exits_130() {
    let base = std::env::temp_dir().join("ompvar_cli_sigint");
    std::fs::remove_dir_all(&base).ok();
    let report = base.join("partial.json");
    let mut child = repro()
        .args(["--fast", "--seed", "3", "--out"])
        .arg(&base)
        .arg("--report-json")
        .arg(&report)
        .args(["fig2", "table2", "fig3", "fig4"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary spawns");
    // Header + fig2's 13 cells: with one worker cells run in order, so
    // fig2 has folded and the sweep is inside table2.
    wait_for_lines(&base.join("checkpoint").join("manifest.jsonl"), 14);
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let status = child.wait().expect("reaped");
    assert_eq!(status.code(), Some(130), "{status:?}");
    let v = parse(&std::fs::read_to_string(&report).expect("partial report written"))
        .expect("partial report parses");
    assert_eq!(v.get("interrupted").and_then(Value::as_bool), Some(true));
    let exps = v.get("experiments").and_then(Value::as_arr).expect("array");
    assert!(!exps.is_empty(), "at least the first experiment is in the partial report");
    assert!(exps.len() < 4, "the sweep must have stopped early");
    std::fs::remove_dir_all(&base).ok();
}

/// The crash matrix, end to end: a multi-worker campaign killed with
/// SIGKILL mid-flight and resumed (still multi-worker) produces a
/// `--report-json` document byte-identical to an uninterrupted
/// single-worker run's — the executor's merge order, not the steal
/// schedule or crash point, determines the report.
#[test]
fn parallel_kill_then_resume_matches_sequential_report() {
    let base = std::env::temp_dir().join("ompvar_cli_par_resume");
    std::fs::remove_dir_all(&base).ok();
    let targets = ["fig2", "table2", "fig4"];

    // Uninterrupted sequential reference.
    let ref_dir = base.join("ref");
    let ref_json = base.join("ref.json");
    let out = repro()
        .args(["--fast", "--seed", "3", "--jobs", "1", "--out"])
        .arg(&ref_dir)
        .arg("--report-json")
        .arg(&ref_json)
        .args(targets)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Uninterrupted on 4 workers: the cells land on other workers in
    // another order, the report does not move.
    let par_json = base.join("par.json");
    let out = repro()
        .args(["--fast", "--seed", "3", "--jobs", "4", "--out"])
        .arg(base.join("par"))
        .arg("--report-json")
        .arg(&par_json)
        .args(targets)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&ref_json).expect("reference report"),
        std::fs::read(&par_json).expect("parallel report"),
        "--jobs 4 report differs from --jobs 1"
    );

    // Same campaign on 3 workers, killed after the first checkpoint.
    let kill_dir = base.join("kill");
    let kill_json = base.join("kill.json");
    let mut child = repro()
        .args(["--fast", "--seed", "3", "--jobs", "3", "--out"])
        .arg(&kill_dir)
        .arg("--report-json")
        .arg(&kill_json)
        .args(targets)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary spawns");
    wait_for_lines(&kill_dir.join("checkpoint").join("manifest.jsonl"), 2);
    child.kill().expect("SIGKILL");
    child.wait().expect("reaped");
    assert_no_tmp_residue(&base);

    // Resume on 3 workers again: journaled units replay from the shard
    // merge, the rest re-run.
    let out = repro()
        .args(["--fast", "--seed", "3", "--jobs", "3", "--out"])
        .arg(&kill_dir)
        .arg("--report-json")
        .arg(&kill_json)
        .arg("--resume")
        .arg(kill_dir.join("checkpoint"))
        .args(targets)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("[replayed"), "{stdout}");
    assert_eq!(
        std::fs::read(&ref_json).expect("reference report"),
        std::fs::read(&kill_json).expect("resumed report"),
        "parallel resumed report differs from sequential uninterrupted run"
    );
    // Across the shard set every cell is journaled exactly once.
    let ckpt = kill_dir.join("checkpoint");
    assert_eq!(journaled_cells(&ckpt), header_cells(&ckpt));
    std::fs::remove_dir_all(&base).ok();
}

/// `--jobs` validation: non-numeric and out-of-range counts are usage
/// errors before anything runs; `--jobs 0` auto-detects and works.
#[test]
fn jobs_flag_is_validated() {
    for bad in [&["--jobs", "three"][..], &["--jobs", "2000"][..], &["--jobs"][..]] {
        let out = repro().args(bad).arg("fig2").output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "args {bad:?}"
        );
    }
    let out_dir = std::env::temp_dir().join("ompvar_cli_jobs_auto");
    let out = repro()
        .args(["--fast", "--jobs", "0", "--out"])
        .arg(&out_dir)
        .arg("fig2")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&out_dir).ok();
}

/// `--unit-timeout` rejects junk, and an impossibly small deadline
/// reaps every attempt: the campaign quarantines the experiment and
/// finishes (exit 1 for the FAIL check) instead of hanging.
#[test]
fn unit_timeout_reaps_and_quarantines_without_hanging() {
    for bad in [&["--unit-timeout", "abc"][..], &["--unit-timeout", "-1"][..]] {
        let out = repro().args(bad).arg("fig2").output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
    }
    let out_dir = std::env::temp_dir().join("ompvar_cli_timeout");
    std::fs::remove_dir_all(&out_dir).ok();
    let out = repro()
        .args([
            "--fast",
            "--seed",
            "3",
            "--unit-timeout",
            "0.000001",
            "--max-retries",
            "1",
            "--out",
        ])
        .arg(&out_dir)
        .arg("fig2")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The campaign must terminate on its own with the quarantine FAIL
    // check — a hung watchdog would trip the harness timeout instead.
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("[quarantined]"), "{stdout}");
    assert!(stdout.contains("[FAIL]"), "{stdout}");
    std::fs::remove_dir_all(&out_dir).ok();
}

/// SIGINT with a multi-worker pool: every worker stops at its next unit
/// boundary, every shard manifest on disk is complete and parseable,
/// and the partial report still lands atomically with exit 130.
#[test]
fn parallel_sigint_flushes_all_shards_and_exits_130() {
    let base = std::env::temp_dir().join("ompvar_cli_par_sigint");
    std::fs::remove_dir_all(&base).ok();
    let report = base.join("partial.json");
    let mut child = repro()
        .args(["--fast", "--seed", "3", "--jobs", "2", "--out"])
        .arg(&base)
        .arg("--report-json")
        .arg(&report)
        .args(["fig2", "table2", "fig3", "fig4"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary spawns");
    wait_for_lines(&base.join("checkpoint").join("manifest.jsonl"), 2);
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let status = child.wait().expect("reaped");
    assert_eq!(status.code(), Some(130), "{status:?}");
    let v = parse(&std::fs::read_to_string(&report).expect("partial report written"))
        .expect("partial report parses");
    assert_eq!(v.get("interrupted").and_then(Value::as_bool), Some(true));
    // Every shard manifest is line-complete JSON: the interrupt flushed
    // them at a unit boundary, never mid-append.
    let ckpt = base.join("checkpoint");
    for shard in [ckpt.join("manifest.jsonl"), ckpt.join("manifest.shard-1.jsonl")] {
        let text = std::fs::read_to_string(&shard)
            .unwrap_or_else(|e| panic!("{}: {e}", shard.display()));
        assert!(text.ends_with('\n'), "torn tail in {}", shard.display());
        for line in text.lines() {
            parse(line).unwrap_or_else(|e| panic!("{}: {e}: {line}", shard.display()));
        }
    }
    assert_no_tmp_residue(&base);
    std::fs::remove_dir_all(&base).ok();
}

/// The fuzz experiment honors `--fuzz-cases` and passes on a small
/// fixed-seed campaign.
#[test]
fn fuzz_smoke_with_case_budget() {
    let out_dir = std::env::temp_dir().join("ompvar_cli_fuzz_test");
    let out = repro()
        .args(["--fuzz-cases", "5", "--seed", "42", "--out"])
        .arg(&out_dir)
        .arg("fuzz")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}\nstdout: {stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("5 differential case(s)"), "{stdout}");
    assert!(stdout.contains("[PASS]"));
    assert!(!stdout.contains("[FAIL]"), "{stdout}");
    assert!(out_dir.join("fuzz_0.csv").exists());
    std::fs::remove_dir_all(&out_dir).ok();

    // Every batch of cases is a cell planned up front, so an absurd
    // budget is a usage error, not an allocation.
    let out = repro().args(["--fuzz-cases", "10000001", "fuzz"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--fuzz-cases 10000001 is out of range"));
}

/// The analyze experiment honors `--lint-json`: the exported document
/// is valid `ompvar-diagnostics/1` JSON covering the benchmark corpus
/// (all clean) plus the two seeded demonstrations — the lock inversion
/// (OMPV110) and the data race (OMPV301/OMPV302).
#[test]
fn analyze_lint_json_exports_diagnostics() {
    let out_dir = std::env::temp_dir().join("ompvar_cli_lint_test");
    std::fs::remove_dir_all(&out_dir).ok();
    let lint = out_dir.join("diagnostics.json");
    let out = repro()
        .args(["--fast", "--seed", "11", "--out"])
        .arg(&out_dir)
        .arg("--lint-json")
        .arg(&lint)
        .arg("analyze")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}\nstdout: {stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("[PASS]"));
    assert!(!stdout.contains("[FAIL]"), "{stdout}");
    assert!(stdout.contains("ompvar-diagnostics/1"), "{stdout}");
    let doc = std::fs::read_to_string(&lint).expect("lint file written");
    let v = parse(&doc).expect("lint JSON parses");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("ompvar-diagnostics/1")
    );
    let programs = v.get("programs").and_then(Value::as_arr).expect("programs");
    // Corpus (≥ 16 specs) + the two demonstrations.
    assert!(programs.len() >= 18, "only {} programs", programs.len());
    let find = |label: &str| {
        programs
            .iter()
            .find(|p| p.get("label").and_then(Value::as_str) == Some(label))
            .unwrap_or_else(|| panic!("{label} missing"))
    };
    let racy = find("demo/data-race");
    assert_eq!(racy.get("clean").and_then(Value::as_bool), Some(false));
    let codes: Vec<&str> = racy
        .get("diagnostics")
        .and_then(Value::as_arr)
        .expect("diagnostics")
        .iter()
        .filter_map(|d| d.get("code").and_then(Value::as_str))
        .collect();
    assert!(codes.contains(&"OMPV301"), "{codes:?}");
    assert!(codes.contains(&"OMPV302"), "{codes:?}");
    let inversion = find("demo/lock-inversion");
    assert_eq!(inversion.get("clean").and_then(Value::as_bool), Some(false));
    // Every corpus program is clean.
    for p in programs {
        let label = p.get("label").and_then(Value::as_str).unwrap_or("?");
        if !label.starts_with("demo/") {
            assert_eq!(
                p.get("clean").and_then(Value::as_bool),
                Some(true),
                "{label} not clean"
            );
        }
    }
    std::fs::remove_dir_all(&out_dir).ok();
}

/// The chaos experiment runs end-to-end from the CLI: exhaustive
/// crash-point exploration, fault injection, process chaos and the
/// leak probe all pass, and the on-disk artifacts show the resumed
/// inner campaign reproduced the uncrashed reference byte-for-byte.
#[test]
fn chaos_smoke_produces_byte_identical_resume_artifacts() {
    let out_dir = std::env::temp_dir().join("ompvar_cli_chaos");
    std::fs::remove_dir_all(&out_dir).ok();
    let out = repro()
        .args(["--fast", "--seed", "7", "--out"])
        .arg(&out_dir)
        .arg("chaos")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}\nstdout: {stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("[PASS]"));
    assert!(!stdout.contains("[FAIL]"), "{stdout}");
    let chaos = out_dir.join("chaos");
    let reference = std::fs::read(chaos.join("reference.json")).expect("reference artifact");
    let resumed = std::fs::read(chaos.join("resumed.json")).expect("resumed artifact");
    assert_eq!(reference, resumed, "crash-resumed inner report differs from reference");
    let trace = std::fs::read_to_string(chaos.join("crash.trace.json")).expect("crash trace");
    assert!(trace.contains("chaos_crash_point"), "{trace}");
    std::fs::remove_dir_all(&out_dir).ok();
}

/// Garbage in a shard manifest is fatal on `--resume` with a message
/// naming the shard file, line number and offending bytes; with
/// `--salvage-corrupt-shards` the shard is quarantined (preserved as
/// `.corrupt`), the campaign completes, and the quarantine lands in
/// the JSON report's `recovery_notes`.
#[test]
fn corrupt_shard_is_fatal_unless_salvaged() {
    let base = std::env::temp_dir().join("ompvar_cli_corrupt_shard");
    std::fs::remove_dir_all(&base).ok();
    let out = repro()
        .args(["--fast", "--seed", "3", "--jobs", "1", "--out"])
        .arg(&base)
        .arg("fig2")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Scribble a garbage line into the completed shard manifest.
    let manifest = base.join("checkpoint").join("manifest.jsonl");
    let lines = std::fs::read_to_string(&manifest).expect("manifest").lines().count();
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&manifest)
            .expect("manifest appends");
        writeln!(f, "{{\"broken").expect("garbage appended");
    }

    // Plain --resume: fatal, exit 2, error names file/line/bytes.
    let out = repro()
        .args(["--fast", "--seed", "3", "--jobs", "1", "--out"])
        .arg(&base)
        .arg("--resume")
        .arg(base.join("checkpoint"))
        .arg("fig2")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("manifest.jsonl"), "{stderr}");
    assert!(stderr.contains(&format!("line {}", lines + 1)), "{stderr}");
    assert!(stderr.contains("{\\\"broken"), "offending bytes missing: {stderr}");

    // --salvage-corrupt-shards: quarantined, campaign completes, and
    // the recovery note reaches the JSON report.
    let report = base.join("salvaged.json");
    let out = repro()
        .args(["--fast", "--seed", "3", "--jobs", "1", "--out"])
        .arg(&base)
        .arg("--resume")
        .arg(base.join("checkpoint"))
        .arg("--salvage-corrupt-shards")
        .arg("--report-json")
        .arg(&report)
        .arg("fig2")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(
        base.join("checkpoint").join("manifest.jsonl.corrupt").exists(),
        "corrupt shard preserved for post-mortem"
    );
    let v = parse(&std::fs::read_to_string(&report).expect("report written"))
        .expect("report parses");
    let notes = v
        .get("recovery_notes")
        .and_then(Value::as_arr)
        .expect("recovery_notes array");
    assert_eq!(notes.len(), 1, "{notes:?}");
    let note = notes[0].as_str().expect("note is a string");
    assert!(note.contains("quarantined corrupt shard manifest"), "{note}");
    assert!(note.contains("manifest.jsonl.corrupt"), "{note}");
    std::fs::remove_dir_all(&base).ok();
}

/// A journaled cell whose payload no longer decodes is replayed by
/// nobody: the control lane warns once, the cell — alone of its
/// experiment — re-runs once, and its fresh sample is journaled once
/// behind the unreadable line.
#[test]
fn unreadable_payload_warns_once_reruns_once_journals_once() {
    let base = std::env::temp_dir().join("ompvar_cli_unreadable_payload");
    std::fs::remove_dir_all(&base).ok();
    let run = |resume: bool| {
        let mut cmd = repro();
        cmd.args(["--fast", "--seed", "3", "--jobs", "1", "--out"]).arg(&base);
        if resume {
            cmd.arg("--resume").arg(base.join("checkpoint"));
        }
        let out = cmd.arg("fig2").output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "stderr: {stderr}");
        (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
    };
    run(false);

    // Swap the first journaled sample for a payload `Sample` cannot read.
    let manifest = base.join("checkpoint").join("manifest.jsonl");
    let text = std::fs::read_to_string(&manifest).expect("manifest");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let unit = lines[1].clone();
    let cut = unit.find("\"payload\":").expect("unit line carries a payload");
    let alien = format!("{}\"payload\":{{\"alien\":true}}}}", &unit[..cut]);
    lines[1] = alien.clone();
    std::fs::write(&manifest, format!("{}\n", lines.join("\n"))).expect("manifest rewritten");

    let (stdout, stderr) = run(true);
    let warning = "checkpoint payload for fig2/Dardel-2/0 is unreadable; re-running";
    assert_eq!(stderr.matches(warning).count(), 1, "{stderr}");
    assert_eq!(stdout.matches("==== fig2 ====").count(), 1, "{stdout}");
    assert!(stdout.contains("[replayed 12 of 13 cells from checkpoint]"), "{stdout}");
    let text = std::fs::read_to_string(&manifest).expect("manifest");
    let after: Vec<&str> = text.lines().collect();
    assert_eq!(after.len(), lines.len() + 1, "the journal gains one fresh line: {text}");
    assert_eq!(after[1], alien);
    assert_eq!(*after.last().unwrap(), unit, "the re-run journals what the first run did");
    std::fs::remove_dir_all(&base).ok();
}

/// The usage text enumerates the registry, in registry order — there is
/// no second list of experiment names to drift from it.
#[test]
fn usage_enumerates_the_registry_in_order() {
    let out = repro().output().expect("binary runs");
    let names: Vec<&str> = ompvar_harness::EXPERIMENTS.iter().map(|e| e.name).collect();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("<{}|all>", names.join("|"))), "{stderr}");
}

/// Regression (PR 13), restated: a sweep killed before `campaign` and
/// `variability` began has no `campaign.jsonl` in the `--resume`
/// directory and none of `variability`'s cells in its manifest. The
/// resumed inner campaign must *create* its journal and journal every
/// unit (it used to claim it did), and a further resume must replay
/// every unit from it; `variability` has no journal of its own — its
/// runs are cells of the sweep, journaled exactly once across the
/// `manifest*.jsonl` shards, and nothing writes `variability.jsonl`.
#[test]
fn resumed_inner_campaigns_create_and_then_replay_their_journals() {
    let base = std::env::temp_dir().join("ompvar_cli_inner_journal");
    std::fs::remove_dir_all(&base).ok();
    let ckpt = base.join("checkpoint");
    let run = |resume: bool| {
        let mut cmd = repro();
        cmd.args(["--fast", "--seed", "3", "--jobs", "1", "--out"]).arg(&base);
        if resume {
            cmd.arg("--resume").arg(&ckpt);
        }
        let out = cmd.args(["fig2", "variability", "campaign"]).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "stderr: {stderr}");
        (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
    };
    // What a kill right after fig2's last cell leaves behind: the
    // sweep's manifest holds the header and fig2's 13 cells, and the
    // inner campaign has no journal yet.
    let rewind = |drop_inner_journal: bool| {
        let manifest = ckpt.join("manifest.jsonl");
        let text = std::fs::read_to_string(&manifest).expect("manifest");
        let kept: Vec<&str> = text.lines().take(14).collect();
        assert!(kept[1..].iter().all(|l| l.contains("\"name\":\"fig2/")), "{text}");
        std::fs::write(&manifest, format!("{}\n", kept.join("\n"))).expect("manifest rewound");
        if drop_inner_journal {
            for e in std::fs::read_dir(&ckpt).expect("checkpoint dir").filter_map(Result::ok) {
                if e.file_name().to_string_lossy().starts_with("campaign") {
                    std::fs::remove_file(e.path()).expect("inner artifact removed");
                }
            }
        }
    };
    let campaign_journal = || {
        let text = std::fs::read_to_string(ckpt.join("campaign.jsonl")).expect("campaign.jsonl");
        let mut lines = text.lines();
        let header = parse(lines.next().expect("header line")).expect("header parses");
        assert_eq!(header.get("schema").and_then(Value::as_str), Some("ompvar-checkpoint/1"));
        let targets: Vec<String> = header
            .get("targets")
            .and_then(Value::as_arr)
            .expect("targets")
            .iter()
            .map(|t| t.as_str().expect("target name").to_string())
            .collect();
        let units: Vec<String> = lines
            .map(|l| parse(l).expect("unit line parses"))
            .map(|u| u.get("name").and_then(Value::as_str).expect("unit name").to_string())
            .collect();
        assert_eq!(units, targets, "one entry per unit, in unit order");
        assert_eq!(units.len(), 4);
        text
    };
    // `variability`'s runs are the sweep's cells: each journaled once
    // in the sweep's own shards, and in no journal of its own.
    let variability_cells_journaled_once = || {
        let cells = journaled_cells(&ckpt);
        assert_eq!(cells, header_cells(&ckpt));
        assert_eq!(cells.iter().filter(|c| c.starts_with("variability/")).count(), 48, "{cells:?}");
        for e in std::fs::read_dir(&ckpt).expect("checkpoint dir").filter_map(Result::ok) {
            let name = e.file_name().to_string_lossy().into_owned();
            assert!(!name.starts_with("variability"), "{name}: variability keeps no journal");
        }
    };

    run(false);
    variability_cells_journaled_once();
    let reference = std::fs::read(base.join("variability.json")).expect("variability.json");
    rewind(true);

    // First resume: the inner journal is absent → created and filled,
    // nothing degraded; variability's cells re-run into the manifest.
    let (stdout, stderr) = run(true);
    let replayed = "(fig2 took 0.0s busy in 13 cells, 0.0s wall [replayed from checkpoint])";
    assert!(stdout.contains(replayed), "{stdout}");
    assert!(!stderr.contains("unjournaled"), "{stderr}");
    let cam_journal = campaign_journal();
    variability_cells_journaled_once();
    assert_eq!(std::fs::read(base.join("variability.json")).unwrap(), reference);

    // Second resume: `campaign` runs again (the sweep's manifest is
    // rewound once more) but every one of its units replays — its
    // journal gains no line — to byte-identical artifacts.
    rewind(false);
    let (_, stderr) = run(true);
    assert!(!stderr.contains("unjournaled"), "{stderr}");
    assert_eq!(campaign_journal(), cam_journal, "a replayed unit is not re-journaled");
    variability_cells_journaled_once();
    assert_eq!(std::fs::read(base.join("variability.json")).unwrap(), reference);
    let trace = std::fs::read_to_string(ckpt.join("campaign.trace.json")).expect("campaign trace");
    assert_eq!(trace.matches("\"supervisor_resume\"").count(), 4, "{trace}");
    std::fs::remove_dir_all(&base).ok();
}

/// A fuzz campaign is resumable per batch: killed at `--jobs 2` once
/// two case-batch cells are journaled, `--resume` replays the journaled
/// batches, re-runs strictly fewer than the campaign has, journals each
/// cell exactly once and reports what an unkilled `--jobs 1` run does.
#[test]
fn killed_fuzz_campaign_resumes_per_batch() {
    let base = std::env::temp_dir().join("ompvar_cli_fuzz_resume");
    std::fs::remove_dir_all(&base).ok();
    let fuzz = |jobs: &str, out: &std::path::Path| {
        let mut cmd = repro();
        cmd.args(["fuzz", "--fuzz-cases", "3000", "--seed", "42", "--jobs", jobs, "--out"]).arg(out);
        cmd
    };
    let is_batch = |cell: &str| cell.strip_prefix("fuzz/").is_some_and(|k| k.parse::<u64>().is_ok());
    let ref_dir = base.join("ref");
    let out = fuzz("1", &ref_dir).output().expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let kill_dir = base.join("kill");
    let ckpt = kill_dir.join("checkpoint");
    let mut child = fuzz("2", &kill_dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary spawns");
    // Complete journal lines of batch cells, across both shards; the
    // process is appending, so the last line of a shard may be torn.
    let journaled_batches = || -> usize {
        let shards = std::fs::read_dir(&ckpt).into_iter().flatten().filter_map(Result::ok);
        let complete = |text: String| {
            let lines = text.split_inclusive('\n').filter(|l| l.ends_with('\n'));
            lines.filter(|l| parse(l).is_ok_and(|u| u.get("name").and_then(Value::as_str).is_some_and(is_batch))).count()
        };
        shards.filter_map(|e| std::fs::read_to_string(e.path()).ok()).map(complete).sum()
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while journaled_batches() < 2 {
        assert!(std::time::Instant::now() < deadline, "two batches never journaled");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reaped");
    let survived = journaled_batches();

    let out = fuzz("2", &kill_dir).arg("--resume").arg(&ckpt).output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let cells = header_cells(&ckpt);
    assert_eq!(journaled_cells(&ckpt), cells, "every cell journaled exactly once");
    let planned = cells.iter().filter(|c| is_batch(c)).count();
    assert_eq!(planned, 3000usize.div_ceil(32));
    assert!(survived >= 2 && planned - survived < planned, "{survived} of {planned} batches survived");
    assert!(stdout.contains("cells from checkpoint]") || stdout.contains("[replayed from checkpoint]"), "{stdout}");
    assert!(stdout.contains("3000 differential case(s)") && !stdout.contains("[FAIL]"), "{stdout}");
    assert_eq!(
        std::fs::read(ref_dir.join("fuzz_0.csv")).expect("reference CSV"),
        std::fs::read(kill_dir.join("fuzz_0.csv")).expect("resumed CSV"),
        "resumed fuzz_0.csv differs from an unkilled --jobs 1 run"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// Run `cmd` to completion with stdout discarded and stderr captured;
/// a child still alive after `secs` is killed and reported as a hang.
fn run_within(mut cmd: Command, secs: u64) -> std::process::Output {
    use std::process::Stdio;
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
    while child.try_wait().expect("child polls").is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{cmd:?} still running after {secs} s");
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    child.wait_with_output().expect("child reaped")
}

mod hostile_argv {
    use super::{repro, run_within};
    use proptest::prelude::*;
    use std::ffi::OsString;

    /// Elements the parser accepts: every flag of the vocabulary with a
    /// value it takes — numbers at their bounds — and experiment names.
    const WELL_FORMED: &[&[&str]] = &[
        &["--fast"],
        &["--attr"],
        &["--chaos-proc"],
        &["--salvage-corrupt-shards"],
        &["--seed", "0"],
        &["--seed", "18446744073709551615"],
        &["--chaos-seed", "18446744073709551615"],
        &["--out", "ompvar_hostile_argv_out"],
        &["--out", "--fast"],
        &["--trace", "t.json"],
        &["--lint-json", "l.json"],
        &["--report-json", "r.json"],
        &["--resume", "ompvar_hostile_argv_no_such_dir"],
        &["--max-retries", "0"],
        &["--max-retries", "4294967295"],
        &["--jobs", "0"],
        &["--jobs", "1024"],
        &["--fuzz-cases", "0"],
        &["--fuzz-cases", "10000000"],
        &["--unit-timeout", "1e-9"],
        &["--unit-timeout", "1e19"],
        &["table2"],
        &["fuzz"],
        &["all"],
    ];

    /// Elements the parser must refuse wherever they stand: numbers
    /// past each bound or not numbers at all, unknown flags, targets
    /// that are no experiment.
    const MALFORMED: &[&[&str]] = &[
        &["--jobs", "1025"],
        &["--jobs", "-1"],
        &["--jobs", "18446744073709551616"],
        &["--jobs", "two"],
        &["--jobs", ""],
        &["--fuzz-cases", "10000001"],
        &["--fuzz-cases", "-5"],
        &["--fuzz-cases", "1e3"],
        &["--unit-timeout", "0"],
        &["--unit-timeout", "nan"],
        &["--unit-timeout", "-1"],
        &["--unit-timeout", "inf"],
        &["--unit-timeout", "1e300"],
        &["--unit-timeout", "soon"],
        &["--seed", "18446744073709551616"],
        &["--seed", "-1"],
        &["--seed", "0x10"],
        &["--chaos-seed", "seed"],
        &["--max-retries", "4294967296"],
        &["--max-retries", "-1"],
        &["--frobnicate"],
        &["--jobs=2"],
        &["--"],
        &["-"],
        &["-x"],
        &["--FAST"],
        &["--stability-cov", "0.1"],
        &["fig99"],
        &["ALL"],
        &["all "],
        &[""],
        &["\u{feff}table2"],
        &["table2\n"],
        &["\u{1F600}"],
    ];

    /// Flags that take a value: malformed when they close the argv.
    const VALUED: &[&str] = &[
        "--seed", "--out", "--fuzz-cases", "--trace", "--lint-json", "--report-json", "--resume",
        "--max-retries", "--jobs", "--unit-timeout", "--chaos-seed",
    ];

    fn os(words: &[&str]) -> Vec<OsString> {
        words.iter().map(OsString::from).collect()
    }

    /// The malformed element `pick` selects, and whether it must stand
    /// last (a flag missing its value).
    fn malformed(pick: u64) -> (Vec<OsString>, bool) {
        let n = (MALFORMED.len() + VALUED.len() + 2) as u64;
        let k = (pick % n) as usize;
        if let Some(words) = MALFORMED.get(k) {
            return (os(words), false);
        }
        if let Some(flag) = VALUED.get(k - MALFORMED.len()) {
            return (os(&[flag]), true);
        }
        // Bytes that are not UTF-8, as a target and as a flag's value.
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let junk = OsString::from_vec(vec![0xff, 0xfe, b'f', 0x80]);
            if k == MALFORMED.len() + VALUED.len() {
                (vec![junk], false)
            } else {
                (vec![OsString::from("--seed"), junk], false)
            }
        }
        #[cfg(not(unix))]
        (os(&["--frobnicate"]), false)
    }

    fn assert_usage_error(argv: &[OsString]) -> Result<(), TestCaseError> {
        let mut cmd = repro();
        cmd.args(argv);
        let out = run_within(cmd, 20);
        let stderr = String::from_utf8_lossy(&out.stderr);
        prop_assert_eq!(out.status.code(), Some(2), "argv {:?}: {}", argv, stderr);
        prop_assert!(stderr.contains("usage:"), "argv {:?}: {}", argv, stderr);
        Ok(())
    }

    /// Every malformed element once, beside an otherwise runnable sweep.
    #[test]
    fn every_malformed_element_is_a_usage_error() {
        for k in 0..(MALFORMED.len() + VALUED.len() + 2) as u64 {
            let (element, _) = malformed(k);
            let argv = [os(&["--fast", "fig2"]), element].concat();
            assert_usage_error(&argv).unwrap_or_else(|e| panic!("{e:?}"));
        }
    }

    proptest! {
        /// Whatever surrounds it, one malformed element makes the whole
        /// command line a usage error before anything runs: exit code 2
        /// and a `usage:` line — never a panic (101), never a hang.
        #[test]
        fn a_malformed_element_anywhere_is_a_usage_error(
            picks in prop::collection::vec(any::<u64>(), 0..7),
            bad in any::<u64>(),
            at in any::<u64>(),
        ) {
            let mut argv: Vec<Vec<OsString>> = picks
                .iter()
                .map(|p| os(WELL_FORMED[(*p % WELL_FORMED.len() as u64) as usize]))
                .collect();
            let (element, last) = malformed(bad);
            let at = if last { argv.len() } else { (at % (argv.len() as u64 + 1)) as usize };
            argv.insert(at, element);
            assert_usage_error(&argv.concat())?;
        }
    }
}

/// Census tool for the any-seed item of ROADMAP.md, not a check: run
/// the whole `--fast` sweep at seeds 1..=10 and print, per claim, how
/// many seeds pass, its smallest margin (and that seed), its first
/// quartile and its median margin, nearest the boundary first; per plain
/// check, how many seeds pass and the detail line of the first failure.
/// `cargo test -p ompvar-harness --test cli seed_census -- --ignored --nocapture`
#[test]
#[ignore = "several minutes; prints a table, asserts nothing about the shapes"]
fn seed_census() {
    census("seeds 1..=10", &(1..=10).collect::<Vec<u64>>());
}

/// [`seed_census`] at seeds `k · 2^32`, k = 1..=20. Runs derive their
/// seeds additively from the user seed (`seed + i`), so the seeds
/// 1..=10 share most of their runs; these share none.
#[test]
#[ignore = "several minutes; prints a table, asserts nothing about the shapes"]
fn seed_census_disjoint() {
    census("seeds k·2^32, k = 1..=20", &(1..=20).map(|k| k << 32).collect::<Vec<u64>>());
}

fn census(label: &str, seeds: &[u64]) {
    let base = std::env::temp_dir()
        .join(format!("ompvar_seed_census_{}_{}", std::process::id(), seeds[0]));
    /// One shape check's record over the seeds, in first-seen order.
    struct Tally {
        exp: String,
        check: String,
        passes: usize,
        first_failure: Option<String>,
        /// `(margin, seed)` for every seed at which the check was a
        /// claim with a margin, ascending once the sweep is done.
        margins: Vec<(f64, u64)>,
    }
    let mut census: Vec<Tally> = Vec::new();
    for &seed in seeds {
        let out_dir = base.join(seed.to_string());
        let report = out_dir.join("report.json");
        let out = repro()
            .args(["all", "--fast", "--jobs", "2", "--seed", &seed.to_string(), "--out"])
            .arg(&out_dir)
            .arg("--report-json")
            .arg(&report)
            .output()
            .expect("binary runs");
        assert!(matches!(out.status.code(), Some(0 | 1)), "seed {seed}: {:?}", out.status);
        let doc = parse(&std::fs::read_to_string(&report).expect("report written")).expect("parses");
        for exp in doc.get("experiments").and_then(Value::as_arr).expect("experiments") {
            let exp_name = exp.get("name").and_then(Value::as_str).expect("name");
            for check in exp.get("checks").and_then(Value::as_arr).expect("checks") {
                let text = |key| check.get(key).and_then(Value::as_str).expect("text");
                let seen = census.iter().position(|t| t.exp == exp_name && t.check == text("name"));
                let i = seen.unwrap_or_else(|| {
                    census.push(Tally {
                        exp: exp_name.to_string(),
                        check: text("name").to_string(),
                        passes: 0,
                        first_failure: None,
                        margins: Vec::new(),
                    });
                    census.len() - 1
                });
                if let Some(m) = check.get("margin").and_then(Value::as_f64) {
                    census[i].margins.push((m, seed));
                }
                if check.get("passed").and_then(Value::as_bool).expect("passed") {
                    census[i].passes += 1;
                } else if census[i].first_failure.is_none() {
                    census[i].first_failure = Some(format!("seed {seed}: {}", text("detail")));
                }
            }
        }
    }
    println!("census over {label}");
    let seeds = seeds.len();
    for t in &mut census {
        t.margins.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    let (mut claims, plain): (Vec<&Tally>, Vec<&Tally>) =
        census.iter().partition(|t| !t.margins.is_empty());
    claims.sort_by(|a, b| a.margins[0].0.total_cmp(&b.margins[0].0));
    println!(
        "claims, nearest their boundary first (passes, min margin @ seed, q1 margin, median margin):"
    );
    for t in claims {
        let (ms, n) = (&t.margins, t.margins.len());
        let median = (ms[(n - 1) / 2].0 + ms[n / 2].0) / 2.0;
        let q1 = ms[(n - 1) / 4].0;
        let (min, at) = ms[0];
        println!(
            "{:>2}/{seeds}  {min:+.4} @ {at:<11}  {q1:+.4}  {median:+.4}  {}: {}",
            t.passes, t.exp, t.check
        );
    }
    println!("plain checks:");
    for t in plain {
        println!("{:>2}/{seeds}  {}: {}", t.passes, t.exp, t.check);
        if let Some(detail) = &t.first_failure {
            println!("       first failure — {detail}");
        }
    }
    let green = census.iter().filter(|t| t.passes == seeds).count();
    println!("{green} of {} checks pass at every seed", census.len());
    std::fs::remove_dir_all(&base).ok();
}
