//! The `analyze` experiment: the static analyzer over the built-in
//! benchmark corpus, plus a flagged-program demonstration.
//!
//! Two jobs:
//!
//! 1. **Corpus hygiene.** Every region spec the spec-driven experiments
//!    run — syncbench's ten constructs, schedbench's paper schedules,
//!    BabelStream's kernel sweep, taskbench's two patterns — must
//!    analyze *clean*: no diagnostic at `Warn` or above. A warning here
//!    means a harness experiment would measure a program with a latent
//!    hazard, poisoning the variability data it reports.
//! 2. **Detection demonstration.** A textbook lock-order inversion
//!    (AB/BA across two `Locked` scopes) must be flagged `OMPV110`
//!    (may-deadlock) while still passing `validate()` — showing the
//!    Warn tier catches what the hard error tier deliberately admits.
//!    A second demonstration does the same for the data-race pass: a
//!    clause-annotated program with an unprotected shared write and a
//!    read across an open `nowait` window must be flagged `OMPV301`
//!    (write/write race) *and* `OMPV302` (nowait read/write race).
//!
//! With `--lint-json PATH` the experiment also emits every analyzed
//! program's full diagnostic list as a machine-readable
//! `ompvar-diagnostics/1` JSON document (corpus + both demonstrations),
//! for CI gating and external tooling.

use crate::common::{Check, ExpOptions, ExpReport};
use ompvar_analyze::{analyze, Analysis, Severity};
use ompvar_bench_epcc::taskbench::{self, TaskPattern};
use ompvar_bench_epcc::{schedbench, syncbench, EpccConfig};
use ompvar_bench_epcc::syncbench::SyncConstruct;
use ompvar_bench_stream::kernels::StreamConfig;
use ompvar_core::Table;
use ompvar_rt::region::{Clause, Construct, RegionSpec, Schedule, VarDecl, WriteOp};

/// The corpus: every built-in benchmark region spec, labeled —
/// syncbench's ten constructs, schedbench's paper schedules,
/// BabelStream's kernel sweep and taskbench's two patterns, in that
/// order.
fn corpus(opts: &ExpOptions) -> Vec<(String, RegionSpec)> {
    let n = 4; // representative small team; analysis is team-size-uniform
    let reps = opts.outer_reps().min(8);
    let sync_cfg = EpccConfig::syncbench_default().fast(reps);
    let sched_cfg = EpccConfig::schedbench_default().fast(reps);
    let sync = SyncConstruct::ALL.map(|c| {
        let spec = syncbench::region_with_inner(&sync_cfg, c, n, 4);
        (format!("syncbench/{}", c.label()), spec)
    });
    let sched = schedbench::paper_schedules()
        .into_iter()
        .map(|s| (format!("schedbench/{s:?}"), schedbench::region(&sched_cfg, s, n)));
    let stream = ompvar_bench_stream::region(&StreamConfig::small(), n);
    let task = TaskPattern::ALL.map(|p| {
        let spec = taskbench::region(&sync_cfg, p, n, 2);
        (format!("taskbench/{}", p.label()), spec)
    });
    sync.into_iter()
        .chain(sched)
        .chain([("stream/kernel-sweep".to_string(), stream)])
        .chain(task)
        .collect()
}

/// The flagged-program demonstration: AB then BA acquisition order over
/// two named locks — valid (Warn, not Error), but may-deadlock.
pub fn lock_inversion_demo() -> RegionSpec {
    RegionSpec::new(
        2,
        vec![
            Construct::Locked {
                lock: 0,
                body: vec![Construct::Locked {
                    lock: 1,
                    body: vec![Construct::DelayUs(0.5)],
                }],
            },
            Construct::Barrier,
            Construct::Locked {
                lock: 1,
                body: vec![Construct::Locked {
                    lock: 0,
                    body: vec![Construct::DelayUs(0.5)],
                }],
            },
        ],
    )
    .expect("a lock cycle is Warn-severity: the spec still validates")
}

/// The data-race demonstration: a shared variable written without any
/// lock (write/write race, `OMPV301`) and then read while a `nowait`
/// loop's completion window is still open (`OMPV302`). Valid — races
/// are Warn-severity — but flagged by the clause-aware race pass, so
/// the fuzz oracle would run it sim-only.
pub fn data_race_demo() -> RegionSpec {
    RegionSpec::with_vars(
        4,
        vec![VarDecl {
            id: 0,
            name: "sum".into(),
            clause: Clause::Shared,
            init: 0,
        }],
        vec![
            Construct::VarWrite {
                var: 0,
                op: WriteOp::Add(1),
            },
            Construct::ParallelFor {
                schedule: Schedule::Static { chunk: 1 },
                total_iters: 8,
                body_us: 0.2,
                ordered_us: None,
                nowait: true,
            },
            Construct::VarRead { var: 0 },
            Construct::Barrier,
        ],
    )
    .expect("data races are Warn-severity: the spec still validates")
}

/// Render analyzed programs as an `ompvar-diagnostics/1` JSON document:
/// one entry per program, each diagnostic with its stable code, short
/// name, severity label, construct-path span, and message. Stable field
/// order through [`ompvar_obs::json::Writer`], one program and one
/// diagnostic per line, so the output is byte-reproducible and parses
/// with [`ompvar_obs::json::parse`].
pub fn lint_json_doc(programs: &[(String, Analysis)]) -> String {
    let mut w = ompvar_obs::json::Writer::new();
    w.begin_obj().key("schema").str("ompvar-diagnostics/1").key("programs").begin_arr();
    for (label, a) in programs {
        w.brk("\n").begin_obj().key("label").str(label);
        w.key("clean").bool(a.verdict().is_empty()).key("diagnostics").begin_arr();
        for d in &a.diagnostics {
            w.brk("\n ").begin_obj();
            w.key("code").str(d.code.code()).key("name").str(d.code.name());
            w.key("severity").str(d.severity().label()).key("span").str(&d.span.to_string());
            w.key("message").str(&d.message).end_obj();
        }
        w.end_arr().end_obj();
    }
    w.ws("\n").end_arr().end_obj().ws("\n");
    w.finish()
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let corpus = corpus(opts);
    let mut t = Table::new(
        &format!("Static analysis over {} built-in benchmark region(s)", corpus.len()),
        &["spec", "constructs", "diagnostics", "verdict"],
    );
    let mut dirty: Vec<String> = Vec::new();
    let mut analyzed: Vec<(String, Analysis)> = Vec::new();
    for (label, spec) in &corpus {
        let a = analyze(spec);
        let verdict: Vec<&str> = a.verdict().iter().map(|c| c.code()).collect();
        let verdict = if verdict.is_empty() {
            "clean".to_string()
        } else {
            verdict.join(" ")
        };
        if a.max_severity() >= Some(Severity::Warn) {
            dirty.push(format!("{label}: {}", a.render()));
        }
        t.row(&[
            label.clone(),
            spec.constructs.len().to_string(),
            a.diagnostics.len().to_string(),
            verdict,
        ]);
        analyzed.push((label.clone(), a));
    }

    let mut checks = Vec::new();
    checks.push(Check::new(
        "every built-in benchmark region analyzes clean",
        dirty.is_empty(),
        if dirty.is_empty() {
            format!("{} spec(s), no Warn-or-worse diagnostics", corpus.len())
        } else {
            dirty.join("; ")
        },
    ));

    let demo = lock_inversion_demo();
    let a = analyze(&demo);
    let flagged = a.may_deadlock() && a.verdict().iter().any(|c| c.code() == "OMPV110");
    checks.push(Check::new(
        "analyzer flags the AB/BA lock-order inversion as may-deadlock",
        flagged && demo.validate().is_ok(),
        a.render().replace('\n', "; "),
    ));
    analyzed.push(("demo/lock-inversion".to_string(), a));

    let racy = data_race_demo();
    let a = analyze(&racy);
    let has = |code: &str| a.verdict().iter().any(|c| c.code() == code);
    checks.push(Check::new(
        "race pass flags the seeded racy program OMPV301 + OMPV302",
        a.may_race() && has("OMPV301") && has("OMPV302") && racy.validate().is_ok(),
        a.render().replace('\n', "; "),
    ));
    analyzed.push(("demo/data-race".to_string(), a));

    if let Some(path) = &opts.lint_json {
        let doc = lint_json_doc(&analyzed);
        let wrote = ompvar_supervisor::atomic_write(path, doc.as_bytes());
        checks.push(Check::new(
            "diagnostics exported as ompvar-diagnostics/1 JSON",
            wrote.is_ok(),
            match wrote {
                Ok(()) => format!(
                    "{} program(s), {} diagnostic(s) → {}",
                    analyzed.len(),
                    analyzed.iter().map(|(_, a)| a.diagnostics.len()).sum::<usize>(),
                    path.display()
                ),
                Err(e) => format!("write {} failed: {e}", path.display()),
            },
        ));
    }

    // The Error tier and `validate()` must be the same surface: a
    // statically rejected program's first Error diagnostic is exactly
    // the one `validate()` returns.
    let bad = RegionSpec {
        n_threads: 2,
        vars: Vec::new(),
        constructs: vec![Construct::Repeat {
            count: 3,
            body: vec![Construct::ParallelFor {
                schedule: ompvar_rt::region::Schedule::Static { chunk: 1 },
                total_iters: 8,
                body_us: 0.1,
                ordered_us: None,
                nowait: true,
            }],
        }],
    };
    let a = analyze(&bad);
    let agree = matches!((a.first_error(), bad.validate()), (Some(d), Err(e)) if *d == *e);
    checks.push(Check::new(
        "Error-severity diagnostics and validate() agree",
        agree,
        a.first_error()
            .map(|d| d.render())
            .unwrap_or_else(|| "no error diagnostic".to_string()),
    ));

    ExpReport::new("analyze", vec![t], checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_experiment_passes() {
        let rep = run(&ExpOptions::fast());
        assert!(rep.all_passed(), "{}", rep.render());
    }

    /// Table-driven hygiene over the full deduplicated corpus: every
    /// built-in benchmark spec must carry zero race diagnostics — the
    /// race pass runs on every program, clause-annotated or not, and a
    /// false positive here would demote a measurement program to
    /// sim-only in the fuzz oracle.
    #[test]
    fn full_corpus_is_race_clean_spec_by_spec() {
        let specs = corpus(&ExpOptions::fast());
        assert!(specs.len() >= 16, "corpus shrank to {} specs", specs.len());
        for (label, spec) in specs {
            let a = analyze(&spec);
            assert!(!a.may_race(), "{label} race-flagged:\n{}", a.render());
            assert!(
                a.verdict().is_empty(),
                "{label} is not clean:\n{}",
                a.render()
            );
        }
    }

    #[test]
    fn data_race_demo_is_flagged_but_valid() {
        let demo = data_race_demo();
        assert!(demo.validate().is_ok());
        let a = analyze(&demo);
        let codes: Vec<&str> = a.verdict().iter().map(|c| c.code()).collect();
        assert!(codes.contains(&"OMPV301"), "{}", a.render());
        assert!(codes.contains(&"OMPV302"), "{}", a.render());
        assert!(a.may_race());
    }

    #[test]
    fn lint_json_doc_is_valid_and_complete() {
        use ompvar_obs::json::{parse, Value};
        let programs = vec![
            ("demo/clean".to_string(), analyze(&lock_inversion_demo())),
            ("demo/racy \"q\"".to_string(), analyze(&data_race_demo())),
        ];
        let doc = lint_json_doc(&programs);
        assert_eq!(doc, lint_json_doc(&programs), "not reproducible");
        let v = parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("ompvar-diagnostics/1")
        );
        let progs = v.get("programs").and_then(Value::as_arr).unwrap();
        assert_eq!(progs.len(), 2);
        assert_eq!(
            progs[1].get("label").and_then(Value::as_str),
            Some("demo/racy \"q\"")
        );
        assert_eq!(progs[1].get("clean").and_then(Value::as_bool), Some(false));
        let diags = progs[1].get("diagnostics").and_then(Value::as_arr).unwrap();
        assert!(!diags.is_empty());
        for d in diags {
            for field in ["code", "name", "severity", "span", "message"] {
                assert!(d.get(field).and_then(Value::as_str).is_some(), "{field}");
            }
        }
        assert!(diags
            .iter()
            .any(|d| d.get("code").and_then(Value::as_str) == Some("OMPV301")));
    }

    /// Bytes pinned from the emitter this one replaced, layout
    /// whitespace included.
    #[test]
    fn lint_json_doc_hostile_fixture_bytes_are_pinned() {
        let hostile = "q\"b\\s\n\u{1}\u{2028}\u{1f600}";
        let clean = RegionSpec { n_threads: 2, vars: Vec::new(), constructs: Vec::new() };
        let programs = vec![
            (hostile.to_string(), analyze(&lock_inversion_demo())),
            ("clean".to_string(), analyze(&clean)),
        ];
        let doc = lint_json_doc(&programs);
        assert_eq!(doc, "{\"schema\":\"ompvar-diagnostics/1\",\"programs\":[\n{\"label\":\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\",\"clean\":false,\"diagnostics\":[\n {\"code\":\"OMPV110\",\"name\":\"lock-cycle\",\"severity\":\"warn\",\"span\":\"region\",\"message\":\"lock acquisition order forms a cycle (lock 0 → lock 1 → lock 0): concurrent threads taking different branches of the cycle may deadlock\"},\n {\"code\":\"OMPV201\",\"name\":\"serial-bottleneck\",\"severity\":\"info\",\"span\":\"region\",\"message\":\"predicted serialized work (2.00 µs) exceeds parallelizable work (0.00 µs) for 2 threads: contention will dominate variability\"}]},\n{\"label\":\"clean\",\"clean\":true,\"diagnostics\":[]}\n]}\n");
        ompvar_obs::json::parse(&doc).expect("valid JSON");
        assert_eq!(lint_json_doc(&[]), "{\"schema\":\"ompvar-diagnostics/1\",\"programs\":[\n]}\n");
    }

    #[test]
    fn lint_json_option_writes_the_document() {
        use ompvar_obs::json::parse;
        let dir = std::env::temp_dir().join(format!(
            "ompvar-lint-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("diagnostics.json");
        let opts = ExpOptions {
            lint_json: Some(path.clone()),
            ..ExpOptions::fast()
        };
        let rep = run(&opts);
        assert!(rep.all_passed(), "{}", rep.render());
        let doc = std::fs::read_to_string(&path).expect("lint file written");
        assert!(parse(&doc).is_ok(), "file is not valid JSON");
        assert!(doc.contains("ompvar-diagnostics/1"));
        assert!(doc.contains("OMPV301"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
