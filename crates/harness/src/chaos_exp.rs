//! The `chaos` experiment: deterministic fault injection, exhaustive
//! crash-point exploration, and process chaos, end to end.
//!
//! A small *inner* campaign — a handful of tiny simulated schedbench
//! measurements, journaled through the supervisor's checkpoint manifest
//! — runs repeatedly under the [`ompvar_supervisor::chaos`] I/O shim:
//!
//! 1. **Reference + write census**: one clean journaled run inside a
//!    fault-free chaos scope counts every write op (header, per-unit
//!    journal appends, final report) and renders the reference report
//!    document.
//! 2. **Exhaustive crash-point exploration**: for *every* write op `i`,
//!    the campaign re-runs with "crash after write `i`" armed (and
//!    again with "crash during write `i`", which tears op `i` at half
//!    its bytes). The shim freezes the disk at the crash point; the
//!    campaign's cancel flag stops workers at unit boundaries, modelling
//!    a dead process. The journal is then resumed chaos-free and the
//!    re-rendered report must equal the reference **byte for byte** —
//!    for every single crash point. Phases 1–2 are one function,
//!    `explore`, which the `fuzz` experiment's oracle #13 runs too.
//! 3. **Transient vs permanent faults**: an injected EIO on a journal
//!    append must be retried and land (no degradation); an injected
//!    ENOSPC must classify permanent, degrade gracefully (result kept in
//!    memory, recovery note recorded), and still resume to the
//!    reference document.
//! 4. **Seeded fault storms replay**: a 25 %-per-op random fault plan
//!    run twice from the same chaos seed injects the same faults and
//!    produces bit-identical reports.
//! 5. **Process chaos**: seeded worker kills, attempt panics and stalls
//!    ([`ompvar_supervisor::ProcChaos`]) on a 2-worker pool replay
//!    bit-identically from the chaos seed, with every unit still
//!    reaching a terminal state.
//! 6. **Leak accounting**: a deliberately wedged unit reaped at its
//!    deadline leaves exactly one leaked attempt thread, and the
//!    campaign reports it.
//!
//! Artifacts under `<out_dir>/chaos/`: `reference.json` and
//! `resumed.json` (CI diffs them byte-for-byte) and `crash.trace.json`,
//! the supervisor trace of one explored crash point with the
//! `chaos_crash_point` instant marked.

use crate::common::{
    executor_config, run_journaled, Campaign, Check, ExpOptions, ExpReport, Platform,
};
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_core::Table;
use ompvar_obs::event::{EventKind, InstantKind, TraceEvent, CORE_UNKNOWN, THREAD_GLOBAL};
use ompvar_obs::json::Value;
use ompvar_rt::region::{RegionSpec, Schedule};
use ompvar_rt::runner::RegionRunner;
use ompvar_sim::fault::FaultPlan;
use ompvar_sim::rng::{child, retry};
use ompvar_supervisor::{
    atomic_write, install_chaos, run_campaign, CampaignRun, ChaosAction, Checkpointable,
    CrashPoint, ExecUnit, IoChaos, IoFaultPlan, Outcome, ProcChaos, UnitError,
};
use std::path::{Path, PathBuf};

const PLATFORM: Platform = Platform::Vera;
const THREADS: usize = 2;

/// One unit's measurement, journaled through the manifest.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellVal(pub f64);

impl Checkpointable for CellVal {
    fn to_ckpt(&self) -> Value {
        Value::Num(self.0)
    }
    fn from_ckpt(v: &Value) -> Option<CellVal> {
        v.as_f64().map(CellVal)
    }
}

/// The reference region the inner campaign measures.
pub(crate) fn region(fast: bool) -> RegionSpec {
    let mut cfg = EpccConfig::schedbench_default().fast(2);
    cfg.iters_per_thr = if fast { 64 } else { 256 };
    schedbench::region(&cfg, Schedule::Static { chunk: 1 }, THREADS)
}

/// One tiny deterministic measurement: mean repetition time (µs) of the
/// reference region on the sterile simulated platform.
fn measure(region: &RegionSpec, seed: u64) -> Result<f64, UnitError> {
    PLATFORM
        .sterile_cell_rt(THREADS, FaultPlan::new())
        .run_region(region, seed)
        .map(|res| res.mean_rep_us())
        .map_err(|e| UnitError::from_rt(&e))
}

/// The inner campaign: `n` measurements of `region`, unit `c<i>`.
pub(crate) fn units(region: &RegionSpec, seed: u64, n: usize) -> Vec<ExecUnit<CellVal>> {
    (0..n)
        .map(|i| {
            let reg = region.clone();
            ExecUnit::new(format!("c{i}"), move |attempt| {
                let s = retry(child(seed, "chaos-cell", i as u64), attempt);
                measure(&reg, s).map(CellVal)
            })
        })
        .collect()
}

/// The inner campaigns' options: the chaos seed on fast-mode defaults
/// — no deadline, default retry budget — journaling under `dir`.
fn inner_opts(seed: u64, jobs: usize, dir: Option<&Path>) -> ExpOptions {
    ExpOptions { seed, jobs, resume: dir.map(Path::to_path_buf), ..ExpOptions::fast() }
}

/// Render the inner campaign to the report document the explorer
/// compares byte-for-byte: stable field order, every unit's terminal
/// state and value.
fn render_doc(seed: u64, run: &CampaignRun<CellVal>) -> String {
    let mut w = ompvar_obs::json::Writer::new();
    w.begin_obj().key("schema").str("ompvar-chaos-inner/1");
    w.key("seed").u64(seed).key("units").begin_arr();
    for r in &run.results {
        w.brk("\n ").begin_obj().key("name").str(&r.name).key("status");
        match &r.outcome {
            Outcome::Completed { value, .. } => w.str("completed").key("value").fixed(value.0, 9),
            Outcome::Quarantined { .. } => w.str("quarantined").key("value").null(),
        };
        w.end_obj();
    }
    w.ws("\n").end_arr().end_obj().ws("\n");
    w.finish()
}

fn fresh_dir(base: &Path, tag: &str) -> PathBuf {
    let d = base.join(tag);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create chaos inner dir");
    d
}

/// One inner campaign of `units`: resume the `inner` journal under
/// `dir` if one survived there, else start it (a fresh directory, or a
/// crash before the header landed, legitimately runs everything), then write the
/// rendered report through [`atomic_write`]. Inside an installed chaos
/// scope every one of those writes is a counted — and crashable — op;
/// called again chaos-free it is the resume. Returns the campaign and
/// the rendered doc.
fn inner_run(
    dir: &Path,
    seed: u64,
    units: &[ExecUnit<CellVal>],
    cancel: Option<&std::sync::atomic::AtomicBool>,
) -> (CampaignRun<CellVal>, String) {
    let door = Campaign { cancel, ..Campaign::inner("inner") };
    let mut run = run_journaled(&inner_opts(seed, 1, Some(dir)), &door, units)
        .expect("StartFresh never aborts");
    let doc = render_doc(seed, &run);
    // The report is the campaign's last write op. Under a crash point
    // this is suppressed like any other op; a resume must regenerate it.
    if let Err(e) = atomic_write(&dir.join("report.json"), doc.as_bytes()) {
        run.recovery_notes.push(format!("report write failed: {e}"));
    }
    (run, doc)
}

/// What one crash-point exploration found.
pub(crate) struct Exploration {
    /// Write ops of the clean run.
    pub writes: u64,
    /// Whether the clean run completed every unit without a recovery note.
    pub clean: bool,
    /// One line per crash point that was never reached or whose resume
    /// diverged, plus one if the census is off.
    pub failures: Vec<String>,
    /// The clean run's report document.
    pub reference: String,
    /// The last resumed report document.
    pub resumed: String,
    /// Chrome trace of the supervisor under "crash after write
    /// `writes / 2`", the crash point marked.
    pub trace: String,
}

/// The crash explorer, over the journaled campaign of `units` under
/// `base`: one clean run inside a fault-free chaos scope counts every
/// write op (header + one append per unit + report) and renders the
/// reference document; then, for every op `k`, a fresh journal is
/// crashed after `k` — and, with `during`, inside `k` — resumed chaos-free
/// and its report compared to the reference byte for byte. The `chaos`
/// experiment and the `fuzz` experiment's oracle #13 both run it.
pub(crate) fn explore(
    base: &Path,
    seed: u64,
    units: &[ExecUnit<CellVal>],
    during: bool,
) -> Exploration {
    let ref_dir = fresh_dir(base, "inner-ref");
    let (reference, writes, clean) = {
        let guard = install_chaos(IoChaos::new(&ref_dir, IoFaultPlan::none()));
        let (run, doc) = inner_run(&ref_dir, seed, units, None);
        let clean = run.results.iter().all(|r| matches!(r.outcome, Outcome::Completed { .. }))
            && run.recovery_notes.is_empty();
        (doc, guard.chaos().ops(), clean)
    };
    let _ = std::fs::remove_dir_all(&ref_dir);
    let mut failures = Vec::new();
    let expected = units.len() as u64 + 2;
    if !clean || writes != expected {
        failures.push(format!("clean run: {writes} write ops (expected {expected}), clean={clean}"));
    }
    let (mut resumed, mut trace) = (String::new(), String::new());
    let kinds: &[bool] = if during { &[false, true] } else { &[false] };
    for &during in kinds {
        let kind_name = if during { "during" } else { "after" };
        for k in 0..writes {
            let dir = fresh_dir(base, &format!("inner-{kind_name}-{k}"));
            let cp = if during { CrashPoint::During(k) } else { CrashPoint::After(k) };
            let crashed_trace = {
                let guard = install_chaos(IoChaos::new(&dir, IoFaultPlan::none()).with_crash(cp));
                let cancel = guard.chaos().crashed_flag();
                let (mut crashed_run, _) = inner_run(&dir, seed, units, Some(&*cancel));
                // After(W-1) has no later op to suppress, so the flag
                // legitimately stays clear there.
                let expect_crash = during || k + 1 < writes;
                if expect_crash && !guard.chaos().crashed() {
                    failures.push(format!(
                        "{kind_name} write {k}: crash point never reached \
                         (only {} ops)",
                        guard.chaos().ops()
                    ));
                }
                // Mark the explored crash point on the supervisor trace.
                let at = crashed_run.trace.events.last().map_or(0, |e| e.time_ns);
                crashed_run.trace.events.push(TraceEvent {
                    time_ns: at,
                    thread: THREAD_GLOBAL,
                    core: CORE_UNKNOWN,
                    kind: EventKind::Instant(InstantKind::ChaosCrashPoint),
                });
                crashed_run.trace
            };
            if !during && k == writes / 2 {
                let label = "chaos-crash-explorer";
                trace = ompvar_obs::chrome_trace_lanes(&crashed_trace, &[], label, "worker");
            }
            resumed = inner_run(&dir, seed, units, None).1;
            if resumed != reference {
                failures.push(format!(
                    "{kind_name} write {k}: resumed report diverges from reference"
                ));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Exploration { writes, clean, failures, reference, resumed, trace }
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let n = if opts.fast { 4 } else { 6 };
    let seed = opts.chaos_seed.unwrap_or(opts.seed);
    let work = units(&region(opts.fast), seed, n);
    let base = opts.out_dir.join("chaos");
    std::fs::create_dir_all(&base).ok();

    let mut checks = Vec::new();
    let mut t = Table::new(
        "Chaos: fault injection, crash-point exploration, process chaos",
        &["phase", "detail", "ok"],
    );

    // ---- Phases 1–2: write census + exhaustive crash-point exploration
    let explored = explore(&base, seed, &work, true);
    let (total_writes, reference_doc) = (explored.writes, explored.reference.as_str());
    std::fs::write(base.join("reference.json"), reference_doc).ok();
    // 1 header + n journal appends + 1 report.
    let expected_writes = 1 + n as u64 + 1;
    t.row(&[
        "census".into(),
        format!("{total_writes} write ops (expected {expected_writes})"),
        (total_writes == expected_writes).to_string(),
    ]);
    checks.push(Check::new(
        "chaos scope sees every write site of the journaled campaign",
        explored.clean && total_writes == expected_writes,
        format!(
            "header + {n} appends + report = {expected_writes}, shim counted {total_writes}"
        ),
    ));

    let _ = atomic_write(&base.join("crash.trace.json"), explored.trace.as_bytes());
    std::fs::write(base.join("resumed.json"), &explored.resumed).ok();
    let (points, crash_failures) = (2 * total_writes, &explored.failures);
    t.row(&[
        "crash points".into(),
        format!("{points} explored (after 0..{total_writes}, during 0..{total_writes})"),
        crash_failures.is_empty().to_string(),
    ]);
    checks.push(Check::new(
        "resume after every single crash point is byte-identical to the reference",
        crash_failures.is_empty(),
        if crash_failures.is_empty() {
            format!("{points}/{points} crash points byte-identical")
        } else {
            crash_failures.join("; ")
        },
    ));

    // ---- Phase 3: transient EIO vs permanent ENOSPC -----------------
    // Op 1 is the first journal append (op 0 is the header).
    let eio_dir = fresh_dir(&base, "inner-eio");
    let (eio_ok, eio_detail) = {
        let plan = IoFaultPlan::none().with_fault_at(1, ompvar_supervisor::FaultKind::Eio);
        let guard = install_chaos(IoChaos::new(&eio_dir, plan));
        let (run, doc) = inner_run(&eio_dir, seed, &work, None);
        let injected = guard.chaos().injected();
        drop(guard);
        let (_, resumed) = inner_run(&eio_dir, seed, &work, None);
        (
            injected == 1
                && run.recovery_notes.is_empty()
                && doc == reference_doc
                && resumed == reference_doc,
            format!(
                "injected={injected} notes={} doc_match={} resume_match={}",
                run.recovery_notes.len(),
                doc == reference_doc,
                resumed == reference_doc
            ),
        )
    };
    t.row(&["EIO append".into(), eio_detail.clone(), eio_ok.to_string()]);
    checks.push(Check::new(
        "injected EIO on a journal append is retried and lands (no degradation)",
        eio_ok,
        eio_detail,
    ));

    let enospc_dir = fresh_dir(&base, "inner-enospc");
    let (enospc_ok, enospc_detail) = {
        let plan = IoFaultPlan::none().with_fault_at(1, ompvar_supervisor::FaultKind::Enospc);
        let guard = install_chaos(IoChaos::new(&enospc_dir, plan));
        let (run, doc) = inner_run(&enospc_dir, seed, &work, None);
        drop(guard);
        let all_completed =
            run.results.iter().all(|r| matches!(r.outcome, Outcome::Completed { .. }));
        let note_ok = run.recovery_notes.len() == 1
            && run.recovery_notes[0].contains("ENOSPC")
            && run.recovery_notes[0].contains("permanent");
        let (_, resumed) = inner_run(&enospc_dir, seed, &work, None);
        // The note text carries the manifest path; keep the detail
        // path-free so two runs in different out dirs render identically.
        (
            all_completed && note_ok && doc == reference_doc && resumed == reference_doc,
            format!(
                "all_completed={all_completed} notes={} note_names_enospc_permanent={note_ok} \
                 resume_match={}",
                run.recovery_notes.len(),
                resumed == reference_doc
            ),
        )
    };
    t.row(&["ENOSPC append".into(), "degrade + resume".into(), enospc_ok.to_string()]);
    checks.push(Check::new(
        "injected ENOSPC degrades gracefully with a recovery note, then resumes clean",
        enospc_ok,
        enospc_detail,
    ));

    // ---- Phase 4: seeded fault storm replays bit-identically --------
    let storm = |tag: &str| -> (String, u64) {
        let dir = fresh_dir(&base, tag);
        let guard = install_chaos(IoChaos::new(&dir, IoFaultPlan::seeded(seed, 250_000)));
        let (_, doc) = inner_run(&dir, seed, &work, None);
        let injected = guard.chaos().injected();
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
        (doc, injected)
    };
    let (doc_a, inj_a) = storm("inner-storm-a");
    let (doc_b, inj_b) = storm("inner-storm-b");
    let storm_ok = doc_a == doc_b && inj_a == inj_b;
    t.row(&[
        "fault storm".into(),
        format!("25% per-op plan, {inj_a} vs {inj_b} faults injected"),
        storm_ok.to_string(),
    ]);
    checks.push(Check::new(
        "a seeded 25% fault storm replays bit-identically from its chaos seed",
        storm_ok,
        format!("injected {inj_a} vs {inj_b}, docs identical: {}", doc_a == doc_b),
    ));

    // ---- Phase 5: process chaos replays bit-identically -------------
    // Deterministically pick a chaos seed whose schedule fires at least
    // one kill and one panic over the unit set (pure decisions). A
    // search over candidates, not a seed derivation: it stays `seed ^ s`
    // (DESIGN §5 "Seeds").
    let pc = (0..u64::MAX)
        .map(|s| ProcChaos { seed: seed ^ s, ..ProcChaos::standard(seed) })
        .find(|pc| {
            (0..n).any(|i| pc.kills_at_boundary(i))
                && (0..n).any(|i| pc.attempt_action(i, 0) == ChaosAction::Panic)
        })
        .expect("a qualifying process-chaos seed exists");
    let proc_run = || -> (Vec<(usize, String, u32)>, usize, usize) {
        let mut cfg = executor_config(&inner_opts(seed, 2, None), false);
        cfg.chaos = Some(pc);
        let run = run_campaign(&cfg, &work, None, &[], None, None);
        let digest = run
            .results
            .iter()
            .map(|r| (r.index, r.name.clone(), r.outcome.attempts()))
            .collect();
        let kills = run.trace.instants_of(InstantKind::ChaosProcKill);
        (digest, run.results.len(), kills)
    };
    let (dig_a, len_a, kills_a) = proc_run();
    let (dig_b, len_b, kills_b) = proc_run();
    let proc_ok = dig_a == dig_b && len_a == n && len_b == n && kills_a >= 1 && kills_a == kills_b;
    t.row(&[
        "process chaos".into(),
        format!("{kills_a} kill(s), all {len_a}/{n} units terminal"),
        proc_ok.to_string(),
    ]);
    checks.push(Check::new(
        "process chaos (kills, panics, stalls) replays bit-identically from one seed",
        proc_ok,
        format!("digests equal: {}, kills {kills_a} vs {kills_b}", dig_a == dig_b),
    ));

    // ---- Phase 6: leaked-thread accounting --------------------------
    let leak_run = {
        let mut cfg = executor_config(&inner_opts(seed, 1, None), false);
        cfg.unit_timeout = Some(std::time::Duration::from_millis(30));
        cfg.supervisor.max_retries = 0;
        let wedge: Vec<ExecUnit<CellVal>> = vec![ExecUnit::new("wedge", |_| {
            std::thread::sleep(std::time::Duration::from_secs(3));
            Ok(CellVal(0.0))
        })];
        run_campaign(&cfg, &wedge, None, &[], None, None)
    };
    let leak_ok = leak_run.leaked_threads == 1;
    t.row(&[
        "leaked threads".into(),
        format!("{} reported after one watchdog reap", leak_run.leaked_threads),
        leak_ok.to_string(),
    ]);
    checks.push(Check::new(
        "a watchdog-reaped attempt thread is reported as leaked",
        leak_ok,
        format!("leaked_threads={}", leak_run.leaked_threads),
    ));

    ExpReport::new("chaos", vec![t], checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(dir: &str) -> ExpOptions {
        let out = std::env::temp_dir().join(format!("ompvar_chaos_{dir}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        ExpOptions { out_dir: out, ..ExpOptions::fast() }
    }

    #[test]
    fn chaos_checks_pass_exhaustively() {
        let o = opts("pass");
        let rep = run(&o);
        for c in &rep.checks {
            assert!(c.passed, "{}: {}", c.name, c.detail);
        }
        // The CI byte-identity artifacts exist and match.
        let reference = std::fs::read(o.out_dir.join("chaos/reference.json")).unwrap();
        let resumed = std::fs::read(o.out_dir.join("chaos/resumed.json")).unwrap();
        assert_eq!(reference, resumed, "reference vs resumed artifact");
        assert!(!reference.is_empty());
        // The marked crash trace parses and carries the instant.
        let trace = std::fs::read_to_string(o.out_dir.join("chaos/crash.trace.json")).unwrap();
        assert!(trace.contains("chaos_crash_point"), "{trace}");
        let _ = std::fs::remove_dir_all(&o.out_dir);
    }

    /// The explorer's failing direction: units that return a new value
    /// every time they run cannot resume to their reference, and each
    /// crash point is named; the deterministic campaign passes.
    #[test]
    fn the_explorer_names_every_crash_point_whose_resume_diverges() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let runs = std::sync::Arc::new(AtomicU64::new(0));
        let counting: Vec<ExecUnit<CellVal>> = (0..2)
            .map(|i| {
                let runs = std::sync::Arc::clone(&runs);
                let next = move |_| Ok(CellVal(runs.fetch_add(1, Ordering::Relaxed) as f64));
                ExecUnit::new(format!("c{i}"), next)
            })
            .collect();
        let base = opts("diverge").out_dir;
        let found = explore(&base, 7, &counting, true);
        assert_eq!((found.writes, found.clean), (4, true));
        let diverges = |kind| move |k| format!("{kind} write {k}: resumed report diverges from reference");
        let named: Vec<String> = ["after", "during"].iter().flat_map(|kind| (0..4).map(diverges(kind))).collect();
        assert_eq!(found.failures, named);
        assert!(explore(&base, 7, &units(&region(true), 7, 2), false).failures.is_empty());
        let _ = std::fs::remove_dir_all(&base);
    }

    fn inner(results: Vec<(&str, Outcome<CellVal>)>) -> CampaignRun<CellVal> {
        CampaignRun {
            results: results
                .into_iter()
                .enumerate()
                .map(|(index, (name, outcome))| ompvar_supervisor::UnitResult {
                    index,
                    name: name.to_string(),
                    outcome,
                    worker: None,
                    duration: std::time::Duration::ZERO,
                })
                .collect(),
            trace: Default::default(),
            interrupted: false,
            poisoned_workers: 0,
            steals: 0,
            leaked_threads: 0,
            recovery_notes: Vec::new(),
        }
    }

    fn done(v: f64) -> Outcome<CellVal> {
        Outcome::Completed { value: CellVal(v), attempts: 1, retries: vec![], from_checkpoint: false }
    }

    /// Completed units' bytes pinned from the emitter this one replaced;
    /// a quarantined unit, which that emitter printed as `NaN`, is `null`.
    #[test]
    fn render_doc_bytes_are_pinned_and_quarantine_is_valid_json() {
        let hostile = "q\"b\\s\n\u{1}\u{2028}\u{1f600}";
        let run = inner(vec![
            (hostile, done(12.3456789012345)),
            ("c1", done(-0.0)),
            ("c2", done(5e-324)),
            ("c3", done(f64::MAX)),
        ]);
        let doc = render_doc(u64::MAX, &run);
        assert_eq!(doc, "{\"schema\":\"ompvar-chaos-inner/1\",\"seed\":18446744073709551615,\"units\":[\n {\"name\":\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\",\"status\":\"completed\",\"value\":12.345678901},\n {\"name\":\"c1\",\"status\":\"completed\",\"value\":-0.000000000},\n {\"name\":\"c2\",\"status\":\"completed\",\"value\":0.000000000},\n {\"name\":\"c3\",\"status\":\"completed\",\"value\":179769313486231570814527423731704356798070567525844996598917476803157260780028538760589558632766878171540458953514382464234321326889464182768467546703537516986049910576551282076245490090389328944075868508455133942304583236903222948165808559332123348274797826204144723168738177180919299881250404026184124858368.000000000}\n]}\n");
        ompvar_obs::json::parse(&doc).expect("valid JSON");
        assert_eq!(render_doc(0, &inner(vec![])), "{\"schema\":\"ompvar-chaos-inner/1\",\"seed\":0,\"units\":[\n]}\n");

        let quarantined =
            Outcome::Quarantined { attempts: 2, retries: vec![], from_checkpoint: false };
        let doc = render_doc(7, &inner(vec![("c0", done(1.5)), ("c1", quarantined)]));
        assert_eq!(doc, "{\"schema\":\"ompvar-chaos-inner/1\",\"seed\":7,\"units\":[\n {\"name\":\"c0\",\"status\":\"completed\",\"value\":1.500000000},\n {\"name\":\"c1\",\"status\":\"quarantined\",\"value\":null}\n]}\n");
        let v = ompvar_obs::json::parse(&doc).expect("a quarantined unit renders valid JSON");
        let units = v.get("units").and_then(Value::as_arr).unwrap();
        assert_eq!(units[1].get("value"), Some(&Value::Null));
    }

    #[test]
    fn chaos_experiment_is_reproducible() {
        let o1 = opts("rep1");
        let o2 = opts("rep2");
        let r1 = run(&o1);
        let r2 = run(&o2);
        assert_eq!(r1.render(), r2.render());
        let _ = std::fs::remove_dir_all(&o1.out_dir);
        let _ = std::fs::remove_dir_all(&o2.out_dir);
    }
}
