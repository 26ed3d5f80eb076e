//! Semantic-effect and determinism oracles, and the differential check
//! that runs one generated program on both backends.
//!
//! A case passes when:
//!
//! 1. the program validates (the generator's contract);
//! 2. the simulated backend completes, twice, with bit-identical results
//!    for the same seed — every field equal, every float by its bits
//!    (determinism oracle, [`first_difference`]);
//! 3. the native backend completes;
//! 4. both backends' harvested [`SemanticEffects`] equal the statically
//!    predicted effects of the construct tree — iteration coverage,
//!    lock-entry, reduction-combine, single-winner, barrier-arrival and
//!    task counts all agree exactly;
//! 5. neither backend observed a mutual-exclusion or ordered-sequence
//!    violation;
//! 6. both backends produced the same measured-interval shape (same
//!    marker ids, same repetition counts — mark-pair well-nesting);
//! 7. both backends' span traces are structurally well-formed — every
//!    begin matched by an end of the same kind, LIFO nesting per thread,
//!    per-thread time monotone, exactly one region span per team thread
//!    (trace well-formedness oracle);
//! 8. every backend error classifies cleanly under the supervisor's
//!    retry taxonomy ([`ompvar_supervisor::classify`]): its
//!    transient/permanent name round-trips, and it is never *permanent*
//!    for a program that already validated — a permanent classification
//!    means a structural error escaped `validate()` or the taxonomy
//!    drifted (classification-totality oracle);
//! 9. **soundness of the static analyzer**: a hang-shaped failure
//!    (deadlock, simulated time limit, native deadline) on a program the
//!    analyzer reported *clean* (no `Warn`-or-worse diagnostics) is a
//!    fuzz failure — the analyzer missed a hazard it claims to
//!    over-approximate. Conversely, a hang on a program the analyzer
//!    flagged as may-deadlock (`OMPV104`/`OMPV105`/`OMPV110`/`OMPV111`)
//!    is *accepted*: the static prediction came true. Flagged programs
//!    run on the simulated backend only, where a deadlock is detected in
//!    virtual time instead of burning a wall-clock deadline;
//! 10. **partition equivalence**: a fuzz campaign cut into contiguous
//!     case ranges ([`crate::run_fuzz_range`]), each reduced and folded
//!     the way the harness's case-batch cells are, must be the campaign
//!     reduced as one batch — same coverage tallies, same failure text.
//!     Divergence means a case is not a pure function of `(cfg, case)`
//!     or the reduction or fold drops something. Computed in the harness
//!     (`fuzz_exp::check_partition`) on the reduction and fold the `fuzz`
//!     report is made by; the number and the check name are unchanged;
//! 11. *retired*: the engine has one path, and its optimizations are
//!     held to component referents (DESIGN §11);
//! 12. **attribution conservation**: re-running the case with the causal
//!     time-attribution ledger enabled ([`check_attribution`]) must (a)
//!     leave the final virtual time bit-identical — attribution is pure
//!     observation; (b) conserve time per thread (`useful + Σ attributed
//!     ≤ wall`, non-negative entries); and (c) under the fuzz harness's
//!     sterile pinned parameters charge *exactly* 0 ns to every noise
//!     source — a sterile machine has no preemptions, migrations, SMT
//!     siblings, frequency droop, ticks, stalls or noise-delayed
//!     arrivals to pay for;
//! 13. **crash-resume equivalence**: a journaled campaign killed after
//!     *any single* checkpoint write — exhaustively, every write op in
//!     turn via the chaos shim's crash points — must, once resumed,
//!     render a report byte-identical to an uncrashed run's. Computed in
//!     the harness on the `chaos` experiment's crash explorer
//!     (`chaos_exp::explore`), through the CLI's own journal front door;
//!     the number and the check name are unchanged;
//! 14. **value equivalence**: on an analyzer-clean program (no
//!     `OMPV3xx` race diagnostics at `Warn`+), both backends must
//!     report bit-identical final shared-variable values
//!     ([`ompvar_rt::config::RegionResult::final_values`]). The static
//!     race pass guarantees clean programs are value-deterministic
//!     (every conflict window is commutative or single-writer), so any
//!     divergence is either a backend value-semantics bug or an
//!     analyzer soundness hole — both fuzz failures. Statically
//!     race-flagged programs run sim-only, where the canonical
//!     evaluation keeps results replayable.

use ompvar_rt::config::RegionResult;
use ompvar_rt::native::{affinity, NativeRuntime};
use ompvar_rt::region::RegionSpec;
use ompvar_rt::simrt::SimRuntime;
use ompvar_rt::{RtConfig, RtError};
use ompvar_sim::params::SimParams;
use ompvar_sim::time::SEC;
use ompvar_sim::trace::SemanticEffects;
use ompvar_topology::{HwThreadId, MachineSpec, Place, Places};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// The simulated runtime used for differential runs: a modeled Vera node,
/// threads pinned close, sterile parameters (no noise/DVFS/SMT effects),
/// so results are a pure function of `(region, seed)`.
///
/// A clone of the calling thread's runtime for `n_threads` (see [`SIM`]):
/// every runtime handed out on one thread for one team size shares one
/// machine image, so no case rebuilds the machine.
pub fn sim_runtime(n_threads: usize) -> SimRuntime {
    SIM.with(|sims| {
        sims.borrow_mut()
            .entry(n_threads)
            .or_insert_with(|| {
                SimRuntime::new(
                    MachineSpec::vera(),
                    RtConfig::pinned_close(Places::Threads(Some(n_threads))),
                )
                .with_params(SimParams::sterile())
                .with_time_limit(300 * SEC)
                .with_tracing(true)
            })
            .clone()
    })
}

/// The native runtime used for differential runs: unpinned (CI-safe)
/// with a generous-but-bounded deadline so a semantic bug shows up as a
/// typed timeout, not a hang.
pub fn native_runtime() -> NativeRuntime {
    NativeRuntime::new(RtConfig::unbound())
        .with_deadline(Some(Duration::from_secs(30)))
        .with_tracing(true)
}

/// [`native_runtime`] with the whole team bound to one CPU of the
/// caller's mask, dealt round-robin so two campaign workers' teams sit
/// on different CPUs (unpinned where the host has no mask or refuses).
/// The programs are tiny and the workers fill the machine: a team the OS
/// spreads pays a cross-CPU wake-up per dispatch, and whether it does
/// changes by the second — `fuzz --fuzz-cases 12000 --jobs 2` took
/// 1.07–1.37 s (quartiles) unpinned, 0.77–0.88 s so, 1.8–2.2 s with one
/// rank per CPU. No oracle's subject depends on placement.
fn home_runtime() -> NativeRuntime {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let mut rt = native_runtime();
    if let Some(cpus) = affinity::current_affinity().filter(|c| !c.is_empty()) {
        let home = HwThreadId(cpus[NEXT.fetch_add(1, Ordering::Relaxed) % cpus.len()]);
        rt.config = RtConfig::pinned_close(Places::Explicit(vec![Place::single(home)]));
    }
    rt
}

thread_local! {
    /// The calling thread's [`home_runtime`]: every case a fuzz worker,
    /// the shrinker or a benchmark loop checks on this thread runs on one
    /// warm team, and two threads never queue on each other's. Its team
    /// threads exit with the thread that owns it.
    static NATIVE: NativeRuntime = home_runtime();

    /// The calling thread's [`sim_runtime`] of each team size, built on
    /// first use. A case's three simulated runs (first run, replay,
    /// attribution) and every later case of the same size run on clones
    /// of it, which share its machine image.
    static SIM: RefCell<BTreeMap<usize, SimRuntime>> = const { RefCell::new(BTreeMap::new()) };
}

/// Trace well-formedness oracle: the span timeline of a successful run
/// must pair up cleanly and carry exactly one region span per thread.
fn check_trace(
    reasons: &mut Vec<String>,
    backend: &str,
    result: &RegionResult,
    n_threads: usize,
) {
    let Some(trace) = &result.trace else {
        reasons.push(format!("{backend} ran with tracing on but recorded no trace"));
        return;
    };
    match ompvar_obs::wellformed::check(trace) {
        Ok(_) => {
            let regions = trace.count_of(ompvar_obs::SpanKind::Region);
            if regions != n_threads {
                reasons.push(format!(
                    "{backend} trace has {regions} region span(s) for {n_threads} thread(s)"
                ));
            }
        }
        Err(errs) => reasons.push(format!(
            "{backend} trace is malformed ({} violation(s)):\n    {}",
            errs.len(),
            errs.join("\n    ")
        )),
    }
}

/// Classification-totality oracle (#8). The match in
/// [`ompvar_supervisor::classify`] is exhaustive, so new error variants
/// are a *compile* error there; this guards the runtime half of the
/// contract: the class name must round-trip through the checkpoint
/// vocabulary, and a program that passed `validate()` must never produce
/// a *permanently*-classified error — permanent is reserved for
/// structural failures, which validation already rejected.
fn check_classification(reasons: &mut Vec<String>, backend: &str, err: &RtError) {
    let class = ompvar_supervisor::classify(err);
    if ompvar_supervisor::Transience::from_name(class.name()).is_none() {
        reasons.push(format!(
            "{backend} error {err} classifies as unregistered class {:?} (taxonomy drift)",
            class.name()
        ));
    }
    if class == ompvar_supervisor::Transience::Permanent {
        reasons.push(format!(
            "{backend} error on a validated program classifies as permanent: {err} \
             (structural failure escaped validation, or the retry taxonomy drifted)"
        ));
    }
}

/// Is this error hang-shaped — the dynamic outcome the may-deadlock
/// analyses predict? Simulated deadlocks are detected exactly; a
/// simulated time-limit or native deadline overrun is how a livelock or
/// missed wakeup surfaces.
fn is_hang(e: &RtError) -> bool {
    use ompvar_sim::error::SimError;
    matches!(
        e,
        RtError::Sim(SimError::Deadlock { .. } | SimError::TimeLimitExceeded { .. })
            | RtError::Timeout { .. }
    )
}

/// Render an analyzer verdict for failure messages.
fn verdict_str(analysis: &ompvar_analyze::Analysis) -> String {
    let v: Vec<&'static str> = analysis.verdict().iter().map(|c| c.code()).collect();
    if v.is_empty() {
        "clean".to_string()
    } else {
        v.join(" ")
    }
}

/// Check one violation category, pushing a reason string on mismatch.
fn expect_eq(
    reasons: &mut Vec<String>,
    what: &str,
    got: &SemanticEffects,
    want: &SemanticEffects,
) {
    if got != want {
        reasons.push(format!(
            "{what} effects diverge from prediction:\n    got  {got:?}\n    want {want:?}"
        ));
    }
}

/// The first field, in declaration order, in which two results are not
/// bit-identical; `None` when they are. Integers and event lists compare
/// by value (`Eq`: no float can hide in them), every float by its bits —
/// so `0.0` ≠ `-0.0` and NaN payloads count, which makes this at least as
/// sharp as comparing two `Debug` renderings, without rendering either.
fn first_difference(a: &RegionResult, b: &RegionResult) -> Option<&'static str> {
    fn same<T: Eq>(a: &T, b: &T) -> bool {
        a == b
    }
    fn bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }
    // Destructured in full: a field added to the result is a compile
    // error here, not a blind spot of the oracle.
    let RegionResult {
        intervals_us,
        wall_us,
        freq_samples,
        counters,
        thread_stats,
        effects,
        trace,
        attribution,
        final_values,
    } = a;
    let intervals = intervals_us.len() == b.intervals_us.len()
        && intervals_us
            .iter()
            .zip(&b.intervals_us)
            .all(|((ka, va), (kb, vb))| ka == kb && bits(va, vb));
    let freq = freq_samples.len() == b.freq_samples.len()
        && freq_samples.iter().zip(&b.freq_samples).all(|(x, y)| {
            x.time == y.time
                && x.core_ghz.len() == y.core_ghz.len()
                && x.core_ghz.iter().zip(&y.core_ghz).all(|(p, q)| p.to_bits() == q.to_bits())
        });
    let attr = match (attribution, &b.attribution) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.threads.len() == y.threads.len()
                && x.threads.iter().zip(&y.threads).all(|(t, u)| {
                    t.rank == u.rank
                        && t.useful_ns.to_bits() == u.useful_ns.to_bits()
                        && bits(&t.by_source, &u.by_source)
                })
                && x.samples.len() == y.samples.len()
                && x.samples.iter().zip(&y.samples).all(|(s, t)| {
                    s.time_ns == t.time_ns && bits(&s.total_by_source, &t.total_by_source)
                })
        }
        _ => false,
    };
    [
        ("intervals_us", intervals),
        ("wall_us", wall_us.to_bits() == b.wall_us.to_bits()),
        ("freq_samples", freq),
        ("counters", same(counters, &b.counters)),
        ("thread_stats", same(thread_stats, &b.thread_stats)),
        ("effects", same(effects, &b.effects)),
        ("trace", same(trace, &b.trace)),
        ("attribution", attr),
        ("final_values", same(final_values, &b.final_values)),
    ]
    .into_iter()
    .find_map(|(field, equal)| (!equal).then_some(field))
}

/// Attribution-conservation oracle (#12): re-run the case with the
/// causal attribution ledger enabled and compare against `plain`, the
/// outcome of the same `(region, seed)` on [`sim_runtime`] without it.
/// Checks, in order: bit-identical final virtual time (through `f64`
/// bits — attribution must be pure observation), the ledger's presence
/// with one entry per team thread, per-thread conservation
/// ([`ompvar_obs::RunAttribution::check_conservation`]), and — because
/// [`sim_runtime`] is sterile and pinned — exactly zero nanoseconds on
/// every noise source. When the plain run fails, the attributed run must
/// fail with the identical error value. Returns the violations (empty =
/// passed).
pub fn check_attribution(
    region: &RegionSpec,
    seed: u64,
    plain: &Result<RegionResult, RtError>,
) -> Vec<String> {
    use ompvar_obs::AttrSource;
    let mut reasons = Vec::new();
    let attributed = sim_runtime(region.n_threads)
        .with_attribution(true)
        .run(region, seed);
    match (plain, &attributed) {
        (Ok(p), Ok(a)) => {
            if p.wall_us.to_bits() != a.wall_us.to_bits() {
                reasons.push(format!(
                    "attribution (oracle #12): enabling the ledger perturbed virtual \
                     time: plain {} us vs attributed {} us",
                    p.wall_us, a.wall_us
                ));
            }
            let Some(attr) = &a.attribution else {
                reasons.push(
                    "attribution (oracle #12): run with attribution enabled returned \
                     no ledger"
                        .to_string(),
                );
                return reasons;
            };
            if attr.threads.len() != region.n_threads {
                reasons.push(format!(
                    "attribution (oracle #12): ledger has {} thread(s) for a \
                     {}-thread team",
                    attr.threads.len(),
                    region.n_threads
                ));
            }
            // Wall time in ns; the charge arithmetic accumulates f64
            // rounding across every slice, so allow a small relative
            // tolerance (the invariant itself is an inequality).
            let wall_ns = a.wall_us * 1e3;
            if let Err(e) = attr.check_conservation(wall_ns, 1e-6) {
                reasons.push(format!(
                    "attribution (oracle #12): conservation violated: {e}"
                ));
            }
            for &src in AttrSource::ALL.iter().filter(|s| s.is_noise()) {
                let t = attr.total(src);
                if t != 0.0 {
                    reasons.push(format!(
                        "attribution (oracle #12): sterile pinned run charged \
                         {t} ns to noise source `{}`",
                        src.name()
                    ));
                }
            }
        }
        (Err(p), Err(a)) => {
            let (p, a) = (format!("{p:?}"), format!("{a:?}"));
            if p != a {
                reasons.push(format!(
                    "attribution (oracle #12): runs fail differently with the \
                     ledger on:\n    plain      {p}\n    attributed {a}"
                ));
            }
        }
        (Ok(_), Err(e)) => reasons.push(format!(
            "attribution (oracle #12): attributed run failed where the plain run \
             succeeded: {e}"
        )),
        (Err(e), Ok(_)) => reasons.push(format!(
            "attribution (oracle #12): plain run failed where the attributed run \
             succeeded: {e}"
        )),
    }
    reasons
}

/// Run every oracle against `region` with the given seed. Returns the
/// list of violations; an empty list means the case passed.
pub fn check_case(region: &RegionSpec, seed: u64) -> Vec<String> {
    let mut reasons = Vec::new();
    // The full analysis reports `validate()`'s error as its first one.
    let analysis = ompvar_analyze::analyze(region);
    if let Some(d) = analysis.first_error() {
        let e = d.cause.expect("error-severity diagnostics carry their RegionError");
        reasons.push(format!("generator contract violated: {e}"));
        return reasons;
    }
    // Soundness oracle (#9) setup: a validated program may still carry
    // Warn-severity may-deadlock diagnostics. Those predictions gate how
    // a hang is judged below.
    let may_deadlock = analysis.may_deadlock();
    let may_race = analysis.may_race();
    let want = region.expected_effects();

    // Simulated backend: completion + determinism + effects. This first
    // run is also what oracle #12 compares its variant run to.
    let sim = sim_runtime(region.n_threads);
    let sim_run = sim.run(region, seed);
    match &sim_run {
        Ok(a) => {
            // Replay for the determinism oracle.
            match sim.run(region, seed) {
                Ok(b) => {
                    if let Some(field) = first_difference(a, &b) {
                        reasons.push(format!(
                            "sim replay with seed {seed} is not bit-identical \
                             (`{field}` differs):\n    first  {a:?}\n    replay {b:?}"
                        ));
                    }
                }
                Err(e) => reasons.push(format!(
                    "sim replay with seed {seed} failed where the first run succeeded: {e}"
                )),
            }
            expect_eq(&mut reasons, "sim", &a.effects, &want);
            check_trace(&mut reasons, "sim", a, region.n_threads);
        }
        Err(e) => {
            check_classification(&mut reasons, "sim", e);
            if is_hang(e) {
                if !may_deadlock {
                    reasons.push(format!(
                        "soundness violation (oracle #9): sim hang on an \
                         analyzer-clean program (verdict: {}): {e}",
                        verdict_str(&analysis)
                    ));
                }
                // A hang on a may-deadlock-flagged program is the static
                // prediction coming true — accepted, not a failure.
            } else {
                reasons.push(format!("sim backend failed: {e}"));
            }
        }
    }

    // Native backend: completion + effects + violation counters.
    // May-deadlock-flagged programs are not run natively: a true
    // deadlock there burns the full wall-clock deadline per case, and
    // the simulated backend already adjudicates the prediction in
    // virtual time. May-race-flagged programs are also sim-only: their
    // final values are interleaving-dependent by the analyzer's own
    // verdict, so the value-equivalence oracle (#14) below would report
    // spurious divergences.
    let native_result = if may_deadlock || may_race {
        None
    } else {
        match NATIVE.with(|native| native.run(region)) {
            Ok(r) => {
                expect_eq(&mut reasons, "native", &r.effects, &want);
                if r.effects.mutex_violations != 0 {
                    reasons.push(format!(
                        "native observed {} mutual-exclusion violation(s)",
                        r.effects.mutex_violations
                    ));
                }
                if r.effects.ordered_violations != 0 {
                    reasons.push(format!(
                        "native observed {} ordered-sequence violation(s)",
                        r.effects.ordered_violations
                    ));
                }
                check_trace(&mut reasons, "native", &r, region.n_threads);
                Some(r)
            }
            Err(e) => {
                check_classification(&mut reasons, "native", &e);
                if is_hang(&e) {
                    reasons.push(format!(
                        "soundness violation (oracle #9): native hang on an \
                         analyzer-clean program (verdict: {}): {e}",
                        verdict_str(&analysis)
                    ));
                } else {
                    reasons.push(format!("native backend failed: {e}"));
                }
                None
            }
        }
    };

    // Attribution conservation (oracle #12): the ledger never perturbs
    // the run, always conserves time, and stays all-zero on noise
    // sources under sterile parameters.
    reasons.extend(check_attribution(region, seed, &sim_run));

    // Interval shape: same marker ids with the same repetition counts on
    // both backends (mark-interval well-nesting oracle).
    if let (Ok(s), Some(n)) = (&sim_run, &native_result) {
        let sim_shape: Vec<(u32, usize)> =
            s.intervals_us.iter().map(|(k, v)| (*k, v.len())).collect();
        let native_shape: Vec<(u32, usize)> =
            n.intervals_us.iter().map(|(k, v)| (*k, v.len())).collect();
        if sim_shape != native_shape {
            reasons.push(format!(
                "measured-interval shapes differ: sim {sim_shape:?} vs native {native_shape:?}"
            ));
        }
        // Value equivalence (oracle #14): native only ran because the
        // static race pass found no Warn-severity OMPV3xx diagnostics,
        // which is exactly the analyzer's claim that every shared
        // variable's final value is interleaving-independent. Both
        // backends must therefore land on bit-identical values; any gap
        // is a backend value-semantics bug or an analyzer soundness
        // hole.
        if s.final_values != n.final_values {
            reasons.push(format!(
                "value divergence (oracle #14) on an analyzer-clean program \
                 (verdict: {}): sim {:?} vs native {:?}",
                verdict_str(&analysis),
                s.final_values,
                n.final_values
            ));
        }
    }
    reasons
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompvar_rt::region::{Construct, Schedule};

    #[test]
    fn handwritten_mixed_region_passes_all_oracles() {
        let region = RegionSpec::new(
            2,
            vec![
                Construct::Barrier,
                Construct::ParallelFor {
                    schedule: Schedule::Dynamic { chunk: 2 },
                    total_iters: 16,
                    body_us: 0.2,
                    ordered_us: Some(0.1),
                    nowait: false,
                },
                Construct::Critical { body_us: 0.1 },
                Construct::Reduction { body_us: 0.1 },
                Construct::Single { body_us: 0.1 },
                Construct::Atomic,
                Construct::Tasks {
                    per_spawner: 2,
                    body_us: 0.1,
                    master_only: false,
                },
                Construct::Locked {
                    lock: 3,
                    body: vec![Construct::Atomic],
                },
            ],
        )
        .expect("region is valid");
        let reasons = check_case(&region, 7);
        assert!(reasons.is_empty(), "{reasons:#?}");
    }

    #[test]
    fn may_deadlock_flagged_program_runs_sim_only_and_passes() {
        // Opposite acquisition orders in two scopes: the analyzer flags
        // OMPV110 (Warn) and the spec still validates. All threads move
        // through the constructs in program order here, so the run
        // completes — and must pass every oracle, with the native
        // backend skipped.
        let region = RegionSpec::new(
            2,
            vec![
                Construct::Locked {
                    lock: 0,
                    body: vec![Construct::Locked {
                        lock: 1,
                        body: vec![Construct::DelayUs(0.1)],
                    }],
                },
                Construct::Barrier,
                Construct::Locked {
                    lock: 1,
                    body: vec![Construct::Locked {
                        lock: 0,
                        body: vec![Construct::DelayUs(0.1)],
                    }],
                },
            ],
        )
        .expect("lock cycles are Warn-severity, so the spec validates");
        let analysis = ompvar_analyze::analyze(&region);
        assert!(analysis.may_deadlock(), "{}", analysis.render());
        let reasons = check_case(&region, 11);
        assert!(reasons.is_empty(), "{reasons:#?}");
    }

    #[test]
    fn clause_annotated_clean_program_passes_value_oracle() {
        use ompvar_rt::region::{Clause, RedOp, VarDecl, WriteOp};
        // Lock-protected shared increments plus a reduction loop: the
        // analyzer finds no race, so native runs and oracle #14 compares
        // final shared values bit-for-bit against the sim's canonical
        // evaluation.
        let region = RegionSpec::with_vars(
            4,
            vec![
                VarDecl {
                    id: 0,
                    name: "acc".into(),
                    clause: Clause::Shared,
                    init: 10,
                },
                VarDecl {
                    id: 1,
                    name: "tmp".into(),
                    clause: Clause::Private,
                    init: 0,
                },
            ],
            vec![
                Construct::Locked {
                    lock: 5,
                    body: vec![Construct::VarWrite {
                        var: 0,
                        op: WriteOp::Add(3),
                    }],
                },
                Construct::VarWrite {
                    var: 1,
                    op: WriteOp::Set(7),
                },
                Construct::VarRead { var: 1 },
                Construct::Barrier,
                Construct::ReductionFor {
                    var: 0,
                    red: RedOp::Sum,
                    schedule: Schedule::Static { chunk: 2 },
                    total_iters: 8,
                    body_us: 0.1,
                    delta: 2,
                },
            ],
        )
        .expect("region is valid");
        let analysis = ompvar_analyze::analyze(&region);
        assert!(!analysis.may_race(), "{}", analysis.render());
        let reasons = check_case(&region, 23);
        assert!(reasons.is_empty(), "{reasons:#?}");
        // Sanity-check the value both backends must have agreed on:
        // 10 + 4*3 + sum(2 + i for i in 0..8) = 66.
        let r = sim_runtime(region.n_threads)
            .run(&region, 23)
            .expect("sim run succeeds");
        assert_eq!(r.final_values.get(&0), Some(&66));
    }

    #[test]
    fn may_race_flagged_program_runs_sim_only_and_passes() {
        use ompvar_rt::region::{Clause, VarDecl, WriteOp};
        // Two unprotected shared writes: OMPV301 at Warn. The program
        // still validates and the sim's canonical evaluation is
        // deterministic, so every oracle passes — but the native backend
        // must be skipped, since its real interleavings could legally
        // land on a different final value than the sim reports.
        let region = RegionSpec::with_vars(
            4,
            vec![VarDecl {
                id: 0,
                name: "racy".into(),
                clause: Clause::Shared,
                init: 0,
            }],
            vec![
                Construct::VarWrite {
                    var: 0,
                    op: WriteOp::Set(5),
                },
                Construct::VarWrite {
                    var: 0,
                    op: WriteOp::Add(1),
                },
            ],
        )
        .expect("races are Warn-severity, so the spec validates");
        let analysis = ompvar_analyze::analyze(&region);
        assert!(analysis.may_race(), "{}", analysis.render());
        assert!(!analysis.may_deadlock(), "{}", analysis.render());
        let reasons = check_case(&region, 31);
        assert!(reasons.is_empty(), "{reasons:#?}");
    }

    #[test]
    fn classification_oracle_accepts_transient_rejects_permanent() {
        use ompvar_rt::region::RegionError;
        use ompvar_rt::RtError;
        // A timeout is transient: the oracle records nothing beyond the
        // backend-failure reason itself.
        let mut reasons = Vec::new();
        check_classification(
            &mut reasons,
            "sim",
            &RtError::Timeout {
                construct: "barrier",
                deadline: std::time::Duration::from_secs(1),
            },
        );
        assert!(reasons.is_empty(), "{reasons:?}");
        // A validation error surfacing from a backend at run time is
        // permanent — on a validated program that is taxonomy drift.
        let mut reasons = Vec::new();
        check_classification(
            &mut reasons,
            "native",
            &RtError::InvalidRegion(RegionError::ZeroThreads),
        );
        assert_eq!(reasons.len(), 1);
        assert!(reasons[0].contains("permanent"), "{reasons:?}");
    }

    #[test]
    fn attribution_oracle_passes_and_ledger_is_meaningful() {
        // A contended region: sync waits exist even on the sterile fuzz
        // machine, so the oracle's sterile-zero requirement must hold
        // while the *non-noise* side of the ledger is actually exercised
        // (useful compute plus sync-contention/runtime-overhead charges).
        let region = RegionSpec::new(
            4,
            vec![
                Construct::Barrier,
                Construct::Critical { body_us: 0.5 },
                Construct::ParallelFor {
                    schedule: Schedule::Static { chunk: 2 },
                    total_iters: 8,
                    body_us: 0.4,
                    ordered_us: None,
                    nowait: false,
                },
            ],
        )
        .expect("region is valid");
        let plain = sim_runtime(region.n_threads).run(&region, 42);
        let reasons = check_attribution(&region, 42, &plain);
        assert!(reasons.is_empty(), "{reasons:#?}");
        // Re-run once more to inspect the ledger the oracle validated.
        let r = sim_runtime(region.n_threads)
            .with_attribution(true)
            .run(&region, 42)
            .expect("attributed run succeeds");
        let attr = r.attribution.expect("ledger present");
        assert!(attr.useful_total() > 0.0, "no useful compute recorded");
        assert!(
            attr.total(ompvar_obs::AttrSource::SyncContention) > 0.0,
            "critical section + barrier produced no sync-contention charge"
        );
        assert_eq!(attr.noise_total(), 0.0);
    }

    #[test]
    fn attribution_oracle_compares_error_values_too() {
        // The known runtime-deadlock straggler: both the plain and the
        // attributed run must fail with the identical deadlock value.
        let cfg = crate::gen::GenConfig {
            max_threads: 8,
            max_block_len: 8,
            max_depth: 3,
            max_repeat: 8,
            max_iters: 96,
            max_body_us: 2.0,
            max_tasks: 6,
            max_vars: 0,
        };
        let seed = crate::case_seed(0x5EED_F00D, 264);
        let region = crate::gen::generate(seed, &cfg);
        let plain = sim_runtime(region.n_threads).run(&region, seed);
        assert!(plain.is_err(), "straggler case stopped deadlocking");
        let reasons = check_attribution(&region, seed, &plain);
        assert!(reasons.is_empty(), "{reasons:#?}");
    }

    #[test]
    fn the_variant_oracles_hold_the_run_they_are_given_to_their_own() {
        // Oracle #12 does not re-run the plain configuration: whatever
        // first run it is handed is what its variant run must match, so
        // a doctored one is reported.
        let region = RegionSpec::new(2, vec![Construct::Barrier, Construct::Atomic])
            .expect("region is valid");
        let honest = sim_runtime(2).run(&region, 5);
        assert!(check_attribution(&region, 5, &honest).is_empty());
        let mut late = honest.expect("sim run succeeds");
        late.wall_us += 1.0;
        late.effects.atomic_ops += 1;
        let reasons = check_attribution(&region, 5, &Ok(late));
        assert_eq!(reasons.len(), 1, "{reasons:#?}");
        let failed = Err(RtError::Timeout {
            construct: "barrier",
            deadline: Duration::ZERO,
        });
        let reasons = check_attribution(&region, 5, &failed);
        assert_eq!(reasons.len(), 1, "{reasons:#?}");
        assert!(reasons[0].contains("succeeded"), "{reasons:#?}");
    }

    #[test]
    fn the_determinism_oracle_reports_any_single_flipped_field() {
        use ompvar_obs::{EventKind, SpanKind, TraceEvent};
        use ompvar_sim::trace::FreqSample;
        let region = RegionSpec::measured(2, 2, 2, vec![Construct::Barrier]);
        let mut base = sim_runtime(2)
            .with_attribution(true)
            .run(&region, 9)
            .expect("sim run succeeds");
        // Positive zeros to flip the sign of, and one of everything else.
        base.wall_us = 0.0;
        base.intervals_us.get_mut(&0).expect("measured interval")[1] = 0.0;
        base.freq_samples.push(FreqSample { time: 7, core_ghz: vec![0.0, 2.5] });
        base.final_values.insert(3, 4);
        let ledger = base.attribution.as_mut().expect("ledger present");
        ledger.threads[1].by_source[0] = 0.0;
        assert!(!ledger.samples.is_empty() && base.counters.is_some());
        assert!(!base.thread_stats.is_empty() && base.trace.is_some());
        assert_eq!(first_difference(&base, &base.clone()), None);

        type Flip = fn(&mut RegionResult);
        let flips: [(&str, Flip); 19] = [
            ("wall_us", |r| r.wall_us = -0.0),
            ("intervals_us", |r| r.intervals_us.get_mut(&0).unwrap()[1] = -0.0),
            ("intervals_us", |r| r.intervals_us.get_mut(&0).unwrap().push(1.0)),
            ("intervals_us", |r| {
                let reps = r.intervals_us.remove(&0).unwrap();
                r.intervals_us.insert(1, reps);
            }),
            ("freq_samples", |r| r.freq_samples[0].time += 1),
            ("freq_samples", |r| r.freq_samples[0].core_ghz[0] = -0.0),
            ("freq_samples", |r| r.freq_samples.clear()),
            ("counters", |r| r.counters.as_mut().unwrap().events += 1),
            ("counters", |r| r.counters = None),
            ("thread_stats", |r| r.thread_stats[1].wait_time += 1),
            ("effects", |r| r.effects.barrier_arrivals += 1),
            ("trace", |r| r.trace.as_mut().unwrap().events[3].time_ns += 1),
            ("trace", |r| {
                r.trace.as_mut().unwrap().events.push(TraceEvent {
                    time_ns: 0,
                    thread: 0,
                    core: 0,
                    kind: EventKind::Begin(SpanKind::Task),
                })
            }),
            ("attribution", |r| r.attribution.as_mut().unwrap().threads[1].by_source[0] = -0.0),
            ("attribution", |r| r.attribution.as_mut().unwrap().threads[0].useful_ns += 1.0),
            ("attribution", |r| r.attribution.as_mut().unwrap().threads[0].rank += 1),
            ("attribution", |r| r.attribution.as_mut().unwrap().samples[0].time_ns += 1),
            ("attribution", |r| r.attribution = None),
            ("final_values", |r| *r.final_values.get_mut(&3).unwrap() += 1),
        ];
        for (i, (field, flip)) in flips.into_iter().enumerate() {
            let mut flipped = base.clone();
            flip(&mut flipped);
            assert_eq!(first_difference(&base, &flipped), Some(field), "flip {i}");
            assert_eq!(first_difference(&flipped, &base), Some(field), "flip {i}");
        }
        // NaN payloads count too: no float goes through `==`.
        let mut nan = base.clone();
        nan.wall_us = f64::NAN;
        assert_eq!(first_difference(&nan, &nan.clone()), None);
        let mut other_nan = nan.clone();
        other_nan.wall_us = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert_eq!(first_difference(&nan, &other_nan), Some("wall_us"));
    }

    #[test]
    fn invalid_region_is_reported_not_run() {
        let bad = RegionSpec {
            n_threads: 2,
            vars: Vec::new(),
            constructs: vec![Construct::MarkBegin(0)],
        };
        let reasons = check_case(&bad, 1);
        assert_eq!(reasons.len(), 1);
        assert!(reasons[0].contains("contract"), "{reasons:?}");
    }
}
