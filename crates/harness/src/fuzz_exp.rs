//! The `fuzz` experiment: differential fuzzing of the two backends.
//!
//! Drives [`ompvar_qcheck::run_fuzz_parallel`]: every case draws a
//! random well-formed region from the campaign seed, runs it on the
//! simulated *and* the native runtime, and holds both to the statically
//! predicted semantic effects of the construct tree (plus determinism of
//! the sim and agreement of measured-interval shapes). Failures are
//! shrunk to a minimal replayable counterexample. `--jobs N` fans the
//! cases across N worker threads; each case is a pure function of
//! `(config, case index)`, so the report — and every check below — is
//! identical at any job count, which oracle #10 verifies on a small
//! side campaign.
//!
//! The campaign generates **clause-annotated** programs
//! ([`GenConfig::with_vars`]): named variables under
//! shared/private/firstprivate clauses, lock-protected shared accesses,
//! and reduction loops — race-free by construction, so the static race
//! pass must report them clean and both backends must agree on every
//! final shared-variable value bit-for-bit (oracle #14). Statically
//! race-flagged programs run sim-only.
//!
//! The case budget defaults to 200 (60 with `--fast`) and can be set
//! with `--fuzz-cases N`; `--seed` picks the campaign base seed. A
//! failing case `i` replays in isolation with
//! `--fuzz-cases 1 --seed <base + i>` (the seed is printed in the
//! failure detail).
//!
//! One check runs the shrinker against a deliberately-broken oracle
//! ("no program may contain a Reduction") to demonstrate that a fresh
//! failure reduces to a one-construct program.

use crate::common::{Check, ExpOptions, ExpReport};
use ompvar_core::Table;
use ompvar_qcheck::gen::{self, GenConfig, ALL_KINDS};
use ompvar_qcheck::{case_seed, oracle, run_fuzz_parallel, shrink, FuzzConfig};
use ompvar_rt::region::Construct;

/// Does the block contain a `Reduction` at any nesting depth?
fn has_reduction(cs: &[Construct]) -> bool {
    cs.iter().any(|c| match c {
        Construct::Reduction { .. } => true,
        Construct::Repeat { body, .. }
        | Construct::ParallelRegion { body }
        | Construct::Locked { body, .. } => has_reduction(body),
        _ => false,
    })
}

/// Shrinker demonstration against a deliberately-broken oracle: the
/// first generated program containing a `Reduction` must reduce to a
/// single-construct single-thread program. The probe also requires an
/// analyzer-clean program: shrinking preserves the verdict (the set of
/// Warn-or-worse codes), so a flagged probe would legitimately keep the
/// constructs that carry its diagnostic — only a clean probe is
/// required to collapse all the way down. Returns (passed, detail).
fn shrinker_demo(seed: u64, cfg: &GenConfig) -> (bool, String) {
    let mut probe = seed;
    let region = loop {
        let r = gen::generate(probe, cfg);
        if has_reduction(&r.constructs) && ompvar_analyze::analyze(&r).verdict().is_empty() {
            break r;
        }
        probe = probe.wrapping_add(1);
    };
    let before = region.constructs.len();
    let shrunk = shrink::shrink(&region, &mut |r| has_reduction(&r.constructs), 2000);
    let minimal = shrunk.n_threads == 1
        && shrunk.constructs.len() == 1
        && matches!(shrunk.constructs[0], Construct::Reduction { .. });
    (
        minimal,
        format!(
            "broken oracle 'contains Reduction', clean probe seed {probe}: \
             {before} top-level construct(s) → {:?} on {} thread(s)",
            shrunk.constructs, shrunk.n_threads
        ),
    )
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let cases = opts
        .fuzz_cases
        .unwrap_or(if opts.fast { 60 } else { 200 });
    let cfg = FuzzConfig {
        cases,
        base_seed: opts.seed,
        gen: GenConfig::with_vars(),
    };
    let rep = run_fuzz_parallel(&cfg, ompvar_supervisor::resolve_jobs(opts.jobs));

    let mut t = Table::new(
        &format!(
            "Fuzz: {} differential case(s), base seed {}, {} failure(s)",
            rep.cases,
            cfg.base_seed,
            rep.failures.len()
        ),
        &["construct kind", "generated"],
    );
    for kind in ALL_KINDS {
        let n = rep.coverage.get(kind).copied().unwrap_or(0);
        t.row(&[kind.to_string(), n.to_string()]);
    }

    let mut checks = Vec::new();
    let detail = if rep.failures.is_empty() {
        format!("{} case(s), zero oracle violations", rep.cases)
    } else {
        // Render every failure with its replay seed and shrunk program.
        rep.failures
            .iter()
            .map(|f| {
                format!(
                    "case {}: {}\n  {}",
                    f.case,
                    f.reasons.join("; "),
                    shrink::dump(&f.shrunk, f.case_seed)
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    checks.push(Check::new(
        "both backends agree with predicted effects on every case",
        rep.failures.is_empty(),
        detail,
    ));

    let missing: Vec<&str> = ALL_KINDS
        .into_iter()
        .filter(|k| !rep.coverage.contains_key(k))
        .collect();
    // Full grammar coverage is only a fair demand with a real budget; a
    // handful of cases cannot visit all 19 kinds.
    let coverage_expected = rep.cases >= 50;
    checks.push(Check::new(
        "campaign exercises every construct kind",
        missing.is_empty() || !coverage_expected,
        if missing.is_empty() {
            format!("all {} kinds covered", ALL_KINDS.len())
        } else if coverage_expected {
            format!("never generated: {missing:?}")
        } else {
            format!(
                "{} of {} kinds in {} case(s); full coverage requires ≥ 50",
                ALL_KINDS.len() - missing.len(),
                ALL_KINDS.len(),
                rep.cases
            )
        },
    ));

    let probe = case_seed(cfg.base_seed, 0);
    let regen_ok = gen::generate(probe, &cfg.gen) == gen::generate(probe, &cfg.gen);
    checks.push(Check::new(
        "generation is deterministic per seed",
        regen_ok,
        format!("case 0 (seed {probe}) regenerated identically: {regen_ok}"),
    ));

    let (minimal, demo_detail) = shrinker_demo(cfg.base_seed, &cfg.gen);
    checks.push(Check::new(
        "shrinker reduces a broken-oracle failure to one construct",
        minimal,
        demo_detail,
    ));

    // Oracle #10 on a small side campaign: the parallel driver must
    // produce a byte-identical report to the sequential one. A bounded
    // budget keeps this a structural check on the drivers, not a second
    // full campaign.
    let equiv_cfg = FuzzConfig {
        cases: cases.min(16),
        base_seed: opts.seed,
        gen: GenConfig::with_vars(),
    };
    let violations = oracle::check_jobs_equivalence(&equiv_cfg, 8);
    checks.push(Check::new(
        "parallel fuzz driver reports identically to sequential (oracle #10)",
        violations.is_empty(),
        if violations.is_empty() {
            format!("{} case(s) at jobs=1 vs jobs=8: reports identical", equiv_cfg.cases)
        } else {
            violations.join("; ")
        },
    ));

    // Oracle #13: kill a journaled campaign after every single
    // checkpoint write (via the chaos shim's crash points) and demand
    // each resume reproduces the uncrashed result exactly.
    let violations = oracle::check_crash_resume(opts.seed);
    checks.push(Check::new(
        "resume after any single crash matches the uncrashed run (oracle #13)",
        violations.is_empty(),
        if violations.is_empty() {
            "every crash point resumed to the uncrashed reference".to_string()
        } else {
            violations.join("; ")
        },
    ));

    ExpReport::new("fuzz", vec![t], checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let opts = ExpOptions {
            fuzz_cases: Some(12),
            ..ExpOptions::fast()
        };
        let rep = run(&opts);
        assert!(rep.all_passed(), "fuzz checks failed:\n{}", rep.render());
    }

    #[test]
    fn case_budget_flag_is_respected() {
        let opts = ExpOptions {
            fuzz_cases: Some(3),
            ..ExpOptions::fast()
        };
        let rep = run(&opts);
        assert!(rep.tables[0].render().contains("3 differential case(s)"));
    }
}
