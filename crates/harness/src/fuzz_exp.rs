//! The `fuzz` experiment: differential fuzzing of the two backends.
//!
//! Every case draws a random well-formed region from the campaign seed,
//! runs it on the simulated *and* the native runtime, and holds both to
//! the statically predicted semantic effects of the construct tree
//! (plus determinism of the sim and agreement of measured-interval
//! shapes). Failures are shrunk to a minimal replayable counterexample.
//!
//! The campaign is a [`Grid`]: cell `fuzz/<k>` is the case range
//! `k·BATCH ..` on qcheck's one serial driver ([`run_fuzz_range`]), so
//! `--jobs`, retry and `--resume` apply per batch and nothing here
//! creates a thread. A batch's sample (`reduce_batch`) is its coverage
//! counts in [`ALL_KINDS`] order plus its failing cases *as text* — a
//! native-side failure need not reproduce, so the fold never re-derives
//! one: `fold_batches` adds the counts and concatenates the failures in
//! cell (= campaign) order. A case is a pure function of `(seed, case
//! index)`, so the report is the same at any job count and across
//! kill-and-resume (oracle #10, `check_partition`).
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
//! Three side checks are cells too, planned first so the sweep's tail
//! is small batches: the shrinker against a deliberately-broken oracle
//! ("no program may contain a Reduction"), oracle #10 on the batch
//! reduction and fold the cells and this fold run, and oracle #13 on the
//! `chaos` experiment's crash explorer (`chaos_exp::explore`).

use crate::chaos_exp;
use crate::common::{Check, ExpOptions, ExpReport};
use crate::grid::{Grid, Plan, Runs, Sample};
use ompvar_core::Table;
use ompvar_qcheck::gen::{self, GenConfig, ALL_KINDS};
use ompvar_qcheck::{case_seed, run_fuzz_range, shrink, FuzzConfig, FuzzFailure, FuzzReport};
use ompvar_rt::region::Construct;
use ompvar_supervisor::{attempt_seed, UnitError};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cases per batch cell. A constant, not a knob: large enough that a
/// cell's journal line and completion callback are noise beside its
/// work — measured on the 2-core box, ≈ 12 µs per cell (4 096 empty
/// 19-count cells through the journaled executor, at `--jobs` 1 and 2)
/// against ≈ 5.6 ms for 32 cases at ≈ 175 µs each, 0.2 % — and small
/// enough that `--fast` still spans batches and a kill loses little.
const BATCH: u64 = 32;

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

/// The campaign under attempt `attempt` of a cell: a retry re-seeds it,
/// attempt 0 keeps `case_seed = seed + case`.
fn campaign(seed: u64, attempt: u32, cases: u64) -> FuzzConfig {
    FuzzConfig { cases, base_seed: attempt_seed(seed, attempt), gen: GenConfig::with_vars() }
}

/// A failing case as the report prints it: replay seed, oracle
/// violations and shrunk program.
pub(crate) fn failure_detail(f: &FuzzFailure) -> String {
    let replay = shrink::dump(&f.shrunk, f.case_seed);
    format!("case {}: {}\n  {replay}", f.case, f.reasons.join("; "))
}

/// What a batch cell journals: its coverage counts in [`ALL_KINDS`]
/// order and its failing cases as text.
type Batch = (Vec<f64>, Vec<String>);

/// The batch reduction: a range of cases, run, as its cell journals it.
fn reduce_batch(rep: &FuzzReport) -> Batch {
    let count = |kind| rep.coverage.get(kind).copied().unwrap_or(0) as f64;
    (ALL_KINDS.iter().map(count).collect(), rep.failures.iter().map(failure_detail).collect())
}

/// A campaign as the report sees it: coverage per kind, failures' text.
#[derive(Debug, PartialEq)]
struct Totals {
    coverage: [u64; ALL_KINDS.len()],
    failures: Vec<String>,
}

/// The batch fold: coverage counts add, failure texts concatenate in
/// cell (= campaign) order.
fn fold_batches<'a>(batches: impl IntoIterator<Item = (&'a [f64], &'a [String])>) -> Totals {
    let mut t = Totals { coverage: [0; ALL_KINDS.len()], failures: Vec::new() };
    for (counts, failures) in batches {
        for (total, n) in t.coverage.iter_mut().zip(counts) {
            *total += *n as u64;
        }
        t.failures.extend_from_slice(failures);
    }
    t
}

/// [`fold_batches`] over batches as [`check_partition`] holds them.
fn fold_owned(batches: &[Batch]) -> Totals {
    fold_batches(batches.iter().map(|(counts, failures)| (&counts[..], &failures[..])))
}

/// Oracle #10, the law the batch cells rest on: cases `0..n` cut into
/// ranges of 1, of 5 and of `n`, each range reduced by `batch` and the
/// ranges folded by `fold` like cells, equal the campaign reduced as one
/// batch. Returns the violations.
fn check_partition(
    n: u64,
    batch: impl Fn(Range<u64>) -> Batch,
    fold: impl Fn(&[Batch]) -> Totals,
) -> Vec<String> {
    let whole = fold(&[batch(0..n)]);
    let mut reasons = Vec::new();
    for size in [1, 5, n.max(1)] {
        let cut = (0..n).step_by(size as usize).map(|first| batch(first..n.min(first + size)));
        let folded = fold(&cut.collect::<Vec<_>>());
        if folded != whole {
            reasons.push(format!(
                "ranges of {size}, folded, differ from the campaign run as one batch:\n    \
                 whole  {whole:?}\n    folded {folded:?}"
            ));
        }
    }
    reasons
}

/// A side check's sample: its verdict and the detail behind it. An
/// oracle passes when it reports no violations.
fn verdict(violations: Vec<String>, clean: String) -> Result<Sample, UnitError> {
    let passed = violations.is_empty();
    let detail = if passed { clean } else { violations.join("; ") };
    Sample::noted(vec![f64::from(u8::from(passed))], vec![detail])
}

/// The grid: three side-check cells, then one cell per case batch.
pub fn plan(opts: &ExpOptions) -> Grid {
    let cases = opts.fuzz_cases.unwrap_or(if opts.fast { 60 } else { 200 });
    let seed = opts.seed;
    let mut plan = Plan::new("fuzz", opts);

    let shrinker = plan.cell("shrinker", move |attempt| {
        let cfg = campaign(seed, attempt, cases);
        let (minimal, detail) = shrinker_demo(cfg.base_seed, &cfg.gen);
        Sample::noted(vec![f64::from(u8::from(minimal))], vec![detail])
    });
    // Oracle #10 on a small side campaign: a bounded budget keeps this a
    // structural check on the reduction and the fold, not a second full
    // campaign.
    let partition = plan.cell("partition", move |attempt| {
        let cfg = campaign(seed, attempt, cases.min(16));
        let n = cfg.cases;
        let clean = format!("{n} case(s) as one range vs ranges of 1 / 5 / {n}: reports identical");
        verdict(check_partition(n, |r| reduce_batch(&run_fuzz_range(&cfg, r)), fold_owned), clean)
    });
    // Oracle #13: the `chaos` inner campaign at n = 4, killed after every
    // single write op, must resume to the uncrashed report. A scratch
    // directory per call: two cells of one process may share a seed.
    let crash_resume = plan.cell("crash-resume", move |attempt| {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let tag = format!("{}_{}", std::process::id(), CALLS.fetch_add(1, Ordering::Relaxed));
        let scratch = std::env::temp_dir().join(format!("ompvar_crash_resume_{tag}"));
        let seed = attempt_seed(seed, attempt);
        let units = chaos_exp::units(&chaos_exp::region(true), seed, 4);
        let explored = chaos_exp::explore(&scratch, seed, &units, false);
        let _ = std::fs::remove_dir_all(&scratch);
        let clean = "every crash point resumed to the uncrashed reference".to_string();
        verdict(explored.failures, clean)
    });
    let batches: Runs = (0..cases)
        .step_by(BATCH as usize)
        .enumerate()
        .map(|(k, first)| {
            plan.cell(k, move |attempt| {
                let cfg = campaign(seed, attempt, cases);
                let (counts, failures) = reduce_batch(&run_fuzz_range(&cfg, first..first + BATCH));
                Sample::noted(counts, failures)
            })
        })
        .reduce(|a, b| a.start..b.end)
        .unwrap_or(0..0);

    plan.fold(move |s| {
        let Totals { coverage, failures } = fold_batches(s.noted(&batches));

        let mut t = Table::new(
            &format!(
                "Fuzz: {cases} differential case(s), base seed {seed}, {} failure(s)",
                failures.len()
            ),
            &["construct kind", "generated"],
        );
        for (kind, n) in ALL_KINDS.iter().zip(coverage) {
            t.row(&[kind.to_string(), n.to_string()]);
        }

        let mut checks = Vec::new();
        checks.push(Check::new(
            "both backends agree with predicted effects on every case",
            failures.is_empty(),
            if failures.is_empty() {
                format!("{cases} case(s), zero oracle violations")
            } else {
                failures.join("\n")
            },
        ));

        let missing: Vec<&str> = ALL_KINDS
            .into_iter()
            .zip(coverage)
            .filter_map(|(kind, n)| (n == 0).then_some(kind))
            .collect();
        // Full grammar coverage is only a fair demand with a real budget; a
        // handful of cases cannot visit all 19 kinds.
        let coverage_expected = cases >= 50;
        checks.push(Check::new(
            "campaign exercises every construct kind",
            missing.is_empty() || !coverage_expected,
            if missing.is_empty() {
                format!("all {} kinds covered", ALL_KINDS.len())
            } else if coverage_expected {
                format!("never generated: {missing:?}")
            } else {
                format!(
                    "{} of {} kinds in {cases} case(s); full coverage requires ≥ 50",
                    ALL_KINDS.len() - missing.len(),
                    ALL_KINDS.len(),
                )
            },
        ));

        let (probe, gen) = (case_seed(seed, 0), GenConfig::with_vars());
        let regen_ok = gen::generate(probe, &gen) == gen::generate(probe, &gen);
        checks.push(Check::new(
            "generation is deterministic per seed",
            regen_ok,
            format!("case 0 (seed {probe}) regenerated identically: {regen_ok}"),
        ));

        let side = [
            ("shrinker reduces a broken-oracle failure to one construct", &shrinker),
            ("a campaign split into case ranges merges to the whole (oracle #10)", &partition),
            ("resume after any single crash matches the uncrashed run (oracle #13)", &crash_resume),
        ];
        checks.extend(side.map(|(name, cell)| {
            let (passed, detail) = s.noted(cell).next().expect("a side check is one cell");
            Check::new(name, passed == [1.0], detail.concat())
        }));

        ExpReport::new("fuzz", vec![t], checks)
    })
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
        let rep = plan(&opts).run();
        assert!(rep.all_passed(), "fuzz checks failed:\n{}", rep.render());
    }

    #[test]
    fn case_budget_flag_is_respected() {
        let opts = ExpOptions {
            fuzz_cases: Some(3),
            ..ExpOptions::fast()
        };
        let rep = plan(&opts).run();
        assert!(rep.tables[0].render().contains("3 differential case(s)"));
    }

    /// Oracle #10 on the shipped reduction and fold, at the 0-case edge
    /// too — where the report still folds.
    #[test]
    fn partition_oracle_passes_on_a_small_campaign() {
        for cases in [0, 6] {
            let cfg = campaign(20230714, 0, cases);
            let reasons = check_partition(cases, |r| reduce_batch(&run_fuzz_range(&cfg, r)), fold_owned);
            assert!(reasons.is_empty(), "{reasons:#?}");
        }
        let rep = plan(&ExpOptions { fuzz_cases: Some(0), ..ExpOptions::fast() }).run();
        assert!(rep.all_passed(), "{}", rep.render());
        assert!(rep.tables[0].title().contains("0 differential case(s), base seed 20230714, 0 failure(s)"));
    }

    /// … and it reports a reduction or a fold that loses a batch's text.
    #[test]
    fn the_partition_oracle_reports_a_lossy_reduction_or_fold() {
        // Six cases that all fail: every batch carries text.
        let gen = GenConfig::default();
        let run = |cases: Range<u64>| FuzzReport {
            cases: cases.end - cases.start,
            coverage: [("Barrier", cases.end - cases.start)].into(),
            failures: cases
                .map(|case| FuzzFailure {
                    case,
                    case_seed: case,
                    region: gen::generate(case, &gen),
                    reasons: vec![format!("reason {case}")],
                    shrunk: gen::generate(case, &gen),
                })
                .collect(),
        };
        let shipped = |r: Range<u64>| reduce_batch(&run(r));
        assert_eq!(check_partition(6, shipped, fold_owned), Vec::<String>::new());
        assert_eq!(fold_owned(&[shipped(0..6)]).failures.len(), 6);

        let drops_last_batch_text = |r: Range<u64>| {
            let (counts, failures) = shipped(r.clone());
            (counts, if r.start == 5 { Vec::new() } else { failures })
        };
        let loses_last_batch = |bs: &[Batch]| fold_owned(&bs[..bs.len().saturating_sub(1)]);
        // The cut into one range of 6 is the campaign as one batch: only
        // the finer cuts can tell.
        let cuts = |reasons: Vec<String>| {
            reasons.iter().map(|r| r.split(',').next().unwrap().to_string()).collect::<Vec<_>>()
        };
        let finer = ["ranges of 1", "ranges of 5"];
        assert_eq!(cuts(check_partition(6, drops_last_batch_text, fold_owned)), finer);
        assert_eq!(cuts(check_partition(6, shipped, loses_last_batch)), finer);
    }
}
