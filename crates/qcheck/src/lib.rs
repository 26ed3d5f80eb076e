//! Differential fuzzing of the two runtime backends.
//!
//! `ompvar-qcheck` closes the loop between the discrete-event simulator
//! and the native thread runtime: [`gen`] draws random well-formed
//! [`RegionSpec`](ompvar_rt::region::RegionSpec) programs from a seed,
//! [`oracle`] runs each one on **both** backends and compares their
//! harvested semantic effects against a static prediction from the
//! construct tree, and [`shrink`] reduces any failing program to a
//! minimal replayable counterexample carrying the same
//! `ompvar-analyze` verdict as the original.
//!
//! The oracles also close the loop on the static analyzer itself
//! (oracle #9, soundness): a hang-shaped failure on a program the
//! analyzer reported clean fails the campaign, while a hang on a
//! may-deadlock-flagged program is the static prediction coming true
//! and is accepted (flagged programs run sim-only).
//!
//! There is one driver and it is serial: [`run_fuzz_range`] runs a
//! range of cases on the calling thread. A case is a pure function of
//! `(config, case index)`, so a campaign can be cut into ranges. This
//! crate creates no thread: the harness plans the `fuzz` experiment as
//! case-range cells on the one campaign executor (`ompvar-repro fuzz
//! --fuzz-cases N --seed S --jobs J`), where `--jobs`, retry and
//! `--resume` come from, and folds their reports itself. Oracles #10
//! (partition) and #13 (crash-resume) police that machinery, so they
//! are computed in the harness, on the code the report is made by.

#![warn(missing_docs)]

pub mod gen;
pub mod oracle;
pub mod shrink;

use std::collections::BTreeMap;

use gen::GenConfig;
use ompvar_rt::region::RegionSpec;

/// One fuzzing campaign's parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of cases to run.
    pub cases: u64,
    /// Base seed; case `i` uses seed `base_seed.wrapping_add(i)`.
    pub base_seed: u64,
    /// Generator shape knobs.
    pub gen: GenConfig,
}

/// The seed used for case `case` of a campaign with base seed `base`.
///
/// Exposed so a single failing case can be replayed in isolation with
/// `--fuzz-cases 1 --seed <case_seed>`.
pub fn case_seed(base: u64, case: u64) -> u64 {
    base.wrapping_add(case)
}

/// One failing case: the program, why it failed, and its shrunk form.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzFailure {
    /// Index of the case within the campaign.
    pub case: u64,
    /// Seed that regenerates this exact program (see [`case_seed`]).
    pub case_seed: u64,
    /// The originally generated failing program.
    pub region: RegionSpec,
    /// Oracle violations reported for the original program.
    pub reasons: Vec<String>,
    /// Greedily shrunk still-failing program.
    pub shrunk: RegionSpec,
}

/// Outcome of a range of a fuzzing campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// How many generated constructs of each kind were exercised,
    /// counted recursively through nested bodies.
    pub coverage: BTreeMap<&'static str, u64>,
    /// All failing cases, in campaign order.
    pub failures: Vec<FuzzFailure>,
}

fn tally(cs: &[ompvar_rt::region::Construct], coverage: &mut BTreeMap<&'static str, u64>) {
    use ompvar_rt::region::Construct;
    for c in cs {
        *coverage.entry(gen::construct_kind(c)).or_insert(0) += 1;
        match c {
            Construct::ParallelRegion { body }
            | Construct::Repeat { body, .. }
            | Construct::Locked { body, .. } => tally(body, coverage),
            _ => {}
        }
    }
}

/// Predicate-call budget handed to the shrinker per failure; each call
/// runs both backends, so this bounds shrink time to a few seconds.
const SHRINK_BUDGET: usize = 300;

/// Run one case end to end: generate, tally coverage into `coverage`,
/// check every oracle, shrink on failure. Pure function of
/// `(cfg, case)`, which is what lets a campaign be split into ranges.
fn run_case(
    cfg: &FuzzConfig,
    case: u64,
    coverage: &mut BTreeMap<&'static str, u64>,
) -> Option<FuzzFailure> {
    let seed = case_seed(cfg.base_seed, case);
    let region = gen::generate(seed, &cfg.gen);
    tally(&region.constructs, coverage);
    let reasons = oracle::check_case(&region, seed);
    if reasons.is_empty() {
        return None;
    }
    let shrunk = shrink::shrink(
        &region,
        &mut |r| !oracle::check_case(r, seed).is_empty(),
        SHRINK_BUDGET,
    );
    Some(FuzzFailure {
        case,
        case_seed: seed,
        region,
        reasons,
        shrunk,
    })
}

/// Run the cases `cases` of a campaign on this thread: generate,
/// differentially check, and shrink every failure. The range is clipped
/// to the campaign (`0..cfg.cases`).
pub fn run_fuzz_range(cfg: &FuzzConfig, cases: std::ops::Range<u64>) -> FuzzReport {
    let cases = cases.start..cases.end.min(cfg.cases);
    let mut report = FuzzReport {
        cases: cases.end.saturating_sub(cases.start),
        ..FuzzReport::default()
    };
    for case in cases {
        if let Some(f) = run_case(cfg, case, &mut report.coverage) {
            report.failures.push(f);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_passes_and_tallies_coverage() {
        let cfg = FuzzConfig {
            cases: 5,
            base_seed: 42,
            gen: GenConfig::default(),
        };
        let rep = run_fuzz_range(&cfg, 0..cfg.cases);
        assert_eq!(rep.cases, 5);
        assert!(rep.failures.is_empty(), "failures: {:#?}", rep.failures);
        assert!(!rep.coverage.is_empty());
    }

    #[test]
    fn ranges_clip_to_the_campaign() {
        let cfg = FuzzConfig {
            cases: 5,
            base_seed: 42,
            gen: GenConfig::default(),
        };
        assert_eq!(run_fuzz_range(&cfg, 3..9).cases, 2);
        assert_eq!(run_fuzz_range(&cfg, 7..9), FuzzReport::default());
    }

    #[test]
    fn case_seed_is_replayable_offset() {
        assert_eq!(case_seed(100, 0), 100);
        assert_eq!(case_seed(100, 7), 107);
        // Replaying case 7 as a one-case campaign reproduces the program.
        let cfg = GenConfig::default();
        let a = gen::generate(case_seed(100, 7), &cfg);
        let b = gen::generate(case_seed(case_seed(100, 7), 0), &cfg);
        assert_eq!(a, b);
    }
}
