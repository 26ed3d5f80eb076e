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
//! range of cases on the calling thread ([`run_fuzz`]: all of them). A
//! case is a pure function of `(config, case index)` and
//! [`FuzzReport::merge`] is additive, so ranges merged are the campaign
//! (oracle #10, [`oracle::check_partition`]). This crate creates no
//! thread: the harness plans the `fuzz` experiment as case-range cells
//! on the one campaign executor (`ompvar-repro fuzz --fuzz-cases N
//! --seed S --jobs J`), where `--jobs`, retry and `--resume` come from.

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

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 200,
            base_seed: 20230714,
            gen: GenConfig::default(),
        }
    }
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

/// Outcome of a fuzzing campaign.
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

impl FuzzReport {
    /// Did every case pass every oracle?
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Fold another part of the same campaign in: case and coverage
    /// counts add, failures keep campaign order whatever order the
    /// parts arrive in.
    pub fn merge(&mut self, part: FuzzReport) {
        self.cases += part.cases;
        for (kind, n) in part.coverage {
            *self.coverage.entry(kind).or_insert(0) += n;
        }
        self.failures.extend(part.failures);
        self.failures.sort_by_key(|f| f.case);
    }
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

/// Run a whole fuzzing campaign: [`run_fuzz_range`] over every case.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    run_fuzz_range(cfg, 0..cfg.cases)
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
        let rep = run_fuzz(&cfg);
        assert_eq!(rep.cases, 5);
        assert!(rep.all_passed(), "failures: {:#?}", rep.failures);
        assert!(!rep.coverage.is_empty());
    }

    #[test]
    fn ranges_clip_to_the_campaign_and_merge_in_any_order() {
        let cfg = FuzzConfig {
            cases: 5,
            base_seed: 42,
            gen: GenConfig::default(),
        };
        assert_eq!(run_fuzz_range(&cfg, 3..9).cases, 2);
        assert_eq!(run_fuzz_range(&cfg, 7..9), FuzzReport::default());
        let fail = |case| FuzzFailure {
            case,
            case_seed: case_seed(42, case),
            region: gen::generate(case_seed(42, case), &cfg.gen),
            reasons: vec![format!("reason {case}")],
            shrunk: gen::generate(case_seed(42, case), &cfg.gen),
        };
        let part = |cases, kind, n, failures: &[u64]| FuzzReport {
            cases,
            coverage: BTreeMap::from([(kind, n)]),
            failures: failures.iter().map(|&c| fail(c)).collect(),
        };
        let (a, b) = (part(3, "Barrier", 2, &[0, 2]), part(2, "Atomic", 1, &[4]));
        let mut ab = FuzzReport::default();
        ab.merge(a.clone());
        ab.merge(b.clone());
        let mut ba = FuzzReport::default();
        ba.merge(b);
        ba.merge(a);
        assert_eq!(ab, ba);
        assert_eq!(ab.cases, 5);
        assert_eq!(ab.coverage, BTreeMap::from([("Atomic", 1), ("Barrier", 2)]));
        assert_eq!(ab.failures.iter().map(|f| f.case).collect::<Vec<_>>(), [0, 2, 4]);
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
