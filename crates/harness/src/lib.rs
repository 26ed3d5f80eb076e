#![warn(missing_docs)]

//! # ompvar-harness — the paper's experiments
//!
//! One module per table/figure of the evaluation, each producing an
//! [`common::ExpReport`] with paper-style tables and shape checks, all
//! listed once in the [`EXPERIMENTS`] registry. Multi-run measurements
//! fold over [`ompvar_bench_epcc::run_seeds`]; campaigns go through the
//! one front door, [`common::run_journaled`].

pub mod common;
pub mod table2;

pub use common::{Check, ExpOptions, ExpReport, Platform};
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig67;
pub mod ablation;
pub mod taskbench_exp;
pub mod chunks;
pub mod faults_exp;
pub mod fuzz_exp;
pub mod analyze_exp;
pub mod trace_exp;
pub mod campaign_exp;
pub mod chaos_exp;
pub mod variability;

use analyze_exp::Family::{self, Sched, Stream, Sync, Task};

/// One runnable experiment: everything the CLI and the analyzer need to
/// know about it, in one row.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// CLI target name; also the report and journal-unit name.
    pub name: &'static str,
    /// Execute and report.
    pub run: fn(&ExpOptions) -> ExpReport,
    /// Benchmark families whose built-in region specs the experiment
    /// measures — what the static pre-flight gate analyzes before it
    /// runs ([`analyze_exp::specs_for`]). Empty for experiments that
    /// generate or perturb their programs dynamically and guard
    /// themselves.
    pub families: &'static [Family],
}

/// Every experiment, in `all` order. The only list of experiment names:
/// usage text, target validation, dispatch and the pre-flight gate all
/// read it.
pub const EXPERIMENTS: [Experiment; 18] = [
    Experiment { name: "table2", run: table2::run, families: &[Sched] },
    Experiment { name: "fig1", run: fig1::run, families: &[Sync] },
    Experiment { name: "fig2", run: fig2::run, families: &[Stream] },
    Experiment { name: "fig3", run: fig3::run, families: &[Sync, Sched, Stream] },
    Experiment { name: "fig4", run: fig4::run, families: &[Sync, Sched, Stream] },
    Experiment { name: "fig5", run: fig5::run, families: &[Sync, Sched, Stream] },
    Experiment { name: "fig6", run: fig67::run_fig6, families: &[Sync, Sched] },
    Experiment { name: "fig7", run: fig67::run_fig7, families: &[Sync, Sched] },
    Experiment { name: "ablation", run: ablation::run, families: &[Sync] },
    Experiment { name: "taskbench", run: taskbench_exp::run, families: &[Task] },
    Experiment { name: "chunks", run: chunks::run, families: &[Sched] },
    Experiment { name: "faults", run: faults_exp::run, families: &[] },
    Experiment { name: "fuzz", run: fuzz_exp::run, families: &[] },
    Experiment { name: "analyze", run: analyze_exp::run, families: &[] },
    Experiment { name: "trace", run: trace_exp::run, families: &[] },
    Experiment { name: "campaign", run: campaign_exp::run, families: &[Sched] },
    Experiment { name: "variability", run: variability::run, families: &[Sync, Sched] },
    Experiment { name: "chaos", run: chaos_exp::run, families: &[] },
];

/// Resolve CLI targets against the registry. Every name is validated
/// before anything runs — a typo in the last target must not surface
/// only after hours of earlier experiments — and the offender is the
/// error. `all` anywhere selects the whole registry in order; otherwise
/// duplicates run once, in first-occurrence order.
pub fn select(targets: &[String]) -> Result<Vec<&'static Experiment>, &str> {
    let mut picked: Vec<&'static Experiment> = Vec::new();
    let mut all = false;
    for t in targets {
        match EXPERIMENTS.iter().find(|e| e.name == t) {
            Some(e) if !picked.iter().any(|p| p.name == e.name) => picked.push(e),
            Some(_) => {}
            None if t == "all" => all = true,
            None => return Err(t),
        }
    }
    Ok(if all { EXPERIMENTS.iter().collect() } else { picked })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn names_are_unique_and_all_selects_the_registry_in_order() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|p| p.name != e.name), "duplicate {}", e.name);
            assert_ne!(e.name, "all", "`all` is the selector, not an experiment");
        }
        let names = |v: Vec<&Experiment>| v.iter().map(|e| e.name).collect::<Vec<_>>();
        let registry: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names(select(&strings(&["all"])).unwrap()), registry);
        assert_eq!(names(select(&strings(&["fig2", "all"])).unwrap()), registry);
        assert_eq!(
            names(select(&strings(&["fig2", "table2", "fig2"])).unwrap()),
            ["fig2", "table2"],
            "first-occurrence order, duplicates once"
        );
        assert_eq!(select(&strings(&["fig2", "fig99"])).unwrap_err(), "fig99");
    }

    /// Corpus hygiene through the registry: whatever an experiment
    /// declares it measures analyzes clean and validates; the dynamic
    /// experiments declare nothing.
    #[test]
    fn every_declared_family_analyzes_clean() {
        let opts = ExpOptions::fast();
        for e in &EXPERIMENTS {
            let specs = analyze_exp::specs_for(e.families, &opts);
            assert_eq!(specs.is_empty(), e.families.is_empty(), "{}", e.name);
            for (label, spec) in specs {
                let a = ompvar_analyze::analyze(&spec);
                assert!(a.verdict().is_empty(), "{}/{label} is not clean:\n{}", e.name, a.render());
                assert!(spec.validate().is_ok(), "{}/{label} fails validation", e.name);
            }
        }
        for dynamic in ["faults", "fuzz", "analyze", "trace", "chaos"] {
            let e = EXPERIMENTS.iter().find(|e| e.name == dynamic).unwrap();
            assert!(e.families.is_empty(), "{dynamic} builds its programs dynamically");
        }
        for gated in ["variability", "campaign", "table2", "fig7"] {
            let e = EXPERIMENTS.iter().find(|e| e.name == gated).unwrap();
            assert!(!e.families.is_empty(), "{gated} must pass the pre-flight gate");
        }
    }
}
