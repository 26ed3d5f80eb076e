#![warn(missing_docs)]

//! # ompvar-harness — the paper's experiments
//!
//! One module per table/figure of the evaluation, each producing an
//! [`common::ExpReport`] with paper-style tables and shape checks, all
//! listed once in the [`EXPERIMENTS`] registry. A paper experiment —
//! and `fuzz` and `variability` beside them — is a declared
//! [`grid::Grid`], seeded cells plus a fold, so whoever holds the grid
//! owns scheduling: the sweep's executor is the only thread pool.
//! Campaigns go through the one front door, [`common::run_journaled`].

pub mod claim;
pub mod common;
pub mod grid;
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

use Body::{Grid, Whole};

/// How an experiment does its work.
#[derive(Debug, Clone, Copy)]
pub enum Body {
    /// A declared grid: seeded cells and the fold over their samples.
    Grid(fn(&ExpOptions) -> grid::Grid),
    /// One cell whose sample is the finished report: the experiment
    /// schedules (and, where it runs a campaign, journals) itself.
    Whole(fn(&ExpOptions) -> ExpReport),
}

/// One runnable experiment: everything the CLI needs to know about it,
/// in one row.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// CLI target name and report name; every cell name starts with it.
    pub name: &'static str,
    /// The work.
    pub body: Body,
}

impl Experiment {
    /// The experiment's grid under `opts`. Deterministic: the same
    /// options give the same cell names in the same order (calibration
    /// probes run here; nothing is built per seed).
    pub fn plan(&self, opts: &ExpOptions) -> grid::Grid {
        match self.body {
            Body::Grid(plan) => plan(opts),
            Body::Whole(run) => grid::Grid::whole(self.name, opts, run),
        }
    }

    /// Plan, run the cells in order on this thread, fold.
    pub fn run(&self, opts: &ExpOptions) -> ExpReport {
        self.plan(opts).run()
    }
}

/// Every experiment, in `all` order. The only list of experiment names:
/// usage text, target validation and dispatch all read it.
pub const EXPERIMENTS: [Experiment; 18] = [
    Experiment { name: "table2", body: Grid(table2::plan) },
    Experiment { name: "fig1", body: Grid(fig1::plan) },
    Experiment { name: "fig2", body: Grid(fig2::plan) },
    Experiment { name: "fig3", body: Grid(fig3::plan) },
    Experiment { name: "fig4", body: Grid(fig4::plan) },
    Experiment { name: "fig5", body: Grid(fig5::plan) },
    Experiment { name: "fig6", body: Grid(fig67::plan_fig6) },
    Experiment { name: "fig7", body: Grid(fig67::plan_fig7) },
    Experiment { name: "ablation", body: Grid(ablation::plan) },
    Experiment { name: "taskbench", body: Grid(taskbench_exp::plan) },
    Experiment { name: "chunks", body: Grid(chunks::plan) },
    Experiment { name: "faults", body: Whole(faults_exp::run) },
    Experiment { name: "fuzz", body: Grid(fuzz_exp::plan) },
    Experiment { name: "analyze", body: Whole(analyze_exp::run) },
    Experiment { name: "trace", body: Whole(trace_exp::run) },
    Experiment { name: "campaign", body: Whole(campaign_exp::run) },
    Experiment { name: "variability", body: Grid(variability::plan) },
    Experiment { name: "chaos", body: Whole(chaos_exp::run) },
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

    /// Planning is deterministic and cell names are campaign-unique:
    /// the journal keys cells by name, so both are what make a resumed
    /// or re-sharded sweep fold the same samples.
    #[test]
    fn plans_are_deterministic_and_cell_names_unique_across_the_sweep() {
        let opts = ExpOptions::fast();
        let mut seen = std::collections::HashSet::new();
        for e in &EXPERIMENTS {
            let names = |g: grid::Grid| g.cells.into_iter().map(|c| c.name).collect::<Vec<_>>();
            let cells = names(e.plan(&opts));
            assert_eq!(cells, names(e.plan(&opts)), "{} plans differently twice", e.name);
            match e.body {
                Body::Grid(_) => assert!(cells.len() > 1, "{} is a grid of one", e.name),
                Body::Whole(_) => {
                    assert_eq!(cells, [e.name]);
                    // Everything else runs on the sweep's pool and journal.
                    assert!(["faults", "analyze", "trace", "campaign", "chaos"].contains(&e.name), "{}", e.name);
                }
            }
            if e.name == "fuzz" {
                let batches = cells.iter().filter(|c| c["fuzz/".len()..].parse::<u64>().is_ok()).count();
                assert!(batches > 1, "fuzz --fast is one batch: {cells:?}");
            }
            for c in cells {
                assert!(c == e.name || c.starts_with(&format!("{}/", e.name)), "{c}");
                assert!(seen.insert(c.clone()), "duplicate cell name {c}");
            }
        }
    }
}
