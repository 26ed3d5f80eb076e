//! Ablation study: remove one modeled variability mechanism at a time and
//! show which observed effect disappears.
//!
//! This experiment goes beyond the paper: because the substrate is a
//! simulator whose noise/DVFS/scheduling mechanisms are explicit, each of
//! the paper's variability classes can be *causally attributed* — not
//! just correlated — to its source:
//!
//! * the frequency-variation effect (Fig 6/7) disappears when DVFS is
//!   frozen, but survives the removal of OS noise;
//! * the unbound blow-ups (Fig 4) disappear when wake migration and
//!   misplacement are disabled, even with all noise still present;
//! * the residual pinned variability (Fig 3) disappears with OS noise
//!   removed, even with DVFS fully active.

use crate::claim::{qty, Claim};
use crate::common::{ExpOptions, ExpReport, Platform};
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use crate::grid::{self, Grid, Plan};
use ompvar_bench_epcc::EpccConfig;
use ompvar_core::Table;
use ompvar_sim::params::{NoiseParams, SimParams};

/// One model variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The full model.
    Full,
    /// OS noise sources removed (DVFS, scheduler churn intact).
    NoNoise,
    /// DVFS frozen at the maximum frequency (noise intact).
    NoFreq,
    /// Both OS noise and DVFS removed.
    NoNoiseNoFreq,
    /// Unbound placement churn removed: no wake migration, no
    /// misplacement, perfect balancer (noise and DVFS intact).
    NoChurn,
}

impl Variant {
    /// All variants in reporting order.
    pub const ALL: [Variant; 5] = [
        Variant::Full,
        Variant::NoNoise,
        Variant::NoFreq,
        Variant::NoNoiseNoFreq,
        Variant::NoChurn,
    ];

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Full => "full",
            Variant::NoNoise => "no-noise",
            Variant::NoFreq => "no-freq",
            Variant::NoNoiseNoFreq => "no-noise-no-freq",
            Variant::NoChurn => "no-churn",
        }
    }

    /// Apply the ablation to a parameter set.
    pub fn apply(&self, mut p: SimParams) -> SimParams {
        match self {
            Variant::Full => p,
            Variant::NoNoise => {
                p.noise = NoiseParams::quiet();
                p.sched.tick_cost = 0;
                p
            }
            Variant::NoFreq => {
                p.freq.pulse_mean_interval = u64::MAX / 4;
                p
            }
            Variant::NoNoiseNoFreq => {
                Variant::NoFreq.apply(Variant::NoNoise.apply(p))
            }
            Variant::NoChurn => {
                p.sched.wake_migrate_prob = 0.0;
                p.sched.wake_misplace_prob = 0.0;
                p.sched.balance_stale_prob = 0.0;
                p
            }
        }
    }
}

/// Frozen-frequency machines need flat turbo tables too (the bin table is
/// part of the machine spec).
fn freeze_clock(platform: Platform) -> ompvar_topology::MachineSpec {
    let mut m = platform.machine();
    let flat = m.clock.max_ghz;
    m.clock.base_ghz = flat;
    m.clock.turbo_bins.clear();
    m
}

/// The grid: two effects × five variants × `n_runs`.
pub fn plan(opts: &ExpOptions) -> Grid {
    let mut p = Plan::new("ablation", opts);
    let variant_rt = |platform: Platform, v: Variant, mut rt: ompvar_rt::simrt::SimRuntime| {
        rt.params = v.apply(rt.params.clone());
        if matches!(v, Variant::NoFreq | Variant::NoNoiseNoFreq) {
            rt.machine = freeze_clock(platform);
        }
        rt
    };
    // A — the frequency effect (Vera, 16 threads across 2 NUMA domains,
    // Fig 6 cell; same workload as fig7's syncbench driver).
    let reps = if opts.fast { 40 } else { opts.outer_reps() };
    let cfg = EpccConfig::syncbench_default().fast(reps);
    let region = syncbench::region_with_inner(&cfg, SyncConstruct::Reduction, 16, 300);
    let freq = Variant::ALL.map(|v| {
        let rt = variant_rt(Platform::Vera, v, Platform::Vera.numa_rt(&[0, 1], 8));
        (v, p.cells(format!("freq-{}", v.label()), rt, region.clone(), opts.n_runs(), grid::reps))
    });
    // B — the unbound blow-up (Dardel, 48 threads, Fig 4 cell).
    let cfg = EpccConfig::syncbench_default().fast(if opts.fast { 20 } else { 40 });
    let region = syncbench::region_with_inner(&cfg, SyncConstruct::Reduction, 48, 12);
    let unb = Variant::ALL.map(|v| {
        let rt = variant_rt(Platform::Dardel, v, Platform::Dardel.unbound_rt());
        (v, p.cells(format!("unbound-{}", v.label()), rt, region.clone(), opts.n_runs(), grid::reps))
    });

    p.fold(move |s| {
        let mut tables = Vec::new();
        let mut checks = Vec::new();

        // Per-variant median per-run CV.
        let freq = freq.map(|(v, runs)| (v, ompvar_core::percentile(&s.runset(&runs).run_cvs(), 50.0)));
        let mut t = Table::new(
            "Ablation A: Vera 16-thread cross-NUMA syncbench — median per-run CV",
            &["variant", "median cv"],
        );
        for (v, cv) in &freq {
            t.row(&[v.label().to_string(), format!("{cv:.5}")]);
        }
        tables.push(t);
        // The named variant's measurement, labelled `<variant> <what>`.
        let get = |xs: &[(Variant, f64)], v: Variant, what: &str| {
            qty(format!("{} {what}", v.label()), xs.iter().find(|(x, _)| *x == v).unwrap().1, "")
        };
        let full = get(&freq, Variant::Full, "cv");
        let terms = [
            get(&freq, Variant::NoFreq, "cv").lt(full.clone()),
            get(&freq, Variant::NoNoise, "cv").lt(full.clone()),
            get(&freq, Variant::NoNoiseNoFreq, "cv").lt(full.over(5.0)),
        ];
        checks.push(Claim::new("cross-NUMA variability is attributable to DVFS + OS noise", terms).check());

        // Per-variant pooled max/min spread of unbound execution.
        let unb = unb.map(|(v, runs)| (v, s.runset(&runs).pooled().spread()));
        let mut t = Table::new(
            "Ablation B: Dardel 48-thread unbound syncbench — pooled max/min spread",
            &["variant", "spread"],
        );
        for (v, s) in &unb {
            t.row(&[v.label().to_string(), format!("{s:.2}")]);
        }
        tables.push(t);
        let churn = get(&unb, Variant::NoChurn, "spread").lt(get(&unb, Variant::Full, "spread").over(3.0));
        checks.push(Claim::new("unbound blow-ups are placement-churn-driven", [churn]).check());

        ExpReport::new("ablation", tables, checks)
    })
}
