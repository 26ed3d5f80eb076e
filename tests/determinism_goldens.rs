//! Determinism golden suite: pins the simulator's observable output,
//! bit for bit, across (a) replays of the same seed and (b) history —
//! via digests committed in `tests/golden/sim_report_digests.txt`,
//! generated *before* the event-queue/fast-forward optimizations landed
//! and required to stay byte-identical ever since. Matching them is
//! matching the pre-optimization engine they were generated on.
//!
//! Each case digests the engine's raw [`SimReport`] (or, for runs that
//! are *supposed* to fail, the full error value) through its `Debug`
//! rendering. Rust's `f64` Debug formatting is shortest-roundtrip, so
//! two reports render to the same string iff every float in them is
//! bit-identical — no tolerance, no rounding.
//!
//! The corpus spans the surfaces that matter: generator-drawn programs
//! (the fuzz campaign's grammar, default and campaign-scale configs),
//! both modeled machines (vera, dardel), sterile and calibrated
//! parameter sets, fault injections of every kind, the frequency
//! logger, tracing on and off, and a known runtime-deadlock straggler.
//!
//! To regenerate after an *intentional* output change (a new counter, a
//! model fix), run:
//!
//! ```text
//! UPDATE_SIM_GOLDENS=1 cargo test --test determinism_goldens
//! ```
//!
//! and commit the diff — the diff itself is then the review surface.

use ompvar_qcheck::gen::{self, GenConfig};
use ompvar_rt::region::{Construct, RegionSpec, Schedule};
use ompvar_rt::simrt::{FreqLoggerCfg, SimRuntime};
use ompvar_rt::RtConfig;
use ompvar_sim::fault::FaultPlan;
use ompvar_sim::params::SimParams;
use ompvar_sim::time::{MS, SEC, US};
use ompvar_topology::{MachineSpec, Places};
use std::fmt::Write as _;

/// Seed base for the generator-drawn part of the corpus (fixed forever:
/// the committed digests depend on it).
const GOLDEN_SEED: u64 = 0x601D_E2D1;

/// FNV-1a, 64-bit: tiny, dependency-free, and stable.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One golden case: a name (stable, used as the key in the golden
/// file), a fully configured runtime, and the program to run.
struct Case {
    name: String,
    rt: SimRuntime,
    region: RegionSpec,
    seed: u64,
}

/// Digest one run: `ok:` + hash of the raw report's Debug rendering,
/// or `err:` + hash of the error's (errors are part of the observable
/// surface too — a deadlock report lists who is blocked on what).
fn digest(case: &Case) -> String {
    match case.rt.run_report(&case.region, case.seed) {
        Ok(report) => format!("ok:{:016x}", fnv1a(format!("{report:?}").as_bytes())),
        Err(err) => format!("err:{:016x}", fnv1a(format!("{err:?}").as_bytes())),
    }
}

/// The fuzz campaign's sim runtime (mirrors
/// `ompvar_qcheck::oracle::sim_runtime`).
fn fuzz_rt(machine: MachineSpec, n_threads: usize) -> SimRuntime {
    SimRuntime::new(machine, RtConfig::pinned_close(Places::Threads(Some(n_threads))))
        .with_params(SimParams::sterile())
        .with_time_limit(300 * SEC)
        .with_tracing(true)
}

/// The campaign-scale generator configuration.
fn heavy_cfg() -> GenConfig {
    GenConfig {
        max_threads: 8,
        max_block_len: 8,
        max_depth: 3,
        max_repeat: 8,
        max_iters: 96,
        max_body_us: 2.0,
        max_tasks: 6,
        max_vars: 0,
    }
}

/// A small schedbench-shaped kernel used by the handcrafted cases.
fn sched_region(n_threads: usize, reps: u32) -> RegionSpec {
    RegionSpec::new(
        n_threads,
        vec![Construct::Repeat {
            count: reps,
            body: vec![
                Construct::ParallelFor {
                    schedule: Schedule::Dynamic { chunk: 2 },
                    total_iters: 64,
                    body_us: 1.5,
                    ordered_us: None,
                    nowait: false,
                },
                Construct::Barrier,
            ],
        }],
    )
    .expect("sched region is valid")
}

/// A sync-heavy handcrafted region: named locks, critical, atomic,
/// single, reduction, tasks — the object kinds the slab-reuse
/// optimizations touch.
fn sync_region(n_threads: usize) -> RegionSpec {
    RegionSpec::new(
        n_threads,
        vec![
            Construct::Locked {
                lock: 0,
                body: vec![
                    Construct::DelayUs(0.5),
                    Construct::Locked {
                        lock: 1,
                        body: vec![Construct::Atomic],
                    },
                ],
            },
            Construct::Critical { body_us: 0.8 },
            Construct::Single { body_us: 1.2 },
            Construct::Reduction { body_us: 0.6 },
            Construct::Tasks {
                per_spawner: 3,
                body_us: 0.4,
                master_only: false,
            },
            Construct::Barrier,
        ],
    )
    .expect("sync region is valid")
}

/// Build the full golden corpus (40 cases).
fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();

    // 12 generator programs, default grammar, fuzz-campaign runtime.
    let cfg = GenConfig::default();
    for i in 0..12u64 {
        let seed = ompvar_qcheck::case_seed(GOLDEN_SEED, i);
        let region = gen::generate(seed, &cfg);
        cases.push(Case {
            name: format!("gen-default-vera-sterile-{i:02}"),
            rt: fuzz_rt(MachineSpec::vera(), region.n_threads),
            region,
            seed,
        });
    }

    // 6 generator programs, campaign-scale grammar (deeper nesting,
    // larger teams — more sync objects, more migration).
    let heavy = heavy_cfg();
    for i in 0..6u64 {
        let seed = ompvar_qcheck::case_seed(GOLDEN_SEED ^ 0xBEEF, i);
        let region = gen::generate(seed, &heavy);
        cases.push(Case {
            name: format!("gen-heavy-vera-sterile-{i:02}"),
            rt: fuzz_rt(MachineSpec::vera(), region.n_threads),
            region,
            seed,
        });
    }

    // 6 generator programs under *calibrated* parameters (OS noise,
    // timer ticks, DVFS and load balancing all live), unbound threads.
    for i in 0..6u64 {
        let seed = ompvar_qcheck::case_seed(GOLDEN_SEED ^ 0xCA11, i);
        let region = gen::generate(seed, &cfg);
        cases.push(Case {
            name: format!("gen-default-vera-calibrated-{i:02}"),
            rt: SimRuntime::new(MachineSpec::vera(), RtConfig::unbound()),
            region,
            seed,
        });
    }

    // 4 generator programs on dardel (bigger topology, SMT-less,
    // different turbo table).
    for i in 0..4u64 {
        let seed = ompvar_qcheck::case_seed(GOLDEN_SEED ^ 0xDA2D, i);
        let region = gen::generate(seed, &cfg);
        cases.push(Case {
            name: format!("gen-default-dardel-calibrated-{i:02}"),
            rt: SimRuntime::new(MachineSpec::dardel(), RtConfig::unbound()),
            region,
            seed,
        });
    }

    // Frequency logger + tracing: the paper-figure configuration.
    cases.push(Case {
        name: "sched-vera-freq-logger".into(),
        rt: SimRuntime::new(MachineSpec::vera(), RtConfig::unbound())
            .with_freq_logger(on_spare_core(0))
            .with_tracing(true),
        region: sched_region(8, 6),
        seed: 0xF2E6,
    });
    cases.push(Case {
        name: "sched-dardel-freq-logger".into(),
        rt: SimRuntime::new(MachineSpec::dardel(), RtConfig::unbound())
            .with_freq_logger(on_spare_core(1))
            .with_tracing(true),
        region: sched_region(16, 4),
        seed: 0xF2E7,
    });

    // One fault plan per fault kind, on the calibrated machine.
    let fault_plans: Vec<(&str, FaultPlan)> = vec![
        (
            "noise-storm",
            FaultPlan::new().noise_storm(2 * MS, 30 * MS, 200 * US, 50 * US, 1.1),
        ),
        (
            "cpu-offline",
            FaultPlan::new().cpu_offline(MS, 2, Some(20 * MS)),
        ),
        (
            "freq-cap",
            FaultPlan::new().freq_cap(500 * US, Some(0), 1.8, Some(25 * MS)),
        ),
        (
            "task-stall",
            FaultPlan::new().task_stall(MS, Some(1), 4e6),
        ),
        (
            "lost-wakeups",
            FaultPlan::new().lost_wakeups(200 * US, 2),
        ),
    ];
    for (fname, plan) in fault_plans {
        cases.push(Case {
            name: format!("fault-{fname}-vera"),
            rt: SimRuntime::new(MachineSpec::vera(), RtConfig::unbound())
                .with_faults(plan)
                .with_tracing(true),
            region: sched_region(8, 8),
            seed: 0xFA17,
        });
    }

    // Sync-object zoo, both machines, fuzz runtime (slab-reuse surface).
    cases.push(Case {
        name: "sync-zoo-vera-sterile".into(),
        rt: fuzz_rt(MachineSpec::vera(), 8),
        region: sync_region(8),
        seed: 0x5FAC,
    });
    cases.push(Case {
        name: "sync-zoo-dardel-sterile".into(),
        rt: fuzz_rt(MachineSpec::dardel(), 12),
        region: sync_region(12),
        seed: 0x5FAD,
    });

    // Attribution-enabled cases: the causal ledger rides along on noisy
    // runs (a noise-storm-battered dardel, a stall-flaky vera) and its
    // contents are part of the digested surface. Paired with the
    // attribution-off corpus above, these pin both halves of the
    // tracing-style invariant: attribution off → reports byte-identical
    // to history; attribution on → the ledger itself is deterministic.
    cases.push(Case {
        name: "attr-noisy-dardel".into(),
        rt: SimRuntime::new(MachineSpec::dardel(), RtConfig::unbound())
            .with_faults(FaultPlan::new().noise_storm(2 * MS, 30 * MS, 200 * US, 50 * US, 1.1))
            .with_attribution(true),
        region: sched_region(16, 6),
        seed: 0xA77B,
    });
    cases.push(Case {
        name: "attr-flaky-vera".into(),
        rt: SimRuntime::new(MachineSpec::vera(), RtConfig::unbound())
            .with_faults(FaultPlan::new().task_stall(MS, Some(1), 4e6))
            .with_attribution(true),
        region: sched_region(8, 8),
        seed: 0xA77C,
    });

    // The straggler: a generator program whose lock-order inversion
    // deadlocks at runtime, grinding no-op LoadBalance chains to the
    // 300s limit. Digests the *error* (deadlock diagnostics), and pins
    // the idle fast-forward's absorbed chain end to end.
    let seed = ompvar_qcheck::case_seed(0x5EED_F00D, 264);
    let region = gen::generate(seed, &heavy);
    cases.push(Case {
        name: "straggler-deadlock-vera-sterile".into(),
        rt: fuzz_rt(MachineSpec::vera(), region.n_threads),
        region,
        seed,
    });

    cases
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/sim_report_digests.txt")
}

fn render_goldens(cases: &[Case]) -> String {
    let mut out = String::from(
        "# Determinism goldens: `<case name> <digest>` per line.\n\
         # Generated by tests/determinism_goldens.rs and verified bit-identical\n\
         # against the pre-optimization reference engine; every later engine\n\
         # change must reproduce these digests bit for bit. Regenerate\n\
         # (intentional output changes only) with\n\
         # UPDATE_SIM_GOLDENS=1 cargo test --test determinism_goldens\n",
    );
    for case in cases {
        writeln!(out, "{} {}", case.name, digest(case)).unwrap();
    }
    out
}

/// The committed digests must match what the engine produces today.
/// This is the history axis: any engine change that shifts one bit of
/// any report in the corpus fails here.
#[test]
fn reports_match_committed_goldens() {
    let cases = corpus();
    assert!(cases.len() >= 32, "golden corpus shrank: {}", cases.len());
    let path = golden_path();
    if std::env::var_os("UPDATE_SIM_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render_goldens(&cases)).unwrap();
        eprintln!("rewrote {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with UPDATE_SIM_GOLDENS=1 to create)", path.display()));
    let mut failures = Vec::new();
    let mut seen = 0;
    for line in committed.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (name, want) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("malformed golden line: {line:?}"));
        let case = cases
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("golden file names unknown case {name:?}"));
        seen += 1;
        let got = digest(case);
        if got != want {
            failures.push(format!("  {name}: committed {want}, got {got}"));
        }
    }
    assert_eq!(seen, cases.len(), "golden file is missing cases; regenerate");
    assert!(
        failures.is_empty(),
        "simulator output drifted from committed goldens:\n{}",
        failures.join("\n")
    );
}

/// Replay axis: the same (runtime, region, seed) run twice produces the
/// same bits.
#[test]
fn replay_is_bit_identical() {
    for case in corpus() {
        assert_eq!(
            digest(&case),
            digest(&case),
            "replay diverged for {}",
            case.name
        );
    }
}

/// The paper's setup: a Python logger on a dedicated spare core,
/// sampling every 50 ms at ~60 µs of CPU per sweep.
fn on_spare_core(cpu: usize) -> FreqLoggerCfg {
    FreqLoggerCfg {
        cpu: Some(cpu),
        period: 50 * MS,
        cost: 60 * US,
    }
}
