//! Cross-crate integration tests: regions built with `ompvar-rt`, run on
//! both backends, analyzed with `ompvar-core`, against `ompvar-topology`
//! machines and `ompvar-sim` models.

use ompvar::core::{RunSet, Summary};
use ompvar::epcc::syncbench::{self, SyncConstruct};
use ompvar::epcc::{run_many, EpccConfig};
use ompvar::rt::{
    Construct, NativeRuntime, RegionRunner, RegionSpec, RtConfig, Schedule, SimRuntime,
};
use ompvar::sim::params::SimParams;
use ompvar::topology::{MachineSpec, Places, ProcBind};

/// The same region completes on the native and the simulated backend and
/// produces the same number of measured repetitions.
#[test]
fn region_runs_on_both_backends() {
    let region = RegionSpec::measured(
        3,
        4,
        2,
        vec![
            Construct::ParallelFor {
                schedule: Schedule::Guided { min_chunk: 1 },
                total_iters: 48,
                body_us: 1.0,
                ordered_us: None,
                nowait: false,
            },
            Construct::Critical { body_us: 0.5 },
            Construct::Barrier,
        ],
    );
    let sim = SimRuntime::new(
        MachineSpec::vera(),
        RtConfig::pinned_close(Places::Threads(Some(3))),
    );
    let nat = NativeRuntime::new(RtConfig::unbound());
    let rs = sim.run_region(&region, 5).expect("region run completes");
    let rn = nat.run_region(&region, 5).expect("region run completes");
    assert_eq!(rs.reps().len(), 4);
    assert_eq!(rn.reps().len(), 4);
    assert!(rs.counters.is_some());
    assert!(rn.counters.is_none());
}

/// Full pipeline determinism: the same seed reproduces an entire
/// experiment (placement, noise, frequency pulses, migrations) exactly.
#[test]
fn whole_experiment_is_deterministic() {
    let cfg = EpccConfig::syncbench_default().fast(5);
    let rt = SimRuntime::new(MachineSpec::dardel(), RtConfig::unbound());
    let region = syncbench::region_with_inner(&cfg, SyncConstruct::Reduction, 24, 8);
    let a: RunSet = run_many(&rt, &region, 3, 99);
    let b: RunSet = run_many(&rt, &region, 3, 99);
    assert_eq!(a, b);
    let c: RunSet = run_many(&rt, &region, 3, 100);
    assert_ne!(a, c);
}

/// Pinning configurations flow end-to-end: an explicit OMP_PLACES string
/// parses, resolves against the machine, and changes where time is spent
/// (cross-socket span costs more than same-socket).
#[test]
fn places_string_to_span_cost() {
    let cfg = EpccConfig::syncbench_default().fast(3);
    let region = syncbench::region_with_inner(&cfg, SyncConstruct::Barrier, 8, 20);
    let run_with = |places: &str| {
        let rt = SimRuntime::new(
            MachineSpec::vera(),
            RtConfig::from_env_strs(places, "close").unwrap(),
        )
        .with_params(SimParams::sterile());
        let res = rt.run_region(&region, 1).expect("region run completes");
        Summary::of(res.reps()).mean
    };
    let same_socket = run_with("{0},{1},{2},{3},{4},{5},{6},{7}");
    let cross_socket = run_with("{0},{1},{2},{3},{16},{17},{18},{19}");
    assert!(
        cross_socket > same_socket * 1.2,
        "cross-socket barrier {cross_socket} µs vs same-socket {same_socket} µs"
    );
}

/// The headline finding, end to end: pinning collapses the unbound
/// blow-ups of a synchronization-heavy benchmark on a big machine.
#[test]
fn pinning_collapses_variability() {
    let cfg = EpccConfig::syncbench_default().fast(20);
    let region = syncbench::region_with_inner(&cfg, SyncConstruct::Reduction, 48, 12);
    let unbound = run_many(
        &ompvar::harness::Platform::Dardel.unbound_rt(),
        &region,
        4,
        20230714,
    );
    let pinned = run_many(
        &ompvar::harness::Platform::Dardel.pinned_rt(48),
        &region,
        4,
        20230714,
    );
    assert!(
        unbound.pooled().spread() > 10.0 * pinned.pooled().spread(),
        "unbound {} vs pinned {}",
        unbound.pooled().spread(),
        pinned.pooled().spread()
    );
}

/// ST leaves room for the OS: fewer preemptions than MT at equal thread
/// count, visible through the engine counters.
#[test]
fn st_absorbs_noise_mt_does_not() {
    // Long enough (~0.5 s per run) for per-CPU kernel housekeeping to
    // arrive on the busy CPUs many times.
    let region = RegionSpec::measured(
        32,
        50,
        8,
        vec![Construct::DelayUs(200.0), Construct::Barrier],
    );
    let count_preempt = |rt: &SimRuntime| {
        let mut total = 0;
        for seed in 0..3 {
            let res = rt.run_region(&region, seed).expect("region run completes");
            total += res.counters.unwrap().preemptions;
        }
        total
    };
    let st = count_preempt(&ompvar::harness::Platform::Dardel.pinned_rt(32));
    let mt = count_preempt(&ompvar::harness::Platform::Dardel.pinned_mt_rt(32));
    assert!(
        mt > st * 2,
        "MT should suffer far more preemptions: ST {st} vs MT {mt}"
    );
}

/// Sterile parameters remove all modeled variability: every repetition of
/// every run is identical, proving the noise sources are the only causes.
#[test]
fn sterile_machine_has_zero_variability() {
    let cfg = EpccConfig::syncbench_default().fast(6);
    let region = syncbench::region_with_inner(&cfg, SyncConstruct::Reduction, 16, 10);
    let rt = SimRuntime::new(
        MachineSpec::dardel(),
        RtConfig {
            places: Places::Cores(Some(16)),
            bind: ProcBind::Close,
        },
    )
    .with_params(SimParams::sterile());
    let rs = run_many(&rt, &region, 3, 7);
    // Within a run, only deterministic spin-wake limit cycles remain
    // (arrival-order patterns worth a few percent); across runs there is
    // exactly zero variability — every run is bit-identical.
    let pooled = rs.pooled();
    assert!(pooled.spread() < 1.10, "sterile spread {}", pooled.spread());
    assert_eq!(rs.variance_decomposition().0, 0.0);
    assert_eq!(rs.runs[0], rs.runs[1]);
    assert_eq!(rs.runs[1], rs.runs[2]);
}

/// The native runtime honours all ten syncbench constructs.
#[test]
fn native_runs_every_sync_construct() {
    let cfg = EpccConfig::syncbench_default().fast(2);
    let nat = NativeRuntime::new(RtConfig::unbound());
    for c in SyncConstruct::ALL {
        let region = syncbench::region_with_inner(&cfg, c, 2, 3);
        let res = nat.run_region(&region, 0).expect("region run completes");
        assert_eq!(res.reps().len(), 2, "{}", c.label());
    }
}

/// BabelStream behaves end-to-end: per-kernel stats exist, larger kernels
/// cost more, and threads reduce time on the simulated machine.
#[test]
fn babelstream_end_to_end() {
    use ompvar::stream::{kernel_stats, StreamConfig, StreamKernel};
    let cfg = StreamConfig::small();
    let rt = ompvar::harness::Platform::Vera.pinned_rt(8);
    let res = rt.run_region(&ompvar::stream::region(&cfg, 8), 1).expect("region run completes");
    let stats = kernel_stats(&res);
    assert!(stats[&StreamKernel::Add].avg_us > stats[&StreamKernel::Copy].avg_us);
    assert!(stats[&StreamKernel::Dot].avg_us > 0.0);
}

/// The pinning intervention changes the repetition-time *distribution*
/// (KS test), and per-thread stats expose where unbound time goes.
#[test]
fn pinning_changes_the_distribution() {
    let cfg = EpccConfig::syncbench_default().fast(30);
    let region = syncbench::region_with_inner(&cfg, SyncConstruct::Reduction, 32, 12);
    let unb = ompvar::harness::Platform::Dardel
        .unbound_rt()
        .run_region(&region, 11).expect("region run completes");
    let pin = ompvar::harness::Platform::Dardel
        .pinned_rt(32)
        .run_region(&region, 11).expect("region run completes");
    let (d, p) = ks_test(unb.reps(), pin.reps());
    assert!(d > 0.5, "KS d = {d}");
    assert!(p < 0.01, "KS p = {p}");
    // Straggler analysis: unbound threads accumulate migrations; pinned
    // threads never migrate.
    let unb_migr: u32 = unb.thread_stats.iter().map(|s| s.migrations).sum();
    let pin_migr: u32 = pin.thread_stats.iter().map(|s| s.migrations).sum();
    assert!(unb_migr > 0);
    assert_eq!(pin_migr, 0);
    assert_eq!(pin.thread_stats.len(), 32);
}

/// Two-sample Kolmogorov–Smirnov test: returns `(d, approx_p)` where `d`
/// is the maximum CDF distance and `p` uses the asymptotic Kolmogorov
/// distribution (adequate for n ≥ ~20 per side). Useful for asking "did
/// pinning actually change the repetition-time *distribution*?", not just
/// its mean.
fn ks_test(a: &[f64], b: &[f64]) -> (f64, f64) {
    assert!(!a.is_empty() && !b.is_empty());
    let mut xa = a.to_vec();
    let mut xb = b.to_vec();
    xa.sort_by(|x, y| x.partial_cmp(y).unwrap());
    xb.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let (na, nb) = (xa.len(), xb.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < na && j < nb {
        let x = xa[i].min(xb[j]);
        while i < na && xa[i] <= x {
            i += 1;
        }
        while j < nb && xb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na as f64 - j as f64 / nb as f64).abs());
    }
    let ne = (na * nb) as f64 / (na + nb) as f64;
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    // Asymptotic Kolmogorov survival function; the series only converges
    // for λ bounded away from 0, and P → 1 there anyway.
    if lambda < 0.3 {
        return (d, 1.0);
    }
    let mut p = 0.0;
    for k in 1..=100 {
        let kf = k as f64;
        let term = 2.0 * (-1.0f64).powi(k + 1) * (-2.0 * kf * kf * lambda * lambda).exp();
        p += term;
        if term.abs() < 1e-12 {
            break;
        }
    }
    (d, p.clamp(0.0, 1.0))
}

#[test]
fn ks_test_separates_distributions() {
    let a: Vec<f64> = (0..200).map(|i| (i % 50) as f64).collect();
    let b: Vec<f64> = (0..200).map(|i| (i % 50) as f64 + 40.0).collect();
    let (d, p) = ks_test(&a, &b);
    assert!(d > 0.5, "d = {d}");
    assert!(p < 1e-6, "p = {p}");
    let (d, p) = ks_test(&a, &a);
    assert!(d < 1e-12);
    assert!(p > 0.99);
}
