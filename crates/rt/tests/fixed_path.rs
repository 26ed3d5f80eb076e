//! Allocation guards for the fixed, per-run path every short simulated
//! run pays — validation and setup — and the contract that makes the
//! machine image safe to share: a runtime changed between runs returns
//! exactly what a freshly built one returns.

use ompvar_rt::region::{Construct, RegionSpec, Schedule};
use ompvar_rt::{RtConfig, SimRuntime};
use ompvar_sim::params::SimParams;
use ompvar_sim::time::SEC;
use ompvar_topology::{MachineSpec, Places, ProcBind};

#[path = "../../sim/tests/counting_alloc/mod.rs"]
mod counting_alloc;
use counting_alloc::allocs_so_far;

/// Allocations `f` makes on the calling thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = allocs_so_far();
    f();
    allocs_so_far() - before
}

/// A clean program of `blocks × 10` constructs, nested three deep: every
/// block is `Repeat { ParallelRegion { Repeat { … } } }` around seven
/// leaves (no variables, marks or named locks, whose bookkeeping would
/// allocate by design).
fn nested_program(blocks: usize) -> RegionSpec {
    let leaves = || {
        vec![
            Construct::DelayUs(20.0),
            Construct::Barrier,
            Construct::Critical { body_us: 0.1 },
            Construct::Atomic,
            Construct::Single { body_us: 0.1 },
            Construct::ParallelFor {
                schedule: Schedule::Dynamic { chunk: 1 },
                total_iters: 8,
                body_us: 0.1,
                ordered_us: None,
                nowait: false,
            },
            Construct::Reduction { body_us: 0.1 },
        ]
    };
    let block = || Construct::Repeat {
        count: 2,
        body: vec![Construct::ParallelRegion {
            body: vec![Construct::Repeat { count: 2, body: leaves() }],
        }],
    };
    RegionSpec {
        n_threads: 4,
        constructs: (0..blocks).map(|_| block()).collect(),
        vars: Vec::new(),
    }
}

/// Constructs in `cs`, counted through every nested body.
fn count(cs: &[Construct]) -> usize {
    cs.iter()
        .map(|c| match c {
            Construct::Repeat { body, .. }
            | Construct::ParallelRegion { body }
            | Construct::Locked { body, .. } => 1 + count(body),
            _ => 1,
        })
        .sum()
}

#[test]
fn validate_allocates_no_more_for_a_thousand_nested_constructs_than_for_ten() {
    let (small, large) = (nested_program(1), nested_program(100));
    assert_eq!((count(&small.constructs), count(&large.constructs)), (10, 1000));
    for spec in [&small, &large] {
        let analysis = ompvar_analyze::analyze(spec);
        assert!(analysis.is_clean(), "the guard needs a clean program: {}", analysis.render());
    }
    let _ = small.validate();
    let ten = allocs_in(|| small.validate().expect("clean"));
    let thousand = allocs_in(|| large.validate().expect("clean"));
    assert_eq!(
        ten, thousand,
        "validate() allocates per construct: {ten} for 10, {thousand} for 1000"
    );
}

/// The fuzz oracles' simulated runtime at `n` threads.
fn sterile(n: usize) -> SimRuntime {
    SimRuntime::new(MachineSpec::vera(), RtConfig::pinned_close(Places::Threads(Some(n))))
        .with_params(SimParams::sterile())
        .with_time_limit(300 * SEC)
}

/// Allocations of every run after the first of a 4-thread barrier-only
/// region, measured once the machine image was shared: the simulator's
/// own state (CPUs, sockets, domains, the event queue, the task and
/// object tables), the spec and parameters it clones, the two lowered
/// programs, one pin per rank, and the report: 34, measured on this
/// region (a fresh runtime's first run makes 73). Building the machine —
/// the topology caches, place resolution, the span factor — is not
/// among them.
const BARRIER_RUN_ALLOCS: u64 = 34;

#[test]
fn runs_after_the_first_do_not_rebuild_the_machine() {
    let rt = sterile(4);
    let region = RegionSpec::new(4, vec![Construct::Barrier]).expect("valid");
    let first = rt.run(&region, 1).expect("runs");
    let mut counts = Vec::new();
    for seed in 2..6 {
        counts.push(allocs_in(|| {
            let again = rt.run(&region, seed).expect("runs");
            assert_eq!(again.wall_us.to_bits(), first.wall_us.to_bits(), "sterile is seed-free");
        }));
    }
    let fresh = allocs_in(|| drop(sterile(4).run(&region, 1)));
    assert!(
        counts.iter().all(|&c| c <= BARRIER_RUN_ALLOCS),
        "a warm run allocates {counts:?} times (want <= {BARRIER_RUN_ALLOCS}; a fresh runtime's \
         first run: {fresh})"
    );
    assert!(counts.iter().all(|&c| c < fresh), "warm {counts:?} vs fresh {fresh}");
    // Clones share the image: their first run is warm too.
    let clone = rt.clone().with_attribution(false);
    assert!(allocs_in(|| drop(clone.run(&region, 1))) <= BARRIER_RUN_ALLOCS);
}

/// A region whose result depends on the machine, the parameters and the
/// placement: sync objects, a loop and compute.
fn probe_region() -> RegionSpec {
    RegionSpec::measured(
        8,
        3,
        2,
        vec![
            Construct::Reduction { body_us: 0.3 },
            Construct::ParallelFor {
                schedule: Schedule::Dynamic { chunk: 2 },
                total_iters: 64,
                body_us: 0.2,
                ordered_us: None,
                nowait: false,
            },
            Construct::Critical { body_us: 0.1 },
        ],
    )
}

#[test]
fn a_runtime_changed_between_runs_returns_what_a_fresh_one_returns() {
    let region = probe_region();
    let run = |rt: &SimRuntime| format!("{:?}", rt.run(&region, 5));
    // Spread over both sockets, so the socket-crossing cost counts.
    let spread = RtConfig { places: Places::Threads(None), bind: ProcBind::Spread };
    let base = SimRuntime::new(MachineSpec::vera(), spread)
        .with_params(SimParams::sterile())
        .with_time_limit(300 * SEC);
    let base_out = run(&base);

    let change = |rt: &mut SimRuntime, what: &str| match what {
        "params" => rt.params.sync.cross_socket_factor *= 3.0,
        "machine" => rt.machine = MachineSpec::dardel(),
        "config" => rt.config = RtConfig::pinned_close(Places::Threads(Some(8))),
        "bind" => rt.config.bind = ProcBind::Close,
        _ => unreachable!(),
    };
    for what in ["params", "machine", "config", "bind"] {
        // Changed after its image was built, directly and on a clone.
        let mut changed = base.clone();
        change(&mut changed, what);
        let mut fresh = SimRuntime::new(changed.machine.clone(), changed.config.clone())
            .with_params(changed.params.clone())
            .with_time_limit(300 * SEC);
        let want = run(&fresh);
        assert_ne!(want, base_out, "{what}: the probe must see the change");
        assert_eq!(run(&changed), want, "{what}: a changed clone runs a stale image");
        assert_eq!(run(&changed), want, "{what}: a second run on the changed clone");
        let mut rt = SimRuntime::new(base.machine.clone(), base.config.clone())
            .with_params(base.params.clone())
            .with_time_limit(300 * SEC);
        assert_eq!(run(&rt), base_out);
        change(&mut rt, what);
        assert_eq!(run(&rt), want, "{what}: a changed runtime runs a stale image");
        // And the fresh runtime, changed back, is the base again.
        fresh.params = base.params.clone();
        fresh.machine = base.machine.clone();
        fresh.config = base.config.clone();
        assert_eq!(run(&fresh), base_out, "{what}: changed back");
    }
    assert_eq!(run(&base), base_out, "the original is untouched by its clones");
}
