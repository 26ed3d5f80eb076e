//! Lifecycle of the native backend's persistent team: regions reuse
//! parked threads, nothing leaks from one region into the next, the team
//! survives a timeout, serialises concurrent callers, its threads exit
//! with the runtime, and the in-region rank count that sizes every wait
//! returns to zero however a region ends.

use ompvar_obs::SpanKind;
use ompvar_rt::native::wait::ranks_in_region;
use ompvar_rt::region::{Clause, Construct, RedOp, RegionSpec, Schedule, VarDecl, WriteOp};
use ompvar_rt::{NativeRuntime, RegionResult, RtConfig, RtError};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// The tests below count this process's team threads and its in-region
/// ranks, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Live team threads of this process, by the name the team gives them;
/// `None` where there is no `/proc`.
fn team_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter(|t| {
                std::fs::read_to_string(t.path().join("comm"))
                    .is_ok_and(|comm| comm.starts_with("ompvar-team"))
            })
            .count(),
    )
}

/// A joined thread can stay listed in `/proc` for a moment; give the
/// count a bounded while to reach `want`.
fn assert_team_threads_settle_to(want: usize) {
    let patience = Instant::now() + Duration::from_secs(5);
    while team_threads().is_some_and(|n| n != want) && Instant::now() < patience {
        std::thread::yield_now();
    }
    if let Some(n) = team_threads() {
        assert_eq!(n, want, "team threads alive");
    }
}

fn rt() -> NativeRuntime {
    NativeRuntime::new(RtConfig::unbound())
        .with_deadline(Some(Duration::from_secs(30)))
        .with_tracing(true)
}

/// A program that touches every kind of per-thread state a worker
/// rebuilds per region (private copies, the tracer), loop cursors, and
/// every kind of per-region state the caller reads back.
fn program(n_threads: usize) -> RegionSpec {
    let var = |id, name: &str, clause, init| VarDecl { id, name: name.into(), clause, init };
    RegionSpec::with_vars(
        n_threads,
        vec![var(0, "sum", Clause::Shared, 5), var(1, "tmp", Clause::Private, 99)],
        vec![
            Construct::Repeat {
                count: 3,
                body: vec![
                    Construct::Barrier,
                    Construct::MarkBegin(0),
                    Construct::ParallelFor {
                        schedule: Schedule::Dynamic { chunk: 1 },
                        total_iters: 12,
                        body_us: 0.1,
                        ordered_us: Some(0.1),
                        nowait: false,
                    },
                    Construct::Single { body_us: 0.1 },
                    Construct::MarkEnd(0),
                ],
            },
            Construct::Locked {
                lock: 0,
                body: vec![Construct::VarWrite { var: 0, op: WriteOp::Add(3) }],
            },
            Construct::Barrier,
            Construct::VarWrite { var: 1, op: WriteOp::Set(7) },
            Construct::VarRead { var: 1 },
            Construct::ReductionFor {
                var: 0,
                red: RedOp::Sum,
                schedule: Schedule::Guided { min_chunk: 1 },
                total_iters: 8,
                body_us: 0.1,
                delta: 1,
            },
            Construct::Tasks { per_spawner: 2, body_us: 0.1, master_only: false },
        ],
    )
    .expect("test program is valid")
}

/// What must not depend on which runtime, or which of its regions, ran
/// the program.
fn observable(r: &RegionResult) -> impl PartialEq + std::fmt::Debug {
    let shape: Vec<(u32, usize)> = r.intervals_us.iter().map(|(k, v)| (*k, v.len())).collect();
    let spans = r.trace.as_ref().map(|t| t.count_of(SpanKind::Region));
    (r.effects, r.final_values.clone(), shape, spans)
}

#[test]
fn a_thousand_regions_on_one_team_each_equal_a_fresh_runtimes() {
    let _turn = serial();
    const SIZES: [usize; 4] = [1, 4, 2, 1];
    let programs = SIZES.map(program);
    let fresh = programs.each_ref().map(|p| {
        let r = rt().run(p).expect("fresh runtime completes");
        assert_eq!(r.effects, p.expected_effects());
        assert_eq!(r.trace.as_ref().map(|t| t.count_of(SpanKind::Region)), Some(p.n_threads));
        observable(&r)
    });
    assert_team_threads_settle_to(0);

    let rt = rt();
    for i in 0..1000 {
        let k = i % SIZES.len();
        let r = rt.run(&programs[k]).expect("region completes on the warm team");
        assert_eq!(observable(&r), fresh[k], "region {i}, {} thread(s)", SIZES[k]);
        if let Some(n) = team_threads() {
            assert!(n <= 4, "region {i}: {n} team threads for a team that never exceeded 4");
        }
    }
    assert_team_threads_settle_to(4);

    // No thread outlives the runtime: the last clone takes them along.
    let clone = rt.clone();
    drop(rt);
    clone.run(&programs[1]).expect("a clone keeps the team alive");
    assert_team_threads_settle_to(4);
    drop(clone);
    assert_team_threads_settle_to(0);
}

#[test]
fn a_timed_out_region_leaves_the_team_usable() {
    let _turn = serial();
    let mut rt = rt();
    rt.run(&program(2)).expect("warm-up region completes");
    // Whoever loses the single waits out the winner's 20 ms, and a wait
    // that lasts consults the (already expired) guard.
    let wedge = RegionSpec::new(2, vec![Construct::Single { body_us: 20_000.0 }])
        .expect("test region is valid");
    rt.deadline = Some(Duration::ZERO);
    match rt.run(&wedge) {
        Err(RtError::Timeout { deadline, .. }) => assert_eq!(deadline, Duration::ZERO),
        other => panic!("expected a timeout, got {other:?}"),
    }
    assert_eq!(ranks_in_region(), 0, "a timed-out region counts its ranks out");
    rt.deadline = Some(Duration::from_secs(30));
    let p = program(2);
    let r = rt.run(&p).expect("the same team runs a clean region");
    assert_eq!(r.effects, p.expected_effects());
    assert_eq!(ranks_in_region(), 0, "a clean region counts its ranks out");
    assert_team_threads_settle_to(2);
}

#[test]
fn a_panicking_region_counts_its_ranks_out_before_it_is_re_raised() {
    let _turn = serial();
    let rt = rt();
    // The one way a validated program still panics a rank: a stream
    // buffer no host can size ("capacity overflow", on every rank).
    let bomb = RegionSpec::new(3, vec![Construct::Barrier, Construct::StreamBytes(1e30)])
        .expect("any finite byte count validates");
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.run(&bomb)))
        .expect_err("the ranks' panic is re-raised on the caller");
    assert_eq!(ranks_in_region(), 0);
    let p = program(3);
    let r = rt.run(&p).expect("a fresh team runs the next region");
    assert_eq!(r.effects, p.expected_effects());
    assert_eq!(ranks_in_region(), 0);
}

#[test]
fn an_oversubscribed_team_runs_two_thousand_regions_like_a_fresh_runtime() {
    let _turn = serial();
    // More ranks than this 2-CPU host (or a small CI runner) has CPUs:
    // every wait of these regions is on the throttled budget, and must
    // still only ever release on its condition.
    const RANKS: usize = 8;
    let p = program(RANKS);
    let fresh = observable(&rt().run(&p).expect("fresh runtime completes"));
    let rt = rt();
    for i in 0..2000 {
        let r = rt.run(&p).expect("region completes on the oversubscribed team");
        assert_eq!(r.effects, p.expected_effects(), "region {i}");
        assert_eq!(observable(&r), fresh, "region {i}");
    }
    assert_eq!(ranks_in_region(), 0);
    assert_team_threads_settle_to(RANKS);
}

#[test]
fn concurrent_runs_on_clones_take_turns_on_the_one_team() {
    let _turn = serial();
    let rt = rt();
    let p = program(3);
    let together = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let rt = rt.clone();
                together.wait();
                for _ in 0..50 {
                    let r = rt.run(&p).expect("region completes");
                    assert_eq!(r.effects, p.expected_effects());
                }
            });
        }
    });
    assert_eq!(ranks_in_region(), 0, "both clones counted their ranks out");
    // One team, not one per clone.
    assert_team_threads_settle_to(3);
}
