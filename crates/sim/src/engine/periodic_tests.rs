//! The periodic fast-forward held to its referent (`engine/referent.rs`):
//! each case runs with the absorbers on and off, compares the outcomes,
//! and checks the record of jumps against the bounds each must meet.

use super::super::referent::{same_either_way, Absorbed, Jump};
use super::Simulator;
use crate::params::{NoisePlacement, NoiseSource, SimParams};
use crate::sync::{LoopSchedule, LoopSpec};
use crate::task::{CorunClass, Program};
use crate::time::{Time, SEC, US};
use ompvar_topology::{CoreId, MachineSpec, Place};

/// The EPCC construct bodies of the shape tests.
#[derive(Debug, Clone, Copy)]
enum Body {
    Barrier,
    Lock,
    Atomic,
    Ordered,
    Reduction,
}

const BODIES: [Body; 5] = [
    Body::Barrier,
    Body::Lock,
    Body::Atomic,
    Body::Ordered,
    Body::Reduction,
];

/// One EPCC-shaped run: a team of `n` threads, pinned one per core (ST)
/// or two per core (MT), runs `outer` × {barrier; mark; `inner` × body;
/// mark}, rank 0 alone marking, as the runtime lowers a measured region.
#[derive(Debug, Clone)]
struct Epcc {
    machine: MachineSpec,
    params: SimParams,
    seed: u64,
    body: Body,
    n: usize,
    mt: bool,
    outer: u32,
    inner: u32,
}

impl Epcc {
    fn new(machine: MachineSpec, calibrated: bool, body: Body) -> Self {
        let params = if calibrated {
            SimParams::for_machine(&machine)
        } else {
            SimParams::sterile()
        };
        Epcc {
            machine,
            params,
            seed: 1,
            body,
            n: 16,
            mt: false,
            outer: 3,
            inner: 128,
        }
    }

    fn build(&self) -> Simulator {
        let mut sim = Simulator::new(self.machine.clone(), self.params.clone(), self.seed);
        let n = self.n;
        let bar = sim.add_barrier(n, 1.0);
        let obj = match self.body {
            Body::Barrier => bar,
            Body::Lock | Body::Reduction => sim.add_lock(1.0),
            Body::Atomic => sim.add_atomic(1.0),
            Body::Ordered => sim.add_loop(LoopSpec {
                schedule: LoopSchedule::Static { chunk: 1 },
                total_iters: n as u64,
                n_threads: n,
                body_cycles: 0.0,
                body_class: CorunClass::Latency,
                ordered_section_ns: Some(150.0),
                batch: 1,
                span_factor: 1.0,
            }),
        };
        let delay = 300.0;
        for rank in 0..n {
            let mark = |b: crate::task::ProgramBuilder, k| if rank == 0 { b.mark(k) } else { b };
            let b = Program::builder().repeat(self.outer).barrier(bar);
            let b = mark(b, 0).repeat(self.inner);
            let b = match self.body {
                Body::Barrier => b.compute(delay, CorunClass::Latency).barrier(bar),
                Body::Lock => b.critical(obj, delay, CorunClass::Latency),
                Body::Atomic => b.atomic(obj),
                Body::Ordered => b.for_loop(obj).barrier(bar),
                Body::Reduction => b
                    .compute(delay, CorunClass::Latency)
                    .lock(obj)
                    .busy_ns(80.0)
                    .unlock(obj)
                    .barrier(bar),
            };
            let prog = mark(b.end_repeat(), 1).end_repeat().build();
            // MT on a machine without SMT stacks a pair on one thread.
            let (core, thread) = if self.mt {
                (rank / 2, rank % 2)
            } else {
                (rank, 0)
            };
            let threads = self.machine.hw_threads_of_core(CoreId(core));
            let hw = threads[thread % threads.len()];
            sim.spawn_user(rank, prog, Some(Place::single(hw)));
        }
        sim
    }
}

const LIMIT: Time = 10 * SEC;

/// Every body on both paper machines, ST and MT, sterile and calibrated,
/// three seeds: identical results either way, and every configuration
/// with a period absorbs events — all but MT on Vera, which has no SMT.
#[test]
fn epcc_bodies_run_the_same_either_way() {
    for machine in [MachineSpec::dardel(), MachineSpec::vera()] {
        for calibrated in [false, true] {
            for mt in [false, true] {
                // MT on a machine without SMT stacks a pair of ranks on
                // one CPU: every quantum turns CPUs idle and busy, which
                // refuses every period.
                let stacked = mt && machine.smt == 1;
                for body in BODIES {
                    let mut total = 0;
                    for seed in 1..=3 {
                        let cfg = Epcc {
                            seed,
                            mt,
                            ..Epcc::new(machine.clone(), calibrated, body)
                        };
                        let (outcome, Absorbed { jumps, .. }) =
                            same_either_way(|| cfg.build(), LIMIT);
                        assert!(outcome.starts_with("Ok(") || stacked, "{cfg:?}: {outcome}");
                        for j in &jumps {
                            assert!(j.far.is_none_or(|far| j.end < far), "{cfg:?}: {j:?}");
                            assert!(j.periods == 0 || j.frames_left >= 1, "{cfg:?}: {j:?}");
                        }
                        total += jumps.iter().map(|j| j.events).sum::<u64>();
                    }
                    let what = format!("{} {body:?} mt={mt} calibrated={calibrated}", machine.name);
                    assert!(total > 0 || stacked, "{what}: nothing absorbed");
                }
            }
        }
    }
}

/// A sterile run has no far-tier event but the governor's first
/// re-evaluations and the idle balancer: each inner loop is jumped to at
/// least one iteration short of its exit, and the exit itself runs live.
#[test]
fn the_jump_stops_one_iteration_short_of_loop_exit() {
    let mut exactly_one_left = 0;
    for body in BODIES {
        for inner in [1, 2, 3, 5, 128] {
            let cfg = Epcc {
                inner,
                n: 4,
                ..Epcc::new(MachineSpec::vera(), false, body)
            };
            let (outcome, Absorbed { jumps, .. }) = same_either_way(|| cfg.build(), LIMIT);
            assert!(outcome.starts_with("Ok("), "{cfg:?}: {outcome}");
            let made: Vec<&Jump> = jumps.iter().filter(|j| j.periods > 0).collect();
            assert!(
                made.iter().all(|j| j.frames_left >= 1),
                "{body:?}: {made:?}"
            );
            if inner == 128 {
                assert!(!made.is_empty(), "{body:?}: no jump");
            }
            exactly_one_left += made
                .iter()
                .filter(|j| j.periods == j.by_frames && j.frames_left == 1)
                .count();
        }
    }
    assert!(exactly_one_left > 0, "no jump ran up to the last iteration");
}

/// A period measured in one pass of the inner loop is replayed in later
/// passes, from the first checkpoint that encodes as the snapshot, with
/// no second measurement.
#[test]
fn a_period_measured_in_one_pass_is_replayed_in_the_next() {
    let mut replayed = 0;
    for body in BODIES {
        let cfg = Epcc {
            n: 4,
            outer: 4,
            ..Epcc::new(MachineSpec::vera(), false, body)
        };
        let (_, Absorbed { jumps, .. }) = same_either_way(|| cfg.build(), LIMIT);
        replayed += jumps.iter().filter(|j| j.periods > 0 && !j.fresh).count();
    }
    assert!(
        replayed > 0,
        "no period was replayed without a fresh measurement"
    );
}

/// Sterile parameters plus one global noise source and live ticks: far-tier
/// events land inside the windows the jump would cross. Each jump stops
/// strictly before the far-tier head, some stop because of it, and the
/// event lands on the state the live loop would have reached.
#[test]
fn a_noise_arrival_or_tick_mid_window_stops_the_jump_before_it() {
    let (mut stopped_by_far, mut total, mut replayed) = (0, 0, 0);
    for (tick_cost, mean_interval) in [(0, 40 * US), (500, Time::MAX / 8), (500, 70 * US)] {
        for body in BODIES {
            let mut cfg = Epcc {
                n: 4,
                ..Epcc::new(MachineSpec::dardel(), false, body)
            };
            cfg.params.sched.tick_cost = tick_cost;
            cfg.params.sched.tick_period = 50 * US;
            cfg.params.noise.sources.push(NoiseSource {
                name: "probe",
                mean_interval,
                median_duration: 2 * US,
                duration_sigma: 0.5,
                placement: NoisePlacement::RandomCpu,
            });
            let (outcome, Absorbed { jumps, .. }) = same_either_way(|| cfg.build(), LIMIT);
            assert!(outcome.starts_with("Ok("), "{cfg:?}: {outcome}");
            for j in &jumps {
                let far = j.far.expect("ticks or noise are always pending");
                assert!(j.end < far, "{body:?}: jumped past the far head: {j:?}");
            }
            total += jumps.iter().map(|j| j.events).sum::<u64>();
            replayed += jumps.iter().filter(|j| j.periods > 0 && !j.fresh).count();
            stopped_by_far += jumps
                .iter()
                .filter(|j| j.periods > 0 && j.periods == j.by_far && j.by_far < j.by_frames)
                .count();
        }
    }
    assert!(total > 0, "nothing absorbed");
    assert!(
        stopped_by_far > 0,
        "no jump was ever stopped by a far-tier event"
    );
    assert!(
        replayed > 0,
        "no period measured before a far-tier event was replayed after it"
    );
}

/// A time limit or an event budget placed around a jump's window — before
/// it, at its first and last event, inside, just past — trips the same
/// error either way, and a jump never crosses it.
#[test]
fn limits_and_budgets_inside_a_window_trip_identically() {
    let (mut stopped_by_limit, mut stopped_by_budget) = (0, 0);
    let binds = |bound: u64, j: &Jump| j.periods == bound && bound < j.by_frames.min(j.by_far);
    for body in BODIES {
        let cfg = Epcc {
            n: 4,
            ..Epcc::new(MachineSpec::vera(), false, body)
        };
        let (_, Absorbed { jumps, .. }) = same_either_way(|| cfg.build(), LIMIT);
        let j = *jumps.iter().find(|j| j.periods > 2).expect("a long jump");
        let mid = j.start + (j.end - j.start) / 2;
        for limit in [j.start, j.start + 1, mid, j.end - 1, j.end, j.end + 1] {
            let (outcome, Absorbed { jumps, .. }) = same_either_way(|| cfg.build(), limit);
            assert!(
                outcome.starts_with("Err("),
                "{body:?} limit {limit}: {outcome}"
            );
            assert!(jumps.iter().all(|j| j.end <= limit), "{body:?}: {jumps:?}");
            stopped_by_limit += jumps.iter().filter(|j| binds(j.by_limit, j)).count();
        }
        let (first, last) = (j.events_before, j.events_before + j.events);
        for budget in [
            first - 1,
            first,
            first + j.events / 2,
            last - 1,
            last,
            last + 1,
        ] {
            let build = || {
                let mut sim = cfg.build();
                sim.set_event_budget(budget);
                sim
            };
            let (outcome, Absorbed { jumps, .. }) = same_either_way(build, LIMIT);
            assert!(
                outcome.starts_with("Err(EventBudgetExceeded"),
                "{body:?} budget {budget}: {outcome}"
            );
            assert!(
                jumps.iter().all(|j| j.events_before + j.events <= budget),
                "{body:?}: {jumps:?}"
            );
            stopped_by_budget += jumps.iter().filter(|j| binds(j.by_budget, j)).count();
        }
    }
    assert!(
        stopped_by_limit > 0,
        "no jump was ever stopped by the time limit"
    );
    assert!(
        stopped_by_budget > 0,
        "no jump was ever stopped by the event budget"
    );
}

/// Tracing and attribution record every event's time: with either on the
/// absorber stays out of the way.
#[test]
fn tracing_and_attribution_absorb_nothing() {
    for body in BODIES {
        let cfg = Epcc::new(MachineSpec::vera(), false, body);
        for (traced, attributed) in [(true, false), (false, true)] {
            let build = || {
                let mut sim = cfg.build();
                if traced {
                    sim.enable_tracing();
                }
                if attributed {
                    sim.enable_attribution();
                }
                sim
            };
            let (outcome, Absorbed { jumps, .. }) = same_either_way(build, LIMIT);
            assert!(outcome.starts_with("Ok("), "{body:?}: {outcome}");
            assert!(jumps.is_empty(), "{body:?} traced={traced}: {jumps:?}");
        }
    }
}
