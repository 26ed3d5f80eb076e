//! The absorbers' referent: the same simulation with both absorbers — the
//! idle fast-forward (`fast_forward.rs`) and the periodic jump
//! (`periodic.rs`) — switched off, which is the plain pop/handle loop
//! they replay. [`on_and_off`] runs a simulator both ways and compares the
//! whole `Result`'s `Debug` text — every float by its shortest round-trip
//! rendering, every counter and effect, every error value — and the seq
//! counter the run ended with. The switch and the record of what was
//! absorbed are per thread.
//!
//! The hand-built cases live beside each absorber. This module adds
//! generated ones: seeded team programs shaped like lowered regions, with
//! durations from a small set so that same-nanosecond ties are common,
//! each run on both paper machines with calibrated parameters.

use super::Simulator;
use crate::params::SimParams;
use crate::rng::Rng;
use crate::sync::{LoopSchedule, LoopSpec};
use crate::task::{CorunClass, ObjId, Program, ProgramBuilder};
use crate::time::{Time, SEC};
use ompvar_topology::{CoreId, MachineSpec, Place};
use std::cell::{Cell, RefCell};

/// One call of the periodic `jump`: what it replayed and the bounds it
/// met.
#[derive(Debug, Clone, Copy)]
pub(super) struct Jump {
    /// Whole periods replayed (0 when a bound already binds).
    pub(super) periods: u64,
    /// Events they hold, all counted.
    pub(super) events: u64,
    /// `counters.events` before the jump.
    pub(super) events_before: u64,
    /// Virtual time before and after the jump.
    pub(super) start: Time,
    pub(super) end: Time,
    /// The far-tier head at the jump.
    pub(super) far: Option<Time>,
    /// The bounds on `periods`.
    pub(super) by_far: u64,
    pub(super) by_limit: u64,
    pub(super) by_budget: u64,
    pub(super) by_frames: u64,
    /// Least `remaining` left after the jump over the frames the period
    /// counts down.
    pub(super) frames_left: u64,
    /// Whether the period was measured just before the jump, rather than
    /// earlier, from another state that encodes alike.
    pub(super) fresh: bool,
}

thread_local! {
    /// Whether both absorbers run on this thread: the switch.
    pub(super) static ABSORB: Cell<bool> = const { Cell::new(true) };
    /// Whether the period about to be replayed was just measured.
    pub(super) static FRESH: Cell<bool> = const { Cell::new(false) };
    /// Events the idle fast-forward has taken on this thread.
    static IDLE: Cell<u64> = const { Cell::new(0) };
    /// The seq counter at the end of the latest run on this thread.
    static SEQ: Cell<u64> = const { Cell::new(0) };
    /// Every jump made on this thread since the last `take`.
    static JUMPS: RefCell<Vec<Jump>> = const { RefCell::new(Vec::new()) };
}

/// Count `k` events taken by the idle fast-forward.
pub(super) fn record_idle(k: u64) {
    IDLE.set(IDLE.get() + k);
}

/// Record the seq counter a run ended with.
pub(super) fn record_seq(seq: u64) {
    SEQ.set(seq);
}

/// Record one jump.
pub(super) fn record_jump(jump: Jump) {
    JUMPS.with_borrow_mut(|j| {
        j.push(Jump {
            fresh: FRESH.get(),
            ..jump
        })
    });
}

/// What the absorbers took in one run.
#[derive(Debug, Default)]
pub(super) struct Absorbed {
    /// Events the idle fast-forward took.
    pub(super) idle: u64,
    /// Every jump, in order.
    pub(super) jumps: Vec<Jump>,
}

impl Absorbed {
    /// Events the jumps replayed.
    pub(super) fn periodic(&self) -> u64 {
        self.jumps.iter().map(|j| j.events).sum()
    }

    fn take() -> Self {
        Absorbed {
            idle: IDLE.take(),
            jumps: JUMPS.take(),
        }
    }
}

/// Run `build()` to `limit` and render the outcome's `Debug` text, then
/// the seq counter the run ended with: the absorbers must leave every
/// later tie-break where the live loop leaves it, even where no tie in
/// the run shows it.
fn outcome(build: impl Fn() -> Simulator, limit: Time) -> String {
    let result = build().run(limit);
    format!("{result:?}, seq {}", SEQ.get())
}

/// Run `build()` to `limit` with both absorbers on, then both off: both
/// outcomes' text and what the first run absorbed.
pub(super) fn on_and_off(build: impl Fn() -> Simulator, limit: Time) -> (String, String, Absorbed) {
    Absorbed::take();
    let on = outcome(&build, limit);
    let absorbed = Absorbed::take();
    ABSORB.set(false);
    let off = outcome(&build, limit);
    ABSORB.set(true);
    let leaked = Absorbed::take();
    assert!(
        leaked.idle == 0 && leaked.jumps.is_empty(),
        "the switch is off, yet the absorbers took events: {leaked:?}"
    );
    (on, off, absorbed)
}

/// [`on_and_off`], asserting the two outcomes equal.
pub(super) fn same_either_way(build: impl Fn() -> Simulator, limit: Time) -> (String, Absorbed) {
    let (on, off, absorbed) = on_and_off(build, limit);
    assert_eq!(on, off, "absorbers on and off diverge");
    (on, absorbed)
}

/// Durations, in cycles or nanoseconds: a small set, so that ranks often
/// finish on the same nanosecond and ties cross the checkpoints.
const DURATIONS: [f64; 3] = [100.0, 200.0, 300.0];

/// One construct of a generated region, as the runtime lowers it.
#[derive(Debug, Clone, Copy)]
enum Piece {
    Compute(f64),
    Busy(f64),
    Barrier,
    /// Lock, a busy body, unlock.
    Critical(f64),
    Atomic,
    /// `single`, then its barrier.
    Single(f64),
    /// A work-shared loop, then its barrier unless `nowait`.
    For {
        schedule: LoopSchedule,
        iters: u64,
        body: f64,
        ordered: Option<f64>,
        nowait: bool,
    },
    /// Spawns (by rank 0 or by every rank), a barrier, a task-wait and a
    /// barrier.
    Tasks {
        count: u32,
        body: f64,
        master_only: bool,
    },
    /// Rank 0 alone works long, then a barrier: the others spin through
    /// ticks and balancer passes.
    Straggler(f64),
}

/// A generated region: a team of `n` pinned ranks runs `outer` × {barrier;
/// mark; `inner` × body; mark}, rank 0 alone marking.
#[derive(Debug, Clone)]
struct Region {
    machine: MachineSpec,
    seed: u64,
    n: usize,
    /// Two ranks per core (stacked on one CPU without SMT).
    mt: bool,
    outer: u32,
    inner: u32,
    body: Vec<Piece>,
}

impl Region {
    /// The region of generator seed `seed` on `machine`.
    fn generate(machine: MachineSpec, seed: u64) -> Region {
        let rng = &mut Rng::new(seed);
        let d = |rng: &mut Rng| DURATIONS[rng.index(DURATIONS.len())];
        let body = (0..1 + rng.index(3))
            .map(|_| match rng.index(9) {
                0 => Piece::Compute(d(rng)),
                1 => Piece::Busy(d(rng)),
                2 => Piece::Barrier,
                3 => Piece::Critical(d(rng)),
                4 => Piece::Atomic,
                5 => Piece::Single(d(rng)),
                6 => Piece::For {
                    schedule: match rng.index(3) {
                        0 => LoopSchedule::Static {
                            chunk: 1 + rng.index(2) as u64,
                        },
                        1 => LoopSchedule::Dynamic {
                            chunk: 1 + rng.index(2) as u64,
                        },
                        _ => LoopSchedule::Guided { min_chunk: 1 },
                    },
                    iters: 4 + rng.index(13) as u64,
                    body: d(rng),
                    ordered: (rng.index(3) == 0).then(|| d(rng)),
                    nowait: rng.index(4) == 0,
                },
                7 => Piece::Tasks {
                    count: 1 + rng.index(3) as u32,
                    body: d(rng),
                    master_only: rng.index(2) == 0,
                },
                _ => Piece::Straggler(d(rng) * 1e4),
            })
            .collect();
        Region {
            machine,
            seed,
            n: 2 + rng.index(5),
            mt: rng.index(4) == 0,
            outer: 1 + rng.index(3) as u32,
            inner: [8, 32, 96][rng.index(3)],
            body,
        }
    }

    fn build(&self) -> Simulator {
        let params = SimParams::for_machine(&self.machine);
        let mut sim = Simulator::new(self.machine.clone(), params, self.seed);
        let n = self.n;
        let entry = sim.add_barrier(n, 1.0);
        // Each piece's objects, created in program order.
        let objs: Vec<(ObjId, ObjId)> = self
            .body
            .iter()
            .map(|&piece| match piece {
                Piece::Compute(_) | Piece::Busy(_) => (entry, entry),
                Piece::Barrier | Piece::Straggler(_) => (sim.add_barrier(n, 1.0), entry),
                Piece::Critical(_) => (sim.add_lock(1.0), entry),
                Piece::Atomic => (sim.add_atomic(1.0), entry),
                Piece::Single(_) => (sim.add_single(n), sim.add_barrier(n, 1.0)),
                Piece::For {
                    schedule,
                    iters,
                    body,
                    ordered,
                    ..
                } => {
                    let lp = sim.add_loop(LoopSpec {
                        schedule,
                        total_iters: iters,
                        n_threads: n,
                        body_cycles: body,
                        body_class: CorunClass::Latency,
                        ordered_section_ns: ordered,
                        batch: 1,
                        span_factor: 1.0,
                    });
                    (lp, sim.add_barrier(n, 1.0))
                }
                Piece::Tasks { master_only, .. } => {
                    let spawners = if master_only { 1 } else { n };
                    (sim.add_task_pool(1.0, n, spawners), sim.add_barrier(n, 1.0))
                }
            })
            .collect();
        for rank in 0..n {
            let mark = |b: ProgramBuilder, k| if rank == 0 { b.mark(k) } else { b };
            let b = Program::builder().repeat(self.outer).barrier(entry);
            let mut b = mark(b, 0).repeat(self.inner);
            for (&piece, &(obj, bar)) in self.body.iter().zip(&objs) {
                b = match piece {
                    Piece::Compute(c) => b.compute(c, CorunClass::Latency),
                    Piece::Busy(ns) => b.busy_ns(ns),
                    Piece::Barrier => b.barrier(obj),
                    Piece::Critical(ns) => b.lock(obj).busy_ns(ns).unlock(obj),
                    Piece::Atomic => b.atomic(obj),
                    Piece::Single(c) => b.single(obj, c).barrier(bar),
                    Piece::For { nowait, .. } => {
                        let b = b.for_loop(obj);
                        if nowait {
                            b
                        } else {
                            b.barrier(bar)
                        }
                    }
                    Piece::Tasks {
                        count,
                        body,
                        master_only,
                    } => {
                        let b = if rank == 0 || !master_only {
                            b.task_spawn(obj, count, body)
                        } else {
                            b
                        };
                        b.barrier(bar).task_wait(obj).barrier(bar)
                    }
                    Piece::Straggler(ns) => {
                        let b = if rank == 0 { b.busy_ns(ns) } else { b };
                        b.barrier(obj)
                    }
                };
            }
            let prog = mark(b.end_repeat(), 1).end_repeat().build();
            let (core, thread) = if self.mt {
                (rank / 2, rank % 2)
            } else {
                (rank, 0)
            };
            let threads = self.machine.hw_threads_of_core(CoreId(core));
            sim.spawn_user(
                rank,
                prog,
                Some(Place::single(threads[thread % threads.len()])),
            );
        }
        sim
    }
}

/// Generated regions on both paper machines with calibrated parameters:
/// identical results with both absorbers on and off, and both absorbers
/// take events.
#[test]
fn generated_programs_run_the_same_either_way() {
    let (mut idle, mut periodic) = (0, 0);
    for seed in 1..=64 {
        for machine in [MachineSpec::dardel(), MachineSpec::vera()] {
            let region = Region::generate(machine, seed);
            let (outcome, absorbed) = same_either_way(|| region.build(), 10 * SEC);
            assert!(outcome.starts_with("Ok("), "{region:?}: {outcome}");
            idle += absorbed.idle;
            periodic += absorbed.periodic();
        }
    }
    assert!(idle > 0, "the idle fast-forward took nothing");
    assert!(periodic > 0, "the periodic jump took nothing");
}
