//! Property tests for the event queue's ordering contract — the
//! invariant every determinism guarantee in the simulator rests on —
//! and for the engine's token-invalidation semantics across the
//! optimized/reference queue implementations.

use ompvar_sim::events::{EventKind, EventQueue};
use ompvar_sim::prelude::*;
use ompvar_sim::time::{Time, MS, SEC, US};
use ompvar_topology::{HwThreadId, MachineSpec, Place};
use proptest::prelude::*;

/// What a property draws per push besides its time: a kind selector,
/// a CPU and a token salt.
type KindDraw = (u8, u32, u32);

fn kind_draw() -> impl Strategy<Value = KindDraw> {
    (0u8..8, any::<u32>(), any::<u32>())
}

/// The `i`-th push's kind, drawn across both tiers of the packed queue
/// (`CpuBoundary` lives in the near heap, every other kind in the far
/// one) and stamped with the insertion index so the pop order is fully
/// observable. Half the pushes are boundaries, with CPUs and tokens
/// spanning their whole width.
fn kind(i: usize, (sel, cpu, salt): KindDraw) -> EventKind {
    let token = (salt as u64) << 32 | i as u64;
    let cpu = cpu as usize;
    match sel {
        0..=3 => EventKind::CpuBoundary { cpu, token },
        4 | 5 => EventKind::TimerTick { cpu, token },
        6 => EventKind::NoiseArrival { src: i as u32 },
        _ => EventKind::LoadBalance,
    }
}

/// Times from a narrow band (so ties are common) plus the very top of
/// the range: `arm_noise`'s `saturating_add` parks events at `u64::MAX`.
fn time(band: u64) -> impl Strategy<Value = Time> {
    (0..band + 4).prop_map(move |x| if x < band { x } else { u64::MAX - (x - band) })
}

fn pushes(draws: &[(Time, KindDraw)]) -> Vec<(Time, EventKind)> {
    draws
        .iter()
        .enumerate()
        .map(|(i, &(t, d))| (t, kind(i, d)))
        .collect()
}

/// Pop both queues, holding the packed one's `peek` (time *and* kind)
/// and `pop` to what the reference pops.
fn pop_both(packed: &mut EventQueue, reference: &mut EventQueue) -> Result<(), TestCaseError> {
    let head = packed.peek();
    let next = reference.pop();
    prop_assert_eq!(head, next);
    prop_assert_eq!(packed.pop(), next);
    Ok(())
}

proptest! {
    /// Popping everything yields ascending time, ties broken FIFO by
    /// insertion order — i.e. exactly a stable sort by time, on both
    /// queue implementations and across both tiers of the packed one.
    #[test]
    fn pops_are_a_stable_sort_by_time(
        draws in prop::collection::vec((time(16), kind_draw()), 1..64),
    ) {
        let pushes = pushes(&draws);
        let mut expect = pushes.clone();
        expect.sort_by_key(|&(t, _)| t); // stable: FIFO within equal times
        for mut q in [EventQueue::new(), EventQueue::new_reference()] {
            for &(t, k) in &pushes {
                q.push(t, k);
            }
            prop_assert_eq!(q.len(), pushes.len());
            let got: Vec<(Time, EventKind)> = std::iter::from_fn(|| q.pop()).collect();
            prop_assert_eq!(&got, &expect);
        }
    }

    /// The tiered packed heaps and the reference binary heap agree under
    /// arbitrary push/pop interleavings: same `len`, same pops, and the
    /// packed queue's `peek` announces each of them.
    #[test]
    fn packed_matches_reference_under_interleaving(
        ops in prop::collection::vec((time(64), kind_draw(), 0u64..4), 1..128),
    ) {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new_reference();
        for (i, &(t, d, action)) in ops.iter().enumerate() {
            if action == 0 && !a.is_empty() {
                pop_both(&mut a, &mut b)?;
            } else {
                a.push(t, kind(i, d));
                b.push(t, kind(i, d));
            }
            prop_assert_eq!(a.len(), b.len());
        }
        while !a.is_empty() {
            pop_both(&mut a, &mut b)?;
        }
        prop_assert_eq!(a.peek(), None);
        prop_assert_eq!(b.pop(), None);
    }

    /// `second_time` (the fast-forward's batching bound) is exactly the
    /// earliest pending time excluding the head, whichever tiers the
    /// head and the runner-up sit in.
    #[test]
    fn second_time_is_earliest_after_head(
        draws in prop::collection::vec((time(32), kind_draw()), 2..64),
    ) {
        let mut q = EventQueue::new();
        for (t, k) in pushes(&draws) {
            q.push(t, k);
        }
        let mut sorted: Vec<Time> = draws.iter().map(|&(t, _)| t).collect();
        sorted.sort_unstable();
        // Pop halfway through, checking the bound before each pop.
        for k in 0..sorted.len() / 2 {
            prop_assert_eq!(q.peek().map(|(t, _)| t), Some(sorted[k]));
            prop_assert_eq!(q.second_time(), sorted.get(k + 1).copied());
            q.pop();
        }
    }
}

fn pin(cpu: usize) -> Option<Place> {
    Some(Place::single(HwThreadId(cpu)))
}

/// Build an oversubscription scenario that continuously invalidates
/// event tokens: `n_tasks` tasks stacked per CPU mean every quantum
/// expiry preempts (bumping the CPU's boundary token and repricing),
/// and timer ticks stay armed throughout. A zero `tick_period` used to
/// livelock both engine paths at time 0; `Simulator::run` now rejects
/// it at validation time (see `zero_tick_period_is_rejected_up_front`).
fn stacked_sim(
    n_tasks: usize,
    cycles: f64,
    tick_period: Time,
    quantum: Time,
    reference: bool,
) -> Simulator {
    let machine = MachineSpec::generic(1, 2, 1);
    let mut params = SimParams::sterile();
    params.sched.tick_period = tick_period;
    params.sched.tick_cost = 500;
    params.sched.quantum = quantum;
    let mut sim = Simulator::new(machine, params, 42);
    let barrier = sim.add_barrier(n_tasks, 1.0);
    for rank in 0..n_tasks {
        let prog = Program::builder()
            .compute(cycles, CorunClass::Latency)
            .barrier(barrier)
            .compute(cycles / 2.0, CorunClass::Latency)
            .build();
        // Stack everyone on CPU 0; CPU 1 stays idle as a migration
        // target for the load balancer.
        sim.spawn_user(rank, prog, pin(0));
    }
    if reference {
        sim.use_reference_engine();
    }
    sim
}

fn stacked_run(
    n_tasks: usize,
    cycles: f64,
    tick_period: Time,
    quantum: Time,
    reference: bool,
) -> String {
    let report = stacked_sim(n_tasks, cycles, tick_period, quantum, reference)
        .run(10 * SEC)
        .expect("stacked run completes");
    format!("{report:?}")
}

/// Regression: `tick_period = 0` with stacked pinned tasks used to
/// livelock the engine at time 0 on both paths (every tick re-firing at
/// the same instant). It is now rejected up front with a typed error,
/// identically on the optimized and reference engines — the test
/// returning at all is the point.
#[test]
fn zero_tick_period_is_rejected_up_front() {
    for reference in [false, true] {
        let sim = stacked_sim(3, 1e6, 0, 4 * MS, reference);
        match sim.run(10 * SEC) {
            Err(SimError::InvalidParams { param, why }) => {
                assert_eq!(param, "sched.tick_period");
                assert!(why.contains("livelock"), "{why}");
            }
            other => panic!(
                "reference={reference}: expected InvalidParams, got {other:?}"
            ),
        }
    }
}

proptest! {
    /// Token-invalidated events are no-ops, identically on both engine
    /// paths: oversubscribed quantum preemption plus live timer ticks
    /// generate a steady stream of stale `CpuBoundary`/`TimerTick`
    /// events, and the full report (every float, every counter) must
    /// come out bit-identical.
    #[test]
    fn stale_token_events_noop_identically(
        n_tasks in 2usize..5,
        mcycles in 1u64..20,
        tick_ms in 1u64..8,
    ) {
        let cycles = mcycles as f64 * 1e6;
        let tick = tick_ms * MS;
        let opt = stacked_run(n_tasks, cycles, tick, 4 * MS, false);
        let refr = stacked_run(n_tasks, cycles, tick, 4 * MS, true);
        prop_assert_eq!(opt, refr);
    }

    /// Same equivalence across quantum lengths: shorter quanta mean
    /// more preemptions, so more stale boundary tokens and more
    /// repricing — while the spin-wait phases give the optimized path's
    /// idle fast-forward room to engage.
    #[test]
    fn quantum_preemption_equivalence(
        n_tasks in 2usize..6,
        us in 50u64..500,
        quantum_us in 100u64..2000,
    ) {
        let cycles = (us * US) as f64 * 3.0; // ~3 GHz generic machine
        let quantum = quantum_us * US;
        let opt = stacked_run(n_tasks, cycles, 2 * MS, quantum, false);
        let refr = stacked_run(n_tasks, cycles, 2 * MS, quantum, true);
        prop_assert_eq!(opt, refr);
    }
}
