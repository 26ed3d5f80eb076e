//! Property tests for the event queue's ordering contract — the
//! invariant every determinism guarantee in the simulator rests on —
//! held to a sorted-map model of it.

use ompvar_sim::events::{EventKind, EventQueue};
use ompvar_sim::prelude::*;
use ompvar_topology::{HwThreadId, MachineSpec, Place};
use proptest::prelude::*;
use std::collections::BTreeMap;

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

/// The queue's contract written the obvious way: pending events keyed
/// by `(time, insertion index)`, popped smallest key first.
#[derive(Default)]
struct Model {
    pending: BTreeMap<(Time, usize), EventKind>,
    pushed: usize,
}

impl Model {
    fn push(&mut self, time: Time, kind: EventKind) {
        self.pending.insert((time, self.pushed), kind);
        self.pushed += 1;
    }

    fn pop(&mut self) -> Option<(Time, EventKind)> {
        self.pending.pop_first().map(|((time, _), kind)| (time, kind))
    }
}

/// Pop the queue and the model, holding the queue's `peek` (time *and*
/// kind) and `pop` to what the model pops.
fn pop_both(queue: &mut EventQueue, model: &mut Model) -> Result<(), TestCaseError> {
    let head = queue.peek();
    let next = model.pop();
    prop_assert_eq!(head, next);
    prop_assert_eq!(queue.pop(), next);
    Ok(())
}

proptest! {
    /// Popping everything yields ascending time, ties broken FIFO by
    /// insertion order — i.e. exactly a stable sort by time, across
    /// both tiers of the queue.
    #[test]
    fn pops_are_a_stable_sort_by_time(
        draws in prop::collection::vec((time(16), kind_draw()), 1..64),
    ) {
        let pushes = pushes(&draws);
        let mut expect = pushes.clone();
        expect.sort_by_key(|&(t, _)| t); // stable: FIFO within equal times
        let mut q = EventQueue::new();
        for &(t, k) in &pushes {
            q.push(t, k);
        }
        prop_assert_eq!(q.len(), pushes.len());
        let got: Vec<(Time, EventKind)> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(&got, &expect);
    }

    /// The tiered packed heaps agree with the model under arbitrary
    /// push/pop interleavings: same `len`, same pops, and the queue's
    /// `peek` announces each of them.
    #[test]
    fn packed_matches_reference_under_interleaving(
        ops in prop::collection::vec((time(64), kind_draw(), 0u64..4), 1..128),
    ) {
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        for (i, &(t, d, action)) in ops.iter().enumerate() {
            if action == 0 && !queue.is_empty() {
                pop_both(&mut queue, &mut model)?;
            } else {
                queue.push(t, kind(i, d));
                model.push(t, kind(i, d));
            }
            prop_assert_eq!(queue.len(), model.pending.len());
        }
        while !queue.is_empty() {
            pop_both(&mut queue, &mut model)?;
        }
        prop_assert_eq!(queue.peek(), None);
        prop_assert_eq!(model.pop(), None);
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

/// Regression: `tick_period = 0` with stacked pinned tasks used to
/// livelock the engine at time 0 (every tick re-firing at the same
/// instant). It is now rejected up front with a typed error — the test
/// returning at all is the point.
#[test]
fn zero_tick_period_is_rejected_up_front() {
    let mut params = SimParams::sterile();
    params.sched.tick_period = 0;
    let mut sim = Simulator::new(MachineSpec::generic(1, 2, 1), params, 42);
    let barrier = sim.add_barrier(3, 1.0);
    for rank in 0..3 {
        let prog = Program::builder()
            .compute(1e6, CorunClass::Latency)
            .barrier(barrier)
            .build();
        sim.spawn_user(rank, prog, Some(Place::single(HwThreadId(0))));
    }
    match sim.run(10 * SEC) {
        Err(SimError::InvalidParams { param, why }) => {
            assert_eq!(param, "sched.tick_period");
            assert!(why.contains("livelock"), "{why}");
        }
        other => panic!("expected InvalidParams, got {other:?}"),
    }
}
