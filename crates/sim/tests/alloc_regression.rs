//! Allocation-count regression test for the engine's slab/arena reuse.
//!
//! The hot loop must not allocate per synchronization cycle: barrier
//! releases recycle their waiter vectors ([`BarrierObj::recycle`]),
//! task pools recycle their completion wait-lists, and `sync_stream`
//! reuses one scratch buffer. This test pins that property with a
//! counting global allocator: the *difference* in allocation count
//! between a long run and a short run of the same barrier-cycle
//! workload must stay O(1) — independent of how many cycles execute.
//!
//! (An absolute count would be brittle against setup-path changes; the
//! delta isolates exactly the steady-state loop.)

use ompvar_sim::prelude::*;
use ompvar_sim::time::SEC;
use ompvar_topology::{HwThreadId, MachineSpec, Place};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by *this* thread: the simulator runs on the
    /// calling thread, so tests on parallel test threads do not pollute
    /// each other's counts. Const-initialised and without a destructor,
    /// so touching it from the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `try_with`: the allocator still runs while a dying thread's TLS is
/// torn down.
fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs_so_far() -> u64 {
    ALLOCS.try_with(Cell::get).expect("test thread is alive")
}

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `reps` barrier+task-pool cycles across 4 tasks and return the
/// number of allocations made *inside* `Simulator::run` (setup and
/// report construction excluded as far as possible: the run itself is
/// the only thing between the two counter reads except `make_report`,
/// whose cost is reps-independent).
fn allocs_for(reps: u32) -> u64 {
    allocs_for_mode(reps, false)
}

fn allocs_for_mode(reps: u32, attributed: bool) -> u64 {
    let machine = MachineSpec::generic(1, 4, 1);
    let n = 4;
    let mut sim = Simulator::new(machine, SimParams::sterile(), 7);
    if attributed {
        sim.enable_attribution();
    }
    let barrier = sim.add_barrier(n, 1.0);
    let pool = sim.add_task_pool(1.0, n, n);
    for rank in 0..n {
        let prog = Program::builder()
            .repeat(reps)
            .compute(3.0e3, CorunClass::Latency)
            .task_spawn(pool, 1, 1.5e3)
            .task_wait(pool)
            .barrier(barrier)
            .end_repeat()
            .build();
        sim.spawn_user(rank, prog, Some(Place::single(HwThreadId(rank))));
    }
    allocs_in_run(sim)
}

/// Allocations made inside `sim.run`, which must finish every task.
fn allocs_in_run(sim: Simulator) -> u64 {
    let before = allocs_so_far();
    let report = sim.run(100 * SEC).expect("sync cycles complete");
    let after = allocs_so_far();
    assert_eq!(report.unfinished, 0);
    after - before
}

/// Run `reps` syncbench-shaped rounds across 4 tasks: an atomic, a
/// static loop, an ordered dynamic loop, a single, a critical section
/// and a task batch, with a barrier after each work-shared construct.
/// Between them they take every path by which the interpreter hands a
/// micro-op straight over or queues a tail behind it.
fn syncbench_allocs(reps: u32) -> u64 {
    let machine = MachineSpec::generic(1, 4, 1);
    let n = 4;
    let mut sim = Simulator::new(machine, SimParams::sterile(), 7);
    let barrier = sim.add_barrier(n, 1.0);
    let lock = sim.add_lock(1.0);
    let atomic = sim.add_atomic(1.0);
    let single = sim.add_single(n);
    let pool = sim.add_task_pool(1.0, n, n);
    let spec = |schedule, ordered_section_ns| LoopSpec {
        schedule,
        total_iters: 16,
        n_threads: n,
        body_cycles: 500.0,
        body_class: CorunClass::Latency,
        ordered_section_ns,
        batch: 1,
        span_factor: 1.0,
    };
    let static_loop = sim.add_loop(spec(LoopSchedule::Static { chunk: 2 }, None));
    let ordered_loop = sim.add_loop(spec(LoopSchedule::Dynamic { chunk: 1 }, Some(200.0)));
    for rank in 0..n {
        let prog = Program::builder()
            .repeat(reps)
            .atomic(atomic)
            .for_loop(static_loop)
            .barrier(barrier)
            .for_loop(ordered_loop)
            .barrier(barrier)
            .single(single, 1.0e3)
            .barrier(barrier)
            .critical(lock, 800.0, CorunClass::Latency)
            .task_spawn(pool, 2, 1.5e3)
            .task_wait(pool)
            .barrier(barrier)
            .end_repeat()
            .build();
        sim.spawn_user(rank, prog, Some(Place::single(HwThreadId(rank))));
    }
    allocs_in_run(sim)
}

/// Tripling the cycle count must not grow the allocation count beyond a
/// small constant slack (heap-`Vec` doublings, one-off lazy inits).
/// Before the slab-reuse work, every barrier release and every task
/// completion allocated a fresh `Vec`, so the delta scaled linearly
/// with `reps` (hundreds of allocations here).
#[test]
fn steady_state_sync_cycles_do_not_allocate() {
    // Warm up once so lazily grown structures reach capacity.
    let _ = allocs_for(8);
    let short = allocs_for(50);
    let long = allocs_for(150);
    let delta = long.saturating_sub(short);
    assert!(
        delta <= 16,
        "steady-state allocation churn returned: {short} allocs at 50 reps, \
         {long} at 150 reps (delta {delta}, want <= 16)"
    );
}

/// The same bound over every construct: a micro-op handed straight to
/// its task costs no allocation, and the tails queued behind it reuse the
/// task's deque.
#[test]
fn steady_state_syncbench_rounds_do_not_allocate() {
    let _ = syncbench_allocs(8);
    let short = syncbench_allocs(50);
    let long = syncbench_allocs(150);
    let delta = long.saturating_sub(short);
    assert!(
        delta <= 16,
        "syncbench rounds allocate per round: {short} allocs at 50 reps, \
         {long} at 150 reps (delta {delta}, want <= 16)"
    );
}

/// The task-spawn freelist: kernel-style task slots are recycled, so
/// the total task-table growth is bounded by the concurrency level,
/// not the number of tasks ever spawned. Indirectly visible as the
/// allocation delta above staying flat; here we also pin the absolute
/// per-run numbers into the same ballpark so a gross regression in the
/// setup path is noticed too.
/// Attribution is observation-only in space as well as in virtual time:
/// with the ledger *off* (the default), the attribution code contributes
/// zero steady-state allocations — the delta bound above holds in a
/// binary that carries the full attribution machinery, and a plain run
/// allocates the same count before and after an attributed run of the
/// identical workload (no global state leaks between modes). Attributed
/// runs themselves may allocate in proportion to the ledger samples they
/// record; that is the explicit, opt-in price of observation.
#[test]
fn attribution_off_leaves_hot_path_allocation_free() {
    let _ = allocs_for(8);
    let before = allocs_for(50);
    let _ = allocs_for_mode(50, true);
    let after = allocs_for(50);
    assert_eq!(
        before, after,
        "an attributed run changed the unattributed path's allocation count"
    );
}

#[test]
fn run_allocation_count_is_modest() {
    let _ = allocs_for(8);
    let count = allocs_for(100);
    // Pre-reuse this workload allocated > 600 times (2 Vecs per barrier
    // release + 2 per task-pool completion cycle, 100 cycles); with
    // slab reuse the whole run stays under a small fixed budget.
    assert!(
        count <= 200,
        "run allocated {count} times for 100 sync cycles (want <= 200)"
    );
}
