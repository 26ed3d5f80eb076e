//! A counting global allocator for allocation guards: every test binary
//! that declares this module (`mod counting_alloc;`, or by `#[path]`
//! from another crate's tests) counts the allocations each of its
//! threads makes.

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

/// Allocations (and reallocations) the calling thread has made so far.
pub fn allocs_so_far() -> u64 {
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
