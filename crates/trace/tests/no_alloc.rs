//! The acceptance test for the tracing hot path: recording does
//! no heap allocation — neither when tracing is disabled (the common
//! production state) nor per-span once a thread's ring exists.
//!
//! This binary holds only these tests so the counting allocator sees
//! no concurrent harness noise; measurements still take the minimum
//! over a few runs to tolerate any background bookkeeping.

use corona_trace::{record, set_enabled, Hop, TraceId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Minimum allocation count over `tries` runs of `f`.
fn min_allocs(tries: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..tries {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        f();
        best = best.min(ALLOCATIONS.load(Ordering::Relaxed) - before);
    }
    best
}

#[test]
fn recording_does_not_allocate() {
    // Disabled: the production default. Not a single allocation.
    set_enabled(false);
    let disabled = min_allocs(3, || {
        for i in 0..10_000 {
            record(Hop::FanoutEnqueue, TraceId(i), 1, i);
        }
    });
    assert_eq!(disabled, 0, "disabled record() must not allocate");

    // Enabled: the first span allocates this thread's ring, after
    // which the steady state is allocation-free too.
    set_enabled(true);
    record(Hop::ClientSubmit, TraceId(1), 0, 0); // warm up the ring
    let enabled = min_allocs(3, || {
        for i in 0..10_000 {
            record(Hop::FanoutEnqueue, TraceId(i), 1, i);
        }
    });
    set_enabled(false);
    assert_eq!(enabled, 0, "steady-state record() must not allocate");
}
