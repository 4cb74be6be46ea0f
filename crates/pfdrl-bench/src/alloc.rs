//! Counting global allocator for the allocation-count tests.
//!
//! Each test binary that counts allocations (`tests/*_alloc.rs`) installs
//! [`CountingAlloc`] as its own `#[global_allocator]`; the counters live
//! here so the tests can read them. Where the allocator is not installed
//! the counters simply stay at zero.
//!
//! Counting uses relaxed atomics: every increment lands, and the worker
//! threads of a measured window are joined before its closing snapshot,
//! so a snapshot-before/snapshot-after delta is exact as long as nothing
//! else in the process allocates meanwhile — which is why each counting
//! test binary holds a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Total number of allocation calls (alloc + alloc_zeroed + realloc).
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Total bytes requested across those calls.
pub static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts every allocation.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter
// updates have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// `(allocations, bytes)` snapshot of the counters.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

/// Allocation delta `(calls, bytes)` across `f`.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = snapshot();
    let out = f();
    let (a1, b1) = snapshot();
    (out, a1 - a0, b1 - b0)
}
