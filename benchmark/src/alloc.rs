//! A counting `#[global_allocator]`: the system allocator plus one relaxed
//! counter, switched on only around the traced frames. Switched off it costs
//! one relaxed load per allocation, on every commit alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting `alloc`/`realloc` calls while enabled.
pub struct CountingAllocator;

impl CountingAllocator {
    fn note() {
        // Relaxed: the counter publishes no other data; it is read after the
        // threads that bumped it have been joined.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far; callers take differences.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_counted_only_while_enabled() {
        // Other tests allocate concurrently, so only lower bounds hold.
        set_counting(true);
        let before = allocations();
        let boxes: Vec<Box<u64>> = (0..100).map(Box::new).collect();
        let counted = allocations() - before;
        set_counting(false);
        assert!(
            counted >= 100,
            "{counted} allocations for {} boxes",
            boxes.len()
        );
    }
}
