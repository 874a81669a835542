//! A counting global allocator: live heap bytes and their peak, so each
//! workload can report `peak_heap_mb` without an external profiler.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator plus two statistics counters.
pub struct Counting;

// Both counters are statistics that publish no other data, so every
// access is `Relaxed`.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the added code only updates
// two atomic counters and never touches the memory itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed
        // through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `realloc` are passed
        // through; `ptr` came from `System` via this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Heap bytes currently allocated.
#[cfg(test)]
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// The most heap bytes live at once since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}

/// Starts a new peak window at the current live figure, and returns it.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_freed_allocation() {
        // Larger than anything the other (concurrently running) tests
        // hold, so the figures below can only come from this block. It is
        // zero-filled by the system, so its pages are never touched.
        const BYTES: u64 = 256 << 20;
        reset_peak();
        let block = vec![0u8; BYTES as usize];
        assert!(live() >= BYTES);
        drop(std::hint::black_box(block));
        assert!(live() < BYTES, "the block was counted back out");
        assert!(peak() >= BYTES, "the peak remembers the freed block");
    }
}
