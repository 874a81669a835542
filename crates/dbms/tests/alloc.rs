//! Allocation regression test for the Table 4 engine: once warm, a run
//! allocates nothing per transaction, and its live heap stays small
//! however many transactions it runs.
//!
//! A counting global allocator keeps per-thread counters (so the test
//! harness's other threads do not disturb them): allocations made, bytes
//! live, and the peak of bytes live.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use epcm_dbms::config::{DbmsConfig, IndexStrategy};
use epcm_dbms::engine::run;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    ALLOCS.with(|a| a.set(a.get() + 1));
    LIVE.with(|live| {
        let now = live.get() + bytes as i64;
        live.set(now);
        PEAK.with(|p| p.set(p.get().max(now)));
    });
}

fn shrink(bytes: usize) {
    LIVE.with(|live| live.set(live.get() - bytes as i64));
}

// SAFETY: every call is passed through to `System` unchanged; the
// counters are const-initialised thread-locals with no destructor, so
// touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed
        // through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `realloc` are passed
        // through; `ptr` came from `System` via this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(allocations, peak live bytes above the starting level)` of one run.
fn measure(config: &DbmsConfig) -> (u64, i64) {
    let allocs = ALLOCS.with(Cell::get);
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    std::hint::black_box(run(config));
    (ALLOCS.with(Cell::get) - allocs, PEAK.with(Cell::get) - live)
}

#[test]
fn steady_state_allocates_nothing_per_transaction() {
    const PEAK_LIMIT: i64 = 4 << 20;
    for strategy in IndexStrategy::all() {
        let small = DbmsConfig {
            txn_count: 2_000,
            ..DbmsConfig::quick(strategy)
        };
        let large = DbmsConfig {
            txn_count: 20_000,
            ..small.clone()
        };
        let (small_allocs, _) = measure(&small);
        let (large_allocs, peak) = measure(&large);
        let extra_txns = (large.txn_count - small.txn_count) as f64;
        let per_txn = large_allocs.saturating_sub(small_allocs) as f64 / extra_txns;
        eprintln!(
            "{}: {small_allocs} allocations at 2 000 txns, {large_allocs} at 20 000 \
             ({per_txn:.4} per extra txn), peak live {peak} B",
            strategy.label()
        );
        assert!(
            per_txn < 0.05,
            "{}: {per_txn:.3} allocations per extra transaction",
            strategy.label()
        );
        assert!(
            peak < PEAK_LIMIT,
            "{}: peak live heap {peak} B over {PEAK_LIMIT} B",
            strategy.label()
        );
    }
}
