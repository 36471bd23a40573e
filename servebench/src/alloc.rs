//! A counting global allocator.
//!
//! Two kinds of counts, each behind its own switch so that a timed loop
//! pays one relaxed load per allocator call and no shared-atomic update:
//!
//! - live and peak heap bytes, tracked from process start until
//!   [`finish_peak`] turns tracking off for the rest of the process;
//! - allocation events (calls and bytes handed out), counted only inside
//!   [`count_allocs`] windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering::Relaxed};

// Every counter is a statistic that publishes no other data, so relaxed
// ordering is enough throughout.
static TRACK_LIVE: AtomicBool = AtomicBool::new(true);
static COUNT_EVENTS: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with the counters above.
pub struct Counting;

fn on_alloc(size: usize) {
    if TRACK_LIVE.load(Relaxed) {
        let live = LIVE.fetch_add(size as isize, Relaxed) + size as isize;
        PEAK.fetch_max(live, Relaxed);
    }
    if COUNT_EVENTS.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    }
}

fn on_free(size: usize) {
    if TRACK_LIVE.load(Relaxed) {
        LIVE.fetch_sub(size as isize, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, and the caller upholds `realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Turns live-byte tracking off for the rest of the process and returns the
/// highest live heap seen since process start, in bytes.
pub fn finish_peak() -> usize {
    TRACK_LIVE.store(false, Relaxed);
    usize::try_from(PEAK.load(Relaxed)).unwrap_or(0)
}

/// Runs `f` and returns its result with the allocator calls made meanwhile
/// (on any thread) and the bytes they handed out. A `realloc` counts as one
/// call handing out its new size.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed));
    COUNT_EVENTS.store(true, Relaxed);
    let out = f();
    COUNT_EVENTS.store(false, Relaxed);
    (
        out,
        ALLOCS.load(Relaxed) - calls,
        ALLOC_BYTES.load(Relaxed) - bytes,
    )
}
