//! A byte-counting global allocator for the paper's memory-cost metric.
//!
//! Wraps the system allocator with relaxed atomic counters for live and peak
//! bytes. `exp_all` registers it via `#[global_allocator]` and measures
//! per-query peak deltas; the overhead (two relaxed atomic ops per
//! allocation) is negligible next to allocation cost itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counting wrapper around the system allocator.
pub struct TrackingAllocator;

impl TrackingAllocator {
    /// Bytes currently allocated.
    #[must_use]
    pub fn live_bytes() -> usize {
        LIVE.load(Ordering::Relaxed)
    }

    /// High-water mark since the last [`TrackingAllocator::reset_peak`].
    #[must_use]
    pub fn peak_bytes() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Resets the high-water mark to the current live figure.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Runs `f` and returns `(result, peak_delta_bytes)`: how far the heap
    /// high-water mark rose above the live bytes at entry.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let base = Self::live_bytes();
        Self::reset_peak();
        let out = f();
        let peak = Self::peak_bytes();
        (out, peak.saturating_sub(base))
    }
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                let live = LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is not registered globally in unit tests; exercise the
    // counter API directly. The counters are global, so every check that
    // moves them lives in this one test: a second test allocating on a
    // parallel thread would shift the exact live-byte figures read here.
    #[test]
    fn counters_move_consistently() {
        let layout = Layout::from_size_align(4096, 8).unwrap();
        let before = TrackingAllocator::live_bytes();
        let p = unsafe { TrackingAllocator.alloc(layout) };
        assert!(!p.is_null());
        assert_eq!(TrackingAllocator::live_bytes(), before + 4096);
        assert!(TrackingAllocator::peak_bytes() >= before + 4096);
        unsafe { TrackingAllocator.dealloc(p, layout) };
        assert_eq!(TrackingAllocator::live_bytes(), before);

        // `measure` reports how far the peak rose, even once the bytes are
        // freed again.
        let layout = Layout::from_size_align(10_000, 8).unwrap();
        let (_, delta) = TrackingAllocator::measure(|| {
            let p = unsafe { TrackingAllocator.alloc(layout) };
            unsafe { TrackingAllocator.dealloc(p, layout) };
        });
        assert!(delta >= 10_000, "delta {delta}");
    }
}
