//! Heap accounting for the `peak_heap_mb` metric.
//!
//! A wrapper around the system allocator that tracks live bytes and
//! their high-water mark, but only while [`peak_during`] runs: outside it
//! every (de)allocation pays one relaxed load, so the timed passes carry
//! no per-allocation accounting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since accounting started. Frees of
/// blocks allocated earlier make it negative; the peak is still the
/// largest extra heap the measured code held at once.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

pub struct CountingAlloc;

fn on_alloc(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(size as isize, Ordering::SeqCst) + size as isize;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }
}

fn on_dealloc(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as isize, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's `alloc`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's `alloc_zeroed`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's `dealloc`.
        unsafe { System.dealloc(p, layout) };
        on_dealloc(layout.size());
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's `realloc`.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            // A moving realloc holds both blocks at once; count the new
            // one before releasing the old so the peak sees it.
            on_alloc(new_size);
            on_dealloc(layout.size());
        }
        q
    }
}

/// Run `f` with accounting on; returns its result and the peak extra
/// heap it held, in bytes (allocations on every thread count).
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::SeqCst).max(0) as usize)
}
