//! Counting global allocator: live bytes, peak live bytes and the
//! allocation count of the whole process, so heap figures are measured at the
//! allocator instead of estimated from type sizes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct CountingAlloc;

// Statistics only: every counter is read for reporting and publishes no
// other data, so Relaxed is enough throughout.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and drop-free, so reading it never allocates.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    !UNCOUNTED.try_with(Cell::get).unwrap_or(false)
}

fn on_alloc(size: u64) {
    if !counted() {
        return;
    }
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn on_free(size: u64) {
    if counted() {
        LIVE.fetch_sub(size, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping around it never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as our caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as our caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size() as u64);
        // SAFETY: same contract as our caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as our caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        p
    }
}

/// Allocations made so far (reallocations included).
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Restart peak tracking at the current live size and return that size:
/// the baseline a later [`peak_since`] is measured against.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Peak live bytes above `baseline` since the matching [`reset_peak`].
pub fn peak_since(baseline: u64) -> u64 {
    PEAK.load(Relaxed).saturating_sub(baseline)
}

/// Run `f` with this thread's allocations left out of every count (the
/// benchmark's own bookkeeping, e.g. telemetry snapshots taken while a
/// window runs). Whatever `f` allocates must also be freed inside it.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    UNCOUNTED.with(|u| u.set(true));
    let r = f();
    UNCOUNTED.with(|u| u.set(false));
    r
}
