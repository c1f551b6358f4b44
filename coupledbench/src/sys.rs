//! Process-level measurements taken from outside the model: CPU time,
//! per-run peak resident memory, and a counting allocator.
//!
//! Linux/glibc only: CPU time comes from `getrusage`, the peak-RSS reset
//! from `/proc/self/clear_refs` and the heap trim from `malloc_trim`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds consumed by this process so far (all threads,
/// including ones that have exited).
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a properly sized, writable rusage struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// A `/proc/self/status` field in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Start a per-run peak-RSS measurement: hand freed heap pages back to
/// the kernel, reset the kernel's high-water mark to the current resident
/// set, and return that resident set (bytes). glibc keeps part of the
/// memory freed by exited threads' arenas resident even after a trim, so
/// the caller measures against this start value rather than from zero.
/// `None` when the reset is unavailable.
pub fn reset_peak_rss() -> Option<u64> {
    // SAFETY: malloc_trim only releases free heap memory.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").ok()?;
    status_bytes("VmRSS:")
}

/// Peak resident set size (bytes) since the last [`reset_peak_rss`].
pub fn peak_rss_bytes() -> Option<u64> {
    status_bytes("VmHWM:")
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus allocation counters that only tick while
/// counting is switched on ([`count_allocations`]); otherwise the cost is
/// one relaxed load per allocation.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Run `f` with allocation counting on; returns its result plus the
/// (allocations, bytes requested) it made across all threads.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (c0, b0) = (
        ALLOC_COUNT.load(Ordering::SeqCst),
        ALLOC_BYTES.load(Ordering::SeqCst),
    );
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (
        out,
        ALLOC_COUNT.load(Ordering::SeqCst) - c0,
        ALLOC_BYTES.load(Ordering::SeqCst) - b0,
    )
}
