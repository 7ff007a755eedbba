//! Allocation counting and resident-memory readings.
//!
//! The benchmark binary installs [`Counting`] as its global allocator, so
//! every allocation the library makes inside a timed call is counted
//! (calls and bytes). Resident memory comes from `/proc/self/status`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, plus counters of allocation calls and bytes requested.
pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` after
// bumping two statistics counters, which do not touch the memory handed
// out, so `System`'s guarantees are the ones the caller gets.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`; it is passed to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with `layout`; the caller upholds the rest of the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes so far, process-wide.
#[derive(Debug, Clone, Copy, Default)]
pub struct Allocs {
    pub calls: u64,
    pub bytes: u64,
}

impl Allocs {
    pub fn now() -> Self {
        Allocs { calls: CALLS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
    }

    /// What was allocated since `earlier`.
    pub fn since(self, earlier: Allocs) -> Allocs {
        Allocs { calls: self.calls - earlier.calls, bytes: self.bytes - earlier.bytes }
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`, ...), in bytes.
pub fn status_bytes(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))?;
    let kb: u64 = line[field.len() + 1..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}
