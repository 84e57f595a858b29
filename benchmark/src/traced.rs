//! The traced run: the same code as the plain binary plus the in-memory
//! span tracer and a counting global allocator. The allocator is the only
//! `unsafe` in the package, which is why it lives in this binary alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations made and bytes asked for since the process began. Both
/// only publish statistics, so `Relaxed` is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every request for new memory.
struct Counting;

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counters touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`, because
        // every allocation of this allocator is one of `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

fn main() {
    std::process::exit(lbp_benchmark::cli::main(Some(allocations)));
}

#[cfg(test)]
mod tests {
    use super::allocations;

    #[test]
    fn a_known_allocation_is_counted() {
        let (allocs, bytes) = allocations();
        let block = std::hint::black_box(vec![0u8; 4096]);
        let (allocs_after, bytes_after) = allocations();
        // The test harness may allocate on other threads meanwhile, so
        // the counts are floors.
        assert!(allocs_after > allocs);
        assert!(bytes_after - bytes >= 4096);
        let grown = {
            let mut v = block;
            v.reserve_exact(8192);
            std::hint::black_box(v)
        };
        assert!(
            allocations().1 - bytes_after >= 4096 + 8192,
            "{}",
            grown.capacity()
        );
    }
}
