//! Counting allocator: forwards to the system allocator and counts
//! allocation events *per thread*, so an audit on one thread is not
//! polluted by the agent threads and the hot paths of the agents do not
//! contend on a shared counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: touching it from
    // inside the allocator can neither allocate nor recurse.
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

fn bump() {
    // `try_with` so an allocation during thread teardown, after the
    // slot is gone, is simply not counted.
    let _ = EVENTS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the thread-local counter
// has no effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events on the calling thread so far.
pub fn events() -> u64 {
    EVENTS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_this_threads_allocations_only() {
        let before = super::events();
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
        let other = std::thread::spawn(|| {
            let w: Vec<u64> = Vec::with_capacity(64);
            std::hint::black_box(&w);
        });
        other.join().unwrap();
        let mid = super::events();
        assert!(mid > before, "the Vec was counted");
        let x = std::hint::black_box(3u64) + 4;
        std::hint::black_box(x);
        assert_eq!(super::events(), mid, "no allocation, no count");
    }
}
