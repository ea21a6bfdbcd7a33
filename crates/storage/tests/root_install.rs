//! An install into a `VersionedRoot` allocates nothing of its own: the
//! lane guards it holds while it switches every lane live on the stack.
//! Counted with a thread-local counting allocator, so it cannot flake, and
//! only meaningful on a host with more than one lane — where a heap `Vec`
//! of guards would show up as one allocation per install.

use fdm_storage::VersionedRoot;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with a const initializer and no destructor, so touching it neither
// allocates nor can run during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn an_uncontended_install_allocates_nothing() {
    let root = VersionedRoot::new(0i64);
    for expected in 0..8 {
        let (installed, allocs) = allocations(|| root.try_install(expected, expected as i64 * 10));
        assert_eq!(installed, Ok(expected + 1));
        assert_eq!(allocs, 0, "install over v{expected}");
    }
    // a lost race allocates nothing either, and installs nothing
    let (lost, allocs) = allocations(|| root.try_install(3, -1));
    assert!(lost.is_err());
    assert_eq!((allocs, root.load().value), (0, 70));
}
