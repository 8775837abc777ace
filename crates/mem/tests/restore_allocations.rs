//! Restoring a checkpoint reuses the arena's memory instead of allocating.
//!
//! Every component reboot resets its arena and restores the boot image.
//! The allocator's free lists and block maps keep the capacity they have
//! grown, and `restore` copies the image's lists into them, so once one
//! cycle has sized them a reset + restore allocates nothing. The count is
//! taken in a test binary of its own so the counting allocator sees
//! nothing else.

use std::alloc::{GlobalAlloc, Layout, System as HostAllocator};
use std::cell::Cell;

use vampos_mem::{ArenaLayout, MemoryArena};

thread_local! {
    /// Allocations made by this thread. The test harness runs each test on
    /// a thread of its own, so a test reads only its own count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the only addition
// is a bump of a const-initialised, destructor-free thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { HostAllocator.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above with this layout.
        unsafe { HostAllocator.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { HostAllocator.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn reset_and_restore_of_a_warm_arena_allocate_nothing() {
    // A booted VFS-sized arena: the heap holds what boot allocated (split
    // blocks on most orders), no region bytes were written.
    let mut arena = MemoryArena::new("vfs", ArenaLayout::large());
    let _boot_blocks: Vec<_> = [128, 512, 64, 128, 4096]
        .into_iter()
        .map(|bytes| arena.alloc(bytes).unwrap())
        .collect();
    let boot = arena.snapshot();

    let cycle = |arena: &mut MemoryArena, k: usize| {
        // Serve between reboots: allocate, free some, leak one.
        let live: Vec<_> = (0..8)
            .map(|i| arena.alloc(32 << (i % 5)).unwrap())
            .collect();
        for handle in live.iter().skip(k % 3) {
            arena.free(handle).unwrap();
        }
        arena.leak(64).unwrap();
        let before = ALLOCATIONS.with(Cell::get);
        arena.reset();
        arena.restore(&boot).unwrap();
        ALLOCATIONS.with(Cell::get) - before
    };
    cycle(&mut arena, 0); // sizes every list
    let allocations: u64 = (1..1_000).map(|k| cycle(&mut arena, k)).sum();
    assert_eq!(allocations, 0, "reset + restore allocated");
    assert_eq!(arena.snapshot_full(), boot);
}
