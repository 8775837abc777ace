//! Restoring a checkpoint reuses the arena's memory instead of allocating.
//!
//! Every component reboot resets its arena and restores the boot image.
//! The allocator's free lists and block maps keep the capacity they have
//! grown, and `restore` copies the image's lists into them, so once one
//! cycle has sized them a reset + restore allocates nothing. The count is
//! taken in a test binary of its own so the counting allocator sees
//! nothing else.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use vampos_mem::{ArenaLayout, MemoryArena};

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
        counting_alloc::allocations(|| {
            arena.reset();
            arena.restore(&boot).unwrap();
        })
    };
    cycle(&mut arena, 0); // sizes every list
    let allocations: u64 = (1..1_000).map(|k| cycle(&mut arena, k)).sum();
    assert_eq!(allocations, 0, "reset + restore allocated");
    assert_eq!(arena.snapshot_full(), boot);
}
