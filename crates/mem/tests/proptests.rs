//! Property-based tests for the memory substrate: buddy-allocator
//! invariants and snapshot/restore fidelity under arbitrary operation mixes.

use proptest::prelude::*;

use vampos_mem::{Addr, ArenaLayout, BuddyAllocator, MemError, MemoryArena, Snapshot};

#[derive(Debug, Clone)]
enum HeapOp {
    Alloc(usize),
    FreeNth(usize),
    Leak(usize),
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        (1usize..2048).prop_map(HeapOp::Alloc),
        (0usize..64).prop_map(HeapOp::FreeNth),
        (1usize..512).prop_map(HeapOp::Leak),
    ]
}

/// A layout small enough that random addresses hit every region, the
/// boundaries between them and the space past the end. `bss` is empty.
const TINY: ArenaLayout = ArenaLayout {
    text: 64,
    data: 32,
    bss: 0,
    heap: 256,
    stack: 64,
};

#[derive(Debug, Clone)]
enum ArenaOp {
    Alloc(usize),
    FreeNth(usize),
    Write(u64, Vec<u8>),
    FlipBit(u64, u8),
    Read(u64, usize),
    Snapshot,
    SnapshotFull,
    /// Restore the n-th stored checkpoint.
    Restore(usize),
    Reset,
}

fn arena_op() -> impl Strategy<Value = ArenaOp> {
    let addr = || 0u64..(TINY.total() as u64 + 16);
    prop_oneof![
        (1usize..96).prop_map(ArenaOp::Alloc),
        (0usize..8).prop_map(ArenaOp::FreeNth),
        (addr(), proptest::collection::vec(0u8..=255, 1..24))
            .prop_map(|(a, bytes)| ArenaOp::Write(a, bytes)),
        (addr(), 0u8..16).prop_map(|(a, bit)| ArenaOp::FlipBit(a, bit)),
        (addr(), 1usize..48).prop_map(|(a, len)| ArenaOp::Read(a, len)),
        Just(ArenaOp::Snapshot),
        Just(ArenaOp::SnapshotFull),
        (0usize..16).prop_map(ArenaOp::Restore),
        Just(ArenaOp::Reset),
    ]
}

/// The eager reference: every byte of the address space in one `Vec`.
struct EagerModel {
    bytes: Vec<u8>,
    /// `(start, end, writable)` per region, in layout order.
    regions: Vec<(usize, usize, bool)>,
}

impl EagerModel {
    fn new(layout: ArenaLayout) -> Self {
        let sizes = [
            (layout.text, false),
            (layout.data, true),
            (layout.bss, true),
            (layout.heap, true),
            (layout.stack, true),
        ];
        let mut regions = Vec::new();
        let mut base = 0;
        for (size, writable) in sizes {
            regions.push((base, base + size, writable));
            base += size;
        }
        EagerModel {
            bytes: vec![0; base],
            regions,
        }
    }

    /// The region holding all of `addr..addr+len`, as the arena finds it.
    fn region(&self, addr: u64, len: usize) -> Result<(usize, usize, bool), MemError> {
        let start = addr as usize;
        self.regions
            .iter()
            .copied()
            .find(|&(lo, hi, _)| start >= lo && start + len <= hi)
            .ok_or(MemError::OutOfBounds {
                addr: Addr(addr),
                len,
            })
    }

    fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        self.region(addr, len)?;
        Ok(self.bytes[addr as usize..addr as usize + len].to_vec())
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        let (_, _, writable) = self.region(addr, data.len())?;
        if !writable {
            return Err(MemError::ReadOnly { addr: Addr(addr) });
        }
        self.bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn flip_bit(&mut self, addr: u64, bit: u8) -> Result<(), MemError> {
        self.region(addr, 1)?;
        self.bytes[addr as usize] ^= 1 << (bit % 8);
        Ok(())
    }

    fn reset(&mut self) {
        for &(lo, hi, writable) in &self.regions {
            if writable {
                self.bytes[lo..hi].fill(0);
            }
        }
    }
}

/// Gives every region of `arena` a backing without changing a byte.
fn materialise(arena: &mut MemoryArena, model: &EagerModel) {
    for &(lo, hi, _) in &model.regions {
        if lo < hi {
            arena.flip_bit(Addr(lo as u64), 0).unwrap();
            arena.flip_bit(Addr(lo as u64), 0).unwrap();
        }
    }
}

proptest! {
    /// On-demand backing is invisible: a lazy arena, a twin kept fully
    /// materialised and an eager byte vector agree on every read, error,
    /// snapshot image, `byte_len`, restore and equality, whichever of the
    /// two arenas a checkpoint was captured from.
    #[test]
    fn lazy_backing_matches_an_eager_reference(
        ops in proptest::collection::vec(arena_op(), 1..120),
    ) {
        let mut lazy = MemoryArena::new("prop", TINY);
        let mut model = EagerModel::new(TINY);
        let mut eager = lazy.clone();
        materialise(&mut eager, &model);
        prop_assert_eq!(lazy.resident_bytes(), 0);
        prop_assert_eq!(eager.resident_bytes(), TINY.total());

        let mut live = Vec::new();
        let mut checkpoints: Vec<(Snapshot, Vec<u8>)> = Vec::new();
        for op in ops {
            match op {
                ArenaOp::Alloc(n) => {
                    let resident = lazy.resident_bytes();
                    let got = lazy.alloc(n);
                    prop_assert_eq!(&got, &eager.alloc(n));
                    prop_assert_eq!(lazy.resident_bytes(), resident, "alloc touched bytes");
                    live.extend(got);
                }
                ArenaOp::FreeNth(i) => {
                    if !live.is_empty() {
                        let handle = live.remove(i % live.len());
                        // A restore or reset may have rolled the block back.
                        prop_assert_eq!(lazy.free(&handle), eager.free(&handle));
                    }
                }
                ArenaOp::Write(addr, data) => {
                    let want = model.write(addr, &data);
                    prop_assert_eq!(lazy.write(Addr(addr), &data), want);
                    prop_assert_eq!(eager.write(Addr(addr), &data), want);
                }
                ArenaOp::FlipBit(addr, bit) => {
                    let want = model.flip_bit(addr, bit);
                    prop_assert_eq!(lazy.flip_bit(Addr(addr), bit), want);
                    prop_assert_eq!(eager.flip_bit(Addr(addr), bit), want);
                }
                ArenaOp::Read(addr, len) => {
                    let want = model.read(addr, len);
                    prop_assert_eq!(&lazy.read(Addr(addr), len), &want);
                    prop_assert_eq!(&eager.read(Addr(addr), len), &want);
                }
                ArenaOp::Snapshot | ArenaOp::SnapshotFull => {
                    let (a, b) = if matches!(op, ArenaOp::Snapshot) {
                        (lazy.snapshot(), eager.snapshot())
                    } else {
                        (lazy.snapshot_full(), eager.snapshot_full())
                    };
                    prop_assert_eq!(&a, &b, "zero image differs from zero bytes");
                    prop_assert_eq!(&a, &lazy.snapshot_full());
                    prop_assert_eq!(a.byte_len(), TINY.total() - TINY.text);
                    prop_assert_eq!(b.byte_len(), a.byte_len());
                    checkpoints.push((a, model.bytes.clone()));
                    checkpoints.push((b, model.bytes.clone()));
                }
                ArenaOp::Restore(pick) => {
                    if !checkpoints.is_empty() {
                        let (snap, bytes) = &checkpoints[pick % checkpoints.len()];
                        prop_assert_eq!(lazy.restore(snap), Ok(()));
                        prop_assert_eq!(eager.restore(snap), Ok(()));
                        model.bytes.clone_from(bytes);
                        prop_assert_eq!(&lazy.snapshot(), snap, "restore diverged");
                        materialise(&mut eager, &model);
                    }
                }
                ArenaOp::Reset => {
                    lazy.reset();
                    eager.reset();
                    model.reset();
                    // Text keeps its backing (and any flipped bit) across a reset.
                    prop_assert!(lazy.resident_bytes() <= TINY.text);
                    materialise(&mut eager, &model);
                }
            }
            prop_assert_eq!(&lazy, &eager);
            prop_assert_eq!(&lazy.clone(), &lazy);
            prop_assert_eq!(lazy.footprint(), TINY.total());
            prop_assert!(lazy.resident_bytes() <= eager.resident_bytes());
            prop_assert_eq!(eager.resident_bytes(), TINY.total());
        }
        // Every byte, region by region (a read may not cross a boundary).
        for &(lo, hi, _) in &model.regions {
            if lo < hi {
                let got = lazy.read(Addr(lo as u64), hi - lo).unwrap();
                prop_assert_eq!(&got[..], &model.bytes[lo..hi]);
            }
        }
    }

    /// Live blocks never overlap, regardless of the alloc/free/leak mix.
    #[test]
    fn buddy_blocks_never_overlap(ops in proptest::collection::vec(heap_op(), 1..200)) {
        let mut b = BuddyAllocator::new(1 << 14, 32);
        let mut live: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                HeapOp::Alloc(n) => {
                    if let Ok(off) = b.alloc(n) {
                        live.push(off);
                    }
                }
                HeapOp::FreeNth(i) => {
                    if !live.is_empty() {
                        let off = live.remove(i % live.len());
                        b.free(off).unwrap();
                    }
                }
                HeapOp::Leak(n) => {
                    let _ = b.leak(n);
                }
            }
            // Check pairwise disjointness of live blocks.
            let mut ranges: Vec<(u64, u64)> = live
                .iter()
                .map(|&off| (off, off + b.allocation_size(off).unwrap() as u64))
                .collect();
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "blocks overlap: {:?}", w);
            }
        }
    }

    /// Conservation: free + allocated + leaked always equals heap size.
    #[test]
    fn buddy_accounting_is_conserved(ops in proptest::collection::vec(heap_op(), 1..200)) {
        let mut b = BuddyAllocator::new(1 << 14, 32);
        let mut live: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                HeapOp::Alloc(n) => {
                    if let Ok(off) = b.alloc(n) {
                        live.push(off);
                    }
                }
                HeapOp::FreeNth(i) => {
                    if !live.is_empty() {
                        let off = live.remove(i % live.len());
                        b.free(off).unwrap();
                    }
                }
                HeapOp::Leak(n) => {
                    let _ = b.leak(n);
                }
            }
            prop_assert_eq!(
                b.free_bytes() + b.allocated_bytes() + b.leaked_bytes(),
                1 << 14
            );
        }
    }

    /// Freeing everything always coalesces back to one maximal block.
    #[test]
    fn buddy_full_free_fully_coalesces(sizes in proptest::collection::vec(1usize..1024, 1..50)) {
        let mut b = BuddyAllocator::new(1 << 14, 32);
        let offs: Vec<u64> = sizes.iter().filter_map(|&n| b.alloc(n).ok()).collect();
        for off in offs {
            b.free(off).unwrap();
        }
        prop_assert_eq!(b.free_bytes(), 1 << 14);
        prop_assert_eq!(b.largest_free_block(), 1 << 14);
    }

    /// Restoring a snapshot makes the arena byte-identical to capture time,
    /// no matter what happened in between.
    #[test]
    fn snapshot_restore_is_exact(
        writes_before in proptest::collection::vec((0usize..4096, 0u8..=255), 0..20),
        writes_after in proptest::collection::vec((0usize..4096, 0u8..=255), 0..20),
    ) {
        let mut arena = MemoryArena::new("prop", ArenaLayout::small());
        let block = arena.alloc(4096).unwrap();
        for (off, val) in writes_before {
            let addr = vampos_mem::Addr(block.addr().0 + off as u64);
            arena.write(addr, &[val]).unwrap();
        }
        let snap = arena.snapshot();
        let reference = arena.clone();

        for (off, val) in writes_after {
            let addr = vampos_mem::Addr(block.addr().0 + off as u64);
            arena.write(addr, &[val]).unwrap();
        }
        let _ = arena.leak(256);
        arena.restore(&snap).unwrap();

        prop_assert_eq!(arena, reference);
    }

    /// The incremental (dirty-region) snapshot path always captures the same
    /// bytes as an unconditional full copy, over arbitrary interleavings of
    /// writes, captures and restores of earlier checkpoints.
    #[test]
    fn incremental_snapshot_matches_full_copy(
        steps in proptest::collection::vec(
            (0usize..3, 0usize..4096, 0u8..=255, 0usize..8),
            1..60,
        ),
    ) {
        let mut arena = MemoryArena::new("prop", ArenaLayout::small());
        let block = arena.alloc(4096).unwrap();
        let mut snaps = Vec::new();
        for (kind, off, val, pick) in steps {
            match kind {
                // Write a byte somewhere in the block.
                0 => {
                    let addr = vampos_mem::Addr(block.addr().0 + off as u64);
                    arena.write(addr, &[val]).unwrap();
                }
                // Capture: the cached path must equal a fresh full copy.
                1 => {
                    let full = arena.snapshot_full();
                    let incremental = arena.snapshot();
                    prop_assert_eq!(&incremental, &full, "capture diverged");
                    snaps.push(incremental);
                }
                // Restore some earlier checkpoint, then re-verify capture.
                _ => {
                    if !snaps.is_empty() {
                        let snap = snaps[pick % snaps.len()].clone();
                        arena.restore(&snap).unwrap();
                        prop_assert_eq!(&arena.snapshot(), &snap, "restore diverged");
                    }
                }
            }
        }
    }
}
