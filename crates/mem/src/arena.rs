//! A component's address space: fixed regions + a buddy-managed heap.

use std::error::Error;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use crate::aging::AgingState;
use crate::buddy::{BuddyAllocator, BuddyError};
use crate::region::{Region, RegionKind};
use crate::snapshot::{Image, Snapshot};

/// An address in a component's local address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

/// A live heap allocation inside an arena.
///
/// The handle is deliberately `Copy`-free: dropping it does **not** free the
/// block (that would hide leaks — the very thing the aging experiments
/// inject); call [`MemoryArena::free`] explicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocHandle {
    addr: Addr,
    len: usize,
}

/// A block hashes by its length only: a shrunk log's replay places the
/// same blocks at other addresses, and a component's digest must not see
/// where its blocks landed.
impl std::hash::Hash for AllocHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let AllocHandle { addr: _, len } = self;
        len.hash(state);
    }
}

impl AllocHandle {
    /// Start address of the block.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Usable length of the block in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-length handles (never produced by `alloc`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Sizes for each region of a component arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaLayout {
    /// Text (code) bytes; read-only.
    pub text: usize,
    /// Initialised data bytes.
    pub data: usize,
    /// Zero-initialised data bytes.
    pub bss: usize,
    /// Heap bytes; must be a power of two.
    pub heap: usize,
    /// Stack bytes.
    pub stack: usize,
}

impl ArenaLayout {
    /// Minimum heap block granted by the buddy allocator.
    pub const MIN_BLOCK: usize = 32;

    /// A small layout for utility components (PROCESS, USER, ...).
    pub fn small() -> Self {
        ArenaLayout {
            text: 16 << 10,
            data: 4 << 10,
            bss: 4 << 10,
            heap: 64 << 10,
            stack: 16 << 10,
        }
    }

    /// A medium layout for protocol components (9PFS, NETDEV, ...).
    pub fn medium() -> Self {
        ArenaLayout {
            text: 64 << 10,
            data: 16 << 10,
            bss: 32 << 10,
            heap: 1 << 20,
            stack: 32 << 10,
        }
    }

    /// A large layout for heavyweight components (VFS, LWIP).
    pub fn large() -> Self {
        ArenaLayout {
            text: 256 << 10,
            data: 128 << 10,
            bss: 256 << 10,
            heap: 8 << 20,
            stack: 64 << 10,
        }
    }

    /// A layout with no data/bss payload, mirroring the paper's observation
    /// that 9PFS only needs its heap snapshot restored.
    pub fn heap_only(heap: usize) -> Self {
        ArenaLayout {
            text: 32 << 10,
            data: 0,
            bss: 0,
            heap,
            stack: 16 << 10,
        }
    }

    /// Total bytes across all regions.
    pub fn total(&self) -> usize {
        self.text + self.data + self.bss + self.heap + self.stack
    }
}

/// Errors returned by [`MemoryArena`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Access touched no region or crossed a region boundary.
    OutOfBounds {
        /// Faulting address.
        addr: Addr,
        /// Access length.
        len: usize,
    },
    /// Write to a read-only (text) region.
    ReadOnly {
        /// Faulting address.
        addr: Addr,
    },
    /// Heap allocator failure.
    Alloc(BuddyError),
    /// Snapshot belongs to a different arena or layout.
    SnapshotMismatch,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len } => {
                write!(f, "access of {len} bytes at {addr} is out of bounds")
            }
            MemError::ReadOnly { addr } => write!(f, "write to read-only memory at {addr}"),
            MemError::Alloc(e) => write!(f, "heap allocation failed: {e}"),
            MemError::SnapshotMismatch => f.write_str("snapshot does not match this arena"),
        }
    }
}

impl Error for MemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MemError::Alloc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuddyError> for MemError {
    fn from(e: BuddyError) -> Self {
        MemError::Alloc(e)
    }
}

/// A component's simulated memory: text/data/bss/heap/stack regions over a
/// flat local address space, with a buddy-managed heap and aging accounting.
///
/// # Example
///
/// ```
/// use vampos_mem::{ArenaLayout, MemoryArena};
///
/// let mut arena = MemoryArena::new("lwip", ArenaLayout::medium());
/// let buf = arena.alloc(256)?;
/// arena.write(buf.addr(), &[0xAB; 256])?;
/// assert_eq!(arena.read(buf.addr(), 4)?, vec![0xAB; 4]);
/// arena.free(&buf)?;
/// # Ok::<(), vampos_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryArena {
    name: Rc<str>,
    layout: ArenaLayout,
    regions: Vec<Region>,
    heap_base: u64,
    allocator: BuddyAllocator,
    aging: AgingState,
    /// Dirty-region tracking for incremental snapshots: `dirty[i]` is set by
    /// every byte mutation of `regions[i]`, and `images[i]` caches the
    /// region's image as of the last capture/restore while it stays clean.
    dirty: Vec<bool>,
    images: Vec<Option<Arc<[u8]>>>,
}

// The dirty/image cache is an optimisation detail; two arenas are equal when
// their observable state (bytes + allocator + aging) is.
impl PartialEq for MemoryArena {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.layout == other.layout
            && self.regions == other.regions
            && self.heap_base == other.heap_base
            && self.allocator == other.allocator
            && self.aging == other.aging
    }
}

impl MemoryArena {
    /// Creates a zeroed arena with the given layout. The arena and its
    /// snapshots share `name`: passed as an `Rc<str>`, it is not copied.
    ///
    /// # Panics
    ///
    /// Panics if `layout.heap` is not a power of two (buddy requirement).
    pub fn new(name: impl Into<Rc<str>>, layout: ArenaLayout) -> Self {
        let mut regions = Vec::with_capacity(5);
        let mut base = 0u64;
        let mut heap_base = 0u64;
        for kind in RegionKind::ALL {
            let size = match kind {
                RegionKind::Text => layout.text,
                RegionKind::Data => layout.data,
                RegionKind::Bss => layout.bss,
                RegionKind::Heap => layout.heap,
                RegionKind::Stack => layout.stack,
            };
            if kind == RegionKind::Heap {
                heap_base = base;
            }
            regions.push(Region::new(kind, base, size));
            base += size as u64;
        }
        let count = regions.len();
        MemoryArena {
            name: name.into(),
            layout,
            regions,
            heap_base,
            allocator: BuddyAllocator::new(
                layout.heap.max(ArenaLayout::MIN_BLOCK),
                ArenaLayout::MIN_BLOCK,
            ),
            aging: AgingState::new(),
            dirty: vec![true; count],
            images: vec![None; count],
        }
    }

    /// The arena's (component) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The arena's layout.
    pub fn layout(&self) -> &ArenaLayout {
        &self.layout
    }

    /// Base address of the heap region.
    pub fn heap_base(&self) -> Addr {
        Addr(self.heap_base)
    }

    /// Total mapped bytes (all regions): the logical size Fig. 7b reports,
    /// whatever the host holds for it.
    pub fn footprint(&self) -> usize {
        self.layout.total()
    }

    /// Host bytes backing the regions that have been written so far.
    pub fn resident_bytes(&self) -> usize {
        self.regions.iter().map(Region::resident_bytes).sum()
    }

    /// Bytes of heap in use (live + leaked allocations).
    pub fn heap_used(&self) -> usize {
        self.allocator.allocated_bytes() + self.allocator.leaked_bytes()
    }

    /// Aging counters for this arena.
    pub fn aging(&self) -> &AgingState {
        &self.aging
    }

    /// Mutable aging counters (used by the fault injector).
    pub fn aging_mut(&mut self) -> &mut AgingState {
        &mut self.aging
    }

    /// Allocator metrics (fragmentation, free bytes, ...).
    pub fn allocator(&self) -> &BuddyAllocator {
        &self.allocator
    }

    /// Allocates `bytes` from the heap.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures as [`MemError::Alloc`].
    pub fn alloc(&mut self, bytes: usize) -> Result<AllocHandle, MemError> {
        let off = self.allocator.alloc(bytes)?;
        Ok(AllocHandle {
            addr: Addr(self.heap_base + off),
            len: bytes,
        })
    }

    /// Frees a previously allocated block.
    ///
    /// # Errors
    ///
    /// [`MemError::Alloc`] wrapping an invalid-free when the handle does not
    /// refer to a live allocation (e.g. double free).
    pub fn free(&mut self, handle: &AllocHandle) -> Result<(), MemError> {
        self.allocator
            .free(handle.addr.0 - self.heap_base)
            .map_err(MemError::from)
    }

    /// Simulates an aging bug: leaks `bytes` of heap.
    ///
    /// # Errors
    ///
    /// Propagates allocator OOM.
    pub fn leak(&mut self, bytes: usize) -> Result<(), MemError> {
        self.allocator.leak(bytes)?;
        self.aging.record_leak(bytes);
        Ok(())
    }

    fn region_for(&self, addr: Addr, len: usize) -> Result<usize, MemError> {
        self.regions
            .iter()
            .position(|r| r.contains(addr.0, len))
            .ok_or(MemError::OutOfBounds { addr, len })
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] when the range is not inside one region.
    pub fn read(&self, addr: Addr, len: usize) -> Result<Vec<u8>, MemError> {
        let idx = self.region_for(addr, len)?;
        let r = &self.regions[idx];
        let start = (addr.0 - r.base()) as usize;
        Ok(match r.bytes() {
            Some(bytes) => bytes[start..start + len].to_vec(),
            None => vec![0; len],
        })
    }

    /// Writes `bytes` at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] when outside every region,
    /// [`MemError::ReadOnly`] for writes into text.
    pub fn write(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), MemError> {
        let idx = self.region_for(addr, bytes.len())?;
        let r = &mut self.regions[idx];
        if !r.kind().is_writable() {
            return Err(MemError::ReadOnly { addr });
        }
        let start = (addr.0 - r.base()) as usize;
        r.bytes_mut()[start..start + bytes.len()].copy_from_slice(bytes);
        self.dirty[idx] = true;
        Ok(())
    }

    /// Flips one bit at `addr` (non-deterministic hardware-fault injection).
    /// Unlike [`MemoryArena::write`], this ignores write permissions — a bit
    /// flip does not consult the MMU.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] when `addr` maps to no region.
    pub fn flip_bit(&mut self, addr: Addr, bit: u8) -> Result<(), MemError> {
        let idx = self.region_for(addr, 1)?;
        let r = &mut self.regions[idx];
        let start = (addr.0 - r.base()) as usize;
        r.bytes_mut()[start] ^= 1 << (bit % 8);
        self.dirty[idx] = true;
        Ok(())
    }

    /// Captures a checkpoint of the arena.
    ///
    /// Incremental: only regions written since the last capture (or
    /// restore) are copied; clean regions share their cached `Arc` image
    /// with the previous snapshot, and regions that were never written at
    /// all are captured as a length. [`Snapshot::byte_len`] — the
    /// cost-model input — is unaffected by what was actually copied.
    pub fn snapshot(&mut self) -> Snapshot {
        let regions = self
            .regions
            .iter()
            .enumerate()
            .map(|(idx, r)| {
                let image = match (r.bytes(), &self.images[idx], self.dirty[idx]) {
                    (None, ..) => Image::Zero(r.len()),
                    (Some(_), Some(image), false) => Image::Bytes(Arc::clone(image)),
                    (Some(bytes), ..) => {
                        let fresh: Arc<[u8]> = Arc::from(bytes);
                        self.images[idx] = Some(Arc::clone(&fresh));
                        self.dirty[idx] = false;
                        Image::Bytes(fresh)
                    }
                };
                (r.kind(), image)
            })
            .collect();
        Snapshot {
            arena_name: self.name.clone(),
            regions,
            allocator: self.allocator.clone(),
            aging: self.aging.clone(),
        }
    }

    /// Captures a checkpoint without consulting or updating the
    /// dirty-region cache: every materialised region is copied afresh.
    /// Semantically identical to [`MemoryArena::snapshot`]; tests use it to
    /// cross-check the incremental path.
    pub fn snapshot_full(&self) -> Snapshot {
        Snapshot {
            arena_name: self.name.clone(),
            regions: self
                .regions
                .iter()
                .map(|r| {
                    let image = match r.bytes() {
                        Some(bytes) => Image::Bytes(Arc::from(bytes)),
                        None => Image::Zero(r.len()),
                    };
                    (r.kind(), image)
                })
                .collect(),
            allocator: self.allocator.clone(),
            aging: self.aging.clone(),
        }
    }

    /// Restores a checkpoint captured from this arena.
    ///
    /// Regions whose bytes provably still match the snapshot image (clean
    /// since a capture/restore of the very same image) are skipped, so
    /// restoring the boot checkpoint repeatedly only copies what the
    /// component dirtied in between.
    ///
    /// # Errors
    ///
    /// [`MemError::SnapshotMismatch`] when the snapshot belongs to a
    /// different arena or a different layout.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), MemError> {
        if snap.arena_name != self.name || snap.regions.len() != self.regions.len() {
            return Err(MemError::SnapshotMismatch);
        }
        for (region, (kind, image)) in self.regions.iter().zip(&snap.regions) {
            if region.kind() != *kind || region.len() != image.len() {
                return Err(MemError::SnapshotMismatch);
            }
        }
        for (idx, (region, (_, image))) in self.regions.iter_mut().zip(&snap.regions).enumerate() {
            match image {
                Image::Zero(_) => {
                    region.clear();
                    self.images[idx] = None;
                }
                Image::Bytes(bytes) => {
                    let unchanged = !self.dirty[idx]
                        && self.images[idx]
                            .as_ref()
                            .is_some_and(|img| Arc::ptr_eq(img, bytes));
                    if !unchanged {
                        region.overwrite(bytes);
                        self.images[idx] = Some(Arc::clone(bytes));
                        self.dirty[idx] = false;
                    }
                }
            }
        }
        self.allocator.clone_from(&snap.allocator);
        self.aging = snap.aging.clone();
        Ok(())
    }

    /// Resets the arena to pristine boot state: zero fill of writable
    /// regions (their backing is released), a fresh allocator, and
    /// rejuvenated aging counters.
    pub fn reset(&mut self) {
        for (idx, region) in self.regions.iter_mut().enumerate() {
            if region.kind().is_writable() {
                region.clear();
                self.images[idx] = None;
            }
        }
        self.allocator.reset();
        self.aging.rejuvenate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> MemoryArena {
        MemoryArena::new("test", ArenaLayout::small())
    }

    /// Whether two captures hold one image: the same copy, or no bytes.
    fn shared(a: &Image, b: &Image) -> bool {
        match (a, b) {
            (Image::Zero(a), Image::Zero(b)) => a == b,
            (Image::Bytes(a), Image::Bytes(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    #[test]
    fn layout_regions_are_contiguous_and_sized() {
        let a = arena();
        assert_eq!(a.footprint(), ArenaLayout::small().total());
        // Heap base is text+data+bss.
        let l = ArenaLayout::small();
        assert_eq!(a.heap_base().0, (l.text + l.data + l.bss) as u64);
    }

    /// Records what `Hash` writes: equal records hash alike under any
    /// hasher.
    struct Record(Vec<u8>);

    impl std::hash::Hasher for Record {
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
        fn finish(&self) -> u64 {
            0
        }
    }

    fn record(h: &AllocHandle) -> Vec<u8> {
        let mut r = Record(Vec::new());
        std::hash::Hash::hash(h, &mut r);
        r.0
    }

    #[test]
    fn a_block_hashes_by_length_not_address() {
        let mut a = arena();
        let (x, y, z) = (
            a.alloc(64).unwrap(),
            a.alloc(64).unwrap(),
            a.alloc(8).unwrap(),
        );
        assert_ne!(x.addr(), y.addr());
        assert_eq!(record(&x), record(&y));
        assert_ne!(record(&x), record(&z));
    }

    #[test]
    fn alloc_write_read_round_trip() {
        let mut a = arena();
        let h = a.alloc(64).unwrap();
        a.write(h.addr(), &[7; 64]).unwrap();
        assert_eq!(a.read(h.addr(), 64).unwrap(), vec![7; 64]);
        a.free(&h).unwrap();
    }

    #[test]
    fn out_of_bounds_access_fails() {
        let a = arena();
        let end = Addr(a.footprint() as u64);
        assert!(matches!(a.read(end, 1), Err(MemError::OutOfBounds { .. })));
    }

    #[test]
    fn cross_region_access_fails() {
        let a = arena();
        // 1 byte before the heap, 2 bytes long → crosses bss/heap boundary.
        let addr = Addr(a.heap_base().0 - 1);
        assert!(matches!(a.read(addr, 2), Err(MemError::OutOfBounds { .. })));
    }

    #[test]
    fn text_is_write_protected_but_bit_flippable() {
        let mut a = arena();
        assert!(matches!(
            a.write(Addr(0), &[1]),
            Err(MemError::ReadOnly { .. })
        ));
        a.flip_bit(Addr(0), 3).unwrap();
        assert_eq!(a.read(Addr(0), 1).unwrap(), vec![8]);
    }

    #[test]
    fn snapshot_restore_round_trips_heap_and_allocator() {
        let mut a = arena();
        let h = a.alloc(128).unwrap();
        a.write(h.addr(), b"persistent state................")
            .unwrap();
        let snap = a.snapshot();

        // Mutate after the snapshot: new allocation + overwrite.
        let h2 = a.alloc(64).unwrap();
        a.write(h.addr(), &[0xFF; 32]).unwrap();
        a.restore(&snap).unwrap();

        assert_eq!(
            a.read(h.addr(), 32).unwrap(),
            b"persistent state................".to_vec()
        );
        // h2 was allocated after the snapshot → freeing it now must fail,
        // because the allocator state was rolled back too.
        assert!(a.free(&h2).is_err());
        assert!(a.free(&h).is_ok());
    }

    #[test]
    fn restore_rejects_foreign_snapshot() {
        let mut a = arena();
        let mut other = MemoryArena::new("other", ArenaLayout::small());
        assert_eq!(
            a.restore(&other.snapshot()),
            Err(MemError::SnapshotMismatch)
        );
        let mut bigger = MemoryArena::new("test", ArenaLayout::medium());
        assert_eq!(
            a.restore(&bigger.snapshot()),
            Err(MemError::SnapshotMismatch)
        );
    }

    #[test]
    fn snapshot_byte_len_excludes_text() {
        let mut a = arena();
        let snap = a.snapshot();
        let l = ArenaLayout::small();
        assert_eq!(snap.byte_len(), l.data + l.bss + l.heap + l.stack);
    }

    #[test]
    fn reset_rejuvenates() {
        let mut a = arena();
        let h = a.alloc(32).unwrap();
        a.write(h.addr(), &[9; 32]).unwrap();
        a.leak(64).unwrap();
        assert!(a.aging().is_aged());

        a.reset();
        assert!(!a.aging().is_aged());
        assert_eq!(a.aging().rejuvenations(), 1);
        assert_eq!(a.heap_used(), 0);
        // Old handle no longer valid.
        assert!(a.free(&h).is_err());
        // Memory zeroed.
        assert_eq!(a.read(h.addr(), 32).unwrap(), vec![0; 32]);
    }

    #[test]
    fn heap_only_layout_has_empty_data_and_bss() {
        let mut a = MemoryArena::new("9pfs", ArenaLayout::heap_only(1 << 20));
        let snap = a.snapshot();
        assert_eq!(snap.byte_len(), (1 << 20) + (16 << 10));
    }

    #[test]
    fn clean_regions_share_one_image_across_snapshots() {
        let mut a = arena();
        let h = a.alloc(64).unwrap();
        a.write(h.addr(), &[1; 64]).unwrap();
        let s1 = a.snapshot();
        // Nothing written in between: every region image is shared.
        let s2 = a.snapshot();
        for ((_, b1), (_, b2)) in s1.regions.iter().zip(&s2.regions) {
            assert!(shared(b1, b2), "clean region was recopied");
        }
        // Dirty the heap only: the heap image is fresh, the rest shared.
        a.write(h.addr(), &[2; 64]).unwrap();
        let s3 = a.snapshot();
        let heap_idx = RegionKind::ALL
            .iter()
            .position(|&k| k == RegionKind::Heap)
            .unwrap();
        for (idx, ((_, b2), (_, b3))) in s2.regions.iter().zip(&s3.regions).enumerate() {
            assert_eq!(
                shared(b2, b3),
                idx != heap_idx,
                "wrong sharing for region {idx}"
            );
        }
        assert_eq!(s3.byte_len(), s1.byte_len(), "cost-model input changed");
    }

    #[test]
    fn incremental_snapshot_equals_full_snapshot() {
        let mut a = arena();
        let h = a.alloc(256).unwrap();
        a.write(h.addr(), &[9; 256]).unwrap();
        let _warm = a.snapshot(); // prime the cache
        a.write(h.addr(), &[7; 16]).unwrap();
        let incremental = a.snapshot();
        let full = a.snapshot_full();
        assert_eq!(incremental, full);
    }

    #[test]
    fn restore_skips_untouched_regions_but_stays_exact() {
        let mut a = arena();
        let h = a.alloc(128).unwrap();
        a.write(h.addr(), &[5; 128]).unwrap();
        let snap = a.snapshot();
        // Restore immediately (no dirtying): a pure cache hit.
        a.restore(&snap).unwrap();
        assert_eq!(a.read(h.addr(), 128).unwrap(), vec![5; 128]);
        // Dirty one region, restore again: bytes must match the capture.
        a.write(h.addr(), &[0xAA; 128]).unwrap();
        a.restore(&snap).unwrap();
        assert_eq!(a.read(h.addr(), 128).unwrap(), vec![5; 128]);
        // And a snapshot right after a restore shares the restored images.
        let s2 = a.snapshot();
        for ((_, b1), (_, b2)) in snap.regions.iter().zip(&s2.regions) {
            assert!(shared(b1, b2), "post-restore capture recopied");
        }
    }

    #[test]
    fn bit_flips_invalidate_the_image_cache() {
        let mut a = arena();
        let snap = a.snapshot();
        a.flip_bit(Addr(0), 3).unwrap(); // text: not writable, still dirties
        let s2 = a.snapshot();
        assert!(!shared(&snap.regions[0].1, &s2.regions[0].1));
        assert_ne!(snap.regions[0].1, s2.regions[0].1);
    }

    #[test]
    fn pristine_regions_share_one_zero_image_across_arenas() {
        let mut a = MemoryArena::new("a", ArenaLayout::medium());
        let mut b = MemoryArena::new("b", ArenaLayout::medium());
        let sa = a.snapshot();
        let sb = b.snapshot();
        for ((ka, ia), (kb, ib)) in sa.regions.iter().zip(&sb.regions) {
            assert_eq!(ka, kb);
            assert!(shared(ia, ib), "pristine {ka} region was copied");
        }
        assert_eq!((a.resident_bytes(), b.resident_bytes()), (0, 0));
        // The byte-less image must stay observationally identical to a
        // full byte copy of a region that holds materialised zeros.
        let mut eager = MemoryArena::new("a", ArenaLayout::medium());
        for r in &mut eager.regions {
            r.bytes_mut();
        }
        assert_eq!(eager.resident_bytes(), eager.footprint());
        assert_eq!(sa, eager.snapshot_full());
        assert_eq!(a, eager);
    }

    #[test]
    fn writes_break_pristineness_and_reset_restores_it() {
        let mut a = arena();
        let l = ArenaLayout::small();
        assert_eq!(a.resident_bytes(), 0);
        let h = a.alloc(32).unwrap();
        assert_eq!(a.resident_bytes(), 0, "alloc touched bytes");
        a.write(h.addr(), &[1; 32]).unwrap();
        assert_eq!(a.resident_bytes(), l.heap, "only the heap was written");
        let dirty = a.snapshot();
        let heap_idx = RegionKind::ALL
            .iter()
            .position(|&k| k == RegionKind::Heap)
            .unwrap();
        assert!(
            matches!(dirty.regions[heap_idx].1, Image::Bytes(_)),
            "written heap captured without its bytes"
        );
        a.reset();
        assert_eq!(a.resident_bytes(), 0);
        let clean = a.snapshot();
        assert!(
            matches!(clean.regions[heap_idx].1, Image::Zero(len) if len == l.heap),
            "reset heap did not return to the zero image"
        );
        assert_eq!(clean, a.snapshot_full());
        assert_eq!(a.read(h.addr(), 32).unwrap(), vec![0; 32]);
    }

    #[test]
    fn a_large_arena_holds_no_bytes_until_written() {
        let large = ArenaLayout::large();
        let mut a = MemoryArena::new("vfs", large);
        assert_eq!((a.resident_bytes(), a.footprint()), (0, large.total()));
        a.write(Addr(large.text as u64), &[1]).unwrap(); // first byte of data
        assert_eq!(a.resident_bytes(), large.data);
        a.reset();
        assert_eq!((a.resident_bytes(), a.footprint()), (0, large.total()));
    }

    #[test]
    fn restore_crosses_materialised_and_unmaterialised_states() {
        let mut a = arena();
        let zero = a.snapshot();
        let h = a.alloc(16).unwrap();
        a.write(h.addr(), &[3; 16]).unwrap();
        let dirty = a.snapshot();
        // Zero snapshot into a written arena: the backing is released.
        a.restore(&zero).unwrap();
        assert_eq!(a.resident_bytes(), 0);
        assert_eq!(a.read(h.addr(), 16).unwrap(), vec![0; 16]);
        assert_eq!(a.snapshot(), zero);
        // Dirty snapshot into an unmaterialised arena: only the heap comes back.
        a.restore(&dirty).unwrap();
        assert_eq!(a.resident_bytes(), ArenaLayout::small().heap);
        assert_eq!(a.read(h.addr(), 16).unwrap(), vec![3; 16]);
        assert_eq!(a.snapshot_full(), dirty);
    }

    #[test]
    fn leak_reduces_free_heap_until_reset() {
        let mut a = arena();
        let before = a.allocator().free_bytes();
        a.leak(1024).unwrap();
        assert!(a.allocator().free_bytes() < before);
        assert_eq!(a.heap_used(), 1024);
        a.reset();
        assert_eq!(a.allocator().free_bytes(), before);
    }
}
