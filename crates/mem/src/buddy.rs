//! A binary buddy allocator, behaviourally equivalent to Unikraft's
//! `ukallocbuddy`.
//!
//! The allocator manages offsets within a component's heap region. Blocks are
//! powers of two; allocation splits larger blocks, freeing coalesces buddies.
//! The allocator also exposes the *fragmentation* view that software-aging
//! experiments need: total free bytes vs. the largest contiguous free block.

use std::cmp::Reverse;
use std::error::Error;
use std::fmt;

/// Errors returned by [`BuddyAllocator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuddyError {
    /// No free block large enough for the request.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
    },
    /// `free` was called with an offset that is not an allocated block.
    InvalidFree {
        /// The offending offset.
        offset: u64,
    },
    /// Allocation of zero bytes is not allowed.
    ZeroSize,
}

impl fmt::Display for BuddyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuddyError::OutOfMemory { requested } => {
                write!(f, "out of memory allocating {requested} bytes")
            }
            BuddyError::InvalidFree { offset } => {
                write!(f, "invalid free of offset {offset:#x}")
            }
            BuddyError::ZeroSize => f.write_str("zero-sized allocation"),
        }
    }
}

impl Error for BuddyError {}

/// A binary buddy allocator over a `size`-byte heap.
///
/// Its state is three sorted `Vec`s, so [`BuddyAllocator::reset`] and
/// `clone_from` (how an arena restores its checkpoint) reuse the capacity
/// they have already grown instead of allocating afresh.
///
/// # Example
///
/// ```
/// use vampos_mem::BuddyAllocator;
///
/// let mut heap = BuddyAllocator::new(1 << 16, 32);
/// let a = heap.alloc(100)?; // rounded up to 128
/// let b = heap.alloc(32)?;
/// heap.free(a)?;
/// heap.free(b)?;
/// assert_eq!(heap.free_bytes(), 1 << 16); // fully coalesced
/// # Ok::<(), vampos_mem::BuddyError>(())
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct BuddyAllocator {
    size: usize,
    min_block: usize,
    max_order: u32,
    /// Free blocks of every order (order 0 = `min_block` bytes) as
    /// `(order, Reverse(offset))`, sorted: one order's blocks are
    /// contiguous, and the lowest offset, the one `alloc` serves, is last.
    free: Vec<(u32, Reverse<u64>)>,
    /// Live allocations.
    allocated: Blocks,
    /// Blocks leaked on purpose by aging injection.
    leaked: Blocks,
}

impl Clone for BuddyAllocator {
    fn clone(&self) -> Self {
        BuddyAllocator {
            size: self.size,
            min_block: self.min_block,
            max_order: self.max_order,
            free: self.free.clone(),
            allocated: self.allocated.clone(),
            leaked: self.leaked.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.size = source.size;
        self.min_block = source.min_block;
        self.max_order = source.max_order;
        self.free.clone_from(&source.free);
        self.allocated.0.clone_from(&source.allocated.0);
        self.leaked.0.clone_from(&source.leaked.0);
    }
}

/// Blocks by offset: `(offset, order)` pairs sorted by offset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Blocks(Vec<(u64, u32)>);

impl Blocks {
    fn insert(&mut self, offset: u64, order: u32) {
        let at = self.0.partition_point(|&(o, _)| o < offset);
        self.0.insert(at, (offset, order));
    }

    fn get(&self, offset: u64) -> Option<u32> {
        let at = self.0.binary_search_by_key(&offset, |&(o, _)| o).ok()?;
        Some(self.0[at].1)
    }

    fn remove(&mut self, offset: u64) -> Option<u32> {
        let at = self.0.binary_search_by_key(&offset, |&(o, _)| o).ok()?;
        Some(self.0.remove(at).1)
    }

    fn orders(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().map(|&(_, order)| order)
    }
}

impl BuddyAllocator {
    /// Creates an allocator over `size` bytes with minimum block `min_block`.
    ///
    /// # Panics
    ///
    /// Panics unless `size` and `min_block` are powers of two with
    /// `min_block <= size`.
    pub fn new(size: usize, min_block: usize) -> Self {
        assert!(size.is_power_of_two(), "heap size must be a power of two");
        assert!(
            min_block.is_power_of_two(),
            "min block must be power of two"
        );
        assert!(min_block <= size, "min block larger than heap");
        let max_order = (size / min_block).trailing_zeros();
        BuddyAllocator {
            size,
            min_block,
            max_order,
            free: vec![(max_order, Reverse(0))],
            allocated: Blocks::default(),
            leaked: Blocks::default(),
        }
    }

    fn block_bytes(&self, order: u32) -> usize {
        self.min_block << order
    }

    fn order_for_request(&self, bytes: usize) -> u32 {
        let min_blocks = bytes.div_ceil(self.min_block);
        let rounded = min_blocks.next_power_of_two();
        rounded.trailing_zeros()
    }

    /// Allocates at least `bytes` bytes; returns the block offset.
    ///
    /// # Errors
    ///
    /// [`BuddyError::ZeroSize`] for `bytes == 0`;
    /// [`BuddyError::OutOfMemory`] when no free block can satisfy the request.
    pub fn alloc(&mut self, bytes: usize) -> Result<u64, BuddyError> {
        if bytes == 0 {
            return Err(BuddyError::ZeroSize);
        }
        let want = self.order_for_request(bytes);
        if want > self.max_order {
            return Err(BuddyError::OutOfMemory { requested: bytes });
        }
        // Take the lowest block of the smallest order >= want with one.
        let (mut order, _) = *self
            .free
            .get(self.free.partition_point(|&(o, _)| o < want))
            .ok_or(BuddyError::OutOfMemory { requested: bytes })?;
        let last = self.free.partition_point(|&(o, _)| o <= order) - 1;
        let (_, Reverse(off)) = self.free.remove(last);
        // Split down to the wanted order, freeing the upper halves.
        while order > want {
            order -= 1;
            let buddy = off + self.block_bytes(order) as u64;
            self.insert_free(order, buddy);
        }
        self.allocated.insert(off, want);
        Ok(off)
    }

    /// Frees the block at `offset`, coalescing with free buddies.
    ///
    /// # Errors
    ///
    /// [`BuddyError::InvalidFree`] when `offset` is not a live allocation.
    pub fn free(&mut self, offset: u64) -> Result<(), BuddyError> {
        let order = self
            .allocated
            .remove(offset)
            .ok_or(BuddyError::InvalidFree { offset })?;
        self.insert_and_coalesce(offset, order);
        Ok(())
    }

    fn insert_and_coalesce(&mut self, mut offset: u64, mut order: u32) {
        while order < self.max_order {
            let buddy = offset ^ self.block_bytes(order) as u64;
            match self.free.binary_search(&(order, Reverse(buddy))) {
                Ok(at) => {
                    self.free.remove(at);
                    offset = offset.min(buddy);
                    order += 1;
                }
                Err(_) => break,
            }
        }
        self.insert_free(order, offset);
    }

    fn insert_free(&mut self, order: u32, offset: u64) {
        let block = (order, Reverse(offset));
        let at = self.free.partition_point(|&b| b < block);
        self.free.insert(at, block);
    }

    /// Size in bytes of the live allocation at `offset`, if any.
    pub fn allocation_size(&self, offset: u64) -> Option<usize> {
        self.allocated.get(offset).map(|o| self.block_bytes(o))
    }

    /// Simulates an aging bug: allocates a block and *loses* the reference.
    /// Leaked blocks are only reclaimed by [`BuddyAllocator::reset`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`BuddyAllocator::alloc`].
    pub fn leak(&mut self, bytes: usize) -> Result<(), BuddyError> {
        let off = self.alloc(bytes)?;
        let order = self.allocated.remove(off).expect("just allocated");
        self.leaked.insert(off, order);
        Ok(())
    }

    /// Total heap size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> usize {
        self.free.iter().map(|&(o, _)| self.block_bytes(o)).sum()
    }

    /// Bytes held by live allocations.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated.orders().map(|o| self.block_bytes(o)).sum()
    }

    /// Bytes lost to injected leaks.
    pub fn leaked_bytes(&self) -> usize {
        self.leaked.orders().map(|o| self.block_bytes(o)).sum()
    }

    /// Largest allocation currently satisfiable, in bytes.
    pub fn largest_free_block(&self) -> usize {
        self.free.last().map_or(0, |&(o, _)| self.block_bytes(o))
    }

    /// External fragmentation in `[0, 1]`: `1 − largest_free/total_free`
    /// (0 when the heap is unfragmented or has no free space).
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_bytes();
        if free == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_block() as f64 / free as f64
    }

    /// Resets the allocator to its pristine boot state, reclaiming every
    /// allocation *and every leak* — this is what gives component reboot its
    /// rejuvenation effect.
    pub fn reset(&mut self) {
        self.free.clear();
        self.free.push((self.max_order, Reverse(0)));
        self.allocated.0.clear();
        self.leaked.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_rounds_up_to_power_of_two_blocks() {
        let mut b = BuddyAllocator::new(1024, 32);
        let off = b.alloc(33).unwrap();
        assert_eq!(b.allocation_size(off), Some(64));
        let off2 = b.alloc(1).unwrap();
        assert_eq!(b.allocation_size(off2), Some(32));
    }

    #[test]
    fn zero_alloc_is_an_error() {
        let mut b = BuddyAllocator::new(1024, 32);
        assert_eq!(b.alloc(0), Err(BuddyError::ZeroSize));
    }

    #[test]
    fn oversized_alloc_is_oom() {
        let mut b = BuddyAllocator::new(1024, 32);
        assert!(matches!(
            b.alloc(2048),
            Err(BuddyError::OutOfMemory { requested: 2048 })
        ));
    }

    #[test]
    fn exhaustion_then_free_recovers() {
        let mut b = BuddyAllocator::new(256, 32);
        let blocks: Vec<u64> = (0..8).map(|_| b.alloc(32).unwrap()).collect();
        assert!(b.alloc(32).is_err());
        b.free(blocks[3]).unwrap();
        assert!(b.alloc(32).is_ok());
    }

    #[test]
    fn free_coalesces_back_to_full_heap() {
        let mut b = BuddyAllocator::new(1 << 12, 32);
        let offs: Vec<u64> = (0..16).map(|_| b.alloc(100).unwrap()).collect();
        for off in offs {
            b.free(off).unwrap();
        }
        assert_eq!(b.free_bytes(), 1 << 12);
        assert_eq!(b.largest_free_block(), 1 << 12);
        assert_eq!(b.fragmentation(), 0.0);
    }

    #[test]
    fn double_free_is_rejected() {
        let mut b = BuddyAllocator::new(1024, 32);
        let off = b.alloc(32).unwrap();
        b.free(off).unwrap();
        assert_eq!(b.free(off), Err(BuddyError::InvalidFree { offset: off }));
    }

    #[test]
    fn free_of_unallocated_offset_is_rejected() {
        let mut b = BuddyAllocator::new(1024, 32);
        assert!(matches!(b.free(64), Err(BuddyError::InvalidFree { .. })));
    }

    #[test]
    fn leaks_reduce_capacity_until_reset() {
        let mut b = BuddyAllocator::new(1024, 32);
        b.leak(512).unwrap();
        assert_eq!(b.leaked_bytes(), 512);
        assert_eq!(b.free_bytes(), 512);
        b.reset();
        assert_eq!(b.leaked_bytes(), 0);
        assert_eq!(b.free_bytes(), 1024);
    }

    #[test]
    fn fragmentation_detected_with_interleaved_frees() {
        let mut b = BuddyAllocator::new(1024, 32);
        let offs: Vec<u64> = (0..32).map(|_| b.alloc(32).unwrap()).collect();
        // Free every other block: lots of free space, all 32-byte holes.
        for (i, off) in offs.iter().enumerate() {
            if i % 2 == 0 {
                b.free(*off).unwrap();
            }
        }
        assert_eq!(b.free_bytes(), 512);
        assert_eq!(b.largest_free_block(), 32);
        assert!(b.fragmentation() > 0.9);
    }

    #[test]
    fn accounting_adds_up() {
        let mut b = BuddyAllocator::new(2048, 32);
        let _a = b.alloc(100).unwrap();
        b.leak(64).unwrap();
        assert_eq!(
            b.free_bytes() + b.allocated_bytes() + b.leaked_bytes(),
            2048
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_heap_rejected() {
        let _ = BuddyAllocator::new(1000, 32);
    }
}
