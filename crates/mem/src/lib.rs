//! Simulated per-component memory for VampOS-RS.
//!
//! In the paper's prototype, every VampOS component owns its text, data, bss,
//! heap and stack regions; the heap is managed by Unikraft's buddy allocator
//! (`ukallocbuddy`), snapshots of the regions implement checkpoint-based
//! initialization (§V-E), and *software aging* (memory leaks, fragmentation)
//! is exactly what component rejuvenation removes.
//!
//! This crate rebuilds those pieces:
//!
//! * [`RegionKind`] / [`MemoryArena`] — a component's address space, laid out
//!   as fixed regions over a flat local address range. Region sizes are
//!   logical: a region gets host memory on its first write, so an arena
//!   nobody writes costs its bookkeeping and nothing else
//!   ([`MemoryArena::footprint`] vs [`MemoryArena::resident_bytes`]),
//! * [`BuddyAllocator`] — a real binary-buddy allocator with splitting and
//!   coalescing, equivalent in behaviour to `ukallocbuddy`,
//! * [`AgingState`] — leak/fragmentation accounting, the observable effect of
//!   aging-related bugs,
//! * [`Snapshot`] — a byte-exact checkpoint of an arena, used for
//!   checkpoint-based initialization and sized for the restore cost model.
//!
//! # Example
//!
//! ```
//! use vampos_mem::{ArenaLayout, MemoryArena};
//!
//! let mut arena = MemoryArena::new("vfs", ArenaLayout::small());
//! let block = arena.alloc(128).expect("allocate");
//! arena.write(block.addr(), b"inode table").expect("write");
//! let snap = arena.snapshot();
//! arena.write(block.addr(), b"CORRUPTED!!").unwrap();
//! arena.restore(&snap).expect("restore");
//! assert_eq!(&arena.read(block.addr(), 11).unwrap(), b"inode table");
//! ```

pub mod aging;
pub mod arena;
pub mod buddy;
pub mod region;
pub mod snapshot;

pub use aging::AgingState;
pub use arena::{Addr, AllocHandle, ArenaLayout, MemError, MemoryArena};
pub use buddy::{BuddyAllocator, BuddyError};
pub use region::{Region, RegionKind};
pub use snapshot::Snapshot;
