//! Byte-exact arena checkpoints.
//!
//! VampOS's checkpoint-based initialization (§V-E of the paper) restores the
//! memory image a component had *just after boot* instead of re-running its
//! shutdown/boot routines, because those routines would call into other
//! components and perturb their state. A [`Snapshot`] is that image: every
//! region's bytes plus the allocator and aging state at capture time.

use std::rc::Rc;
use std::sync::Arc;

use crate::aging::AgingState;
use crate::buddy::BuddyAllocator;
use crate::region::{is_zero, RegionKind};

/// One region's captured bytes.
#[derive(Debug, Clone)]
pub(crate) enum Image {
    /// The region had no backing at capture time: this many zeros.
    Zero(usize),
    /// A copy of the region's backing.
    Bytes(Arc<[u8]>),
}

impl Image {
    pub(crate) fn len(&self) -> usize {
        match self {
            Image::Zero(len) => *len,
            Image::Bytes(bytes) => bytes.len(),
        }
    }
}

// Like `Region`: what was materialised is not observable, only the bytes.
impl PartialEq for Image {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Image::Zero(a), Image::Zero(b)) => a == b,
            (Image::Bytes(a), Image::Bytes(b)) => a == b,
            (Image::Zero(len), Image::Bytes(bytes)) | (Image::Bytes(bytes), Image::Zero(len)) => {
                bytes.len() == *len && is_zero(bytes)
            }
        }
    }
}

/// A checkpoint of a [`MemoryArena`](crate::MemoryArena).
///
/// Obtained from [`MemoryArena::snapshot`](crate::MemoryArena::snapshot) and
/// consumed by [`MemoryArena::restore`](crate::MemoryArena::restore). The
/// total byte size ([`Snapshot::byte_len`]) drives the restore-time cost
/// model — the paper found snapshot loading to be the dominant factor in
/// stateful component reboot times (Fig. 6).
///
/// Region images are `Arc`-shared with the arena's dirty-region cache:
/// capturing a snapshot copies only the regions written since the previous
/// capture, regions untouched between two snapshots share one image, and a
/// region that was never written is captured as a length with no bytes.
/// `byte_len` still reports the full (non-text) image size — the cost-model
/// input is unchanged; only the real (host) copying work shrinks.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub(crate) arena_name: Rc<str>,
    pub(crate) regions: Vec<(RegionKind, Image)>,
    pub(crate) allocator: BuddyAllocator,
    pub(crate) aging: AgingState,
}

impl Snapshot {
    /// Name of the arena this snapshot was captured from.
    pub fn arena_name(&self) -> &str {
        &self.arena_name
    }

    /// Total size of the captured region images in bytes.
    ///
    /// Text regions are shared with the image on disk and never modified, so
    /// they are excluded — matching the paper's observation that 9PFS (which
    /// has no data/bss payload) restores fastest.
    pub fn byte_len(&self) -> usize {
        self.regions
            .iter()
            .filter(|(kind, _)| *kind != RegionKind::Text)
            .map(|(_, image)| image.len())
            .sum()
    }
}
