//! Memory regions: the segments making up a component's address space.

use std::fmt;

/// The kind of a memory region inside a component.
///
/// Mirrors the segments the paper's prototype places per component: the
/// read-only text, the initialised `.data`, zero-initialised `.bss`, the
/// buddy-managed heap, and the component thread's stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegionKind {
    /// Executable code; read-only.
    Text,
    /// Initialised static data.
    Data,
    /// Zero-initialised static data.
    Bss,
    /// Dynamically allocated memory, managed by the buddy allocator.
    Heap,
    /// The component thread's stack.
    Stack,
}

impl RegionKind {
    /// All region kinds in layout order (ascending base address).
    pub const ALL: [RegionKind; 5] = [
        RegionKind::Text,
        RegionKind::Data,
        RegionKind::Bss,
        RegionKind::Heap,
        RegionKind::Stack,
    ];

    /// Whether writes to this region are legal.
    pub fn is_writable(self) -> bool {
        !matches!(self, RegionKind::Text)
    }
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RegionKind::Text => "text",
            RegionKind::Data => "data",
            RegionKind::Bss => "bss",
            RegionKind::Heap => "heap",
            RegionKind::Stack => "stack",
        };
        f.write_str(s)
    }
}

/// One contiguous memory region: a kind, a base address in the component's
/// local address space, and a logical size. Backing bytes are allocated by
/// the first mutable byte access; until then the region reads as zeros and
/// costs the host nothing.
#[derive(Debug, Clone, Eq)]
pub struct Region {
    kind: RegionKind,
    base: u64,
    len: usize,
    backing: Option<Vec<u8>>,
}

// Backing is a host-side detail, not observable state: an unmaterialised
// region equals a materialised one that holds only zeros.
impl PartialEq for Region {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.base == other.base
            && self.len == other.len
            && match (&self.backing, &other.backing) {
                (None, None) => true,
                (Some(a), Some(b)) => a == b,
                (Some(bytes), None) | (None, Some(bytes)) => is_zero(bytes),
            }
    }
}

pub(crate) fn is_zero(bytes: &[u8]) -> bool {
    bytes.iter().all(|&b| b == 0)
}

impl Region {
    /// Creates a zero-filled region of `size` bytes at `base`.
    pub fn new(kind: RegionKind, base: u64, size: usize) -> Self {
        Region {
            kind,
            base,
            len: size,
            backing: None,
        }
    }

    /// The region's kind.
    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    /// Base address in the component-local address space.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the region has zero size.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the last address of the region.
    pub fn end(&self) -> u64 {
        self.base + self.len as u64
    }

    /// Whether `addr..addr+len` falls entirely inside this region.
    pub fn contains(&self, addr: u64, len: usize) -> bool {
        addr >= self.base && addr.saturating_add(len as u64) <= self.end()
    }

    /// The backing bytes, or `None` while the region has never been
    /// mutably accessed (since creation or the last [`Region::clear`]) and
    /// so reads as [`Region::len`] zeros.
    pub fn bytes(&self) -> Option<&[u8]> {
        self.backing.as_deref()
    }

    /// Host bytes held by the backing: `len` once materialised, else 0.
    pub fn resident_bytes(&self) -> usize {
        self.backing.as_ref().map_or(0, Vec::len)
    }

    /// Mutably borrow the backing bytes, allocating them on first use.
    ///
    /// Write-permission checks are performed by the arena, not here; this is
    /// also the hook fault injection uses to corrupt memory directly.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.backing.get_or_insert_with(|| vec![0; self.len])
    }

    /// Replaces the backing bytes (used by snapshot restore).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` has a different length than the region.
    pub fn overwrite(&mut self, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            self.len,
            "snapshot size mismatch for {} region",
            self.kind
        );
        self.bytes_mut().copy_from_slice(bytes);
    }

    /// Zero-fills the region by releasing its backing.
    pub fn clear(&mut self) {
        self.backing = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_is_read_only_every_other_region_writable() {
        assert!(!RegionKind::Text.is_writable());
        for kind in [
            RegionKind::Data,
            RegionKind::Bss,
            RegionKind::Heap,
            RegionKind::Stack,
        ] {
            assert!(kind.is_writable(), "{kind} should be writable");
        }
    }

    #[test]
    fn contains_respects_bounds() {
        let r = Region::new(RegionKind::Heap, 0x1000, 64);
        assert!(r.contains(0x1000, 64));
        assert!(r.contains(0x1020, 8));
        assert!(!r.contains(0x0fff, 1));
        assert!(!r.contains(0x1000, 65));
        assert!(!r.contains(0x1040, 1));
    }

    #[test]
    fn contains_handles_address_overflow() {
        let r = Region::new(RegionKind::Heap, 0x1000, 64);
        assert!(!r.contains(u64::MAX, 2));
    }

    #[test]
    fn overwrite_round_trips() {
        let mut r = Region::new(RegionKind::Data, 0, 4);
        assert_eq!(r.bytes(), None);
        r.overwrite(&[1, 2, 3, 4]);
        assert_eq!(r.bytes(), Some(&[1, 2, 3, 4][..]));
        assert_eq!(r.resident_bytes(), 4);
        r.clear();
        assert_eq!((r.bytes(), r.len(), r.resident_bytes()), (None, 4, 0));
    }

    #[test]
    fn backing_is_not_observable_state() {
        let fresh = Region::new(RegionKind::Heap, 0, 8);
        let mut touched = fresh.clone();
        touched.bytes_mut()[3] = 0;
        assert_eq!(fresh, touched, "materialised zeros differ from no backing");
        touched.bytes_mut()[3] = 1;
        assert_ne!(fresh, touched);
        assert_ne!(fresh, Region::new(RegionKind::Heap, 0, 9));
    }

    #[test]
    #[should_panic(expected = "snapshot size mismatch")]
    fn overwrite_rejects_wrong_size() {
        let mut r = Region::new(RegionKind::Data, 0, 4);
        r.overwrite(&[1, 2]);
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = RegionKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(names, ["text", "data", "bss", "heap", "stack"]);
    }
}
