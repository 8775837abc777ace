//! Deterministic state digests.
//!
//! [`BootImage::state_digest`](crate::BootImage::state_digest) must be
//! stable across processes and runs (the standard library's hashers are
//! keyed randomly per process, or unspecified between releases), so a
//! component's derived `Hash` is fed to this FNV-1a based builder instead.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Hashes a byte slice with FNV-1a.
///
/// # Example
///
/// ```
/// use vampos_ukernel::digest::fnv1a;
///
/// assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
/// assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// An incremental, order-sensitive digest builder.
///
/// # Example
///
/// ```
/// use vampos_ukernel::digest::DigestBuilder;
///
/// let a = DigestBuilder::new().u64(1).str("x").finish();
/// let b = DigestBuilder::new().u64(1).str("x").finish();
/// let c = DigestBuilder::new().str("x").u64(1).finish();
/// assert_eq!(a, b);
/// assert_ne!(a, c); // order matters
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestBuilder(u64);

impl Default for DigestBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestBuilder {
    /// Creates an empty digest.
    pub fn new() -> Self {
        DigestBuilder(FNV_OFFSET)
    }

    fn feed(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        // Field separator so (b"ab", b"c") differs from (b"a", b"bc").
        self.0 ^= 0xFF;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
        self
    }

    /// Mixes in a `u64`.
    #[must_use]
    pub fn u64(self, v: u64) -> Self {
        self.feed(&v.to_le_bytes())
    }

    /// Mixes in a string.
    #[must_use]
    pub fn str(self, s: &str) -> Self {
        self.feed(s.as_bytes())
    }

    /// Mixes in raw bytes.
    #[must_use]
    pub fn bytes(self, b: &[u8]) -> Self {
        self.feed(b)
    }

    /// Mixes in a boolean.
    #[must_use]
    pub fn bool(self, v: bool) -> Self {
        self.feed(&[v as u8])
    }

    /// Finishes and returns the digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Feeds a `Hash` value into the digest: each `write` is one field.
impl std::hash::Hasher for DigestBuilder {
    fn write(&mut self, bytes: &[u8]) {
        *self = self.feed(bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_distinct_inputs() {
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn builder_field_boundaries_matter() {
        let a = DigestBuilder::new().bytes(b"ab").bytes(b"c").finish();
        let b = DigestBuilder::new().bytes(b"a").bytes(b"bc").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn builder_types_do_not_collide_trivially() {
        let a = DigestBuilder::new().u64(0).finish();
        let b = DigestBuilder::new().bool(false).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn empty_builder_is_stable() {
        assert_eq!(DigestBuilder::new().finish(), DigestBuilder::new().finish());
    }
}
