//! Shared, immutable names.
//!
//! A simulated system has a few dozen names — components, interface
//! functions — and mentions them millions of times: every message hop
//! hands caller, target and function to the telemetry collector, every
//! logged call stores them again. [`Name`] is one allocation per distinct name
//! and a reference-count bump per mention.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::rc::Rc;

/// An immutable string shared by reference count.
///
/// Compares, orders, hashes and prints as its text, so it can key a map
/// that is looked up by `&str`; two clones of one name compare equal by
/// pointer, without reading the text. Cloning never allocates.
///
/// ```
/// use vampos_sim::Name;
///
/// let vfs = Name::from("vfs");
/// let again = vfs.clone();
/// assert!(Name::ptr_eq(&vfs, &again));
/// assert_eq!(vfs, "vfs");
/// assert_eq!(vfs.len(), 3);
/// ```
#[derive(Clone, Eq, PartialOrd, Ord)]
pub struct Name(Rc<str>);

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        Rc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether two names are one allocation (not merely equal text).
    pub fn ptr_eq(a: &Name, b: &Name) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Rc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Rc::from(s))
    }
}

impl From<&Name> for Name {
    fn from(name: &Name) -> Self {
        name.clone()
    }
}

/// The name's allocation, shared: how crates below the simulator (which
/// take names as `Rc<str>`) keep a name without copying it.
impl From<&Name> for Rc<str> {
    fn from(name: &Name) -> Self {
        Rc::clone(&name.0)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

// Prints as the bare string, so `{:?}` output of the records that carry a
// name is what it was when they carried a `String`.
impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn behaves_as_its_text() {
        let n = Name::from("vfs");
        assert_eq!(n.as_str(), "vfs");
        assert_eq!(n.to_string(), "vfs");
        assert_eq!(format!("{n:?}"), "\"vfs\"");
        assert_eq!(n, "vfs");
        assert_eq!(n, *"vfs");
        assert_eq!(n, Name::from(String::from("vfs")));
        let (a, b) = (Name::from("a"), Name::from("b"));
        assert!(a < b, "orders as its text");
        assert_eq!(n.split('f').count(), 2, "str methods through Deref");
    }

    #[test]
    fn clones_share_one_allocation_and_equal_text_does_not() {
        let n = Name::from("lwip");
        assert!(Name::ptr_eq(&n, &n.clone()));
        assert!(Name::ptr_eq(&n, &Name::from(&n)));
        assert!(!Name::ptr_eq(&n, &Name::from("lwip")));
    }

    #[test]
    fn keys_a_map_looked_up_by_str() {
        let mut m = BTreeMap::new();
        m.insert(Name::from("9pfs"), 1);
        assert_eq!(m.get("9pfs"), Some(&1));
        assert_eq!(m.get("vfs"), None);
    }
}
