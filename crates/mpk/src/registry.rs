//! Protection-domain registry: keys for named domains, with optional key
//! virtualisation when domains outnumber hardware keys.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use crate::pkru::{AccessKind, ProtKey, HW_KEYS};

/// A named protection domain (one per component, plus the application, the
/// message domain, and the thread scheduler — §VI's tag accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainId(pub u32);

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// Errors from the key registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpkError {
    /// All 16 hardware keys are assigned and virtualisation is disabled.
    ///
    /// This is exactly the situation §V-D warns about ("physical protection
    /// keys can be fewer than the running components").
    OutOfKeys {
        /// Domain that could not be registered.
        domain: String,
    },
    /// Lookup of a domain that was never registered.
    UnknownDomain(DomainId),
    /// A domain name was registered twice.
    DuplicateDomain(String),
    /// A raw key index outside the 16 hardware keys.
    KeyOutOfRange(u8),
}

impl fmt::Display for MpkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpkError::OutOfKeys { domain } => {
                write!(f, "no free hardware protection key for domain {domain}")
            }
            MpkError::UnknownDomain(d) => write!(f, "unknown protection domain {d}"),
            MpkError::DuplicateDomain(name) => {
                write!(f, "protection domain {name} registered twice")
            }
            MpkError::KeyOutOfRange(k) => {
                write!(f, "hardware protection key out of range: {k}")
            }
        }
    }
}

impl Error for MpkError {}

/// A denied memory access, as reported to the VampOS failure detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpkViolation {
    /// Name of the domain whose thread performed the access.
    pub accessor: String,
    /// Name of the domain owning the touched memory.
    pub owner: String,
    /// The denied access kind.
    pub kind: AccessKind,
}

impl fmt::Display for MpkViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MPK violation: {} attempted {} on memory of {}",
            self.accessor, self.kind, self.owner
        )
    }
}

/// Assignment of protection keys to named domains.
///
/// In [`KeyRegistry::hardware`] mode there are exactly 16 keys and
/// registration fails once they are exhausted. In
/// [`KeyRegistry::virtualized`] mode the registry hands out unbounded
/// *virtual* keys and multiplexes them onto the 16 physical keys on demand
/// (the libmpk / EPK / VDom technique cited in §V-D); each remapping is
/// counted so the cost model can charge for it.
///
/// # Example
///
/// ```
/// use vampos_mpk::KeyRegistry;
///
/// let mut reg = KeyRegistry::virtualized();
/// let ids: Vec<_> = (0..40)
///     .map(|i| reg.register(format!("comp{i}")).unwrap())
///     .collect();
/// // 40 domains on 16 keys: still resolvable, at remap cost.
/// for id in &ids {
///     reg.physical(*id).unwrap();
/// }
/// assert!(reg.remaps() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct KeyRegistry {
    virtualize: bool,
    domains: Vec<Rc<str>>,
    by_name: BTreeMap<Rc<str>, DomainId>,
    /// domain index → physical key currently backing it (None = evicted).
    mapping: Vec<Option<ProtKey>>,
    /// physical key → domain index currently using it.
    key_owner: [Option<u32>; HW_KEYS as usize],
    next_victim: u8,
    remaps: u64,
}

impl KeyRegistry {
    /// A registry restricted to the 16 hardware keys.
    pub fn hardware() -> Self {
        Self::with_mode(false)
    }

    /// A registry with unbounded virtual keys multiplexed onto hardware.
    pub fn virtualized() -> Self {
        Self::with_mode(true)
    }

    fn with_mode(virtualize: bool) -> Self {
        KeyRegistry {
            virtualize,
            domains: Vec::new(),
            by_name: BTreeMap::new(),
            mapping: Vec::new(),
            key_owner: [None; HW_KEYS as usize],
            next_victim: 0,
            remaps: 0,
        }
    }

    /// Registers a new domain and returns its id. The registry keeps
    /// `name` as one shared string: a name passed as an `Rc<str>` costs a
    /// reference count, any other text one copy.
    ///
    /// # Errors
    ///
    /// [`MpkError::DuplicateDomain`] for a repeated name;
    /// [`MpkError::OutOfKeys`] in hardware mode once 16 domains exist.
    pub fn register(&mut self, name: impl Into<Rc<str>>) -> Result<DomainId, MpkError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(MpkError::DuplicateDomain(name.to_string()));
        }
        if !self.virtualize && self.domains.len() >= HW_KEYS as usize {
            return Err(MpkError::OutOfKeys {
                domain: name.to_string(),
            });
        }
        let id = DomainId(self.domains.len() as u32);
        self.domains.push(Rc::clone(&name));
        self.by_name.insert(name, id);
        self.mapping.push(None);
        // Eagerly bind a physical key if one is free.
        if let Some(free) = self.free_key() {
            self.bind(id, free);
        }
        Ok(id)
    }

    fn free_key(&self) -> Option<ProtKey> {
        self.key_owner
            .iter()
            .position(|o| o.is_none())
            .and_then(|i| ProtKey::try_new(i as u8).ok())
    }

    fn bind(&mut self, id: DomainId, key: ProtKey) {
        if let Some(old) = self.key_owner[key.index() as usize] {
            self.mapping[old as usize] = None;
        }
        self.key_owner[key.index() as usize] = Some(id.0);
        self.mapping[id.0 as usize] = Some(key);
    }

    /// Resolves a domain to the physical key backing it, remapping (evicting
    /// another domain) if necessary in virtualised mode.
    ///
    /// # Errors
    ///
    /// [`MpkError::UnknownDomain`] for unregistered ids.
    pub fn physical(&mut self, id: DomainId) -> Result<ProtKey, MpkError> {
        let idx = id.0 as usize;
        if idx >= self.mapping.len() {
            return Err(MpkError::UnknownDomain(id));
        }
        if let Some(key) = self.mapping[idx] {
            return Ok(key);
        }
        // Evict round-robin.
        let victim = ProtKey::try_new(self.next_victim)?;
        self.next_victim = (self.next_victim + 1) % HW_KEYS;
        self.bind(id, victim);
        self.remaps += 1;
        Ok(victim)
    }

    /// Looks up a domain id by name.
    pub fn domain(&self, name: &str) -> Option<DomainId> {
        self.by_name.get(name).copied()
    }

    /// The name of a domain.
    ///
    /// # Errors
    ///
    /// [`MpkError::UnknownDomain`] for unregistered ids.
    pub fn name(&self, id: DomainId) -> Result<&str, MpkError> {
        self.domains
            .get(id.0 as usize)
            .map(|name| &**name)
            .ok_or(MpkError::UnknownDomain(id))
    }

    /// Number of registered domains ("MPK tags" in the paper's terms).
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Number of virtual→physical remaps performed so far.
    pub fn remaps(&self) -> u64 {
        self.remaps
    }

    /// Whether key virtualisation is enabled.
    pub fn is_virtualized(&self) -> bool {
        self.virtualize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_mode_caps_at_sixteen() {
        let mut reg = KeyRegistry::hardware();
        for i in 0..16 {
            reg.register(format!("d{i}")).unwrap();
        }
        assert!(matches!(
            reg.register("overflow"),
            Err(MpkError::OutOfKeys { .. })
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut reg = KeyRegistry::hardware();
        reg.register("vfs").unwrap();
        assert_eq!(
            reg.register("vfs"),
            Err(MpkError::DuplicateDomain("vfs".into()))
        );
    }

    #[test]
    fn distinct_domains_get_distinct_keys_within_hw_limit() {
        let mut reg = KeyRegistry::hardware();
        let a = reg.register("a").unwrap();
        let b = reg.register("b").unwrap();
        assert_ne!(reg.physical(a).unwrap(), reg.physical(b).unwrap());
    }

    #[test]
    fn twelve_tags_fit_like_the_paper_prototypes() {
        // Nginx/Redis in §VI: app + 9 components + message domain + scheduler.
        let mut reg = KeyRegistry::hardware();
        for name in [
            "app", "process", "sysinfo", "user", "netdev", "timer", "vfs", "9pfs", "lwip",
            "virtio", "msgdom", "sched",
        ] {
            reg.register(name).unwrap();
        }
        assert_eq!(reg.domain_count(), 12);
        assert_eq!(reg.remaps(), 0);
    }

    #[test]
    fn virtualized_mode_is_unbounded_and_remaps() {
        let mut reg = KeyRegistry::virtualized();
        let ids: Vec<DomainId> = (0..24)
            .map(|i| reg.register(format!("d{i}")).unwrap())
            .collect();
        // Touch all domains; the last 8 need remapping.
        for id in &ids {
            reg.physical(*id).unwrap();
        }
        assert!(reg.remaps() >= 8);
        // Every domain still resolves.
        for id in &ids {
            reg.physical(*id).unwrap();
        }
    }

    #[test]
    fn evicted_domain_is_remapped_on_next_use() {
        let mut reg = KeyRegistry::virtualized();
        let ids: Vec<DomainId> = (0..17)
            .map(|i| reg.register(format!("d{i}")).unwrap())
            .collect();
        // d16 had no key at registration; resolving evicts someone.
        let k16 = reg.physical(ids[16]).unwrap();
        // The evicted domain resolves again via another remap.
        let evicted = ids
            .iter()
            .take(16)
            .find(|&&id| {
                // peek: physical() would remap; check by name-owner table instead
                reg.name(id).is_ok()
            })
            .copied()
            .unwrap();
        let _ = reg.physical(evicted).unwrap();
        let _ = k16;
        assert!(reg.remaps() >= 1);
    }

    #[test]
    fn lookups_by_name_and_id() {
        let mut reg = KeyRegistry::hardware();
        let id = reg.register("lwip").unwrap();
        assert_eq!(reg.domain("lwip"), Some(id));
        assert_eq!(reg.name(id).unwrap(), "lwip");
        assert_eq!(reg.domain("nope"), None);
        assert!(matches!(
            reg.name(DomainId(99)),
            Err(MpkError::UnknownDomain(_))
        ));
    }

    #[test]
    fn violation_display_is_informative() {
        let v = MpkViolation {
            accessor: "lwip".into(),
            owner: "vfs".into(),
            kind: AccessKind::Write,
        };
        assert_eq!(
            v.to_string(),
            "MPK violation: lwip attempted write on memory of vfs"
        );
    }
}
