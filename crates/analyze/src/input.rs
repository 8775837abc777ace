//! The analyzer's input model and protection-key planning.

use std::collections::BTreeMap;

use vampos_mpk::{Pkru, ProtKey, HW_KEYS};
use vampos_ukernel::ComponentDescriptor;

/// Everything the analyzer needs to know about a configuration before it
/// boots: the component descriptors, the merge groups, whether key
/// virtualization is enabled, and (optionally) the PKRU policies the runtime
/// intends to load per component.
///
/// Build one with the fluent methods and pass it to
/// [`analyze`](crate::analyze):
///
/// ```
/// use vampos_analyze::AnalysisInput;
/// use vampos_mem::ArenaLayout;
/// use vampos_ukernel::ComponentDescriptor;
///
/// let input = AnalysisInput::new("demo")
///     .component(ComponentDescriptor::new("a", ArenaLayout::small()))
///     .component(ComponentDescriptor::new("b", ArenaLayout::small()).depends_on(&["a"]));
/// let report = vampos_analyze::analyze(&input);
/// assert!(report.is_clean());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AnalysisInput {
    name: String,
    descriptors: Vec<ComponentDescriptor>,
    merges: Vec<Vec<String>>,
    virtualized: bool,
    policies: BTreeMap<String, Pkru>,
}

/// Protection domains the runtime registers besides the components: the
/// application, the message domain, and the thread scheduler.
pub const EXTRA_DOMAINS: usize = 3;

impl AnalysisInput {
    /// Starts an input for the configuration called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        AnalysisInput {
            name: name.into(),
            ..AnalysisInput::default()
        }
    }

    /// Adds one component descriptor.
    #[must_use]
    pub fn component(mut self, desc: ComponentDescriptor) -> Self {
        self.descriptors.push(desc);
        self
    }

    /// Adds many component descriptors.
    #[must_use]
    pub fn components(mut self, descs: impl IntoIterator<Item = ComponentDescriptor>) -> Self {
        self.descriptors.extend(descs);
        self
    }

    /// Declares the merge groups (merged components share one protection
    /// domain, §V-F).
    #[must_use]
    pub fn merges(mut self, merges: &[Vec<String>]) -> Self {
        self.merges = merges.to_vec();
        self
    }

    /// Declares that protection keys are virtualized (key exhaustion then
    /// costs remaps instead of being fatal).
    #[must_use]
    pub fn virtualized(mut self, on: bool) -> Self {
        self.virtualized = on;
        self
    }

    /// Supplies the PKRU policy the runtime will load while `component`
    /// executes, for the least-privilege check.
    #[must_use]
    pub fn policy(mut self, component: impl Into<String>, pkru: Pkru) -> Self {
        self.policies.insert(component.into(), pkru);
        self
    }

    /// The configuration's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The component descriptors, in registration order.
    pub fn descriptors(&self) -> &[ComponentDescriptor] {
        &self.descriptors
    }

    /// The descriptor of `component`, if present.
    pub fn descriptor(&self, component: &str) -> Option<&ComponentDescriptor> {
        self.descriptors
            .iter()
            .find(|d| d.name().as_str() == component)
    }

    /// Whether protection keys are virtualized.
    pub fn is_virtualized(&self) -> bool {
        self.virtualized
    }

    /// The supplied PKRU policies.
    pub fn policies(&self) -> &BTreeMap<String, Pkru> {
        &self.policies
    }

    /// The merge-group leader of `component`: the first group member that
    /// appears in the descriptor list. A component outside every group is
    /// its own leader.
    pub fn group_leader<'a>(&'a self, component: &'a str) -> &'a str {
        let group = self
            .merges
            .iter()
            .find(|g| g.iter().any(|m| m == component));
        match group {
            Some(g) => self
                .descriptors
                .iter()
                .map(|d| d.name().as_str())
                .find(|n| g.iter().any(|m| m == n))
                .unwrap_or(component),
            None => component,
        }
    }

    /// Number of protection domains this configuration registers: the extra
    /// domains plus one per merge-group leader.
    pub fn domain_count(&self) -> usize {
        let mut leaders: Vec<&str> = Vec::new();
        for d in &self.descriptors {
            let leader = self.group_leader(d.name().as_str());
            if !leaders.contains(&leader) {
                leaders.push(leader);
            }
        }
        leaders.len() + EXTRA_DOMAINS
    }

    /// Derives the hardware-key plan the runtime's registration order
    /// produces: the application claims the first key, then each merge-group
    /// leader in descriptor order, then the message domain and the
    /// scheduler. Returns `None` when the configuration needs more domains
    /// than the hardware has keys (key exhaustion — with virtualization the
    /// physical assignment is then dynamic, without it boot fails; either
    /// way no static plan exists).
    pub fn key_plan(&self) -> Option<KeyPlan> {
        if self.domain_count() > HW_KEYS as usize {
            return None;
        }
        let mut next = 0u8;
        let mut take = || {
            let k = ProtKey::new(next);
            next += 1;
            k
        };
        let app = take();
        let mut per_component = BTreeMap::new();
        for d in &self.descriptors {
            let name = d.name().as_str();
            let leader = self.group_leader(name).to_owned();
            if let Some(&key) = per_component.get(&leader) {
                per_component.insert(name.to_owned(), key);
            } else {
                let key = take();
                per_component.insert(name.to_owned(), key);
            }
        }
        let msg_domain = take();
        let sched = take();
        Some(KeyPlan {
            app,
            msg_domain,
            sched,
            per_component,
        })
    }
}

/// The static protection-key assignment for one configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPlan {
    /// The application's key.
    pub app: ProtKey,
    /// The message domain's key.
    pub msg_domain: ProtKey,
    /// The thread scheduler's key.
    pub sched: ProtKey,
    /// Each component's key (merged members share their leader's key).
    pub per_component: BTreeMap<String, ProtKey>,
}

impl KeyPlan {
    /// The key of `component`, if it is in the plan.
    pub fn key_of(&self, component: &str) -> Option<ProtKey> {
        self.per_component.get(component).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_mem::ArenaLayout;

    fn desc(name: &'static str) -> ComponentDescriptor {
        ComponentDescriptor::new(name, ArenaLayout::small())
    }

    #[test]
    fn domain_count_includes_extras() {
        let input = AnalysisInput::new("t").components([desc("a"), desc("b")]);
        assert_eq!(input.domain_count(), 2 + EXTRA_DOMAINS);
    }

    #[test]
    fn merged_components_share_a_domain() {
        let input = AnalysisInput::new("t")
            .components([desc("a"), desc("b"), desc("c")])
            .merges(&[vec!["b".to_owned(), "c".to_owned()]]);
        assert_eq!(input.domain_count(), 2 + EXTRA_DOMAINS);
        assert_eq!(input.group_leader("c"), "b");
        assert_eq!(input.group_leader("a"), "a");
        let plan = input.key_plan().unwrap();
        assert_eq!(plan.key_of("b"), plan.key_of("c"));
        assert_ne!(plan.key_of("a"), plan.key_of("b"));
    }

    #[test]
    fn key_plan_mirrors_registration_order() {
        let input = AnalysisInput::new("t").components([desc("a"), desc("b")]);
        let plan = input.key_plan().unwrap();
        assert_eq!(plan.app.index(), 0);
        assert_eq!(plan.key_of("a").unwrap().index(), 1);
        assert_eq!(plan.key_of("b").unwrap().index(), 2);
        assert_eq!(plan.msg_domain.index(), 3);
        assert_eq!(plan.sched.index(), 4);
    }

    #[test]
    fn exhausted_configurations_have_no_plan() {
        let names: [&'static str; 14] = [
            "c00", "c01", "c02", "c03", "c04", "c05", "c06", "c07", "c08", "c09", "c10", "c11",
            "c12", "c13",
        ];
        let input = AnalysisInput::new("t").components(names.map(desc));
        assert_eq!(input.domain_count(), 17);
        assert!(input.key_plan().is_none());
    }
}
