//! A configuration's image: what a component set, a mode and the extra
//! components fix before any system boots.
//!
//! Unikraft links an image's components and checks them once, when it
//! builds the image. An [`Image`] does the same here: it constructs the
//! boot components, runs the static analysis, resolves the merge groups
//! and binds every call site, once. Every system booted from it shares all
//! of that ([`SystemBuilder::image`](crate::SystemBuilder::image)), and a
//! boot does only the per-system work: clone the components, register the
//! protection domains, build the arenas, mount the root file system and
//! capture the checkpoints. Nothing here touches a clock.

use std::fmt;
use std::rc::Rc;

use vampos_analyze::{AnalysisInput, AnalysisReport};
use vampos_sim::Name;
use vampos_ukernel::{Component, ComponentBox, ComponentDescriptor, FnId, OsError, Session};

use crate::config::{ComponentSet, Mode};

/// A configuration as built, shared by every system booted from it.
pub struct Image {
    set: ComponentSet,
    mode: Mode,
    /// The components as constructed, in slot order: each system's boot
    /// images (§V-E).
    pub(crate) components: Vec<Rc<dyn Component>>,
    /// Each slot's merge group: the index of the group's first slot.
    /// Slots of one group share a protection domain and call each other
    /// directly (§V-F).
    pub(crate) groups: Vec<usize>,
    input: AnalysisInput,
    report: AnalysisReport,
    /// Each slot's call sites, bound in index order.
    pub(crate) sites: Vec<Rc<[Binding]>>,
    /// The [`Os`](crate::Os) facade's call sites, bound in index order.
    pub(crate) os_sites: Rc<[Binding]>,
}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Image")
            .field("mode", &self.mode.label())
            .field("set", &self.set.name())
            .field("components", &self.components.len())
            .field("errors", &self.report.error_count())
            .finish()
    }
}

impl Image {
    /// Builds the image of `set`'s built-in components under `mode`.
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownComponent`] when the set names an unknown
    /// component. Analysis findings do not fail the image: they refuse
    /// each boot from it ([`Image::report`]).
    pub fn new(set: ComponentSet, mode: Mode) -> Result<Image, OsError> {
        Image::with_extras(set, mode, Vec::new())
    }

    /// Builds the image of `set`'s built-in components followed by the
    /// user-defined `extras`, under `mode`.
    ///
    /// # Errors
    ///
    /// As [`Image::new`].
    pub fn with_extras(
        set: ComponentSet,
        mode: Mode,
        extras: Vec<ComponentBox>,
    ) -> Result<Image, OsError> {
        let mut components: Vec<Rc<dyn Component>> =
            Vec::with_capacity(set.components().len() + extras.len());
        for &name in set.components() {
            components.push(crate::analysis::instantiate(name)?);
        }
        components.extend(extras.into_iter().map(Rc::from));
        let merges = mode.vamp_config().map(|c| c.merges.as_slice());
        let merges = merges.unwrap_or_default();
        // Hardware protection keys: the runtime registers against
        // `KeyRegistry::hardware`.
        let input = AnalysisInput::new(set.name())
            .components(components.iter().map(|c| c.descriptor().clone()))
            .merges(merges);
        let report = vampos_analyze::analyze(&input);
        let descs = input.descriptors();
        let groups = merge_groups(descs, merges);
        let (sites, os_sites) = link(descs, mode.is_vampos());
        Ok(Image {
            set,
            mode,
            components,
            groups,
            input,
            report,
            sites,
            os_sites,
        })
    }

    /// The component set.
    pub fn component_set(&self) -> &ComponentSet {
        &self.set
    }

    /// The execution mode.
    pub fn mode(&self) -> &Mode {
        &self.mode
    }

    /// What the analyzer was given: every component's descriptor, in slot
    /// order, and the mode's merge groups.
    pub fn analysis_input(&self) -> &AnalysisInput {
        &self.input
    }

    /// The pre-boot static analysis. A boot from an image with
    /// error-severity findings fails with [`OsError::AnalysisRejected`]
    /// unless the builder allows them.
    pub fn report(&self) -> &AnalysisReport {
        &self.report
    }
}

/// Each slot's merge group: a merged component joins the group of the
/// first member of its merge that precedes it, and any other slot is a
/// group of its own.
fn merge_groups(descs: &[ComponentDescriptor], merges: &[Vec<String>]) -> Vec<usize> {
    let mut groups: Vec<usize> = Vec::with_capacity(descs.len());
    for (idx, desc) in descs.iter().enumerate() {
        let name = desc.name().as_str();
        let leader = merges
            .iter()
            .find(|g| g.iter().any(|m| m == name))
            .and_then(|g| g.iter().filter_map(|m| slot_of(&descs[..idx], m)).min());
        groups.push(leader.map_or(idx, |leader| groups[leader]));
    }
    groups
}

/// A call site bound to what it reaches: the target's slot and function,
/// and everything a hop reads about them.
#[derive(Debug, Clone)]
pub(crate) struct Bound {
    pub(crate) slot: usize,
    pub(crate) func: FnId,
    /// The function's name, shared with the target's descriptor.
    pub(crate) name: Name,
    /// The call is appended to the target's function log.
    pub(crate) logged: bool,
    /// The function's role in the target's log sessions.
    pub(crate) session: Session,
    /// The caller declares the target a dependency, so the
    /// dependency-aware scheduler predicts the hop (§V-C).
    pub(crate) predicted: bool,
}

/// A call site's binding: what it reaches, or the error a call of it
/// returns.
pub(crate) type Binding = Result<Bound, OsError>;

/// What the linker reads of a slot: its descriptor.
pub(crate) trait Described {
    fn desc(&self) -> &ComponentDescriptor;
}

impl Described for ComponentDescriptor {
    fn desc(&self) -> &ComponentDescriptor {
        self
    }
}

/// The slot `name` is linked into among `slots`. A scan: equality
/// rejects most of a few dozen names on their length alone.
pub(crate) fn slot_of(slots: &[impl Described], name: &str) -> Option<usize> {
    slots.iter().position(|s| s.desc().name() == name)
}

/// What a call of `slots[slot]`'s function `func` from `caller` reads on
/// every hop; `vampos` says whether the mode logs calls.
pub(crate) fn bound(
    slots: &[impl Described],
    vampos: bool,
    caller: Option<usize>,
    slot: usize,
    func: FnId,
) -> Bound {
    let target = slots[slot].desc();
    let info = target
        .function_at(func)
        .expect("numbered by the descriptor");
    Bound {
        slot,
        func,
        name: info.name.clone(),
        logged: info.decl.logged && vampos,
        session: info.decl.session,
        // The app's messages wake the scheduler directly.
        predicted: caller.is_none_or(|c| slots[c].desc().dependencies().contains(target.name())),
    }
}

/// Binds a call of `target`'s `func` from `caller` by name.
pub(crate) fn bind(
    slots: &[impl Described],
    vampos: bool,
    caller: Option<usize>,
    target: &str,
    func: &str,
) -> Binding {
    let slot = slot_of(slots, target);
    let slot = slot.ok_or_else(|| OsError::UnknownComponent(target.to_owned()))?;
    let func_id = slots[slot].desc().fn_id(func);
    let func_id = func_id.ok_or_else(|| OsError::UnknownFunc {
        component: target.to_owned(),
        func: func.to_owned(),
    })?;
    Ok(bound(slots, vampos, caller, slot, func_id))
}

/// Links `slots` (Unikraft links its components at build time): binds
/// every call site, each slot's and the [`Os`](crate::Os) facade's, to
/// the slot and function it reaches.
pub(crate) fn link(slots: &[impl Described], vampos: bool) -> (Vec<Rc<[Binding]>>, Rc<[Binding]>) {
    let sites = (0..slots.len())
        .map(|idx| {
            let calls = slots[idx].desc().call_sites().iter();
            calls
                .map(|s| bind(slots, vampos, Some(idx), s.target(), s.func()))
                .collect()
        })
        .collect();
    let os = crate::os::CALLS.iter();
    let os_sites = os.map(|s| bind(slots, vampos, None, s.target(), s.func()));
    (sites, os_sites.collect())
}
