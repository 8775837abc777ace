//! Extensions beyond the paper's prototype, implementing the §VIII
//! discussion items:
//!
//! * **Graceful degradation** — "even when VampOS fails to recover from a
//!   component failure, partial recovery can still be achieved if the
//!   \[application\] and file-system-related components are undamaged": with
//!   [`SystemBuilder::graceful_degradation`](crate::SystemBuilder) enabled,
//!   an unrecoverable component is *condemned* (permanently down) instead of
//!   fail-stopping the whole system, so the application can e.g. flush its
//!   in-memory state to storage through the surviving components.
//! * **Multi-version components** — "when a component fails, VampOS could
//!   insert a different version of the component, whose functionalities and
//!   interfaces are the same": registered alternates are swapped in when a
//!   failure recurs after recovery (a deterministic bug in the original
//!   code), restored from the same log, and the call is re-executed once
//!   more.
//! * **Reboots for component updates** — [`System::update_component`]
//!   replaces a component's implementation at runtime using the same
//!   restoration machinery, "without interfering with the running
//!   application layer".
//! * **Aging-driven rejuvenation** — [`System::aging_report`] exposes each
//!   component's accumulated software aging and
//!   [`System::rejuvenate_aged`] reboots exactly the components whose leak
//!   volume crossed a threshold.

use std::rc::Rc;

use vampos_mem::MemoryArena;
use vampos_ukernel::{ComponentBox, OsError};

use crate::reboot::RebootOutcome;
use crate::runtime::{PendingRecovery, System};

/// One component's software-aging summary.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingEntry {
    /// Component name.
    pub component: String,
    /// Heap bytes lost to leaks since the last reboot.
    pub leaked_bytes: u64,
    /// Leaked descriptors since the last reboot.
    pub descriptor_leaks: u64,
    /// External heap fragmentation in `[0, 1]`.
    pub fragmentation: f64,
    /// Times this component has been rejuvenated.
    pub rejuvenations: u64,
}

impl System {
    /// Installs `replacement` behind slot `tid` — a registered alternate
    /// (multi-version recovery) or an explicit update —, relinks the
    /// system, and recovers the slot the way every component comes back
    /// ([`System::recover`]).
    ///
    /// The replacement as passed in becomes the slot's boot image, and a
    /// fresh arena built from its descriptor its boot checkpoint, both
    /// captured before the old version's runtime data is handed over: the
    /// recovery restores them and replays the function log over them, like
    /// any later reboot will. Whatever can refuse the replacement (its
    /// name, the old version's runtime data) does so before the slot is
    /// touched, and the data comes from a copy of the old version: a
    /// refused update leaves the old version serving, whole.
    pub(crate) fn swap_component(
        &mut self,
        tid: usize,
        mut replacement: ComponentBox,
        detected: Option<PendingRecovery>,
    ) -> Result<RebootOutcome, OsError> {
        let (slot, new) = (&self.slots[tid], replacement.descriptor().name());
        if *new != slot.name {
            let expected = &slot.name;
            return Err(OsError::Io(format!(
                "replacement component is named {new}, expected {expected}"
            )));
        }
        let busy = || OsError::Io(format!("{} busy during swap", slot.name));
        let desc = replacement.descriptor().clone();
        let mut arena = MemoryArena::new(new, *desc.layout());
        let boot_snapshot = desc.uses_checkpoint_init().then(|| arena.snapshot());
        // The slot's own boot image: the system's image keeps the old
        // version's, and so do the systems sharing it.
        let boot_image = Rc::from(replacement.clone_box());
        // The recovery extracts the runtime data again, from the
        // replacement, and hands it back after the replay.
        let old = slot.comp.as_ref().ok_or_else(busy)?;
        if let Some(data) = old.clone_box().extract_runtime() {
            replacement.restore_runtime(data, &mut arena)?;
        }
        let slot = &mut self.slots[tid];
        slot.desc = desc;
        slot.arena = arena;
        slot.boot_snapshot = boot_snapshot;
        slot.boot_image = boot_image;
        slot.checkpoint_corrupt = false;
        slot.comp = Some(replacement);
        // The new descriptor may number its functions, declare its calls
        // and log differently: link the system again, into tables of its
        // own.
        self.link();
        self.pending_recovery = detected;
        self.recover(tid, "update")
    }

    /// Live-updates `component` to a new implementation (§VIII "Reboots for
    /// Component Updates"): the replacement must expose the same interface
    /// and name; its state is restored from the function log and runtime
    /// extract, so the application keeps running across the update.
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownComponent`], a name mismatch or the replacement's
    /// refusal of the old version's runtime data (the old version keeps
    /// serving), or [`OsError::ReplayMismatch`] when the new implementation
    /// does not reproduce the logged behaviour (the system fail-stops).
    pub fn update_component(
        &mut self,
        component: &str,
        replacement: ComponentBox,
    ) -> Result<RebootOutcome, OsError> {
        let tid = self.index_of(component)?;
        let outcome = self.swap_component(tid, replacement, None)?;
        self.stats.component_updates += 1;
        Ok(outcome)
    }

    /// Components condemned by graceful degradation (empty when healthy).
    pub fn condemned_components(&self) -> Vec<String> {
        self.slots
            .iter()
            .filter(|s| s.condemned)
            .map(|s| s.name.to_string())
            .collect()
    }

    /// True when the system is running degraded (some component condemned
    /// but the rest still serving).
    pub fn is_degraded(&self) -> bool {
        self.slots.iter().any(|s| s.condemned)
    }

    /// Per-component software-aging report.
    pub fn aging_report(&self) -> Vec<AgingEntry> {
        self.slots
            .iter()
            .map(|s| AgingEntry {
                component: s.name.to_string(),
                leaked_bytes: s.arena.aging().leaked_bytes(),
                descriptor_leaks: s.arena.aging().descriptor_leaks(),
                fragmentation: s.arena.allocator().fragmentation(),
                rejuvenations: s.arena.aging().rejuvenations(),
            })
            .collect()
    }

    /// Proactively reboots every rebootable component whose leaked heap
    /// exceeds `leak_threshold_bytes` — aging-driven rejuvenation.
    ///
    /// # Errors
    ///
    /// Stops at the first failed reboot.
    pub fn rejuvenate_aged(
        &mut self,
        leak_threshold_bytes: u64,
    ) -> Result<Vec<RebootOutcome>, OsError> {
        let aged: Vec<String> = self
            .aging_report()
            .into_iter()
            .filter(|e| e.leaked_bytes >= leak_threshold_bytes.max(1))
            .map(|e| e.component)
            .collect();
        let mut outcomes = Vec::new();
        for name in aged {
            if let Ok(idx) = self.rebootable_index(&name) {
                outcomes.push(self.reboot_index(idx)?);
            }
        }
        Ok(outcomes)
    }
}
