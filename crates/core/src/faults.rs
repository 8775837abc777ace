//! Fault injection (the experiments of §VII-E and the fault model of §II-B).
//!
//! Faults are *armed* on the system and fire when a matching call reaches
//! the target component. Non-deterministic faults fire a limited number of
//! times (re-execution after recovery does not re-trigger them); a fault
//! armed as deterministic re-fires on the post-recovery retry, which drives
//! the system to fail-stop — exactly the §II-B policy.

use vampos_sim::Nanos;
use vampos_ukernel::FnId;

/// What the injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The component invokes `panic()` (fail-stop crash).
    Panic,
    /// The component stops pulling messages; the hang detector fires after
    /// its threshold.
    Hang,
    /// An aging bug leaks `bytes` of the component's heap on every matching
    /// call (never "fires once"; it degrades continuously).
    LeakPerOp {
        /// Bytes leaked per call.
        bytes: usize,
    },
    /// A non-deterministic bit flip in the component's arena at the given
    /// offset (hardware fault model).
    BitFlip {
        /// Arena-relative byte offset.
        offset: u64,
        /// Bit index within the byte.
        bit: u8,
    },
}

/// One armed fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Target component name.
    pub component: String,
    /// Only calls to this function trigger the fault (`None` = any call).
    pub func: Option<String>,
    /// Remaining calls to skip before firing.
    pub after_calls: u64,
    /// The effect.
    pub kind: FaultKind,
    /// Deterministic faults re-fire on the retry after recovery.
    pub deterministic: bool,
    /// Internal: how many times the fault has fired.
    pub fired: u64,
}

impl InjectedFault {
    /// A one-shot, non-deterministic panic on the next call to `component`.
    pub fn panic_next(component: &str) -> Self {
        InjectedFault {
            component: component.to_owned(),
            func: None,
            after_calls: 0,
            kind: FaultKind::Panic,
            deterministic: false,
            fired: 0,
        }
    }

    /// A deterministic panic: it will fire again after recovery.
    pub fn panic_deterministic(component: &str) -> Self {
        InjectedFault {
            deterministic: true,
            ..Self::panic_next(component)
        }
    }

    /// A one-shot hang on the next call to `component`.
    pub fn hang_next(component: &str) -> Self {
        InjectedFault {
            kind: FaultKind::Hang,
            ..Self::panic_next(component)
        }
    }

    /// A one-shot bit flip in `component`'s memory at `offset` (the
    /// non-deterministic hardware-fault model of §II-B).
    pub fn bit_flip(component: &str, offset: u64, bit: u8) -> Self {
        InjectedFault {
            kind: FaultKind::BitFlip { offset, bit },
            ..Self::panic_next(component)
        }
    }

    /// A continuous aging leak on `component`.
    pub fn leak_per_op(component: &str, bytes: usize) -> Self {
        InjectedFault {
            kind: FaultKind::LeakPerOp { bytes },
            deterministic: true, // leaks persist until rejuvenation
            ..Self::panic_next(component)
        }
    }

    /// Restricts the fault to calls of `func`.
    #[must_use]
    pub fn on_func(mut self, func: &str) -> Self {
        self.func = Some(func.to_owned());
        self
    }

    /// Skips the first `n` matching calls before firing.
    #[must_use]
    pub fn after(mut self, n: u64) -> Self {
        self.after_calls = n;
        self
    }
}

/// What an armed fault's names resolve to when it is armed: the slot of
/// its component and, when it is scoped to one, the number of its
/// function. A fault whose names resolve to nothing never fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTarget {
    /// The component's slot.
    pub slot: usize,
    /// The function's number (`None` = any call).
    pub func: Option<FnId>,
}

impl FaultTarget {
    fn hit(target: &Option<FaultTarget>, slot: usize, func: FnId) -> bool {
        target.is_some_and(|t| t.slot == slot && t.func.is_none_or(|f| f == func))
    }
}

/// The set of armed faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<InjectedFault>,
    /// Each fault's resolved target, in arm order.
    targets: Vec<Option<FaultTarget>>,
    hang_threshold: Nanos,
}

impl FaultPlan {
    /// Creates an empty plan with the given hang threshold.
    pub fn new(hang_threshold: Nanos) -> Self {
        FaultPlan {
            faults: Vec::new(),
            targets: Vec::new(),
            hang_threshold,
        }
    }

    /// Arms a fault whose names resolved to `target`.
    pub fn arm(&mut self, fault: InjectedFault, target: Option<FaultTarget>) {
        self.faults.push(fault);
        self.targets.push(target);
    }

    /// Resolves every armed fault's names again (the system relinked).
    pub fn relink(&mut self, resolve: impl FnMut(&InjectedFault) -> Option<FaultTarget>) {
        self.targets = self.faults.iter().map(resolve).collect();
    }

    /// Number of armed faults still able to fire.
    pub fn armed(&self) -> usize {
        self.faults.len()
    }

    /// The armed faults, in arm order (the order [`FaultPlan::on_call`]
    /// consults them). One-shot faults disappear from this slice once they
    /// fire; continuous/deterministic faults stay with their
    /// [`InjectedFault::fired`] counter advancing.
    pub fn faults(&self) -> &[InjectedFault] {
        &self.faults
    }

    /// How long a hang burns before the detector reports it.
    pub fn hang_threshold(&self) -> Nanos {
        self.hang_threshold
    }

    /// Disarms everything.
    pub fn clear(&mut self) {
        self.faults.clear();
        self.targets.clear();
    }

    /// Disarms every fault targeting `component` — used when a different
    /// version of the component is swapped in (its code, and therefore its
    /// deterministic bugs, are gone).
    pub fn clear_component(&mut self, component: &str) {
        let mut at = 0;
        while at < self.faults.len() {
            if self.faults[at].component == component {
                self.disarm(at);
            } else {
                at += 1;
            }
        }
    }

    fn disarm(&mut self, at: usize) {
        self.faults.remove(at);
        self.targets.remove(at);
    }

    /// Evaluates the plan for a call of function `func` in slot `slot`:
    /// the effect of the fault that fires, if any. Faults are consulted in
    /// arm order, and a matching fault still counting down its delay
    /// counts one call; at most one fault fires per call, and a one-shot
    /// fault is consumed when it fires.
    pub fn on_call(&mut self, slot: usize, func: FnId) -> Option<FaultKind> {
        let at = self
            .faults
            .iter_mut()
            .zip(&self.targets)
            .position(|(fault, target)| {
                if !FaultTarget::hit(target, slot, func) {
                    return false;
                }
                if fault.after_calls > 0 {
                    fault.after_calls -= 1;
                    return false;
                }
                true
            })?;
        let fault = &mut self.faults[at];
        fault.fired += 1;
        let kind = fault.kind;
        // Deterministic faults stay armed; one-shot faults are consumed.
        if !fault.deterministic {
            self.disarm(at);
        }
        Some(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resolves names the way a linked system would, over a fixed table.
    fn target(fault: &InjectedFault) -> Option<FaultTarget> {
        const SLOTS: [&str; 3] = ["vfs", "9pfs", "lwip"];
        let slot = SLOTS.iter().position(|&c| c == fault.component)?;
        let func = fault.func.as_deref().map(func_id);
        Some(FaultTarget { slot, func })
    }

    fn func_id(func: &str) -> FnId {
        const FUNCS: [&str; 5] = ["open", "read", "write", "uk_9pfs_read", "socket"];
        FnId(FUNCS.iter().position(|&f| f == func).expect("in the table") as u16)
    }

    fn arm(plan: &mut FaultPlan, fault: InjectedFault) {
        let resolved = target(&fault);
        plan.arm(fault, resolved);
    }

    fn call(plan: &mut FaultPlan, component: &str, func: &str) -> Option<FaultKind> {
        let fault = InjectedFault::panic_next(component);
        plan.on_call(target(&fault).expect("linked").slot, func_id(func))
    }

    #[test]
    fn one_shot_panic_fires_once() {
        let mut plan = FaultPlan::new(Nanos::SECOND);
        arm(&mut plan, InjectedFault::panic_next("9pfs"));
        assert_eq!(call(&mut plan, "vfs", "open"), None);
        assert_eq!(
            call(&mut plan, "9pfs", "uk_9pfs_read"),
            Some(FaultKind::Panic)
        );
        assert_eq!(call(&mut plan, "9pfs", "uk_9pfs_read"), None);
        assert_eq!(plan.armed(), 0);
    }

    #[test]
    fn deterministic_panic_keeps_firing() {
        let mut plan = FaultPlan::new(Nanos::SECOND);
        arm(&mut plan, InjectedFault::panic_deterministic("vfs"));
        assert_eq!(call(&mut plan, "vfs", "open"), Some(FaultKind::Panic));
        assert_eq!(call(&mut plan, "vfs", "open"), Some(FaultKind::Panic));
        assert_eq!(plan.armed(), 1);
    }

    #[test]
    fn func_filter_and_delay() {
        let mut plan = FaultPlan::new(Nanos::SECOND);
        arm(
            &mut plan,
            InjectedFault::panic_next("vfs").on_func("write").after(2),
        );
        assert_eq!(call(&mut plan, "vfs", "read"), None);
        assert_eq!(call(&mut plan, "vfs", "write"), None); // skip 1
        assert_eq!(call(&mut plan, "vfs", "write"), None); // skip 2
        assert_eq!(call(&mut plan, "vfs", "write"), Some(FaultKind::Panic));
    }

    #[test]
    fn hang_carries_the_threshold() {
        let mut plan = FaultPlan::new(Nanos::from_millis(500));
        arm(&mut plan, InjectedFault::hang_next("vfs"));
        assert_eq!(call(&mut plan, "vfs", "open"), Some(FaultKind::Hang));
        assert_eq!(plan.hang_threshold(), Nanos::from_millis(500));
    }

    #[test]
    fn leak_fires_continuously() {
        let mut plan = FaultPlan::new(Nanos::SECOND);
        arm(&mut plan, InjectedFault::leak_per_op("vfs", 64));
        for _ in 0..5 {
            assert_eq!(
                call(&mut plan, "vfs", "write"),
                Some(FaultKind::LeakPerOp { bytes: 64 })
            );
        }
        assert_eq!(plan.armed(), 1);
    }

    #[test]
    fn only_one_fault_fires_per_call() {
        let mut plan = FaultPlan::new(Nanos::SECOND);
        arm(&mut plan, InjectedFault::panic_next("vfs"));
        arm(&mut plan, InjectedFault::hang_next("vfs"));
        assert_eq!(call(&mut plan, "vfs", "open"), Some(FaultKind::Panic));
        // The hang is still armed for the next call.
        assert_eq!(plan.armed(), 1);
        assert!(call(&mut plan, "vfs", "open") == Some(FaultKind::Hang));
    }

    #[test]
    fn arm_order_gives_precedence_on_the_same_function() {
        // Two faults scoped to the same component *and* function: the one
        // armed first wins the call; the second fires on the next call.
        let mut plan = FaultPlan::new(Nanos::SECOND);
        arm(&mut plan, InjectedFault::hang_next("vfs").on_func("write"));
        arm(&mut plan, InjectedFault::panic_next("vfs").on_func("write"));
        assert!(call(&mut plan, "vfs", "write") == Some(FaultKind::Hang));
        assert_eq!(call(&mut plan, "vfs", "write"), Some(FaultKind::Panic));
        assert_eq!(plan.armed(), 0);
    }

    #[test]
    fn wildcard_armed_first_beats_func_scoped_armed_second() {
        let mut plan = FaultPlan::new(Nanos::SECOND);
        arm(&mut plan, InjectedFault::panic_next("vfs")); // any function
        arm(&mut plan, InjectedFault::hang_next("vfs").on_func("write"));
        // The wildcard was armed first, so it consumes the call even though
        // the second fault names the function explicitly.
        assert_eq!(call(&mut plan, "vfs", "write"), Some(FaultKind::Panic));
        assert!(call(&mut plan, "vfs", "write") == Some(FaultKind::Hang));
    }

    #[test]
    fn earlier_delayed_fault_counts_down_even_when_a_later_fault_fires() {
        // A delayed fault armed *before* the firing fault still burns its
        // countdown on the call (the plan walks faults in arm order and
        // decrements matching delays until one fault fires).
        let mut plan = FaultPlan::new(Nanos::SECOND);
        arm(&mut plan, InjectedFault::panic_next("vfs").after(2));
        arm(&mut plan, InjectedFault::hang_next("vfs"));
        // Call 1: the delayed panic decrements (2→1), then the hang fires.
        assert!(call(&mut plan, "vfs", "open") == Some(FaultKind::Hang));
        // Call 2: only the panic remains; it decrements (1→0), nothing fires.
        assert_eq!(call(&mut plan, "vfs", "open"), None);
        // Call 3: the panic's countdown is exhausted — it fires.
        assert_eq!(call(&mut plan, "vfs", "open"), Some(FaultKind::Panic));
        assert_eq!(plan.armed(), 0);
    }

    #[test]
    fn later_delayed_fault_is_frozen_on_calls_consumed_by_an_earlier_fault() {
        // A delayed fault armed *after* the firing fault does NOT burn its
        // countdown on the call the earlier fault consumed: at most one
        // fault is evaluated-to-fire per call, and evaluation stops
        // decrementing once an action is chosen.
        let mut plan = FaultPlan::new(Nanos::SECOND);
        arm(&mut plan, InjectedFault::panic_next("vfs"));
        arm(&mut plan, InjectedFault::hang_next("vfs").after(1));
        // Call 1: the panic fires; the hang's countdown must stay at 1.
        assert_eq!(call(&mut plan, "vfs", "open"), Some(FaultKind::Panic));
        assert_eq!(plan.faults()[0].after_calls, 1, "countdown must be frozen");
        // Call 2: the hang decrements (1→0), nothing fires.
        assert_eq!(call(&mut plan, "vfs", "open"), None);
        // Call 3: the hang fires.
        assert!(call(&mut plan, "vfs", "open") == Some(FaultKind::Hang));
    }

    #[test]
    fn countdowns_only_decrement_on_matching_calls() {
        let mut plan = FaultPlan::new(Nanos::SECOND);
        arm(
            &mut plan,
            InjectedFault::panic_next("vfs").on_func("write").after(1),
        );
        // Non-matching component and non-matching function leave the
        // countdown untouched.
        assert_eq!(call(&mut plan, "9pfs", "write"), None);
        assert_eq!(call(&mut plan, "vfs", "read"), None);
        assert_eq!(plan.faults()[0].after_calls, 1);
        assert_eq!(call(&mut plan, "vfs", "write"), None); // 1→0
        assert_eq!(call(&mut plan, "vfs", "write"), Some(FaultKind::Panic));
    }

    #[test]
    fn faults_on_unresolved_names_never_fire() {
        let mut plan = FaultPlan::new(Nanos::SECOND);
        plan.arm(InjectedFault::panic_next("nope"), None);
        arm(&mut plan, InjectedFault::hang_next("vfs").on_func("read"));
        assert_eq!(call(&mut plan, "vfs", "open"), None);
        // The system relinked: the read-scoped hang now resolves nowhere.
        plan.relink(|f| target(f).filter(|t| t.func.is_none()));
        assert_eq!(call(&mut plan, "vfs", "read"), None);
        assert_eq!(plan.armed(), 2);
    }

    #[test]
    fn clear_component_leaves_other_components_armed() {
        let mut plan = FaultPlan::new(Nanos::SECOND);
        arm(&mut plan, InjectedFault::panic_next("vfs"));
        arm(&mut plan, InjectedFault::leak_per_op("vfs", 32));
        arm(&mut plan, InjectedFault::hang_next("9pfs").after(1));
        arm(&mut plan, InjectedFault::panic_next("lwip"));
        assert_eq!(plan.armed(), 4);

        plan.clear_component("vfs");
        assert_eq!(plan.armed(), 2);
        // The 9PFS countdown state survived the clear untouched.
        assert_eq!(plan.faults()[0].component, "9pfs");
        assert_eq!(plan.faults()[0].after_calls, 1);
        // Cleared component: calls pass clean.
        assert_eq!(call(&mut plan, "vfs", "open"), None);
        // Other components' faults still fire exactly as armed.
        assert_eq!(call(&mut plan, "9pfs", "read"), None); // 1→0
        assert!(call(&mut plan, "9pfs", "read") == Some(FaultKind::Hang));
        assert_eq!(call(&mut plan, "lwip", "socket"), Some(FaultKind::Panic));
        assert_eq!(plan.armed(), 0);
    }
}
