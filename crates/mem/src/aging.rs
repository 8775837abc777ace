//! Software-aging accounting.
//!
//! Aging-related bugs (the paper cites the `ukallocbuddy` leak, Unikraft
//! issue #689) slowly degrade a long-running component: leaked allocations
//! shrink the usable heap and fragmentation grows. Component-level reboots
//! exist precisely to reverse this. [`AgingState`] tracks the observable
//! effects per component so experiments can (a) inject aging at a configured
//! rate and (b) verify that a reboot clears it.

/// Per-component software-aging counters.
///
/// # Example
///
/// ```
/// use vampos_mem::AgingState;
///
/// let mut aging = AgingState::default();
/// aging.record_leak(4096);
/// aging.record_op();
/// assert_eq!(aging.leaked_bytes(), 4096);
/// aging.rejuvenate();
/// assert_eq!(aging.leaked_bytes(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgingState {
    leaked_bytes: u64,
    leak_events: u64,
    ops_since_boot: u64,
    descriptor_leaks: u64,
    rejuvenations: u64,
}

impl AgingState {
    /// Creates a fresh (un-aged) state.
    pub fn new() -> Self {
        AgingState::default()
    }

    /// Records a memory leak of `bytes` bytes.
    pub fn record_leak(&mut self, bytes: usize) {
        self.leaked_bytes += bytes as u64;
        self.leak_events += 1;
    }

    /// Records a leaked descriptor (fd, socket, 9P fid ...).
    pub fn record_descriptor_leak(&mut self) {
        self.descriptor_leaks += 1;
    }

    /// Records one serviced operation (used to derive aging rates).
    pub fn record_op(&mut self) {
        self.ops_since_boot += 1;
    }

    /// Bytes leaked since the last rejuvenation.
    pub fn leaked_bytes(&self) -> u64 {
        self.leaked_bytes
    }

    /// Leak events since the last rejuvenation.
    pub fn leak_events(&self) -> u64 {
        self.leak_events
    }

    /// Descriptor leaks since the last rejuvenation.
    pub fn descriptor_leaks(&self) -> u64 {
        self.descriptor_leaks
    }

    /// Operations serviced since the last rejuvenation.
    pub fn ops_since_boot(&self) -> u64 {
        self.ops_since_boot
    }

    /// Number of times this component has been rejuvenated.
    pub fn rejuvenations(&self) -> u64 {
        self.rejuvenations
    }

    /// True when any aging effect has accumulated.
    pub fn is_aged(&self) -> bool {
        self.leaked_bytes > 0 || self.descriptor_leaks > 0
    }

    /// Clears all aging effects (called on component reboot) and bumps the
    /// rejuvenation counter.
    pub fn rejuvenate(&mut self) {
        self.rejuvenate_times(1);
    }

    /// [`AgingState::rejuvenate`] `times` times over, in one step.
    pub fn rejuvenate_times(&mut self, times: u64) {
        *self = AgingState {
            rejuvenations: self.rejuvenations + times,
            ..AgingState::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_is_not_aged() {
        assert!(!AgingState::new().is_aged());
    }

    #[test]
    fn leaks_accumulate() {
        let mut a = AgingState::new();
        a.record_leak(10);
        a.record_leak(20);
        assert_eq!(a.leaked_bytes(), 30);
        assert_eq!(a.leak_events(), 2);
        assert!(a.is_aged());
    }

    #[test]
    fn descriptor_leaks_count_as_aging() {
        let mut a = AgingState::new();
        a.record_descriptor_leak();
        assert!(a.is_aged());
        assert_eq!(a.descriptor_leaks(), 1);
    }

    #[test]
    fn rejuvenate_clears_everything_but_counts_itself() {
        let mut a = AgingState::new();
        a.record_leak(100);
        a.record_descriptor_leak();
        a.record_op();
        a.rejuvenate();
        assert!(!a.is_aged());
        assert_eq!(a.ops_since_boot(), 0);
        assert_eq!(a.rejuvenations(), 1);
        a.rejuvenate();
        assert_eq!(a.rejuvenations(), 2);
    }

    #[test]
    fn rejuvenate_times_equals_the_loop() {
        for prior in [0u64, 1, 10_000] {
            let mut aged = AgingState::new();
            aged.rejuvenate(); // a boot image need not start at zero
            aged.record_leak(100);
            aged.record_descriptor_leak();
            aged.record_op();
            let mut looped = aged.clone();
            for _ in 0..=prior {
                looped.rejuvenate();
            }
            aged.rejuvenate_times(prior + 1);
            assert_eq!(aged, looped, "{prior} prior rejuvenations");
            assert_eq!(aged.rejuvenations(), prior + 2);
        }
    }
}
