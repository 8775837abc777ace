//! The escalation ladder: component reboot → instance full reboot →
//! fleet failover.
//!
//! Single-rung recovery assumes the recovery machinery itself is sound.
//! The `recursive` chaos family breaks that assumption — it corrupts the
//! 9P server, desynchronizes the virtio rings, blinds the failure
//! detector, poisons checkpoints and replay logs, and interrupts reboots
//! mid-flight. The ladder is the supervisor that survives those faults:
//! each instance carries a consecutive-failure counter and a rung cursor,
//! and every time the counter crosses the threshold the next rung fires.
//! Component-level recovery is always tried first (it is the cheapest and
//! the paper's headline mechanism); a full instance reboot resets state
//! the component rung cannot reach (host rings, fail-stop latches,
//! poisoned checkpoints); fleet failover condemns the instance and lets
//! the balancer route around it permanently.
//!
//! The ladder itself only *decides*; [`Rung::act`] performs a rung's
//! action on any [`Replica`], and [`Fleet`](crate::Fleet) fires the rungs
//! and reports request outcomes back via
//! [`EscalationLadder::note_success`] / [`EscalationLadder::note_failure`].

use vampos_apps::App;
use vampos_sim::Nanos;
use vampos_ukernel::OsError;

use crate::instance::Replica;

/// One rung of the escalation ladder, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Component-level recovery: rejuvenate every rebootable component
    /// and re-establish the 9P session.
    Component,
    /// Conventional full reboot of the instance (host device reset,
    /// cleared logs and checkpoints, app re-boot).
    Instance,
    /// Fleet failover: condemn the instance and drain it permanently;
    /// surviving instances absorb its clients.
    Fleet,
}

impl Rung {
    /// Display name used in telemetry spans and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Rung::Component => "component",
            Rung::Instance => "instance",
            Rung::Fleet => "fleet",
        }
    }

    /// The next rung up, if any.
    pub fn next(self) -> Option<Rung> {
        match self {
            Rung::Component => Some(Rung::Instance),
            Rung::Instance => Some(Rung::Fleet),
            Rung::Fleet => None,
        }
    }

    /// Performs this rung's recovery action on `replica` at grid time
    /// `at`. A failed action books nothing ([`Replica::maintain`]), so the
    /// replica stays exposed and follow-up traffic drives the next rung.
    ///
    /// # Errors
    ///
    /// Propagates a failed rejuvenation or restart.
    pub fn act<A: App>(self, replica: &mut Replica<A>, at: Nanos) -> Result<(), OsError> {
        match self {
            Rung::Component => {
                let recovered = replica.rejuvenate(at);
                let host = replica.sys.host();
                host.with(|w| w.ninep_mut().clear_session_glitch());
                recovered
            }
            Rung::Instance => replica.full_reboot(at),
            // Permanent failover: the drain is never resumed, so the
            // recovery-aware balancer routes every future request to the
            // survivors.
            Rung::Fleet => {
                replica.set_draining(true);
                Ok(())
            }
        }
    }
}

/// One rung firing, recorded for attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct RungEvent {
    /// When the rung fired (virtual time).
    pub at: Nanos,
    /// The instance it fired against.
    pub instance: usize,
    /// Which rung.
    pub rung: Rung,
    /// The failure that pushed the counter over the threshold.
    pub reason: String,
}

/// Per-instance escalation state plus the end-to-end acknowledgement
/// oracle's counters.
#[derive(Debug)]
pub struct EscalationLadder {
    threshold: u32,
    start_rung: Rung,
    max_rung: Rung,
    consecutive: Vec<u32>,
    cursor: Vec<Rung>,
    condemned: Vec<bool>,
    events: Vec<RungEvent>,
    acked_bad: u64,
    expected_body: Option<Vec<u8>>,
}

impl EscalationLadder {
    /// A ladder over `instances` instances: threshold 3 consecutive
    /// failures per rung, starting at [`Rung::Component`], escalating all
    /// the way to [`Rung::Fleet`].
    pub fn new(instances: usize) -> Self {
        EscalationLadder {
            threshold: 3,
            start_rung: Rung::Component,
            max_rung: Rung::Fleet,
            consecutive: vec![0; instances],
            cursor: vec![Rung::Component; instances],
            condemned: vec![false; instances],
            events: Vec::new(),
            acked_bad: 0,
            expected_body: None,
        }
    }

    /// Overrides the consecutive-failure threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: u32) -> Self {
        self.threshold = threshold.max(1);
        self
    }

    /// Starts every instance's cursor at `rung` instead of
    /// [`Rung::Component`] (plant: a ladder that skips the cheap rung
    /// misattributes recoveries).
    #[must_use]
    pub fn with_start_rung(mut self, rung: Rung) -> Self {
        self.start_rung = rung;
        for c in &mut self.cursor {
            *c = rung;
        }
        self
    }

    /// Caps escalation at `rung` (plant: a ladder that cannot fail over
    /// never converges under a stalled server).
    #[must_use]
    pub fn with_max_rung(mut self, rung: Rung) -> Self {
        self.max_rung = rung;
        self
    }

    /// Arms the no-acknowledged-loss oracle: every served response body
    /// is compared against `body`, and mismatches count as acknowledged
    /// loss.
    #[must_use]
    pub fn with_expected_body(mut self, body: Vec<u8>) -> Self {
        self.expected_body = Some(body);
        self
    }

    /// The canonical response body, if the acked-loss oracle is armed.
    pub fn expected_body(&self) -> Option<&[u8]> {
        self.expected_body.as_deref()
    }

    /// A served request on `instance`: resets its failure streak and
    /// walks its cursor back to the start rung.
    pub fn note_success(&mut self, instance: usize) {
        self.consecutive[instance] = 0;
        if !self.condemned[instance] {
            self.cursor[instance] = self.start_rung;
        }
    }

    /// A failed request (or failed maintenance op) on `instance`.
    /// Returns the rung to fire when the streak crosses the threshold;
    /// the caller performs the action, the ladder records the event and
    /// advances the cursor.
    pub fn note_failure(&mut self, instance: usize, at: Nanos, reason: &str) -> Option<Rung> {
        if self.condemned[instance] {
            return None;
        }
        self.consecutive[instance] += 1;
        if self.consecutive[instance] < self.threshold {
            return None;
        }
        self.consecutive[instance] = 0;
        let rung = self.cursor[instance].min(self.max_rung);
        self.events.push(RungEvent {
            at,
            instance,
            rung,
            reason: reason.to_owned(),
        });
        if rung == Rung::Fleet {
            self.condemned[instance] = true;
        } else if let Some(next) = rung.next() {
            self.cursor[instance] = next.min(self.max_rung);
        }
        Some(rung)
    }

    /// A served response whose body contradicted the canonical content:
    /// the client acknowledged data that post-recovery state disowns.
    pub fn note_acked_bad(&mut self) {
        self.acked_bad += 1;
    }

    /// Served-but-wrong responses observed so far.
    pub fn acked_bad(&self) -> u64 {
        self.acked_bad
    }

    /// Whether `instance` has been failed over permanently.
    pub fn is_condemned(&self, instance: usize) -> bool {
        self.condemned[instance]
    }

    /// Number of condemned instances.
    pub fn condemned_count(&self) -> usize {
        self.condemned.iter().filter(|&&c| c).count()
    }

    /// Every rung firing, in order.
    pub fn events(&self) -> &[RungEvent] {
        &self.events
    }

    /// The rung sequence fired against `instance`, in order.
    pub fn rungs_for(&self, instance: usize) -> Vec<Rung> {
        self.events
            .iter()
            .filter(|e| e.instance == instance)
            .map(|e| e.rung)
            .collect()
    }

    /// Total rungs fired across the fleet.
    pub fn total_rungs(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_fires_then_escalates() {
        let mut l = EscalationLadder::new(2);
        let at = Nanos::from_millis(1);
        assert_eq!(l.note_failure(0, at, "x"), None);
        assert_eq!(l.note_failure(0, at, "x"), None);
        assert_eq!(l.note_failure(0, at, "x"), Some(Rung::Component));
        // Streak resets after a rung fires; three more escalate.
        assert_eq!(l.note_failure(0, at, "x"), None);
        assert_eq!(l.note_failure(0, at, "x"), None);
        assert_eq!(l.note_failure(0, at, "x"), Some(Rung::Instance));
        assert_eq!(l.note_failure(0, at, "x"), None);
        assert_eq!(l.note_failure(0, at, "x"), None);
        assert_eq!(l.note_failure(0, at, "x"), Some(Rung::Fleet));
        assert!(l.is_condemned(0));
        // Condemned instances are inert.
        assert_eq!(l.note_failure(0, at, "x"), None);
        assert_eq!(
            l.rungs_for(0),
            vec![Rung::Component, Rung::Instance, Rung::Fleet]
        );
        assert_eq!(l.rungs_for(1), Vec::<Rung>::new());
    }

    #[test]
    fn success_resets_streak_and_cursor() {
        let mut l = EscalationLadder::new(1).with_threshold(2);
        let at = Nanos::from_millis(1);
        assert_eq!(l.note_failure(0, at, "x"), None);
        l.note_success(0);
        assert_eq!(l.note_failure(0, at, "x"), None);
        assert_eq!(l.note_failure(0, at, "x"), Some(Rung::Component));
        // A recovery that sticks walks the cursor back down.
        l.note_success(0);
        assert_eq!(l.note_failure(0, at, "x"), None);
        assert_eq!(l.note_failure(0, at, "x"), Some(Rung::Component));
    }

    #[test]
    fn max_rung_caps_escalation() {
        let mut l = EscalationLadder::new(1)
            .with_threshold(1)
            .with_max_rung(Rung::Instance);
        let at = Nanos::from_millis(1);
        assert_eq!(l.note_failure(0, at, "x"), Some(Rung::Component));
        assert_eq!(l.note_failure(0, at, "x"), Some(Rung::Instance));
        // Capped: the top rung repeats instead of failing over.
        assert_eq!(l.note_failure(0, at, "x"), Some(Rung::Instance));
        assert!(!l.is_condemned(0));
    }

    #[test]
    fn start_rung_skips_component() {
        let mut l = EscalationLadder::new(1)
            .with_threshold(1)
            .with_start_rung(Rung::Instance);
        let at = Nanos::from_millis(1);
        assert_eq!(l.note_failure(0, at, "x"), Some(Rung::Instance));
        assert_eq!(l.note_failure(0, at, "x"), Some(Rung::Fleet));
    }

    #[test]
    fn acked_bad_accumulates() {
        let mut l = EscalationLadder::new(1).with_expected_body(b"hello".to_vec());
        assert_eq!(l.expected_body(), Some(&b"hello"[..]));
        l.note_acked_bad();
        l.note_acked_bad();
        assert_eq!(l.acked_bad(), 2);
    }
}
