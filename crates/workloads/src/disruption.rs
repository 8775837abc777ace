//! Scheduled disruptions fired during a load run.

use std::borrow::Cow;
use std::cmp::Ordering;

use vampos_apps::App;
use vampos_core::{InjectedFault, System};
use vampos_sim::Nanos;
use vampos_ukernel::OsError;

/// What a disruption does when it fires.
///
/// Payloads are boxed so a [`Disruption`] stays 32 bytes: a load run's
/// schedule can hold tens of thousands of them, and building it is setup
/// work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DisruptionKind {
    /// VampOS component-level reboot of the named component.
    ComponentReboot(Box<str>),
    /// Conventional full reboot of the whole unikernel-linked application
    /// (the application re-boots afterwards, restoring its own state).
    FullReboot,
    /// Arm a fault; it fires when the matching call next reaches the target.
    Inject(Box<InjectedFault>),
    /// Force an immediate fail-stop of the named component (the detector
    /// fires right away; under auto-recovery the component is rebooted).
    Fail(Box<str>),
    /// Rejuvenate every rebootable component, one by one.
    RejuvenateAll,
}

/// One scheduled disruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disruption {
    /// Virtual time at which to fire, relative to the start of the load
    /// run that carries the schedule.
    pub at: Nanos,
    /// The action.
    pub kind: DisruptionKind,
}

impl Disruption {
    /// Schedules a component reboot at `at`.
    pub fn component_reboot(at: Nanos, component: &str) -> Self {
        Disruption {
            at,
            kind: DisruptionKind::ComponentReboot(component.into()),
        }
    }

    /// Schedules a full reboot at `at`.
    pub fn full_reboot(at: Nanos) -> Self {
        Disruption {
            at,
            kind: DisruptionKind::FullReboot,
        }
    }

    /// Schedules a fault injection at `at`.
    pub fn inject(at: Nanos, fault: InjectedFault) -> Self {
        Disruption {
            at,
            kind: DisruptionKind::Inject(Box::new(fault)),
        }
    }

    /// Schedules an immediate forced failure of `component` at `at`.
    pub fn fail(at: Nanos, component: &str) -> Self {
        Disruption {
            at,
            kind: DisruptionKind::Fail(component.into()),
        }
    }

    /// Schedules a rejuvenation sweep of every rebootable component at `at`.
    pub fn rejuvenate_all(at: Nanos) -> Self {
        Disruption {
            at,
            kind: DisruptionKind::RejuvenateAll,
        }
    }

    /// A total order: firing time first, then a deterministic tiebreak on
    /// the action itself so schedules built from permuted input fire
    /// identically (see [`Schedule::new`]). The action's kind decides
    /// before its target, whose text is only looked at on a tie.
    fn order(&self, other: &Self) -> Ordering {
        (self.at, self.rank())
            .cmp(&(other.at, other.rank()))
            .then_with(|| self.detail().cmp(&other.detail()))
    }

    fn rank(&self) -> u8 {
        match self.kind {
            DisruptionKind::ComponentReboot(_) => 0,
            DisruptionKind::FullReboot => 1,
            DisruptionKind::Inject(_) => 2,
            DisruptionKind::Fail(_) => 3,
            DisruptionKind::RejuvenateAll => 4,
        }
    }

    fn detail(&self) -> Cow<'_, str> {
        match &self.kind {
            DisruptionKind::ComponentReboot(name) | DisruptionKind::Fail(name) => {
                Cow::Borrowed(name)
            }
            DisruptionKind::Inject(fault) => Cow::Owned(format!("{fault:?}")),
            DisruptionKind::FullReboot | DisruptionKind::RejuvenateAll => Cow::Borrowed(""),
        }
    }

    /// Fires the disruption against the system (and application, which must
    /// re-boot after a full reboot).
    ///
    /// # Errors
    ///
    /// Propagates reboot failures.
    pub fn fire(&self, sys: &mut System, app: &mut dyn App) -> Result<(), OsError> {
        match &self.kind {
            DisruptionKind::ComponentReboot(name) => {
                sys.reboot_component(name)?;
            }
            DisruptionKind::FullReboot => app.full_reboot(sys)?,
            DisruptionKind::Inject(fault) => {
                sys.inject_fault(InjectedFault::clone(fault));
            }
            DisruptionKind::Fail(component) => {
                sys.force_component_failure(component)?;
            }
            DisruptionKind::RejuvenateAll => {
                sys.rejuvenate_all()?;
            }
        }
        Ok(())
    }
}

/// A queue of disruptions ordered by firing time.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    items: Vec<Disruption>,
    /// The next disruption to fire: `items[next..]` is the queue.
    next: usize,
}

impl Schedule {
    /// Builds a schedule sorted by firing time.
    ///
    /// Disruptions due at the *same* instant are ordered by a deterministic
    /// tiebreak on the action (kind, then target), not by input position:
    /// two schedules holding the same disruptions fire identically no
    /// matter how the caller assembled the vector. Chaos-campaign replay
    /// depends on this.
    pub fn new(mut items: Vec<Disruption>) -> Self {
        items.sort_by(Disruption::order);
        Schedule { items, next: 0 }
    }

    /// The disruptions still queued, in firing order.
    pub fn items(&self) -> &[Disruption] {
        &self.items[self.next..]
    }

    /// Fires every disruption due at or before `now`. Returns how many fired.
    ///
    /// # Errors
    ///
    /// Propagates the first failing disruption, which is consumed all the
    /// same: the next call does not fire it again.
    pub fn fire_due(
        &mut self,
        now: Nanos,
        sys: &mut System,
        app: &mut dyn App,
    ) -> Result<usize, OsError> {
        let mut fired = 0;
        while let Some(due) = self.items.get(self.next).filter(|d| d.at <= now) {
            self.next += 1;
            due.fire(sys, app)?;
            fired += 1;
        }
        Ok(fired)
    }

    /// Disruptions not yet fired.
    pub fn pending(&self) -> usize {
        self.items.len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_apps::Echo;
    use vampos_core::{ComponentSet, Mode};

    #[test]
    fn schedule_fires_in_order_and_only_when_due() {
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::echo())
            .build()
            .unwrap();
        let mut app = Echo::new();
        vampos_apps::App::boot(&mut app, &mut sys).unwrap();

        let mut schedule = Schedule::new(vec![
            Disruption::component_reboot(Nanos::from_secs(2), "process"),
            Disruption::component_reboot(Nanos::from_secs(1), "user"),
        ]);
        assert_eq!(schedule.pending(), 2);
        assert_eq!(
            schedule
                .fire_due(Nanos::from_millis(500), &mut sys, &mut app)
                .unwrap(),
            0
        );
        assert_eq!(
            schedule
                .fire_due(Nanos::from_millis(1500), &mut sys, &mut app)
                .unwrap(),
            1
        );
        assert_eq!(sys.reboot_count("user"), 1);
        assert_eq!(sys.reboot_count("process"), 0);
        assert_eq!(
            schedule
                .fire_due(Nanos::from_secs(3), &mut sys, &mut app)
                .unwrap(),
            1
        );
        assert_eq!(sys.reboot_count("process"), 1);
    }

    #[test]
    fn full_reboot_disruption_reboots_the_app_too() {
        let mut sys = System::builder()
            .mode(Mode::unikraft())
            .components(ComponentSet::echo())
            .build()
            .unwrap();
        let mut app = Echo::new();
        vampos_apps::App::boot(&mut app, &mut sys).unwrap();
        let d = Disruption::full_reboot(Nanos::ZERO);
        d.fire(&mut sys, &mut app).unwrap();
        assert_eq!(sys.stats().full_reboots, 1);
        // The app re-listened: a new client can connect and be served.
        let conn = sys
            .host()
            .with(|w| w.network_mut().connect(vampos_apps::echo::ECHO_PORT));
        vampos_apps::App::poll(&mut app, &mut sys).unwrap();
        assert_eq!(
            sys.host().with(|w| w.network().state(conn).unwrap()),
            vampos_host::ClientConnState::Established
        );
    }
}
