//! One fleet member: a booted unikernel (system + MiniHttpd) plus the
//! balancer-visible bookkeeping the routing policies consult — and the
//! [`Occupancy`] model every served tier (front instances here, the mesh's
//! backend replicas) books its requests and maintenance windows against.

use std::collections::VecDeque;
use std::rc::Rc;

use vampos_apps::httpd::HTTP_PORT;
use vampos_apps::{App, MiniHttpd};
use vampos_core::System;
use vampos_host::{ClientConnId, HostHandle};
use vampos_sim::{derive_seed, Nanos, SimClock};
use vampos_telemetry::TelemetrySink;
use vampos_ukernel::OsError;
use vampos_workloads::{self as wire, LoadReport};

use crate::fleet::FleetConfig;

/// One hop's latency decomposition, nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopCost {
    /// Two one-way network flights.
    pub wire_ns: u64,
    /// Time queued behind the server's FIFO service queue.
    pub queue_ns: u64,
    /// Slice of the queueing delay overlapping a recovery window — the
    /// recovery-induced part of the wait.
    pub stall_ns: u64,
    /// Server occupancy.
    pub service_ns: u64,
}

/// A request booked against an [`Occupancy`]: when the server picks it up,
/// when the client sees the response, and how the latency decomposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Booking {
    /// When the request reaches the server (one flight after its due time).
    pub arrival: Nanos,
    /// When the server starts on it: `max(arrival, next_free)`.
    pub busy_from: Nanos,
    /// When the client observes the response.
    pub end: Nanos,
    /// The wire/queue/stall/service decomposition.
    pub cost: HopCost,
}

/// The FIFO-occupancy model of one server, in request (arrival-grid) time.
///
/// A request due at `due` arrives one wire flight later; the server works
/// on it from `max(arrival, next_free)` for the measured service time and
/// the response lands one flight after that. The wire time pipelines, the
/// server occupancy does not. Maintenance books its window the same way,
/// and additionally extends the recovery window the recovery-aware policy
/// drains around and the stall attribution is measured against.
#[derive(Debug, Clone, Copy, Default)]
pub struct Occupancy {
    /// Earliest time the server can start the next request (FIFO service).
    next_free: Nanos,
    /// End of the latest known recovery window (maintenance plan and
    /// failure-detector fed).
    recovery_until: Nanos,
    /// Downtime windows already accounted for (scheduled maintenance books
    /// its window in request time via [`Occupancy::note_maintenance`]; only
    /// windows beyond this count are unscheduled fault recoveries).
    seen_downtime: usize,
}

impl Occupancy {
    /// Earliest time the server can start another request.
    pub fn next_free(&self) -> Nanos {
        self.next_free
    }

    /// End of the latest known recovery window.
    pub fn recovery_until(&self) -> Nanos {
        self.recovery_until
    }

    /// Books a request due at `due` that cost the server `service`. Pure:
    /// the caller commits a *served* request with [`Occupancy::occupy`].
    pub fn book(&self, due: Nanos, one_way: Nanos, service: Nanos) -> Booking {
        let arrival = due + one_way;
        let busy_from = arrival.max(self.next_free);
        Booking {
            arrival,
            busy_from,
            end: busy_from + service + one_way,
            cost: HopCost {
                wire_ns: (one_way + one_way).as_nanos(),
                queue_ns: busy_from.saturating_sub(arrival).as_nanos(),
                stall_ns: busy_from
                    .min(self.recovery_until)
                    .saturating_sub(arrival)
                    .as_nanos(),
                service_ns: service.as_nanos(),
            },
        }
    }

    /// Marks the server occupied until `busy_until`.
    pub fn occupy(&mut self, busy_until: Nanos) {
        self.next_free = busy_until;
    }

    /// Books `dur` of maintenance scheduled at `at`: the server is busy
    /// (and inside a recovery window) from `max(at, next_free)` for `dur`.
    /// Using the *scheduled* start means simultaneous plans on different
    /// instances produce overlapping windows even though the shared clock
    /// serializes the actual reboot work.
    pub fn note_maintenance(&mut self, at: Nanos, dur: Nanos) {
        let busy_from = self.next_free.max(at);
        self.next_free = busy_from + dur;
        self.recovery_until = self.recovery_until.max(self.next_free);
    }

    /// Refreshes the recovery window from `sys`'s failure detector:
    /// downtime the system recorded that no maintenance op accounted for
    /// is an unscheduled fault recovery, and the recovery-aware policy
    /// drains around it too. The detector records windows on the shared
    /// execution clock, which runs far ahead of request (arrival-grid)
    /// time — only each window's *duration* carries over: the server
    /// drains for that long past the observing request at `at`.
    pub fn observe_detector(&mut self, sys: &System, at: Nanos) {
        let windows = &sys.stats().downtime;
        let mut unscheduled = Nanos::ZERO;
        for window in windows.iter().skip(self.seen_downtime) {
            unscheduled += window.end.saturating_sub(window.start);
        }
        if unscheduled > Nanos::ZERO {
            self.recovery_until = self.recovery_until.max(at + unscheduled);
        }
        self.seen_downtime = windows.len();
    }

    /// Marks every downtime window `sys` recorded so far as accounted for
    /// — boot-time history, or a scheduled maintenance op whose window
    /// [`Occupancy::note_maintenance`] already books in request time.
    pub fn ack_downtime(&mut self, sys: &System) {
        self.seen_downtime = sys.stats().downtime.len();
    }

    /// Runs one maintenance `action` scheduled at grid time `at` and, when
    /// it succeeds, books the execution-clock time it took as a
    /// maintenance window and acks the downtime it recorded. A failed
    /// action books nothing: the server stays exposed, so follow-up
    /// traffic keeps failing instead of draining around a recovery that
    /// never happened.
    ///
    /// # Errors
    ///
    /// Propagates the action's failure.
    pub fn maintain(
        &mut self,
        sys: &mut System,
        at: Nanos,
        action: impl FnOnce(&mut System) -> Result<(), OsError>,
    ) -> Result<(), OsError> {
        let t0 = sys.clock().now();
        action(sys)?;
        let dur = sys.clock().now().saturating_sub(t0);
        self.note_maintenance(at, dur);
        self.ack_downtime(sys);
        Ok(())
    }
}

/// A single unikernel instance inside a [`crate::Fleet`].
///
/// Each instance owns its own host world, system, and HTTP server; only the
/// virtual clock is shared with its siblings. The per-instance seed is
/// [`derive_seed`]`(fleet_seed, id)`, so instance 0 of a fleet is
/// byte-for-byte the system a bare single-machine run with that derived
/// seed would build.
pub struct Instance {
    id: usize,
    label: Rc<str>,
    /// The simulated unikernel.
    pub sys: System,
    /// The HTTP server running on it.
    pub app: MiniHttpd,
    /// Requests this instance served (or failed) during the current run.
    pub report: LoadReport,
    sink: Option<TelemetrySink>,
    /// Service queue and recovery window; the recovery-aware policy drains
    /// until the window closes.
    pub(crate) occ: Occupancy,
    /// Administratively drained (rolling-rejuvenation lead window).
    draining: bool,
    /// Completion times of in-flight requests, nondecreasing; pruned on
    /// every query and every booking, so it holds at most the requests
    /// still in flight at the latest dispatch.
    completions: VecDeque<Nanos>,
}

impl Instance {
    /// Boots instance `id` of a fleet on the shared `clock`.
    ///
    /// # Errors
    ///
    /// Propagates boot failures.
    pub fn boot(id: usize, cfg: &FleetConfig, clock: SimClock) -> Result<Instance, OsError> {
        let host = HostHandle::new();
        host.with(|w| {
            for (path, bytes) in &cfg.files {
                w.ninep_mut().put_file(path, bytes);
            }
        });
        let sink = cfg.telemetry.then(TelemetrySink::new);
        let mut builder = System::builder()
            .mode(cfg.mode.clone())
            .components(cfg.set.clone())
            .host(host)
            .seed(derive_seed(cfg.seed, id as u64))
            .clock(clock);
        if let Some(sink) = &sink {
            builder = builder.telemetry(sink.clone());
        }
        let mut sys = builder.build()?;
        let mut app = MiniHttpd::default();
        app.boot(&mut sys)?;
        Ok(Instance {
            id,
            label: Rc::from(format!("instance-{id:02}")),
            sys,
            app,
            report: LoadReport::default(),
            sink,
            occ: Occupancy::default(),
            draining: false,
            completions: VecDeque::new(),
        })
    }

    /// Fleet-local instance id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Display label (`instance-NN`), also the Perfetto process name.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The label as telemetry shares it: a journey hop's `instance`.
    pub(crate) fn shared_label(&self) -> &Rc<str> {
        &self.label
    }

    /// The telemetry sink attached at boot, when the fleet enabled tracing.
    pub fn telemetry(&self) -> Option<&TelemetrySink> {
        self.sink.as_ref()
    }

    /// Whether the maintenance plan currently drains this instance.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// End of the latest known recovery window.
    pub fn recovery_until(&self) -> Nanos {
        self.occ.recovery_until()
    }

    /// Requests dispatched to this instance that complete after `at`.
    /// Dispatch times only move forward, so the requests completed by `at`
    /// are forgotten.
    pub fn outstanding(&mut self, at: Nanos) -> usize {
        while self.completions.front().is_some_and(|&end| end <= at) {
            self.completions.pop_front();
        }
        self.completions.len()
    }

    /// Rejuvenates every rebootable component at grid time `at` and books
    /// the window: a plan op, or the ladder's component rung.
    ///
    /// # Errors
    ///
    /// Propagates the first failed reboot; nothing is booked for it.
    pub fn rejuvenate(&mut self, at: Nanos) -> Result<(), OsError> {
        self.occ
            .maintain(&mut self.sys, at, |sys| sys.rejuvenate_all().map(drop))
    }

    /// Restarts the whole VM at grid time `at` ([`App::full_reboot`]) and
    /// books the window: a plan op, or the ladder's instance rung.
    ///
    /// # Errors
    ///
    /// Propagates a failed restart; nothing is booked for it.
    pub fn full_reboot(&mut self, at: Nanos) -> Result<(), OsError> {
        self.occ
            .maintain(&mut self.sys, at, |sys| self.app.full_reboot(sys))
    }

    pub(crate) fn set_draining(&mut self, draining: bool) {
        self.draining = draining;
    }

    /// Books a served request dispatched at `due`: the server was occupied
    /// until `busy_until` and the client sees completion at `end`.
    pub(crate) fn note_service(&mut self, due: Nanos, busy_until: Nanos, end: Nanos) {
        self.occ.occupy(busy_until);
        self.outstanding(due);
        self.completions.push_back(end);
    }

    /// Opens a client connection and completes the handshake.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered system failures.
    pub(crate) fn connect(&mut self) -> Result<ClientConnId, OsError> {
        wire::connect(&mut self.sys, &mut self.app, HTTP_PORT)
    }

    /// Whether the server side dropped `conn` (e.g. across a full reboot).
    pub(crate) fn conn_dead(&self, conn: ClientConnId) -> bool {
        wire::conn_dead(&self.sys, conn)
    }

    /// Closes a client connection (proactive migration).
    pub(crate) fn close(&self, conn: ClientConnId) {
        let _ = self.sys.host().with(|w| w.network_mut().close(conn));
    }
}

#[cfg(test)]
mod tests {
    //! Regression tests for the recovery-aware clock-domain fix: the
    //! failure detector records downtime windows on the shared *execution*
    //! clock, which runs far ahead of the request (arrival-grid) domain
    //! that `recovery_until` lives in. Copying a detector absolute into
    //! `recovery_until` once made rebooted instances look in-recovery for
    //! the rest of the run and clumped all clients onto the unfaulted
    //! prefix of the fleet.

    use super::*;

    fn booted() -> Instance {
        Instance::boot(0, &FleetConfig::default(), SimClock::default()).expect("boot")
    }

    #[test]
    fn unscheduled_downtime_carries_durations_not_absolutes() {
        let mut inst = booted();
        inst.sys.reboot_component("vfs").expect("reboot");
        let window = inst.sys.stats().downtime.last().expect("window").clone();
        let duration = window.end.saturating_sub(window.start);
        assert!(duration > Nanos::ZERO);

        // A request observes the fault early in grid time. The execution
        // clock (and the window's absolutes) are far past that already:
        // boot alone takes longer than the whole observation point.
        let at = Nanos::from_millis(2);
        assert!(window.end > at, "precondition: clock domains diverged");
        inst.occ.observe_detector(&inst.sys, at);

        assert_eq!(
            inst.recovery_until(),
            at + duration,
            "an unscheduled window must drain for its duration past the \
             observing request"
        );
        assert!(
            inst.recovery_until() < window.end,
            "execution-clock absolute leaked into grid-domain recovery_until"
        );
    }

    #[test]
    fn scheduled_plan_ops_ack_their_own_windows() {
        let mut inst = booted();

        // A plan op performs the reboot through `maintain`, which books
        // its window in request time itself (`note_maintenance`), then
        // acks the detector record so `observe_detector` won't
        // double-book it.
        let at = Nanos::from_millis(3);
        let t0 = inst.sys.clock().now();
        inst.rejuvenate(at).expect("rejuvenation");
        let dur = inst.sys.clock().now().saturating_sub(t0);
        let booked = inst.recovery_until();
        assert!(booked >= at + dur);

        // Later requests re-consult the detector; the acked windows must
        // not extend the recovery window a second time.
        inst.occ.observe_detector(&inst.sys, Nanos::from_millis(4));
        assert_eq!(
            inst.recovery_until(),
            booked,
            "detector downtime acked by a scheduled op was carried into \
             recovery_until again"
        );
    }

    #[test]
    fn completions_hold_only_the_requests_in_flight() {
        // Recovery-aware routing never asks an instance for its
        // outstanding count, so only the booking itself can prune: the
        // deque must not keep one entry per request ever served.
        let mut fleet = crate::Fleet::new(FleetConfig::default()).expect("boot");
        let load = crate::FleetLoad {
            requests_per_client: 64,
            ..crate::FleetLoad::default()
        };
        let report = fleet
            .run(
                &load,
                crate::Policy::RecoveryAware,
                crate::FleetPlan::none(),
            )
            .expect("run");
        for (inst, served) in fleet.instances().iter().zip(&report.per_instance) {
            let last_due = served
                .records
                .iter()
                .map(|r| r.start)
                .max()
                .expect("served");
            let in_flight = served.records.iter().filter(|r| r.end > last_due).count();
            assert!(served.records.len() > 200);
            assert!(
                inst.completions.len() <= in_flight,
                "{} holds {} completions, {in_flight} in flight",
                inst.label(),
                inst.completions.len()
            );
        }
    }

    #[test]
    fn observation_is_idempotent_once_windows_are_seen() {
        let mut inst = booted();
        inst.sys.reboot_component("vfs").expect("reboot");
        let at = Nanos::from_millis(2);
        inst.occ.observe_detector(&inst.sys, at);
        let first = inst.recovery_until();

        // The same windows observed again (by a later request) are already
        // counted; only *new* downtime may extend the drain.
        inst.occ.observe_detector(&inst.sys, Nanos::from_millis(30));
        assert_eq!(inst.recovery_until(), first);
    }
}
