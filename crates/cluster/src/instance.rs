//! One replica: a booted unikernel and the application it runs, plus the
//! balancer-visible bookkeeping every served tier books against — the
//! front tier's [`Instance`]s here and the mesh's backend replicas alike.
//!
//! # Occupancy model
//!
//! A replica is a FIFO server in request (arrival-grid) time. A request
//! due at `due` arrives one wire flight later; the server works on it from
//! `max(arrival, next_free)` for the measured service time and the
//! response lands one flight after that. The wire time pipelines, the
//! server occupancy does not. Maintenance books its window the same way,
//! and additionally extends the recovery window the recovery-aware policy
//! drains around and the stall attribution is measured against.

use std::collections::VecDeque;
use std::rc::Rc;

use vampos_apps::httpd::HTTP_PORT;
use vampos_apps::{App, MiniHttpd};
use vampos_core::{Image, System, SystemBuilder};
use vampos_host::{ClientConnId, HostHandle};
use vampos_sim::{derive_seed, Nanos, SimClock};
use vampos_telemetry::{TelemetrySink, ThinName};
use vampos_ukernel::OsError;
use vampos_workloads as wire;

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

/// A request booked against a [`Replica`]: when the server picks it up,
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

impl Booking {
    /// The server time the request costs.
    pub fn service(&self) -> Nanos {
        Nanos::from_nanos(self.cost.service_ns)
    }
}

/// One replica of a served tier: a unikernel running `A`, booked as a FIFO
/// server (see the module docs) and recovered in place or as a whole VM.
///
/// Each replica owns its own host world and system; only the virtual clock
/// is shared with its siblings. Fields drop in declaration order, and this
/// order is deliberate: the application's memory is tens of thousands of
/// small blocks, and glibc merges freed small blocks only when a large
/// block is freed or requested. Dropped before the system, whose teardown
/// frees large blocks, they are merged during teardown; dropped last, the
/// merge falls to the next boot's first large allocation.
pub struct Replica<A> {
    label: ThinName,
    /// The application running on it.
    pub app: A,
    /// The simulated unikernel.
    pub sys: System,
    /// Earliest time the server can start the next request (FIFO service).
    next_free: Nanos,
    /// End of the latest known recovery window (maintenance and
    /// failure-detector fed); the recovery-aware policy drains until then.
    recovery_until: Nanos,
    /// Downtime windows already accounted for: maintenance books its own
    /// window in request time, so only windows beyond this count are
    /// unscheduled fault recoveries.
    seen_downtime: usize,
    /// Administratively drained (rolling-rejuvenation lead window, or
    /// condemned by the ladder's fleet rung).
    draining: bool,
    /// Completion times of in-flight requests, nondecreasing; pruned on
    /// every query and every booking, so it holds at most the requests
    /// still in flight at the latest dispatch.
    completions: VecDeque<Nanos>,
}

/// A front-tier fleet member: a replica serving HTTP.
pub type Instance = Replica<MiniHttpd>;

impl<A: App> Replica<A> {
    /// Builds the system `builder` describes and boots `app` on it.
    ///
    /// # Errors
    ///
    /// Propagates boot failures.
    pub fn start(label: String, builder: SystemBuilder, mut app: A) -> Result<Self, OsError> {
        let mut sys = builder.build()?;
        app.boot(&mut sys)?;
        Ok(Replica {
            label: label.into(),
            app,
            sys,
            next_free: Nanos::ZERO,
            recovery_until: Nanos::ZERO,
            seen_downtime: 0,
            draining: false,
            completions: VecDeque::new(),
        })
    }

    /// Display label (`instance-NN`, `kv-0`), also the Perfetto process
    /// name.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The label as telemetry shares it: a journey hop's `instance`.
    pub(crate) fn shared_label(&self) -> &ThinName {
        &self.label
    }

    /// Whether the maintenance plan currently drains this replica.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    pub(crate) fn set_draining(&mut self, draining: bool) {
        self.draining = draining;
    }

    /// End of the latest known recovery window.
    pub fn recovery_until(&self) -> Nanos {
        self.recovery_until
    }

    /// Requests dispatched to this replica that complete after `at`.
    /// Dispatch times only move forward, so the requests completed by `at`
    /// are forgotten.
    pub fn outstanding(&mut self, at: Nanos) -> usize {
        while self.completions.front().is_some_and(|&end| end <= at) {
            self.completions.pop_front();
        }
        self.completions.len()
    }

    /// Books a request due at `due` that cost the server `service`. Pure:
    /// the caller commits a *served* request with [`Replica::occupy`].
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

    /// Books the work done since the execution clock read `t0` for a
    /// request due at `due`: observes the failure detector, then charges
    /// the server whatever the work cost beyond the `flights` the clock
    /// advanced on the wire. Like [`Replica::book`], it commits nothing.
    pub fn book_work(&mut self, t0: Nanos, due: Nanos, one_way: Nanos, flights: Nanos) -> Booking {
        self.observe_detector(due);
        let now = self.sys.clock().now();
        let elapsed = now.checked_sub(t0).expect("the clock never runs backwards");
        // Both tiers send only on a live connection (a kept one passed
        // `conn_dead`, a fresh one was just accepted), so the clock
        // advanced by both flights.
        let service = elapsed
            .checked_sub(flights)
            .expect("a request on a live connection advances the clock by its flights");
        self.book(due, one_way, service)
    }

    /// Marks the server occupied until `booked`'s service ends.
    pub fn occupy(&mut self, booked: &Booking) {
        self.next_free = booked.busy_from + booked.service();
    }

    /// Commits a served request dispatched at `due`: the server is
    /// occupied and the request is in flight until `booked` completes.
    pub(crate) fn note_service(&mut self, due: Nanos, booked: &Booking) {
        self.occupy(booked);
        self.outstanding(due);
        self.completions.push_back(booked.end);
    }

    /// Refreshes the recovery window from the failure detector: downtime
    /// the system recorded that no maintenance accounted for is an
    /// unscheduled fault recovery, and the recovery-aware policy drains
    /// around it too. The detector records windows on the shared execution
    /// clock, which runs far ahead of request (arrival-grid) time — only
    /// each window's *duration* carries over: the server drains for that
    /// long past the observing request at `at`.
    pub fn observe_detector(&mut self, at: Nanos) {
        let windows = &self.sys.stats().downtime;
        let mut unscheduled = Nanos::ZERO;
        for window in windows.iter().skip(self.seen_downtime) {
            unscheduled += window.end.saturating_sub(window.start);
        }
        if unscheduled > Nanos::ZERO {
            self.recovery_until = self.recovery_until.max(at + unscheduled);
        }
        self.seen_downtime = windows.len();
    }

    /// Marks every downtime window the system recorded so far as accounted
    /// for — boot-time history, or maintenance whose window
    /// [`Replica::maintain`] already booked in request time.
    pub fn ack_downtime(&mut self) {
        self.seen_downtime = self.sys.stats().downtime.len();
    }

    /// Runs one maintenance `action` scheduled at grid time `at` and, when
    /// it succeeds, books the execution-clock time it took as a window:
    /// the server is busy (and inside a recovery window) from
    /// `max(at, next_free)` for that long, and the downtime it recorded is
    /// acked. Using the *scheduled* start means simultaneous plans on
    /// different replicas produce overlapping windows even though the
    /// shared clock serializes the actual work. A failed action books
    /// nothing: the server stays exposed, so follow-up traffic keeps
    /// failing instead of draining around a recovery that never happened.
    ///
    /// # Errors
    ///
    /// Propagates the action's failure.
    pub fn maintain(
        &mut self,
        at: Nanos,
        action: impl FnOnce(&mut System, &mut A) -> Result<(), OsError>,
    ) -> Result<(), OsError> {
        let t0 = self.sys.clock().now();
        action(&mut self.sys, &mut self.app)?;
        let dur = self.sys.clock().now().saturating_sub(t0);
        self.next_free = self.next_free.max(at) + dur;
        self.recovery_until = self.recovery_until.max(self.next_free);
        self.ack_downtime();
        Ok(())
    }

    /// Rejuvenates every rebootable component at grid time `at` and books
    /// the window: a plan op, or the ladder's component rung.
    ///
    /// # Errors
    ///
    /// Propagates the first failed reboot; nothing is booked for it.
    pub fn rejuvenate(&mut self, at: Nanos) -> Result<(), OsError> {
        self.maintain(at, |sys, _| sys.rejuvenate_all().map(drop))
    }

    /// Restarts the whole VM at grid time `at` ([`App::full_reboot`]) and
    /// books the window: a plan op, or the ladder's instance rung.
    ///
    /// # Errors
    ///
    /// Propagates a failed restart; nothing is booked for it.
    pub fn full_reboot(&mut self, at: Nanos) -> Result<(), OsError> {
        self.maintain(at, |sys, app| app.full_reboot(sys))
    }

    /// Closes a client connection (proactive migration, a finished probe).
    pub fn close(&self, conn: ClientConnId) {
        let _ = self.sys.host().with(|w| w.network_mut().close(conn));
    }
}

impl Instance {
    /// Boots instance `id` of a fleet from the fleet's `image` on the
    /// shared `clock`. The seed is [`derive_seed`]`(fleet_seed, id)`, so
    /// instance 0 of a fleet is byte-for-byte the system a bare
    /// single-machine run with that derived seed would build.
    ///
    /// # Errors
    ///
    /// Propagates boot failures.
    pub fn boot(
        id: usize,
        cfg: &FleetConfig,
        image: &Rc<Image>,
        clock: SimClock,
    ) -> Result<Instance, OsError> {
        let host = HostHandle::new();
        host.with(|w| {
            for (path, bytes) in &cfg.files {
                w.ninep_mut().put_file(path, bytes);
            }
        });
        let mut builder = System::builder()
            .image(Rc::clone(image))
            .host(host)
            .seed(derive_seed(cfg.seed, id as u64))
            .clock(clock);
        if cfg.telemetry {
            builder = builder.telemetry(TelemetrySink::new());
        }
        Replica::start(format!("instance-{id:02}"), builder, MiniHttpd::default())
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

    /// Sends `request` over a fresh connection and closes it again:
    /// the response bytes (empty when the server reset the connection).
    ///
    /// # Errors
    ///
    /// Propagates a failed connect or poll.
    pub fn probe(&mut self, request: &str, one_way: Nanos) -> Result<Vec<u8>, OsError> {
        let conn = self.connect()?;
        let response = wire::exchange(
            &mut self.sys,
            &mut self.app,
            conn,
            request.as_bytes(),
            one_way,
        );
        self.close(conn);
        response
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
        let cfg = FleetConfig::default();
        let image = cfg.image().expect("image");
        Instance::boot(0, &cfg, &image, SimClock::default()).expect("boot")
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
        inst.observe_detector(at);

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
        // its window in request time itself (`maintain`), then
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
        inst.observe_detector(Nanos::from_millis(4));
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
        inst.observe_detector(at);
        let first = inst.recovery_until();

        // The same windows observed again (by a later request) are already
        // counted; only *new* downtime may extend the drain.
        inst.observe_detector(Nanos::from_millis(30));
        assert_eq!(inst.recovery_until(), first);
    }
}
