//! The Echo message workload (§VII-C: a 159-byte payload for a minute).

use vampos_apps::echo::ECHO_PORT;
use vampos_apps::{App, Echo};
use vampos_core::System;
use vampos_ukernel::OsError;

use crate::disruption::Schedule;
use crate::report::{LoadReport, RequestRecord};
use crate::wire;

/// Configuration of an echo run.
#[derive(Debug, Clone)]
pub struct EchoLoad {
    /// Messages to exchange.
    pub messages: usize,
    /// Payload bytes per message (paper: 159).
    pub payload_len: usize,
    /// Concurrent client connections (paper: 1 thread).
    pub connections: usize,
    /// Clients on a separate machine.
    pub remote: bool,
}

impl Default for EchoLoad {
    fn default() -> Self {
        EchoLoad {
            messages: 1_000,
            payload_len: 159,
            connections: 1,
            remote: false,
        }
    }
}

impl EchoLoad {
    /// Runs the workload: each message must come back byte-identical.
    ///
    /// # Errors
    ///
    /// Propagates system fail-stops.
    pub fn run(&self, sys: &mut System, app: &mut Echo) -> Result<LoadReport, OsError> {
        self.run_with_disruptions(sys, app, &mut Schedule::default())
    }

    /// Like [`EchoLoad::run`], but fires `schedule` at its virtual times and
    /// reconnects a connection the server lost (full reboot). Count-based so
    /// a faulted run issues exactly as many messages as its fault-free twin,
    /// which is what makes the chaos oracles' request-level comparison
    /// meaningful. The caller keeps the schedule and can inspect
    /// [`Schedule::pending`] afterwards.
    ///
    /// # Errors
    ///
    /// Propagates system fail-stops.
    pub fn run_with_disruptions(
        &self,
        sys: &mut System,
        app: &mut Echo,
        schedule: &mut Schedule,
    ) -> Result<LoadReport, OsError> {
        let mut report = LoadReport::default();
        let started = sys.clock().now();
        // All connections open before one poll completes their handshakes.
        let mut conns: Vec<_> = (0..self.connections.max(1))
            .map(|_| sys.host().with(|w| w.network_mut().connect(ECHO_PORT)))
            .collect();
        app.poll(sys)?;
        let payload = vec![b'm'; self.payload_len];
        let one_way = sys.costs().net_rtt(self.payload_len, self.remote) / 2;
        for i in 0..self.messages {
            schedule.fire_due(sys.clock().now().saturating_sub(started), sys, app)?;
            let slot = i % conns.len();
            let conn = &mut conns[slot];
            if wire::conn_dead(sys, *conn) {
                report.reconnects += 1;
                *conn = wire::connect(sys, app, ECHO_PORT)?;
            }
            let start = sys.clock().now();
            sys.host()
                .with(|w| w.network_mut().send(*conn, &payload))
                .map_err(|e| OsError::Io(e.to_string()))?;
            let echoed = wire::response(sys, app, *conn, one_way)?;
            report.records.push(RequestRecord {
                start,
                end: sys.clock().now(),
                ok: echoed == payload,
            });
        }
        // Quiesce: a disruption can come due during the final message's
        // recovery window (recovery jumps the clock); fire it before
        // handing the schedule back.
        schedule.fire_due(sys.clock().now().saturating_sub(started), sys, app)?;
        report.duration = sys.clock().now().saturating_sub(started);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disruption::Disruption;
    use vampos_core::{ComponentSet, Mode};

    #[test]
    fn all_messages_come_back() {
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::echo())
            .build()
            .unwrap();
        let mut app = Echo::new();
        app.boot(&mut sys).unwrap();
        let report = EchoLoad {
            messages: 100,
            payload_len: 159,
            connections: 2,
            remote: false,
        }
        .run(&mut sys, &mut app)
        .unwrap();
        assert_eq!(report.successes(), 100);
    }

    #[test]
    fn every_connection_a_full_reboot_drops_is_reopened_in_its_slot() {
        let mut sys = System::builder()
            .mode(Mode::unikraft())
            .components(ComponentSet::echo())
            .build()
            .unwrap();
        let mut app = Echo::new();
        app.boot(&mut sys).unwrap();
        let load = EchoLoad {
            messages: 40,
            connections: 3,
            ..EchoLoad::default()
        };
        let halfway = load.run(&mut sys, &mut app).unwrap().duration / 2;
        let mut schedule = Schedule::new(vec![Disruption::full_reboot(halfway)]);
        let report = load
            .run_with_disruptions(&mut sys, &mut app, &mut schedule)
            .unwrap();
        assert_eq!(schedule.pending(), 0);
        assert_eq!(report.reconnects, 3);
        assert_eq!(report.successes(), 40);
    }

    #[test]
    fn echo_overhead_of_vampos_is_small() {
        let run = |mode| {
            let mut sys = System::builder()
                .mode(mode)
                .components(ComponentSet::echo())
                .build()
                .unwrap();
            let mut app = Echo::new();
            app.boot(&mut sys).unwrap();
            EchoLoad {
                messages: 100,
                ..EchoLoad::default()
            }
            .run(&mut sys, &mut app)
            .unwrap()
            .duration
        };
        let vanilla = run(Mode::unikraft());
        let das = run(Mode::vampos_das());
        // §VII-C: "VampOS's throughput of Echo is comparable to Unikraft" —
        // allow up to ~2× here (the paper's bound across apps is 1.46×).
        assert!(das < vanilla * 2, "das {das} vs vanilla {vanilla}");
    }
}
