//! The siege-like HTTP load generator (§VII-C/D).
//!
//! N clients hold keep-alive connections to MiniHttpd and issue GETs with a
//! configurable think time. Scheduled disruptions fire mid-run; a request on
//! a connection the server lost (full reboot) fails and the client
//! reconnects — exactly how siege counts the failed transactions of the
//! paper's Table V.

use vampos_apps::httpd::HTTP_PORT;
use vampos_apps::MiniHttpd;
use vampos_core::System;
use vampos_host::ClientConnId;
use vampos_sim::Nanos;
use vampos_ukernel::OsError;

use crate::disruption::{Disruption, Schedule};
use crate::report::{LoadReport, RequestRecord};
use crate::wire;

/// Configuration of an HTTP load run.
#[derive(Debug, Clone)]
pub struct HttpLoad {
    /// Concurrent client connections (siege spawned 100 threads in §VII-D).
    pub clients: usize,
    /// Virtual run length.
    pub duration: Nanos,
    /// Per-client pause between requests.
    pub think_time: Nanos,
    /// Path requested (the 180-byte HTML file of §VII-C by default).
    pub path: String,
    /// Clients on a separate machine (higher network RTT).
    pub remote: bool,
}

impl Default for HttpLoad {
    fn default() -> Self {
        HttpLoad {
            clients: 40,
            duration: Nanos::from_secs(60),
            think_time: Nanos::from_millis(25),
            path: "/index.html".to_owned(),
            remote: false,
        }
    }
}

struct Client {
    conn: Option<ClientConnId>,
    next_send: Nanos,
}

impl HttpLoad {
    /// The GET every client issues. Callers build it per request and hold
    /// it until the record is booked: the host benchmark's `peak_rss_mb`
    /// follows the allocation order of these loops (ROADMAP item 1).
    fn request(&self) -> String {
        format!("GET {} HTTP/1.1\r\nHost: vampos\r\n\r\n", self.path)
    }

    /// Sends `request` over `conn`; whether it was answered `200` on a
    /// connection that is still up. A refused send is a failed request,
    /// not a failed drive.
    fn get(
        sys: &mut System,
        app: &mut MiniHttpd,
        conn: ClientConnId,
        request: &str,
        one_way: Nanos,
    ) -> Result<bool, OsError> {
        let response = wire::exchange(sys, app, conn, request.as_bytes(), one_way)?;
        Ok(response.starts_with(b"HTTP/1.1 200") && !wire::conn_dead(sys, conn))
    }

    /// Runs the load against a booted server, firing `disruptions` at their
    /// virtual times.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered system failures (fail-stop).
    pub fn run(
        &self,
        sys: &mut System,
        app: &mut MiniHttpd,
        disruptions: Vec<Disruption>,
    ) -> Result<LoadReport, OsError> {
        let mut report = LoadReport::default();
        let mut schedule = Schedule::new(disruptions);
        let started = sys.clock().now();
        let deadline = started + self.duration;
        let one_way = sys.costs().net_rtt(0, self.remote) / 2;

        let mut clients: Vec<Client> = (0..self.clients.max(1))
            .map(|i| Client {
                conn: None,
                // Stagger arrivals across one think interval.
                next_send: started
                    + Nanos::from_nanos(
                        self.think_time.as_nanos() * i as u64 / self.clients.max(1) as u64,
                    ),
            })
            .collect();

        loop {
            // Next client due to send.
            let (idx, due) = clients
                .iter()
                .enumerate()
                .map(|(i, c)| (i, c.next_send))
                .min_by_key(|&(_, t)| t)
                .expect("at least one client");
            if due >= deadline {
                break;
            }
            sys.clock().advance_to(due);
            schedule.fire_due(sys.clock().now().saturating_sub(started), sys, app)?;

            let start = due;
            // A connection the server lost is a failed transaction (siege
            // counts connection errors): record it and reconnect.
            if clients[idx].conn.is_some_and(|c| wire::conn_dead(sys, c)) {
                report.reconnects += 1;
                clients[idx].conn = Some(wire::connect(sys, app, HTTP_PORT)?);
                report.records.push(RequestRecord {
                    start,
                    end: sys.clock().now(),
                    ok: false,
                });
                clients[idx].next_send = sys.clock().now() + self.think_time;
                continue;
            }
            let conn = match clients[idx].conn {
                Some(conn) => conn,
                None => wire::connect(sys, app, HTTP_PORT)?,
            };
            clients[idx].conn = Some(conn);

            let request = self.request();
            let ok = Self::get(sys, app, conn, &request, one_way)?;
            if !ok {
                // The connection died (reset under us): drop it.
                clients[idx].conn = None;
            }
            report.records.push(RequestRecord {
                start,
                end: sys.clock().now(),
                ok,
            });
            clients[idx].next_send = sys.clock().now() + self.think_time;
        }
        sys.clock().advance_to(deadline);
        report.duration = sys.clock().now().saturating_sub(started);
        Ok(report)
    }

    /// A count-based single-client variant: exactly `requests` GETs with
    /// [`HttpLoad::think_time`] between them, firing `schedule` before each.
    /// Unlike the duration-based [`HttpLoad::run`], a faulted run issues the
    /// same request stream as its fault-free twin even when recovery
    /// stretches virtual time — the property the chaos oracles compare on.
    /// The caller keeps the schedule for liveness checks.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered system failures (fail-stop).
    pub fn run_requests(
        &self,
        sys: &mut System,
        app: &mut MiniHttpd,
        requests: usize,
        schedule: &mut Schedule,
    ) -> Result<LoadReport, OsError> {
        let mut report = LoadReport::default();
        let started = sys.clock().now();
        let one_way = sys.costs().net_rtt(0, self.remote) / 2;
        let mut conn = wire::connect(sys, app, HTTP_PORT)?;
        for _ in 0..requests {
            schedule.fire_due(sys.clock().now().saturating_sub(started), sys, app)?;
            if wire::conn_dead(sys, conn) {
                report.reconnects += 1;
                conn = wire::connect(sys, app, HTTP_PORT)?;
            }
            let start = sys.clock().now();
            let request = self.request();
            let ok = Self::get(sys, app, conn, &request, one_way)?;
            report.records.push(RequestRecord {
                start,
                end: sys.clock().now(),
                ok,
            });
            sys.clock().advance(self.think_time);
        }
        // Quiesce: fire anything that came due during the final request's
        // recovery window before handing the schedule back.
        schedule.fire_due(sys.clock().now().saturating_sub(started), sys, app)?;
        report.duration = sys.clock().now().saturating_sub(started);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_apps::App;
    use vampos_core::{ComponentSet, Mode};
    use vampos_host::HostHandle;

    fn booted(mode: Mode) -> (MiniHttpd, System) {
        let host = HostHandle::new();
        host.with(|w| w.ninep_mut().put_file("/www/index.html", &[b'x'; 180]));
        let mut sys = System::builder()
            .mode(mode)
            .components(ComponentSet::nginx())
            .host(host)
            .build()
            .unwrap();
        let mut app = MiniHttpd::default();
        app.boot(&mut sys).unwrap();
        (app, sys)
    }

    fn small_load() -> HttpLoad {
        HttpLoad {
            clients: 4,
            duration: Nanos::from_secs(2),
            think_time: Nanos::from_millis(50),
            path: "/index.html".to_owned(),
            remote: false,
        }
    }

    #[test]
    fn undisturbed_run_succeeds_fully() {
        let (mut app, mut sys) = booted(Mode::vampos_das());
        let report = small_load().run(&mut sys, &mut app, vec![]).unwrap();
        assert!(report.records.len() > 50, "n = {}", report.records.len());
        assert_eq!(report.success_ratio(), 1.0);
        assert_eq!(report.reconnects, 0);
    }

    #[test]
    fn component_rejuvenation_loses_nothing() {
        let (mut app, mut sys) = booted(Mode::vampos_das());
        let disruptions = vec![
            Disruption::component_reboot(Nanos::from_millis(500), "vfs"),
            Disruption::component_reboot(Nanos::from_millis(1000), "lwip"),
            Disruption::component_reboot(Nanos::from_millis(1500), "9pfs"),
        ];
        let report = small_load().run(&mut sys, &mut app, disruptions).unwrap();
        assert_eq!(
            report.success_ratio(),
            1.0,
            "failures: {}",
            report.failures()
        );
        assert_eq!(report.reconnects, 0);
        assert_eq!(sys.stats().component_reboots, 3);
    }

    #[test]
    fn full_reboot_drops_connections_and_requests() {
        let (mut app, mut sys) = booted(Mode::unikraft());
        let disruptions = vec![Disruption::full_reboot(Nanos::from_millis(800))];
        let report = small_load().run(&mut sys, &mut app, disruptions).unwrap();
        assert!(report.failures() > 0, "full reboot must cost transactions");
        assert!(report.reconnects > 0);
        assert!(report.success_ratio() < 1.0);
        // Service recovered after the reboot.
        assert!(report.records.last().unwrap().ok);
    }

    #[test]
    fn remote_clients_see_higher_latency() {
        let (mut app_l, mut sys_l) = booted(Mode::vampos_das());
        let local = small_load().run(&mut sys_l, &mut app_l, vec![]).unwrap();
        let (mut app_r, mut sys_r) = booted(Mode::vampos_das());
        let mut cfg = small_load();
        cfg.remote = true;
        let remote = cfg.run(&mut sys_r, &mut app_r, vec![]).unwrap();
        assert!(remote.mean_latency() > local.mean_latency());
    }
}
