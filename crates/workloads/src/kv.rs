//! The redis-benchmark-like generator (§VII-C) and the Fig. 8 latency probe.

use vampos_apps::kv::KV_PORT;
use vampos_apps::MiniKv;
use vampos_core::System;
use vampos_host::ClientConnId;
use vampos_sim::Nanos;
use vampos_ukernel::OsError;

use crate::disruption::{Disruption, Schedule};
use crate::report::{LoadReport, RequestRecord};
use crate::wire;

/// One sample of the Fig. 8 latency time series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyPoint {
    /// When the probe was issued (virtual time, relative to run start).
    pub at: Nanos,
    /// Observed request latency.
    pub latency: Nanos,
    /// Whether the probe got a valid response.
    pub ok: bool,
}

/// Configuration of a key-value load run.
#[derive(Debug, Clone)]
pub struct KvLoad {
    /// Key length in bytes (paper: 4).
    pub key_len: usize,
    /// Value length in bytes (paper: 3).
    pub value_len: usize,
    /// Clients on a separate machine.
    pub remote: bool,
}

impl Default for KvLoad {
    fn default() -> Self {
        KvLoad {
            key_len: 4,
            value_len: 3,
            remote: false,
        }
    }
}

impl KvLoad {
    fn round_trip(
        &self,
        sys: &mut System,
        app: &mut MiniKv,
        conn: ClientConnId,
        line: &str,
    ) -> Result<Vec<u8>, OsError> {
        let one_way = sys.costs().net_rtt(line.len(), self.remote) / 2;
        sys.host()
            .with(|w| w.network_mut().send(conn, format!("{line}\n").as_bytes()))
            .map_err(|e| OsError::Io(e.to_string()))?;
        wire::response(sys, app, conn, one_way)
    }

    /// The §VII-C workload: `sets` SET commands over one connection.
    /// Returns the aggregate report (throughput, latency).
    ///
    /// # Errors
    ///
    /// Propagates system fail-stops.
    pub fn run_sets(
        &self,
        sys: &mut System,
        app: &mut MiniKv,
        sets: usize,
    ) -> Result<LoadReport, OsError> {
        self.run_sets_with_disruptions(sys, app, sets, &mut Schedule::default())
    }

    /// Like [`KvLoad::run_sets`], but fires `schedule` at its virtual times
    /// and reconnects when the server drops the connection (full reboot).
    /// Count-based so a faulted run issues exactly the SET stream of its
    /// fault-free twin; the caller keeps the schedule for liveness checks.
    ///
    /// # Errors
    ///
    /// Propagates system fail-stops.
    pub fn run_sets_with_disruptions(
        &self,
        sys: &mut System,
        app: &mut MiniKv,
        sets: usize,
        schedule: &mut Schedule,
    ) -> Result<LoadReport, OsError> {
        let mut report = LoadReport::default();
        let started = sys.clock().now();
        let mut conn = wire::connect(sys, app, KV_PORT)?;
        let value = "v".repeat(self.value_len);
        for i in 0..sets {
            schedule.fire_due(sys.clock().now().saturating_sub(started), sys, app)?;
            if wire::conn_dead(sys, conn) {
                report.reconnects += 1;
                conn = wire::connect(sys, app, KV_PORT)?;
            }
            let key = format!("{:0width$}", i % 10_000, width = self.key_len);
            let start = sys.clock().now();
            let resp = self.round_trip(sys, app, conn, &format!("SET {key} {value}"))?;
            report.records.push(RequestRecord {
                start,
                end: sys.clock().now(),
                ok: resp == b"+OK\n",
            });
        }
        // Quiesce: a disruption can come due during the final SET's
        // recovery window (recovery jumps the clock); fire it before
        // handing the schedule back.
        schedule.fire_due(sys.clock().now().saturating_sub(started), sys, app)?;
        report.duration = sys.clock().now().saturating_sub(started);
        Ok(report)
    }

    /// The Fig. 8 scenario: a background GET stream plus a once-per-interval
    /// latency probe, with `disruptions` firing mid-run (e.g. an injected
    /// 9PFS panic, or a full reboot). Returns the probe time series.
    ///
    /// # Errors
    ///
    /// Propagates system fail-stops.
    pub fn latency_probe(
        &self,
        sys: &mut System,
        app: &mut MiniKv,
        duration: Nanos,
        probe_interval: Nanos,
        background_per_interval: usize,
        disruptions: Vec<Disruption>,
    ) -> Result<Vec<LatencyPoint>, OsError> {
        let mut schedule = Schedule::new(disruptions);
        let started = sys.clock().now();
        let deadline = started + duration;
        let mut conn = wire::connect(sys, app, KV_PORT)?;
        let keys = app.len().max(1);
        let mut points = Vec::new();
        let mut next_probe = started;
        let mut counter = 0u64;

        while next_probe < deadline {
            sys.clock().advance_to(next_probe);
            schedule.fire_due(sys.clock().now().saturating_sub(started), sys, app)?;

            // Reconnect if the connection died (full reboot).
            if wire::conn_dead(sys, conn) {
                conn = wire::connect(sys, app, KV_PORT)?;
            }

            // Background request burst.
            for _ in 0..background_per_interval {
                counter += 1;
                let key = format!("key:{}", counter as usize % keys);
                let _ = self.round_trip(sys, app, conn, &format!("GET {key}"))?;
            }

            // The probe itself. Latency is measured from the *scheduled*
            // probe time: a probe due during an outage is answered only
            // after service resumes, which is the latency a client sees.
            let start = next_probe;
            let key = format!("key:{}", counter as usize % keys);
            let resp = self.round_trip(sys, app, conn, &format!("GET {key}"))?;
            let ok = resp.starts_with(b"$") && resp != b"$-1\n";
            points.push(LatencyPoint {
                at: start.saturating_sub(started),
                latency: sys.clock().now().saturating_sub(start),
                ok,
            });
            next_probe += probe_interval;
        }
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_apps::App;
    use vampos_core::{ComponentSet, InjectedFault, Mode};

    fn booted(mode: Mode, aof: bool) -> (MiniKv, System) {
        let mut sys = System::builder()
            .mode(mode)
            .components(ComponentSet::redis())
            .build()
            .unwrap();
        let mut app = MiniKv::new(aof);
        app.boot(&mut sys).unwrap();
        (app, sys)
    }

    #[test]
    fn set_workload_completes() {
        let (mut app, mut sys) = booted(Mode::vampos_das(), false);
        let report = KvLoad::default().run_sets(&mut sys, &mut app, 200).unwrap();
        assert_eq!(report.successes(), 200);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn aof_makes_sets_slower() {
        let (mut app_no, mut sys_no) = booted(Mode::unikraft(), false);
        let fast = KvLoad::default()
            .run_sets(&mut sys_no, &mut app_no, 100)
            .unwrap();
        let (mut app_aof, mut sys_aof) = booted(Mode::unikraft(), true);
        let slow = KvLoad::default()
            .run_sets(&mut sys_aof, &mut app_aof, 100)
            .unwrap();
        assert!(
            slow.mean_latency() * 2 > fast.mean_latency() * 3,
            "aof {} vs {}",
            slow.mean_latency(),
            fast.mean_latency()
        );
    }

    #[test]
    fn probe_stays_flat_across_component_recovery() {
        let (mut app, mut sys) = booted(Mode::vampos_das(), false);
        app.warm_up(&mut sys, 500, 3).unwrap();
        let points = KvLoad::default()
            .latency_probe(
                &mut sys,
                &mut app,
                Nanos::from_secs(4),
                Nanos::from_millis(200),
                3,
                vec![Disruption::inject(
                    Nanos::from_secs(2),
                    InjectedFault::panic_next("9pfs"),
                )],
            )
            .unwrap();
        // A fault was injected but never triggered by the GET path (the KV
        // store is in memory); force it through a stat and verify recovery.
        let _ = sys.os().stat("/x");
        assert!(points.iter().all(|p| p.ok));
        assert!(!sys.has_failed());
    }

    #[test]
    fn full_reboot_spikes_probe_latency() {
        let (mut app, mut sys) = booted(Mode::unikraft(), true);
        app.warm_up(&mut sys, 300, 3).unwrap();
        let points = KvLoad::default()
            .latency_probe(
                &mut sys,
                &mut app,
                Nanos::from_secs(4),
                Nanos::from_millis(200),
                0,
                vec![Disruption::full_reboot(Nanos::from_secs(2))],
            )
            .unwrap();
        let baseline = points[0].latency;
        let worst = points
            .iter()
            .map(|p| p.latency)
            .fold(Nanos::ZERO, Nanos::max);
        assert!(
            worst > baseline * 50,
            "worst {worst} vs baseline {baseline}"
        );
    }
}
