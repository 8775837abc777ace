//! One backend service replica: a booted unikernel running MiniKv or
//! MiniSql, booked against the same [`Occupancy`] model the front-tier
//! [`vampos_cluster::Instance`] uses, plus the idempotency table that
//! makes retried writes safe.
//!
//! # Occupancy model
//!
//! Requests and maintenance (rejuvenation, full reboot, spurious detector
//! reboots) book against the replica's [`Occupancy`], so a mesh hop and a
//! front hop decompose the same way into wire/queue/stall/service.
//!
//! # Idempotency keys
//!
//! The journey id is the idempotency key. A write op first consults
//! `applied`; a hit replays the recorded response with zero service time
//! (the server recognizes the duplicate), so a client retrying after an
//! abandoned-but-applied attempt — or after a mid-pipeline reboot of a
//! *later* stage — cannot double-apply. The table lives in app memory: a
//! full reboot clears it (the at-least-once window every real system has),
//! which is safe here because kv services a plan may full-reboot are
//! AOF-durable and `SET j:{j} v:{j}` is value-idempotent.

use std::collections::BTreeMap;

use vampos_apps::{kv::KV_PORT, App, MiniKv, MiniSql, QueryResult};
use vampos_cluster::{exchange, HopCost, Occupancy};
use vampos_core::{ComponentSet, System};
use vampos_host::HostHandle;
use vampos_sim::{derive_seed, Nanos, SimClock};
use vampos_ukernel::OsError;

use crate::mesh::BackendOpKind;
use crate::topology::{ServiceKind, ServiceSpec, StageOp, AUTH_KEYS, AUTH_VALUE_LEN};

/// Seed-space offset for backend instances, keeping them clear of the
/// front fleet's `derive_seed(seed, instance)` ids.
const BACKEND_SEED_BASE: u64 = 0x4000;

/// The application a replica runs.
enum BackendApp {
    Kv(MiniKv),
    Sql(MiniSql),
}

impl BackendApp {
    fn as_app(&mut self) -> &mut dyn App {
        match self {
            BackendApp::Kv(kv) => kv,
            BackendApp::Sql(sql) => sql,
        }
    }
}

/// The booked outcome of one backend attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopServe {
    /// When the client observes the response.
    pub end: Nanos,
    /// The response bytes (fed into the journey digest).
    pub response: Vec<u8>,
    /// The wire/queue/stall/service decomposition.
    pub cost: HopCost,
    /// Served from the idempotency table (duplicate write replay).
    pub cached: bool,
}

/// One backend service replica.
///
/// Fields drop in declaration order, and this order is deliberate. The
/// idempotency table and the application's store are tens of thousands of
/// small blocks, and glibc merges freed small blocks only when a large
/// block is freed or requested. Dropped before the system, whose teardown
/// frees large blocks, they are merged during teardown; dropped last, the
/// merge falls to the next boot's first large allocation.
pub struct BackendInstance {
    label: String,
    /// Idempotency table: journey id → the response its write produced.
    applied: BTreeMap<u64, Vec<u8>>,
    app: BackendApp,
    /// The simulated unikernel.
    pub sys: System,
    occ: Occupancy,
}

impl BackendInstance {
    /// Boots replica `replica` of service `svc_idx` on the shared clock.
    ///
    /// # Errors
    ///
    /// Propagates boot failures.
    pub fn boot(
        spec: &ServiceSpec,
        svc_idx: usize,
        replica: usize,
        seed: u64,
        clock: SimClock,
    ) -> Result<BackendInstance, OsError> {
        let host = HostHandle::new();
        let set = match spec.kind {
            ServiceKind::Kv => ComponentSet::redis(),
            ServiceKind::Sql => ComponentSet::sqlite(),
        };
        let mut sys = System::builder()
            .components(set)
            .host(host)
            .seed(derive_seed(
                seed,
                BACKEND_SEED_BASE + (svc_idx as u64) * 0x100 + replica as u64,
            ))
            .clock(clock)
            .build()?;
        let app = match spec.kind {
            ServiceKind::Kv => {
                let mut kv = MiniKv::new(spec.aof);
                kv.boot(&mut sys)?;
                if spec.warm {
                    kv.warm_up(&mut sys, AUTH_KEYS, AUTH_VALUE_LEN)?;
                }
                BackendApp::Kv(kv)
            }
            ServiceKind::Sql => {
                let mut sql = MiniSql::new();
                sql.boot(&mut sys)?;
                sql.execute(&mut sys, "CREATE TABLE events (id, tag)")?;
                BackendApp::Sql(sql)
            }
        };
        // Boot work (and warm-up) predates the run; the replica starts
        // idle with no downtime to drain around.
        let mut occ = Occupancy::default();
        occ.ack_downtime(&sys);
        Ok(BackendInstance {
            label: format!("{}-{}", spec.name, replica),
            sys,
            app,
            occ,
            applied: BTreeMap::new(),
        })
    }

    /// Display label (`kv-0`), also the span label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// End of the latest known recovery window.
    pub fn recovery_until(&self) -> Nanos {
        self.occ.recovery_until()
    }

    /// Whether the kv store currently holds `key` (oracle probe).
    pub fn kv_has(&self, key: &str) -> bool {
        match &self.app {
            BackendApp::Kv(kv) => kv.get_local(key).is_some(),
            BackendApp::Sql(_) => false,
        }
    }

    /// The application's logical-state digest (oracle probe).
    pub fn app_digest(&self) -> u64 {
        match &self.app {
            BackendApp::Kv(kv) => kv.state_digest(),
            BackendApp::Sql(sql) => sql.state_digest(),
        }
    }

    /// Rows in `events` whose `id` column equals `id` (oracle probe);
    /// `None` for kv replicas.
    pub fn sql_rows_with_id(&mut self, id: u64) -> Option<usize> {
        let stmt = format!("SELECT COUNT(*) FROM events WHERE id={id}");
        match &mut self.app {
            BackendApp::Sql(sql) => match sql.execute(&mut self.sys, &stmt) {
                Ok(QueryResult::Count(n)) => Some(n),
                _ => Some(0),
            },
            BackendApp::Kv(_) => None,
        }
    }

    /// Executes one attempt of `op` for `journey`, due at `due`, and books
    /// it against the FIFO. Write ops consult the idempotency table first:
    /// a duplicate replays the recorded response with zero service time.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered system failures (fail-stop).
    pub fn serve(
        &mut self,
        journey: u64,
        op: StageOp,
        due: Nanos,
        one_way: Nanos,
    ) -> Result<HopServe, OsError> {
        if op.is_write() {
            if let Some(response) = self.applied.get(&journey).cloned() {
                return Ok(self.book(due, one_way, Nanos::ZERO, response, true));
            }
        }
        let t0 = self.sys.clock().now();
        // The kv path advances the shared clock by the two flights; the
        // embedded sql path does not, so its wire time is charged in the
        // booking only.
        let (response, flights) = match &mut self.app {
            BackendApp::Kv(kv) => {
                let cmd = kv_command(op, journey);
                let conn = self.sys.host().with(|w| w.network_mut().connect(KV_PORT));
                kv.poll(&mut self.sys)?;
                let response = exchange(&mut self.sys, kv, conn, cmd.as_bytes(), one_way)?;
                let _ = self.sys.host().with(|w| w.network_mut().close(conn));
                (response, one_way + one_way)
            }
            BackendApp::Sql(sql) => {
                let stmt = sql_statement(op, journey);
                (encode_sql(&sql.execute(&mut self.sys, &stmt)?), Nanos::ZERO)
            }
        };
        self.occ.observe_detector(&self.sys, due);

        let delta = self.sys.clock().now().saturating_sub(t0);
        let service = delta.saturating_sub(flights);
        if op.is_write() {
            self.applied.insert(journey, response.clone());
        }
        Ok(self.book(due, one_way, service, response, false))
    }

    /// Books a served attempt against the FIFO.
    fn book(
        &mut self,
        due: Nanos,
        one_way: Nanos,
        service: Nanos,
        response: Vec<u8>,
        cached: bool,
    ) -> HopServe {
        let booked = self.occ.book(due, one_way, service);
        self.occ.occupy(booked.busy_from + service);
        HopServe {
            end: booked.end,
            response,
            cost: booked.cost,
            cached,
        }
    }

    /// Performs one maintenance op at grid time `at` and books its window.
    /// Component-level ops (rejuvenation, a spurious detector firing — the
    /// needless reboot the pipeline must ride out) preserve app memory; a
    /// full reboot crashes and re-boots the app (kv replays its AOF, sql
    /// reloads its database file) and loses the idempotency table with it.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered reboot failures.
    pub fn maintain(&mut self, kind: &BackendOpKind, at: Nanos) -> Result<(), OsError> {
        self.occ.maintain(&mut self.sys, at, |sys| match kind {
            BackendOpKind::Rejuvenate => sys.rejuvenate_all().map(drop),
            BackendOpKind::FullReboot => {
                self.applied.clear();
                self.app.as_app().full_reboot(sys)
            }
            BackendOpKind::SpuriousReboot { component } => {
                sys.spurious_detection(component).map(drop)
            }
        })
    }
}

/// The kv wire command for `op` on journey `journey`.
fn kv_command(op: StageOp, journey: u64) -> String {
    match op {
        StageOp::AuthCheck => format!("GET key:{}\n", journey as usize % AUTH_KEYS),
        StageOp::KvPut => format!("SET j:{journey} v:{journey}\n"),
        StageOp::KvGet => format!("GET j:{journey}\n"),
        StageOp::SqlInsert | StageOp::SqlCount => unreachable!("sql op routed to a kv replica"),
    }
}

/// The sql statement for `op` on journey `journey`.
fn sql_statement(op: StageOp, journey: u64) -> String {
    match op {
        StageOp::SqlInsert => format!("INSERT INTO events VALUES ({journey}, 'j{journey}')"),
        StageOp::SqlCount => format!("SELECT COUNT(*) FROM events WHERE id={journey}"),
        StageOp::AuthCheck | StageOp::KvPut | StageOp::KvGet => {
            unreachable!("kv op routed to a sql replica")
        }
    }
}

/// Canonical response encoding for sql results (digest input).
fn encode_sql(result: &QueryResult) -> Vec<u8> {
    match result {
        QueryResult::Done => b"done".to_vec(),
        QueryResult::Count(n) => format!("count:{n}").into_bytes(),
        QueryResult::Rows(rows) => format!("rows:{}", rows.len()).into_bytes(),
    }
}

/// The response a healthy replica would produce for `op` on `journey` —
/// what the acked-loss plant fabricates without applying anything.
pub fn expected_response(op: StageOp, journey: u64) -> Vec<u8> {
    match op {
        StageOp::AuthCheck => {
            let mut r = b"$".to_vec();
            r.extend(std::iter::repeat_n(b'v', AUTH_VALUE_LEN));
            r.push(b'\n');
            r
        }
        StageOp::KvPut => b"+OK\n".to_vec(),
        StageOp::KvGet => format!("$v:{journey}\n").into_bytes(),
        StageOp::SqlInsert => b"count:1".to_vec(),
        StageOp::SqlCount => b"count:1".to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MeshTopology;

    fn booted(svc: usize) -> BackendInstance {
        let t = MeshTopology::standard(1, true);
        BackendInstance::boot(&t.services[svc], svc, 0, 42, SimClock::default()).expect("boot")
    }

    const OW: Nanos = Nanos::from_micros(25);

    #[test]
    fn a_put_then_get_reads_the_journeys_own_write() {
        let mut kv = booted(1);
        let put = kv
            .serve(7, StageOp::KvPut, Nanos::from_millis(1), OW)
            .expect("put");
        assert_eq!(put.response, b"+OK\n");
        assert!(!put.cached);
        let get = kv.serve(7, StageOp::KvGet, put.end, OW).expect("get");
        assert_eq!(get.response, b"$v:7\n");
        assert!(kv.kv_has("j:7"));
    }

    #[test]
    fn a_retried_write_replays_from_the_idempotency_table() {
        let mut kv = booted(1);
        let first = kv
            .serve(3, StageOp::KvPut, Nanos::from_millis(1), OW)
            .expect("put");
        let retry = kv
            .serve(3, StageOp::KvPut, Nanos::from_millis(2), OW)
            .expect("retry");
        assert!(retry.cached);
        assert_eq!(retry.response, first.response);
        assert_eq!(retry.cost.service_ns, 0, "a duplicate costs no server work");
    }

    #[test]
    fn warmed_auth_reads_match_the_expected_response() {
        let mut auth = booted(0);
        let got = auth
            .serve(9, StageOp::AuthCheck, Nanos::from_millis(1), OW)
            .expect("check");
        assert_eq!(got.response, expected_response(StageOp::AuthCheck, 9));
    }

    #[test]
    fn sql_inserts_apply_and_survive_a_full_reboot() {
        let mut sql = booted(2);
        let ins = sql
            .serve(5, StageOp::SqlInsert, Nanos::from_millis(1), OW)
            .expect("insert");
        assert_eq!(ins.response, expected_response(StageOp::SqlInsert, 5));
        sql.maintain(&BackendOpKind::FullReboot, Nanos::from_millis(2))
            .expect("reboot");
        assert_eq!(sql.sql_rows_with_id(5), Some(1), "row lost across reboot");
    }

    #[test]
    fn aof_kv_state_survives_a_full_reboot_but_the_table_does_not() {
        let mut kv = booted(1);
        kv.serve(11, StageOp::KvPut, Nanos::from_millis(1), OW)
            .expect("put");
        kv.maintain(&BackendOpKind::FullReboot, Nanos::from_millis(2))
            .expect("reboot");
        assert!(kv.kv_has("j:11"), "AOF replay lost the key");
        // The idempotency table died with app memory: the retry re-applies
        // (value-idempotent) rather than replaying.
        let retry = kv
            .serve(11, StageOp::KvPut, Nanos::from_millis(60), OW)
            .expect("retry");
        assert!(!retry.cached);
    }

    #[test]
    fn maintenance_windows_queue_subsequent_requests() {
        let mut kv = booted(1);
        kv.maintain(&BackendOpKind::Rejuvenate, Nanos::from_millis(1))
            .expect("rejuvenate");
        let window = kv.recovery_until();
        assert!(window > Nanos::from_millis(1));
        let got = kv
            .serve(2, StageOp::KvPut, Nanos::from_millis(1), OW)
            .expect("put");
        assert!(got.end >= window, "request jumped the recovery window");
        assert!(got.cost.stall_ns > 0, "stall attribution missing");
    }
}
