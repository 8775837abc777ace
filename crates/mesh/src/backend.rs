//! One backend service replica: a [`vampos_cluster::Replica`] running
//! MiniKv or MiniSql, plus the idempotency table that makes retried writes
//! safe. Requests and maintenance book as on a front-tier instance, so a
//! mesh hop and a front hop decompose the same way into
//! wire/queue/stall/service.
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
use std::rc::Rc;

use vampos_apps::{kv::KV_PORT, App, MiniKv, MiniSql, QueryResult};
use vampos_cluster::{HopCost, Replica};
use vampos_core::{ComponentSet, Image, Mode, System};
use vampos_host::HostHandle;
use vampos_sim::{derive_seed, Nanos, SimClock};
use vampos_ukernel::OsError;
use vampos_workloads as wire;

use crate::topology::{ServiceKind, ServiceSpec, StageOp, AUTH_KEYS, AUTH_VALUE_LEN};

/// Seed-space offset for backend instances, keeping them clear of the
/// front fleet's `derive_seed(seed, instance)` ids.
const BACKEND_SEED_BASE: u64 = 0x4000;

/// One backend service replica.
pub type BackendInstance = Replica<BackendApp>;

/// The application a backend replica runs: a kv or sql store, plus the
/// idempotency table in front of it.
pub struct BackendApp {
    /// Idempotency table: journey id → the response its write produced.
    applied: BTreeMap<u64, Vec<u8>>,
    store: Store,
    /// The kv store persists through an AOF.
    aof: bool,
}

enum Store {
    Kv(MiniKv),
    Sql(MiniSql),
}

impl BackendApp {
    /// A store of `kind` with an empty idempotency table, not yet booted.
    pub fn new(kind: ServiceKind, aof: bool) -> BackendApp {
        let store = match kind {
            ServiceKind::Kv => Store::Kv(MiniKv::new(aof)),
            ServiceKind::Sql => Store::Sql(MiniSql::new()),
        };
        BackendApp {
            applied: BTreeMap::new(),
            store,
            aof,
        }
    }

    fn store(&mut self) -> &mut dyn App {
        match &mut self.store {
            Store::Kv(kv) => kv,
            Store::Sql(sql) => sql,
        }
    }

    /// Whether the store holds the write `op` made for `journey` (oracle
    /// probe): the kv key, or at least one sql row. `false` for an op
    /// that writes nothing to this store.
    pub fn holds(&mut self, sys: &mut System, op: StageOp, journey: u64) -> bool {
        match (&mut self.store, op) {
            (Store::Kv(kv), StageOp::KvPut) => kv.get_local(&format!("j:{journey}")).is_some(),
            (Store::Sql(sql), StageOp::SqlInsert) => {
                let stmt = sql_statement(StageOp::SqlCount, journey);
                matches!(sql.execute(sys, &stmt), Ok(QueryResult::Count(n)) if n >= 1)
            }
            _ => false,
        }
    }
}

impl App for BackendApp {
    fn name(&self) -> &'static str {
        match &self.store {
            Store::Kv(kv) => kv.name(),
            Store::Sql(sql) => sql.name(),
        }
    }

    fn boot(&mut self, sys: &mut System) -> Result<(), OsError> {
        self.store().boot(sys)
    }

    fn crash(&mut self) {
        // The table and the store's memory die with the VM; the kv store
        // replays its AOF, the sql store reloads its database file.
        let kind = match self.store {
            Store::Kv(_) => ServiceKind::Kv,
            Store::Sql(_) => ServiceKind::Sql,
        };
        *self = BackendApp::new(kind, self.aof);
    }

    fn poll(&mut self, sys: &mut System) -> Result<usize, OsError> {
        self.store().poll(sys)
    }

    /// The store's digest; the idempotency table is a cache of it.
    fn state_digest(&self) -> u64 {
        match &self.store {
            Store::Kv(kv) => kv.state_digest(),
            Store::Sql(sql) => sql.state_digest(),
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

/// The image every replica of a `kind` service boots from: Redis's
/// component set for kv, SQLite's for sql.
///
/// # Errors
///
/// Propagates a failure to build the image.
pub fn image(kind: ServiceKind) -> Result<Rc<Image>, OsError> {
    let set = match kind {
        ServiceKind::Kv => ComponentSet::redis(),
        ServiceKind::Sql => ComponentSet::sqlite(),
    };
    Ok(Rc::new(Image::new(set, Mode::vampos_das())?))
}

/// Boots replica `replica` of service `svc_idx` from `image` (the
/// service kind's [`image`]) on the shared clock. Boot work (and warm-up)
/// predates the run: the replica starts idle with no downtime to drain
/// around.
///
/// # Errors
///
/// Propagates boot failures.
pub fn boot(
    spec: &ServiceSpec,
    svc_idx: usize,
    replica: usize,
    seed: u64,
    image: &Rc<Image>,
    clock: SimClock,
) -> Result<BackendInstance, OsError> {
    let builder = System::builder()
        .image(Rc::clone(image))
        .host(HostHandle::new())
        .seed(derive_seed(
            seed,
            BACKEND_SEED_BASE + (svc_idx as u64) * 0x100 + replica as u64,
        ))
        .clock(clock);
    let label = format!("{}-{}", spec.name, replica);
    let mut inst = Replica::start(label, builder, BackendApp::new(spec.kind, spec.aof))?;
    match &mut inst.app.store {
        Store::Kv(kv) if spec.warm => kv.warm_up(&mut inst.sys, AUTH_KEYS, AUTH_VALUE_LEN)?,
        Store::Kv(_) => {}
        Store::Sql(sql) => {
            sql.execute(&mut inst.sys, "CREATE TABLE events (id, tag)")?;
        }
    }
    inst.ack_downtime();
    Ok(inst)
}

/// Executes one attempt of `op` for `journey` on `inst`, due at `due`, and
/// books it against the FIFO. Write ops consult the idempotency table
/// first: a duplicate replays the recorded response with zero service
/// time.
///
/// # Errors
///
/// Propagates unrecovered system failures (fail-stop).
pub fn serve(
    inst: &mut BackendInstance,
    journey: u64,
    op: StageOp,
    due: Nanos,
    one_way: Nanos,
) -> Result<HopServe, OsError> {
    if op.is_write() {
        if let Some(response) = inst.app.applied.get(&journey).cloned() {
            let booked = inst.book(due, one_way, Nanos::ZERO);
            inst.occupy(&booked);
            return Ok(HopServe {
                end: booked.end,
                response,
                cost: booked.cost,
                cached: true,
            });
        }
    }
    let t0 = inst.sys.clock().now();
    // The kv path advances the shared clock by the two flights; the
    // embedded sql path does not, so its wire time is charged in the
    // booking only.
    let (response, flights) = match &mut inst.app.store {
        Store::Sql(sql) => {
            let stmt = sql_statement(op, journey);
            (encode_sql(&sql.execute(&mut inst.sys, &stmt)?), Nanos::ZERO)
        }
        Store::Kv(_) => {
            let cmd = kv_command(op, journey);
            let conn = wire::connect(&mut inst.sys, &mut inst.app, KV_PORT)?;
            let response =
                wire::exchange(&mut inst.sys, &mut inst.app, conn, cmd.as_bytes(), one_way)?;
            inst.close(conn);
            (response, one_way + one_way)
        }
    };
    let booked = inst.book_work(t0, due, one_way, flights);
    if op.is_write() {
        inst.app.applied.insert(journey, response.clone());
    }
    inst.occupy(&booked);
    Ok(HopServe {
        end: booked.end,
        response,
        cost: booked.cost,
        cached: false,
    })
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
    use crate::mesh::BackendOpKind;
    use crate::topology::MeshTopology;

    fn booted(svc: usize) -> BackendInstance {
        let t = MeshTopology::standard(1, true);
        let spec = &t.services[svc];
        let image = image(spec.kind).expect("image");
        boot(spec, svc, 0, 42, &image, SimClock::default()).expect("boot")
    }

    const OW: Nanos = Nanos::from_micros(25);

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    #[test]
    fn a_put_then_get_reads_the_journeys_own_write() {
        let mut kv = booted(1);
        let put = serve(&mut kv, 7, StageOp::KvPut, ms(1), OW).expect("put");
        assert_eq!(put.response, b"+OK\n");
        assert!(!put.cached);
        let get = serve(&mut kv, 7, StageOp::KvGet, put.end, OW).expect("get");
        assert_eq!(get.response, b"$v:7\n");
        assert!(kv.app.holds(&mut kv.sys, StageOp::KvPut, 7));
    }

    #[test]
    fn a_retried_write_replays_from_the_idempotency_table() {
        let mut kv = booted(1);
        let first = serve(&mut kv, 3, StageOp::KvPut, ms(1), OW).expect("put");
        let retry = serve(&mut kv, 3, StageOp::KvPut, ms(2), OW).expect("retry");
        assert!(retry.cached);
        assert_eq!(retry.response, first.response);
        assert_eq!(retry.cost.service_ns, 0, "a duplicate costs no server work");
    }

    #[test]
    fn warmed_auth_reads_match_the_expected_response() {
        let mut auth = booted(0);
        let got = serve(&mut auth, 9, StageOp::AuthCheck, ms(1), OW).expect("check");
        assert_eq!(got.response, expected_response(StageOp::AuthCheck, 9));
    }

    #[test]
    fn sql_inserts_apply_and_survive_a_full_reboot() {
        let mut sql = booted(2);
        let ins = serve(&mut sql, 5, StageOp::SqlInsert, ms(1), OW).expect("insert");
        assert_eq!(ins.response, expected_response(StageOp::SqlInsert, 5));
        BackendOpKind::FullReboot
            .apply(&mut sql, ms(2))
            .expect("reboot");
        let Store::Sql(db) = &mut sql.app.store else {
            panic!("not a sql replica");
        };
        let count = db.execute(&mut sql.sys, &sql_statement(StageOp::SqlCount, 5));
        assert_eq!(count, Ok(QueryResult::Count(1)), "row lost across reboot");
    }

    #[test]
    fn aof_kv_state_survives_a_full_reboot_but_the_table_does_not() {
        let mut kv = booted(1);
        serve(&mut kv, 11, StageOp::KvPut, ms(1), OW).expect("put");
        BackendOpKind::FullReboot
            .apply(&mut kv, ms(2))
            .expect("reboot");
        let kept = kv.app.holds(&mut kv.sys, StageOp::KvPut, 11);
        assert!(kept, "AOF replay lost the key");
        // The idempotency table died with app memory: the retry re-applies
        // (value-idempotent) rather than replaying.
        let retry = serve(&mut kv, 11, StageOp::KvPut, ms(60), OW).expect("retry");
        assert!(!retry.cached);
    }

    #[test]
    fn maintenance_windows_queue_subsequent_requests() {
        let mut kv = booted(1);
        BackendOpKind::Rejuvenate
            .apply(&mut kv, ms(1))
            .expect("rejuvenate");
        let window = kv.recovery_until();
        assert!(window > ms(1));
        let got = serve(&mut kv, 2, StageOp::KvPut, ms(1), OW).expect("put");
        assert!(got.end >= window, "request jumped the recovery window");
        assert!(got.cost.stall_ns > 0, "stall attribution missing");
    }
}
