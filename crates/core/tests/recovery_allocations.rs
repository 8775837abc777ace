//! A component reboot allocates only what it restores.
//!
//! A rejuvenation sweep restores each component's boot checkpoint and
//! replays its function log. Neither needs the heap: the arena's free lists
//! keep their capacity across reset and restore, replay serves the logged
//! entry's downcalls from the entry itself, and copying a component's boot
//! image over the live one reuses its box and allocates nothing for empty
//! fields. What is left is the values handed to the replayed component and
//! the outcome records, and nothing of it outlives the sweep. This binary
//! counts every allocation of a warm sweep on an nginx and a redis system,
//! of a long run of warm sweeps, and of one reboot of a component with an
//! empty log, in a test binary of its own so the counting allocator sees
//! nothing else.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

use vampos_core::{ComponentSet, Mode, System};
use vampos_host::{ClientConnId, HostHandle};
use vampos_oslib::OpenFlags;

/// Allocations a warm `rejuvenate_all` may make on the nginx system below:
/// what it measures. Rebuilding every arena's free-list B-trees on reset
/// and restore, copying each replayed entry's downcalls and return value,
/// giving every downtime window a `String` and every recovery a member
/// `Vec` cost 166; encoding LWIP's runtime data as a `Value` list instead
/// of moving it, 51; a `String` copy of each outcome's component name, 49;
/// a downtime window kept per reboot, whose `Vec` grows now and then, 41.
const NGINX_SWEEP: u64 = 39;

/// The same on the redis system below: 108 with the costs above, 30 with
/// the encoded runtime data, 28 with the copied names, 20 with the kept
/// windows.
const REDIS_SWEEP: u64 = 18;

/// One reboot of a component whose log is empty: nothing, now that the
/// outcome shares its slot's name instead of copying it (1 before, 4
/// before that).
const EMPTY_LOG_REBOOT: u64 = 0;

/// Warm sweeps that must each allocate what one does: recovery keeps
/// counters, not a record per reboot, so no buffer grows with their number.
const SWEEPS: u64 = 1_024;

const PORT: u16 = 80;
const REQUESTS: usize = 100;

/// A system of `set` with one accepted keep-alive connection on [`PORT`].
struct Served {
    sys: System,
    listen: u64,
    conn: u64,
    client: ClientConnId,
}

impl Served {
    fn boot(set: ComponentSet, host: HostHandle) -> Served {
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(set)
            .host(host)
            .build()
            .unwrap();
        let listen = sys.os().socket().unwrap();
        sys.os().bind(listen, PORT).unwrap();
        sys.os().listen(listen, 16).unwrap();
        let client = sys.host().with(|w| w.network_mut().connect(PORT));
        assert_eq!(sys.os().poll_ready(&[listen]).unwrap(), [listen]);
        let conn = sys.os().accept(listen).unwrap();
        Served {
            sys,
            listen,
            conn,
            client,
        }
    }

    /// One request: the client sends `request`, the server answers with
    /// `respond(sys, request)`, the client reads the answer.
    fn exchange(&mut self, request: &[u8], respond: impl FnOnce(&mut System) -> Vec<u8>) {
        let one_way = self.sys.costs().net_rtt(0, false) / 2;
        self.sys
            .host()
            .with(|w| w.network_mut().send(self.client, request))
            .unwrap();
        self.sys.clock().advance(one_way);
        let ready = self.sys.os().poll_ready(&[self.listen, self.conn]).unwrap();
        assert_eq!(ready, [self.conn]);
        assert_eq!(self.sys.os().recv(self.conn, 64 << 10).unwrap(), request);
        let response = respond(&mut self.sys);
        self.sys.os().send(self.conn, &response).unwrap();
        self.sys.clock().advance(one_way);
        let got = self
            .sys
            .host()
            .with(|w| w.network_mut().recv(self.client))
            .unwrap();
        assert_eq!(got, response);
    }

    /// Allocations of one `rejuvenate_all` after a first one has grown
    /// every buffer a sweep reuses.
    fn warm_sweep(&mut self) -> u64 {
        self.sys.rejuvenate_all().unwrap();
        allocations(|| {
            self.sys.rejuvenate_all().unwrap();
        })
    }
}

/// An nginx system after [`REQUESTS`] keep-alive GETs of an open file.
fn nginx() -> Served {
    let host = HostHandle::new();
    host.with(|w| w.ninep_mut().put_file("/www/index.html", &[b'x'; 180]));
    let mut served = Served::boot(ComponentSet::nginx(), host);
    let file = served
        .sys
        .os()
        .open("/www/index.html", OpenFlags::RDONLY)
        .unwrap();
    let size = served.sys.os().fstat(file).unwrap();
    for _ in 0..REQUESTS {
        served.exchange(b"GET /index.html HTTP/1.1\r\n\r\n", |sys| {
            let mut response = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
            response.extend(sys.os().pread(file, size, 0).unwrap());
            response
        });
    }
    served
}

/// A redis system after [`REQUESTS`] SETs on one connection.
fn redis() -> Served {
    let mut served = Served::boot(ComponentSet::redis(), HostHandle::new());
    for k in 0..REQUESTS {
        served.exchange(format!("SET key:{k} value\r\n").as_bytes(), |_| {
            b"+OK\r\n".to_vec()
        });
    }
    served
}

#[test]
fn a_warm_nginx_sweep_stays_under_its_allocation_ceiling() {
    let mut served = nginx();
    let sweep = served.warm_sweep();
    assert!(
        sweep <= NGINX_SWEEP,
        "{sweep} allocations per sweep, ceiling {NGINX_SWEEP}"
    );
}

#[test]
fn a_warm_redis_sweep_stays_under_its_allocation_ceiling() {
    let mut served = redis();
    let sweep = served.warm_sweep();
    assert!(
        sweep <= REDIS_SWEEP,
        "{sweep} allocations per sweep, ceiling {REDIS_SWEEP}"
    );
}

#[test]
fn warm_sweeps_keep_no_history() {
    let mut served = nginx();
    let sweep = served.warm_sweep();
    let sweeps = allocations(|| {
        for _ in 0..SWEEPS {
            served.sys.rejuvenate_all().unwrap();
        }
    });
    assert_eq!(
        sweeps,
        SWEEPS * sweep,
        "{SWEEPS} sweeps made {sweeps} allocations, one sweep {sweep}"
    );
}

#[test]
fn an_empty_log_reboot_stays_under_its_allocation_ceiling() {
    let mut served = nginx();
    assert_eq!(served.sys.log_len("user"), 0);
    served.sys.reboot_component("user").unwrap();
    let reboot = allocations(|| {
        served.sys.reboot_component("user").unwrap();
    });
    assert_eq!(
        reboot, EMPTY_LOG_REBOOT,
        "{reboot} allocations per reboot, ceiling {EMPTY_LOG_REBOOT}"
    );
}
