//! The message hop shares names instead of copying them, and passes each
//! payload on instead of copying it.
//!
//! The tests drive the steady-state request of the fleet workloads — a
//! keep-alive `GET` served from an open file: `poll_ready`, `recv`,
//! `pread`, `writev` — through `System::os()`, the way `MiniHttpd::poll`
//! does. One checks that the log records a hop leaves behind point at the
//! runtime's own name allocations; the other two count every allocation a
//! `GET` makes, untraced and traced, in their own test binary so the
//! counting allocator sees nothing else.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::collections::BTreeMap;

use vampos_core::{ComponentSet, Mode, System, TelemetrySink};
use vampos_host::{ClientConnId, HostHandle};
use vampos_oslib::OpenFlags;
use vampos_sim::Name;

const PORT: u16 = 80;
const REQUEST: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: vampos\r\n\r\n";

/// An nginx-shaped system with one accepted keep-alive connection and the
/// served document open.
struct Server {
    sys: System,
    listen: u64,
    conn: u64,
    file: u64,
    size: u64,
    client: ClientConnId,
}

impl Server {
    fn boot() -> Server {
        Server::boot_with(None)
    }

    fn boot_with(telemetry: Option<TelemetrySink>) -> Server {
        let host = HostHandle::new();
        host.with(|w| w.ninep_mut().put_file("/www/index.html", &[b'x'; 180]));
        let mut builder = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::nginx())
            .host(host);
        if let Some(sink) = telemetry {
            builder = builder.telemetry(sink);
        }
        let mut sys = builder.build().unwrap();
        let listen = sys.os().socket().unwrap();
        sys.os().bind(listen, PORT).unwrap();
        sys.os().listen(listen, 16).unwrap();
        let client = sys.host().with(|w| w.network_mut().connect(PORT));
        assert_eq!(sys.os().poll_ready(&[listen]).unwrap(), [listen]);
        let conn = sys.os().accept(listen).unwrap();
        let file = sys.os().open("/www/index.html", OpenFlags::RDONLY).unwrap();
        let size = sys.os().fstat(file).unwrap();
        Server {
            sys,
            listen,
            conn,
            file,
            size,
            client,
        }
    }

    fn get(&mut self) {
        let one_way = self.sys.costs().net_rtt(0, false) / 2;
        self.sys
            .host()
            .with(|w| w.network_mut().send(self.client, REQUEST))
            .unwrap();
        self.sys.clock().advance(one_way);
        let ready = self.sys.os().poll_ready(&[self.listen, self.conn]).unwrap();
        assert_eq!(ready, [self.conn]);
        let request = self.sys.os().recv(self.conn, 64 << 10).unwrap();
        assert_eq!(request, REQUEST);
        let body = self.sys.os().pread(self.file, self.size, 0).unwrap();
        let header = b"HTTP/1.1 200 OK\r\nContent-Length: 180\r\nConnection: keep-alive\r\n\r\n";
        self.sys.os().writev(self.conn, &[header, &body]).unwrap();
        self.sys.clock().advance(one_way);
        let response = self
            .sys
            .host()
            .with(|w| w.network_mut().recv(self.client))
            .unwrap();
        assert!(response.starts_with(b"HTTP/1.1 200"));
    }
}

#[test]
fn hop_records_share_the_runtimes_names() {
    let mut server = Server::boot();
    for _ in 0..8 {
        server.get();
    }
    let sys = &server.sys;

    // Every record of one interface function (a name in its target's
    // descriptor), from any request, carries one allocation; so does every
    // mention of one component, as log caller or as downcall target: a
    // slot's name, not a copy of it.
    fn shared<'a>(known: &mut Vec<&'a Name>, name: &'a Name) {
        match known.iter().find(|k| ***k == *name) {
            Some(first) => assert!(Name::ptr_eq(first, name), "{name} was copied"),
            None => known.push(name),
        }
    }
    let names = sys.component_names();
    let mut funcs: BTreeMap<&str, Vec<&Name>> = BTreeMap::new();
    let mut components: Vec<&Name> = Vec::new();
    let mut entries = 0;
    let mut downcalls = 0;
    for component in &names {
        for entry in sys.log_entries(component) {
            entries += 1;
            shared(funcs.entry(component).or_default(), &entry.func);
            shared(&mut components, &entry.caller);
            for down in &entry.downcalls {
                downcalls += 1;
                shared(funcs.entry(&down.target).or_default(), &down.func);
                shared(&mut components, &down.target);
            }
        }
    }
    assert!(entries > 8 && downcalls > 8, "{entries} / {downcalls}");
    assert!(funcs["vfs"].iter().any(|f| **f == "pread"));
}

/// Allocations one warmed keep-alive `GET` may make. The loop below
/// measures 33 (33.3 per `GET`). While the function log kept per-session
/// indices and collected its tombstones it was 34 (34.8); while the
/// forwarding layers (`Os::pread`, VFS `READ`/`PREAD`/`WRITEV`, 9PFS, LWIP,
/// NETDEV, VIRTIO) each re-copied the payload they passed on, 48 (48.9).
/// Before trace details were formatted only for a sink it was 51, and
/// before names were shared on the hop, 138.
const ALLOCATIONS_PER_GET: u64 = 33;

/// Allocations one warmed keep-alive `GET` may make with a telemetry sink
/// attached: as many as untraced, because a stored span or instant
/// allocates nothing once its deque is full. The loop below measures 33
/// (33.3 per `GET`). While the function log kept per-session indices it was
/// 34 (34.7), while every `virtio_kick` and `9p_rpc` instant built its own
/// detail list 46 (46.8), before payloads were forwarded uncopied 60, and
/// before number attributes stayed numbers and call spans shared their
/// `caller` list 80.
const TRACED_ALLOCATIONS_PER_GET: u64 = 33;

/// Allocations per `GET` of `server` once every lazily grown buffer —
/// the telemetry hub's bounded record deques included — is full.
fn allocations_per_warm_get(server: &mut Server, warm_up: u64) -> u64 {
    for _ in 0..warm_up {
        server.get();
    }
    const GETS: u64 = 256;
    let allocations = counting_alloc::allocations(|| {
        for _ in 0..GETS {
            server.get();
        }
    });
    allocations / GETS
}

#[test]
fn a_warm_get_stays_under_its_allocation_ceiling() {
    let per_get = allocations_per_warm_get(&mut Server::boot(), 512);
    assert!(
        per_get <= ALLOCATIONS_PER_GET,
        "{per_get} allocations per GET, ceiling {ALLOCATIONS_PER_GET}"
    );
}

#[test]
fn a_traced_warm_get_stays_under_its_allocation_ceiling() {
    let sink = TelemetrySink::new();
    let mut server = Server::boot_with(Some(sink.clone()));
    let per_get = allocations_per_warm_get(&mut server, 16_384);
    // The hub's span and instant deques are at their bound: from here on a
    // record evicts one, and neither deque grows again.
    sink.with(|hub| {
        assert!(hub.evicted() > 0);
        assert_eq!(hub.spans().count(), hub.instants().count());
    });
    assert!(
        per_get <= TRACED_ALLOCATIONS_PER_GET,
        "{per_get} allocations per traced GET, ceiling {TRACED_ALLOCATIONS_PER_GET}"
    );
}
