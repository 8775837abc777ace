//! A keep-alive `GET` through `MiniHttpd` copies each payload once.
//!
//! The test counts every allocation one warm `GET` makes on an nginx
//! system served by `MiniHttpd`, through [`vampos_workloads::exchange`] —
//! the call `Fleet::dispatch` makes per request: the client's send, the
//! server's poll (readiness, receive, positional read of the cached file,
//! gathering write) and the client's receive. It lives in a test binary of
//! its own so the counting allocator sees nothing else.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use vampos_apps::httpd::HTTP_PORT;
use vampos_apps::{App, MiniHttpd};
use vampos_core::{ComponentSet, Mode, System};
use vampos_host::{ClientConnId, HostHandle};
use vampos_sim::Nanos;

const REQUEST: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: vampos\r\n\r\n";

/// Allocations one warmed keep-alive `GET` through `MiniHttpd` may make.
/// The loop below measures 33 (33.3 per `GET`). While the function log
/// kept per-session indices and collected its tombstones it was 34 (34.8),
/// and while the forwarding layers re-copied every payload and `MiniHttpd`
/// formatted a path, a header and a request list per request, 56 (56.9).
const ALLOCATIONS_PER_GET: u64 = 33;

/// An nginx system serving `MiniHttpd`, with one client connected.
struct Served {
    sys: System,
    app: MiniHttpd,
    conn: ClientConnId,
    one_way: Nanos,
}

impl Served {
    fn boot() -> Served {
        let host = HostHandle::new();
        host.with(|w| w.ninep_mut().put_file("/www/index.html", &[b'x'; 180]));
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::nginx())
            .host(host)
            .build()
            .unwrap();
        let mut app = MiniHttpd::default();
        app.boot(&mut sys).unwrap();
        let conn = vampos_workloads::connect(&mut sys, &mut app, HTTP_PORT).unwrap();
        let one_way = sys.costs().net_rtt(0, false) / 2;
        Served {
            sys,
            app,
            conn,
            one_way,
        }
    }

    fn get(&mut self) {
        let response = vampos_workloads::exchange(
            &mut self.sys,
            &mut self.app,
            self.conn,
            REQUEST,
            self.one_way,
        )
        .unwrap();
        assert!(response.starts_with(b"HTTP/1.1 200"));
    }
}

#[test]
fn a_warm_get_through_minihttpd_stays_under_its_allocation_ceiling() {
    let mut served = Served::boot();
    for _ in 0..512 {
        served.get();
    }
    const GETS: u64 = 256;
    let allocations = counting_alloc::allocations(|| {
        for _ in 0..GETS {
            served.get();
        }
    });
    let per_get = allocations / GETS;
    assert_eq!(served.app.served(), 512 + GETS);
    assert!(
        per_get <= ALLOCATIONS_PER_GET,
        "{per_get} allocations per GET, ceiling {ALLOCATIONS_PER_GET}"
    );
}
