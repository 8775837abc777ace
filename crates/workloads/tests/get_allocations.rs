//! A keep-alive `GET` through `MiniHttpd` copies each payload once.
//!
//! The test counts every allocation one warm `GET` makes on an nginx
//! system served by `MiniHttpd`, through [`vampos_workloads::exchange`] —
//! the call `Fleet::dispatch` makes per request: the client's send, the
//! server's poll (readiness, receive, positional read of the cached file,
//! gathering write) and the client's receive. It lives in a test binary of
//! its own so the counting allocator sees nothing else.

use std::alloc::{GlobalAlloc, Layout, System as HostAllocator};
use std::cell::Cell;

use vampos_apps::httpd::HTTP_PORT;
use vampos_apps::{App, MiniHttpd};
use vampos_core::{ComponentSet, Mode, System};
use vampos_host::{ClientConnId, HostHandle};
use vampos_sim::Nanos;

thread_local! {
    /// Allocations made by this thread. The test harness runs each test on
    /// a thread of its own, so a test reads only its own count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the only addition
// is a bump of a const-initialised, destructor-free thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { HostAllocator.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above with this layout.
        unsafe { HostAllocator.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { HostAllocator.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const REQUEST: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: vampos\r\n\r\n";

/// Allocations one warmed keep-alive `GET` through `MiniHttpd` may make.
/// The loop below measures 34 (34.8 per `GET`); the parent commit, whose
/// forwarding layers re-copied every payload and whose `MiniHttpd`
/// formatted a path, a header and a request list per request, measures 56
/// (56.9).
const ALLOCATIONS_PER_GET: u64 = 34;

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
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..GETS {
        served.get();
    }
    let per_get = (ALLOCATIONS.with(Cell::get) - before) / GETS;
    assert_eq!(served.app.served(), 512 + GETS);
    assert!(
        per_get <= ALLOCATIONS_PER_GET,
        "{per_get} allocations per GET, ceiling {ALLOCATIONS_PER_GET}"
    );
}
