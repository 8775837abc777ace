//! A repeated instant detail allocates nothing.
//!
//! The virtio driver kicks the host with one of a handful of details
//! (`9p 16B`, `net-tx 284B`, `net-rx-batch`, ...), alternating from call
//! to call. The hub formats each detail into a buffer it reuses and finds
//! the attribute list an earlier kick built for the same text, so once the
//! instant deque is at its bound a kick costs no allocation at all. This
//! binary counts allocations, in a test binary of its own so the counting
//! allocator sees nothing else.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use vampos_sim::{Name, Nanos};
use vampos_telemetry::{Collector, TelemetryHub};

/// What one virtio kick of a traced `GET` passes the hub: the request's
/// 9P payload, a transmitted frame, received frames.
fn kicks(hub: &mut TelemetryHub, virtio: &Name, round: u64) {
    let at = Nanos::from_nanos(round);
    let (payload, frame) = (16u64, 284u64);
    hub.instant(virtio, "virtio_kick", format_args!("9p {payload}B"), at);
    hub.instant(virtio, "virtio_kick", format_args!("net-tx {frame}B"), at);
    hub.instant(virtio, "virtio_kick", format_args!("net-rx"), at);
    hub.instant(virtio, "virtio_kick", format_args!("net-rx-batch"), at);
    hub.instant(
        virtio,
        "virtio_kick",
        format_args!("9p {}B", payload * 256),
        at,
    );
}

#[test]
fn a_repeated_virtio_kick_detail_allocates_nothing() {
    let mut hub = TelemetryHub::new();
    let virtio = Name::from("virtio");
    // Fill the instant deque to its bound: from here on a kick evicts the
    // oldest instant, and the deque never grows again.
    let mut round = 0;
    while hub.evicted() == 0 {
        kicks(&mut hub, &virtio, round);
        round += 1;
    }
    let n = counting_alloc::allocations(|| {
        for _ in 0..1_000 {
            kicks(&mut hub, &virtio, round);
            round += 1;
        }
    });
    assert_eq!(n, 0, "5,000 repeated virtio kicks allocated {n} times");
    let last = hub.instants().last().expect("instants kept");
    assert_eq!(last.attrs[0].1.text(), Some("9p 4096B"));
}
