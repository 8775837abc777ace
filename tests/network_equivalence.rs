//! Property tests at the network level: LWIP's runtime-data extraction must
//! keep arbitrary TCP traffic flowing across component reboots.
//!
//! Random interleavings of client actions (connect / send / close) against
//! the Echo server, with LWIP/NETDEV/VFS reboots injected between steps.
//! Invariants: every sent payload is echoed back exactly, the external peer
//! never observes a sequence violation (which would mean the restored
//! connection state was wrong), and nothing fail-stops.

use proptest::prelude::*;

use vampos::apps::{App, Echo};
use vampos::prelude::*;
use vampos_core::VampConfig;
use vampos_host::{ClientConnId, ClientConnState};

#[derive(Debug, Clone)]
enum NetOp {
    Connect,
    Send { conn_slot: u8, len: u8 },
    CloseClient { conn_slot: u8 },
    Reboot(u8),
}

fn net_op() -> impl Strategy<Value = NetOp> {
    prop_oneof![
        2 => Just(NetOp::Connect),
        5 => (0u8..8, 1u8..100).prop_map(|(conn_slot, len)| NetOp::Send { conn_slot, len }),
        1 => (0u8..8).prop_map(|conn_slot| NetOp::CloseClient { conn_slot }),
        2 => (0u8..3).prop_map(NetOp::Reboot),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn echo_traffic_survives_arbitrary_reboot_interleavings(
        ops in proptest::collection::vec(net_op(), 1..40),
    ) {
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::echo())
            .seed(11)
            .build()
            .unwrap();
        let mut app = Echo::new();
        app.boot(&mut sys).unwrap();

        let mut conns = Vec::new();
        let mut echoed = 0usize;
        for op in &ops {
            match op {
                NetOp::Connect => {
                    let conn = sys
                        .host()
                        .with(|w| w.network_mut().connect(vampos::apps::echo::ECHO_PORT));
                    app.poll(&mut sys).unwrap();
                    conns.push(conn);
                }
                NetOp::Send { conn_slot, len } => {
                    if conns.is_empty() {
                        continue;
                    }
                    let conn = conns[*conn_slot as usize % conns.len()];
                    let alive = matches!(
                        sys.host().with(|w| w.network().state(conn)),
                        Ok(ClientConnState::Established)
                    );
                    if !alive {
                        continue;
                    }
                    let payload = vec![b'a' + (*len % 26); *len as usize];
                    sys.host()
                        .with(|w| w.network_mut().send(conn, &payload))
                        .unwrap();
                    app.poll(&mut sys).unwrap();
                    let back = sys.host().with(|w| w.network_mut().recv(conn)).unwrap();
                    prop_assert_eq!(&back, &payload, "echo mismatch after {:?}", op);
                    echoed += 1;
                }
                NetOp::CloseClient { conn_slot } => {
                    if conns.is_empty() {
                        continue;
                    }
                    let conn = conns[*conn_slot as usize % conns.len()];
                    let _ = sys.host().with(|w| w.network_mut().close(conn));
                    app.poll(&mut sys).unwrap();
                }
                NetOp::Reboot(which) => {
                    let component = ["lwip", "netdev", "vfs"][*which as usize % 3];
                    sys.reboot_component(component).unwrap();
                }
            }
        }
        // The peer never saw inconsistent sequence numbers from the guest.
        prop_assert_eq!(sys.host().with(|w| w.network().seq_errors()), 0);
        prop_assert!(!sys.has_failed());
        let _ = echoed;
    }
}

/// An nginx-shaped system listening on 8080 with one accepted connection:
/// the system, the accepted fd and the peer's end.
fn accepted(mode: Mode) -> (System, u64, u64, ClientConnId) {
    let mut sys = System::builder()
        .mode(mode)
        .components(ComponentSet::nginx())
        .build()
        .unwrap();
    let listen = sys.os().socket().unwrap();
    sys.os().bind(listen, 8080).unwrap();
    sys.os().listen(listen, 16).unwrap();
    let client = sys.host().with(|w| w.network_mut().connect(8080));
    assert_eq!(sys.os().poll_ready(&[listen]).unwrap(), [listen]);
    let conn = sys.os().accept(listen).unwrap();
    (sys, listen, conn, client)
}

/// Accepted connections are runtime data, restored after the log replays;
/// the logged calls made on them must still replay.
#[test]
fn logged_calls_on_an_accepted_socket_replay_across_an_lwip_reboot() {
    let (mut sys, _, conn, client) = accepted(Mode::vampos_das());
    sys.os().setsockopt(conn, 7, 99).unwrap();
    sys.reboot_component("lwip").unwrap();
    assert_eq!(sys.os().getsockopt(conn, 7).unwrap(), 99);
    sys.host()
        .with(|w| w.network_mut().send(client, b"ping"))
        .unwrap();
    assert_eq!(sys.os().poll_ready(&[conn]).unwrap(), [conn]);
    assert_eq!(sys.os().recv(conn, 16).unwrap(), b"ping");

    let (mut sys, _, conn, client) = accepted(Mode::vampos_das());
    sys.os().shutdown(conn, 1).unwrap();
    sys.reboot_component("lwip").unwrap();
    assert_eq!(sys.os().shutdown(conn, 1), Err(OsError::NotConnected));
    assert_eq!(
        sys.host().with(|w| w.network().state(client)),
        Ok(ClientConnState::Closed)
    );
    assert_eq!(sys.host().with(|w| w.network().seq_errors()), 0);
    assert!(!sys.has_failed());
}

/// Without log shrinking a closed connection's calls stay in the log, and
/// the next accepted connection takes the closed one's socket id: each
/// replayed call acts on the socket it named when it ran.
#[test]
fn a_reused_accepted_socket_id_replays_without_log_shrinking() {
    let mode = || {
        Mode::VampOs(VampConfig {
            log_shrinking: false,
            ..VampConfig::default()
        })
    };
    let (mut sys, _, conn, _) = accepted(mode());
    sys.os().close(conn).unwrap();
    sys.reboot_component("lwip").unwrap();
    assert!(!sys.has_failed());

    let (mut sys, listen, first, _) = accepted(mode());
    sys.os().setsockopt(first, 7, 1).unwrap();
    sys.os().close(first).unwrap();
    let _client = sys.host().with(|w| w.network_mut().connect(8080));
    assert_eq!(sys.os().poll_ready(&[listen]).unwrap(), [listen]);
    let second = sys.os().accept(listen).unwrap();
    sys.os().setsockopt(second, 7, 2).unwrap();
    sys.reboot_component("lwip").unwrap();
    assert_eq!(sys.os().getsockopt(second, 7).unwrap(), 2);
    assert!(!sys.has_failed());
}
