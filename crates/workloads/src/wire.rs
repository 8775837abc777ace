//! The client side of one connection: open it, notice the server dropped
//! it, and exchange one request for one response. Every load generator and
//! the fleet's instances (`vampos-cluster`) go through here.

use vampos_apps::App;
use vampos_core::System;
use vampos_host::{ClientConnId, ClientConnState};
use vampos_sim::Nanos;
use vampos_ukernel::OsError;

/// Opens a client connection to `port` and lets the server complete the
/// handshake. Like every function here that polls `app`, it propagates an
/// unrecovered failure from that poll.
pub fn connect<A: App>(sys: &mut System, app: &mut A, port: u16) -> Result<ClientConnId, OsError> {
    let conn = sys.host().with(|w| w.network_mut().connect(port));
    app.poll(sys)?;
    Ok(conn)
}

/// Whether the server side dropped `conn` (e.g. across a full reboot).
pub fn conn_dead(sys: &System, conn: ClientConnId) -> bool {
    !matches!(
        sys.host().with(|w| w.network().state(conn)),
        Ok(ClientConnState::Established)
    )
}

/// The second half of an exchange whose request is already on the wire:
/// `app` serves it half a round trip later and the response is collected
/// after the other half.
pub(crate) fn response<A: App>(
    sys: &mut System,
    app: &mut A,
    conn: ClientConnId,
    one_way: Nanos,
) -> Result<Vec<u8>, OsError> {
    sys.clock().advance(one_way);
    app.poll(sys)?;
    sys.clock().advance(one_way);
    Ok(sys
        .host()
        .with(|w| w.network_mut().recv(conn))
        .unwrap_or_default())
}

/// One request/response exchange over `conn` against `app`. An empty
/// response means the send itself failed (dead connection): that request
/// failed, the drive goes on. (The echo and kv drives reconnect before
/// every request and fail on a refused send instead; they send for
/// themselves and share [`response`].)
pub fn exchange<A: App>(
    sys: &mut System,
    app: &mut A,
    conn: ClientConnId,
    request: &[u8],
    one_way: Nanos,
) -> Result<Vec<u8>, OsError> {
    if sys
        .host()
        .with(|w| w.network_mut().send(conn, request))
        .is_err()
    {
        return Ok(Vec::new());
    }
    response(sys, app, conn, one_way)
}
