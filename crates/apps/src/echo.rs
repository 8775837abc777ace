//! Echo: the simplest evaluation server (§VI) — every received byte is sent
//! straight back, connections are closed when the peer closes.

use vampos_core::System;
use vampos_ukernel::OsError;

use crate::App;

/// The port Echo listens on.
pub const ECHO_PORT: u16 = 7;

/// The Echo server.
#[derive(Debug, Default)]
pub struct Echo {
    listen_fd: Option<u64>,
    conns: Vec<u64>,
    served: u64,
    bytes_echoed: u64,
    /// Scratch kept between polls (the readiness query, and the table the
    /// surviving connections are collected into), so a steady-state poll
    /// allocates nothing of its own.
    watched: Vec<u64>,
    still_open: Vec<u64>,
}

impl Echo {
    /// Creates an unbooted Echo server.
    pub fn new() -> Self {
        Echo::default()
    }

    /// Requests served since boot.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Bytes echoed since boot.
    pub fn bytes_echoed(&self) -> u64 {
        self.bytes_echoed
    }

    /// Currently open client connections.
    pub fn open_connections(&self) -> usize {
        self.conns.len()
    }
}

impl App for Echo {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn boot(&mut self, sys: &mut System) -> Result<(), OsError> {
        self.conns.clear();
        let fd = sys.os().socket()?;
        sys.os().bind(fd, ECHO_PORT)?;
        sys.os().listen(fd, 64)?;
        self.listen_fd = Some(fd);
        Ok(())
    }

    fn crash(&mut self) {
        *self = Echo::default();
    }

    fn poll(&mut self, sys: &mut System) -> Result<usize, OsError> {
        let listen_fd = self.listen_fd.ok_or(OsError::NotConnected)?;
        // One readiness query covers the listener and every connection.
        self.watched.clear();
        self.watched.push(listen_fd);
        self.watched.extend(&self.conns);
        let ready = sys.os().poll_ready(&self.watched)?;
        if ready.contains(&listen_fd) {
            loop {
                match sys.os().accept(listen_fd) {
                    Ok(conn) => self.conns.push(conn),
                    Err(OsError::WouldBlock) => break,
                    Err(e) => return Err(e),
                }
            }
        }
        // Echo pending data; drop closed connections. The table is taken
        // for the walk, so a failed call leaves it empty.
        let mut served = 0usize;
        let mut conns = std::mem::take(&mut self.conns);
        let still_open = &mut self.still_open;
        still_open.clear();
        for &conn in &conns {
            if !ready.contains(&conn) {
                still_open.push(conn);
                continue;
            }
            match sys.os().recv(conn, 64 << 10) {
                Ok(data) if data.is_empty() => {
                    // Peer closed: orderly shutdown on our side too.
                    sys.os().close(conn)?;
                }
                Ok(data) => {
                    self.bytes_echoed += data.len() as u64;
                    sys.os().send(conn, &data)?;
                    served += 1;
                    still_open.push(conn);
                }
                Err(OsError::WouldBlock) => still_open.push(conn),
                Err(OsError::ConnReset) => {
                    let _ = sys.os().close(conn);
                }
                Err(e) => return Err(e),
            }
        }
        conns.clear();
        self.conns = std::mem::replace(&mut self.still_open, conns);
        self.served += served as u64;
        Ok(served)
    }

    fn state_digest(&self) -> u64 {
        // Echo's only logical state is what it has done: open connection
        // fds are incidental and excluded.
        vampos_ukernel::digest::DigestBuilder::new()
            .u64(self.served)
            .u64(self.bytes_echoed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_core::{ComponentSet, Mode, System};

    fn booted() -> (Echo, System) {
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::echo())
            .build()
            .unwrap();
        let mut app = Echo::new();
        app.boot(&mut sys).unwrap();
        (app, sys)
    }

    #[test]
    fn echoes_client_bytes() {
        let (mut app, mut sys) = booted();
        let conn = sys.host().with(|w| w.network_mut().connect(ECHO_PORT));
        app.poll(&mut sys).unwrap(); // completes the handshake
        sys.host()
            .with(|w| w.network_mut().send(conn, b"ping").unwrap());
        let served = app.poll(&mut sys).unwrap();
        assert_eq!(served, 1);
        assert_eq!(
            sys.host().with(|w| w.network_mut().recv(conn).unwrap()),
            b"ping"
        );
        assert_eq!(app.bytes_echoed(), 4);
    }

    #[test]
    fn multiple_clients_multiplex() {
        let (mut app, mut sys) = booted();
        let a = sys.host().with(|w| w.network_mut().connect(ECHO_PORT));
        let b = sys.host().with(|w| w.network_mut().connect(ECHO_PORT));
        app.poll(&mut sys).unwrap();
        assert_eq!(app.open_connections(), 2);
        sys.host().with(|w| w.network_mut().send(a, b"A").unwrap());
        sys.host().with(|w| w.network_mut().send(b, b"B").unwrap());
        assert_eq!(app.poll(&mut sys).unwrap(), 2);
        assert_eq!(sys.host().with(|w| w.network_mut().recv(a).unwrap()), b"A");
        assert_eq!(sys.host().with(|w| w.network_mut().recv(b).unwrap()), b"B");
    }

    #[test]
    fn peer_close_drops_the_connection() {
        let (mut app, mut sys) = booted();
        let conn = sys.host().with(|w| w.network_mut().connect(ECHO_PORT));
        app.poll(&mut sys).unwrap();
        sys.host().with(|w| w.network_mut().close(conn).unwrap());
        app.poll(&mut sys).unwrap();
        assert_eq!(app.open_connections(), 0);
    }

    #[test]
    fn connections_survive_lwip_reboot() {
        let (mut app, mut sys) = booted();
        let conn = sys.host().with(|w| w.network_mut().connect(ECHO_PORT));
        app.poll(&mut sys).unwrap();
        sys.host()
            .with(|w| w.network_mut().send(conn, b"before").unwrap());
        app.poll(&mut sys).unwrap();
        sys.host().with(|w| w.network_mut().recv(conn).unwrap());

        sys.reboot_component("lwip").unwrap();

        sys.host()
            .with(|w| w.network_mut().send(conn, b"after").unwrap());
        assert_eq!(app.poll(&mut sys).unwrap(), 1);
        assert_eq!(
            sys.host().with(|w| w.network_mut().recv(conn).unwrap()),
            b"after"
        );
        assert_eq!(sys.host().with(|w| w.network().seq_errors()), 0);
    }
}
