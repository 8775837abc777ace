//! MiniHttpd: the Nginx stand-in — a keep-alive HTTP/1.1 static-file server.
//!
//! Requests traverse the full unikernel stack: frames come in through
//! VIRTIO → NETDEV → LWIP, the request names a file served through VFS →
//! 9PFS → the host share. Connections are keep-alive, so the rejuvenation
//! experiment (paper Table V) exercises exactly what full reboots break:
//! long-lived TCP connections and their in-flight requests.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vampos_core::System;
use vampos_oslib::OpenFlags;
use vampos_ukernel::OsError;

use crate::App;

/// The port MiniHttpd listens on.
pub const HTTP_PORT: u16 = 80;

#[derive(Debug, Default)]
struct ConnState {
    buf: Vec<u8>,
}

#[derive(Debug, Clone, Copy)]
struct CachedFile {
    fd: u64,
    size: u64,
}

/// The HTTP server.
#[derive(Debug)]
pub struct MiniHttpd {
    doc_root: String,
    listen_fd: Option<u64>,
    /// Ordered by fd so `poll` walks connections deterministically: the
    /// fleet experiments compare same-seed runs byte-for-byte, which a
    /// randomized hash-map iteration order would break.
    conns: BTreeMap<u64, ConnState>,
    /// Open-file cache, like Nginx's `open_file_cache`, keyed by request
    /// path: files stay open across requests and are served with
    /// positional reads.
    file_cache: BTreeMap<String, CachedFile>,
    served: u64,
    not_found: u64,
    /// Scratch kept between polls — the readiness query, the connections
    /// to service, the response header — so a steady-state poll allocates
    /// nothing of its own.
    watched: Vec<u64>,
    conn_fds: Vec<u64>,
    header: String,
}

impl Default for MiniHttpd {
    fn default() -> Self {
        Self::new("/www")
    }
}

impl MiniHttpd {
    /// Creates a server rooted at `doc_root` (a directory on the 9P share).
    pub fn new(doc_root: &str) -> Self {
        MiniHttpd {
            doc_root: doc_root.trim_end_matches('/').to_owned(),
            listen_fd: None,
            conns: BTreeMap::new(),
            file_cache: BTreeMap::new(),
            served: 0,
            not_found: 0,
            watched: Vec::new(),
            conn_fds: Vec::new(),
            header: String::new(),
        }
    }

    /// Successful responses since boot.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// 404 responses since boot.
    pub fn not_found(&self) -> u64 {
        self.not_found
    }

    /// Currently open client connections.
    pub fn open_connections(&self) -> usize {
        self.conns.len()
    }

    fn respond(&mut self, sys: &mut System, conn: u64, path: &str) -> Result<(), OsError> {
        let cached = match self.file_cache.get(path) {
            Some(&c) => Ok(c),
            None => match sys
                .os()
                .open(&format!("{}{path}", self.doc_root), OpenFlags::RDONLY)
            {
                Ok(fd) => {
                    let size = sys.os().fstat(fd)?;
                    let c = CachedFile { fd, size };
                    self.file_cache.insert(path.to_owned(), c);
                    Ok(c)
                }
                Err(e) => Err(e),
            },
        };
        match cached {
            Ok(CachedFile { fd, size }) => {
                let body = sys.os().pread(fd, size, 0)?;
                self.header.clear();
                let _ = write!(
                    self.header,
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
                    body.len()
                );
                sys.os().writev(conn, &[self.header.as_bytes(), &body])?;
                self.served += 1;
            }
            Err(OsError::NotFound) => {
                let resp = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
                sys.os().send(conn, resp)?;
                self.not_found += 1;
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Answers every complete `GET <path> ...\r\n\r\n` request at the
    /// front of `buf`, in order, and returns how many it served. Every
    /// complete request is consumed from `buf`, answered or not: after a
    /// failed response the rest go unanswered and the error is returned.
    fn serve(&mut self, sys: &mut System, conn: u64, buf: &mut Vec<u8>) -> Result<usize, OsError> {
        let mut served = 0;
        let mut consumed = 0;
        let mut outcome = Ok(());
        while let Some(at) = buf[consumed..].windows(4).position(|w| w == b"\r\n\r\n") {
            let request = &buf[consumed..consumed + at + 4];
            consumed += at + 4;
            if outcome.is_err() {
                continue;
            }
            let text = String::from_utf8_lossy(request);
            let mut parts = text.split_whitespace();
            if parts.next() == Some("GET") {
                if let Some(path) = parts.next() {
                    outcome = self.respond(sys, conn, path);
                    served += usize::from(outcome.is_ok());
                }
            }
        }
        buf.drain(..consumed);
        outcome.map(|()| served)
    }
}

impl App for MiniHttpd {
    fn name(&self) -> &'static str {
        "nginx"
    }

    fn boot(&mut self, sys: &mut System) -> Result<(), OsError> {
        self.conns.clear();
        self.file_cache.clear();
        let fd = sys.os().socket()?;
        sys.os().bind(fd, HTTP_PORT)?;
        sys.os().listen(fd, 128)?;
        self.listen_fd = Some(fd);
        Ok(())
    }

    fn crash(&mut self) {
        let doc_root = self.doc_root.clone();
        *self = MiniHttpd::new(&doc_root);
    }

    fn poll(&mut self, sys: &mut System) -> Result<usize, OsError> {
        let listen_fd = self.listen_fd.ok_or(OsError::NotConnected)?;
        self.watched.clear();
        self.watched.push(listen_fd);
        self.watched.extend(self.conns.keys());
        let ready = sys.os().poll_ready(&self.watched)?;
        // Ready connections plus the fresh accepts below (which joined
        // after the readiness query ran, so they are serviced
        // unconditionally this poll), in ascending fd order — the order
        // the old full-table scan serviced them in, at O(ready) instead of
        // O(connections²).
        self.conn_fds.clear();
        self.conn_fds
            .extend(ready.iter().copied().filter(|&fd| fd != listen_fd));
        if ready.contains(&listen_fd) {
            loop {
                match sys.os().accept(listen_fd) {
                    Ok(conn) => {
                        self.conns.insert(conn, ConnState::default());
                        self.conn_fds.push(conn);
                    }
                    Err(OsError::WouldBlock) => break,
                    Err(e) => return Err(e),
                }
            }
        }
        self.conn_fds.sort_unstable();
        let mut served = 0usize;
        for i in 0..self.conn_fds.len() {
            let conn = self.conn_fds[i];
            match sys.os().recv(conn, 64 << 10) {
                Ok(data) if data.is_empty() => {
                    sys.os().close(conn)?;
                    self.conns.remove(&conn);
                }
                Ok(data) => {
                    // The buffer is lent out while its requests are served
                    // and handed back, consumed, whatever the outcome.
                    let state = self.conns.get_mut(&conn).expect("tracked");
                    let mut buf = std::mem::take(&mut state.buf);
                    buf.extend_from_slice(&data);
                    let outcome = self.serve(sys, conn, &mut buf);
                    self.conns.get_mut(&conn).expect("tracked").buf = buf;
                    served += outcome?;
                }
                Err(OsError::WouldBlock) => {}
                Err(OsError::ConnReset) => {
                    let _ = sys.os().close(conn);
                    self.conns.remove(&conn);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(served)
    }

    fn state_digest(&self) -> u64 {
        // The doc root identifies what is being served; the counters are
        // the observable request history. Connection fds and the file
        // cache (a performance artifact holding fd numbers) are excluded.
        vampos_ukernel::digest::DigestBuilder::new()
            .str(&self.doc_root)
            .u64(self.served)
            .u64(self.not_found)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_core::{ComponentSet, Mode, System};
    use vampos_host::HostHandle;

    fn booted() -> (MiniHttpd, System) {
        let host = HostHandle::new();
        host.with(|w| {
            w.ninep_mut()
                .put_file("/www/index.html", b"<html>hi</html>");
            w.ninep_mut().put_file("/www/big.html", &[b'x'; 180]);
        });
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::nginx())
            .host(host)
            .build()
            .unwrap();
        let mut app = MiniHttpd::default();
        app.boot(&mut sys).unwrap();
        (app, sys)
    }

    fn get(
        sys: &mut System,
        app: &mut MiniHttpd,
        conn: vampos_host::ClientConnId,
        path: &str,
    ) -> Vec<u8> {
        let req = format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n");
        sys.host()
            .with(|w| w.network_mut().send(conn, req.as_bytes()).unwrap());
        app.poll(sys).unwrap();
        sys.host().with(|w| w.network_mut().recv(conn).unwrap())
    }

    #[test]
    fn serves_static_files() {
        let (mut app, mut sys) = booted();
        let conn = sys.host().with(|w| w.network_mut().connect(HTTP_PORT));
        app.poll(&mut sys).unwrap();
        let resp = get(&mut sys, &mut app, conn, "/index.html");
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.ends_with("<html>hi</html>"));
        assert_eq!(app.served(), 1);
    }

    #[test]
    fn missing_file_is_404() {
        let (mut app, mut sys) = booted();
        let conn = sys.host().with(|w| w.network_mut().connect(HTTP_PORT));
        app.poll(&mut sys).unwrap();
        let resp = get(&mut sys, &mut app, conn, "/nope.html");
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 404"));
        assert_eq!(app.not_found(), 1);
    }

    #[test]
    fn keep_alive_serves_many_requests_per_connection() {
        let (mut app, mut sys) = booted();
        let conn = sys.host().with(|w| w.network_mut().connect(HTTP_PORT));
        app.poll(&mut sys).unwrap();
        for _ in 0..5 {
            let resp = get(&mut sys, &mut app, conn, "/big.html");
            assert!(resp.len() > 180);
        }
        assert_eq!(app.served(), 5);
        assert_eq!(app.open_connections(), 1);
    }

    #[test]
    fn pipelined_requests_in_one_segment() {
        let (mut app, mut sys) = booted();
        let conn = sys.host().with(|w| w.network_mut().connect(HTTP_PORT));
        app.poll(&mut sys).unwrap();
        let two = b"GET /index.html HTTP/1.1\r\n\r\nGET /big.html HTTP/1.1\r\n\r\n";
        sys.host()
            .with(|w| w.network_mut().send(conn, two).unwrap());
        let served = app.poll(&mut sys).unwrap();
        assert_eq!(served, 2);
    }

    #[test]
    fn a_failed_response_still_consumes_every_complete_request() {
        let (mut app, mut sys) = booted();
        let conn = sys.host().with(|w| w.network_mut().connect(HTTP_PORT));
        app.poll(&mut sys).unwrap();
        // Walking through a file fails with an error that is not a 404, so
        // the first response fails; the second request is complete and
        // the third is not.
        let segment = b"GET /index.html/x HTTP/1.1\r\n\r\nGET /index.html HTTP/1.1\r\n\r\nGET /big";
        sys.host()
            .with(|w| w.network_mut().send(conn, segment).unwrap());
        assert_eq!(app.poll(&mut sys), Err(OsError::NotADirectory));
        assert_eq!(app.served(), 0);
        let buffered: Vec<&[u8]> = app.conns.values().map(|c| c.buf.as_slice()).collect();
        assert_eq!(buffered, [b"GET /big".as_slice()]);

        // Only the buffered partial request is answered once it completes:
        // the second request went with the failed one.
        sys.host().with(|w| {
            w.network_mut()
                .send(conn, b".html HTTP/1.1\r\n\r\n")
                .unwrap()
        });
        assert_eq!(app.poll(&mut sys).unwrap(), 1);
        assert_eq!(app.served(), 1);
        let resp = sys.host().with(|w| w.network_mut().recv(conn).unwrap());
        let text = String::from_utf8_lossy(&resp);
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 1, "{text}");
        assert!(text.ends_with(&"x".repeat(180)), "{text}");
    }

    #[test]
    fn partial_request_waits_for_the_rest() {
        let (mut app, mut sys) = booted();
        let conn = sys.host().with(|w| w.network_mut().connect(HTTP_PORT));
        app.poll(&mut sys).unwrap();
        sys.host()
            .with(|w| w.network_mut().send(conn, b"GET /index.html HT").unwrap());
        assert_eq!(app.poll(&mut sys).unwrap(), 0);
        sys.host()
            .with(|w| w.network_mut().send(conn, b"TP/1.1\r\n\r\n").unwrap());
        assert_eq!(app.poll(&mut sys).unwrap(), 1);
    }

    #[test]
    fn connections_and_requests_survive_component_reboots() {
        let (mut app, mut sys) = booted();
        let conn = sys.host().with(|w| w.network_mut().connect(HTTP_PORT));
        app.poll(&mut sys).unwrap();
        get(&mut sys, &mut app, conn, "/index.html");

        // Rejuvenate every rebootable component, one by one (§VII-D).
        sys.rejuvenate_all().unwrap();

        let resp = get(&mut sys, &mut app, conn, "/index.html");
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200 OK"));
        assert_eq!(sys.host().with(|w| w.network().seq_errors()), 0);
        assert_eq!(app.served(), 2);
    }
}
