//! MiniKv: the Redis stand-in — an in-memory key-value store with an
//! optional Append-Only File.
//!
//! The AOF reproduces §VII-C's setup: "to make the unikernel layer
//! rebootable, we turn on the AOF feature in Unikraft-based Redis. It
//! preserves volatile KVs into storage synchronously via `fsync()`". The
//! VampOS configurations run with the AOF **off** because component reboots
//! preserve the in-memory KVs — which is exactly why the paper's Fig. 7a
//! shows VampOS-based Redis *outperforming* vanilla Unikraft: the baseline
//! pays a synchronous storage flush per write.
//!
//! Protocol (line-based, Redis-flavoured):
//! `SET <key> <value>\n` → `+OK\n`; `GET <key>\n` → `$<value>\n` or `$-1\n`;
//! `DEL <key>\n` → `:1\n`/`:0\n`; `PING\n` → `+PONG\n`.

use std::borrow::Cow;
use std::collections::BTreeMap;

use vampos_core::System;
use vampos_oslib::OpenFlags;
use vampos_ukernel::OsError;

use crate::App;

/// The port MiniKv listens on.
pub const KV_PORT: u16 = 6379;

/// Path of the append-only file on the 9P share.
pub const AOF_PATH: &str = "/appendonly.aof";

#[derive(Debug, Default)]
struct ConnState {
    buf: Vec<u8>,
}

/// The key-value store server.
#[derive(Debug)]
pub struct MiniKv {
    aof_enabled: bool,
    store: BTreeMap<String, Vec<u8>>,
    listen_fd: Option<u64>,
    aof_fd: Option<u64>,
    conns: BTreeMap<u64, ConnState>,
    commands: u64,
    aof_records_replayed: u64,
    /// Scratch kept between polls (the readiness query and the connections
    /// to service), so a steady-state poll allocates nothing of its own.
    watched: Vec<u64>,
    conn_fds: Vec<u64>,
}

impl MiniKv {
    /// Creates a store; `aof_enabled` turns on synchronous AOF persistence.
    pub fn new(aof_enabled: bool) -> Self {
        MiniKv {
            aof_enabled,
            store: BTreeMap::new(),
            listen_fd: None,
            aof_fd: None,
            conns: BTreeMap::new(),
            commands: 0,
            aof_records_replayed: 0,
            watched: Vec::new(),
            conn_fds: Vec::new(),
        }
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Commands served since boot.
    pub fn commands(&self) -> u64 {
        self.commands
    }

    /// AOF records replayed during the last boot.
    pub fn aof_records_replayed(&self) -> u64 {
        self.aof_records_replayed
    }

    /// Direct read access (assertions in tests/benches).
    pub fn get_local(&self, key: &str) -> Option<&[u8]> {
        self.store.get(key).map(Vec::as_slice)
    }

    /// Pre-loads keys directly into memory (and the AOF when enabled),
    /// bypassing the network — the experiments' warm-up phase. Each value is
    /// `value_len` bytes.
    ///
    /// # Errors
    ///
    /// Propagates AOF write failures.
    pub fn warm_up(
        &mut self,
        sys: &mut System,
        keys: usize,
        value_len: usize,
    ) -> Result<(), OsError> {
        for i in 0..keys {
            let key = format!("key:{i}");
            let value = vec![b'v'; value_len];
            if self.aof_enabled {
                self.append_aof(sys, &key, &value)?;
            }
            self.store.insert(key, value);
        }
        Ok(())
    }

    /// The §VIII salvage path: "storing the current in-memory KVs in
    /// storage just before a fail-stop is more helpful for restoring the
    /// running state than eliminating all the KVs." Dumps the whole store
    /// to `path` in AOF format through the (surviving) file-system
    /// components; a later boot with the AOF at that path restores it.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors (e.g. when the VFS/9PFS path is the
    /// part that died).
    pub fn emergency_dump(&mut self, sys: &mut System, path: &str) -> Result<usize, OsError> {
        let fd = sys.os().create(path)?;
        let mut keys: Vec<&String> = self.store.keys().collect();
        keys.sort();
        let mut record = Vec::new();
        for key in keys {
            record.extend_from_slice(b"SET ");
            record.extend_from_slice(key.as_bytes());
            record.push(b' ');
            record.extend_from_slice(&self.store[key]);
            record.push(b'\n');
        }
        sys.os().write(fd, &record)?;
        sys.os().fsync(fd)?;
        sys.os().close(fd)?;
        Ok(self.store.len())
    }

    fn append_aof(&mut self, sys: &mut System, key: &str, value: &[u8]) -> Result<(), OsError> {
        if let Some(fd) = self.aof_fd {
            let mut record = Vec::with_capacity(key.len() + value.len() + 8);
            record.extend_from_slice(b"SET ");
            record.extend_from_slice(key.as_bytes());
            record.push(b' ');
            record.extend_from_slice(value);
            record.push(b'\n');
            sys.os().write(fd, &record)?;
            sys.os().fsync(fd)?;
        }
        Ok(())
    }

    fn append_aof_del(&mut self, sys: &mut System, key: &str) -> Result<(), OsError> {
        if let Some(fd) = self.aof_fd {
            let record = format!("DEL {key}\n");
            sys.os().write(fd, record.as_bytes())?;
            sys.os().fsync(fd)?;
        }
        Ok(())
    }

    fn replay_aof(&mut self, sys: &mut System) -> Result<(), OsError> {
        let Some(fd) = self.aof_fd else {
            return Ok(());
        };
        let size = sys.os().fstat(fd)?;
        if size == 0 {
            return Ok(());
        }
        let data = sys.os().pread(fd, size, 0)?;
        let mut records = 0u64;
        for line in data.split(|&b| b == b'\n') {
            if line.is_empty() {
                continue;
            }
            records += 1;
            if let Some(rest) = line.strip_prefix(b"SET ".as_slice()) {
                if let Some(space) = rest.iter().position(|&b| b == b' ') {
                    let key = String::from_utf8_lossy(&rest[..space]).into_owned();
                    self.store.insert(key, rest[space + 1..].to_vec());
                    self.aof_records_replayed += 1;
                }
            } else if let Some(key) = line.strip_prefix(b"DEL ".as_slice()) {
                self.store
                    .remove(&String::from_utf8_lossy(key).into_owned());
                self.aof_records_replayed += 1;
            }
        }
        // Restoration is CPU work too: parsing and re-inserting every
        // record is what stretches the paper's Fig. 8 outage.
        sys.clock()
            .advance(vampos_sim::Nanos::from_nanos(2_500) * records);
        // Position the fd at EOF so new records append.
        sys.os().lseek(fd, size as i64, vampos_core::Whence::Set)?;
        Ok(())
    }

    fn execute(&mut self, sys: &mut System, line: &[u8]) -> Result<Cow<'static, [u8]>, OsError> {
        self.commands += 1;
        if line == b"PING" {
            return Ok(Cow::Borrowed(b"+PONG\n"));
        }
        if let Some(rest) = line.strip_prefix(b"SET ".as_slice()) {
            if let Some(space) = rest.iter().position(|&b| b == b' ') {
                let key = String::from_utf8_lossy(&rest[..space]).into_owned();
                let value = rest[space + 1..].to_vec();
                if self.aof_enabled {
                    self.append_aof(sys, &key, &value)?;
                }
                self.store.insert(key, value);
                return Ok(Cow::Borrowed(b"+OK\n"));
            }
            return Ok(Cow::Borrowed(b"-ERR wrong number of arguments\n"));
        }
        if let Some(key) = line.strip_prefix(b"GET ".as_slice()) {
            return Ok(match self.store.get(&*String::from_utf8_lossy(key)) {
                Some(value) => {
                    let mut resp = Vec::with_capacity(value.len() + 2);
                    resp.push(b'$');
                    resp.extend_from_slice(value);
                    resp.push(b'\n');
                    Cow::Owned(resp)
                }
                None => Cow::Borrowed(b"$-1\n"),
            });
        }
        if let Some(key) = line.strip_prefix(b"DEL ".as_slice()) {
            let key = String::from_utf8_lossy(key);
            if self.aof_enabled {
                self.append_aof_del(sys, &key)?;
            }
            return Ok(Cow::Borrowed(if self.store.remove(&*key).is_some() {
                b":1\n"
            } else {
                b":0\n"
            }));
        }
        Ok(Cow::Borrowed(b"-ERR unknown command\n"))
    }

    /// Executes every complete line at the front of `buf`, in order, and
    /// returns how many it answered. Every complete line is consumed from
    /// `buf`, answered or not: after a failed command the rest go
    /// unanswered and the error is returned.
    fn serve(&mut self, sys: &mut System, conn: u64, buf: &mut Vec<u8>) -> Result<usize, OsError> {
        let complete = buf.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        let mut served = 0;
        let mut outcome = Ok(());
        for line in buf[..complete].split_inclusive(|&b| b == b'\n') {
            outcome = self
                .execute(sys, &line[..line.len() - 1])
                .and_then(|resp| sys.os().send(conn, &resp).map(drop));
            if outcome.is_err() {
                break;
            }
            served += 1;
        }
        buf.drain(..complete);
        outcome.map(|()| served)
    }
}

impl App for MiniKv {
    fn name(&self) -> &'static str {
        "redis"
    }

    fn boot(&mut self, sys: &mut System) -> Result<(), OsError> {
        self.conns.clear();
        self.aof_records_replayed = 0;
        if self.aof_enabled {
            let fd = sys
                .os()
                .open(AOF_PATH, OpenFlags::RDWR | OpenFlags::CREAT)?;
            self.aof_fd = Some(fd);
            // A cold boot (store lost) restores the KVs from the AOF — the
            // expensive step the paper's Fig. 8 baseline suffers through.
            if self.store.is_empty() {
                self.replay_aof(sys)?;
            }
        }
        let fd = sys.os().socket()?;
        sys.os().bind(fd, KV_PORT)?;
        sys.os().listen(fd, 128)?;
        self.listen_fd = Some(fd);
        Ok(())
    }

    fn crash(&mut self) {
        // Everything volatile dies with the process; only the AOF (on
        // storage) survives for the next boot to replay.
        let aof = self.aof_enabled;
        *self = MiniKv::new(aof);
    }

    fn poll(&mut self, sys: &mut System) -> Result<usize, OsError> {
        let listen_fd = self.listen_fd.ok_or(OsError::NotConnected)?;
        self.watched.clear();
        self.watched.push(listen_fd);
        self.watched.extend(self.conns.keys());
        let ready = sys.os().poll_ready(&self.watched)?;
        if ready.contains(&listen_fd) {
            loop {
                match sys.os().accept(listen_fd) {
                    Ok(conn) => {
                        self.conns.insert(conn, ConnState::default());
                    }
                    Err(OsError::WouldBlock) => break,
                    Err(e) => return Err(e),
                }
            }
        }
        let mut served = 0usize;
        self.conn_fds.clear();
        self.conn_fds.extend(
            self.conns
                .keys()
                .copied()
                .filter(|fd| ready.contains(fd) || !self.watched.contains(fd)),
        );
        for i in 0..self.conn_fds.len() {
            let conn = self.conn_fds[i];
            match sys.os().recv(conn, 64 << 10) {
                Ok(data) if data.is_empty() => {
                    sys.os().close(conn)?;
                    self.conns.remove(&conn);
                }
                Ok(data) => {
                    // The buffer is lent out while its lines execute and
                    // handed back, consumed, whatever the outcome.
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
        // Only the stored key-values: the commands counter resets on a
        // full reboot (while the AOF restores the KVs), so including it
        // would make an AOF-recovered store falsely diverge from its twin.
        let mut keys: Vec<&String> = self.store.keys().collect();
        keys.sort();
        let mut d = vampos_ukernel::digest::DigestBuilder::new().u64(keys.len() as u64);
        for key in keys {
            d = d.str(key).bytes(&self.store[key]);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_core::{ComponentSet, Mode, System};

    fn booted(aof: bool) -> (MiniKv, System) {
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::redis())
            .build()
            .unwrap();
        let mut app = MiniKv::new(aof);
        app.boot(&mut sys).unwrap();
        (app, sys)
    }

    fn cmd(
        app: &mut MiniKv,
        sys: &mut System,
        conn: vampos_host::ClientConnId,
        line: &str,
    ) -> Vec<u8> {
        sys.host().with(|w| {
            w.network_mut()
                .send(conn, format!("{line}\n").as_bytes())
                .unwrap()
        });
        app.poll(sys).unwrap();
        sys.host().with(|w| w.network_mut().recv(conn).unwrap())
    }

    #[test]
    fn set_get_del_round_trip() {
        let (mut app, mut sys) = booted(false);
        let conn = sys.host().with(|w| w.network_mut().connect(KV_PORT));
        app.poll(&mut sys).unwrap();
        assert_eq!(cmd(&mut app, &mut sys, conn, "SET k1 vvv"), b"+OK\n");
        assert_eq!(cmd(&mut app, &mut sys, conn, "GET k1"), b"$vvv\n");
        assert_eq!(cmd(&mut app, &mut sys, conn, "DEL k1"), b":1\n");
        assert_eq!(cmd(&mut app, &mut sys, conn, "GET k1"), b"$-1\n");
        assert_eq!(cmd(&mut app, &mut sys, conn, "PING"), b"+PONG\n");
    }

    #[test]
    fn aof_writes_hit_storage_synchronously() {
        let (mut app, mut sys) = booted(true);
        let conn = sys.host().with(|w| w.network_mut().connect(KV_PORT));
        app.poll(&mut sys).unwrap();
        let fsyncs_before = sys.host().with(|w| w.ninep().fsync_count());
        cmd(&mut app, &mut sys, conn, "SET k v");
        assert_eq!(
            sys.host().with(|w| w.ninep().fsync_count()),
            fsyncs_before + 1
        );
        let aof = sys.host().with(|w| w.ninep().read_file(AOF_PATH)).unwrap();
        assert_eq!(aof, b"SET k v\n");
    }

    #[test]
    fn aof_replay_restores_the_store_after_full_reboot() {
        let (mut app, mut sys) = booted(true);
        app.warm_up(&mut sys, 10, 3).unwrap();
        assert_eq!(app.len(), 10);

        // Full reboot: the in-memory store is lost with the process…
        sys.full_reboot().unwrap();
        let mut cold = MiniKv::new(true);
        cold.boot(&mut sys).unwrap();
        // …but the AOF brings it back.
        assert_eq!(cold.len(), 10);
        assert_eq!(cold.aof_records_replayed(), 10);
        assert_eq!(cold.get_local("key:7"), Some(b"vvv".as_slice()));
    }

    #[test]
    fn without_aof_a_full_reboot_loses_everything() {
        let (mut app, mut sys) = booted(false);
        app.warm_up(&mut sys, 10, 3).unwrap();
        sys.full_reboot().unwrap();
        let mut cold = MiniKv::new(false);
        cold.boot(&mut sys).unwrap();
        assert_eq!(cold.len(), 0);
    }

    #[test]
    fn store_survives_component_reboot_without_aof() {
        let (mut app, mut sys) = booted(false);
        app.warm_up(&mut sys, 100, 3).unwrap();
        let conn = sys.host().with(|w| w.network_mut().connect(KV_PORT));
        app.poll(&mut sys).unwrap();

        // Inject the paper's §VII-E failure: a fail-stop in 9PFS.
        sys.inject_fault(vampos_core::InjectedFault::panic_next("9pfs"));
        // Any syscall touching 9PFS triggers it — here via a GET round trip
        // (stat on a nonexistent path routes through VFS → 9PFS).
        let _ = sys.os().stat("/anything");
        assert_eq!(sys.stats().component_reboots, 1);

        // The store is intact and the connection still serves.
        assert_eq!(cmd(&mut app, &mut sys, conn, "GET key:42"), b"$vvv\n");
        assert!(!sys.has_failed());
    }

    #[test]
    fn aof_appends_continue_after_replay() {
        let (mut app, mut sys) = booted(true);
        app.warm_up(&mut sys, 3, 3).unwrap();
        sys.full_reboot().unwrap();
        let mut second = MiniKv::new(true);
        second.boot(&mut sys).unwrap();
        let conn = sys.host().with(|w| w.network_mut().connect(KV_PORT));
        second.poll(&mut sys).unwrap();
        cmd(&mut second, &mut sys, conn, "SET extra xyz");

        sys.full_reboot().unwrap();
        let mut third = MiniKv::new(true);
        third.boot(&mut sys).unwrap();
        assert_eq!(third.len(), 4);
        assert_eq!(third.get_local("extra"), Some(b"xyz".as_slice()));
    }
}
