//! [`Os`]: the typed POSIX-ish syscall facade applications use.
//!
//! Each method marshals its arguments and issues one syscall through one of
//! the facade's call sites, which the system binds when it links, so all
//! of VampOS's machinery (message passing, scheduling, logging) applies
//! uniformly whether a call comes from an application or from a test.

use vampos_oslib::funcs::{process, sysinfo, timer, user, vfs as vf};
use vampos_oslib::vfs::{OpenFlags, SEEK_CUR, SEEK_END, SEEK_SET};
use vampos_ukernel::{names, OsError, Value};

use crate::runtime::System;

// The facade's call sites, in index order: the system binds them once,
// when it links, like a component's.
vampos_ukernel::call_sites! {
    OPEN = names::VFS, vf::OPEN;
    CREATE = names::VFS, vf::CREATE;
    READ = names::VFS, vf::READ;
    PREAD = names::VFS, vf::PREAD;
    WRITE = names::VFS, vf::WRITE;
    PWRITE = names::VFS, vf::PWRITE;
    WRITEV = names::VFS, vf::WRITEV;
    LSEEK = names::VFS, vf::LSEEK;
    CLOSE = names::VFS, vf::CLOSE;
    FSYNC = names::VFS, vf::FSYNC;
    PIPE = names::VFS, vf::PIPE;
    FCNTL = names::VFS, vf::FCNTL;
    IOCTL = names::VFS, vf::IOCTL;
    STAT = names::VFS, vf::STAT;
    FSTAT = names::VFS, vf::FSTAT;
    UNLINK = names::VFS, vf::UNLINK;
    VGET = names::VFS, vf::VGET;
    ALLOC_SOCKET = names::VFS, vf::ALLOC_SOCKET;
    BIND = names::VFS, vf::BIND;
    LISTEN = names::VFS, vf::LISTEN;
    SHUTDOWN = names::VFS, vf::SHUTDOWN;
    SETSOCKOPT = names::VFS, vf::SETSOCKOPT;
    GETSOCKOPT = names::VFS, vf::GETSOCKOPT;
    POLL_READY = names::VFS, vf::POLL_READY;
    GETPID = names::PROCESS, process::GETPID;
    UNAME = names::SYSINFO, sysinfo::UNAME;
    GETUID = names::USER, user::GETUID;
    CLOCK_GETTIME = names::TIMER, timer::CLOCK_GETTIME;
    NANOSLEEP = names::TIMER, timer::NANOSLEEP;
}

/// Seek origin for [`Os::lseek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// Absolute offset.
    Set,
    /// Relative to the current offset.
    Cur,
    /// Relative to end-of-file.
    End,
}

impl Whence {
    fn code(self) -> u64 {
        match self {
            Whence::Set => SEEK_SET,
            Whence::Cur => SEEK_CUR,
            Whence::End => SEEK_END,
        }
    }
}

/// The syscall surface of a [`System`].
///
/// Obtained from [`System::os`]; borrows the system mutably for the duration
/// of use.
#[derive(Debug)]
pub struct Os<'a> {
    sys: &'a mut System,
}

impl<'a> Os<'a> {
    pub(crate) fn new(sys: &'a mut System) -> Self {
        Os { sys }
    }

    // ---- files ----

    /// Opens (optionally creating) a file; returns the fd.
    ///
    /// # Errors
    ///
    /// `NotFound` without `CREAT`, plus transport errors.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> Result<u64, OsError> {
        self.sys
            .os_call(OPEN, &[Value::from(path), Value::U64(flags.bits() as u64)])?
            .as_u64()
    }

    /// Creates (truncating) and opens a file; returns the fd.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn create(&mut self, path: &str) -> Result<u64, OsError> {
        self.sys.os_call(CREATE, &[Value::from(path)])?.as_u64()
    }

    /// Reads up to `max` bytes at the fd's offset.
    ///
    /// # Errors
    ///
    /// `BadFd`, `WouldBlock` (sockets/pipes with no data), transport errors.
    pub fn read(&mut self, fd: u64, max: u64) -> Result<Vec<u8>, OsError> {
        self.sys
            .os_call(READ, &[Value::U64(fd), Value::U64(max)])?
            .into_bytes()
    }

    /// Positional read; the fd offset is unchanged.
    ///
    /// # Errors
    ///
    /// As [`Os::read`].
    pub fn pread(&mut self, fd: u64, max: u64, offset: u64) -> Result<Vec<u8>, OsError> {
        self.sys
            .os_call(
                PREAD,
                &[Value::U64(fd), Value::U64(max), Value::U64(offset)],
            )?
            .into_bytes()
    }

    /// Writes at the fd's offset; returns bytes written.
    ///
    /// # Errors
    ///
    /// `BadFd`, connection errors for sockets, transport errors.
    pub fn write(&mut self, fd: u64, data: &[u8]) -> Result<u64, OsError> {
        self.sys
            .os_call(WRITE, &[Value::U64(fd), Value::from(data)])?
            .as_u64()
    }

    /// Positional write; the fd offset is unchanged.
    ///
    /// # Errors
    ///
    /// As [`Os::write`].
    pub fn pwrite(&mut self, fd: u64, data: &[u8], offset: u64) -> Result<u64, OsError> {
        self.sys
            .os_call(
                PWRITE,
                &[Value::U64(fd), Value::from(data), Value::U64(offset)],
            )?
            .as_u64()
    }

    /// Gathering write.
    ///
    /// # Errors
    ///
    /// As [`Os::write`].
    pub fn writev(&mut self, fd: u64, chunks: &[&[u8]]) -> Result<u64, OsError> {
        let iov: Vec<Value> = chunks.iter().map(|c| Value::from(*c)).collect();
        self.sys
            .os_call(WRITEV, &[Value::U64(fd), Value::List(iov)])?
            .as_u64()
    }

    /// Moves the fd offset; returns the new offset.
    ///
    /// # Errors
    ///
    /// `BadFd` / `Inval` for non-files.
    pub fn lseek(&mut self, fd: u64, offset: i64, whence: Whence) -> Result<u64, OsError> {
        self.sys
            .os_call(
                LSEEK,
                &[
                    Value::U64(fd),
                    Value::I64(offset),
                    Value::U64(whence.code()),
                ],
            )?
            .as_u64()
    }

    /// Closes an fd.
    ///
    /// # Errors
    ///
    /// `BadFd`.
    pub fn close(&mut self, fd: u64) -> Result<(), OsError> {
        self.sys.os_call(CLOSE, &[Value::U64(fd)])?;
        Ok(())
    }

    /// Flushes a file to stable storage.
    ///
    /// # Errors
    ///
    /// `BadFd` / `Inval` for non-files.
    pub fn fsync(&mut self, fd: u64) -> Result<(), OsError> {
        self.sys.os_call(FSYNC, &[Value::U64(fd)])?;
        Ok(())
    }

    /// Creates a pipe; returns `(read_fd, write_fd)`.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn pipe(&mut self) -> Result<(u64, u64), OsError> {
        let v = self.sys.os_call(PIPE, &[])?;
        let list = v.as_list()?;
        match list {
            [r, w] => Ok((r.as_u64()?, w.as_u64()?)),
            _ => Err(OsError::Inval),
        }
    }

    /// `fcntl`.
    ///
    /// # Errors
    ///
    /// `BadFd` / `Inval` for unknown commands.
    pub fn fcntl(&mut self, fd: u64, cmd: u64, arg: u64) -> Result<u64, OsError> {
        self.sys
            .os_call(FCNTL, &[Value::U64(fd), Value::U64(cmd), Value::U64(arg)])?
            .as_u64()
    }

    /// `ioctl` (socket fds).
    ///
    /// # Errors
    ///
    /// `Inval` for non-sockets.
    pub fn ioctl(&mut self, fd: u64, cmd: u64, arg: u64) -> Result<u64, OsError> {
        self.sys
            .os_call(IOCTL, &[Value::U64(fd), Value::U64(cmd), Value::U64(arg)])?
            .as_u64()
    }

    /// File size by path.
    ///
    /// # Errors
    ///
    /// `NotFound`.
    pub fn stat(&mut self, path: &str) -> Result<u64, OsError> {
        let v = self.sys.os_call(STAT, &[Value::from(path)])?;
        v.as_list()?.first().ok_or(OsError::Inval)?.as_u64()
    }

    /// File size by fd.
    ///
    /// # Errors
    ///
    /// `BadFd`.
    pub fn fstat(&mut self, fd: u64) -> Result<u64, OsError> {
        let v = self.sys.os_call(FSTAT, &[Value::U64(fd)])?;
        v.as_list()?.first().ok_or(OsError::Inval)?.as_u64()
    }

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// `NotFound`.
    pub fn unlink(&mut self, path: &str) -> Result<(), OsError> {
        self.sys.os_call(UNLINK, &[Value::from(path)])?;
        Ok(())
    }

    /// Pins a vnode for `path` (Unikraft's `vfscore_vget`).
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn vget(&mut self, path: &str) -> Result<u64, OsError> {
        self.sys.os_call(VGET, &[Value::from(path)])?.as_u64()
    }

    // ---- sockets ----

    /// Creates a TCP socket; returns the fd.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn socket(&mut self) -> Result<u64, OsError> {
        self.sys.os_call(ALLOC_SOCKET, &[])?.as_u64()
    }

    /// Binds a socket to a local port.
    ///
    /// # Errors
    ///
    /// `AddrInUse`, `BadFd`.
    pub fn bind(&mut self, fd: u64, port: u16) -> Result<(), OsError> {
        self.sys
            .os_call(BIND, &[Value::U64(fd), Value::U64(port as u64)])?;
        Ok(())
    }

    /// Starts listening.
    ///
    /// # Errors
    ///
    /// `Inval` unless the socket is bound.
    pub fn listen(&mut self, fd: u64, backlog: u64) -> Result<(), OsError> {
        self.sys
            .os_call(LISTEN, &[Value::U64(fd), Value::U64(backlog)])?;
        Ok(())
    }

    /// Accepts one pending connection; returns its fd.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when no connection is pending.
    pub fn accept(&mut self, listen_fd: u64) -> Result<u64, OsError> {
        self.sys
            .os_call(ALLOC_SOCKET, &[Value::U64(listen_fd)])?
            .as_u64()
    }

    /// Receives up to `max` bytes (alias of [`Os::read`] on a socket fd).
    ///
    /// # Errors
    ///
    /// `WouldBlock`, `ConnReset`.
    pub fn recv(&mut self, fd: u64, max: u64) -> Result<Vec<u8>, OsError> {
        self.read(fd, max)
    }

    /// Sends bytes (alias of [`Os::write`] on a socket fd).
    ///
    /// # Errors
    ///
    /// `ConnReset`, `NotConnected`.
    pub fn send(&mut self, fd: u64, data: &[u8]) -> Result<u64, OsError> {
        self.write(fd, data)
    }

    /// Socket shutdown.
    ///
    /// # Errors
    ///
    /// `NotConnected`.
    pub fn shutdown(&mut self, fd: u64, how: u64) -> Result<(), OsError> {
        self.sys
            .os_call(SHUTDOWN, &[Value::U64(fd), Value::U64(how)])?;
        Ok(())
    }

    /// Sets a socket option.
    ///
    /// # Errors
    ///
    /// `BadFd`.
    pub fn setsockopt(&mut self, fd: u64, opt: u64, val: u64) -> Result<(), OsError> {
        self.sys.os_call(
            SETSOCKOPT,
            &[Value::U64(fd), Value::U64(opt), Value::U64(val)],
        )?;
        Ok(())
    }

    /// Reads a socket option.
    ///
    /// # Errors
    ///
    /// `BadFd`.
    pub fn getsockopt(&mut self, fd: u64, opt: u64) -> Result<u64, OsError> {
        self.sys
            .os_call(GETSOCKOPT, &[Value::U64(fd), Value::U64(opt)])?
            .as_u64()
    }

    /// epoll-style readiness: which of `fds` have pending work (a listener
    /// with queued connections, a socket/pipe with buffered data or a
    /// closed/reset peer; regular files are always ready).
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn poll_ready(&mut self, fds: &[u64]) -> Result<Vec<u64>, OsError> {
        let query: Vec<Value> = fds.iter().map(|&fd| Value::U64(fd)).collect();
        let v = self.sys.os_call(POLL_READY, &[Value::List(query)])?;
        v.as_list()?.iter().map(Value::as_u64).collect()
    }

    // ---- process / identity / time ----

    /// Process id (always 1 in a unikernel).
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn getpid(&mut self) -> Result<u64, OsError> {
        self.sys.os_call(GETPID, &[])?.as_u64()
    }

    /// Kernel identity string.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn uname(&mut self) -> Result<String, OsError> {
        Ok(self.sys.os_call(UNAME, &[])?.as_str()?.to_owned())
    }

    /// User id (always 0).
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn getuid(&mut self) -> Result<u64, OsError> {
        self.sys.os_call(GETUID, &[])?.as_u64()
    }

    /// Current virtual time in nanoseconds.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn clock_gettime(&mut self) -> Result<u64, OsError> {
        self.sys.os_call(CLOCK_GETTIME, &[])?.as_u64()
    }

    /// Sleeps for `ns` virtual nanoseconds.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn nanosleep(&mut self, ns: u64) -> Result<(), OsError> {
        self.sys.os_call(NANOSLEEP, &[Value::U64(ns)])?;
        Ok(())
    }
}
