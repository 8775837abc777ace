//! VFS: the POSIX API layer for files, sockets and pipes.
//!
//! The component the application talks to. State: the file-descriptor table
//! (offsets, flags), the vnode cache, mounts, and pipe buffers. File I/O is
//! delegated to 9PFS, socket I/O to LWIP — which makes VFS the paper's
//! running example of a stateful component whose naive reboot breaks the
//! application ("the file operation after the rejuvenation cannot be done
//! correctly since the file offset is initialized to be zero", §V-B).
//!
//! The logged-function set matches paper Table II exactly: `create`, `open`,
//! `write`, `pwrite`, `read`, `pread`, `close`, `mount`, `fcntl`, `lseek`,
//! `vfscore_vget`, `pipe`, `ioctl`, `writev`, `fsync`, `vfs_alloc_socket`.
//! State-unchanged functions (`fstat`, `stat`) are not logged, per §V-B.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::BitOr;

use vampos_host::take_front;
use vampos_mem::{AllocHandle, ArenaLayout, MemoryArena};
use vampos_ukernel::{
    names, CallContext, Component, ComponentDescriptor, FnId, OsError, RuntimeData, SessionEvent,
    TouchSynthesis, Value,
};

use crate::funcs::vfs::{self as f, id};
use crate::funcs::{lwip as lw, ninepfs as np};

vampos_ukernel::call_sites! {
    NP_MOUNT = names::NINEPFS, np::MOUNT;
    NP_LOOKUP = names::NINEPFS, np::LOOKUP;
    NP_OPEN = names::NINEPFS, np::OPEN;
    NP_CLOSE = names::NINEPFS, np::CLOSE;
    NP_INACTIVE = names::NINEPFS, np::INACTIVE;
    NP_READ = names::NINEPFS, np::READ;
    NP_WRITE = names::NINEPFS, np::WRITE;
    NP_FSYNC = names::NINEPFS, np::FSYNC;
    NP_STAT_FID = names::NINEPFS, np::STAT_FID;
    NP_STAT_PATH = names::NINEPFS, np::STAT_PATH;
    NP_REMOVE_PATH = names::NINEPFS, np::REMOVE_PATH;
    LW_SOCKET = names::LWIP, lw::SOCKET;
    LW_ACCEPT = names::LWIP, lw::ACCEPT;
    LW_SEND = names::LWIP, lw::SEND;
    LW_RECV = names::LWIP, lw::RECV;
    LW_CLOSE = names::LWIP, lw::CLOSE;
    LW_IOCTL = names::LWIP, lw::IOCTL;
    LW_READY = names::LWIP, lw::READY;
    LW_BIND = names::LWIP, lw::BIND;
    LW_LISTEN = names::LWIP, lw::LISTEN;
    LW_CONNECT = names::LWIP, lw::CONNECT;
    LW_SHUTDOWN = names::LWIP, lw::SHUTDOWN;
    LW_GETSOCKOPT = names::LWIP, lw::GETSOCKOPT;
    LW_SETSOCKOPT = names::LWIP, lw::SETSOCKOPT;
}

/// Session-key namespace bit for vnode sessions (fd sessions use the raw fd).
pub const VNODE_SESSION_NS: u64 = 1 << 32;

/// POSIX-style open flags.
///
/// # Example
///
/// ```
/// use vampos_oslib::OpenFlags;
///
/// let flags = OpenFlags::RDWR | OpenFlags::CREAT;
/// assert!(flags.contains(OpenFlags::CREAT));
/// assert!(!flags.contains(OpenFlags::TRUNC));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags(u32);

impl OpenFlags {
    /// Read-only.
    pub const RDONLY: OpenFlags = OpenFlags(0);
    /// Write-only.
    pub const WRONLY: OpenFlags = OpenFlags(1);
    /// Read-write.
    pub const RDWR: OpenFlags = OpenFlags(2);
    /// Create if missing.
    pub const CREAT: OpenFlags = OpenFlags(0x40);
    /// Truncate on open.
    pub const TRUNC: OpenFlags = OpenFlags(0x200);
    /// Append mode: every write goes to end-of-file.
    pub const APPEND: OpenFlags = OpenFlags(0x400);
    /// Non-blocking I/O.
    pub const NONBLOCK: OpenFlags = OpenFlags(0x800);

    /// Raw bit representation (marshalled as `Value::U64`).
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Reconstructs flags from raw bits.
    pub fn from_bits(bits: u32) -> Self {
        OpenFlags(bits)
    }

    /// Whether all bits of `other` are set.
    pub fn contains(self, other: OpenFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl BitOr for OpenFlags {
    type Output = OpenFlags;
    fn bitor(self, rhs: OpenFlags) -> OpenFlags {
        OpenFlags(self.0 | rhs.0)
    }
}

impl fmt::Display for OpenFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O({:#x})", self.0)
    }
}

/// `fcntl` command: get status flags.
pub const F_GETFL: u64 = 3;
/// `fcntl` command: set status flags.
pub const F_SETFL: u64 = 4;
/// `lseek` whence: absolute.
pub const SEEK_SET: u64 = 0;
/// `lseek` whence: relative to current offset.
pub const SEEK_CUR: u64 = 1;
/// `lseek` whence: relative to end-of-file.
pub const SEEK_END: u64 = 2;

#[derive(Debug, Clone, PartialEq, Hash)]
enum FdKind {
    File {
        path: String,
        fid: u64,
        offset: u64,
        append: bool,
        vnode: u64,
    },
    Socket {
        sock: u64,
    },
    PipeRead {
        pipe: u64,
    },
    PipeWrite {
        pipe: u64,
    },
}

#[derive(Debug, Clone, Hash)]
struct FdEntry {
    kind: FdKind,
    status_flags: u64,
    alloc: Option<AllocHandle>,
}

#[derive(Debug, Clone, PartialEq, Hash)]
struct Vnode {
    path: String,
    refs: u32,
}

/// VFS's runtime data (§V-B): the pipe buffers, by pipe id.
struct VfsPipes(BTreeMap<u64, VecDeque<u8>>);

/// The VFS component.
#[derive(Debug, Clone)]
pub struct Vfs {
    desc: ComponentDescriptor,
    fds: BTreeMap<u64, FdEntry>,
    vnodes: BTreeMap<u64, Vnode>,
    vnode_by_path: BTreeMap<String, u64>,
    mounts: Vec<(String, String)>,
    pipes: BTreeMap<u64, VecDeque<u8>>,
    next_pipe: u64,
    /// Sessions retired by the most recent `close` (read by session_event).
    last_close_sessions: Vec<u64>,
    /// Whether the most recent `vfscore_vget` created a fresh vnode.
    last_vget_new: bool,
}

/// The digest leaves out three fields. `next_pipe` is a high-water mark
/// that a shrunk log's replay lowers (`restore_runtime` raises it past the
/// live pipes only). `last_close_sessions` and `last_vget_new` carry one
/// call's outcome to `session_event`, and no later call reads them.
impl Hash for Vfs {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let Vfs {
            desc,
            fds,
            vnodes,
            vnode_by_path,
            mounts,
            pipes,
            next_pipe: _,
            last_close_sessions: _,
            last_vget_new: _,
        } = self;
        (desc, fds, vnodes, vnode_by_path, mounts, pipes).hash(state);
    }
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

const FIRST_FD: u64 = 3;

impl Vfs {
    /// Creates the component.
    pub fn new() -> Self {
        Vfs {
            desc: ComponentDescriptor::new(names::VFS, ArenaLayout::large())
                .stateful()
                .checkpoint_init()
                .interface(f::FUNCTIONS)
                .depends_on(&[names::NINEPFS, names::LWIP])
                .calls(CALLS),
            fds: BTreeMap::new(),
            vnodes: BTreeMap::new(),
            vnode_by_path: BTreeMap::new(),
            mounts: Vec::new(),
            pipes: BTreeMap::new(),
            next_pipe: 1,
            last_close_sessions: Vec::new(),
            last_vget_new: false,
        }
    }

    /// Number of open file descriptors.
    pub fn open_fds(&self) -> usize {
        self.fds.len()
    }

    /// The current offset of a file descriptor (tests).
    pub fn offset_of(&self, fd: u64) -> Option<u64> {
        match &self.fds.get(&fd)?.kind {
            FdKind::File { offset, .. } => Some(*offset),
            _ => None,
        }
    }

    /// Number of cached vnodes.
    pub fn vnode_count(&self) -> usize {
        self.vnodes.len()
    }

    fn alloc_fd(&mut self, ctx: &dyn CallContext, expected: Option<u64>) -> Result<u64, OsError> {
        // During replay, reuse the fd the original call handed out; the
        // caller may also force a specific fd (the second half of `pipe`).
        if let Some(fd) = expected {
            if self.fds.contains_key(&fd) {
                return Err(OsError::ReplayMismatch {
                    component: names::VFS.to_owned(),
                    detail: format!("fd {fd} already live during replay"),
                });
            }
            return Ok(fd);
        }
        if let Some(hint) = ctx.replay_hint() {
            if let Ok(fd) = hint.as_u64() {
                if self.fds.contains_key(&fd) {
                    return Err(OsError::ReplayMismatch {
                        component: names::VFS.to_owned(),
                        detail: format!("fd {fd} already live during replay"),
                    });
                }
                return Ok(fd);
            }
        }
        // POSIX semantics: the lowest free descriptor number. Being a pure
        // function of the fd-table state, allocation is also reproducible
        // across reboots and log shrinking.
        let fd = (FIRST_FD..)
            .find(|f| !self.fds.contains_key(f))
            .expect("descriptor space");
        Ok(fd)
    }

    fn vget_internal(&mut self, path: &str) -> u64 {
        if let Some(&v) = self.vnode_by_path.get(path) {
            self.vnodes.get_mut(&v).expect("vnode maps in sync").refs += 1;
            self.last_vget_new = false;
            return v;
        }
        // Vnode ids derive from the path so that replaying any (possibly
        // shrunk) log reproduces exactly the ids the original run assigned.
        let v = (vampos_ukernel::digest::fnv1a(path.as_bytes()) & 0xFFFF_FFFF).max(1);
        self.vnodes.insert(
            v,
            Vnode {
                path: path.to_owned(),
                refs: 1,
            },
        );
        self.vnode_by_path.insert(path.to_owned(), v);
        self.last_vget_new = true;
        v
    }

    fn vnode_unref(&mut self, vnode: u64) -> bool {
        if let Some(n) = self.vnodes.get_mut(&vnode) {
            n.refs = n.refs.saturating_sub(1);
            if n.refs == 0 {
                let path = n.path.clone();
                self.vnodes.remove(&vnode);
                self.vnode_by_path.remove(&path);
                return true;
            }
        }
        false
    }

    fn entry(&self, fd: u64) -> Result<&FdEntry, OsError> {
        self.fds.get(&fd).ok_or(OsError::BadFd)
    }

    fn open_impl(
        &mut self,
        ctx: &mut dyn CallContext,
        path: &str,
        flags: OpenFlags,
    ) -> Result<Value, OsError> {
        if self.mounts.is_empty() {
            return Err(OsError::Io("no filesystem mounted".into()));
        }
        let fid = ctx
            .invoke(
                NP_LOOKUP,
                &[
                    Value::from(path),
                    Value::Bool(flags.contains(OpenFlags::CREAT)),
                ],
            )?
            .as_u64()?;
        ctx.invoke(
            NP_OPEN,
            &[
                Value::U64(fid),
                Value::Bool(flags.contains(OpenFlags::TRUNC)),
            ],
        )?;
        let append = flags.contains(OpenFlags::APPEND);
        let offset = if append {
            let st = ctx.invoke(NP_STAT_FID, &[Value::U64(fid)])?;
            st.as_list()?.first().ok_or(OsError::Inval)?.as_u64()?
        } else {
            0
        };
        let vnode = self.vget_internal(path);
        let fd = self.alloc_fd(ctx, None)?;
        let alloc = ctx.arena().alloc(128).ok();
        self.fds.insert(
            fd,
            FdEntry {
                kind: FdKind::File {
                    path: path.to_owned(),
                    fid,
                    offset,
                    append,
                    vnode,
                },
                status_flags: flags.bits() as u64,
                alloc,
            },
        );
        Ok(Value::U64(fd))
    }

    /// Writes `data`, a [`Value::Bytes`], forwarding it downstream as is.
    fn file_write(
        &mut self,
        ctx: &mut dyn CallContext,
        fd: u64,
        data: Value,
        at: Option<u64>,
    ) -> Result<u64, OsError> {
        let (fid, offset, append) = match &self.entry(fd)?.kind {
            FdKind::File {
                fid,
                offset,
                append,
                ..
            } => (*fid, *offset, *append),
            FdKind::Socket { sock } => {
                let sock = *sock;
                let n = ctx.invoke(LW_SEND, &[Value::U64(sock), data])?.as_u64()?;
                return Ok(n);
            }
            FdKind::PipeWrite { pipe } => {
                let pipe = *pipe;
                let data = data.as_bytes()?;
                self.pipes
                    .get_mut(&pipe)
                    .ok_or(OsError::BadFd)?
                    .extend(data);
                return Ok(data.len() as u64);
            }
            FdKind::PipeRead { .. } => return Err(OsError::BadFd),
        };
        let write_at = match at {
            Some(off) => off,
            None if append => {
                let st = ctx.invoke(NP_STAT_FID, &[Value::U64(fid)])?;
                st.as_list()?.first().ok_or(OsError::Inval)?.as_u64()?
            }
            None => offset,
        };
        let n = ctx
            .invoke(NP_WRITE, &[Value::U64(fid), Value::U64(write_at), data])?
            .as_u64()?;
        if at.is_none() {
            if let FdKind::File { offset, .. } = &mut self.fds.get_mut(&fd).expect("live").kind {
                *offset = write_at + n;
            }
        }
        Ok(n)
    }

    /// Reads into a [`Value::Bytes`]: the callee's own return value, moved
    /// on rather than copied.
    fn file_read(
        &mut self,
        ctx: &mut dyn CallContext,
        fd: u64,
        max: u64,
        at: Option<u64>,
    ) -> Result<Value, OsError> {
        let (fid, offset) = match &self.entry(fd)?.kind {
            FdKind::File { fid, offset, .. } => (*fid, *offset),
            FdKind::Socket { sock } => {
                let sock = *sock;
                let v = ctx.invoke(LW_RECV, &[Value::U64(sock), Value::U64(max)])?;
                v.as_bytes()?;
                return Ok(v);
            }
            FdKind::PipeRead { pipe } => {
                let pipe = *pipe;
                let buf = self.pipes.get_mut(&pipe).ok_or(OsError::BadFd)?;
                if buf.is_empty() {
                    return Err(OsError::WouldBlock);
                }
                let n = (max as usize).min(buf.len());
                return Ok(Value::Bytes(take_front(buf, n)));
            }
            FdKind::PipeWrite { .. } => return Err(OsError::BadFd),
        };
        let read_at = at.unwrap_or(offset);
        let v = ctx.invoke(
            NP_READ,
            &[Value::U64(fid), Value::U64(read_at), Value::U64(max)],
        )?;
        let len = v.as_bytes()?.len();
        if at.is_none() {
            if let FdKind::File { offset, .. } = &mut self.fds.get_mut(&fd).expect("live").kind {
                *offset = read_at + len as u64;
            }
        }
        Ok(v)
    }
}

/// The byte-payload argument at `i`, borrowed whole so it can be forwarded.
fn bytes_arg(args: &[Value], i: usize) -> Result<&Value, OsError> {
    let arg = args.get(i).ok_or(OsError::Inval)?;
    arg.as_bytes()?;
    Ok(arg)
}

impl Component for Vfs {
    fn descriptor(&self) -> &ComponentDescriptor {
        &self.desc
    }

    fn call(
        &mut self,
        ctx: &mut dyn CallContext,
        func: FnId,
        args: &[Value],
    ) -> Result<Value, OsError> {
        match func {
            id::MOUNT => {
                let fstype = args.first().ok_or(OsError::Inval)?.as_str()?.to_owned();
                let path = args.get(1).ok_or(OsError::Inval)?.as_str()?.to_owned();
                if fstype == "9pfs" {
                    ctx.invoke(NP_MOUNT, &[Value::from(path.as_str())])?;
                }
                self.mounts.push((fstype, path));
                Ok(Value::Unit)
            }
            id::OPEN => {
                let path = args.first().ok_or(OsError::Inval)?.as_str()?.to_owned();
                let flags =
                    OpenFlags::from_bits(args.get(1).ok_or(OsError::Inval)?.as_u64()? as u32);
                self.open_impl(ctx, &path, flags)
            }
            id::CREATE => {
                let path = args.first().ok_or(OsError::Inval)?.as_str()?.to_owned();
                self.open_impl(
                    ctx,
                    &path,
                    OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::TRUNC,
                )
            }
            id::READ => {
                let fd = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let max = args
                    .get(1)
                    .map(Value::as_u64)
                    .transpose()?
                    .unwrap_or(u64::MAX);
                self.file_read(ctx, fd, max, None)
            }
            id::PREAD => {
                let fd = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let max = args.get(1).ok_or(OsError::Inval)?.as_u64()?;
                let off = args.get(2).ok_or(OsError::Inval)?.as_u64()?;
                self.file_read(ctx, fd, max, Some(off))
            }
            id::WRITE => {
                let fd = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let data = bytes_arg(args, 1)?;
                self.file_write(ctx, fd, data.clone(), None).map(Value::U64)
            }
            id::PWRITE => {
                let fd = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let data = bytes_arg(args, 1)?;
                let off = args.get(2).ok_or(OsError::Inval)?.as_u64()?;
                self.file_write(ctx, fd, data.clone(), Some(off))
                    .map(Value::U64)
            }
            id::WRITEV => {
                let fd = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let iov = args.get(1).ok_or(OsError::Inval)?.as_list()?;
                let len = iov
                    .iter()
                    .map(|chunk| chunk.as_bytes().map(<[u8]>::len))
                    .sum::<Result<usize, _>>()?;
                let mut flat = Vec::with_capacity(len);
                for chunk in iov {
                    flat.extend_from_slice(chunk.as_bytes()?);
                }
                self.file_write(ctx, fd, Value::Bytes(flat), None)
                    .map(Value::U64)
            }
            id::LSEEK => {
                let fd = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let delta = args.get(1).ok_or(OsError::Inval)?.as_i64()?;
                let whence = args.get(2).ok_or(OsError::Inval)?.as_u64()?;
                let (fid, cur) = match &self.entry(fd)?.kind {
                    FdKind::File { fid, offset, .. } => (*fid, *offset),
                    _ => return Err(OsError::Inval),
                };
                let base = match whence {
                    SEEK_SET => 0,
                    SEEK_CUR => cur,
                    SEEK_END => {
                        let st = ctx.invoke(NP_STAT_FID, &[Value::U64(fid)])?;
                        st.as_list()?.first().ok_or(OsError::Inval)?.as_u64()?
                    }
                    _ => return Err(OsError::Inval),
                };
                let next = base.checked_add_signed(delta).ok_or(OsError::Inval)?;
                if let FdKind::File { offset, .. } = &mut self.fds.get_mut(&fd).expect("live").kind
                {
                    *offset = next;
                }
                Ok(Value::U64(next))
            }
            id::SET_OFFSET => {
                // Synthetic entry emitted by log compaction.
                let fd = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let off = args.get(1).ok_or(OsError::Inval)?.as_u64()?;
                if let FdKind::File { offset, .. } =
                    &mut self.fds.get_mut(&fd).ok_or(OsError::BadFd)?.kind
                {
                    *offset = off;
                }
                Ok(Value::Unit)
            }
            id::CLOSE => {
                let fd = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let entry = self.fds.remove(&fd).ok_or(OsError::BadFd)?;
                let mut sessions = vec![fd];
                match &entry.kind {
                    FdKind::File { fid, vnode, .. } => {
                        ctx.invoke(NP_CLOSE, &[Value::U64(*fid)])?;
                        ctx.invoke(NP_INACTIVE, &[Value::U64(*fid)])?;
                        if self.vnode_unref(*vnode) {
                            sessions.push(VNODE_SESSION_NS | *vnode);
                        }
                    }
                    FdKind::Socket { sock } => {
                        ctx.invoke(LW_CLOSE, &[Value::U64(*sock)])?;
                    }
                    FdKind::PipeRead { pipe } | FdKind::PipeWrite { pipe } => {
                        let other_end_live = self.fds.values().any(|e| {
                            matches!(
                                &e.kind,
                                FdKind::PipeRead { pipe: p } | FdKind::PipeWrite { pipe: p }
                                    if p == pipe
                            )
                        });
                        if !other_end_live {
                            self.pipes.remove(pipe);
                        }
                    }
                }
                if let Some(alloc) = entry.alloc {
                    let _ = ctx.arena().free(&alloc);
                }
                self.last_close_sessions = sessions;
                Ok(Value::Unit)
            }
            id::FCNTL => {
                let fd = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let cmd = args.get(1).ok_or(OsError::Inval)?.as_u64()?;
                let arg = args.get(2).map(Value::as_u64).transpose()?.unwrap_or(0);
                let entry = self.fds.get_mut(&fd).ok_or(OsError::BadFd)?;
                match cmd {
                    F_GETFL => Ok(Value::U64(entry.status_flags)),
                    F_SETFL => {
                        entry.status_flags = arg;
                        Ok(Value::U64(0))
                    }
                    _ => Err(OsError::Inval),
                }
            }
            id::IOCTL => {
                let fd = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let cmd = args.get(1).ok_or(OsError::Inval)?.as_u64()?;
                let arg = args.get(2).map(Value::as_u64).transpose()?.unwrap_or(0);
                match &self.entry(fd)?.kind {
                    FdKind::Socket { sock } => {
                        let sock = *sock;
                        ctx.invoke(
                            LW_IOCTL,
                            &[Value::U64(sock), Value::U64(cmd), Value::U64(arg)],
                        )
                    }
                    _ => Err(OsError::Inval),
                }
            }
            id::PIPE => {
                let pipe = self.next_pipe;
                self.next_pipe += 1;
                self.pipes.insert(pipe, VecDeque::new());
                // Replay: the original return value carries both fds.
                let (expected_r, expected_w) = match ctx.replay_hint() {
                    Some(Value::List(fds)) if fds.len() == 2 => {
                        (Some(fds[0].as_u64()?), Some(fds[1].as_u64()?))
                    }
                    _ => (None, None),
                };
                let rfd = self.alloc_fd(ctx, expected_r)?;
                self.fds.insert(
                    rfd,
                    FdEntry {
                        kind: FdKind::PipeRead { pipe },
                        status_flags: 0,
                        alloc: ctx.arena().alloc(128).ok(),
                    },
                );
                let wfd = self.alloc_fd(ctx, expected_w)?;
                self.fds.insert(
                    wfd,
                    FdEntry {
                        kind: FdKind::PipeWrite { pipe },
                        status_flags: 0,
                        alloc: ctx.arena().alloc(128).ok(),
                    },
                );
                Ok(Value::List(vec![Value::U64(rfd), Value::U64(wfd)]))
            }
            id::FSYNC => {
                let fd = args.first().ok_or(OsError::Inval)?.as_u64()?;
                match &self.entry(fd)?.kind {
                    FdKind::File { fid, .. } => {
                        let fid = *fid;
                        ctx.invoke(NP_FSYNC, &[Value::U64(fid)])?;
                        Ok(Value::Unit)
                    }
                    _ => Err(OsError::Inval),
                }
            }
            id::VGET => {
                let path = args.first().ok_or(OsError::Inval)?.as_str()?.to_owned();
                Ok(Value::U64(self.vget_internal(&path)))
            }
            id::ALLOC_SOCKET => {
                let sock = match args.first() {
                    None => ctx.invoke(LW_SOCKET, &[])?.as_u64()?,
                    Some(listen_fd_v) => {
                        let listen_fd = listen_fd_v.as_u64()?;
                        let listen_sock = match &self.entry(listen_fd)?.kind {
                            FdKind::Socket { sock } => *sock,
                            _ => return Err(OsError::Inval),
                        };
                        ctx.invoke(LW_ACCEPT, &[Value::U64(listen_sock)])?
                            .as_u64()?
                    }
                };
                let fd = self.alloc_fd(ctx, None)?;
                self.fds.insert(
                    fd,
                    FdEntry {
                        kind: FdKind::Socket { sock },
                        status_flags: 0,
                        alloc: ctx.arena().alloc(128).ok(),
                    },
                );
                Ok(Value::U64(fd))
            }
            id::BIND
            | id::LISTEN
            | id::CONNECT
            | id::SHUTDOWN
            | id::GETSOCKOPT
            | id::SETSOCKOPT => {
                let fd = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let sock = match &self.entry(fd)?.kind {
                    FdKind::Socket { sock } => *sock,
                    _ => return Err(OsError::Inval),
                };
                let mut fwd = vec![Value::U64(sock)];
                fwd.extend_from_slice(&args[1..]);
                let site = match func {
                    id::BIND => LW_BIND,
                    id::LISTEN => LW_LISTEN,
                    id::CONNECT => LW_CONNECT,
                    id::SHUTDOWN => LW_SHUTDOWN,
                    id::GETSOCKOPT => LW_GETSOCKOPT,
                    _ => LW_SETSOCKOPT,
                };
                ctx.invoke(site, &fwd)
            }
            id::POLL_READY => {
                let queried = args.first().ok_or(OsError::Inval)?.as_list()?;
                // Partition: sockets go to LWIP in one readiness query;
                // files are always ready; pipes are ready when non-empty.
                let mut sock_fds = Vec::new();
                let mut ready = Vec::new();
                for v in queried {
                    let fd = v.as_u64()?;
                    match self.fds.get(&fd).map(|e| &e.kind) {
                        Some(FdKind::Socket { sock }) => sock_fds.push((fd, *sock)),
                        Some(FdKind::PipeRead { pipe })
                            if self.pipes.get(pipe).is_some_and(|b| !b.is_empty()) =>
                        {
                            ready.push(Value::U64(fd))
                        }
                        // An empty pipe read end is the one non-socket fd
                        // kind that is *not* ready.
                        Some(FdKind::PipeRead { .. }) | None => {}
                        Some(FdKind::File { .. }) | Some(FdKind::PipeWrite { .. }) => {
                            ready.push(Value::U64(fd))
                        }
                    }
                }
                if !sock_fds.is_empty() {
                    let query: Vec<Value> = sock_fds.iter().map(|&(_, s)| Value::U64(s)).collect();
                    let ready_socks = ctx.invoke(LW_READY, &[Value::List(query)])?;
                    for rs in ready_socks.as_list()? {
                        let sock = rs.as_u64()?;
                        if let Some(&(fd, _)) = sock_fds.iter().find(|&&(_, s)| s == sock) {
                            ready.push(Value::U64(fd));
                        }
                    }
                }
                Ok(Value::List(ready))
            }
            id::FSTAT => {
                let fd = args.first().ok_or(OsError::Inval)?.as_u64()?;
                match &self.entry(fd)?.kind {
                    FdKind::File { fid, .. } => {
                        let fid = *fid;
                        ctx.invoke(NP_STAT_FID, &[Value::U64(fid)])
                    }
                    _ => Ok(Value::List(vec![Value::U64(0)])),
                }
            }
            id::STAT => {
                let path = args.first().ok_or(OsError::Inval)?.as_str()?.to_owned();
                ctx.invoke(NP_STAT_PATH, &[Value::from(path.as_str())])
            }
            id::UNLINK => {
                let path = args.first().ok_or(OsError::Inval)?.as_str()?.to_owned();
                ctx.invoke(NP_REMOVE_PATH, &[Value::from(path.as_str())])
            }
            _ => unreachable!("vfs declares no function {func:?}"),
        }
    }

    fn extract_runtime(&mut self) -> Option<RuntimeData> {
        // Pipe buffers are the only VFS state log replay cannot rebuild
        // (their contents came from writes whose payloads replay does not
        // re-deliver through a live pipe).
        if self.pipes.is_empty() {
            return None;
        }
        Some(Box::new(VfsPipes(std::mem::take(&mut self.pipes))))
    }

    fn restore_runtime(
        &mut self,
        data: RuntimeData,
        _arena: &mut MemoryArena,
    ) -> Result<(), OsError> {
        let VfsPipes(pipes) = *data.downcast().map_err(|_| OsError::ReplayMismatch {
            component: names::VFS.to_owned(),
            detail: "foreign runtime data".to_owned(),
        })?;
        for (id, buf) in pipes {
            self.pipes.insert(id, buf);
            self.next_pipe = self.next_pipe.max(id + 1);
        }
        Ok(())
    }

    fn session_event(&self, func: FnId, _args: &[Value], ret: &Value) -> SessionEvent {
        match func {
            id::PIPE => match ret.as_list() {
                Ok([r, w]) => match (r.as_u64(), w.as_u64()) {
                    (Ok(r), Ok(w)) => SessionEvent::Open(vec![r, w]),
                    _ => SessionEvent::None,
                },
                _ => SessionEvent::None,
            },
            id::CLOSE => SessionEvent::Close(self.last_close_sessions.clone()),
            id::VGET => {
                let vnode = match ret.as_u64() {
                    Ok(v) => v,
                    Err(_) => return SessionEvent::None,
                };
                if self.last_vget_new {
                    SessionEvent::Open(vec![VNODE_SESSION_NS | vnode])
                } else {
                    SessionEvent::Touch(VNODE_SESSION_NS | vnode)
                }
            }
            _ => SessionEvent::None,
        }
    }

    fn synthesize_touch(&self, session: u64) -> TouchSynthesis {
        if session & VNODE_SESSION_NS != 0 {
            return TouchSynthesis::Keep;
        }
        match self.fds.get(&session).map(|e| &e.kind) {
            Some(FdKind::File { offset, .. }) => TouchSynthesis::Replace {
                // The descriptor's name: the replay finds the function by
                // pointer.
                func: self
                    .desc
                    .function_at(id::SET_OFFSET)
                    .expect("declared")
                    .name
                    .clone(),
                args: vec![Value::U64(session), Value::U64(*offset)],
                ret: Value::Unit,
            },
            // Socket/pipe touches carry no replayable state.
            Some(_) => TouchSynthesis::Drop,
            None => TouchSynthesis::Keep,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::StubCtx;
    use vampos_ukernel::BootImage;

    /// A ctx that emulates the 9PFS/LWIP side with a tiny scripted model:
    /// lookups return sequential fids, reads return fixed payloads, etc.
    fn fs_ctx() -> StubCtx {
        let mut ctx = StubCtx::new();
        ctx.auto(move |target, func, args| match (target, func) {
            (names::NINEPFS, np::MOUNT) => Ok(Value::Unit),
            (names::NINEPFS, np::LOOKUP) => Ok(Value::U64(100)),
            (names::NINEPFS, np::OPEN) => Ok(Value::Unit),
            (names::NINEPFS, np::CLOSE) | (names::NINEPFS, np::INACTIVE) => Ok(Value::Unit),
            (names::NINEPFS, np::READ) => {
                let max = args[2].as_u64().unwrap() as usize;
                Ok(Value::Bytes(vec![b'x'; max.min(4)]))
            }
            (names::NINEPFS, np::WRITE) => Ok(Value::U64(args[2].as_bytes().unwrap().len() as u64)),
            (names::NINEPFS, np::STAT_FID) => Ok(Value::List(vec![Value::U64(40)])),
            (names::NINEPFS, np::FSYNC) => Ok(Value::Unit),
            (names::LWIP, lw::SOCKET) => Ok(Value::U64(7)),
            (names::LWIP, lw::ACCEPT) => Ok(Value::U64(8)),
            (names::LWIP, lw::SEND) => Ok(Value::U64(args[1].as_bytes().unwrap().len() as u64)),
            (names::LWIP, lw::RECV) => Ok(Value::Bytes(b"net".to_vec())),
            (names::LWIP, _) => Ok(Value::Unit),
            other => panic!("unexpected downcall {other:?}"),
        });
        ctx
    }

    fn mounted() -> (Vfs, StubCtx) {
        let mut vfs = Vfs::new();
        let mut ctx = fs_ctx();
        vfs.call(
            &mut ctx,
            id::MOUNT,
            &[Value::from("9pfs"), Value::from("/")],
        )
        .unwrap();
        (vfs, ctx)
    }

    #[test]
    fn open_allocates_fd_and_vnode() {
        let (mut vfs, mut ctx) = mounted();
        let fd = vfs
            .call(
                &mut ctx,
                id::OPEN,
                &[Value::from("/a"), Value::U64(OpenFlags::RDWR.bits() as u64)],
            )
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(fd, FIRST_FD);
        assert_eq!(vfs.open_fds(), 1);
        assert_eq!(vfs.vnode_count(), 1);
        assert_eq!(vfs.offset_of(fd), Some(0));
    }

    #[test]
    fn open_without_mount_fails() {
        let mut vfs = Vfs::new();
        let mut ctx = fs_ctx();
        assert!(matches!(
            vfs.call(&mut ctx, id::OPEN, &[Value::from("/a"), Value::U64(0)]),
            Err(OsError::Io(_))
        ));
    }

    #[test]
    fn sequential_reads_advance_the_offset() {
        let (mut vfs, mut ctx) = mounted();
        let fd = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/a"), Value::U64(0)])
            .unwrap()
            .as_u64()
            .unwrap();
        vfs.call(&mut ctx, id::READ, &[Value::U64(fd), Value::U64(4)])
            .unwrap();
        vfs.call(&mut ctx, id::READ, &[Value::U64(fd), Value::U64(4)])
            .unwrap();
        assert_eq!(vfs.offset_of(fd), Some(8));
    }

    #[test]
    fn pread_pwrite_leave_offset_alone() {
        let (mut vfs, mut ctx) = mounted();
        let fd = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/a"), Value::U64(0)])
            .unwrap()
            .as_u64()
            .unwrap();
        vfs.call(
            &mut ctx,
            id::PREAD,
            &[Value::U64(fd), Value::U64(4), Value::U64(10)],
        )
        .unwrap();
        vfs.call(
            &mut ctx,
            id::PWRITE,
            &[
                Value::U64(fd),
                Value::from(b"zz".as_slice()),
                Value::U64(20),
            ],
        )
        .unwrap();
        assert_eq!(vfs.offset_of(fd), Some(0));
    }

    #[test]
    fn lseek_all_whences() {
        let (mut vfs, mut ctx) = mounted();
        let fd = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/a"), Value::U64(0)])
            .unwrap()
            .as_u64()
            .unwrap();
        let at = vfs
            .call(
                &mut ctx,
                id::LSEEK,
                &[Value::U64(fd), Value::I64(5), Value::U64(SEEK_SET)],
            )
            .unwrap();
        assert_eq!(at, Value::U64(5));
        let at = vfs
            .call(
                &mut ctx,
                id::LSEEK,
                &[Value::U64(fd), Value::I64(3), Value::U64(SEEK_CUR)],
            )
            .unwrap();
        assert_eq!(at, Value::U64(8));
        // SEEK_END consults 9PFS stat (scripted length 40).
        let at = vfs
            .call(
                &mut ctx,
                id::LSEEK,
                &[Value::U64(fd), Value::I64(-4), Value::U64(SEEK_END)],
            )
            .unwrap();
        assert_eq!(at, Value::U64(36));
    }

    #[test]
    fn append_mode_writes_at_end() {
        let (mut vfs, mut ctx) = mounted();
        let fd = vfs
            .call(
                &mut ctx,
                id::OPEN,
                &[
                    Value::from("/log"),
                    Value::U64((OpenFlags::WRONLY | OpenFlags::APPEND).bits() as u64),
                ],
            )
            .unwrap()
            .as_u64()
            .unwrap();
        // Scripted file length is 40; APPEND opens at 40 and writes there.
        assert_eq!(vfs.offset_of(fd), Some(40));
        vfs.call(
            &mut ctx,
            id::WRITE,
            &[Value::U64(fd), Value::from(b"abc".as_slice())],
        )
        .unwrap();
        assert_eq!(vfs.offset_of(fd), Some(43));
    }

    #[test]
    fn writev_concatenates() {
        let (mut vfs, mut ctx) = mounted();
        let fd = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/a"), Value::U64(0)])
            .unwrap()
            .as_u64()
            .unwrap();
        let n = vfs
            .call(
                &mut ctx,
                id::WRITEV,
                &[
                    Value::U64(fd),
                    Value::List(vec![
                        Value::from(b"ab".as_slice()),
                        Value::from(b"cde".as_slice()),
                    ]),
                ],
            )
            .unwrap();
        assert_eq!(n, Value::U64(5));
        assert_eq!(vfs.offset_of(fd), Some(5));
    }

    #[test]
    fn close_retires_fd_and_vnode_sessions() {
        let (mut vfs, mut ctx) = mounted();
        let fd = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/a"), Value::U64(0)])
            .unwrap()
            .as_u64()
            .unwrap();
        vfs.call(&mut ctx, id::CLOSE, &[Value::U64(fd)]).unwrap();
        let ev = vfs.session_event(id::CLOSE, &[Value::U64(fd)], &Value::Unit);
        match ev {
            SessionEvent::Close(sessions) => {
                assert!(sessions.contains(&fd));
                assert!(sessions.iter().any(|s| s & VNODE_SESSION_NS != 0));
            }
            other => panic!("expected Close, got {other:?}"),
        }
        assert_eq!(vfs.open_fds(), 0);
        assert_eq!(vfs.vnode_count(), 0);
    }

    #[test]
    fn two_opens_share_a_vnode_until_both_close() {
        let (mut vfs, mut ctx) = mounted();
        let a = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/a"), Value::U64(0)])
            .unwrap()
            .as_u64()
            .unwrap();
        let b = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/a"), Value::U64(0)])
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(vfs.vnode_count(), 1);
        vfs.call(&mut ctx, id::CLOSE, &[Value::U64(a)]).unwrap();
        assert_eq!(vfs.vnode_count(), 1);
        vfs.call(&mut ctx, id::CLOSE, &[Value::U64(b)]).unwrap();
        assert_eq!(vfs.vnode_count(), 0);
    }

    #[test]
    fn pipes_buffer_and_deliver() {
        let (mut vfs, mut ctx) = mounted();
        let fds = vfs.call(&mut ctx, id::PIPE, &[]).unwrap();
        let (r, w) = match fds.as_list().unwrap() {
            [r, w] => (r.as_u64().unwrap(), w.as_u64().unwrap()),
            _ => panic!("pipe should return two fds"),
        };
        vfs.call(
            &mut ctx,
            id::WRITE,
            &[Value::U64(w), Value::from(b"ping".as_slice())],
        )
        .unwrap();
        let got = vfs
            .call(&mut ctx, id::READ, &[Value::U64(r), Value::U64(64)])
            .unwrap();
        assert_eq!(got.as_bytes().unwrap(), b"ping");
        // Empty pipe: would block.
        assert_eq!(
            vfs.call(&mut ctx, id::READ, &[Value::U64(r), Value::U64(4)]),
            Err(OsError::WouldBlock)
        );
        // Reading the write end / writing the read end is an error.
        assert_eq!(
            vfs.call(&mut ctx, id::READ, &[Value::U64(w), Value::U64(4)]),
            Err(OsError::BadFd)
        );
    }

    #[test]
    fn pipe_buffers_survive_via_runtime_extract() {
        let (mut vfs, mut ctx) = mounted();
        let fds = vfs.call(&mut ctx, id::PIPE, &[]).unwrap();
        let w = fds.as_list().unwrap()[1].as_u64().unwrap();
        vfs.call(
            &mut ctx,
            id::WRITE,
            &[Value::U64(w), Value::from(b"inflight".as_slice())],
        )
        .unwrap();
        let extract = vfs.extract_runtime().unwrap();
        let mut fresh = Vfs::new();
        assert!(fresh.extract_runtime().is_none(), "no pipes, no data");
        assert!(matches!(
            fresh.restore_runtime(Box::new(()), ctx.arena()),
            Err(OsError::ReplayMismatch { .. })
        ));
        fresh.restore_runtime(extract, ctx.arena()).unwrap();
        assert_eq!(fresh.pipes.get(&1).unwrap().len(), 8);
    }

    #[test]
    fn sockets_flow_through_lwip() {
        let (mut vfs, mut ctx) = mounted();
        let fd = vfs
            .call(&mut ctx, id::ALLOC_SOCKET, &[])
            .unwrap()
            .as_u64()
            .unwrap();
        vfs.call(&mut ctx, id::BIND, &[Value::U64(fd), Value::U64(80)])
            .unwrap();
        vfs.call(&mut ctx, id::LISTEN, &[Value::U64(fd), Value::U64(8)])
            .unwrap();
        let conn_fd = vfs
            .call(&mut ctx, id::ALLOC_SOCKET, &[Value::U64(fd)])
            .unwrap()
            .as_u64()
            .unwrap();
        assert_ne!(conn_fd, fd);
        let got = vfs
            .call(&mut ctx, id::READ, &[Value::U64(conn_fd), Value::U64(64)])
            .unwrap();
        assert_eq!(got.as_bytes().unwrap(), b"net");
        let n = vfs
            .call(
                &mut ctx,
                id::WRITE,
                &[Value::U64(conn_fd), Value::from(b"pong".as_slice())],
            )
            .unwrap();
        assert_eq!(n, Value::U64(4));
    }

    #[test]
    fn fcntl_round_trips_status_flags() {
        let (mut vfs, mut ctx) = mounted();
        let fd = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/a"), Value::U64(2)])
            .unwrap()
            .as_u64()
            .unwrap();
        vfs.call(
            &mut ctx,
            id::FCNTL,
            &[Value::U64(fd), Value::U64(F_SETFL), Value::U64(0x800)],
        )
        .unwrap();
        assert_eq!(
            vfs.call(&mut ctx, id::FCNTL, &[Value::U64(fd), Value::U64(F_GETFL)])
                .unwrap(),
            Value::U64(0x800)
        );
    }

    #[test]
    fn replay_hint_restores_original_fd_numbers() {
        let (mut vfs, mut ctx) = mounted();
        // Original: fd 3 opened, closed, fd 3 reopened for another file,
        // leaving fd 3 live. After shrinking only the second open remains.
        ctx.set_replay(Some(Value::U64(3)));
        let fd = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/b"), Value::U64(0)])
            .unwrap();
        assert_eq!(fd, Value::U64(3));
        ctx.clear_replay();
        vfs.finish_replay();
        // New allocations continue above.
        let fd2 = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/c"), Value::U64(0)])
            .unwrap();
        assert_eq!(fd2, Value::U64(4));
    }

    #[test]
    fn synthesize_touch_summarises_file_sessions() {
        let (mut vfs, mut ctx) = mounted();
        let fd = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/a"), Value::U64(0)])
            .unwrap()
            .as_u64()
            .unwrap();
        vfs.call(&mut ctx, id::READ, &[Value::U64(fd), Value::U64(4)])
            .unwrap();
        match vfs.synthesize_touch(fd) {
            TouchSynthesis::Replace { func, args, .. } => {
                assert_eq!(func, f::SET_OFFSET);
                assert_eq!(args[1], Value::U64(4));
            }
            other => panic!("expected Replace, got {other:?}"),
        }
        // Socket sessions drop their touches.
        let sfd = vfs
            .call(&mut ctx, id::ALLOC_SOCKET, &[])
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(vfs.synthesize_touch(sfd), TouchSynthesis::Drop);
        // Unknown sessions are kept.
        assert_eq!(vfs.synthesize_touch(999), TouchSynthesis::Keep);
    }

    #[test]
    fn set_offset_applies_synthetic_state() {
        let (mut vfs, mut ctx) = mounted();
        let fd = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/a"), Value::U64(0)])
            .unwrap()
            .as_u64()
            .unwrap();
        vfs.call(
            &mut ctx,
            id::SET_OFFSET,
            &[Value::U64(fd), Value::U64(1234)],
        )
        .unwrap();
        assert_eq!(vfs.offset_of(fd), Some(1234));
    }

    #[test]
    fn state_digest_reflects_fd_table() {
        let (mut vfs, mut ctx) = mounted();
        let d0 = vfs.state_digest();
        let fd = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/a"), Value::U64(0)])
            .unwrap()
            .as_u64()
            .unwrap();
        assert_ne!(vfs.state_digest(), d0);
        vfs.call(&mut ctx, id::CLOSE, &[Value::U64(fd)]).unwrap();
        assert_eq!(vfs.state_digest(), d0);
    }

    #[test]
    fn vget_sessions_distinguish_new_from_reused() {
        let (mut vfs, mut ctx) = mounted();
        let v = vfs.call(&mut ctx, id::VGET, &[Value::from("/a")]).unwrap();
        assert_eq!(
            vfs.session_event(id::VGET, &[Value::from("/a")], &v),
            SessionEvent::Open(vec![VNODE_SESSION_NS | v.as_u64().unwrap()])
        );
        let v2 = vfs.call(&mut ctx, id::VGET, &[Value::from("/a")]).unwrap();
        assert_eq!(v, v2);
        assert_eq!(
            vfs.session_event(id::VGET, &[Value::from("/a")], &v2),
            SessionEvent::Touch(VNODE_SESSION_NS | v2.as_u64().unwrap())
        );
    }

    #[test]
    fn poll_ready_partitions_fd_kinds() {
        let (mut vfs, mut ctx) = mounted();
        let file_fd = vfs
            .call(&mut ctx, id::OPEN, &[Value::from("/a"), Value::U64(0)])
            .unwrap()
            .as_u64()
            .unwrap();
        let pipe_fds = vfs.call(&mut ctx, id::PIPE, &[]).unwrap();
        let (r, w) = match pipe_fds.as_list().unwrap() {
            [r, w] => (r.as_u64().unwrap(), w.as_u64().unwrap()),
            _ => unreachable!(),
        };
        // Files are always ready; an empty pipe read end is not; unknown
        // fds are skipped; no LWIP query happens without socket fds.
        ctx.clear_calls();
        let ready = vfs
            .call(
                &mut ctx,
                id::POLL_READY,
                &[Value::List(vec![
                    Value::U64(file_fd),
                    Value::U64(r),
                    Value::U64(999),
                ])],
            )
            .unwrap();
        assert_eq!(ready, Value::List(vec![Value::U64(file_fd)]));
        assert!(
            ctx.calls().is_empty(),
            "no downcall for file/pipe readiness"
        );

        // After a write, the pipe read end is ready.
        vfs.call(
            &mut ctx,
            id::WRITE,
            &[Value::U64(w), Value::from(b"x".as_slice())],
        )
        .unwrap();
        let ready = vfs
            .call(
                &mut ctx,
                id::POLL_READY,
                &[Value::List(vec![Value::U64(r)])],
            )
            .unwrap();
        assert_eq!(ready, Value::List(vec![Value::U64(r)]));
    }

    #[test]
    fn poll_ready_maps_socket_readiness_back_to_fds() {
        let (mut vfs, mut ctx) = mounted();
        let sfd = vfs
            .call(&mut ctx, id::ALLOC_SOCKET, &[])
            .unwrap()
            .as_u64()
            .unwrap();
        // The stub LWIP answers every downcall; its generic Unit response
        // to `ready` means "no list", so craft a scripted ctx instead.
        let mut ctx2 = crate::testutil::StubCtx::new();
        ctx2.auto(move |_t, func, args| match func {
            lw::READY => {
                // Echo the queried sock ids back as all-ready.
                Ok(args[0].clone())
            }
            _ => Ok(Value::U64(7)),
        });
        let ready = vfs
            .call(
                &mut ctx2,
                id::POLL_READY,
                &[Value::List(vec![Value::U64(sfd)])],
            )
            .unwrap();
        assert_eq!(ready, Value::List(vec![Value::U64(sfd)]));
    }

    #[test]
    fn unknown_function_is_rejected() {
        let vfs = Vfs::new();
        for (i, func) in f::FUNCTIONS.iter().enumerate() {
            assert_eq!(vfs.descriptor().fn_id(func.name), Some(FnId(i as u16)));
        }
        assert!(vfs.descriptor().fn_id("chmod").is_none());
    }
}
