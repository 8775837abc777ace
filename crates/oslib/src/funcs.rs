//! The components' interfaces (the functions Table II lists), one module
//! per component, each declared with [`vampos_ukernel::interface!`].
//!
//! A module's name constants are the symbols callers link against: a call
//! site names its target function by one, and the runtime resolves it to
//! the callee's slot and [`FnId`](vampos_ukernel::FnId) once, when it links
//! the system. The module's `id` constants are the same functions as those
//! numbers, which the component dispatches on; `FUNCTIONS` is its
//! descriptor's interface table. Each function of a stateful component is
//! either `logged` (Table II), with its session role, or `replay_safe`, and
//! the entry says why.

/// VFS interface functions.
pub mod vfs {
    vampos_ukernel::interface! {
        /// `create(path)` — create + open a file.
        CREATE = "create": logged, opens;
        /// `open(path, flags)`.
        OPEN = "open": logged, opens;
        /// `read(fd, max)`.
        READ = "read": logged, touches;
        /// `pread(fd, max, offset)`.
        PREAD = "pread": logged, touches;
        /// `write(fd, bytes)`.
        WRITE = "write": logged, touches;
        /// `pwrite(fd, bytes, offset)`.
        PWRITE = "pwrite": logged, touches;
        /// `writev(fd, [bytes...])`.
        WRITEV = "writev": logged, touches;
        /// `lseek(fd, offset, whence)`.
        LSEEK = "lseek": logged, touches;
        /// `close(fd)` — closes the fd's session and, with its last
        /// reference, the vnode's.
        CLOSE = "close": logged, custom;
        /// `mount(fstype, path)`.
        MOUNT = "mount": logged;
        /// `fcntl(fd, cmd, arg)`.
        FCNTL = "fcntl": logged, touches;
        /// `ioctl(fd, cmd, arg)`.
        IOCTL = "ioctl": logged, touches;
        /// `pipe()` — returns a read/write fd pair, opening both.
        PIPE = "pipe": logged, custom;
        /// `fsync(fd)`.
        FSYNC = "fsync": logged, touches;
        /// `vfscore_vget(path)` — pin a vnode: opens its session on the
        /// first pin, touches it on later ones.
        VGET = "vfscore_vget": logged, custom;
        /// `vfs_alloc_socket([listen_fd])` — socket create / accept.
        ALLOC_SOCKET = "vfs_alloc_socket": logged, opens;
        /// `fstat(fd)` — state-unchanged, never logged.
        FSTAT = "fstat": replay_safe;
        /// `stat(path)` — state-unchanged, never logged.
        STAT = "stat": replay_safe;
        /// `unlink(path)` — mutates host-owned state only.
        UNLINK = "unlink": replay_safe;
        /// `bind(fd, port)` — socket passthrough to LWIP, which keeps (and
        /// logs) the socket's state, like the passthroughs below.
        BIND = "bind": replay_safe;
        /// `listen(fd, backlog)` — socket passthrough.
        LISTEN = "listen": replay_safe;
        /// `connect(fd, port)` — socket passthrough.
        CONNECT = "connect": replay_safe;
        /// `shutdown(fd, how)` — socket passthrough.
        SHUTDOWN = "shutdown": replay_safe;
        /// `getsockopt(fd, opt)` — socket passthrough.
        GETSOCKOPT = "getsockopt": replay_safe;
        /// `setsockopt(fd, opt, val)` — socket passthrough.
        SETSOCKOPT = "setsockopt": replay_safe;
        /// `vfs_set_offset(fd, offset)` — synthetic entry emitted by log
        /// compaction itself; replays an fd's offset without the read/write
        /// history.
        SET_OFFSET = "vfs_set_offset": replay_safe;
        /// `poll_ready([fds])` — readiness query (epoll-style); state-unchanged,
        /// never logged.
        POLL_READY = "poll_ready": replay_safe;
    }
}

/// 9PFS interface functions.
pub mod ninepfs {
    vampos_ukernel::interface! {
        /// `mount(path)` — attach to the host share.
        MOUNT = "uk_9pfs_mount": logged;
        /// `unmount()`.
        UNMOUNT = "uk_9pfs_unmount": logged;
        /// `lookup(path, create)` — resolve (or create) a path to a fid.
        LOOKUP = "uk_9pfs_lookup": logged, opens;
        /// `open(fid, truncate)`.
        OPEN = "uk_9pfs_open": logged, touches;
        /// `close(fid)` — clunk the host fid.
        CLOSE = "uk_9pfs_close": logged, touches;
        /// `inactive(fid)` — drop the guest-side fid entry.
        INACTIVE = "uk_9pfs_inactive": logged, closes;
        /// `mkdir(path)`.
        MKDIR = "uk_9pfs_mkdir": logged;
        /// `read(fid, offset, max)` — unlogged: the data path keeps no
        /// component state (offsets live in VFS, contents on the host).
        READ = "uk_9pfs_read": replay_safe;
        /// `write(fid, offset, bytes)` — unlogged data path.
        WRITE = "uk_9pfs_write": replay_safe;
        /// `fsync(fid)` — unlogged data path.
        FSYNC = "uk_9pfs_fsync": replay_safe;
        /// `stat_fid(fid)` — unlogged, read-only.
        STAT_FID = "uk_9pfs_stat_fid": replay_safe;
        /// `stat_path(path)` — unlogged, read-only.
        STAT_PATH = "uk_9pfs_stat_path": replay_safe;
        /// `remove_path(path)` — unlogged (host state, not component state).
        REMOVE_PATH = "uk_9pfs_remove_path": replay_safe;
    }
}

/// LWIP interface functions.
pub mod lwip {
    vampos_ukernel::interface! {
        /// `socket()`.
        SOCKET = "socket": logged, opens;
        /// `bind(sock, port)`.
        BIND = "bind": logged, touches;
        /// `listen(sock, backlog)`.
        LISTEN = "listen": logged, touches;
        /// `connect(sock, port)`.
        CONNECT = "connect": logged, touches;
        /// `getsockopt(sock, opt)`.
        GETSOCKOPT = "getsockopt": logged, touches;
        /// `setsockopt(sock, opt, val)`.
        SETSOCKOPT = "setsockopt": logged, touches;
        /// `shutdown(sock, how)`.
        SHUTDOWN = "shutdown": logged, touches;
        /// `sock_net_close(sock)`.
        CLOSE = "sock_net_close": logged, closes;
        /// `sock_net_ioctl(sock, cmd, arg)`.
        IOCTL = "sock_net_ioctl": logged, touches;
        /// `accept(sock)` — unlogged; accepted connections are restored from
        /// LWIP's runtime-data extraction instead (TCP control blocks, §V-B),
        /// like the state `recv` and `send` change.
        ACCEPT = "accept": replay_safe;
        /// `recv(sock, max)` — unlogged.
        RECV = "recv": replay_safe;
        /// `send(sock, bytes)` — unlogged.
        SEND = "send": replay_safe;
        /// `poll()` — pump frames from NETDEV; unlogged, and the frames'
        /// effects are runtime data.
        POLL = "poll": replay_safe;
        /// `ready([socks])` — readiness query over sockets; unlogged.
        READY = "ready": replay_safe;
    }
}

/// NETDEV interface functions.
pub mod netdev {
    vampos_ukernel::interface! {
        /// `tx(frame)`.
        TX = "tx";
        /// `rx()` — poll one frame.
        RX = "rx";
        /// `rx_batch()` — poll all pending frames at once (drivers batch).
        RX_BATCH = "rx_batch";
    }
}

/// VIRTIO interface functions.
pub mod virtio {
    vampos_ukernel::interface! {
        /// `ninep(request)` — one 9P transaction.
        NINEP = "ninep";
        /// `net_tx(frame)`.
        NET_TX = "net_tx";
        /// `net_rx()`.
        NET_RX = "net_rx";
        /// `net_rx_batch()` — drain every pending RX frame in one transaction.
        NET_RX_BATCH = "net_rx_batch";
    }
}

/// PROCESS interface functions.
pub mod process {
    vampos_ukernel::interface! {
        /// `getpid()`.
        GETPID = "getpid";
        /// `getppid()`.
        GETPPID = "getppid";
        /// `gettid()`.
        GETTID = "gettid";
    }
}

/// SYSINFO interface functions.
pub mod sysinfo {
    vampos_ukernel::interface! {
        /// `uname()`.
        UNAME = "uname";
        /// `sysinfo()`.
        SYSINFO = "sysinfo";
        /// `gethostname()`.
        GETHOSTNAME = "gethostname";
    }
}

/// USER interface functions.
pub mod user {
    vampos_ukernel::interface! {
        /// `getuid()`.
        GETUID = "getuid";
        /// `geteuid()`.
        GETEUID = "geteuid";
        /// `getgid()`.
        GETGID = "getgid";
        /// `getegid()`.
        GETEGID = "getegid";
    }
}

/// TIMER interface functions.
pub mod timer {
    vampos_ukernel::interface! {
        /// `clock_gettime()`.
        CLOCK_GETTIME = "clock_gettime";
        /// `time()`.
        TIME = "time";
        /// `nanosleep(ns)`.
        NANOSLEEP = "nanosleep";
    }
}
