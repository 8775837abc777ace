//! The components' interfaces (the functions Table II lists), one module
//! per component, each declared with [`vampos_ukernel::interface!`].
//!
//! A module's name constants are the symbols callers link against: a call
//! site names its target function by one, and the runtime resolves it to
//! the callee's slot and [`FnId`](vampos_ukernel::FnId) once, when it links
//! the system. The module's `id` constants are the same functions as those
//! numbers, which the component dispatches on; `FUNCTIONS` is its
//! descriptor's function table.

/// VFS interface functions.
pub mod vfs {
    vampos_ukernel::interface! {
        /// `create(path)` — create + open a file.
        CREATE = "create";
        /// `open(path, flags)`.
        OPEN = "open";
        /// `read(fd, max)`.
        READ = "read";
        /// `pread(fd, max, offset)`.
        PREAD = "pread";
        /// `write(fd, bytes)`.
        WRITE = "write";
        /// `pwrite(fd, bytes, offset)`.
        PWRITE = "pwrite";
        /// `writev(fd, [bytes...])`.
        WRITEV = "writev";
        /// `lseek(fd, offset, whence)`.
        LSEEK = "lseek";
        /// `close(fd)`.
        CLOSE = "close";
        /// `mount(fstype, path)`.
        MOUNT = "mount";
        /// `fcntl(fd, cmd, arg)`.
        FCNTL = "fcntl";
        /// `ioctl(fd, cmd, arg)`.
        IOCTL = "ioctl";
        /// `pipe()` — returns a read/write fd pair.
        PIPE = "pipe";
        /// `fsync(fd)`.
        FSYNC = "fsync";
        /// `vfscore_vget(path)` — pin a vnode.
        VGET = "vfscore_vget";
        /// `vfs_alloc_socket([listen_fd])` — socket create / accept.
        ALLOC_SOCKET = "vfs_alloc_socket";
        /// `fstat(fd)` — state-unchanged, never logged.
        FSTAT = "fstat";
        /// `stat(path)` — state-unchanged, never logged.
        STAT = "stat";
        /// `unlink(path)`.
        UNLINK = "unlink";
        /// `bind(fd, port)` — socket passthrough to LWIP.
        BIND = "bind";
        /// `listen(fd, backlog)` — socket passthrough.
        LISTEN = "listen";
        /// `connect(fd, port)` — socket passthrough.
        CONNECT = "connect";
        /// `shutdown(fd, how)` — socket passthrough.
        SHUTDOWN = "shutdown";
        /// `getsockopt(fd, opt)` — socket passthrough.
        GETSOCKOPT = "getsockopt";
        /// `setsockopt(fd, opt, val)` — socket passthrough.
        SETSOCKOPT = "setsockopt";
        /// `vfs_set_offset(fd, offset)` — synthetic entry emitted by log
        /// compaction; replays an fd's offset without the read/write history.
        SET_OFFSET = "vfs_set_offset";
        /// `poll_ready([fds])` — readiness query (epoll-style); state-unchanged,
        /// never logged.
        POLL_READY = "poll_ready";
    }
}

/// 9PFS interface functions.
pub mod ninepfs {
    vampos_ukernel::interface! {
        /// `mount(path)` — attach to the host share.
        MOUNT = "uk_9pfs_mount";
        /// `unmount()`.
        UNMOUNT = "uk_9pfs_unmount";
        /// `lookup(path, create)` — resolve (or create) a path to a fid.
        LOOKUP = "uk_9pfs_lookup";
        /// `open(fid, truncate)`.
        OPEN = "uk_9pfs_open";
        /// `close(fid)` — clunk the host fid.
        CLOSE = "uk_9pfs_close";
        /// `inactive(fid)` — drop the guest-side fid entry.
        INACTIVE = "uk_9pfs_inactive";
        /// `mkdir(path)`.
        MKDIR = "uk_9pfs_mkdir";
        /// `read(fid, offset, max)` — unlogged (offsets live in VFS).
        READ = "uk_9pfs_read";
        /// `write(fid, offset, bytes)` — unlogged.
        WRITE = "uk_9pfs_write";
        /// `fsync(fid)` — unlogged.
        FSYNC = "uk_9pfs_fsync";
        /// `stat_fid(fid)` — unlogged.
        STAT_FID = "uk_9pfs_stat_fid";
        /// `stat_path(path)` — unlogged.
        STAT_PATH = "uk_9pfs_stat_path";
        /// `remove_path(path)` — unlogged (host state, not component state).
        REMOVE_PATH = "uk_9pfs_remove_path";
    }
}

/// LWIP interface functions.
pub mod lwip {
    vampos_ukernel::interface! {
        /// `socket()`.
        SOCKET = "socket";
        /// `bind(sock, port)`.
        BIND = "bind";
        /// `listen(sock, backlog)`.
        LISTEN = "listen";
        /// `connect(sock, port)`.
        CONNECT = "connect";
        /// `getsockopt(sock, opt)`.
        GETSOCKOPT = "getsockopt";
        /// `setsockopt(sock, opt, val)`.
        SETSOCKOPT = "setsockopt";
        /// `shutdown(sock, how)`.
        SHUTDOWN = "shutdown";
        /// `sock_net_close(sock)`.
        CLOSE = "sock_net_close";
        /// `sock_net_ioctl(sock, cmd, arg)`.
        IOCTL = "sock_net_ioctl";
        /// `accept(sock)` — unlogged; accepted connections are restored from
        /// LWIP's runtime-data extraction instead.
        ACCEPT = "accept";
        /// `recv(sock, max)` — unlogged.
        RECV = "recv";
        /// `send(sock, bytes)` — unlogged.
        SEND = "send";
        /// `poll()` — pump frames from NETDEV; unlogged.
        POLL = "poll";
        /// `ready([socks])` — readiness query over sockets; unlogged.
        READY = "ready";
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
