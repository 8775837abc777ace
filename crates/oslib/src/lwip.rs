//! LWIP: the TCP/IP protocol stack.
//!
//! A real (if simplified) TCP server implementation: listening sockets with
//! backlogs, SYN/SYN-ACK/ACK handshakes, byte-counted sequence numbers,
//! in-order delivery with RST on violations, FIN teardown. Frames travel
//! through NETDEV → VIRTIO → the host's network peer.
//!
//! LWIP is the paper's example of a component whose state cannot be restored
//! by log replay alone (§V-B): "packet sequence numbers and ACK numbers in
//! TCP connections … are given at runtime and updated via interactions with
//! external communication partners." Replay rebuilds the socket *skeleton*
//! (the logged `socket`/`bind`/`listen`/`setsockopt` calls of Table II);
//! [`Lwip::extract_runtime`] moves the live connection state — sequence/ACK
//! numbers, established tuples, buffered bytes — out of the discarded stack
//! as one typed value, and [`Lwip::restore_runtime`] moves it into the
//! rebooted one. The external peer will RST any connection whose numbers
//! come back wrong, which is exactly how the integration tests verify this
//! mechanism.
//!
//! LWIP is also hang-exempt (§V-A): it legitimately waits on external
//! events, so the heart-beat hang detector must skip it.

use std::collections::{BTreeMap, VecDeque};

use vampos_host::{take_front, Frame, TcpFlags};
use vampos_mem::{AllocHandle, ArenaLayout, MemoryArena};
use vampos_ukernel::{
    names, CallContext, Component, ComponentDescriptor, FnId, OsError, RuntimeData, Value,
};

use crate::funcs::lwip::{self as f, id};
use crate::funcs::netdev as nd;

vampos_ukernel::call_sites! {
    ND_TX = names::NETDEV, nd::TX;
    ND_RX_BATCH = names::NETDEV, nd::RX_BATCH;
}

/// `ioctl` command: set/clear non-blocking mode.
pub const FIONBIO: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SockState {
    Created,
    Bound,
    Listening,
    SynRcvd,
    Established,
    Closed,
    Reset,
}

#[derive(Debug, Clone, Hash)]
struct Sock {
    state: SockState,
    local_port: u16,
    remote_port: u16,
    snd_nxt: u32,
    rcv_nxt: u32,
    snd_una: u32,
    recv_buf: VecDeque<u8>,
    peer_closed: bool,
    nonblock: bool,
    backlog: usize,
    accept_q: VecDeque<u64>,
    opts: BTreeMap<u64, u64>,
    alloc: Option<AllocHandle>,
}

impl Sock {
    fn new(alloc: Option<AllocHandle>) -> Self {
        Sock {
            state: SockState::Created,
            local_port: 0,
            remote_port: 0,
            snd_nxt: 0,
            rcv_nxt: 0,
            snd_una: 0,
            recv_buf: VecDeque::new(),
            peer_closed: false,
            nonblock: false,
            backlog: 0,
            accept_q: VecDeque::new(),
            opts: BTreeMap::new(),
            alloc,
        }
    }
}

/// LWIP's runtime data (§V-B): the TCP state no logged call recreates.
/// The connection index moves whole: a socket's entry follows the frames
/// it has seen, not its state alone (a `shutdown` socket keeps its entry
/// until the peer's next frame).
struct LwipRuntime {
    iss_next: u32,
    socks: BTreeMap<u64, Sock>,
    conns: BTreeMap<(u16, u16), u64>,
}

/// The LWIP component.
#[derive(Debug, Clone, Hash)]
pub struct Lwip {
    desc: ComponentDescriptor,
    socks: BTreeMap<u64, Sock>,
    listeners: BTreeMap<u16, u64>,
    conns: BTreeMap<(u16, u16), u64>,
    iss_next: u32,
}

impl Default for Lwip {
    fn default() -> Self {
        Self::new()
    }
}

impl Lwip {
    /// Creates the component.
    pub fn new() -> Self {
        Lwip {
            desc: ComponentDescriptor::new(names::LWIP, ArenaLayout::large())
                .stateful()
                .checkpoint_init()
                .hang_exempt()
                .interface(f::FUNCTIONS)
                .depends_on(&[names::NETDEV])
                .calls(CALLS),
            socks: BTreeMap::new(),
            listeners: BTreeMap::new(),
            conns: BTreeMap::new(),
            iss_next: 70_000,
        }
    }

    /// Number of live sockets.
    pub fn live_sockets(&self) -> usize {
        self.socks.len()
    }

    /// Number of established connections.
    pub fn established(&self) -> usize {
        self.socks
            .values()
            .filter(|s| s.state == SockState::Established)
            .count()
    }

    fn alloc_sock(&mut self, ctx: &dyn CallContext) -> Result<u64, OsError> {
        if let Some(hint) = ctx.replay_hint() {
            let id = hint.as_u64()?;
            if self.socks.contains_key(&id) {
                return Err(OsError::ReplayMismatch {
                    component: names::LWIP.to_owned(),
                    detail: format!("socket {id} already live during replay"),
                });
            }
            return Ok(id);
        }
        Ok(self.lowest_free_sock())
    }

    /// Lowest free socket id — a pure function of the socket table, so
    /// allocation reproduces across reboots and log shrinking.
    fn lowest_free_sock(&self) -> u64 {
        (1..)
            .find(|id| !self.socks.contains_key(id))
            .expect("socket space")
    }

    fn next_iss(&mut self) -> u32 {
        let iss = self.iss_next;
        self.iss_next = self.iss_next.wrapping_add(100_000);
        iss
    }

    fn tx(&self, ctx: &mut dyn CallContext, frame: Frame) -> Result<(), OsError> {
        ctx.invoke(ND_TX, &[Value::Frame(Some(frame))])?;
        Ok(())
    }

    fn send_rst(&self, ctx: &mut dyn CallContext, to: &Frame) -> Result<(), OsError> {
        let rst = Frame {
            src_port: to.dst_port,
            dst_port: to.src_port,
            seq: to.ack,
            ack: 0,
            flags: TcpFlags::RST,
            payload: Vec::new(),
        };
        self.tx(ctx, rst)
    }

    /// Drains and processes every frame queued on the RX path. Uses the
    /// batched driver interface: one message hop harvests all pending
    /// frames, and the loop repeats until the wire is quiet (processing a
    /// frame may elicit an immediate reply from the peer).
    fn pump(&mut self, ctx: &mut dyn CallContext) -> Result<(), OsError> {
        loop {
            let frames = ctx.invoke(ND_RX_BATCH, &[])?.into_list()?;
            if frames.is_empty() {
                return Ok(());
            }
            for item in frames {
                match item {
                    Value::Frame(Some(frame)) => self.handle_frame(ctx, frame)?,
                    Value::Frame(None) => {}
                    other => return Err(OsError::bad_value("frame", &other)),
                }
            }
        }
    }

    fn handle_frame(&mut self, ctx: &mut dyn CallContext, frame: Frame) -> Result<(), OsError> {
        let key = (frame.dst_port, frame.src_port);
        if let Some(&sid) = self.conns.get(&key) {
            return self.handle_conn_frame(ctx, sid, frame);
        }
        if frame.flags.syn && !frame.flags.ack {
            if let Some(&lid) = self.listeners.get(&frame.dst_port) {
                return self.handle_syn(ctx, lid, frame);
            }
        }
        if !frame.flags.rst {
            self.send_rst(ctx, &frame)?;
        }
        Ok(())
    }

    fn handle_syn(
        &mut self,
        ctx: &mut dyn CallContext,
        listener: u64,
        frame: Frame,
    ) -> Result<(), OsError> {
        // Backlog: count not-yet-accepted connections for this listener.
        let l = self.socks.get(&listener).ok_or(OsError::BadFd)?;
        let pending = l.accept_q.len()
            + self
                .socks
                .values()
                .filter(|s| s.state == SockState::SynRcvd && s.local_port == frame.dst_port)
                .count();
        if pending >= l.backlog.max(1) {
            return self.send_rst(ctx, &frame);
        }

        let alloc = ctx.arena().alloc(512).ok();
        // Accepted-connection sockets are never replayed from the log —
        // they are restored via runtime extraction.
        let id = self.lowest_free_sock();
        let iss = self.next_iss();
        let mut sock = Sock::new(alloc);
        sock.state = SockState::SynRcvd;
        sock.local_port = frame.dst_port;
        sock.remote_port = frame.src_port;
        sock.snd_nxt = iss.wrapping_add(1);
        sock.rcv_nxt = frame.seq.wrapping_add(1);
        let syn_ack = Frame {
            src_port: sock.local_port,
            dst_port: sock.remote_port,
            seq: iss,
            ack: sock.rcv_nxt,
            flags: TcpFlags::SYN_ACK,
            payload: Vec::new(),
        };
        self.socks.insert(id, sock);
        self.conns.insert((frame.dst_port, frame.src_port), id);
        self.tx(ctx, syn_ack)
    }

    fn handle_conn_frame(
        &mut self,
        ctx: &mut dyn CallContext,
        sid: u64,
        frame: Frame,
    ) -> Result<(), OsError> {
        let Some(sock) = self.socks.get_mut(&sid) else {
            return Ok(());
        };
        if frame.flags.rst {
            sock.state = SockState::Reset;
            self.conns.remove(&(frame.dst_port, frame.src_port));
            return Ok(());
        }
        match sock.state {
            SockState::SynRcvd => {
                if frame.flags.ack && frame.ack == sock.snd_nxt {
                    sock.state = SockState::Established;
                    sock.snd_una = frame.ack;
                    let port = sock.local_port;
                    if let Some(&lid) = self.listeners.get(&port) {
                        if let Some(l) = self.socks.get_mut(&lid) {
                            l.accept_q.push_back(sid);
                        }
                    }
                } else if frame.flags.ack {
                    let f2 = frame.clone();
                    self.socks.get_mut(&sid).expect("live").state = SockState::Reset;
                    self.conns.remove(&(f2.dst_port, f2.src_port));
                    return self.send_rst(ctx, &f2);
                }
                Ok(())
            }
            SockState::Established => {
                let mut advanced = false;
                if frame.flags.ack {
                    // Cumulative ACK from the peer.
                    sock.snd_una = frame.ack;
                }
                if !frame.payload.is_empty() {
                    if frame.seq != sock.rcv_nxt {
                        let f2 = frame.clone();
                        sock.state = SockState::Reset;
                        self.conns.remove(&(f2.dst_port, f2.src_port));
                        return self.send_rst(ctx, &f2);
                    }
                    sock.rcv_nxt = sock.rcv_nxt.wrapping_add(frame.payload.len() as u32);
                    sock.recv_buf.extend(&frame.payload);
                    advanced = true;
                }
                if frame.flags.fin {
                    sock.rcv_nxt = sock.rcv_nxt.wrapping_add(1);
                    sock.peer_closed = true;
                    advanced = true;
                }
                if advanced {
                    let ack = Frame {
                        src_port: sock.local_port,
                        dst_port: sock.remote_port,
                        seq: sock.snd_nxt,
                        ack: sock.rcv_nxt,
                        flags: TcpFlags::ACK,
                        payload: Vec::new(),
                    };
                    self.tx(ctx, ack)?;
                }
                Ok(())
            }
            _ => {
                // Traffic on a closed socket: reset.
                let f2 = frame.clone();
                self.conns.remove(&(f2.dst_port, f2.src_port));
                self.send_rst(ctx, &f2)
            }
        }
    }

    fn sock_mut(&mut self, id: u64) -> Result<&mut Sock, OsError> {
        self.socks.get_mut(&id).ok_or(OsError::BadFd)
    }

    /// The socket a logged call on a connection names. Accepted
    /// connections are runtime data, restored after the log replays, so a
    /// socket that no replayed call has created is one the peer opened:
    /// replay brings back its skeleton — established, as it was when the
    /// call ran — and [`Component::restore_runtime`] fills in the rest.
    /// Following the log, not the runtime data, keeps a closed
    /// connection's id apart from the connection that reused it.
    fn conn_sock(&mut self, ctx: &dyn CallContext, id: u64) -> Result<&mut Sock, OsError> {
        if ctx.is_replay() {
            let skeleton = || Sock {
                state: SockState::Established,
                ..Sock::new(None)
            };
            return Ok(self.socks.entry(id).or_insert_with(skeleton));
        }
        self.sock_mut(id)
    }
}

impl Component for Lwip {
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
            id::SOCKET => {
                let id = self.alloc_sock(ctx)?;
                let alloc = ctx.arena().alloc(512).ok();
                self.socks.insert(id, Sock::new(alloc));
                Ok(Value::U64(id))
            }
            id::BIND => {
                let id = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let port = args.get(1).ok_or(OsError::Inval)?.as_u64()? as u16;
                if self.listeners.contains_key(&port) {
                    return Err(OsError::AddrInUse);
                }
                let sock = self.sock_mut(id)?;
                if sock.state != SockState::Created {
                    return Err(OsError::Inval);
                }
                sock.local_port = port;
                sock.state = SockState::Bound;
                Ok(Value::Unit)
            }
            id::LISTEN => {
                let id = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let backlog = args.get(1).map(Value::as_u64).transpose()?.unwrap_or(16) as usize;
                let sock = self.sock_mut(id)?;
                if sock.state != SockState::Bound {
                    return Err(OsError::Inval);
                }
                sock.state = SockState::Listening;
                sock.backlog = backlog;
                let port = sock.local_port;
                self.listeners.insert(port, id);
                Ok(Value::Unit)
            }
            id::CONNECT => {
                let id = args.first().ok_or(OsError::Inval)?.as_u64()?;
                self.sock_mut(id)?;
                // The simulated external network hosts clients, not servers;
                // active opens have nothing to connect to (the evaluation
                // apps are all servers).
                Err(OsError::ConnRefused)
            }
            id::SETSOCKOPT => {
                let id = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let opt = args.get(1).ok_or(OsError::Inval)?.as_u64()?;
                let val = args.get(2).ok_or(OsError::Inval)?.as_u64()?;
                self.conn_sock(ctx, id)?.opts.insert(opt, val);
                Ok(Value::Unit)
            }
            id::GETSOCKOPT => {
                let id = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let opt = args.get(1).ok_or(OsError::Inval)?.as_u64()?;
                let sock = self.conn_sock(ctx, id)?;
                Ok(Value::U64(sock.opts.get(&opt).copied().unwrap_or(0)))
            }
            id::IOCTL => {
                let id = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let cmd = args.get(1).ok_or(OsError::Inval)?.as_u64()?;
                let arg = args.get(2).map(Value::as_u64).transpose()?.unwrap_or(0);
                let sock = self.conn_sock(ctx, id)?;
                match cmd {
                    FIONBIO => {
                        sock.nonblock = arg != 0;
                        Ok(Value::U64(0))
                    }
                    _ => Err(OsError::Inval),
                }
            }
            id::SHUTDOWN => {
                let id = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let sock = self.conn_sock(ctx, id)?;
                if sock.state != SockState::Established {
                    return Err(OsError::NotConnected);
                }
                let fin = Frame {
                    src_port: sock.local_port,
                    dst_port: sock.remote_port,
                    seq: sock.snd_nxt,
                    ack: sock.rcv_nxt,
                    flags: TcpFlags::FIN_ACK,
                    payload: Vec::new(),
                };
                sock.snd_nxt = sock.snd_nxt.wrapping_add(1);
                sock.state = SockState::Closed;
                self.tx(ctx, fin)?;
                Ok(Value::Unit)
            }
            id::CLOSE => {
                let id = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let sock = self.conn_sock(ctx, id)?;
                if sock.state == SockState::Established {
                    let fin = Frame {
                        src_port: sock.local_port,
                        dst_port: sock.remote_port,
                        seq: sock.snd_nxt,
                        ack: sock.rcv_nxt,
                        flags: TcpFlags::FIN_ACK,
                        payload: Vec::new(),
                    };
                    sock.snd_nxt = sock.snd_nxt.wrapping_add(1);
                    self.tx(ctx, fin)?;
                }
                let sock = self.socks.remove(&id).expect("checked");
                if sock.state == SockState::Listening {
                    self.listeners.remove(&sock.local_port);
                }
                self.conns.retain(|_, &mut sid| sid != id);
                if let Some(alloc) = sock.alloc {
                    let _ = ctx.arena().free(&alloc);
                }
                Ok(Value::Unit)
            }
            id::ACCEPT => {
                let id = args.first().ok_or(OsError::Inval)?.as_u64()?;
                // Pump only when nothing is queued (a preceding readiness
                // query has usually drained the wire already).
                let queue_empty = self.socks.get(&id).is_none_or(|s| s.accept_q.is_empty());
                if !ctx.is_replay() && queue_empty {
                    self.pump(ctx)?;
                }
                let sock = self.sock_mut(id)?;
                if sock.state != SockState::Listening {
                    return Err(OsError::Inval);
                }
                match sock.accept_q.pop_front() {
                    Some(conn) => Ok(Value::U64(conn)),
                    None => Err(OsError::WouldBlock),
                }
            }
            id::RECV => {
                let id = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let max = args
                    .get(1)
                    .map(Value::as_u64)
                    .transpose()?
                    .unwrap_or(u64::MAX);
                let buffer_empty = self
                    .socks
                    .get(&id)
                    .is_none_or(|s| s.recv_buf.is_empty() && !s.peer_closed);
                if !ctx.is_replay() && buffer_empty {
                    self.pump(ctx)?;
                }
                let sock = self.sock_mut(id)?;
                match sock.state {
                    SockState::Reset => return Err(OsError::ConnReset),
                    SockState::Established | SockState::Closed => {}
                    _ => return Err(OsError::NotConnected),
                }
                if sock.recv_buf.is_empty() {
                    if sock.peer_closed {
                        return Ok(Value::Bytes(Vec::new())); // EOF
                    }
                    return Err(OsError::WouldBlock);
                }
                let n = (max as usize).min(sock.recv_buf.len());
                Ok(Value::Bytes(take_front(&mut sock.recv_buf, n)))
            }
            id::SEND => {
                let id = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let bytes = args.get(1).ok_or(OsError::Inval)?.as_bytes()?;
                // Transmit needs no inbound frames; peer ACKs are harvested
                // by the next readiness query or receive.
                let sock = self.sock_mut(id)?;
                match sock.state {
                    SockState::Reset => return Err(OsError::ConnReset),
                    SockState::Established => {}
                    _ => return Err(OsError::NotConnected),
                }
                let frame = Frame {
                    src_port: sock.local_port,
                    dst_port: sock.remote_port,
                    seq: sock.snd_nxt,
                    ack: sock.rcv_nxt,
                    flags: TcpFlags::ACK,
                    payload: bytes.to_vec(),
                };
                sock.snd_nxt = sock.snd_nxt.wrapping_add(bytes.len() as u32);
                self.tx(ctx, frame)?;
                Ok(Value::U64(bytes.len() as u64))
            }
            id::POLL => {
                if !ctx.is_replay() {
                    self.pump(ctx)?;
                }
                Ok(Value::Unit)
            }
            id::READY => {
                // epoll-style readiness: pump once, then report which of
                // the queried sockets have pending work.
                if !ctx.is_replay() {
                    self.pump(ctx)?;
                }
                let queried = args.first().ok_or(OsError::Inval)?.as_list()?;
                let mut ready = Vec::new();
                for v in queried {
                    let id = v.as_u64()?;
                    let Some(sock) = self.socks.get(&id) else {
                        continue;
                    };
                    let is_ready = match sock.state {
                        SockState::Listening => !sock.accept_q.is_empty(),
                        SockState::Reset => true,
                        _ => !sock.recv_buf.is_empty() || sock.peer_closed,
                    };
                    if is_ready {
                        ready.push(Value::U64(id));
                    }
                }
                Ok(Value::List(ready))
            }
            _ => unreachable!("lwip declares no function {func:?}"),
        }
    }

    fn extract_runtime(&mut self) -> Option<RuntimeData> {
        Some(Box::new(LwipRuntime {
            iss_next: self.iss_next,
            socks: std::mem::take(&mut self.socks),
            conns: std::mem::take(&mut self.conns),
        }))
    }

    fn restore_runtime(
        &mut self,
        data: RuntimeData,
        arena: &mut MemoryArena,
    ) -> Result<(), OsError> {
        let LwipRuntime {
            iss_next,
            socks,
            conns,
        } = *data.downcast().map_err(|_| OsError::ReplayMismatch {
            component: names::LWIP.to_owned(),
            detail: "foreign runtime data".to_owned(),
        })?;
        self.iss_next = iss_next;
        self.conns = conns;
        for (id, sock) in socks {
            let entry = self.socks.entry(id).or_insert_with(|| {
                // Accepted-connection sockets were not in the replayed log.
                Sock::new(None)
            });
            if entry.alloc.is_none() {
                entry.alloc = arena.alloc(512).ok();
            }
            if sock.state == SockState::Listening {
                self.listeners.insert(sock.local_port, id);
            }
            // The replay rebuilt the options and the arena block; the rest
            // is the connection's.
            *entry = Sock {
                opts: std::mem::take(&mut entry.opts),
                alloc: entry.alloc.take(),
                ..sock
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::StubCtx;
    use vampos_host::HostHandle;
    use vampos_ukernel::{BootImage, SessionEvent};

    /// A ctx whose NETDEV downcalls run against a real host network,
    /// bypassing NETDEV/VIRTIO (they have their own tests).
    fn live_ctx(host: &HostHandle) -> StubCtx {
        let mut ctx = StubCtx::new();
        let host = host.clone();
        ctx.auto(move |_target, func, args| match func {
            nd::TX => {
                let frame = match &args[0] {
                    Value::Frame(Some(frame)) => frame.clone(),
                    other => panic!("expected frame, got {other:?}"),
                };
                host.with(|w| w.network_mut().deliver_from_guest(frame));
                Ok(Value::Unit)
            }
            nd::RX => Ok(Value::Frame(
                host.with(|w| w.network_mut().take_frame_for_guest()),
            )),
            nd::RX_BATCH => {
                let mut frames = Vec::new();
                while let Some(frame) = host.with(|w| w.network_mut().take_frame_for_guest()) {
                    frames.push(Value::Frame(Some(frame)));
                }
                Ok(Value::List(frames))
            }
            other => panic!("unexpected downcall {other}"),
        });
        ctx
    }

    fn listening(port: u16) -> (Lwip, HostHandle, StubCtx, u64) {
        let host = HostHandle::new();
        let mut lwip = Lwip::new();
        let mut ctx = live_ctx(&host);
        let sock = lwip
            .call(&mut ctx, id::SOCKET, &[])
            .unwrap()
            .as_u64()
            .unwrap();
        lwip.call(
            &mut ctx,
            id::BIND,
            &[Value::U64(sock), Value::U64(port as u64)],
        )
        .unwrap();
        lwip.call(&mut ctx, id::LISTEN, &[Value::U64(sock), Value::U64(16)])
            .unwrap();
        (lwip, host, ctx, sock)
    }

    /// A rebooted stack with `listener`'s skeleton replayed (socket, bind
    /// and listen with replay hints), before its runtime data is restored.
    fn replayed(ctx: &mut StubCtx, listener: u64) -> Lwip {
        let mut lwip = Lwip::new();
        ctx.set_replay(Some(Value::U64(listener)));
        lwip.call(ctx, id::SOCKET, &[]).unwrap();
        ctx.set_replay(Some(Value::Unit));
        lwip.call(ctx, id::BIND, &[Value::U64(listener), Value::U64(80)])
            .unwrap();
        lwip.call(ctx, id::LISTEN, &[Value::U64(listener), Value::U64(16)])
            .unwrap();
        ctx.clear_replay();
        lwip
    }

    /// Accepts one connection on `listener`.
    fn accept(lwip: &mut Lwip, ctx: &mut StubCtx, listener: u64) -> u64 {
        let conn = lwip.call(ctx, id::ACCEPT, &[Value::U64(listener)]);
        conn.unwrap().as_u64().unwrap()
    }

    #[test]
    fn full_handshake_and_data_exchange() {
        let (mut lwip, host, mut ctx, listener) = listening(80);
        let client = host.with(|w| w.network_mut().connect(80));

        // accept completes the handshake and returns the connection socket.
        let conn = accept(&mut lwip, &mut ctx, listener);
        assert_eq!(
            host.with(|w| w.network().state(client).unwrap()),
            vampos_host::ClientConnState::Established
        );

        // client → guest data
        host.with(|w| w.network_mut().send(client, b"GET /").unwrap());
        let got = lwip
            .call(&mut ctx, id::RECV, &[Value::U64(conn), Value::U64(64)])
            .unwrap();
        assert_eq!(got.as_bytes().unwrap(), b"GET /");

        // guest → client data
        lwip.call(
            &mut ctx,
            id::SEND,
            &[Value::U64(conn), Value::from(b"200 OK".as_slice())],
        )
        .unwrap();
        assert_eq!(
            host.with(|w| w.network_mut().recv(client).unwrap()),
            b"200 OK"
        );
    }

    #[test]
    fn accept_without_pending_connection_would_block() {
        let (mut lwip, _host, mut ctx, listener) = listening(80);
        assert_eq!(
            lwip.call(&mut ctx, id::ACCEPT, &[Value::U64(listener)]),
            Err(OsError::WouldBlock)
        );
    }

    #[test]
    fn recv_without_data_would_block_and_eof_after_fin() {
        let (mut lwip, host, mut ctx, listener) = listening(80);
        let client = host.with(|w| w.network_mut().connect(80));
        let conn = accept(&mut lwip, &mut ctx, listener);
        assert_eq!(
            lwip.call(&mut ctx, id::RECV, &[Value::U64(conn), Value::U64(8)]),
            Err(OsError::WouldBlock)
        );
        host.with(|w| w.network_mut().close(client).unwrap());
        // FIN arrives → EOF.
        assert_eq!(
            lwip.call(&mut ctx, id::RECV, &[Value::U64(conn), Value::U64(8)])
                .unwrap(),
            Value::Bytes(Vec::new())
        );
    }

    #[test]
    fn guest_close_sends_fin_to_client() {
        let (mut lwip, host, mut ctx, listener) = listening(80);
        let client = host.with(|w| w.network_mut().connect(80));
        let conn = accept(&mut lwip, &mut ctx, listener);
        lwip.call(&mut ctx, id::CLOSE, &[Value::U64(conn)]).unwrap();
        // Client saw an orderly close.
        host.with(|w| {
            // Pump any queued frames into the peer: frames were delivered
            // synchronously by tx, so the state is already final.
            assert_eq!(
                w.network().state(client).unwrap(),
                vampos_host::ClientConnState::Closed
            );
        });
        assert_eq!(lwip.live_sockets(), 1); // listener only
    }

    #[test]
    fn bind_conflicts_are_rejected() {
        let (mut lwip, _host, mut ctx, _l) = listening(80);
        let s2 = lwip
            .call(&mut ctx, id::SOCKET, &[])
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(
            lwip.call(&mut ctx, id::BIND, &[Value::U64(s2), Value::U64(80)]),
            Err(OsError::AddrInUse)
        );
    }

    #[test]
    fn backlog_limits_pending_connections() {
        let host = HostHandle::new();
        let mut lwip = Lwip::new();
        let mut ctx = live_ctx(&host);
        let sock = lwip
            .call(&mut ctx, id::SOCKET, &[])
            .unwrap()
            .as_u64()
            .unwrap();
        lwip.call(&mut ctx, id::BIND, &[Value::U64(sock), Value::U64(80)])
            .unwrap();
        lwip.call(&mut ctx, id::LISTEN, &[Value::U64(sock), Value::U64(2)])
            .unwrap();
        for _ in 0..4 {
            host.with(|w| {
                w.network_mut().connect(80);
            });
        }
        // Pump: only 2 make it, the rest get RST.
        lwip.call(&mut ctx, id::POLL, &[]).unwrap();
        let resets = host.with(|w| w.network().resets_seen());
        assert!(resets >= 2, "resets = {resets}");
    }

    #[test]
    fn options_and_ioctl_round_trip() {
        let (mut lwip, _h, mut ctx, sock) = listening(80);
        let bare = lwip.state_digest();
        lwip.call(
            &mut ctx,
            id::SETSOCKOPT,
            &[Value::U64(sock), Value::U64(7), Value::U64(99)],
        )
        .unwrap();
        assert_eq!(
            lwip.call(&mut ctx, id::GETSOCKOPT, &[Value::U64(sock), Value::U64(7)])
                .unwrap(),
            Value::U64(99)
        );
        // A socket option is state a reboot must restore, so the digest
        // sees it; and so is non-blocking mode.
        let with_opt = lwip.state_digest();
        assert_ne!(with_opt, bare);
        lwip.call(
            &mut ctx,
            id::IOCTL,
            &[Value::U64(sock), Value::U64(FIONBIO), Value::U64(1)],
        )
        .unwrap();
        assert_ne!(lwip.state_digest(), with_opt);
    }

    #[test]
    fn extract_restore_round_trips_connection_state() {
        let (mut lwip, host, mut ctx, listener) = listening(80);
        let client = host.with(|w| w.network_mut().connect(80));
        let conn = accept(&mut lwip, &mut ctx, listener);
        host.with(|w| w.network_mut().send(client, b"hello").unwrap());
        lwip.call(&mut ctx, id::POLL, &[]).unwrap(); // buffer the data

        let digest_before = lwip.state_digest();
        let extract = lwip.extract_runtime().expect("lwip extracts");

        // Simulate the reboot: a fresh stack, replay the skeleton, then
        // restore runtime data.
        lwip = replayed(&mut ctx, listener);
        // Data of a foreign type is refused before anything is restored.
        assert!(matches!(
            lwip.restore_runtime(Box::new(0u64), ctx.arena()),
            Err(OsError::ReplayMismatch { .. })
        ));
        lwip.restore_runtime(extract, ctx.arena()).unwrap();
        lwip.finish_replay();

        assert_eq!(lwip.state_digest(), digest_before);

        // The restored connection still works against the live peer — the
        // sequence numbers line up.
        let got = lwip
            .call(&mut ctx, id::RECV, &[Value::U64(conn), Value::U64(64)])
            .unwrap();
        assert_eq!(got.as_bytes().unwrap(), b"hello");
        lwip.call(
            &mut ctx,
            id::SEND,
            &[Value::U64(conn), Value::from(b"world".as_slice())],
        )
        .unwrap();
        assert_eq!(
            host.with(|w| w.network_mut().recv(client).unwrap()),
            b"world"
        );
        assert_eq!(host.with(|w| w.network().seq_errors()), 0);
    }

    #[test]
    fn restore_without_seq_numbers_breaks_connections() {
        // The negative control for §V-B: if the runtime extract is lost and
        // the connection is recreated with fresh sequence numbers, the peer
        // resets it.
        let (mut lwip, host, mut ctx, listener) = listening(80);
        let client = host.with(|w| w.network_mut().connect(80));
        let conn = accept(&mut lwip, &mut ctx, listener);
        host.with(|w| w.network_mut().recv(client).unwrap());

        let mut extract = lwip.extract_runtime().unwrap();
        // Corrupt the extract: a bogus snd_nxt on every socket.
        let runtime = extract.downcast_mut::<LwipRuntime>().unwrap();
        for sock in runtime.socks.values_mut() {
            sock.snd_nxt = 1;
        }
        lwip = Lwip::new();
        lwip.restore_runtime(extract, ctx.arena()).unwrap();
        lwip.finish_replay();

        // Sending on the restored connection now violates the peer's
        // expected sequence → RST.
        let _ = lwip.call(
            &mut ctx,
            id::SEND,
            &[Value::U64(conn), Value::from(b"x".as_slice())],
        );
        assert!(host.with(|w| w.network().seq_errors()) > 0);
    }

    #[test]
    fn a_shutdown_connection_keeps_its_index_entry_across_a_reboot() {
        let (mut lwip, host, mut ctx, listener) = listening(80);
        host.with(|w| w.network_mut().connect(80));
        let conn = accept(&mut lwip, &mut ctx, listener);
        lwip.call(&mut ctx, id::SHUTDOWN, &[Value::U64(conn), Value::U64(2)])
            .unwrap();
        // The peer's answer to the FIN has not been pumped: the closed
        // socket still owns its tuple.
        assert_eq!(lwip.conns.values().collect::<Vec<_>>(), [&conn]);
        let (digest, conns) = (lwip.state_digest(), lwip.conns.clone());
        let extract = lwip.extract_runtime().expect("lwip extracts");
        lwip = replayed(&mut ctx, listener);
        lwip.restore_runtime(extract, ctx.arena()).unwrap();
        lwip.finish_replay();
        assert_eq!(lwip.conns, conns);
        assert_eq!(lwip.state_digest(), digest);
    }

    #[test]
    fn session_events_classify_socket_lifecycle() {
        let lwip = Lwip::new();
        let event = |func: FnId, args: &[Value], ret: &Value| {
            let info = lwip.descriptor().function_at(func).expect("declared");
            info.decl.session.event(args, ret)
        };
        assert_eq!(
            event(id::SOCKET, &[], &Value::U64(5)),
            SessionEvent::Open(vec![5])
        );
        assert_eq!(
            event(id::BIND, &[Value::U64(5), Value::U64(80)], &Value::Unit),
            SessionEvent::Touch(5)
        );
        assert_eq!(
            event(id::CLOSE, &[Value::U64(5)], &Value::Unit),
            SessionEvent::Close(vec![5])
        );
        // Unlogged calls carry no role.
        assert_eq!(
            event(id::RECV, &[Value::U64(5)], &Value::Unit),
            SessionEvent::None
        );
    }

    #[test]
    fn ready_reports_pending_work_per_socket() {
        let (mut lwip, host, mut ctx, listener) = listening(80);
        // Nothing pending: listener not ready.
        let ready = lwip
            .call(
                &mut ctx,
                id::READY,
                &[Value::List(vec![Value::U64(listener)])],
            )
            .unwrap();
        assert_eq!(ready, Value::List(vec![]));

        // A pending connection makes the listener ready.
        let client = host.with(|w| w.network_mut().connect(80));
        let ready = lwip
            .call(
                &mut ctx,
                id::READY,
                &[Value::List(vec![Value::U64(listener)])],
            )
            .unwrap();
        assert_eq!(ready, Value::List(vec![Value::U64(listener)]));

        let conn = accept(&mut lwip, &mut ctx, listener);
        // Established but idle: not ready.
        let ready = lwip
            .call(&mut ctx, id::READY, &[Value::List(vec![Value::U64(conn)])])
            .unwrap();
        assert_eq!(ready, Value::List(vec![]));
        // Buffered data (or a peer close) makes it ready.
        host.with(|w| w.network_mut().send(client, b"hi").unwrap());
        let ready = lwip
            .call(&mut ctx, id::READY, &[Value::List(vec![Value::U64(conn)])])
            .unwrap();
        assert_eq!(ready, Value::List(vec![Value::U64(conn)]));
        // Unknown sockets are silently skipped.
        let ready = lwip
            .call(&mut ctx, id::READY, &[Value::List(vec![Value::U64(999)])])
            .unwrap();
        assert_eq!(ready, Value::List(vec![]));
    }

    #[test]
    fn ready_flags_closed_and_reset_peers() {
        let (mut lwip, host, mut ctx, listener) = listening(80);
        let client = host.with(|w| w.network_mut().connect(80));
        let conn = accept(&mut lwip, &mut ctx, listener);
        host.with(|w| w.network_mut().close(client).unwrap());
        let ready = lwip
            .call(&mut ctx, id::READY, &[Value::List(vec![Value::U64(conn)])])
            .unwrap();
        assert_eq!(
            ready,
            Value::List(vec![Value::U64(conn)]),
            "a FIN must wake the reader so it can observe EOF"
        );
    }

    #[test]
    fn connect_is_refused_by_the_simulated_network() {
        let (mut lwip, _h, mut ctx, _l) = listening(80);
        let s = lwip
            .call(&mut ctx, id::SOCKET, &[])
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(
            lwip.call(&mut ctx, id::CONNECT, &[Value::U64(s), Value::U64(9)]),
            Err(OsError::ConnRefused)
        );
    }
}
