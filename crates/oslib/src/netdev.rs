//! NETDEV: low-level packet operations (paper Table I).
//!
//! A thin, stateless shim between LWIP and the VIRTIO network queues: it
//! would own NIC configuration; rebooting it is a bare restart (no logging,
//! no restoration — §VI).

use vampos_mem::ArenaLayout;
use vampos_ukernel::{names, CallContext, Component, ComponentDescriptor, FnId, OsError, Value};

use crate::funcs::netdev::{self as f, id};
use crate::funcs::virtio as vio;

vampos_ukernel::call_sites! {
    VIO_NET_TX = names::VIRTIO, vio::NET_TX;
    VIO_NET_RX = names::VIRTIO, vio::NET_RX;
    VIO_NET_RX_BATCH = names::VIRTIO, vio::NET_RX_BATCH;
}

/// The NETDEV component.
#[derive(Debug, Clone, Hash)]
pub struct NetDev {
    desc: ComponentDescriptor,
}

impl Default for NetDev {
    fn default() -> Self {
        Self::new()
    }
}

impl NetDev {
    /// Creates the component.
    pub fn new() -> Self {
        NetDev {
            desc: ComponentDescriptor::new(names::NETDEV, ArenaLayout::medium())
                .interface(f::FUNCTIONS)
                .depends_on(&[names::VIRTIO])
                .calls(CALLS),
        }
    }
}

impl Component for NetDev {
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
            id::TX => {
                match args.first() {
                    Some(Value::Frame(Some(_))) => {}
                    Some(other) => return Err(OsError::bad_value("frame", other)),
                    None => return Err(OsError::Inval),
                }
                // The frame argument is forwarded as is.
                ctx.invoke(VIO_NET_TX, &args[..1])?;
                Ok(Value::Unit)
            }
            id::RX => ctx.invoke(VIO_NET_RX, &[]),
            id::RX_BATCH => ctx.invoke(VIO_NET_RX_BATCH, &[]),
            _ => unreachable!("netdev declares no function {func:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::StubCtx;
    use vampos_host::{Frame, TcpFlags};

    fn frame() -> Frame {
        Frame {
            src_port: 80,
            dst_port: 40_000,
            seq: 1,
            ack: 2,
            flags: TcpFlags::ACK,
            payload: b"hi".to_vec(),
        }
    }

    #[test]
    fn tx_forwards_to_virtio() {
        let mut nd = NetDev::new();
        let mut ctx = StubCtx::new();
        ctx.expect(Ok(Value::Unit));
        nd.call(&mut ctx, id::TX, &[Value::Frame(Some(frame()))])
            .unwrap();
        let [(target, func, args)] = ctx.calls() else {
            panic!("one downcall expected, got {:?}", ctx.calls());
        };
        assert_eq!(target, names::VIRTIO);
        assert_eq!(func, vio::NET_TX);
        assert_eq!(args, &[Value::Frame(Some(frame()))]);
    }

    #[test]
    fn rx_passes_virtio_replies_through() {
        let mut nd = NetDev::new();
        let mut ctx = StubCtx::new();
        ctx.expect(Ok(Value::Frame(None)));
        ctx.expect(Ok(Value::Frame(Some(frame()))));
        ctx.expect(Ok(Value::List(vec![Value::Frame(Some(frame()))])));
        assert_eq!(nd.call(&mut ctx, id::RX, &[]).unwrap(), Value::Frame(None));
        assert_eq!(
            nd.call(&mut ctx, id::RX, &[]).unwrap(),
            Value::Frame(Some(frame()))
        );
        assert_eq!(
            nd.call(&mut ctx, id::RX_BATCH, &[]).unwrap(),
            Value::List(vec![Value::Frame(Some(frame()))])
        );
        let funcs: Vec<&str> = ctx.calls().iter().map(|(_, f, _)| f.as_str()).collect();
        assert_eq!(funcs, [vio::NET_RX, vio::NET_RX, vio::NET_RX_BATCH]);
    }

    #[test]
    fn stateless_descriptor() {
        let nd = NetDev::new();
        assert!(!nd.descriptor().is_stateful());
        assert_eq!(nd.descriptor().dependencies().len(), 1);
    }

    #[test]
    fn tx_requires_a_present_frame() {
        let mut nd = NetDev::new();
        let mut ctx = StubCtx::new();
        assert!(matches!(
            nd.call(&mut ctx, id::TX, &[Value::Frame(None)]),
            Err(OsError::BadValue { .. })
        ));
    }
}
