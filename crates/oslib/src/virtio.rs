//! VIRTIO: the driver for host-shared virtio devices.
//!
//! This is the one component the paper's prototypes do **not** reboot (§VI,
//! §VIII): its ring buffers are shared with the host, so a component-local
//! reset desynchronises them — I/O requests are lost and "pointers \[are\]
//! misaligned to the ring buffers between VIRTIO and Linux". The descriptor
//! is marked unrebootable; the runtime refuses to reboot it unless forced,
//! and the forced path demonstrably breaks the device (see the crate tests
//! and the `virtio_unrebootable` integration test).

use vampos_mem::ArenaLayout;
use vampos_ukernel::{names, CallContext, Component, ComponentDescriptor, FnId, OsError, Value};

use crate::funcs::virtio::{self as f, id};

/// The VIRTIO component. It reaches the host through the call context
/// ([`CallContext::host`]): the device's state lives in the host world, so
/// the component is its descriptor alone.
#[derive(Debug, Clone, Hash)]
pub struct Virtio {
    desc: ComponentDescriptor,
}

impl Default for Virtio {
    fn default() -> Self {
        Self::new()
    }
}

impl Virtio {
    /// Creates the component.
    pub fn new() -> Self {
        Virtio {
            desc: ComponentDescriptor::new(names::VIRTIO, ArenaLayout::medium())
                .host_shared()
                .unrebootable()
                .interface(f::FUNCTIONS),
        }
    }
}

fn ring_error(e: vampos_host::VirtQueueError) -> OsError {
    OsError::Io(format!("virtio: {e}"))
}

impl Component for Virtio {
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
            id::NINEP => {
                let (req, payload) = match args.first() {
                    Some(v @ Value::NinePReq(req)) => (req, v.byte_len()),
                    Some(other) => return Err(OsError::bad_value("9p-request", other)),
                    None => return Err(OsError::Inval),
                };
                ctx.charge(ctx.costs().virtio_kick + ctx.costs().host_9p(payload));
                ctx.trace_instant("virtio_kick", format_args!("9p {payload}B"));
                let resp = ctx
                    .host()
                    .with(|w| w.ninep_transact(req.clone()))
                    .map_err(ring_error)?;
                Ok(Value::NinePResp(resp))
            }
            id::NET_TX => {
                let frame = match args.first() {
                    Some(Value::Frame(Some(frame))) => frame.clone(),
                    Some(other) => return Err(OsError::bad_value("frame", other)),
                    None => return Err(OsError::Inval),
                };
                ctx.charge(
                    ctx.costs().virtio_kick + ctx.costs().net_per_byte * frame.wire_len() as u64,
                );
                ctx.trace_instant("virtio_kick", format_args!("net-tx {}B", frame.wire_len()));
                ctx.host().with(|w| w.net_send(frame)).map_err(ring_error)?;
                Ok(Value::Unit)
            }
            id::NET_RX => {
                ctx.charge(ctx.costs().virtio_kick);
                ctx.trace_instant("virtio_kick", format_args!("net-rx"));
                let frame = ctx.host().with(|w| w.net_recv()).map_err(ring_error)?;
                Ok(Value::Frame(frame))
            }
            id::NET_RX_BATCH => {
                // Real virtio drivers harvest the whole used ring per kick.
                ctx.charge(ctx.costs().virtio_kick);
                ctx.trace_instant("virtio_kick", format_args!("net-rx-batch"));
                let mut frames = Vec::new();
                while let Some(frame) = ctx.host().with(|w| w.net_recv()).map_err(ring_error)? {
                    ctx.charge(ctx.costs().net_per_byte * frame.wire_len() as u64);
                    frames.push(Value::Frame(Some(frame)));
                }
                Ok(Value::List(frames))
            }
            _ => unreachable!("virtio declares no function {func:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::StubCtx;
    use vampos_host::{Fid, HostHandle, NinePRequest, NinePResponse};

    fn setup() -> (Virtio, HostHandle, StubCtx) {
        let ctx = StubCtx::new();
        (Virtio::new(), ctx.host().clone(), ctx)
    }

    #[test]
    fn descriptor_is_unrebootable() {
        let (v, _, _) = setup();
        assert!(!v.descriptor().is_rebootable());
    }

    #[test]
    fn ninep_transactions_reach_the_server() {
        let (mut v, host, mut ctx) = setup();
        host.with(|w| w.ninep_mut().put_file("/x", b"1"));
        let resp = v
            .call(
                &mut ctx,
                id::NINEP,
                &[Value::NinePReq(NinePRequest::Attach { fid: Fid(0) })],
            )
            .unwrap();
        assert!(matches!(
            resp,
            Value::NinePResp(NinePResponse::Qid(q)) if q.dir
        ));
        assert_eq!(host.with(|w| w.ninep().request_count()), 1);
        // Host 9P costs were charged.
        assert!(ctx.clock().now() > vampos_sim::Nanos::ZERO);
    }

    #[test]
    fn net_rx_polls_the_host_network() {
        let (mut v, host, mut ctx) = setup();
        assert_eq!(
            v.call(&mut ctx, id::NET_RX, &[]).unwrap(),
            Value::Frame(None)
        );
        host.with(|w| {
            w.network_mut().connect(80);
        });
        let got = v.call(&mut ctx, id::NET_RX, &[]).unwrap();
        assert!(matches!(got, Value::Frame(Some(_))));
    }

    #[test]
    fn reset_after_traffic_breaks_the_rings() {
        let (mut v, host, mut ctx) = setup();
        v.call(
            &mut ctx,
            id::NINEP,
            &[Value::NinePReq(NinePRequest::Attach { fid: Fid(0) })],
        )
        .unwrap();
        // A reboot of the component resets the guest's ring mirrors with
        // it; after any prior traffic that desynchronises the device.
        host.with(|w| w.guest_reset_rings());
        let err = v.call(
            &mut ctx,
            id::NINEP,
            &[Value::NinePReq(NinePRequest::Attach { fid: Fid(1) })],
        );
        assert!(matches!(err, Err(OsError::Io(msg)) if msg.contains("desynchronized")));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let (mut v, _, mut ctx) = setup();
        assert!(matches!(
            v.call(&mut ctx, id::NINEP, &[Value::U64(1)]),
            Err(OsError::BadValue { .. })
        ));
        assert!(matches!(
            v.call(&mut ctx, id::NET_TX, &[]),
            Err(OsError::Inval)
        ));
        assert!(v.descriptor().fn_id("nope").is_none());
    }
}
