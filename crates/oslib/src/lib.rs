//! The nine OS components of VampOS-RS (paper Table I).
//!
//! | Component | Statefulness | Description |
//! |-----------|--------------|-------------|
//! | [`vfs::Vfs`] | stateful, logged, checkpoint-init | POSIX APIs for file systems and networks |
//! | [`ninepfs::NinePFs`] | stateful, logged, checkpoint-init | File system over the 9P protocol |
//! | [`lwip::Lwip`] | stateful, logged, checkpoint-init, runtime-extract | TCP/IP protocol stack |
//! | [`netdev::NetDev`] | stateless | Low-level packet operations |
//! | [`virtio::Virtio`] | **unrebootable** | Driver for host-shared virtio devices |
//! | [`util::Process`] | stateless | `getpid()` and friends |
//! | [`util::SysInfo`] | stateless | `uname()` and friends |
//! | [`util::User`] | stateless | `getuid()` and friends |
//! | [`util::Timer`] | stateless | time operations |
//!
//! Components interact only through
//! [`CallContext::invoke`](vampos_ukernel::CallContext::invoke); the call
//! graph is a DAG:
//!
//! ```text
//! app → VFS → 9PFS  → VIRTIO → host (9P server)
//!           ↘ LWIP → NETDEV → VIRTIO → host (network peer)
//! ```
//!
//! The stateful components implement the restoration hooks VampOS needs:
//! the logged-function sets of paper Table II and the session roles of log
//! shrinking (both declared in [`funcs`]), LWIP's runtime-data extraction
//! (TCP sequence/ACK state), and replay-hint-guided identifier allocation so
//! replayed `open()` calls hand back exactly the fds the application still
//! holds.

pub mod funcs;
pub mod lwip;
pub mod netdev;
pub mod ninepfs;
pub mod testutil;
pub mod util;
pub mod vfs;
pub mod virtio;

pub use lwip::Lwip;
pub use netdev::NetDev;
pub use ninepfs::NinePFs;
pub use util::{Process, SysInfo, Timer, User};
pub use vfs::{OpenFlags, Vfs};
pub use virtio::Virtio;

#[cfg(test)]
mod tests {
    use vampos_ukernel::{Component, FnId, OsError, Session};

    use super::*;
    use crate::testutil::StubCtx;

    /// The runtime dispatches every function a descriptor declares, so no
    /// declared function may reach a component's `unreachable!` arm.
    #[test]
    fn every_declared_function_is_implemented() {
        let components: [Box<dyn Component>; 9] = [
            Box::new(Vfs::new()),
            Box::new(NinePFs::new()),
            Box::new(Lwip::new()),
            Box::new(NetDev::new()),
            Box::new(Virtio::new()),
            Box::new(Process::new()),
            Box::new(SysInfo::new()),
            Box::new(User::new()),
            Box::new(Timer::new()),
        ];
        let mut custom = Vec::new();
        for mut comp in components {
            let desc = comp.descriptor().clone();
            for (id, info) in desc.functions().iter().enumerate() {
                let mut ctx = StubCtx::new();
                ctx.auto(|_, _, _| Err(OsError::Inval));
                // Any result will do; reaching no arm would panic.
                let _ = comp.call(&mut ctx, FnId(id as u16), &[]);
                if info.decl.session == Session::Custom {
                    custom.push(format!("{}.{}", desc.name(), info.name));
                }
            }
            assert!(
                !desc.functions().is_empty(),
                "{} declares no function",
                desc.name()
            );
        }
        // Only these need the component's `session_event`: every other
        // role is the interface table's.
        assert_eq!(custom, ["vfs.close", "vfs.pipe", "vfs.vfscore_vget"]);
    }
}
