//! 9PFS: the file system backend speaking 9P to the host share.
//!
//! State: the guest-side fid table (path ↔ host fid bindings and open
//! flags). All host interaction goes through VIRTIO. The logged-function set
//! follows paper Table II (`uk_9pfs_mount`, `uk_9pfs_unmount`,
//! `uk_9pfs_open`, `uk_9pfs_close`, `uk_9pfs_lookup`, `uk_9pfs_inactive`,
//! `uk_9pfs_mkdir`); data-plane reads/writes are not logged because the
//! offsets live in VFS and 9P transfers are stateless per request.
//!
//! On reboot, replaying the logged calls rebuilds the fid table to match the
//! host's retained fid state — without touching the host, because
//! encapsulated restoration answers the VIRTIO downcalls from the
//! return-value log.

use std::collections::BTreeMap;

use vampos_host::{Fid, NinePError, NinePRequest, NinePResponse};
use vampos_mem::{AllocHandle, ArenaLayout};
use vampos_ukernel::{names, CallContext, Component, ComponentDescriptor, FnId, OsError, Value};

use crate::funcs::ninepfs::{self as f, id};
use crate::funcs::virtio as vio;

vampos_ukernel::call_sites! {
    VIO_NINEP = names::VIRTIO, vio::NINEP;
}

/// Transient fid used for walk-and-clunk operations; never left live.
const TMP_FID: u64 = 999_999;
/// The root fid bound by `mount`.
const ROOT_FID: u64 = 0;

#[derive(Debug, Clone, Hash)]
struct FidEntry {
    path: String,
    open: bool,
    /// Whether the host-side fid was already clunked (by `close`).
    host_released: bool,
    alloc: Option<AllocHandle>,
}

/// The 9PFS component.
#[derive(Debug, Clone, Hash)]
pub struct NinePFs {
    desc: ComponentDescriptor,
    attached: bool,
    fids: BTreeMap<u64, FidEntry>,
}

impl Default for NinePFs {
    fn default() -> Self {
        Self::new()
    }
}

impl NinePFs {
    /// Creates the component.
    pub fn new() -> Self {
        // The paper notes 9PFS has no data/bss payload — only its heap
        // snapshot is restored, making it the fastest stateful reboot.
        NinePFs {
            desc: ComponentDescriptor::new(names::NINEPFS, ArenaLayout::heap_only(1 << 20))
                .stateful()
                .checkpoint_init()
                .interface(f::FUNCTIONS)
                .depends_on(&[names::VIRTIO])
                .calls(CALLS),
            attached: false,
            fids: BTreeMap::new(),
        }
    }

    /// Number of live guest fids (tests and aging metrics).
    pub fn live_fids(&self) -> usize {
        self.fids.len()
    }

    /// Whether the component is attached to the host share.
    pub fn is_attached(&self) -> bool {
        self.attached
    }

    fn transact(
        &self,
        ctx: &mut dyn CallContext,
        req: NinePRequest,
    ) -> Result<NinePResponse, OsError> {
        ctx.trace_instant("9p_rpc", format_args!("{}", req.kind_name()));
        match ctx.invoke(VIO_NINEP, &[Value::NinePReq(req)])? {
            Value::NinePResp(resp) => Ok(resp),
            other => Err(OsError::bad_value("9p-response", &other)),
        }
    }

    fn expect_qid(resp: NinePResponse) -> Result<(), OsError> {
        match resp {
            NinePResponse::Qid(_) => Ok(()),
            NinePResponse::Err(e) => Err(ninep_err(e)),
            other => Err(OsError::Io(format!("unexpected 9p response: {other:?}"))),
        }
    }

    fn alloc_fid(&mut self, ctx: &dyn CallContext) -> Result<u64, OsError> {
        if let Some(hint) = ctx.replay_hint() {
            // Replay: reuse exactly the fid the original call returned.
            let fid = hint.as_u64()?;
            if self.fids.contains_key(&fid) {
                return Err(OsError::ReplayMismatch {
                    component: names::NINEPFS.to_owned(),
                    detail: format!("fid {fid} already live during replay"),
                });
            }
            return Ok(fid);
        }
        // Lowest free fid (excluding the transient fid): a pure function of
        // the fid table, reproducible across reboots and log shrinking.
        let fid = (1..)
            .find(|f| *f != TMP_FID && !self.fids.contains_key(f))
            .expect("fid space");
        Ok(fid)
    }

    fn split_path(path: &str) -> Vec<String> {
        path.split('/')
            .filter(|c| !c.is_empty())
            .map(str::to_owned)
            .collect()
    }

    fn walk_tmp(&self, ctx: &mut dyn CallContext, names_vec: Vec<String>) -> Result<(), OsError> {
        Self::expect_qid(self.transact(
            ctx,
            NinePRequest::Walk {
                fid: Fid(ROOT_FID as u32),
                newfid: Fid(TMP_FID as u32),
                names: names_vec,
            },
        )?)
    }

    fn clunk_tmp(&self, ctx: &mut dyn CallContext) {
        // Best-effort: a failed clunk of the transient fid is not fatal.
        let _ = self.transact(
            ctx,
            NinePRequest::Clunk {
                fid: Fid(TMP_FID as u32),
            },
        );
    }

    fn entry(&self, fid: u64) -> Result<&FidEntry, OsError> {
        self.fids.get(&fid).ok_or(OsError::BadFd)
    }

    fn lookup(
        &mut self,
        ctx: &mut dyn CallContext,
        path: &str,
        create: bool,
    ) -> Result<u64, OsError> {
        if !self.attached {
            return Err(OsError::Io("9pfs not mounted".into()));
        }
        let fid = self.alloc_fid(ctx)?;
        let resp = self.transact(
            ctx,
            NinePRequest::Walk {
                fid: Fid(ROOT_FID as u32),
                newfid: Fid(fid as u32),
                names: Self::split_path(path),
            },
        )?;
        let mut opened_by_create = false;
        match resp {
            NinePResponse::Qid(_) => {}
            NinePResponse::Err(NinePError::NotFound(_)) if create => {
                let mut parts = Self::split_path(path);
                let name = parts.pop().ok_or(OsError::Inval)?;
                self.walk_tmp(ctx, parts)?;
                let created = self.transact(
                    ctx,
                    NinePRequest::Create {
                        dirfid: Fid(TMP_FID as u32),
                        newfid: Fid(fid as u32),
                        name,
                    },
                );
                self.clunk_tmp(ctx);
                Self::expect_qid(created?)?;
                opened_by_create = true;
            }
            NinePResponse::Err(e) => return Err(ninep_err(e)),
            other => return Err(OsError::Io(format!("unexpected 9p response: {other:?}"))),
        }
        let alloc = ctx.arena().alloc(64).ok();
        self.fids.insert(
            fid,
            FidEntry {
                path: path.to_owned(),
                open: opened_by_create,
                host_released: false,
                alloc,
            },
        );
        Ok(fid)
    }
}

fn ninep_err(e: NinePError) -> OsError {
    match e {
        NinePError::NotFound(_) => OsError::NotFound,
        NinePError::AlreadyExists(_) => OsError::AlreadyExists,
        NinePError::NotADirectory(_) => OsError::NotADirectory,
        NinePError::NotEmpty(_) => OsError::NotEmpty,
        NinePError::UnknownFid(_)
        | NinePError::FidInUse(_)
        | NinePError::NotOpen(_)
        | NinePError::Corrupted
        | NinePError::Stalled => OsError::Io(e.to_string()),
    }
}

impl Component for NinePFs {
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
                Self::expect_qid(self.transact(
                    ctx,
                    NinePRequest::Attach {
                        fid: Fid(ROOT_FID as u32),
                    },
                )?)?;
                self.attached = true;
                Ok(Value::Unit)
            }
            id::UNMOUNT => {
                let _ = self.transact(
                    ctx,
                    NinePRequest::Clunk {
                        fid: Fid(ROOT_FID as u32),
                    },
                )?;
                self.attached = false;
                Ok(Value::Unit)
            }
            id::LOOKUP => {
                let path = args.first().ok_or(OsError::Inval)?.as_str()?.to_owned();
                let create = args
                    .get(1)
                    .map(Value::as_bool)
                    .transpose()?
                    .unwrap_or(false);
                self.lookup(ctx, &path, create).map(Value::U64)
            }
            id::OPEN => {
                let fid = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let truncate = args
                    .get(1)
                    .map(Value::as_bool)
                    .transpose()?
                    .unwrap_or(false);
                self.entry(fid)?;
                Self::expect_qid(self.transact(
                    ctx,
                    NinePRequest::Open {
                        fid: Fid(fid as u32),
                        truncate,
                    },
                )?)?;
                self.fids.get_mut(&fid).expect("checked").open = true;
                Ok(Value::Unit)
            }
            id::CLOSE => {
                let fid = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let entry = self.fids.get_mut(&fid).ok_or(OsError::BadFd)?;
                if !entry.host_released {
                    entry.open = false;
                    entry.host_released = true;
                    let _ = self.transact(
                        ctx,
                        NinePRequest::Clunk {
                            fid: Fid(fid as u32),
                        },
                    )?;
                }
                Ok(Value::Unit)
            }
            id::INACTIVE => {
                let fid = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let entry = self.fids.remove(&fid).ok_or(OsError::BadFd)?;
                if !entry.host_released {
                    let _ = self.transact(
                        ctx,
                        NinePRequest::Clunk {
                            fid: Fid(fid as u32),
                        },
                    )?;
                }
                if let Some(alloc) = entry.alloc {
                    let _ = ctx.arena().free(&alloc);
                }
                Ok(Value::Unit)
            }
            id::MKDIR => {
                let path = args.first().ok_or(OsError::Inval)?.as_str()?.to_owned();
                let mut parts = Self::split_path(&path);
                let name = parts.pop().ok_or(OsError::Inval)?;
                self.walk_tmp(ctx, parts)?;
                let resp = self.transact(
                    ctx,
                    NinePRequest::Mkdir {
                        dirfid: Fid(TMP_FID as u32),
                        name,
                    },
                );
                self.clunk_tmp(ctx);
                Self::expect_qid(resp?)?;
                Ok(Value::Unit)
            }
            id::READ => {
                let fid = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let offset = args.get(1).ok_or(OsError::Inval)?.as_u64()?;
                let max = args.get(2).ok_or(OsError::Inval)?.as_u64()?;
                if !self.entry(fid)?.open {
                    return Err(OsError::BadFd);
                }
                match self.transact(
                    ctx,
                    NinePRequest::Read {
                        fid: Fid(fid as u32),
                        offset,
                        count: max as u32,
                    },
                )? {
                    NinePResponse::Data(d) => Ok(Value::Bytes(d)),
                    NinePResponse::Err(e) => Err(ninep_err(e)),
                    other => Err(OsError::Io(format!("unexpected 9p response: {other:?}"))),
                }
            }
            id::WRITE => {
                let fid = args.first().ok_or(OsError::Inval)?.as_u64()?;
                let offset = args.get(1).ok_or(OsError::Inval)?.as_u64()?;
                let data = args.get(2).ok_or(OsError::Inval)?.as_bytes()?.to_vec();
                if !self.entry(fid)?.open {
                    return Err(OsError::BadFd);
                }
                match self.transact(
                    ctx,
                    NinePRequest::Write {
                        fid: Fid(fid as u32),
                        offset,
                        data,
                    },
                )? {
                    NinePResponse::Count(n) => Ok(Value::U64(n as u64)),
                    NinePResponse::Err(e) => Err(ninep_err(e)),
                    other => Err(OsError::Io(format!("unexpected 9p response: {other:?}"))),
                }
            }
            id::FSYNC => {
                let fid = args.first().ok_or(OsError::Inval)?.as_u64()?;
                if !self.entry(fid)?.open {
                    return Err(OsError::BadFd);
                }
                ctx.charge(ctx.costs().fsync);
                match self.transact(
                    ctx,
                    NinePRequest::Fsync {
                        fid: Fid(fid as u32),
                    },
                )? {
                    NinePResponse::Ok => Ok(Value::Unit),
                    NinePResponse::Err(e) => Err(ninep_err(e)),
                    other => Err(OsError::Io(format!("unexpected 9p response: {other:?}"))),
                }
            }
            id::STAT_FID => {
                let fid = args.first().ok_or(OsError::Inval)?.as_u64()?;
                self.entry(fid)?;
                match self.transact(
                    ctx,
                    NinePRequest::Stat {
                        fid: Fid(fid as u32),
                    },
                )? {
                    NinePResponse::Stat { length, .. } => Ok(Value::List(vec![Value::U64(length)])),
                    NinePResponse::Err(e) => Err(ninep_err(e)),
                    other => Err(OsError::Io(format!("unexpected 9p response: {other:?}"))),
                }
            }
            id::STAT_PATH => {
                let path = args.first().ok_or(OsError::Inval)?.as_str()?.to_owned();
                self.walk_tmp(ctx, Self::split_path(&path))?;
                let resp = self.transact(
                    ctx,
                    NinePRequest::Stat {
                        fid: Fid(TMP_FID as u32),
                    },
                );
                self.clunk_tmp(ctx);
                match resp? {
                    NinePResponse::Stat { length, .. } => Ok(Value::List(vec![Value::U64(length)])),
                    NinePResponse::Err(e) => Err(ninep_err(e)),
                    other => Err(OsError::Io(format!("unexpected 9p response: {other:?}"))),
                }
            }
            id::REMOVE_PATH => {
                let path = args.first().ok_or(OsError::Inval)?.as_str()?.to_owned();
                self.walk_tmp(ctx, Self::split_path(&path))?;
                match self.transact(
                    ctx,
                    NinePRequest::Remove {
                        fid: Fid(TMP_FID as u32),
                    },
                )? {
                    NinePResponse::Ok => Ok(Value::Unit),
                    NinePResponse::Err(e) => {
                        self.clunk_tmp(ctx);
                        Err(ninep_err(e))
                    }
                    other => Err(OsError::Io(format!("unexpected 9p response: {other:?}"))),
                }
            }
            _ => unreachable!("9pfs declares no function {func:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::StubCtx;
    use vampos_host::{HostHandle, Qid};
    use vampos_ukernel::{BootImage, SessionEvent};

    /// A ctx whose downcalls run against a real host world (bypassing the
    /// VIRTIO component, which has its own tests).
    fn live_ctx(host: &HostHandle) -> StubCtx {
        let mut ctx = StubCtx::new();
        let host = host.clone();
        ctx.auto(move |_target, _func, args| {
            let req = match &args[0] {
                Value::NinePReq(req) => req.clone(),
                other => panic!("expected 9p request, got {other:?}"),
            };
            let resp = host.with(|w| w.ninep_mut().handle(req));
            Ok(Value::NinePResp(resp))
        });
        ctx
    }

    fn mounted() -> (NinePFs, HostHandle, StubCtx) {
        let host = HostHandle::new();
        host.with(|w| w.ninep_mut().put_file("/etc/motd", b"hello"));
        let mut fs = NinePFs::new();
        let mut ctx = live_ctx(&host);
        fs.call(&mut ctx, id::MOUNT, &[Value::from("/")]).unwrap();
        (fs, host, ctx)
    }

    #[test]
    fn mount_attaches() {
        let (fs, _, _) = mounted();
        assert!(fs.is_attached());
    }

    #[test]
    fn lookup_open_read_round_trip() {
        let (mut fs, _, mut ctx) = mounted();
        let fid = fs
            .call(
                &mut ctx,
                id::LOOKUP,
                &[Value::from("/etc/motd"), Value::Bool(false)],
            )
            .unwrap()
            .as_u64()
            .unwrap();
        fs.call(&mut ctx, id::OPEN, &[Value::U64(fid), Value::Bool(false)])
            .unwrap();
        let data = fs
            .call(
                &mut ctx,
                id::READ,
                &[Value::U64(fid), Value::U64(0), Value::U64(64)],
            )
            .unwrap();
        assert_eq!(data.as_bytes().unwrap(), b"hello");
    }

    #[test]
    fn lookup_missing_without_create_fails() {
        let (mut fs, _, mut ctx) = mounted();
        assert_eq!(
            fs.call(
                &mut ctx,
                id::LOOKUP,
                &[Value::from("/nope"), Value::Bool(false)]
            ),
            Err(OsError::NotFound)
        );
        assert_eq!(fs.live_fids(), 0);
    }

    #[test]
    fn lookup_with_create_builds_the_file() {
        let (mut fs, host, mut ctx) = mounted();
        let fid = fs
            .call(
                &mut ctx,
                id::LOOKUP,
                &[Value::from("/new.txt"), Value::Bool(true)],
            )
            .unwrap()
            .as_u64()
            .unwrap();
        fs.call(
            &mut ctx,
            id::WRITE,
            &[Value::U64(fid), Value::U64(0), Value::from(b"x".as_slice())],
        )
        .unwrap();
        assert_eq!(
            host.with(|w| w.ninep().read_file("/new.txt")),
            Some(b"x".to_vec())
        );
    }

    #[test]
    fn read_requires_open() {
        let (mut fs, _, mut ctx) = mounted();
        let fid = fs
            .call(
                &mut ctx,
                id::LOOKUP,
                &[Value::from("/etc/motd"), Value::Bool(false)],
            )
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(
            fs.call(
                &mut ctx,
                id::READ,
                &[Value::U64(fid), Value::U64(0), Value::U64(4)]
            ),
            Err(OsError::BadFd)
        );
    }

    #[test]
    fn close_then_inactive_releases_everything() {
        let (mut fs, host, mut ctx) = mounted();
        let fid = fs
            .call(
                &mut ctx,
                id::LOOKUP,
                &[Value::from("/etc/motd"), Value::Bool(false)],
            )
            .unwrap()
            .as_u64()
            .unwrap();
        fs.call(&mut ctx, id::OPEN, &[Value::U64(fid), Value::Bool(false)])
            .unwrap();
        fs.call(&mut ctx, id::CLOSE, &[Value::U64(fid)]).unwrap();
        fs.call(&mut ctx, id::INACTIVE, &[Value::U64(fid)]).unwrap();
        assert_eq!(fs.live_fids(), 0);
        // Host: only the root fid remains.
        assert_eq!(host.with(|w| w.ninep().fid_count()), 1);
    }

    #[test]
    fn inactive_without_close_still_clunks_host_fid() {
        let (mut fs, host, mut ctx) = mounted();
        let fid = fs
            .call(
                &mut ctx,
                id::LOOKUP,
                &[Value::from("/etc/motd"), Value::Bool(false)],
            )
            .unwrap()
            .as_u64()
            .unwrap();
        fs.call(&mut ctx, id::INACTIVE, &[Value::U64(fid)]).unwrap();
        assert_eq!(host.with(|w| w.ninep().fid_count()), 1);
    }

    #[test]
    fn mkdir_and_stat_path() {
        let (mut fs, _, mut ctx) = mounted();
        fs.call(&mut ctx, id::MKDIR, &[Value::from("/www")])
            .unwrap();
        let fid = fs
            .call(
                &mut ctx,
                id::LOOKUP,
                &[Value::from("/www/i.html"), Value::Bool(true)],
            )
            .unwrap()
            .as_u64()
            .unwrap();
        fs.call(
            &mut ctx,
            id::WRITE,
            &[
                Value::U64(fid),
                Value::U64(0),
                Value::from(b"abc".as_slice()),
            ],
        )
        .unwrap();
        let st = fs
            .call(&mut ctx, id::STAT_PATH, &[Value::from("/www/i.html")])
            .unwrap();
        assert_eq!(st.as_list().unwrap()[0].as_u64().unwrap(), 3);
    }

    #[test]
    fn fsync_charges_storage_cost() {
        let (mut fs, _, mut ctx) = mounted();
        let fid = fs
            .call(
                &mut ctx,
                id::LOOKUP,
                &[Value::from("/etc/motd"), Value::Bool(false)],
            )
            .unwrap()
            .as_u64()
            .unwrap();
        fs.call(&mut ctx, id::OPEN, &[Value::U64(fid), Value::Bool(false)])
            .unwrap();
        let before = ctx.clock().now();
        fs.call(&mut ctx, id::FSYNC, &[Value::U64(fid)]).unwrap();
        assert!(ctx.clock().now() - before >= ctx.costs().fsync);
    }

    #[test]
    fn replay_hint_reuses_original_fid() {
        let host = HostHandle::new();
        host.with(|w| w.ninep_mut().put_file("/a", b"1"));
        let mut fs = NinePFs::new();
        let mut ctx = live_ctx(&host);
        fs.call(&mut ctx, id::MOUNT, &[Value::from("/")]).unwrap();

        // Replay a lookup that originally returned fid 7.
        ctx.set_replay(Some(Value::U64(7)));
        let fid = fs
            .call(
                &mut ctx,
                id::LOOKUP,
                &[Value::from("/a"), Value::Bool(false)],
            )
            .unwrap();
        assert_eq!(fid, Value::U64(7));
        ctx.clear_replay();

        // Normal allocation is lowest-free and skips the replayed fid.
        fs.finish_replay();
        let fid2 = fs
            .call(
                &mut ctx,
                id::LOOKUP,
                &[Value::from("/a"), Value::Bool(false)],
            )
            .unwrap();
        assert_eq!(fid2, Value::U64(1));
    }

    #[test]
    fn session_events_classify_fid_lifecycle() {
        let fs = NinePFs::new();
        let event = |func: FnId, args: &[Value], ret: &Value| {
            let info = fs.descriptor().function_at(func).expect("declared");
            info.decl.session.event(args, ret)
        };
        assert_eq!(
            event(id::LOOKUP, &[Value::from("/a")], &Value::U64(3)),
            SessionEvent::Open(vec![3])
        );
        assert_eq!(
            event(id::OPEN, &[Value::U64(3)], &Value::Unit),
            SessionEvent::Touch(3)
        );
        assert_eq!(
            event(id::INACTIVE, &[Value::U64(3)], &Value::Unit),
            SessionEvent::Close(vec![3])
        );
        assert_eq!(event(id::MOUNT, &[], &Value::Unit), SessionEvent::None);
    }

    #[test]
    fn state_digest_tracks_fid_table() {
        let (mut fs, _, mut ctx) = mounted();
        let d0 = fs.state_digest();
        let fid = fs
            .call(
                &mut ctx,
                id::LOOKUP,
                &[Value::from("/etc/motd"), Value::Bool(false)],
            )
            .unwrap()
            .as_u64()
            .unwrap();
        let d1 = fs.state_digest();
        assert_ne!(d0, d1);
        fs.call(&mut ctx, id::INACTIVE, &[Value::U64(fid)]).unwrap();
        assert_eq!(fs.state_digest(), d0);
    }

    #[test]
    fn qid_type_is_exported_for_tests() {
        // (Keeps the Qid import honest: responses carry qids.)
        let q = Qid {
            path: 1,
            version: 0,
            dir: false,
        };
        assert!(!q.dir);
    }
}
