//! The [`Component`] trait and its static metadata.

use std::any::Any;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use vampos_host::HostHandle;
use vampos_mem::{ArenaLayout, MemoryArena};
use vampos_sim::{CostModel, Name, Nanos, SimRng};

use crate::digest::DigestBuilder;
use crate::error::OsError;
use crate::value::Value;

/// A component's name (also its protection-domain name).
pub type ComponentName = Name;

/// A function's number: its index in its descriptor's function table
/// ([`ComponentDescriptor::functions`]). The runtime resolves every call to
/// one when it links the call site, and a component dispatches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnId(pub u16);

impl FnId {
    /// The index into the function table.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// One outbound call a component makes: its index in the caller's call
/// table ([`ComponentDescriptor::calls`]) and the component and function it
/// names. The runtime binds each declared site once, when it links the
/// system, to the slot and [`FnId`] it reaches; [`CallContext::invoke`]
/// takes the site and reads the binding by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    index: u16,
    target: &'static str,
    func: &'static str,
}

impl CallSite {
    /// The call site `index` of a call table, naming `target`'s `func`.
    pub const fn new(index: u16, target: &'static str, func: &'static str) -> Self {
        CallSite {
            index,
            target,
            func,
        }
    }

    /// The index into the caller's call table.
    pub fn index(self) -> usize {
        usize::from(self.index)
    }

    /// The component the site calls.
    pub fn target(self) -> &'static str {
        self.target
    }

    /// The function the site calls.
    pub fn func(self) -> &'static str {
        self.func
    }
}

/// Numbers a component's outbound calls in the module it is expanded in:
/// one [`CallSite`] constant per site, numbered in declaration order, and
/// `CALLS` listing them in that order (a descriptor's
/// [`ComponentDescriptor::calls`]).
///
/// ```
/// mod relay {
///     vampos_ukernel::call_sites! {
///         GETPID = "process", "getpid";
///         UNAME = "sysinfo", "uname";
///     }
///     pub fn calls() -> &'static [vampos_ukernel::CallSite] {
///         CALLS
///     }
/// }
/// assert_eq!(relay::calls()[1].index(), 1);
/// assert_eq!(relay::calls()[1].func(), "uname");
/// ```
#[macro_export]
macro_rules! call_sites {
    ($($site:ident = $target:expr, $func:expr;)*) => {
        $crate::call_sites!(@sites 0; $($site = $target, $func;)*);
        /// Every call site, in index order.
        pub(crate) const CALLS: &[$crate::CallSite] = &[$($site),*];
    };
    (@sites $n:expr;) => {};
    (@sites $n:expr; $site:ident = $target:expr, $func:expr; $($rest:tt)*) => {
        const $site: $crate::CallSite = $crate::CallSite::new($n, $target, $func);
        $crate::call_sites!(@sites $n + 1; $($rest)*);
    };
}

/// Declares a component interface in the module it is expanded in: one
/// `&str` constant per function name, `FUNCTIONS` declaring each in
/// declaration order (a descriptor's [`ComponentDescriptor::interface`]),
/// and a nested `id` module with the same constants as [`FnId`]s, numbered
/// in that order, for the component to dispatch on.
///
/// A function's attributes follow its name: `logged` (paper Table II),
/// `replay_safe`, and one session role, `opens`, `touches`, `closes` or
/// `custom` ([`Session`]). Each is the [`FnDecl`] method of that name.
///
/// ```
/// use vampos_ukernel::{FnDecl, Session};
///
/// mod echo {
///     vampos_ukernel::interface! {
///         /// `ping()`.
///         PING = "ping": replay_safe;
///         /// `echo(session, bytes)`.
///         ECHO = "echo": logged, touches;
///     }
/// }
/// assert_eq!(echo::FUNCTIONS[0], FnDecl::new("ping").replay_safe());
/// assert_eq!(echo::FUNCTIONS[1].session, Session::Touches);
/// assert_eq!(echo::id::ECHO, vampos_ukernel::FnId(1));
/// ```
#[macro_export]
macro_rules! interface {
    ($($(#[$doc:meta])* $func:ident = $name:literal $(: $($attr:ident),+)?;)*) => {
        $($(#[$doc])* pub const $func: &str = $name;)*
        /// Every function's declaration, in `FnId` order.
        pub const FUNCTIONS: &[$crate::FnDecl] =
            &[$($crate::FnDecl::new($func)$($(.$attr())+)?),*];
        /// The functions' `FnId`s: each name's index in `FUNCTIONS`.
        pub mod id {
            $crate::interface!(@ids 0; $($(#[$doc])* $func)*);
        }
    };
    (@ids $n:expr;) => {};
    (@ids $n:expr; $(#[$doc:meta])* $func:ident $($rest:tt)*) => {
        $(#[$doc])*
        pub const $func: $crate::FnId = $crate::FnId($n);
        $crate::interface!(@ids $n + 1; $($rest)*);
    };
}

/// A logged function's role in the sessions of §V-F log shrinking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Session {
    /// Tied to no session (`mount`).
    None,
    /// Opens the session its `u64` return value names (`open`).
    Opens,
    /// Touches the session its first argument names (`read`).
    Touches,
    /// Closes the session its first argument names (`sock_net_close`).
    Closes,
    /// Classified by the component's [`Component::session_event`], from
    /// state the call leaves behind (VFS's `close`).
    Custom,
}

impl Session {
    /// The event of a call with `args` that returned `ret`: `None` when the
    /// role's key is not a `u64`, and for a custom role, which the
    /// component classifies.
    pub fn event(self, args: &[Value], ret: &Value) -> SessionEvent {
        let key = |v: Option<&Value>| match v {
            Some(&Value::U64(key)) => Some(key),
            _ => None,
        };
        match (self, key(Some(ret)), key(args.first())) {
            (Session::Opens, Some(key), _) => SessionEvent::Open(vec![key]),
            (Session::Touches, _, Some(key)) => SessionEvent::Touch(key),
            (Session::Closes, _, Some(key)) => SessionEvent::Close(vec![key]),
            _ => SessionEvent::None,
        }
    }
}

/// What an interface declares about one function: an entry of the
/// `'static` table [`interface!`] expands to. Every declared function is
/// part of the interface (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnDecl {
    /// The function's name.
    pub name: &'static str,
    /// Calls are logged for restoration (paper Table II).
    pub logged: bool,
    /// Restorable without a log entry: read-only, with effects in
    /// host-owned state, or rebuilt from runtime data (§V-B).
    pub replay_safe: bool,
    /// Its role in sessions, for a logged function.
    pub session: Session,
}

impl FnDecl {
    /// An unlogged function tied to no session.
    pub const fn new(name: &'static str) -> Self {
        FnDecl {
            name,
            logged: false,
            replay_safe: false,
            session: Session::None,
        }
    }

    /// Logs the function's calls.
    pub const fn logged(mut self) -> Self {
        self.logged = true;
        self
    }

    /// Declares the function replay-safe.
    pub const fn replay_safe(mut self) -> Self {
        self.replay_safe = true;
        self
    }

    /// [`Session::Opens`].
    pub const fn opens(mut self) -> Self {
        self.session = Session::Opens;
        self
    }

    /// [`Session::Touches`].
    pub const fn touches(mut self) -> Self {
        self.session = Session::Touches;
        self
    }

    /// [`Session::Closes`].
    pub const fn closes(mut self) -> Self {
        self.session = Session::Closes;
        self
    }

    /// [`Session::Custom`].
    pub const fn custom(mut self) -> Self {
        self.session = Session::Custom;
        self
    }
}

/// What a descriptor declares about one interface function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnInfo {
    /// The function's name, shared by every record that mentions it.
    pub name: Name,
    /// Its entry in the interface table.
    pub decl: FnDecl,
}

/// Static metadata describing a component to the VampOS runtime.
///
/// Construct with [`ComponentDescriptor::new`] and the builder-style
/// methods: a descriptor is the component's flags, its interface table,
/// its dependencies and its call sites.
///
/// ```
/// use vampos_ukernel::{ComponentDescriptor, FnDecl};
/// use vampos_mem::ArenaLayout;
///
/// let desc = ComponentDescriptor::new("vfs", ArenaLayout::large())
///     .stateful()
///     .checkpoint_init()
///     .interface(&[FnDecl::new("open").logged().opens(), FnDecl::new("fstat")])
///     .depends_on(&["9pfs", "lwip"]);
/// assert!(desc.is_logged("open"));
/// assert!(!desc.is_logged("fstat"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDescriptor {
    name: ComponentName,
    stateful: bool,
    rebootable: bool,
    hang_exempt: bool,
    checkpoint_init: bool,
    host_shared: bool,
    host_handshake: bool,
    dependencies: Rc<[ComponentName]>,
    /// The interface, in [`FnId`] order: the one table call sites are
    /// bound against, for the logging decision, the session role and the
    /// shared name.
    functions: Rc<[FnInfo]>,
    /// The outbound call sites, in [`CallSite`] index order.
    calls: &'static [CallSite],
    layout: ArenaLayout,
}

/// A descriptor is static metadata, fixed when the component is built, so
/// a component's digest needs only its name from it.
impl Hash for ComponentDescriptor {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ComponentDescriptor {
            name,
            stateful: _,
            rebootable: _,
            hang_exempt: _,
            checkpoint_init: _,
            host_shared: _,
            host_handshake: _,
            dependencies: _,
            functions: _,
            calls: _,
            layout: _,
        } = self;
        name.hash(state);
    }
}

impl ComponentDescriptor {
    /// Creates a descriptor for a stateless, rebootable component with no
    /// logged functions.
    pub fn new(name: impl Into<ComponentName>, layout: ArenaLayout) -> Self {
        ComponentDescriptor {
            name: name.into(),
            stateful: false,
            rebootable: true,
            hang_exempt: false,
            checkpoint_init: false,
            host_shared: false,
            host_handshake: false,
            dependencies: Rc::default(),
            functions: Rc::default(),
            calls: &[],
            layout,
        }
    }

    /// Marks the component stateful: its reboot requires encapsulated
    /// restoration (log replay) rather than a bare restart.
    #[must_use]
    pub fn stateful(mut self) -> Self {
        self.stateful = true;
        self
    }

    /// Marks the component unrebootable (state shared with the host).
    #[must_use]
    pub fn unrebootable(mut self) -> Self {
        self.rebootable = false;
        self
    }

    /// Exempts the component from hang detection (it legitimately waits on
    /// external events — LWIP in the prototypes).
    #[must_use]
    pub fn hang_exempt(mut self) -> Self {
        self.hang_exempt = true;
        self
    }

    /// Uses checkpoint-based initialization: reboot restores the boot-phase
    /// memory snapshot instead of running init (whose downcalls would
    /// disturb other components) — VFS and LWIP in the prototypes (§VI).
    #[must_use]
    pub fn checkpoint_init(mut self) -> Self {
        self.checkpoint_init = true;
        self
    }

    /// Marks the component's state as shared with the host (VIRTIO's rings
    /// in the prototypes, §VIII). A host-shared component is only safely
    /// rebootable if it also performs a host re-handshake
    /// ([`ComponentDescriptor::host_handshake`]); otherwise a local reboot
    /// desynchronises the two sides.
    #[must_use]
    pub fn host_shared(mut self) -> Self {
        self.host_shared = true;
        self
    }

    /// Declares that the component renegotiates its host-shared state on
    /// reboot (device reset + feature re-negotiation), making a
    /// [`ComponentDescriptor::host_shared`] component rebootable.
    #[must_use]
    pub fn host_handshake(mut self) -> Self {
        self.host_handshake = true;
        self
    }

    /// Declares the components this one sends messages to (the input of
    /// dependency-aware scheduling, §V-C).
    #[must_use]
    pub fn depends_on(mut self, deps: &[&str]) -> Self {
        self.dependencies = deps.iter().map(|&d| ComponentName::from(d)).collect();
        self
    }

    /// Declares the component's interface, in [`FnId`] order: `funcs[i]`
    /// is `FnId(i)`.
    #[must_use]
    pub fn interface(mut self, funcs: &[FnDecl]) -> Self {
        let info = |&decl: &FnDecl| FnInfo {
            name: Name::from(decl.name),
            decl,
        };
        self.functions = funcs.iter().map(info).collect();
        self
    }

    /// Declares the component's outbound calls, in [`CallSite`] index
    /// order ([`call_sites!`]'s `CALLS`). The runtime binds each once,
    /// when it links the system.
    #[must_use]
    pub fn calls(mut self, sites: &'static [CallSite]) -> Self {
        self.calls = sites;
        self
    }

    /// The component's name.
    pub fn name(&self) -> &ComponentName {
        &self.name
    }

    /// Whether the component is stateful.
    pub fn is_stateful(&self) -> bool {
        self.stateful
    }

    /// Whether the component can be rebooted at all.
    pub fn is_rebootable(&self) -> bool {
        self.rebootable
    }

    /// Whether the hang detector should skip this component.
    pub fn is_hang_exempt(&self) -> bool {
        self.hang_exempt
    }

    /// Whether reboot restores the boot-phase checkpoint.
    pub fn uses_checkpoint_init(&self) -> bool {
        self.checkpoint_init
    }

    /// Whether the component's state is shared with the host (§VIII).
    pub fn is_host_shared(&self) -> bool {
        self.host_shared
    }

    /// Whether the component renegotiates host-shared state on reboot.
    pub fn has_host_handshake(&self) -> bool {
        self.host_handshake
    }

    /// Declared message targets.
    pub fn dependencies(&self) -> &[ComponentName] {
        &self.dependencies
    }

    /// The outbound call sites, in index order.
    pub fn call_sites(&self) -> &'static [CallSite] {
        self.calls
    }

    /// The number of `func`; `None` when the interface does not declare
    /// it.
    pub fn fn_id(&self, func: &str) -> Option<FnId> {
        let at = self.functions.iter().position(|f| f.decl.name == func)?;
        Some(FnId(at as u16))
    }

    /// The number of the function a record names by its shared [`Name`]:
    /// found by pointer when the record shares this descriptor's name, and
    /// only otherwise by text.
    pub fn fn_id_of(&self, func: &Name) -> Option<FnId> {
        let infos = &self.functions;
        let shared = infos.iter().position(|f| Name::ptr_eq(&f.name, func));
        shared.map_or_else(|| self.fn_id(func), |at| Some(FnId(at as u16)))
    }

    /// The interface, in [`FnId`] order.
    pub fn functions(&self) -> &[FnInfo] {
        &self.functions
    }

    /// What the descriptor declares about function `id`.
    pub fn function_at(&self, id: FnId) -> Option<&FnInfo> {
        self.functions.get(id.index())
    }

    /// What the descriptor declares about `func`; `None` when the
    /// interface does not declare it.
    pub fn function(&self, func: &str) -> Option<&FnInfo> {
        self.function_at(self.fn_id(func)?)
    }

    /// Whether calls to `func` are logged for restoration.
    pub fn is_logged(&self, func: &str) -> bool {
        self.function(func).is_some_and(|f| f.decl.logged)
    }

    /// The logged-function set, in name order.
    pub fn logged_functions(&self) -> impl Iterator<Item = &'static str> {
        let logged = self.functions.iter().filter(|f| f.decl.logged);
        let mut funcs: Vec<&'static str> = logged.map(|f| f.decl.name).collect();
        funcs.sort_unstable();
        funcs.into_iter()
    }

    /// The component's memory layout.
    pub fn layout(&self) -> &ArenaLayout {
        &self.layout
    }
}

/// Session classification of a logged call, for session-aware log shrinking
/// (§V-F). Sessions are keyed by a component-chosen `u64` (fd numbers in
/// VFS, socket fds in LWIP, fids in 9PFS; components may carve namespaces
/// out of the key space, e.g. VFS tags vnode sessions with a high bit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// Not tied to a session; the entry is always kept (e.g. `mount`).
    None,
    /// Creates the listed sessions (usually one — `open` returning an fd;
    /// `pipe` creates two). Replaying this entry recreates all of them.
    Open(Vec<u64>),
    /// Belongs to a session (e.g. `read`/`write` on the fd).
    Touch(u64),
    /// A *canceling function*: ends the listed sessions and makes their
    /// entries unnecessary (e.g. `close`, which may retire both the fd
    /// session and the vnode session). The log removes the sessions'
    /// entries — and this entry itself once no surviving entry would
    /// recreate any of the closed sessions on replay.
    Close(Vec<u64>),
}

/// How compaction should treat the `Touch` entries of one open session.
#[derive(Debug, Clone, PartialEq)]
pub enum TouchSynthesis {
    /// The touches carry irreplaceable information; keep them.
    Keep,
    /// The touches carry no restorable state (e.g. socket reads whose
    /// payloads are gone anyway); drop them.
    Drop,
    /// Replace all touches with this single synthetic `(func, args, ret)`
    /// entry (e.g. `vfs_set_offset` summarising a run of reads/writes).
    Replace {
        /// Synthetic function name.
        func: Name,
        /// Its arguments.
        args: Vec<Value>,
        /// Its expected return value.
        ret: Value,
    },
}

/// The services the runtime offers a component while it executes a call.
///
/// A component must reach other components **only** through
/// [`CallContext::invoke`]: that is the hook where VampOS interposes message
/// passing, scheduling, logging — and, during encapsulated restoration, the
/// substitution of logged return values for live downcalls.
pub trait CallContext {
    /// Makes the call `site`, one of the caller's declared
    /// [`ComponentDescriptor::calls`].
    ///
    /// # Errors
    ///
    /// Propagates the callee's error, or a framework error (unknown
    /// component/function, unavailable component, protection fault).
    fn invoke(&mut self, site: CallSite, args: &[Value]) -> Result<Value, OsError>;

    /// The current virtual time.
    fn now(&self) -> Nanos;

    /// Charges extra virtual time for modeled work (e.g. a block copy).
    fn charge(&mut self, cost: Nanos);

    /// Deterministic randomness (e.g. initial TCP sequence numbers).
    fn rng(&mut self) -> &mut SimRng;

    /// The active cost model (components charge host/device costs with it).
    fn costs(&self) -> &CostModel;

    /// The calling component's memory arena. The runtime owns it: it builds
    /// the arena from the descriptor's name and layout, and snapshots,
    /// restores, resets and ages it; the component only allocates in it.
    fn arena(&mut self) -> &mut MemoryArena;

    /// The host world the system runs on: the devices a host-shared
    /// component (VIRTIO) drives. The runtime holds the handle, so a
    /// component is a plain value that any system can clone.
    fn host(&self) -> &HostHandle;

    /// True while the component is being replayed during encapsulated
    /// restoration; downcalls are then answered from the log.
    fn is_replay(&self) -> bool;

    /// During replay, the return value the call produced originally.
    ///
    /// Components that allocate identifiers (fds, fids, socket ids) consult
    /// this so replayed allocations yield exactly the ids the application
    /// already holds — the paper's restoration "feeds the same inputs to the
    /// restarted components" (§II-B), and identifiers are part of those
    /// inputs. `None` outside replay.
    fn replay_hint(&self) -> Option<&Value> {
        None
    }

    /// Emits a point event on the component's telemetry track (e.g. a
    /// VIRTIO host kick or a 9P RPC). No-op unless the runtime has a
    /// telemetry collector attached; never emitted during replay. `detail`
    /// is formatted only when the event is recorded.
    fn trace_instant(&mut self, _name: &str, _detail: fmt::Arguments<'_>) {}
}

/// Data log replay cannot rebuild (§V-B), moved out of a discarded
/// component into its successor. Its type belongs to the interface, so
/// every version of a component (§VIII) shares it; a receiver that cannot
/// downcast it refuses it.
pub type RuntimeData = Box<dyn Any>;

/// A component as its own boot image (§V-E): the runtime keeps the
/// component as built and reboots it by copying that back, so a reboot
/// discards every field of its state. Every `Clone + Hash` component has
/// one.
pub trait BootImage: Any {
    /// A boxed copy of this component.
    fn clone_box(&self) -> ComponentBox;

    /// Overwrites `live` with a copy of this component, in place when
    /// `live` holds the same type, so an image whose fields are empty
    /// copies without allocating.
    fn copy_into(&self, live: &mut ComponentBox);

    /// A digest of every field of the component, from its `Hash`: what the
    /// oracles compare to check that restoration reproduces the pre-reboot
    /// state and that one component's restoration leaves the others alone.
    fn state_digest(&self) -> u64;
}

impl<T: Component + Clone + Hash> BootImage for T {
    fn clone_box(&self) -> ComponentBox {
        Box::new(self.clone())
    }

    fn copy_into(&self, live: &mut ComponentBox) {
        let any: &mut dyn Any = &mut **live;
        match any.downcast_mut::<T>() {
            Some(same) => same.clone_from(self),
            None => *live = self.clone_box(),
        }
    }

    fn state_digest(&self) -> u64 {
        let mut digest = DigestBuilder::new();
        self.hash(&mut digest);
        digest.finish()
    }
}

/// A unikernel component.
///
/// Implementations hold *real* state (fd tables, TCP control blocks, fid
/// maps) as Rust data, mirror their dynamic footprint in the
/// [`MemoryArena`] the runtime keeps for them ([`CallContext::arena`]), and
/// expose their interface through [`Component::call`]. A component holds no
/// memory of its own, and it is its own boot image ([`BootImage`]): the
/// runtime builds the arena from the descriptor and checkpoints it, keeps a
/// copy of the component as constructed, and reboots the component by
/// restoring both.
///
/// The default implementations of the optional hooks suit stateless
/// components; stateful ones override the restoration-related hooks.
pub trait Component: BootImage {
    /// Static metadata.
    fn descriptor(&self) -> &ComponentDescriptor;

    /// Handles one call of function `func`, numbered in the descriptor's
    /// function table. The runtime dispatches only functions the
    /// descriptor declares.
    ///
    /// # Errors
    ///
    /// POSIX-ish errors for the caller; failure errors ([`OsError::Panic`],
    /// …) signal the failure detector.
    fn call(
        &mut self,
        ctx: &mut dyn CallContext,
        func: FnId,
        args: &[Value],
    ) -> Result<Value, OsError>;

    /// Takes the runtime data that log replay cannot reconstruct (LWIP's TCP
    /// sequence/ACK numbers, §V-B) out of a component about to be
    /// discarded. `None` when the component has none.
    fn extract_runtime(&mut self) -> Option<RuntimeData> {
        None
    }

    /// Restores previously extracted runtime data after replay, allocating
    /// whatever it re-creates in `arena` (the component's own).
    ///
    /// # Errors
    ///
    /// [`OsError::ReplayMismatch`] when the data is of a foreign type.
    fn restore_runtime(
        &mut self,
        _data: RuntimeData,
        _arena: &mut MemoryArena,
    ) -> Result<(), OsError> {
        Ok(())
    }

    /// Classifies a logged call of a function whose declared role is
    /// [`Session::Custom`], for session-aware shrinking; the runtime
    /// classifies every other role from the interface table
    /// ([`Session::event`]).
    fn session_event(&self, _func: FnId, _args: &[Value], _ret: &Value) -> SessionEvent {
        SessionEvent::None
    }

    /// Decides how threshold-triggered compaction (§V-F: "we can shrink a
    /// series of `write()` by preserving the offset") handles the `Touch`
    /// entries of a still-open session: keep them, drop them outright, or
    /// replace them all with one synthetic entry. Synthetic functions must
    /// be executable without downcalls.
    fn synthesize_touch(&self, _session: u64) -> TouchSynthesis {
        TouchSynthesis::Keep
    }

    /// Called once after encapsulated restoration completes (log replayed,
    /// runtime data restored). Components fix up allocation counters here
    /// (e.g. `next_fd = max(live fds) + 1` after a shrunk log replays fewer
    /// allocations than originally happened).
    fn finish_replay(&mut self) {}
}

/// A boxed component, as stored by the runtime.
pub type ComponentBox = Box<dyn Component>;

#[cfg(test)]
mod tests {
    use super::*;

    mod dummy {
        crate::interface! {
            PING = "ping";
            RESET = "reset": logged;
        }
    }

    #[derive(Clone, Hash)]
    struct Dummy {
        desc: ComponentDescriptor,
        hits: u32,
    }

    impl Dummy {
        fn new() -> Self {
            Dummy {
                desc: ComponentDescriptor::new("dummy", ArenaLayout::small())
                    .interface(dummy::FUNCTIONS),
                hits: 0,
            }
        }
    }

    impl Component for Dummy {
        fn descriptor(&self) -> &ComponentDescriptor {
            &self.desc
        }
        fn call(
            &mut self,
            _ctx: &mut dyn CallContext,
            func: FnId,
            _args: &[Value],
        ) -> Result<Value, OsError> {
            match func {
                dummy::id::PING => self.hits += 1,
                dummy::id::RESET => self.hits = 0,
                _ => unreachable!("dummy declares no function {func:?}"),
            }
            Ok(Value::U64(self.hits as u64))
        }
    }

    struct NullCtx(SimRng, CostModel, MemoryArena, HostHandle);

    impl NullCtx {
        fn new() -> Self {
            NullCtx(
                SimRng::seed_from(1),
                CostModel::default(),
                MemoryArena::new("dummy", ArenaLayout::small()),
                HostHandle::new(),
            )
        }
    }

    impl CallContext for NullCtx {
        fn invoke(&mut self, site: CallSite, _a: &[Value]) -> Result<Value, OsError> {
            Err(OsError::UnknownComponent(site.target().into()))
        }
        fn now(&self) -> Nanos {
            Nanos::ZERO
        }
        fn charge(&mut self, _cost: Nanos) {}
        fn rng(&mut self) -> &mut SimRng {
            &mut self.0
        }
        fn costs(&self) -> &CostModel {
            &self.1
        }
        fn arena(&mut self) -> &mut MemoryArena {
            &mut self.2
        }
        fn host(&self) -> &HostHandle {
            &self.3
        }
        fn is_replay(&self) -> bool {
            false
        }
    }

    #[test]
    fn descriptor_builder_sets_flags() {
        let d = ComponentDescriptor::new("lwip", ArenaLayout::large())
            .stateful()
            .hang_exempt()
            .checkpoint_init()
            .depends_on(&["netdev", "vfs"])
            .interface(&[
                FnDecl::new("socket").logged(),
                FnDecl::new("bind").logged(),
                FnDecl::new("send"),
            ]);
        assert!(d.is_stateful());
        assert!(d.is_rebootable());
        assert!(d.is_hang_exempt());
        assert!(d.uses_checkpoint_init());
        assert_eq!(d.dependencies().len(), 2);
        assert!(d.is_logged("socket"));
        assert!(!d.is_logged("send"));
        assert_eq!(d.logged_functions().count(), 2);
    }

    #[test]
    fn unrebootable_flag() {
        let d = ComponentDescriptor::new("virtio", ArenaLayout::small()).unrebootable();
        assert!(!d.is_rebootable());
    }

    #[test]
    fn host_sharing_flags() {
        let d = ComponentDescriptor::new("virtio", ArenaLayout::small())
            .host_shared()
            .unrebootable();
        assert!(d.is_host_shared());
        assert!(!d.has_host_handshake());
        let d2 = ComponentDescriptor::new("virtio2", ArenaLayout::small())
            .host_shared()
            .host_handshake();
        assert!(d2.has_host_handshake());
    }

    #[test]
    fn interface_declaration() {
        mod fs {
            crate::interface! {
                OPEN = "open": logged, opens;
                CLOSE = "close": logged, closes;
                FSTAT = "fstat": replay_safe;
            }
        }
        let d = ComponentDescriptor::new("vfs", ArenaLayout::small()).interface(fs::FUNCTIONS);
        let open = d.function_at(fs::id::OPEN).expect("declared");
        assert_eq!(open.name, "open");
        assert_eq!(open.decl, FnDecl::new(fs::OPEN).logged().opens());
        assert!(d.function("fstat").is_some_and(|f| f.decl.replay_safe));
        assert!(d.function("nope").is_none());
        assert_eq!(d.logged_functions().collect::<Vec<_>>(), ["close", "open"]);
        // Functions are numbered in declaration order.
        assert_eq!(d.fn_id("close"), Some(fs::id::CLOSE));
        assert_eq!(d.fn_id_of(&Name::from("fstat")), Some(fs::id::FSTAT));
        assert_eq!(
            d.function_at(fs::id::FSTAT).map(|f| &f.name),
            Some(&d.function("fstat").unwrap().name)
        );
        assert_eq!(d.functions().len(), 3);
        assert!(ComponentDescriptor::new("x", ArenaLayout::small())
            .functions()
            .is_empty());
    }

    #[test]
    fn each_role_classifies_a_call_from_its_key() {
        let (key, path, unit) = ([Value::U64(3)], [Value::from("/a")], Value::Unit);
        let f = FnDecl::new("f");
        // A role reads its key from the return value or the first argument.
        let opened = f.opens().session.event(&[], &key[0]);
        assert_eq!(opened, SessionEvent::Open(vec![3]));
        let touched = f.touches().session.event(&key, &unit);
        assert_eq!(touched, SessionEvent::Touch(3));
        let closed = f.closes().session.event(&key, &unit);
        assert_eq!(closed, SessionEvent::Close(vec![3]));
        // A key that is not a `u64`, or no key at all, classifies nothing.
        assert_eq!(Session::Opens.event(&key, &path[0]), SessionEvent::None);
        assert_eq!(Session::Touches.event(&path, &key[0]), SessionEvent::None);
        assert_eq!(Session::Closes.event(&[], &key[0]), SessionEvent::None);
        // No role, and the component's own, classify nothing here either.
        for role in [Session::None, Session::Custom] {
            assert_eq!(role.event(&key, &key[0]), SessionEvent::None);
        }
    }

    #[test]
    fn default_hooks_are_benign() {
        let mut c = Dummy::new();
        let mut ctx = NullCtx::new();
        assert!(c.extract_runtime().is_none());
        assert!(c.restore_runtime(Box::new(()), ctx.arena()).is_ok());
        assert_eq!(
            c.session_event(dummy::id::PING, &[], &Value::Unit),
            SessionEvent::None
        );
        assert_eq!(c.synthesize_touch(0), TouchSynthesis::Keep);
    }

    #[test]
    fn call_and_reset_round_trip() {
        let image = Dummy::new();
        let mut c = image.clone_box();
        let mut ctx = NullCtx::new();
        let ping = c.descriptor().fn_id("ping").unwrap();
        assert_eq!(ping, dummy::id::PING);
        assert_eq!(c.call(&mut ctx, ping, &[]).unwrap(), Value::U64(1));
        assert_eq!(c.call(&mut ctx, ping, &[]).unwrap(), Value::U64(2));
        // The digest covers every field.
        assert_ne!(c.state_digest(), image.state_digest());
        // A reboot copies the boot image over the live component, in place.
        let live: *const dyn Component = &*c;
        image.copy_into(&mut c);
        assert!(std::ptr::addr_eq(live, &*c));
        assert_eq!(c.state_digest(), image.state_digest());
        assert_eq!(c.call(&mut ctx, ping, &[]).unwrap(), Value::U64(1));
        assert_eq!(
            c.call(&mut ctx, dummy::id::RESET, &[]).unwrap(),
            Value::U64(0)
        );
    }

    #[test]
    fn functions_and_call_sites_are_numbered_in_order() {
        mod x {
            crate::call_sites! {
                A = "vfs", "open";
                B = "vfs", "close";
            }
        }
        let d = ComponentDescriptor::new("x", ArenaLayout::small())
            .interface(&[FnDecl::new("a"), FnDecl::new("b").logged()])
            .calls(x::CALLS);
        assert_eq!(d.fn_id("b"), Some(FnId(1)));
        assert!(d.function("a").is_some_and(|f| !f.decl.logged));
        assert_eq!(
            d.call_sites(),
            [
                CallSite::new(0, "vfs", "open"),
                CallSite::new(1, "vfs", "close")
            ]
        );
    }

    #[test]
    fn component_name_conversions() {
        let n = ComponentName::from("vfs");
        assert_eq!(n.as_str(), "vfs");
        assert_eq!(n.to_string(), "vfs");
        assert_eq!(n.as_ref(), "vfs");
        assert_eq!(ComponentName::from(String::from("x")).as_str(), "x");
    }
}
