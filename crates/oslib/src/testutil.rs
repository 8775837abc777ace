//! Test support: a scriptable [`CallContext`] for exercising a component in
//! isolation.
//!
//! Component unit tests use [`StubCtx`] to (a) script the return values of
//! downcalls the component makes and (b) record the downcalls for
//! assertions. Full-stack behaviour is covered by the `vampos-core`
//! integration tests, which wire the real runtime.

use std::collections::VecDeque;

use vampos_host::HostHandle;
use vampos_mem::{ArenaLayout, MemoryArena};
use vampos_sim::{CostModel, Nanos, SimClock, SimRng};
use vampos_ukernel::{CallContext, CallSite, OsError, Value};

/// One recorded downcall: `(target, func, args)`.
pub type RecordedCall = (String, String, Vec<Value>);

/// The signature of an auto-reply handler answering every downcall.
pub type AutoReply = dyn Fn(&str, &str, &[Value]) -> Result<Value, OsError>;

/// A scriptable call context for component unit tests.
///
/// Downcall responses are served from a FIFO script; unscripted downcalls
/// fail the test with a panic (so a component silently making unexpected
/// calls is caught).
pub struct StubCtx {
    clock: SimClock,
    rng: SimRng,
    costs: CostModel,
    /// The arena the component under test allocates in, as the runtime's
    /// slot would lend it.
    memory: MemoryArena,
    /// The host world VIRTIO drives, as the runtime would lend it.
    host: HostHandle,
    script: VecDeque<Result<Value, OsError>>,
    calls: Vec<RecordedCall>,
    replay: bool,
    replay_hint: Option<Value>,
    /// When set, every `invoke` is answered with this value (used for
    /// components whose downcalls are homogeneous, e.g. NETDEV → VIRTIO).
    auto_reply: Option<Box<AutoReply>>,
}

impl std::fmt::Debug for StubCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StubCtx")
            .field("scripted", &self.script.len())
            .field("calls", &self.calls.len())
            .field("replay", &self.replay)
            .finish()
    }
}

impl Default for StubCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl StubCtx {
    /// Creates a context with an empty script.
    pub fn new() -> Self {
        StubCtx {
            clock: SimClock::new(),
            rng: SimRng::seed_from(0xC0FFEE),
            costs: CostModel::default(),
            memory: MemoryArena::new("stub", ArenaLayout::large()),
            host: HostHandle::new(),
            script: VecDeque::new(),
            calls: Vec::new(),
            replay: false,
            replay_hint: None,
            auto_reply: None,
        }
    }

    /// Queues the response for the next unscripted downcall.
    pub fn expect(&mut self, response: Result<Value, OsError>) -> &mut Self {
        self.script.push_back(response);
        self
    }

    /// Installs a function answering every downcall (takes priority over the
    /// scripted queue).
    pub fn auto(&mut self, f: impl Fn(&str, &str, &[Value]) -> Result<Value, OsError> + 'static) {
        self.auto_reply = Some(Box::new(f));
    }

    /// The downcalls recorded so far.
    pub fn calls(&self) -> &[RecordedCall] {
        &self.calls
    }

    /// Clears recorded downcalls.
    pub fn clear_calls(&mut self) {
        self.calls.clear();
    }

    /// Marks the context as replaying, with the given expected return value.
    pub fn set_replay(&mut self, hint: Option<Value>) {
        self.replay = true;
        self.replay_hint = hint;
    }

    /// Leaves replay mode.
    pub fn clear_replay(&mut self) {
        self.replay = false;
        self.replay_hint = None;
    }

    /// The virtual clock (to assert on charged costs).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }
}

impl CallContext for StubCtx {
    fn invoke(&mut self, site: CallSite, args: &[Value]) -> Result<Value, OsError> {
        let (target, func) = (site.target(), site.func());
        self.calls
            .push((target.to_owned(), func.to_owned(), args.to_vec()));
        if let Some(auto) = &self.auto_reply {
            return auto(target, func, args);
        }
        self.script
            .pop_front()
            .unwrap_or_else(|| panic!("unscripted downcall: {target}.{func}({args:?})"))
    }

    fn now(&self) -> Nanos {
        self.clock.now()
    }

    fn charge(&mut self, cost: Nanos) {
        self.clock.advance(cost);
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    fn costs(&self) -> &CostModel {
        &self.costs
    }

    fn arena(&mut self) -> &mut MemoryArena {
        &mut self.memory
    }

    fn host(&self) -> &HostHandle {
        &self.host
    }

    fn is_replay(&self) -> bool {
        self.replay
    }

    fn replay_hint(&self) -> Option<&Value> {
        self.replay_hint.as_ref()
    }
}
