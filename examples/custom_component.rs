//! Writing your own VampOS-aware component.
//!
//! Implements a small "session registry" component (think of a TLS-ticket
//! or auth-token cache living in the unikernel layer), links it into a
//! system with [`SystemBuilder::extra_component`], and demonstrates that:
//!
//! 1. its logged functions are replayed across a component reboot, so
//!    registered sessions survive;
//! 2. its canceling function (`revoke`) shrinks the log;
//! 3. an injected fail-stop fault is recovered in-line.
//!
//! The component declares its interface with [`vampos_ukernel::interface!`]:
//! one name constant per function (what callers and
//! [`System::syscall`] name), `FUNCTIONS` (the static table the descriptor
//! takes with `.interface(..)`, where each function says whether it is
//! `logged` or `replay_safe` and which session it `opens`, `touches` or
//! `closes`) and the `id` module, which numbers the same functions as
//! [`FnId`]s in that order. The runtime reads each logged call's session
//! from the table, so this component writes no `session_event`. It
//! resolves a call's names to a function number once — for a component's
//! declared [`CallSite`](vampos_ukernel::CallSite)s and the `Os` facade,
//! when the system links; for [`System::syscall`], per call — and
//! [`Component::call`] dispatches on the number, so no hop compares a
//! name. A component that calls others numbers its calls with
//! [`vampos_ukernel::call_sites!`], declares them with `.calls(CALLS)` and
//! passes a site to [`CallContext::invoke`]; this one calls nothing.
//!
//! The component holds only its Rust state, and it is `Clone` and `Hash`:
//! the runtime keeps the component as constructed as its boot image and
//! copies it over the live one on every reboot, so the component writes no
//! reset logic, and its state digest hashes every field, so it writes no
//! digest either.
//! Its memory belongs to the runtime too, which builds the arena from the
//! descriptor's name and layout, resets and checkpoints it on every reboot,
//! and lends it to a running call through [`CallContext::arena`].
//!
//! ```text
//! cargo run --example custom_component
//! ```

use vampos::prelude::*;
use vampos_core::InjectedFault;
use vampos_mem::ArenaLayout;
use vampos_ukernel::{CallContext, Component, ComponentDescriptor, FnId, Value};

/// The component's interface.
mod api {
    vampos_ukernel::interface! {
        /// `register(user)` — opens a session; returns its id.
        REGISTER = "register": logged, opens;
        /// `whois(id)` — the session's user; read-only.
        WHOIS = "whois": replay_safe;
        /// `revoke(id)` — closes a session (a canceling function).
        REVOKE = "revoke": logged, closes;
    }
}

/// A stateful unikernel component managing authentication sessions.
#[derive(Clone, Hash)]
struct SessionRegistry {
    desc: ComponentDescriptor,
    sessions: std::collections::BTreeMap<u64, String>,
    next_id: u64,
}

impl SessionRegistry {
    fn new() -> Self {
        SessionRegistry {
            desc: ComponentDescriptor::new("sessions", ArenaLayout::medium())
                .stateful()
                .checkpoint_init()
                .interface(api::FUNCTIONS),
            sessions: std::collections::BTreeMap::new(),
            next_id: 1,
        }
    }
}

impl Component for SessionRegistry {
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
            api::id::REGISTER => {
                let user = args.first().ok_or(OsError::Inval)?.as_str()?.to_owned();
                // Replay-hint-guided allocation: a replayed `register` hands
                // back exactly the id the application already holds.
                let id = match ctx.replay_hint() {
                    Some(hint) => hint.as_u64()?,
                    None => {
                        let id = self.next_id;
                        self.next_id += 1;
                        id
                    }
                };
                self.sessions.insert(id, user);
                Ok(Value::U64(id))
            }
            api::id::WHOIS => {
                let id = args.first().ok_or(OsError::Inval)?.as_u64()?;
                self.sessions
                    .get(&id)
                    .map(|u| Value::from(u.as_str()))
                    .ok_or(OsError::NotFound)
            }
            api::id::REVOKE => {
                let id = args.first().ok_or(OsError::Inval)?.as_u64()?;
                self.sessions.remove(&id).ok_or(OsError::NotFound)?;
                Ok(Value::Unit)
            }
            // The runtime dispatches declared functions only: a call of
            // an undeclared one fails before it reaches the component.
            _ => unreachable!("sessions declares no function {func:?}"),
        }
    }

    fn finish_replay(&mut self) {
        self.next_id = self.sessions.keys().max().map_or(1, |m| m + 1);
    }
}

fn main() -> Result<(), OsError> {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .extra_component(Box::new(SessionRegistry::new()))
        .build()?;
    println!("linked a custom component; MPK tags = {}", sys.mpk_tags());

    // Register a few sessions through the message-passing layer.
    let alice = sys
        .syscall("sessions", api::REGISTER, &[Value::from("alice")])?
        .as_u64()?;
    let bob = sys
        .syscall("sessions", api::REGISTER, &[Value::from("bob")])?
        .as_u64()?;
    let carol = sys
        .syscall("sessions", api::REGISTER, &[Value::from("carol")])?
        .as_u64()?;
    println!("registered alice={alice} bob={bob} carol={carol}");

    // Revoking a session is a canceling function: the log shrinks.
    sys.syscall("sessions", api::REVOKE, &[Value::U64(bob)])?;
    println!(
        "after revoking bob, log holds {} entries",
        sys.log_len("sessions")
    );

    // Reboot the component: checkpoint restore + encapsulated replay.
    let digest = sys.state_digest("sessions").unwrap();
    let outcome = sys.reboot_component("sessions")?;
    assert_eq!(sys.state_digest("sessions").unwrap(), digest);
    println!(
        "rebooted in {} replaying {} entries — state digest identical",
        outcome.downtime, outcome.replayed
    );
    assert_eq!(
        sys.syscall("sessions", api::WHOIS, &[Value::U64(carol)])?
            .as_str()?,
        "carol"
    );

    // Inject a fail-stop fault: the runtime detects, reboots, restores and
    // re-executes the in-flight call — the caller never sees the failure.
    sys.inject_fault(InjectedFault::panic_next("sessions"));
    let who = sys.syscall("sessions", api::WHOIS, &[Value::U64(alice)])?;
    println!(
        "survived an injected panic mid-call: whois(alice) = {who} \
         (reboots: {})",
        sys.reboot_count("sessions")
    );
    Ok(())
}
