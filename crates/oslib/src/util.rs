//! The stateless utility components: PROCESS, SYSINFO, USER, TIMER.
//!
//! These are the components the paper reboots "by restarting them without
//! function call logging or encapsulated restoration" (§VI): they keep no
//! state an application observes across calls, so a bare reset is a correct
//! reboot.

use vampos_mem::ArenaLayout;
use vampos_ukernel::{CallContext, Component, ComponentDescriptor, FnId, OsError, Value};

use crate::funcs::{process, sysinfo, timer, user};

/// PROCESS: process-related functions (`getpid()` and friends).
///
/// A unikernel hosts exactly one process, so the answers are constants —
/// which is precisely why the component is stateless and trivially
/// rebootable.
#[derive(Debug, Clone, Hash)]
pub struct Process {
    desc: ComponentDescriptor,
}

impl Default for Process {
    fn default() -> Self {
        Self::new()
    }
}

impl Process {
    /// Creates the component.
    pub fn new() -> Self {
        Process {
            desc: ComponentDescriptor::new(vampos_ukernel::names::PROCESS, ArenaLayout::small())
                .interface(process::FUNCTIONS),
        }
    }
}

impl Component for Process {
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
            process::id::GETPID | process::id::GETTID => Ok(Value::U64(1)),
            process::id::GETPPID => Ok(Value::U64(0)),
            _ => unreachable!("process declares no function {func:?}"),
        }
    }
}

/// SYSINFO: system-information functions (`uname()` and friends).
#[derive(Debug, Clone, Hash)]
pub struct SysInfo {
    desc: ComponentDescriptor,
}

impl Default for SysInfo {
    fn default() -> Self {
        Self::new()
    }
}

impl SysInfo {
    /// Creates the component.
    pub fn new() -> Self {
        SysInfo {
            desc: ComponentDescriptor::new(vampos_ukernel::names::SYSINFO, ArenaLayout::small())
                .interface(sysinfo::FUNCTIONS),
        }
    }
}

impl Component for SysInfo {
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
            sysinfo::id::UNAME => Ok(Value::from("VampOS-RS 0.1.0 x86_64")),
            sysinfo::id::GETHOSTNAME => Ok(Value::from("vampos")),
            sysinfo::id::SYSINFO => Ok(Value::List(vec![
                Value::U64(88 << 20), // total memory (the 88 MB cap of §VI)
                Value::U64(1),        // cpus
            ])),
            _ => unreachable!("sysinfo declares no function {func:?}"),
        }
    }
}

/// USER: user-information functions (`getuid()` and friends). A unikernel
/// runs as a single implicit root user.
#[derive(Debug, Clone, Hash)]
pub struct User {
    desc: ComponentDescriptor,
}

impl Default for User {
    fn default() -> Self {
        Self::new()
    }
}

impl User {
    /// Creates the component.
    pub fn new() -> Self {
        User {
            desc: ComponentDescriptor::new(vampos_ukernel::names::USER, ArenaLayout::small())
                .interface(user::FUNCTIONS),
        }
    }
}

impl Component for User {
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
            user::id::GETUID | user::id::GETEUID | user::id::GETGID | user::id::GETEGID => {
                Ok(Value::U64(0))
            }
            _ => unreachable!("user declares no function {func:?}"),
        }
    }
}

/// TIMER: time-related operations, backed by the virtual clock.
#[derive(Debug, Clone, Hash)]
pub struct Timer {
    desc: ComponentDescriptor,
}

impl Default for Timer {
    fn default() -> Self {
        Self::new()
    }
}

impl Timer {
    /// Creates the component.
    pub fn new() -> Self {
        Timer {
            desc: ComponentDescriptor::new(vampos_ukernel::names::TIMER, ArenaLayout::small())
                .interface(timer::FUNCTIONS),
        }
    }
}

impl Component for Timer {
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
            timer::id::CLOCK_GETTIME => Ok(Value::U64(ctx.now().as_nanos())),
            timer::id::TIME => Ok(Value::U64(ctx.now().as_nanos() / 1_000_000_000)),
            timer::id::NANOSLEEP => {
                let ns = args.first().ok_or(OsError::Inval)?.as_u64()?;
                ctx.charge(vampos_sim::Nanos::from_nanos(ns));
                Ok(Value::Unit)
            }
            _ => unreachable!("timer declares no function {func:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::StubCtx;
    use vampos_sim::Nanos;

    #[test]
    fn process_returns_constant_ids() {
        let mut c = Process::new();
        let mut ctx = StubCtx::new();
        let id = |func| c.descriptor().fn_id(func).unwrap();
        let (getpid, getppid, gettid) = (id("getpid"), id("getppid"), id("gettid"));
        assert_eq!(c.call(&mut ctx, getpid, &[]).unwrap(), Value::U64(1));
        assert_eq!(c.call(&mut ctx, getppid, &[]).unwrap(), Value::U64(0));
        assert_eq!(c.call(&mut ctx, gettid, &[]).unwrap(), Value::U64(1));
        assert!(c.descriptor().fn_id("fork").is_none());
    }

    #[test]
    fn process_is_stateless_and_rebootable() {
        let c = Process::new();
        assert!(!c.descriptor().is_stateful());
        assert!(c.descriptor().is_rebootable());
        assert_eq!(c.descriptor().logged_functions().count(), 0);
    }

    #[test]
    fn sysinfo_reports_identity() {
        let mut c = SysInfo::new();
        let mut ctx = StubCtx::new();
        let uname = c.call(&mut ctx, sysinfo::id::UNAME, &[]).unwrap();
        assert!(uname.as_str().unwrap().contains("VampOS"));
        let info = c.call(&mut ctx, sysinfo::id::SYSINFO, &[]).unwrap();
        assert_eq!(info.as_list().unwrap().len(), 2);
    }

    #[test]
    fn user_is_root() {
        let mut c = User::new();
        let mut ctx = StubCtx::new();
        for func in [
            user::id::GETUID,
            user::id::GETEUID,
            user::id::GETGID,
            user::id::GETEGID,
        ] {
            assert_eq!(c.call(&mut ctx, func, &[]).unwrap(), Value::U64(0));
        }
    }

    #[test]
    fn timer_reads_virtual_clock() {
        let mut c = Timer::new();
        let mut ctx = StubCtx::new();
        ctx.charge(Nanos::from_secs(2));
        assert_eq!(
            c.call(&mut ctx, timer::id::CLOCK_GETTIME, &[]).unwrap(),
            Value::U64(2_000_000_000)
        );
        assert_eq!(
            c.call(&mut ctx, timer::id::TIME, &[]).unwrap(),
            Value::U64(2)
        );
    }

    #[test]
    fn nanosleep_advances_virtual_time() {
        let mut c = Timer::new();
        let mut ctx = StubCtx::new();
        c.call(&mut ctx, timer::id::NANOSLEEP, &[Value::U64(5_000)])
            .unwrap();
        assert_eq!(ctx.clock().now(), Nanos::from_nanos(5_000));
        assert!(matches!(
            c.call(&mut ctx, timer::id::NANOSLEEP, &[]),
            Err(OsError::Inval)
        ));
    }
}
