//! Routing policies for the fleet front-end.

use vampos_sim::Nanos;

use crate::instance::Instance;

/// How the balancer picks an instance for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Keep-alive connections assigned round-robin at connect time; a
    /// client sticks to its instance until the connection dies.
    RoundRobin,
    /// Sticky, but a client migrates whenever some instance has strictly
    /// fewer outstanding requests than its current one. Reacts to reboot
    /// windows only *after* a request has already queued behind one.
    LeastOutstanding,
    /// Sticky round-robin over *eligible* instances only: an instance is
    /// drained while the maintenance plan says so or while any of its
    /// components is inside a known recovery window, and re-admitted the
    /// moment the window closes. When nothing is eligible (fleet of one,
    /// fleet-wide maintenance) it degrades to plain round-robin rather
    /// than stalling.
    RecoveryAware,
}

impl Policy {
    /// Display name used in reports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::RoundRobin => "round-robin",
            Policy::LeastOutstanding => "least-outstanding",
            Policy::RecoveryAware => "recovery-aware",
        }
    }

    /// Parses a [`Policy::name`].
    pub fn from_name(name: &str) -> Option<Policy> {
        match name {
            "round-robin" => Some(Policy::RoundRobin),
            "least-outstanding" => Some(Policy::LeastOutstanding),
            "recovery-aware" => Some(Policy::RecoveryAware),
            _ => None,
        }
    }
}

/// The fleet front-end: applies a [`Policy`] deterministically.
#[derive(Debug)]
pub struct Balancer {
    policy: Policy,
    cursor: usize,
    /// Chaos fault: a frozen snapshot of each instance's `(draining,
    /// recovery_until)` pair plus an expiry instant. While the snapshot is
    /// live, eligibility answers come from the stale view instead of the
    /// instances — the balancer keeps routing to hosts it believes healthy.
    frozen: Option<(Vec<(bool, Nanos)>, Nanos)>,
}

impl Balancer {
    /// A fresh balancer for `policy`.
    pub fn new(policy: Policy) -> Self {
        Balancer {
            policy,
            cursor: 0,
            frozen: None,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Freezes the balancer's view of the fleet until `until`: eligibility
    /// is answered from a snapshot taken now, so drains and recovery
    /// windows opened later are invisible until the view expires.
    pub fn freeze_view(&mut self, instances: &[Instance], until: Nanos) {
        let view = instances
            .iter()
            .map(|inst| (inst.is_draining(), inst.recovery_until()))
            .collect();
        self.frozen = Some((view, until));
    }

    fn eligible(&self, instances: &[Instance], i: usize, at: Nanos) -> bool {
        if let Some((view, until)) = &self.frozen {
            if at < *until {
                if let Some(&(draining, recovery_until)) = view.get(i) {
                    return !draining && at >= recovery_until;
                }
            }
        }
        let inst = &instances[i];
        !inst.is_draining() && at >= inst.recovery_until()
    }

    /// Picks the instance for a connection opened at `at`.
    pub fn route(&mut self, instances: &mut [Instance], at: Nanos) -> usize {
        let n = instances.len();
        match self.policy {
            Policy::RoundRobin => {
                let i = self.cursor % n;
                self.cursor += 1;
                i
            }
            Policy::LeastOutstanding => {
                let mut best = (usize::MAX, 0);
                for (i, inst) in instances.iter_mut().enumerate() {
                    let load = inst.outstanding(at);
                    if load < best.0 {
                        best = (load, i);
                    }
                }
                best.1
            }
            Policy::RecoveryAware => {
                for k in 0..n {
                    let i = (self.cursor + k) % n;
                    if self.eligible(instances, i, at) {
                        self.cursor = i + 1;
                        return i;
                    }
                }
                let i = self.cursor % n;
                self.cursor += 1;
                i
            }
        }
    }

    /// Whether a displaced client should move back to its sticky `home`
    /// before issuing a request at `at`. Only recovery-aware re-homes:
    /// without it, every rolling pass permanently shifts the drained
    /// instances' clients onto whichever instances were eligible at the
    /// time, and at large N the accumulated clump overloads its hosts
    /// (queueing past the client timeout) long after the windows closed.
    pub fn should_return_home(
        &self,
        instances: &[Instance],
        current: usize,
        home: Option<usize>,
        at: Nanos,
    ) -> bool {
        let Some(home) = home else { return false };
        self.policy == Policy::RecoveryAware
            && home != current
            && self.eligible(instances, home, at)
    }

    /// The instance an unconnected client should reconnect to: its sticky
    /// home while eligible (recovery-aware), otherwise whatever
    /// [`Balancer::route`] picks.
    pub fn home_target(
        &self,
        instances: &[Instance],
        home: Option<usize>,
        at: Nanos,
    ) -> Option<usize> {
        let home = home?;
        (self.policy == Policy::RecoveryAware && self.eligible(instances, home, at)).then_some(home)
    }

    /// Whether a client currently connected to `current` should move
    /// before issuing a request at `at`.
    pub fn should_migrate(&self, instances: &mut [Instance], current: usize, at: Nanos) -> bool {
        match self.policy {
            Policy::RoundRobin => false,
            Policy::LeastOutstanding => {
                let here = instances[current].outstanding(at);
                let best = instances
                    .iter_mut()
                    .map(|inst| inst.outstanding(at))
                    .min()
                    .unwrap_or(0);
                best < here
            }
            Policy::RecoveryAware => {
                !self.eligible(instances, current, at)
                    && (0..instances.len()).any(|i| i != current && self.eligible(instances, i, at))
            }
        }
    }
}
