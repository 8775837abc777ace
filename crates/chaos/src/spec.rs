//! The declarative description of one chaos campaign.
//!
//! A [`CampaignSpec`] is everything needed to re-execute a campaign
//! bit-for-bit: the workload, the per-campaign seed, the request counts, and
//! the schedule. The schedule is the workload layer's own [`Disruption`]s —
//! component reboots, full reboots, injected [`vampos_core::InjectedFault`]s,
//! forced failures and rejuvenation sweeps at times relative to the drive's
//! start — so the generator builds, the shrinker halves and `--replay` reads
//! back exactly what the drive fires. Specs are plain data with no handles
//! into a running system.

use vampos_core::{FaultKind, InjectedFault};
use vampos_sim::Nanos;
use vampos_workloads::{Disruption, DisruptionKind};

/// Which evaluation application the campaign drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The echo server (§VII-C): fixed-size messages bounced back.
    Echo,
    /// MiniKv, the Redis stand-in: a SET stream.
    Kv,
    /// MiniHttpd, the Nginx stand-in: keep-alive GETs.
    Http,
    /// MiniSql, the SQLite stand-in: journaled INSERTs.
    Sql,
}

impl WorkloadKind {
    /// All workloads, in canonical order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Echo,
        WorkloadKind::Kv,
        WorkloadKind::Http,
        WorkloadKind::Sql,
    ];

    /// The canonical lowercase name (used in JSON and on the CLI).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Echo => "echo",
            WorkloadKind::Kv => "kv",
            WorkloadKind::Http => "http",
            WorkloadKind::Sql => "sql",
        }
    }

    /// Parses a CLI/JSON name.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == s)
    }

    /// A stable numeric id used for per-workload seed derivation.
    pub fn id(self) -> u64 {
        match self {
            WorkloadKind::Echo => 0,
            WorkloadKind::Kv => 1,
            WorkloadKind::Http => 2,
            WorkloadKind::Sql => 3,
        }
    }
}

/// Arms a fault of `kind` on `component` at `at`, skipping `after`
/// matching calls first: one-shot, except a leak, which stays armed and
/// fires on every matching call. These are the faults a component spec
/// schedules, and the only ones its reproducer encodes.
pub fn inject(at: Nanos, component: &str, after: u64, kind: FaultKind) -> Disruption {
    let fault = match kind {
        FaultKind::LeakPerOp { bytes } => InjectedFault::leak_per_op(component, bytes),
        kind => InjectedFault {
            kind,
            ..InjectedFault::panic_next(component)
        },
    };
    Disruption::inject(at, fault.after(after))
}

/// A fully self-contained chaos campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// The workload under test.
    pub workload: WorkloadKind,
    /// The per-campaign seed (already derived from the sweep's base seed —
    /// replaying a spec needs no other seed input).
    pub seed: u64,
    /// Index of this campaign within its sweep (labeling only).
    pub campaign: u64,
    /// Main request count.
    pub ops: usize,
    /// Quiesce requests issued after the main stream so recovery settles
    /// before the oracles compare state.
    pub tail: usize,
    /// MiniKv only: run with the append-only file enabled.
    pub aof: bool,
    /// Issue one extra mutating request in the faulted run only — a
    /// deliberately planted state divergence the oracles must catch
    /// (self-test of the whole pipeline).
    pub plant: bool,
    /// The fault/disruption schedule.
    pub events: Vec<Disruption>,
}

impl CampaignSpec {
    /// Whether the schedule contains a full reboot (several oracles are
    /// vacuous across one: connections and in-flight requests are
    /// legitimately lost).
    pub fn has_full_reboot(&self) -> bool {
        self.events
            .iter()
            .any(|e| e.kind == DisruptionKind::FullReboot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(w.name()), Some(w));
        }
        assert_eq!(WorkloadKind::parse("nope"), None);
    }

    #[test]
    fn full_reboot_detection() {
        let mut spec = CampaignSpec {
            workload: WorkloadKind::Kv,
            seed: 1,
            campaign: 0,
            ops: 10,
            tail: 4,
            aof: true,
            plant: false,
            events: vec![],
        };
        assert!(!spec.has_full_reboot());
        spec.events
            .push(Disruption::full_reboot(Nanos::from_nanos(5)));
        assert!(spec.has_full_reboot());
    }
}
