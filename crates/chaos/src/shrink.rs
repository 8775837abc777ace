//! Reproducer minimization, once for every family.
//!
//! A failing campaign is shrunk to a smaller spec that still violates (at
//! least one of) the same oracles. [`shrink`] owns the greedy fixpoint
//! loop, the run counter, the budget and the acceptance rule; a family
//! supplies only its candidate moves, in its order
//! ([`Family::shrink_pass`]), built from [`Shrinker::attempt`] and the two
//! shapes most moves take: [`Shrinker::drop_each`] and
//! [`Shrinker::halve_each`].
//!
//! Acceptance requires the candidate's violation kinds to *intersect* the
//! original's: without that, shrinking can walk onto a different bug — the
//! classic trap where dropping one event converts a state-equivalence
//! failure into an unreachable-event liveness artifact, and the "minimal"
//! reproducer no longer reproduces anything of interest.

use std::collections::BTreeSet;
use std::ops::Div;

use crate::family::Family;

/// The set of oracle names a report (or a shrink candidate) violated.
pub type Kinds = BTreeSet<&'static str>;

/// The state of one minimization: the best spec so far and the budget
/// spent finding it.
pub struct Shrinker<'a, S> {
    /// The smallest spec accepted so far.
    pub best: S,
    runs: usize,
    budget: usize,
    improved: bool,
    reproduces: &'a mut dyn FnMut(&S) -> bool,
}

impl<S: Clone> Shrinker<'_, S> {
    /// Executes `candidate` and adopts it as [`Shrinker::best`] if it
    /// still reproduces. `None` once the budget is spent (the candidate
    /// did not run); the order of calls is the order of executions, which
    /// the sweep report prints as `in {k} run(s)`.
    pub fn attempt(&mut self, candidate: S) -> Option<bool> {
        if self.runs >= self.budget {
            return None;
        }
        self.runs += 1;
        let accepted = (self.reproduces)(&candidate);
        if accepted {
            self.best = candidate;
            self.improved = true;
        }
        Some(accepted)
    }

    /// Tries dropping each element of a list, one at a time; after a
    /// successful drop the same index holds the next element.
    pub fn drop_each<T>(&mut self, items: fn(&mut S) -> &mut Vec<T>) {
        let mut i = 0;
        while i < items(&mut self.best).len() {
            let mut candidate = self.best.clone();
            items(&mut candidate).remove(i);
            match self.attempt(candidate) {
                None => return,
                Some(true) => {}
                Some(false) => i += 1,
            }
        }
    }

    /// Tries each magnitude reduction once, in order. A move returns
    /// whether it changed the spec; unchanged candidates cost no run.
    pub fn halve_each(&mut self, moves: &[fn(&mut S) -> bool]) {
        for reduce in moves {
            let mut candidate = self.best.clone();
            if reduce(&mut candidate) && self.attempt(candidate).is_none() {
                return;
            }
        }
    }
}

/// Halves `value` towards `floor`; whether it moved.
pub fn halve<T>(value: &mut T, floor: T) -> bool
where
    T: Copy + Ord + Div<Output = T> + From<u8>,
{
    if *value <= floor {
        return false;
    }
    *value = (*value / T::from(2)).max(floor);
    true
}

/// Minimizes `spec` under `budget` executions and returns the smallest
/// accepted spec (possibly the original) with the executions spent.
///
/// `execute` runs a candidate and returns the kinds it violated. The
/// harness passes [`Family::execute`] and [`Family::SHRINK_BUDGET`] in;
/// tests pass synthetic bugs and budgets they can count to.
pub fn shrink<F: Family>(
    spec: &F::Spec,
    target: &Kinds,
    budget: usize,
    mut execute: impl FnMut(&F::Spec) -> Kinds,
) -> (F::Spec, usize) {
    if target.is_empty() {
        return (spec.clone(), 0);
    }
    let mut reproduces = |candidate: &F::Spec| !execute(candidate).is_disjoint(target);
    let mut shrinker = Shrinker {
        best: spec.clone(),
        runs: 0,
        budget,
        improved: false,
        reproduces: &mut reproduces,
    };
    loop {
        shrinker.improved = false;
        F::shrink_pass(&mut shrinker);
        if !shrinker.improved || shrinker.runs >= shrinker.budget {
            return (shrinker.best, shrinker.runs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws::{self, laws};
    use crate::spec::{CampaignSpec, WorkloadKind};
    use crate::ComponentFamily;
    use vampos_sim::Nanos;
    use vampos_workloads::{Disruption, DisruptionKind};

    laws!(ComponentFamily: respects_the_run_budget);

    #[test]
    fn passing_spec_is_left_alone() {
        laws::a_passing_spec_is_left_alone::<ComponentFamily>();
    }

    fn spec_with_events(n: usize) -> CampaignSpec {
        CampaignSpec {
            workload: WorkloadKind::Kv,
            seed: 5,
            campaign: 0,
            ops: 64,
            tail: 16,
            aof: false,
            plant: false,
            events: (0..n)
                .map(|i| {
                    let at = Nanos::from_nanos(1_000 * (i as u64 + 1));
                    Disruption::component_reboot(at, &format!("c{i}"))
                })
                .collect(),
        }
    }

    #[test]
    fn drops_irrelevant_events_and_shrinks_ops() {
        // Synthetic bug: reproduces iff the "c2" event is present.
        let execute = |candidate: &CampaignSpec| {
            let c2 = DisruptionKind::ComponentReboot("c2".into());
            if candidate.events.iter().any(|e| e.kind == c2) {
                Kinds::from(["state-equivalence"])
            } else {
                Kinds::new()
            }
        };
        let spec = spec_with_events(5);
        let (out, runs) = shrink::<ComponentFamily>(&spec, &execute(&spec), 200, execute);
        assert_eq!(out.events.len(), 1, "{:?}", out.events);
        assert_eq!(out.ops, 1);
        assert!(runs <= 200);
    }

    #[test]
    fn rejects_shrinks_onto_a_different_oracle() {
        // Removing any event "fails" with a *different* kind; nothing may
        // be accepted.
        let execute = |candidate: &CampaignSpec| {
            if candidate.events.len() < 3 || candidate.ops < 64 {
                Kinds::from(["liveness"])
            } else {
                Kinds::from(["isolation"])
            }
        };
        let target = Kinds::from(["isolation"]);
        let (out, _) = shrink::<ComponentFamily>(&spec_with_events(3), &target, 100, execute);
        // Time halvings keep the oracle and may be accepted; structural
        // shrinks (fewer events, fewer ops) flip it and must not be.
        assert_eq!(out.events.len(), 3);
        assert_eq!(out.ops, 64);
    }
}
