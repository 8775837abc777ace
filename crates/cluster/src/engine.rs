//! The deterministic event heap that drives [`crate::Fleet::run`].
//!
//! The fleet used to multiplex N instances by *polling*: every loop
//! iteration scanned the whole client population for the earliest due
//! request, so simulation cost grew with clients × requests even though
//! almost every scan found the same answer. The heap turns every cause of
//! progress — maintenance-plan operations, client arrivals, request
//! completions, recovery-window closes — into an explicit event, and the
//! run loop simply pops them in order: cost now scales with *work
//! performed* (O(log n) per event), not elapsed virtual time × N.
//!
//! # Total order
//!
//! Events are ordered by `(time, class, actor, sequence)`:
//!
//! 1. **time** — the virtual instant the event fires;
//! 2. **class** — [`EventClass`], with plan operations before equal-time
//!    arrivals (matching the tick reference's "fire every op with
//!    `op.at <= due` first" rule), arrivals before the completions they
//!    cause, and telemetry-only window closes last;
//! 3. **actor** — instance id for plan and window events, client id for
//!    arrivals and completions (matching the tick reference's
//!    lowest-client-index tiebreak on equal due times);
//! 4. **sequence** — global push order, making the order total even when
//!    everything else ties.
//!
//! Every component of the key is an integer and the heap is a plain
//! `BinaryHeap` over it, so the schedule is a pure function of the inputs:
//! no hash ordering, no wall clock, no thread interleaving (the charter
//! `clippy.toml` enforces, D001–D004).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vampos_sim::Nanos;

/// Event classes, in tiebreak order at equal firing times.
///
/// Public so external drive loops (the mesh layer's pipeline engine) can
/// schedule against the same total order the fleet uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventClass {
    /// A maintenance-plan operation (drain, resume, rejuvenation,
    /// full reboot, fault injection).
    Plan,
    /// A client issues a request.
    Arrival,
    /// A client observes its response (closed-loop clients schedule their
    /// next arrival from here).
    Completion,
    /// A recovery window closed (fleet-telemetry bookkeeping only; never
    /// advances the clock or touches instance state).
    Window,
}

/// One scheduled event. The derived `Ord` over the field order *is* the
/// total order documented in the module header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Firing time (absolute virtual time).
    pub at: Nanos,
    /// Event class (tiebreak rank at equal times).
    pub class: EventClass,
    /// Instance id (plan, window) or client id (arrival, completion).
    pub actor: u64,
    /// Global push order: the final tiebreak.
    pub seq: u64,
}

/// A min-heap of [`Event`]s that stamps each push with the next sequence
/// number, making the pop order total by construction.
#[derive(Debug, Default)]
pub struct EventHeap {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
}

impl EventHeap {
    /// Schedules an event; the sequence number is assigned in push order.
    pub fn push(&mut self, at: Nanos, class: EventClass, actor: u64) {
        let event = Event {
            at,
            class,
            actor,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.heap.push(Reverse(event));
    }

    /// Removes and returns the globally next event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

/// How clients time their requests.
///
/// The open-loop grid is the reference model every determinism and
/// byte-identity check rests on; the other shapes exist to stress the
/// balancer and the maintenance plans with load that *reacts* (closed
/// loop) or *drifts* (diurnal, bursty). All of them are pure integer
/// functions of the request history, so every shape stays deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalShape {
    /// Fixed arrival grid: each client issues one request every
    /// `think_time`, staggered across one think interval, regardless of
    /// how long responses take. Identical to the retired tick loop.
    OpenLoop,
    /// Each client waits for its response, thinks for `think_time`, then
    /// sends again: the next arrival is scheduled from the *completion*
    /// event, so slow servers shed offered load exactly as real users do.
    ClosedLoop,
    /// Open loop with the think time modulated by a triangle wave of the
    /// given period: the effective think time sweeps `think/2` (peak
    /// traffic) up to `3*think/2` (trough) and back, integer-exact.
    Diurnal {
        /// Full wave period (peak to peak).
        period: Nanos,
    },
    /// Open loop in bursts: `burst` requests spaced `think/burst` apart,
    /// then a pause of `burst * think` before the next burst — same
    /// average rate as the plain grid, maximally clumped.
    Bursty {
        /// Requests per burst (at least 1).
        burst: usize,
    },
}

impl ArrivalShape {
    /// Stable CLI/display name.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalShape::OpenLoop => "open",
            ArrivalShape::ClosedLoop => "closed",
            ArrivalShape::Diurnal { .. } => "diurnal",
            ArrivalShape::Bursty { .. } => "bursty",
        }
    }

    /// Next due time for the self-scheduling (non-closed-loop) shapes,
    /// given the arrival just dispatched at `due` and the client's request
    /// count after it (`sent`). Public so external drive loops schedule
    /// arrivals on the identical grid.
    pub fn next_due(&self, due: Nanos, started: Nanos, sent: usize, think: Nanos) -> Nanos {
        let t = think.as_nanos();
        match *self {
            ArrivalShape::OpenLoop | ArrivalShape::ClosedLoop => due + think,
            ArrivalShape::Diurnal { period } => {
                let p = period.as_nanos().max(2);
                let half = (p / 2).max(1);
                let phase = due.saturating_sub(started).as_nanos() % p;
                let pos = phase.min(p - phase);
                due + Nanos::from_nanos(t / 2 + t.saturating_mul(pos) / half)
            }
            ArrivalShape::Bursty { burst } => {
                let b = burst.max(1) as u64;
                if (sent as u64).is_multiple_of(b) {
                    due + Nanos::from_nanos(t.saturating_mul(b))
                } else {
                    due + Nanos::from_nanos((t / b).max(1))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Nanos = Nanos::from_micros(1);

    #[test]
    fn equal_time_events_order_by_class_then_actor_then_seq() {
        let mut heap = EventHeap::default();
        // Push in deliberately scrambled order.
        heap.push(T, EventClass::Window, 0);
        heap.push(T, EventClass::Arrival, 7);
        heap.push(T, EventClass::Completion, 1);
        heap.push(T, EventClass::Arrival, 2);
        heap.push(T, EventClass::Plan, 9);
        heap.push(T, EventClass::Plan, 3);
        let order: Vec<(EventClass, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.class, e.actor))
            .collect();
        assert_eq!(
            order,
            vec![
                (EventClass::Plan, 3),
                (EventClass::Plan, 9),
                (EventClass::Arrival, 2),
                (EventClass::Arrival, 7),
                (EventClass::Completion, 1),
                (EventClass::Window, 0),
            ]
        );
    }

    #[test]
    fn sequence_breaks_full_ties_in_push_order() {
        let mut heap = EventHeap::default();
        for _ in 0..4 {
            heap.push(T, EventClass::Plan, 5);
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn time_dominates_class_and_actor() {
        let mut heap = EventHeap::default();
        heap.push(T + T, EventClass::Plan, 0);
        heap.push(T, EventClass::Window, 99);
        let first = heap.pop().unwrap();
        assert_eq!((first.class, first.actor), (EventClass::Window, 99));
    }

    #[test]
    fn open_loop_reschedules_on_the_fixed_grid() {
        let shape = ArrivalShape::OpenLoop;
        let due = Nanos::from_millis(10);
        assert_eq!(shape.next_due(due, Nanos::ZERO, 3, T), due + T);
    }

    #[test]
    fn diurnal_think_sweeps_half_to_three_halves() {
        let period = Nanos::from_millis(2);
        let shape = ArrivalShape::Diurnal { period };
        let think = Nanos::from_micros(100);
        let started = Nanos::ZERO;
        // Phase 0: peak traffic, think/2.
        let at_peak = shape.next_due(started, started, 1, think) - started;
        assert_eq!(at_peak, Nanos::from_micros(50));
        // Phase = period/2: trough, 3*think/2.
        let mid = started + Nanos::from_millis(1);
        let at_trough = shape.next_due(mid, started, 1, think) - mid;
        assert_eq!(at_trough, Nanos::from_micros(150));
    }

    #[test]
    fn bursty_alternates_tight_spacing_and_long_pauses() {
        let shape = ArrivalShape::Bursty { burst: 4 };
        let think = Nanos::from_micros(400);
        let due = Nanos::from_millis(5);
        // Mid-burst: think/burst apart.
        assert_eq!(
            shape.next_due(due, Nanos::ZERO, 3, think) - due,
            Nanos::from_micros(100)
        );
        // Burst boundary (sent divisible by burst): burst*think pause.
        assert_eq!(
            shape.next_due(due, Nanos::ZERO, 4, think) - due,
            Nanos::from_micros(1600)
        );
    }
}
