//! Scoped-thread fan-out for independent experiment units.
//!
//! Every experiment unit (a mode of Fig. 5, a threshold/app cell of
//! Table IV, a whole table of `repro all`) builds its *own* [`System`]
//! (seed, host world and clock included), so units share no state and can
//! run on worker threads concurrently. The simulation itself stays
//! single-threaded — `System` is `!Send` (`Rc` clock, `Rc` host) and never
//! crosses a thread boundary: each unit is constructed, driven and dropped
//! entirely inside one worker.
//!
//! [`parallel_map`] preserves *output order*: results come back indexed by
//! their input position no matter which worker finished first, which is
//! what keeps `repro all` byte-identical to a sequential run.
//!
//! [`System`]: vampos_core::System

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "D004: the one fan-out; units share nothing and results return in input order"
)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Number of worker threads used for `tasks` independent units: the host's
/// available parallelism, capped by the task count.
pub fn worker_count(tasks: usize) -> usize {
    let cores = thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    cores.min(tasks).max(1)
}

/// Applies `f` to every item, fanning the calls out over scoped worker
/// threads, and returns the results in input order.
///
/// Work is pulled from a shared atomic cursor, so long units (Table V) and
/// short ones (Table III) pack onto workers without static partitioning.
/// On a single-core host (or for a single item) this degrades to a plain
/// in-order loop on the calling thread.
///
/// # Panics
///
/// Propagates panics from `f` once all workers have been joined.
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let item = tasks[idx]
                    .lock()
                    .expect("task slot poisoned")
                    .take()
                    .expect("task claimed twice");
                let out = f(item);
                *slots[idx].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped a task")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(items, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(empty, |x| x).is_empty());
        assert_eq!(parallel_map(vec![7u8], |x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_unit_costs_still_fill_every_slot() {
        // Mix heavy and trivial units; the shared cursor load-balances.
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(items, |i| {
            let mut acc = 0u64;
            let rounds = if i % 7 == 0 { 200_000 } else { 10 };
            for k in 0..rounds {
                acc = acc.wrapping_mul(31).wrapping_add(k ^ i);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(*i, idx as u64);
        }
    }

    #[test]
    fn worker_count_is_capped_by_tasks() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1000) >= 1);
    }
}
