//! The sweep's work queue: one pool of "prepare workload `w`" and "fill
//! (`w`, core)" items, so a workload's trace lives only while its fills
//! run (DESIGN.md §2.1, §9).
//!
//! A worker takes a ready fill when there is one, the workload with the
//! longest trace first, and starts the next preparation, in input order,
//! only when no fill is ready. A workload's data is dropped when its last
//! fill ends. So when a worker starts a preparation, every other live
//! workload has a task running on another worker, and at most `jobs`
//! workloads are ever live.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::par::run_workers;

/// One workload's state when the queue starts.
pub(crate) enum Slot<D> {
    /// To be prepared by the queue.
    Pending,
    /// Prepared already, with its weight (its trace length).
    Ready(D, u64),
}

/// What the queue's workers share.
struct State<D> {
    /// Slots still to prepare, in input order.
    pending: VecDeque<usize>,
    /// Preparations running.
    preparing: usize,
    /// Ready fills as (weight, slot, fill): heaviest first, then by input
    /// order.
    ready: BinaryHeap<(u64, Reverse<usize>, Reverse<usize>)>,
    /// Each slot's data while fills of it are left.
    held: Vec<Option<D>>,
    /// Fills of each slot that have not ended.
    left: Vec<usize>,
}

impl<D> State<D> {
    /// Makes `slot`'s fills ready, or hands its data back when there are
    /// none, to be dropped at once.
    fn add(&mut self, slot: usize, data: D, weight: u64, fills: usize) -> Option<D> {
        if fills == 0 {
            return Some(data);
        }
        self.held[slot] = Some(data);
        self.left[slot] = fills;
        self.ready
            .extend((0..fills).map(|f| (weight, Reverse(slot), Reverse(f))));
        None
    }
}

enum Task<D> {
    Prepare(usize),
    Fill(usize, usize, D),
}

fn lock<D>(state: &Mutex<State<D>>) -> MutexGuard<'_, State<D>> {
    // The state is plain bookkeeping that no panic leaves half-updated.
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs the queue over `slots` on up to `jobs` threads: `prepare(w)`
/// gives a pending slot's data and weight (`None`: it failed and has no
/// fills), and `fill(&data, f)` runs each of its `fills` fills, indexed
/// `0..fills`. The queue drops a slot's data when its last fill ends.
///
/// # Panics
///
/// Propagates a panic from `prepare` or `fill`.
pub(crate) fn prepare_and_fill<D, P, F>(
    jobs: usize,
    slots: Vec<Slot<D>>,
    fills: usize,
    prepare: P,
    fill: F,
) where
    D: Clone + Send,
    P: Fn(usize) -> Option<(D, u64)> + Sync,
    F: Fn(&D, usize) + Sync,
{
    let mut state = State {
        pending: VecDeque::new(),
        preparing: 0,
        ready: BinaryHeap::new(),
        held: slots.iter().map(|_| None).collect(),
        left: vec![0; slots.len()],
    };
    let workers = jobs.min(slots.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Slot::Pending => state.pending.push_back(i),
            Slot::Ready(data, weight) => drop(state.add(i, data, weight, fills)),
        }
    }
    let state = Mutex::new(state);
    let wake = Condvar::new();
    run_workers(workers, || loop {
        let task = {
            let mut s = lock(&state);
            loop {
                if let Some((_, Reverse(slot), Reverse(f))) = s.ready.pop() {
                    let data = s.held[slot].clone().expect("held while fills are left");
                    break Some(Task::Fill(slot, f, data));
                }
                if let Some(slot) = s.pending.pop_front() {
                    s.preparing += 1;
                    break Some(Task::Prepare(slot));
                }
                if s.preparing == 0 {
                    break None;
                }
                // A running preparation may still make fills ready.
                s = wake.wait(s).unwrap_or_else(|e| e.into_inner());
            }
        };
        match task {
            None => return,
            Some(Task::Prepare(slot)) => {
                let outcome = catch_unwind(AssertUnwindSafe(|| prepare(slot)));
                let (prepared, panic) = match outcome {
                    Ok(prepared) => (prepared, None),
                    Err(payload) => (None, Some(payload)),
                };
                let unused = {
                    let mut s = lock(&state);
                    s.preparing -= 1;
                    wake.notify_all();
                    prepared.and_then(|(data, weight)| s.add(slot, data, weight, fills))
                };
                drop(unused);
                if let Some(payload) = panic {
                    resume_unwind(payload);
                }
            }
            Some(Task::Fill(slot, f, data)) => {
                fill(&data, f);
                drop(data);
                let released = {
                    let mut s = lock(&state);
                    s.left[slot] -= 1;
                    if s.left[slot] == 0 {
                        s.held[slot].take()
                    } else {
                        None
                    }
                };
                // The last copy, dropped outside the lock.
                drop(released);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Counts live copies of a slot's data, as the session counts traces.
    struct Live<'a> {
        slot: usize,
        now: &'a AtomicUsize,
    }

    impl Drop for Live<'_> {
        fn drop(&mut self) {
            self.now.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Runs a queue of `n` slots with `fills` fills each and returns the
    /// most slots live at once and the fills that ran, per slot.
    fn run(jobs: usize, n: usize, fills: usize, fail: &[usize]) -> (usize, Vec<usize>) {
        let now = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let filled: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        prepare_and_fill(
            jobs,
            (0..n).map(|_| Slot::Pending).collect(),
            fills,
            |slot| {
                if fail.contains(&slot) {
                    return None;
                }
                let live = now.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(live, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
                Some((Arc::new(Live { slot, now: &now }), (slot % 3) as u64))
            },
            |data: &Arc<Live<'_>>, _| {
                std::thread::sleep(std::time::Duration::from_micros(300));
                filled[data.slot].fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(now.load(Ordering::SeqCst), 0, "every slot was released");
        let filled = filled.iter().map(|f| f.load(Ordering::SeqCst)).collect();
        (peak.load(Ordering::SeqCst), filled)
    }

    #[test]
    fn at_most_jobs_slots_are_live() {
        for jobs in [1, 2, 4] {
            let (peak, filled) = run(jobs, 12, 3, &[]);
            assert!(peak <= jobs, "jobs {jobs}: {peak} live");
            assert_eq!(filled, vec![3; 12], "jobs {jobs}");
        }
    }

    #[test]
    fn a_failed_preparation_has_no_fills() {
        let (_, filled) = run(2, 5, 2, &[1, 3]);
        assert_eq!(filled, vec![2, 0, 2, 0, 2]);
    }

    #[test]
    fn ready_slots_fill_heaviest_first() {
        let order = Mutex::new(Vec::new());
        prepare_and_fill(
            1,
            vec![Slot::Ready(0, 5), Slot::Ready(1, 9), Slot::Ready(2, 7)],
            2,
            |_| unreachable!("every slot is ready"),
            |&slot: &usize, f| order.lock().unwrap().push((slot, f)),
        );
        let order = order.into_inner().unwrap();
        assert_eq!(order, vec![(1, 0), (1, 1), (2, 0), (2, 1), (0, 0), (0, 1)]);
    }

    #[test]
    fn a_panicking_preparation_reaches_the_caller() {
        let caught = catch_unwind(|| {
            prepare_and_fill(
                2,
                (0..4).map(|_| Slot::Pending).collect(),
                1,
                |slot| {
                    assert_ne!(slot, 2, "prepare panic");
                    Some((slot, 1))
                },
                |_: &usize, _| {},
            );
        })
        .expect_err("the panic propagates");
        let message = caught.downcast_ref::<String>().expect("a String payload");
        assert!(message.contains("prepare panic"), "{message}");
    }
}
