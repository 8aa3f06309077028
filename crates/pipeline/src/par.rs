//! Deterministic fork–join parallelism on `std::thread` (rayon is not
//! available in this build environment).
//!
//! [`parallel_map`] distributes items over a worker pool via an atomic
//! work-stealing cursor, but every result is written back into the slot of
//! its *input index* — so the output order is canonical and independent of
//! scheduling, and a `--jobs 1` run is bit-identical to a `--jobs N` run as
//! long as the mapped function is pure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on up to `jobs` worker threads, returning results
/// in input order. `f` receives `(index, item)`.
///
/// # Panics
///
/// Propagates a worker thread's panic, with its payload.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = jobs.min(items.len()).max(1);
    if workers == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    run_workers(workers, || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        let result = f(i, &items[i]);
        // A slot holds plain data; recover rather than cascade a panic
        // from another worker that died holding a lock.
        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker filled every slot")
        })
        .collect()
}

/// Runs `work` on `jobs` threads (on the caller's thread when `jobs` is
/// at most 1) and returns once every thread has exited.
///
/// # Panics
///
/// Propagates a worker thread's panic, with its payload.
pub(crate) fn run_workers(jobs: usize, work: impl Fn() + Sync) {
    if jobs <= 1 {
        work();
        return;
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs).map(|_| scope.spawn(&work)).collect();
        // Join each worker rather than let the scope end: the scope ends
        // when the closures return, before the threads exit and hand their
        // malloc arenas back. The next fan-out's threads would then find
        // no free arena and make new ones, while the old arenas keep the
        // memory this fan-out's data freed.
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_regardless_of_jobs() {
        let items: Vec<u64> = (0..257).collect();
        let seq = parallel_map(&items, 1, |_, &x| x * x);
        for jobs in [2, 3, 8] {
            assert_eq!(parallel_map(&items, jobs, |_, &x| x * x), seq);
        }
    }

    #[test]
    fn passes_the_input_index() {
        let items = vec!["a", "b", "c"];
        let out = parallel_map(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&[1u32, 2, 3], 2, |_, &x| {
                assert_ne!(x, 2, "worker panic");
                x
            })
        })
        .expect_err("the panic propagates");
        let message = caught
            .downcast_ref::<String>()
            .expect("assert_ne! panics with a String");
        assert!(message.contains("worker panic"), "{message}");
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }
}
