//! Order-preserving parallel map on `std::thread::scope` scoped threads.
//!
//! Simulation sessions are embarrassingly parallel — every
//! [`Simulation::run_matrix`](crate::Simulation::run_matrix) cell and every
//! experiment instance (one seeded workload × all schedulers) is
//! independent — and a chunked scoped-thread map keeps the dependency
//! footprint minimal (docs/DESIGN.md §6 explains why not rayon). It lives
//! here, below the bench harness, so the session API can fan out too.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set inside `parallel_map` worker threads so nested calls (e.g. a
    /// parallel experiment runner whose instances each call the parallel
    /// `run_matrix`) degrade to a serial loop instead of oversubscribing
    /// the machine with `workers²` threads.
    static IN_PARALLEL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Applies `f` to every item on up to `available_parallelism` worker
/// threads, preserving input order in the output.
///
/// Nesting-safe: when called from inside another `parallel_map` worker,
/// the inner call runs serially on that worker (the outer map already
/// saturates the cores), so composed fan-outs never oversubscribe.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers =
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(n);
    if workers == 1 || IN_PARALLEL_WORKER.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Work-stealing by index over a shared immutable Vec of inputs.
    let inputs: Vec<Mutex<Option<T>>> =
        items.into_iter().map(|t| Mutex::new(Some(t))).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_PARALLEL_WORKER.with(|flag| flag.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item =
                        inputs[i].lock().unwrap().take().expect("item taken twice");
                    let result = f(item);
                    *slots[i].lock().unwrap() = Some(result);
                }
            });
        }
    });

    slots.into_iter().map(|m| m.into_inner().unwrap().expect("missing result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let out = parallel_map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(vec![41], |x: i32| x + 1), vec![42]);
    }

    #[test]
    fn heavy_closure_state_is_shared_immutably() {
        let table: Vec<u64> = (0..1000).collect();
        let out = parallel_map((0..50).collect(), |i: usize| table[i * 10]);
        assert_eq!(out[5], 50);
        assert_eq!(out[49], 490);
    }

    #[test]
    fn nested_maps_run_serially_on_the_worker() {
        // The inner map must not spawn another worker pool: inside a
        // worker the nesting flag is set, so the inner call maps inline
        // (observable via the flag itself) while results stay correct.
        let out = parallel_map((0..8).collect(), |x: i32| {
            let inner_was_nested = IN_PARALLEL_WORKER.with(Cell::get);
            let inner = parallel_map((0..4).collect(), |y: i32| x * 10 + y);
            (inner_was_nested, inner)
        });
        let multi_core =
            std::thread::available_parallelism().map(|p| p.get() > 1).unwrap_or(false);
        for (i, (nested, inner)) in out.iter().enumerate() {
            if multi_core {
                assert!(*nested, "worker thread must be flagged");
            }
            let expect: Vec<i32> = (0..4).map(|y| i as i32 * 10 + y).collect();
            assert_eq!(inner, &expect);
        }
    }
}
