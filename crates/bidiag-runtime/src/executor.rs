//! One-shot execution of a task graph: the entry points for callers that
//! run a single DAG and want it finished when the call returns.
//!
//! [`execute_parallel_with`] builds a [`TaskPool`] of the requested size,
//! submits the graph, waits for it and drops the pool, which joins every
//! worker.  The pool's work-stealing scheduler (see the [`crate::pool`]
//! module docs) is therefore the only one in the crate: a one-shot call and
//! a long-lived session run the same worker loop, the same admission and
//! drain code, and record the same spans and metrics.
//!
//! Correctness does not depend on scheduling order — any topological
//! execution yields the same numerical result — which is asserted by the
//! determinism tests in `bidiag-core` and by the randomized stress tests in
//! `tests/scheduler_stress.rs`.

use crate::graph::TaskGraph;
use crate::pool::TaskPool;

/// A task body: the closure that actually runs the kernel.  Bodies are
/// indexed by [`TaskId`](crate::TaskId) and own whatever shared state they
/// need (typically `Arc`s of per-tile locks).
pub type TaskBody = Box<dyn FnOnce() + Send>;

/// A task body that receives the executing worker's private scratch.
///
/// This is how the blocked tile kernels run allocation-free: every worker
/// thread owns one long-lived scratch value (created by the `init` closure
/// of [`execute_parallel_with`] or [`TaskPool::new`]) and lends it to each
/// body it executes, so kernel workspaces are reused across all the tasks a
/// worker runs instead of being reallocated per task.
pub type TaskBodyWith<S> = Box<dyn FnOnce(&mut S) + Send>;

/// Execute every task of `graph` on `threads` worker threads, respecting the
/// data-flow dependencies.  `bodies[i]` is run exactly once for task `i`.
///
/// Any interleaving the scheduler produces is a topological order of
/// `graph`, so the result equals [`execute_sequential`]'s whenever the
/// bodies only communicate through data the graph knows about.
///
/// Panics if `bodies.len() != graph.len()`, and re-raises a body panic
/// (carrying its message) once the graph has drained.
///
/// # Examples
///
/// ```
/// use bidiag_runtime::{execute_parallel, AccessMode, TaskBody, TaskGraph};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// // a -> b and a -> c: both updates read the value task `a` wrote.
/// let mut g = TaskGraph::new();
/// let data = 7u64; // opaque data key chosen by the caller
/// g.add_task(1.0, 0, 0, &[(data, AccessMode::Write)]);
/// g.add_task(1.0, 0, 0, &[(data, AccessMode::Read)]);
/// g.add_task(1.0, 0, 0, &[(data, AccessMode::Read)]);
///
/// let cell = Arc::new(AtomicU64::new(0));
/// let bodies: Vec<TaskBody> = (0..3)
///     .map(|i| {
///         let cell = Arc::clone(&cell);
///         Box::new(move || {
///             if i == 0 {
///                 cell.store(40, Ordering::SeqCst); // the write
///             } else {
///                 cell.fetch_add(1, Ordering::SeqCst); // runs after it
///             }
///         }) as TaskBody
///     })
///     .collect();
/// execute_parallel(&g, bodies, 4);
/// assert_eq!(cell.load(Ordering::SeqCst), 42);
/// ```
pub fn execute_parallel(graph: &TaskGraph, bodies: Vec<TaskBody>, threads: usize) {
    let bodies: Vec<TaskBodyWith<()>> = bodies
        .into_iter()
        .map(|b| Box::new(move |_: &mut ()| b()) as TaskBodyWith<()>)
        .collect();
    execute_parallel_with(graph.clone(), bodies, threads, || ());
}

/// Like [`execute_parallel`], but takes the graph by value and every worker
/// thread owns a private scratch value created by `init` and passes it to
/// each body it runs.
///
/// This is the entry point of the blocked-kernel data plane: `bidiag-core`
/// hands a `Workspace`-producing `init` here, so the compact-WY kernels a
/// worker executes share one growable workspace instead of reallocating
/// scratch per task.  `init` runs once per worker, on that worker's thread.
/// The call runs on a [`TaskPool`] of `threads` workers (at most one per
/// task) that lives for this call only.
pub fn execute_parallel_with<S: Send + 'static>(
    graph: TaskGraph,
    bodies: Vec<TaskBodyWith<S>>,
    threads: usize,
    init: impl Fn() -> S + Send + Sync + 'static,
) {
    assert_eq!(bodies.len(), graph.len(), "one body per task is required");
    if graph.is_empty() {
        return;
    }
    let pool = TaskPool::new(threads.max(1).min(graph.len()), init);
    let outcome = pool
        .submit(graph, bodies)
        .expect("a fresh pool admits")
        .wait();
    drop(pool);
    if let Err(e) = outcome {
        panic!("{e}");
    }
}

/// Execute the tasks sequentially in insertion order (which is a topological
/// order).  This is the reference execution used by the correctness tests.
pub fn execute_sequential(graph: &TaskGraph, bodies: Vec<TaskBody>) {
    assert_eq!(bodies.len(), graph.len());
    for body in bodies {
        body();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AccessMode::{Read, Write};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Build a random-ish layered DAG and check that parallel execution
    /// respects dependencies (every predecessor ran before its successor).
    #[test]
    fn parallel_execution_respects_dependencies() {
        let mut g = TaskGraph::new();
        // 4 chains of 25 tasks sharing a common root and a common sink.
        g.add_task(1.0, 0, 0, &[(999, Write)]);
        for c in 0..4u64 {
            for s in 0..25u64 {
                let key = 1000 + c;
                if s == 0 {
                    g.add_task(1.0, 0, 0, &[(999, Read), (key, Write)]);
                } else {
                    g.add_task(1.0, 0, 0, &[(key, Write)]);
                }
            }
        }
        let sink_accesses: Vec<_> = (0..4u64)
            .map(|c| (1000 + c, Read))
            .chain([(2000, Write)])
            .collect();
        g.add_task(1.0, 0, 0, &sink_accesses);

        let n = g.len();
        let stamp = Arc::new(AtomicU64::new(1));
        let order: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let bodies: Vec<TaskBody> = (0..n)
            .map(|i| {
                let stamp = Arc::clone(&stamp);
                let order = Arc::clone(&order);
                Box::new(move || {
                    let t = stamp.fetch_add(1, Ordering::SeqCst);
                    order[i].store(t, Ordering::SeqCst);
                }) as TaskBody
            })
            .collect();
        execute_parallel(&g, bodies, 8);

        for id in 0..n {
            let t = order[id].load(Ordering::SeqCst);
            assert!(t > 0, "task {id} never ran");
            for &p in g.predecessors(id) {
                let tp = order[p].load(Ordering::SeqCst);
                assert!(tp < t, "task {id} ran before its predecessor {p}");
            }
        }
    }

    #[test]
    fn parallel_and_sequential_produce_same_result() {
        // Sum reduction where each task adds its id into a shared accumulator
        // guarded by dependencies (single chain).
        let mut g = TaskGraph::new();
        let n = 50;
        for _ in 0..n {
            g.add_task(1.0, 0, 0, &[(1, Write)]);
        }
        let acc_par = Arc::new(AtomicU64::new(0));
        let bodies_par: Vec<TaskBody> = (0..n)
            .map(|i| {
                let acc = Arc::clone(&acc_par);
                Box::new(move || {
                    acc.fetch_add(i as u64, Ordering::SeqCst);
                }) as TaskBody
            })
            .collect();
        execute_parallel(&g, bodies_par, 4);

        let acc_seq = Arc::new(AtomicU64::new(0));
        let bodies_seq: Vec<TaskBody> = (0..n)
            .map(|i| {
                let acc = Arc::clone(&acc_seq);
                Box::new(move || {
                    acc.fetch_add(i as u64, Ordering::SeqCst);
                }) as TaskBody
            })
            .collect();
        execute_sequential(&g, bodies_seq);
        assert_eq!(
            acc_par.load(Ordering::SeqCst),
            acc_seq.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = TaskGraph::new();
        execute_parallel(&g, Vec::new(), 4);
        execute_sequential(&g, Vec::new());
    }

    #[test]
    fn single_thread_execution_works() {
        let mut g = TaskGraph::new();
        for _ in 0..10 {
            g.add_task(1.0, 0, 0, &[(7, Write)]);
        }
        let counter = Arc::new(AtomicU64::new(0));
        let bodies: Vec<TaskBody> = (0..10)
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as TaskBody
            })
            .collect();
        execute_parallel(&g, bodies, 1);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn more_threads_than_tasks_terminates() {
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(1, Write)]);
        g.add_task(1.0, 0, 0, &[(1, Write)]);
        let counter = Arc::new(AtomicU64::new(0));
        let bodies: Vec<TaskBody> = (0..2)
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as TaskBody
            })
            .collect();
        execute_parallel(&g, bodies, 64);
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn panicking_body_propagates_instead_of_deadlocking() {
        // One source panics while an independent chain keeps the other
        // workers busy; the pool must drain (no worker parks forever) and
        // the panic must reach the caller through thread::scope.
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(1, Write)]); // the panicking source
        for _ in 0..50 {
            g.add_task(1.0, 0, 0, &[(2, Write)]); // independent chain
        }
        let n = g.len();
        let bodies: Vec<TaskBody> = (0..n)
            .map(|i| {
                Box::new(move || {
                    if i == 0 {
                        panic!("kernel failure");
                    }
                }) as TaskBody
            })
            .collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_parallel(&g, bodies, 4);
        }));
        assert!(result.is_err(), "the body panic must propagate");
    }

    #[test]
    fn wide_fanout_releases_all_successors() {
        // One root releasing 100 independent successors at once exercises
        // the batched publish path (sort + push + single publish).
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(0, Write)]);
        for i in 0..100u64 {
            g.add_task((i % 7) as f64 + 1.0, 0, 0, &[(0, Read), (i + 1, Write)]);
        }
        let counter = Arc::new(AtomicU64::new(0));
        let bodies: Vec<TaskBody> = (0..g.len())
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as TaskBody
            })
            .collect();
        execute_parallel(&g, bodies, 8);
        assert_eq!(counter.load(Ordering::SeqCst), 101);
    }
}
