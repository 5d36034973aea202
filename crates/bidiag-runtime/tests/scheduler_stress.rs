//! Stress tests of the work-stealing scheduler: randomized layered DAGs must
//! produce results identical to sequential execution at every thread count
//! and when many of them share one pool, and pathological graph shapes must
//! not deadlock even when the thread count far exceeds the hardware
//! parallelism.

use bidiag_runtime::{
    execute_parallel, execute_sequential, AccessMode, TaskBody, TaskBodyWith, TaskGraph, TaskPool,
};
use rand::{rngs::StdRng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Build a random layered DAG: `layers` layers of up to `width` tasks, each
/// task reading a few random outputs of the previous layer and writing its
/// own key.  Every dependency is expressed through the data-flow keys, so
/// the graph captures all conflicts.
fn random_layered_graph(layers: usize, width: usize, seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TaskGraph::new();
    let key = |layer: usize, slot: usize| (layer * width + slot) as u64;
    for layer in 0..layers {
        let count = 1 + (rng.next_u64() as usize) % width;
        for slot in 0..count {
            let mut accesses = vec![(key(layer + 1, slot), AccessMode::Write)];
            if layer > 0 {
                let fanin = 1 + (rng.next_u64() as usize) % 3;
                for _ in 0..fanin {
                    let src = (rng.next_u64() as usize) % width;
                    accesses.push((key(layer, src), AccessMode::Read));
                }
            }
            let weight = 1.0 + (rng.next_u64() % 5) as f64;
            g.add_task(weight, 0, 0, &accesses);
        }
    }
    g
}

/// Bodies that fold each task's id into per-task cells using an
/// order-sensitive hash of its predecessors' cells, so any dependency
/// violation or dropped task changes the final digest.
fn digest_bodies(g: &TaskGraph) -> (Arc<Vec<AtomicU64>>, Vec<TaskBody>) {
    let n = g.len();
    let cells: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let bodies: Vec<TaskBody> = (0..n)
        .map(|i| {
            let cells = Arc::clone(&cells);
            let preds: Vec<usize> = g.predecessors(i).to_vec();
            Box::new(move || {
                let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (i as u64);
                for &p in &preds {
                    let v = cells[p].load(Ordering::SeqCst);
                    assert_ne!(v, 0, "task {i} ran before its predecessor {p}");
                    h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(v);
                }
                cells[i].store(h | 1, Ordering::SeqCst);
            }) as TaskBody
        })
        .collect();
    (cells, bodies)
}

fn read_digest(cells: &[AtomicU64]) -> Vec<u64> {
    cells.iter().map(|c| c.load(Ordering::SeqCst)).collect()
}

/// Run the graph with [`digest_bodies`] and return the digest.
fn run_digest(g: &TaskGraph, threads: Option<usize>) -> Vec<u64> {
    let (cells, bodies) = digest_bodies(g);
    match threads {
        Some(t) => execute_parallel(g, bodies, t),
        None => execute_sequential(g, bodies),
    }
    read_digest(&cells)
}

#[test]
fn random_layered_dags_match_sequential_at_every_thread_count() {
    for seed in [1u64, 7, 42, 1234] {
        let g = random_layered_graph(12, 9, seed);
        let reference = run_digest(&g, None);
        for threads in [1usize, 2, 4, 8] {
            let digest = run_digest(&g, Some(threads));
            assert_eq!(
                digest, reference,
                "seed {seed}, {threads} threads: digest diverged from sequential"
            );
        }
    }
}

#[test]
fn deep_chain_matches_sequential() {
    // A single chain forces full serialization through the idle gate: every
    // completion publishes exactly one successor while other workers sleep.
    let mut g = TaskGraph::new();
    for _ in 0..400 {
        g.add_task(1.0, 0, 0, &[(0, AccessMode::Write)]);
    }
    let reference = run_digest(&g, None);
    for threads in [2usize, 8] {
        assert_eq!(run_digest(&g, Some(threads)), reference);
    }
}

#[test]
fn sink_heavy_graph_does_not_deadlock_under_oversubscription() {
    // Many independent diamonds all draining into one sink: the sink's
    // release is the last publication, and with 32 threads on (possibly)
    // one core, most workers spend the run parked.  The test passes iff it
    // terminates with the right digest.
    let mut g = TaskGraph::new();
    let diamonds = 40u64;
    for d in 0..diamonds {
        let top = 10 * d;
        g.add_task(1.0, 0, 0, &[(top, AccessMode::Write)]);
        g.add_task(
            1.0,
            0,
            0,
            &[(top, AccessMode::Read), (top + 1, AccessMode::Write)],
        );
        g.add_task(
            1.0,
            0,
            0,
            &[(top, AccessMode::Read), (top + 2, AccessMode::Write)],
        );
        g.add_task(
            1.0,
            0,
            0,
            &[
                (top + 1, AccessMode::Read),
                (top + 2, AccessMode::Read),
                (top + 3, AccessMode::Write),
            ],
        );
    }
    let sink_reads: Vec<(u64, AccessMode)> = (0..diamonds)
        .map(|d| (10 * d + 3, AccessMode::Read))
        .chain([(u64::MAX, AccessMode::Write)])
        .collect();
    g.add_task(1.0, 0, 0, &sink_reads);

    let reference = run_digest(&g, None);
    assert_eq!(run_digest(&g, Some(32)), reference);
}

#[test]
fn source_heavy_graph_seeds_every_worker() {
    // More sources than workers: round-robin seeding plus stealing must
    // execute every source exactly once (the digest catches double or
    // missed execution).
    let mut g = TaskGraph::new();
    for i in 0..100u64 {
        g.add_task(1.0, 0, 0, &[(i, AccessMode::Write)]);
    }
    let sink_reads: Vec<(u64, AccessMode)> = (0..100u64)
        .map(|i| (i, AccessMode::Read))
        .chain([(u64::MAX, AccessMode::Write)])
        .collect();
    g.add_task(1.0, 0, 0, &sink_reads);
    let reference = run_digest(&g, None);
    for threads in [3usize, 16] {
        assert_eq!(run_digest(&g, Some(threads)), reference);
    }
}

#[test]
fn random_dags_from_concurrent_submitters_interleave_on_one_pool() {
    // Three threads each keep four random DAGs in flight on the same
    // three-worker pool, so tasks of up to twelve graphs share the deques.
    // Every digest must equal its graph's sequential one bit for bit.
    let pool: TaskPool<()> = TaskPool::new(3, || ());
    std::thread::scope(|sc| {
        for submitter in 0..3u64 {
            let pool = &pool;
            sc.spawn(move || {
                for round in 0..5u64 {
                    let jobs: Vec<_> = (0..4u64)
                        .map(|k| {
                            let seed = 1000 * submitter + 10 * round + k;
                            let g = random_layered_graph(10, 8, seed);
                            let reference = run_digest(&g, None);
                            let (cells, bodies) = digest_bodies(&g);
                            let bodies: Vec<TaskBodyWith<()>> = bodies
                                .into_iter()
                                .map(|b| Box::new(move |_: &mut ()| b()) as TaskBodyWith<()>)
                                .collect();
                            let job = pool.submit(g, bodies).expect("pool is open");
                            (seed, job, cells, reference)
                        })
                        .collect();
                    for (seed, job, cells, reference) in jobs {
                        job.wait().expect("no body panicked");
                        assert_eq!(read_digest(&cells), reference, "seed {seed}");
                    }
                }
            });
        }
    });
}
