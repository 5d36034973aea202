//! Execution back-ends for tile-operation lists and pipeline stages.
//!
//! * [`execute_sequential`] — run the list in order (reference numerics),
//! * [`execute_parallel`] — run it on the work-stealing task pool of
//!   `bidiag-runtime`, one pool per call (dependencies inferred from data
//!   accesses),
//! * [`build_graph`] — lower the list to a [`TaskGraph`] for critical-path
//!   measurements and machine simulation,
//! * [`bnd2bd_on_runtime`] / [`bd2val_on_runtime`] — the second and third
//!   pipeline stages with the per-stage signature.  BND2BD is the
//!   sequential cache-blocked bulge chase at every thread count (the
//!   wavefront DAG is too fine and too deep to pay for its scheduling — see
//!   [`bnd2bd_on_runtime`]); BD2VAL fans out one runtime task per
//!   *spectrum interval* (Sturm-count slicing from `bidiag-svd`), or runs
//!   the serial dqds fast path directly on the caller — see
//!   [`bd2val_task_count`].
//!
//! # Parallel data plane
//!
//! One lowering turns an op list into a runnable tile DAG, for the per-call
//! [`execute_parallel`] and for the blocked submissions of
//! [`SvdSession`](crate::batch::SvdSession) alike.  It layers its shared
//! state on the DAG's ordering guarantees instead of global locks:
//!
//! * tiles move (no copy) into *per-tile* `RwLock`s, needed only because
//!   the region-level dependency keys deliberately let kernels touching
//!   disjoint regions of one tile overlap (see
//!   [`TileOp::execute_shared`](crate::ops::TileOp::execute_shared));
//! * compact-WY tau factors live in a pre-sized [`TauTable`] of once-cells
//!   keyed by op id — producers fill their own slot, consumers read the
//!   slot the DAG ordered before them, and no global map or lock is ever
//!   contended; the same table backs the sequential driver;
//! * every worker thread owns a [`KernelScratch`] (kernel workspace +
//!   GEMM pack buffers + operand snapshot buffer) pre-sized for the tile
//!   size at spawn and lent to each task body it runs, so the apply
//!   kernels' scratch is never reallocated — not even on a worker's first
//!   task; the only per-task heap traffic left is the `TFactor` each
//!   factorization kernel produces into its table slot.

use crate::ops::{KernelScratch, TauTable, TileOp};
use bidiag_kernels::band::BandMatrix;
use bidiag_kernels::gebd2::Bidiagonal;
use bidiag_matrix::{BlockCyclic, Matrix, TiledMatrix};
use bidiag_obs as obs;
use bidiag_runtime::{
    execute_parallel as runtime_execute, execute_parallel_with as runtime_execute_with, AccessMode,
    TaskBody, TaskBodyWith, TaskGraph,
};
use bidiag_svd::{slice_spectrum, solve_slice, Bd2ValOptions, GkBisection, GkSturm, SvdSolver};
use parking_lot::RwLock;
use std::sync::Arc;

/// Execute the operations in order on the tiled matrix, sharing the
/// [`TauTable`] store and the blocked-kernel scratch with the parallel
/// back-end.
pub fn execute_sequential(ops: &[TileOp], a: &mut TiledMatrix) {
    let taus = TauTable::for_ops(ops);
    let mut scratch = KernelScratch::for_tile(a.nb());
    for (op_id, op) in ops.iter().enumerate() {
        op.execute(op_id, a, &taus, &mut scratch);
    }
}

/// Execute the operations in parallel on `threads` worker threads.
///
/// The numerical result is bitwise identical to [`execute_sequential`]
/// because every kernel is executed with exactly the same operands; only the
/// interleaving of independent kernels differs.
pub fn execute_parallel(ops: &[TileOp], a: &mut TiledMatrix, threads: usize) {
    if ops.is_empty() {
        return;
    }
    let (graph, bodies, tiles) = lower_tile_dag::<KernelScratch>(ops, a);
    let nb = a.nb();
    runtime_execute_with(graph, bodies, threads, move || KernelScratch::for_tile(nb));
    restore_tiles(&tiles, a);
}

/// Tiles of a lowered DAG in per-tile locks, row-major: `(i, j) -> i * q + j`.
pub(crate) type SharedTiles = Arc<Vec<RwLock<Matrix>>>;

/// Lower an operation list on `a` to a runnable tile DAG: the data-flow
/// graph plus one body per op, which runs its kernel with the executing
/// worker's [`KernelScratch`].
///
/// The tiles move out of `a` into per-tile locks (leaving empty tiles
/// behind, no copy) and the compact-WY factors live in a [`TauTable`] the
/// bodies share; [`restore_tiles`] moves the tiles back once the DAG ran.
pub(crate) fn lower_tile_dag<S: AsMut<KernelScratch>>(
    ops: &[TileOp],
    a: &mut TiledMatrix,
) -> (TaskGraph, Vec<TaskBodyWith<S>>, SharedTiles) {
    let (p, q) = (a.tile_rows(), a.tile_cols());
    let mut tiles: Vec<RwLock<Matrix>> = Vec::with_capacity(p * q);
    for i in 0..p {
        for j in 0..q {
            tiles.push(RwLock::new(std::mem::replace(
                a.tile_mut(i, j),
                Matrix::zeros(0, 0),
            )));
        }
    }
    let tiles = Arc::new(tiles);
    let taus = Arc::new(TauTable::for_ops(ops));
    let graph = build_graph(ops, q, &BlockCyclic::single_node());
    let bodies = ops
        .iter()
        .enumerate()
        .map(|(op_id, &op)| {
            let tiles = Arc::clone(&tiles);
            let taus = Arc::clone(&taus);
            Box::new(move |s: &mut S| {
                op.execute_shared(op_id, &tiles, q, &taus, s.as_mut());
            }) as TaskBodyWith<S>
        })
        .collect();
    (graph, bodies, tiles)
}

/// Move the tiles of a lowered DAG back into `a` (the inverse of
/// [`lower_tile_dag`]'s move); call it once every op body has run.
pub(crate) fn restore_tiles(tiles: &[RwLock<Matrix>], a: &mut TiledMatrix) {
    let q = a.tile_cols();
    for (k, tile) in tiles.iter().enumerate() {
        *a.tile_mut(k / q, k % q) = std::mem::replace(&mut *tile.write(), Matrix::zeros(0, 0));
    }
}

/// Build the data-flow task graph of an operation list for a `p x q` tile
/// grid distributed according to `dist` (owner-computes placement on the
/// operation's output tile).
pub fn build_graph(ops: &[TileOp], q: usize, dist: &BlockCyclic) -> TaskGraph {
    let mut g = TaskGraph::new();
    for op in ops {
        let (oi, oj) = op.output_tile();
        let owner = dist.owner(oi, oj);
        let accesses = op.accesses(q);
        g.add_task(op.weight(), owner, op.kernel() as u32, &accesses);
    }
    g
}

/// Run the BND2BD stage (band to bidiagonal) on the calling thread.
///
/// This is [`BandMatrix::reduce_to_bidiagonal`], the cache-blocked
/// pipelined bulge chase, at every thread count; `threads` is accepted so
/// stage-by-stage callers keep one signature for every stage.  The chase
/// is deliberately not fanned out on the runtime: at n = 512, bw = 64 one
/// task per wavefront is 113k tasks of ~4.5 chase steps each, building
/// that graph costs more than the whole sequential chase, and its
/// critical path holds 81% of the work, so no schedule can gain more than
/// 1.23x (ARCHITECTURE.md, "Why the chase runs on one thread").
pub fn bnd2bd_on_runtime(band: &mut BandMatrix, _threads: usize) -> Bidiagonal {
    band.reduce_to_bidiagonal()
}

/// Number of independent solver work units [`bd2val_on_runtime`] splits
/// this bidiagonal into under these options — the *interval* count, not
/// the value count.
///
/// The sliced path spawns one runtime task per [`SpectrumSlice`]
/// (`~ceil(k / values_per_task)`, fewer when slices merge inside
/// clusters); dqds is one serial solve, run on the caller without a
/// runtime task; only the explicit [`SvdSolver::Bisection`] oracle keeps
/// the historical one-task-per-value fan-out.  Exposed so tests can pin
/// the task-count contract (the old per-value fan-out cost 512 task
/// activations on the reference case).
///
/// [`SpectrumSlice`]: bidiag_svd::SpectrumSlice
pub fn bd2val_task_count(diag: &[f64], superdiag: &[f64], opts: &Bd2ValOptions) -> usize {
    let k = diag.len();
    if k == 0 {
        return 0;
    }
    match opts.solver {
        SvdSolver::Dqds => 1,
        SvdSolver::SlicedBisection => {
            slice_spectrum(&GkSturm::new(diag, superdiag), opts.values_per_task).len()
        }
        SvdSolver::Bisection => k,
    }
}

/// Run the BD2VAL stage (singular values of the bidiagonal) through the
/// task runtime, with the solver selected by `opts`:
///
/// * [`SvdSolver::SlicedBisection`] — the parallel path: the spectrum is
///   partitioned by Sturm counts into disjoint multi-value intervals and
///   the runtime schedules **one task per interval** (not per value — see
///   [`bd2val_task_count`]), each resolving its whole bracket with a
///   batched Newton/bisection front;
/// * [`SvdSolver::Dqds`] — the serial fast path, called directly on the
///   calling thread (at `O(n^2)` with a small constant it is cheaper than
///   any fan-out — or any thread spawn — for the sizes this pipeline runs);
/// * [`SvdSolver::Bisection`] — the oracle: one task per singular value,
///   kept for reference runs and determinism tests.
///
/// Returns the singular values in non-increasing order.  For every solver
/// the slicing/partitioning is independent of `threads`, so the result is
/// bitwise identical to the sequential path of the same solver
/// ([`bidiag_svd::singular_values_with`]) at every thread count.
pub fn bd2val_on_runtime(
    diag: &[f64],
    superdiag: &[f64],
    threads: usize,
    opts: &Bd2ValOptions,
) -> Vec<f64> {
    let k = diag.len();
    if k == 0 {
        return Vec::new();
    }
    match opts.solver {
        SvdSolver::Dqds => bidiag_svd::dqds_singular_values(diag, superdiag),
        SvdSolver::SlicedBisection => {
            let sturm = Arc::new(GkSturm::new(diag, superdiag));
            let slices = slice_spectrum(&sturm, opts.values_per_task);
            let rel_tol = opts.rel_tol;
            let mut g = TaskGraph::new();
            for (i, _) in slices.iter().enumerate() {
                // Independent intervals: each writes its own result slot.
                g.add_task(1.0, 0, obs::KIND_BD2VAL, &[(i as u64, AccessMode::Write)]);
            }
            type SliceOut = std::sync::OnceLock<Vec<(usize, f64)>>;
            let results: Arc<Vec<SliceOut>> =
                Arc::new((0..slices.len()).map(|_| SliceOut::new()).collect());
            let bodies: Vec<TaskBody> = slices
                .iter()
                .enumerate()
                .map(|(i, &slice)| {
                    let sturm = Arc::clone(&sturm);
                    let results = Arc::clone(&results);
                    Box::new(move || {
                        results[i]
                            .set(solve_slice(&sturm, &slice, rel_tol))
                            .expect("interval solved twice");
                    }) as TaskBody
                })
                .collect();
            runtime_execute(&g, bodies, threads);
            let mut sv = vec![0.0f64; k];
            for cell in results.iter() {
                for &(j, v) in cell.get().expect("interval never solved") {
                    sv[j] = v;
                }
            }
            sv.sort_by(|a, b| b.partial_cmp(a).unwrap());
            sv
        }
        SvdSolver::Bisection => {
            let bisect = Arc::new(GkBisection::new(diag, superdiag));
            let mut g = TaskGraph::new();
            for j in 0..k {
                g.add_task(1.0, 0, obs::KIND_BD2VAL, &[(j as u64, AccessMode::Write)]);
            }
            let results: Arc<Vec<std::sync::OnceLock<f64>>> =
                Arc::new((0..k).map(|_| std::sync::OnceLock::new()).collect());
            let bodies: Vec<TaskBody> = (0..k)
                .map(|j| {
                    let bisect = Arc::clone(&bisect);
                    let results = Arc::clone(&results);
                    Box::new(move || {
                        results[j]
                            .set(bisect.nth_largest(j))
                            .expect("singular value computed twice");
                    }) as TaskBody
                })
                .collect();
            runtime_execute(&g, bodies, threads);
            results
                .iter()
                .map(|c| *c.get().expect("singular value never computed"))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{bidiag_ops, rbidiag_ops, GenConfig};
    use bidiag_kernels::svd::bidiagonal_singular_values;
    use bidiag_matrix::gen::random_gaussian;
    use bidiag_trees::NamedTree;

    #[test]
    fn parallel_execution_matches_sequential_exactly() {
        let a0 = random_gaussian(18, 12, 77);
        let nb = 3;
        let cfg = GenConfig::shared(NamedTree::Greedy);
        let ops = bidiag_ops(6, 4, &cfg);

        let mut seq = TiledMatrix::from_dense(&a0, nb);
        execute_sequential(&ops, &mut seq);

        let mut par = TiledMatrix::from_dense(&a0, nb);
        execute_parallel(&ops, &mut par, 4);

        // Same kernels on the same operands: results are bitwise identical.
        assert_eq!(seq.to_dense(), par.to_dense());
    }

    #[test]
    fn parallel_rbidiag_handles_reused_tau_keys() {
        // R-BIDIAG produces the same TauKey twice (preQR phase + square
        // bidiagonalization); the per-op-id TauTable must keep both.
        let a0 = random_gaussian(20, 10, 3);
        let nb = 2;
        let cfg = GenConfig::shared(NamedTree::Greedy);
        let ops = rbidiag_ops(10, 5, &cfg);

        let mut seq = TiledMatrix::from_dense(&a0, nb);
        execute_sequential(&ops, &mut seq);

        let mut par = TiledMatrix::from_dense(&a0, nb);
        execute_parallel(&ops, &mut par, 4);
        assert_eq!(seq.to_dense(), par.to_dense());
    }

    #[test]
    fn tau_table_sizes_one_slot_per_factorization() {
        let cfg = GenConfig::shared(NamedTree::Greedy);
        let ops = bidiag_ops(5, 3, &cfg);
        let table = TauTable::for_ops(&ops);
        let producers = ops
            .iter()
            .filter(|o| {
                !matches!(
                    o,
                    TileOp::Unmqr { .. }
                        | TileOp::Tsmqr { .. }
                        | TileOp::Ttmqr { .. }
                        | TileOp::Unmlq { .. }
                        | TileOp::Tsmlq { .. }
                        | TileOp::Ttmlq { .. }
                        | TileOp::ZeroLower { .. }
                )
            })
            .count();
        assert_eq!(table.len(), producers);
        assert!(!table.is_empty());
    }

    #[test]
    fn graph_size_matches_op_count() {
        let cfg = GenConfig::shared(NamedTree::FlatTs);
        let ops = bidiag_ops(5, 3, &cfg);
        let g = build_graph(&ops, 3, &BlockCyclic::single_node());
        assert_eq!(g.len(), ops.len());
        assert!(g.critical_path() > 0.0);
        assert!(g.total_weight() >= g.critical_path());
    }

    #[test]
    fn distributed_owners_follow_block_cyclic() {
        let cfg = GenConfig::distributed(NamedTree::Greedy, BlockCyclic::new(2, 2));
        let ops = bidiag_ops(4, 4, &cfg);
        let dist = BlockCyclic::new(2, 2);
        let g = build_graph(&ops, 4, &dist);
        for (t, op) in ops.iter().enumerate() {
            let (i, j) = op.output_tile();
            assert_eq!(g.task(t).owner, dist.owner(i, j));
        }
    }

    /// A random band matrix built directly in band storage (no dense
    /// detour, so nothing is discarded).
    fn random_band(n: usize, bw: usize, seed: u64) -> BandMatrix {
        let g = random_gaussian(n, n, seed);
        let mut b = BandMatrix::zeros(n, bw);
        for i in 0..n {
            for j in i..=(i + bw).min(n - 1) {
                b.set(i, j, g.get(i, j));
            }
        }
        b
    }

    #[test]
    fn bnd2bd_on_runtime_matches_direct_reduction() {
        let mut b1 = random_band(30, 5, 11);
        let mut b2 = b1.clone();
        let direct = b1.reduce_to_bidiagonal();
        let threaded = bnd2bd_on_runtime(&mut b2, 4);
        assert_eq!(direct.diag, threaded.diag);
        assert_eq!(direct.superdiag, threaded.superdiag);
    }

    #[test]
    fn ge2val_is_bitwise_identical_across_thread_counts_on_ragged_shapes() {
        // Only GE2BND's tile DAG runs on the runtime; the band stages run
        // on the caller.  Every thread count must reproduce the one-thread
        // spectrum bit for bit, including ragged tilings: n not a multiple
        // of nb, a band narrower than the tile (bw = n - 1 < nb), a wide
        // input (m < n, transposed), and a tall R-BIDIAG shape.
        use crate::pipeline::{ge2val, Ge2Options};
        for (m, n, nb, seed) in [
            (37usize, 23usize, 5usize, 13u64),
            (14, 9, 12, 14),
            (17, 29, 6, 15),
            (61, 20, 6, 16),
        ] {
            let a = random_gaussian(m, n, seed);
            let opts = |t: usize| Ge2Options::new(nb).with_threads(t);
            let seq = ge2val(&a, &opts(1)).singular_values;
            assert_eq!(seq.len(), m.min(n));
            for threads in [2usize, 4] {
                let par = ge2val(&a, &opts(threads)).singular_values;
                assert_eq!(seq, par, "{m}x{n} nb={nb} @ {threads} threads");
            }
        }
    }

    #[test]
    fn bd2val_on_runtime_matches_sequential_bisection() {
        let d = vec![4.0, -3.0, 2.5, 1.0, 0.5];
        let e = vec![0.7, -0.3, 0.2, 0.1];
        let seq = bidiagonal_singular_values(&d, &e);
        let opts = Bd2ValOptions::default().with_solver(SvdSolver::Bisection);
        let par = bd2val_on_runtime(&d, &e, 4, &opts);
        assert_eq!(seq, par);
    }

    #[test]
    fn bd2val_on_runtime_every_solver_matches_its_sequential_path() {
        let d = vec![4.0, -3.0, 2.5, 1.0, 0.5, 0.25, 2.0, 1.5];
        let e = vec![0.7, -0.3, 0.2, 0.1, 0.4, -0.6, 0.05];
        for solver in [
            SvdSolver::Dqds,
            SvdSolver::SlicedBisection,
            SvdSolver::Bisection,
        ] {
            let opts = Bd2ValOptions::default()
                .with_solver(solver)
                .with_values_per_task(3);
            let seq = bidiag_svd::singular_values_with(&d, &e, &opts);
            for threads in [1usize, 2, 4] {
                let par = bd2val_on_runtime(&d, &e, threads, &opts);
                assert_eq!(seq, par, "{solver:?} @ {threads} threads");
            }
        }
    }

    #[test]
    fn bd2val_fans_out_intervals_not_values() {
        let n = 64;
        let g = random_gaussian(n, 2, 5);
        let d: Vec<f64> = (0..n).map(|i| g.get(i, 0)).collect();
        let e: Vec<f64> = (0..n - 1).map(|i| g.get(i, 1)).collect();
        let opts = Bd2ValOptions::default().with_solver(SvdSolver::SlicedBisection);
        let tasks = bd2val_task_count(&d, &e, &opts);
        assert!(tasks >= 1);
        assert!(
            tasks <= n.div_ceil(opts.values_per_task) + 1,
            "sliced path must fan out per interval, got {tasks} tasks for {n} values"
        );
        assert_eq!(
            bd2val_task_count(&d, &e, &Bd2ValOptions::default()),
            1,
            "dqds runs as a single task"
        );
    }
}
