//! Band matrices and the band-to-bidiagonal reduction (`BND2BD`).
//!
//! The tiled GE2BND algorithms of the paper stop at a *band* bidiagonal
//! matrix of upper bandwidth `nb`.  To obtain singular values this band must
//! be further reduced to a proper bidiagonal (bandwidth 1).  The paper uses
//! the PLASMA multi-threaded bulge-chasing kernel for this stage; we
//! implement an equivalent pipelined Givens bulge-chasing reduction
//! ([`BandMatrix::reduce_to_bidiagonal`]) on packed band storage.
//!
//! # Algorithm
//!
//! The reduction removes one superdiagonal at a time (Schwarz/Rutishauser
//! style): each entry of the outermost superdiagonal is annihilated by a
//! column rotation, and the bulges this creates below the diagonal and past
//! the band are chased off the bottom-right corner with alternating row and
//! column rotations.  Total cost is `O(n^2 * bw)` flops on `O(n * bw)`
//! storage (the exact count is [`bnd2bd_flops`]).
//!
//! # Pipelined execution
//!
//! Unlike the classical formulation — chase each bulge all the way down
//! before starting the next — the production path executes the chase steps
//! of a *group* of consecutive sweeps as a pipelined wavefront
//! ([`bulge_wavefronts`]): sweep `i+1` trails sweep `i` by
//! [`PIPELINE_SHIFT`] chase steps, which is exactly enough for the working
//! windows of concurrent steps to be disjoint (see [`Wavefront`]).  Each
//! region of the band is then touched once per *group* of sweeps instead of
//! once per sweep (cache blocking).  The chase runs on one thread: split
//! into one runtime task per wavefront it would be ~10^5 tiny tasks whose
//! dependency chain holds most of the work (ARCHITECTURE.md, "Why the
//! chase runs on one thread").
//!
//! # Storage
//!
//! [`BandMatrix`] stores the band column-major LAPACK-style: the diagonals
//! `-1 ..= bw + 1` of column `j` (one subdiagonal below and one diagonal
//! above the band, room for the transient bulges) live in the contiguous
//! slice `data[j * ldab ..][..ldab]` with `ldab = bw + 3`.  The hot rotation
//! kernels run directly on these slices: a column rotation is a fused sweep
//! over two contiguous strips, a row rotation touches *adjacent* elements
//! within each column slice — no per-element bound/branch logic in either.
//!
//! The historical one-bulge-at-a-time implementation is kept as
//! [`BandMatrix::reduce_to_bidiagonal_single_bulge`], the perf oracle of the
//! kernels-bench `--bnd2bd` acceptance gate.

use crate::gebd2::Bidiagonal;
use crate::givens::givens;
use bidiag_matrix::{simd, Matrix};

/// Chase-step lag between adjacent pipelined sweeps.
///
/// Sweep `i + 1` executes its chase step `k` on the wavefront three steps
/// after sweep `i` executed its own step `k`.  The working window of step
/// `k` of sweep `i` spans rows/columns `[P - 1, P + b]` with `P = i + k*b`,
/// so two same-wavefront steps of adjacent sweeps sit `3b - 1` rows apart —
/// strictly more than the `b + 2` window span for every `b >= 2`, hence all
/// concurrent windows are disjoint.  A shift of 2 would already order every
/// dependent pair, but leaves adjacent windows overlapping for `b = 2`.
pub const PIPELINE_SHIFT: usize = 3;

/// Relative Frobenius-mass bound on what [`BandMatrix::from_dense`] may
/// silently discard (debug builds assert it).
#[cfg(debug_assertions)]
const FROM_DENSE_DROP_TOL: f64 = 1e-8;

/// [`givens`] with the `hypot` libm call replaced by a plain
/// `sqrt(f^2 + g^2)` whenever the squares are safely inside the normal
/// range (same dlartg sign convention).  The chase executes one of these
/// per ~`(b + 2)`-pair rotation — about a million calls on the reference
/// case, dominated by the small-`b` passes — so the libm call is hot
/// enough to matter; extreme scales fall back to the robust path.
#[inline]
fn fast_givens(f: f64, g: f64) -> crate::givens::Givens {
    let ss = f * f + g * g;
    if (1.0e-280..=1.0e280).contains(&ss) {
        let d = ss.sqrt();
        // One division instead of two: c and s pick up a second rounding
        // (~2 ulp on c^2 + s^2), far below the eps * ||B|| deflation noise.
        let inv = 1.0 / d;
        let mut c = f * inv;
        let mut s = g * inv;
        let mut r = d;
        if f.abs() > g.abs() && c < 0.0 {
            c = -c;
            s = -s;
            r = -r;
        }
        crate::givens::Givens { c, s, r }
    } else {
        givens(f, g)
    }
}

/// Strided pair-rotation walk of [`BandMatrix::rot_rows`], portable
/// fallback: unfused arithmetic, because `f64::mul_add` without the FMA
/// target feature lowers to a libm call (the exact trap that cost BND2BD
/// 3x when the `-C target-cpu=native` pin was dropped).
///
/// # Safety
///
/// The caller must guarantee `start + (m - 1) * step + 2 <= data.len()`.
#[inline(always)]
unsafe fn rot_rows_walk(data: &mut [f64], start: usize, m: usize, step: usize, gc: f64, gs: f64) {
    // SAFETY: the caller's bound guarantees `start` is in-buffer.
    let mut p = unsafe { data.as_mut_ptr().add(start) };
    for _ in 0..m {
        // SAFETY: `p` and `p + 1` stay below `start + (m-1)*step + 2`,
        // which the caller proved is within the buffer.
        unsafe {
            let x = *p;
            let y = *p.add(1);
            *p = gc * x + gs * y;
            *p.add(1) = gc * y - gs * x;
            p = p.add(step);
        }
    }
}

/// [`rot_rows_walk`] recompiled with the FMA target feature: identical
/// strided walk, but the multiply-adds fuse into single `vfmadd`
/// instructions (the strided 2-element pairs leave nothing for the vector
/// lanes themselves to do).
///
/// # Safety
///
/// AVX2+FMA must be available, and the caller must guarantee
/// `start + (m - 1) * step + 2 <= data.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn rot_rows_walk_avx2(
    data: &mut [f64],
    start: usize,
    m: usize,
    step: usize,
    gc: f64,
    gs: f64,
) {
    // SAFETY: the caller's bound guarantees `start` is in-buffer.
    let mut p = unsafe { data.as_mut_ptr().add(start) };
    for _ in 0..m {
        // SAFETY: `p` and `p + 1` stay below `start + (m-1)*step + 2`,
        // which the caller proved is within the buffer.
        unsafe {
            let x = *p;
            let y = *p.add(1);
            *p = gc.mul_add(x, gs * y);
            *p.add(1) = gc.mul_add(y, -gs * x);
            p = p.add(step);
        }
    }
}

/// One wavefront of the pipelined bulge-chasing reduction: the chase steps
/// `{ (sweep g + l, step omega - PIPELINE_SHIFT * l) : l < lanes }` of the
/// pass removing superdiagonal `b`, where `g` is the first sweep of the
/// group.
///
/// All steps of one wavefront touch pairwise disjoint row/column windows
/// (see [`PIPELINE_SHIFT`]), so a wavefront is executed as one unit and
/// the result is bitwise independent of the order the steps run in.
/// Conflicting steps always land on distinct wavefronts, ordered like the
/// classical sweep-after-sweep execution.
#[derive(Clone, Copy, Debug)]
pub struct Wavefront {
    /// Superdiagonal being removed by this pass (`2..=bw`).
    pub b: usize,
    /// First sweep (row index of the annihilated entry) of the group.
    pub group_start: usize,
    /// Number of sweeps pipelined in this group.
    pub lanes: usize,
    /// Wavefront index within the group: lane `l` executes its chase step
    /// `omega - PIPELINE_SHIFT * l` (when in `0..=K(lane)`).
    pub omega: usize,
}

impl Wavefront {
    /// The active `(sweep, chase step)` pairs of this wavefront for a band
    /// of order `n`, in lane order (the order [`BandMatrix::run_wavefront`]
    /// executes them).
    pub fn steps(&self, n: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (b, omega) = (self.b, self.omega);
        (0..self.lanes).filter_map(move |l| {
            let i = self.group_start + l;
            let lag = PIPELINE_SHIFT * l;
            if i + b >= n || omega < lag {
                return None;
            }
            let k = omega - lag;
            (k <= (n - 1 - i) / b).then_some((i, k))
        })
    }
}

/// Number of sweeps pipelined per group in the pass removing superdiagonal
/// `b`: as many as keep the group's concurrent windows (spread
/// `PIPELINE_SHIFT * b` rows apart, each `~(b + 2)^2` elements) inside a
/// mid-size cache footprint, so a band region stays resident while every
/// lane of the group streams through it.
fn group_lanes(n: usize, b: usize) -> usize {
    const WORKSET_BYTES: usize = 384 * 1024;
    let per_lane = PIPELINE_SHIFT * b * (b + 3) * 8;
    (WORKSET_BYTES / per_lane.max(1)).clamp(2, 24).min(n.max(1))
}

/// The wavefronts of one pass removing superdiagonal `b` of an order-`n`
/// band, in execution order (groups of [`group_lanes`] sweeps, wavefronts
/// ascending within each group).
fn pass_wavefronts(n: usize, b: usize, out: &mut Vec<Wavefront>) {
    let sweeps = n.saturating_sub(b);
    let lanes_max = group_lanes(n, b);
    let mut i0 = 0;
    while i0 < sweeps {
        let lanes = lanes_max.min(sweeps - i0);
        let omega_max = (0..lanes)
            .map(|l| PIPELINE_SHIFT * l + (n - 1 - (i0 + l)) / b)
            .max()
            .expect("lanes >= 1");
        for omega in 0..=omega_max {
            out.push(Wavefront {
                b,
                group_start: i0,
                lanes,
                omega,
            });
        }
        i0 += lanes;
    }
}

/// The full wavefront schedule of the pipelined reduction of an order-`n`
/// band of upper bandwidth `bw`: passes `b = bw, bw - 1, ..., 2` in order,
/// each pass laid out as groups of pipelined sweeps (see the module docs
/// and [`PIPELINE_SHIFT`]).  Executing the wavefronts in
/// this order (each via [`BandMatrix::run_wavefront`]) is exactly
/// [`BandMatrix::reduce_to_bidiagonal`].
pub fn bulge_wavefronts(n: usize, bw: usize) -> Vec<Wavefront> {
    let mut wfs = Vec::new();
    let mut b = bw;
    while b >= 2 {
        pass_wavefronts(n, b, &mut wfs);
        b -= 1;
    }
    wfs
}

/// Compact column-major storage for an upper-banded square matrix with room
/// for the transient bulges of the reduction (one subdiagonal below, one
/// diagonal above the band).
#[derive(Clone, Debug)]
pub struct BandMatrix {
    n: usize,
    bw: usize,
    /// Column stride: `bw + 3` stored diagonals (`-1 ..= bw + 1`).
    ldab: usize,
    /// `data[j * ldab + (i - j + bw + 1)]` holds `B[i, j]`.
    data: Vec<f64>,
}

impl BandMatrix {
    /// Create a zero band matrix of order `n` and upper bandwidth `bw`.
    pub fn zeros(n: usize, bw: usize) -> Self {
        assert!(n > 0);
        let bw = bw.max(1).min(n.saturating_sub(1).max(1));
        let ldab = bw + 3;
        Self {
            n,
            bw,
            ldab,
            data: vec![0.0; ldab * n],
        }
    }

    /// Build from a dense matrix, keeping only the upper band `0..=bw`.
    ///
    /// Entries outside the band are discarded; they must be negligible
    /// relative to the Frobenius norm of the input (`GE2BND` guarantees it —
    /// its band extraction is exact).  Debug builds assert this, so a
    /// bandwidth mismatch between the stages fails loudly instead of
    /// silently corrupting the spectrum.
    pub fn from_dense(a: &Matrix, bw: usize) -> Self {
        let n = a.rows().min(a.cols());
        let mut b = Self::zeros(n, bw);
        for i in 0..n {
            let jmax = (i + b.bw).min(n - 1);
            for j in i..=jmax {
                b.set(i, j, a.get(i, j));
            }
        }
        #[cfg(debug_assertions)]
        {
            // Sum the discarded entries directly (not by subtracting the
            // kept norm from the total — that cancellation would flag
            // rounding noise as dropped mass).
            let mut total = 0.0f64;
            let mut dropped = 0.0f64;
            for i in 0..a.rows() {
                for j in 0..a.cols() {
                    let v = a.get(i, j);
                    total += v * v;
                    let kept = i < n && j < n && j >= i && j - i <= b.bw;
                    if !kept {
                        dropped += v * v;
                    }
                }
            }
            let (total, dropped) = (total.sqrt(), dropped.sqrt());
            debug_assert!(
                dropped <= FROM_DENSE_DROP_TOL * total + f64::MIN_POSITIVE,
                "BandMatrix::from_dense({} x {}, bw = {}) would discard {dropped:.3e} \
                 of Frobenius mass {:.3e}: out-of-band entries are not negligible \
                 (bandwidth mismatch with the producing stage?)",
                a.rows(),
                a.cols(),
                bw,
                total,
            );
        }
        b
    }

    /// Order of the matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Upper bandwidth the storage was created for.
    pub fn bandwidth(&self) -> usize {
        self.bw
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> Option<usize> {
        let d = j as isize - i as isize;
        if i >= self.n || j >= self.n || d < -1 || d > self.bw as isize + 1 {
            None
        } else {
            Some(j * self.ldab + (i + self.bw + 1 - j))
        }
    }

    /// Offset of the stored entry `(i, j)` — callers must guarantee the
    /// entry lies on the stored diagonals `-1 ..= bw + 1` (the chase only
    /// ever addresses such entries); the public [`BandMatrix::get`] /
    /// [`BandMatrix::set`] accessors validate instead.
    #[inline]
    fn off(&self, i: usize, j: usize) -> usize {
        debug_assert!(self.idx(i, j).is_some(), "({i}, {j}) outside band storage");
        j * self.ldab + (i + self.bw + 1 - j)
    }

    /// Read the in-band entry `(i, j)` without the out-of-band check.
    ///
    /// SAFETY of the unchecked access: [`BandMatrix::off`] debug-asserts
    /// that `(i, j)` lies on a stored diagonal, and every stored diagonal
    /// offset is `< ldab * n == data.len()` by construction.
    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        let k = self.off(i, j);
        debug_assert!(k < self.data.len());
        unsafe { *self.data.get_unchecked(k) }
    }

    /// Write the in-band entry `(i, j)` without the out-of-band check
    /// (same safety argument as [`BandMatrix::at`]).
    #[inline]
    fn set_at(&mut self, i: usize, j: usize, v: f64) {
        let k = self.off(i, j);
        debug_assert!(k < self.data.len());
        unsafe { *self.data.get_unchecked_mut(k) = v };
    }

    /// Read entry `(i, j)`; entries outside the stored band read as zero.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self.idx(i, j) {
            Some(k) => self.data[k],
            None => 0.0,
        }
    }

    /// Write entry `(i, j)`; panics if outside the stored band.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let k = self.idx(i, j).expect("write outside band storage");
        self.data[k] = v;
    }

    /// Densify (for tests and small problems).
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |i, j| self.get(i, j))
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        // Slots of the packed storage that fall outside the matrix are
        // never written, so the norm is the norm of the raw buffer.
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// The negligibility threshold of the bulge-chasing deflation tests:
    /// LAPACK-style `eps * ||B||_F`.  A bulge (or annihilation target) at or
    /// below this threshold perturbs the singular values by no more than a
    /// rounding error of the reduction itself, so it is zeroed instead of
    /// chased — unlike an exact-zero test, this also deflates
    /// denormal-scale bulges instead of dragging them down the whole band.
    pub fn deflation_tolerance(&self) -> f64 {
        f64::EPSILON * self.norm_fro()
    }

    /// Apply a column rotation to columns `(c, c + 1)` over rows
    /// `r0 ..= r1`: two fused sweeps over contiguous column strips.
    #[inline]
    fn rot_cols(&mut self, c: usize, r0: usize, r1: usize, gc: f64, gs: f64) {
        debug_assert!(c + 1 < self.n && r0 <= r1 && r1 <= c + 1);
        let ldab = self.ldab;
        let off = self.bw + 1;
        let (left, rest) = self.data[c * ldab..].split_at_mut(ldab);
        let o1 = r0 + off - c;
        let len = r1 - r0 + 1;
        let xs = &mut left[o1..o1 + len];
        let ys = &mut rest[o1 - 1..o1 - 1 + len];
        // Two contiguous strips -> the dispatched fused-rotation kernel
        // (AVX2 broadcast-FMA above 4 elements, scalar below/fallback).
        // The backend read is one relaxed atomic load, never a cpuid.
        simd::rot_strips(simd::backend(), xs, ys, gc, gs);
    }

    /// Apply a row rotation to rows `(r, r + 1)` over columns `c0 ..= c1`:
    /// the two elements of each column are *adjacent* in its packed slice,
    /// so the walk is one strided sweep with no per-element index logic.
    /// The data is strided 2-element pairs, so there is no contiguous strip
    /// for a vector kernel to load; the backend dispatch below exists to
    /// recompile the same scalar walk with hardware FMA under AVX2
    /// (`f64::mul_add` on the portable baseline would lower to a libm
    /// call), with the unfused walk as the portable fallback.
    #[inline]
    fn rot_rows(&mut self, r: usize, c0: usize, c1: usize, gc: f64, gs: f64) {
        debug_assert!(c0 <= c1 && c1 < self.n && c0 >= r.saturating_sub(self.bw + 1));
        let ldab = self.ldab;
        let m = c1 - c0 + 1;
        let start = c0 * ldab + (r + self.bw + 1 - c0);
        // One bounds proof up front, then a raw strided walk: the short
        // per-column pairs (2 elements, stride `ldab - 1`) defeat both
        // vectorization and the bounds-check eliminator, and on the
        // step-count-dominating small-`b` passes the per-pair check cost
        // rivals the arithmetic.
        assert!(start + (m - 1) * (ldab - 1) + 2 <= self.data.len());
        match simd::backend() {
            #[cfg(target_arch = "x86_64")]
            simd::SimdBackend::Avx2 => {
                simd::check_avx2();
                // SAFETY: `check_avx2` above proved AVX2+FMA are available,
                // and the bounds assertion covers every pointer the walk
                // dereferences.
                unsafe { rot_rows_walk_avx2(&mut self.data, start, m, ldab - 1, gc, gs) }
            }
            _ => {
                // SAFETY: the bounds assertion covers every pointer the
                // walk dereferences.
                unsafe { rot_rows_walk(&mut self.data, start, m, ldab - 1, gc, gs) }
            }
        }
    }

    /// Execute one chase step of sweep `i` of the pass removing
    /// superdiagonal `b`.
    ///
    /// Step `0` annihilates the band entry `(i, i + b)` with a column
    /// rotation (leaving a subdiagonal bulge at `(i + b, i + b - 1)`); step
    /// `k >= 1` works at `j = i + k*b`: a row rotation restores the
    /// subdiagonal bulge `(j, j - 1)` (pushing an above-band bulge to
    /// `(j - 1, j + b)`), and a column rotation restores that one (leaving
    /// the next subdiagonal bulge for step `k + 1`).  Bulges at or below
    /// `tol` ([`BandMatrix::deflation_tolerance`]) are zeroed instead of
    /// chased, which also terminates the remaining steps of the sweep —
    /// they find an exactly-zero bulge.
    /// The pivot pair of every rotation is written directly (`r` and an
    /// exact `0`) and excluded from the fused application loops — on the
    /// step-count-dominating `b = 2` pass that is a quarter of the pair
    /// work, and it spares the zeroed entry a round trip through the
    /// rotation arithmetic.
    fn chase_step(&mut self, b: usize, i: usize, k: usize, tol: f64) {
        let n = self.n;
        if k == 0 {
            let c = i + b;
            let g = self.at(i, c);
            if g.abs() <= tol {
                if g != 0.0 {
                    self.set_at(i, c, 0.0);
                }
                return;
            }
            let rot = fast_givens(self.at(i, c - 1), g);
            self.set_at(i, c - 1, rot.r);
            self.set_at(i, c, 0.0);
            self.rot_cols(c - 1, i + 1, c, rot.c, rot.s);
            return;
        }
        let j = i + k * b;
        // Sub-diagonal bulge at (j, j-1): row rotation on rows (j-1, j).
        let g = self.at(j, j - 1);
        if g.abs() <= tol {
            if g != 0.0 {
                self.set_at(j, j - 1, 0.0);
            }
            return;
        }
        let rot = fast_givens(self.at(j - 1, j - 1), g);
        self.set_at(j - 1, j - 1, rot.r);
        self.set_at(j, j - 1, 0.0);
        self.rot_rows(j - 1, j, (j + b).min(n - 1), rot.c, rot.s);

        // Above-band bulge at (j-1, j+b): column rotation on (j+b-1, j+b).
        if j + b > n - 1 {
            return;
        }
        let g = self.at(j - 1, j + b);
        if g.abs() <= tol {
            if g != 0.0 {
                self.set_at(j - 1, j + b, 0.0);
            }
            return;
        }
        let rot = fast_givens(self.at(j - 1, j + b - 1), g);
        self.set_at(j - 1, j + b - 1, rot.r);
        self.set_at(j - 1, j + b, 0.0);
        self.rot_cols(j + b - 1, j, j + b, rot.c, rot.s);
    }

    /// Execute every chase step of one [`Wavefront`] (in lane order; the
    /// steps touch disjoint windows, so any order gives the same bits).
    pub fn run_wavefront(&mut self, wf: &Wavefront, tol: f64) {
        let n = self.n;
        let mut l = 0;
        while l < wf.lanes {
            let i = wf.group_start + l;
            let lag = PIPELINE_SHIFT * l;
            if i + wf.b >= n || wf.omega < lag {
                break; // later lanes start later still
            }
            let k = wf.omega - lag;
            if k <= (n - 1 - i) / wf.b {
                self.chase_step(wf.b, i, k, tol);
            }
            l += 1;
        }
    }

    /// Reduce the band matrix to upper bidiagonal form in place with
    /// pipelined Givens bulge chasing and return the bidiagonal factor.
    /// Only singular values are preserved (the rotations are not
    /// accumulated), exactly like the singular-value-only path of the paper.
    ///
    /// Executes the [`bulge_wavefronts`] schedule with one deflation
    /// threshold for the whole reduction.
    pub fn reduce_to_bidiagonal(&mut self) -> Bidiagonal {
        let tol = self.deflation_tolerance();
        for wf in bulge_wavefronts(self.n, self.bw) {
            self.run_wavefront(&wf, tol);
        }
        self.bidiagonal_factor()
    }

    /// One pipelined pass: annihilate every entry of superdiagonal `b`
    /// (which must be the outermost non-zero one, i.e. superdiagonals
    /// `b+1..` were already removed) and chase the resulting bulges off the
    /// bottom-right corner.
    ///
    /// Computes its own deflation threshold from the current band;
    /// [`BandMatrix::reduce_to_bidiagonal`] shares one threshold across all
    /// passes instead.
    pub fn remove_superdiagonal(&mut self, b: usize) {
        assert!(
            (2..=self.bw).contains(&b),
            "sweep index {b} outside 2..=bw ({})",
            self.bw
        );
        let tol = self.deflation_tolerance();
        let mut wfs = Vec::new();
        pass_wavefronts(self.n, b, &mut wfs);
        for wf in wfs {
            self.run_wavefront(&wf, tol);
        }
    }

    /// The historical one-bulge-at-a-time reduction (each annihilated entry
    /// is chased all the way down before the next starts, with the original
    /// exact-zero deflation tests), kept as the perf/numerics oracle of the
    /// kernels-bench `--bnd2bd` acceptance gate.
    pub fn reduce_to_bidiagonal_single_bulge(&mut self) -> Bidiagonal {
        let mut b = self.bw;
        while b >= 2 {
            self.remove_superdiagonal_single_bulge(b);
            b -= 1;
        }
        self.bidiagonal_factor()
    }

    /// One sweep of the historical single-bulge reduction (see
    /// [`BandMatrix::reduce_to_bidiagonal_single_bulge`]).
    pub fn remove_superdiagonal_single_bulge(&mut self, b: usize) {
        let n = self.n;
        assert!(
            (2..=self.bw).contains(&b),
            "sweep index {b} outside 2..=bw ({})",
            self.bw
        );
        for i in 0..n.saturating_sub(b) {
            let c = i + b;
            if self.get(i, c) == 0.0 {
                continue;
            }
            // Column rotation on (c-1, c) zeroing (i, c).
            let rot = givens(self.get(i, c - 1), self.get(i, c));
            let rmax = c.min(n - 1);
            for r in i..=rmax {
                let (x, y) = rot.apply(self.get(r, c - 1), self.get(r, c));
                self.set(r, c - 1, x);
                self.set(r, c, y);
            }
            self.set(i, c, 0.0);

            // Chase the bulges down the band.
            let mut j = c;
            loop {
                // Sub-diagonal bulge at (j, j-1): row rotation on (j-1, j).
                if self.get(j, j - 1) == 0.0 {
                    break;
                }
                let rot = givens(self.get(j - 1, j - 1), self.get(j, j - 1));
                let cmax = (j + b).min(n - 1);
                for col in (j - 1)..=cmax {
                    let (x, y) = rot.apply(self.get(j - 1, col), self.get(j, col));
                    self.set(j - 1, col, x);
                    self.set(j, col, y);
                }
                self.set(j, j - 1, 0.0);

                // Above-band bulge at (j-1, j+b): column rotation on (j+b-1, j+b).
                if j + b > n - 1 || self.get(j - 1, j + b) == 0.0 {
                    break;
                }
                let rot = givens(self.get(j - 1, j + b - 1), self.get(j - 1, j + b));
                let rmax = (j + b).min(n - 1);
                for r in (j - 1)..=rmax {
                    let (x, y) = rot.apply(self.get(r, j + b - 1), self.get(r, j + b));
                    self.set(r, j + b - 1, x);
                    self.set(r, j + b, y);
                }
                self.set(j - 1, j + b, 0.0);
                j += b;
            }
        }
    }

    /// Extract the main diagonal and first superdiagonal as a
    /// [`Bidiagonal`] factor (meaningful once every superdiagonal beyond
    /// the first has been removed).
    pub fn bidiagonal_factor(&self) -> Bidiagonal {
        let n = self.n;
        let diag: Vec<f64> = (0..n).map(|i| self.get(i, i)).collect();
        let superdiag: Vec<f64> = (0..n.saturating_sub(1))
            .map(|i| self.get(i, i + 1))
            .collect();
        Bidiagonal { diag, superdiag }
    }
}

/// Flop count of the band-to-bidiagonal reduction of an order-`n` band of
/// bandwidth `bw` (used by the performance model; the paper treats this
/// stage as memory-bound).
///
/// Derivation (see BENCHMARKING.md): the pass removing superdiagonal `d`
/// chases each of its `~n` annihilated entries through `~(n - i)/d` chase
/// steps of two rotations fused over `d + 2` element pairs (6 flops per
/// pair), i.e. `~6 n^2 (d + 2)/d` flops; summing `d = 2..=bw` gives
/// `6 n^2 [(bw - 1) + 2 (H_bw - 1)]` with `H_bw` the harmonic number.  The
/// previously used `6 n^2 bw` dropped the harmonic term contributed by the
/// narrow late passes.
pub fn bnd2bd_flops(n: usize, bw: usize) -> f64 {
    if bw < 2 {
        return 0.0;
    }
    let n = n as f64;
    let harmonic_tail: f64 = (2..=bw).map(|d| 1.0 / d as f64).sum();
    6.0 * n * n * ((bw as f64 - 1.0) + 2.0 * harmonic_tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::jacobi_singular_values;
    use bidiag_matrix::checks::singular_values_match;
    use bidiag_matrix::gen::random_gaussian;

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
    fn band_storage_round_trip() {
        let b = random_band(10, 3, 1);
        let d = b.to_dense();
        let b2 = BandMatrix::from_dense(&d, 3);
        assert!((b.norm_fro() - b2.norm_fro()).abs() < 1e-14);
        assert_eq!(b.get(0, 5), 0.0); // outside band reads zero
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not negligible")]
    fn from_dense_rejects_out_of_band_mass() {
        // A fully dense matrix has O(1) mass outside any bw=2 band: the
        // debug assert must fire instead of silently truncating it.
        let g = random_gaussian(12, 12, 9);
        let _ = BandMatrix::from_dense(&g, 2);
    }

    #[test]
    fn reduction_produces_bidiagonal_and_preserves_norm() {
        let mut b = random_band(30, 5, 2);
        let norm0 = b.norm_fro();
        let bd = b.reduce_to_bidiagonal();
        assert_eq!(bd.diag.len(), 30);
        assert!((bd.norm_fro() - norm0).abs() < 1e-10 * norm0);
        // The band storage itself must now be bidiagonal.
        let dense = b.to_dense();
        assert!(dense.is_upper_bidiagonal(1e-10 * norm0));
    }

    #[test]
    fn reduction_preserves_singular_values_small() {
        for (n, bw, seed) in [(8usize, 2usize, 3u64), (12, 4, 4), (17, 5, 5), (9, 8, 6)] {
            let b = random_band(n, bw, seed);
            let dense = b.to_dense();
            let reference = jacobi_singular_values(&dense);
            let mut work = b.clone();
            let bd = work.reduce_to_bidiagonal();
            let reduced = jacobi_singular_values(&bd.to_dense());
            assert!(
                singular_values_match(&reference, &reduced, 1e-10),
                "singular values changed for n={n} bw={bw}"
            );
        }
    }

    #[test]
    fn pipelined_matches_single_bulge_oracle_spectrum() {
        for (n, bw, seed) in [(23usize, 3usize, 21u64), (41, 7, 22), (64, 16, 23)] {
            let b = random_band(n, bw, seed);
            let mut pipelined = b.clone();
            let mut oracle = b.clone();
            let bd_p = pipelined.reduce_to_bidiagonal();
            let bd_o = oracle.reduce_to_bidiagonal_single_bulge();
            let sv_p = jacobi_singular_values(&bd_p.to_dense());
            let sv_o = jacobi_singular_values(&bd_o.to_dense());
            assert!(
                singular_values_match(&sv_p, &sv_o, 1e-10),
                "pipelined vs single-bulge mismatch for n={n} bw={bw}"
            );
        }
    }

    #[test]
    fn wavefront_windows_are_pairwise_disjoint() {
        // The invariant the whole pipeline rests on: concurrent chase
        // steps of one wavefront touch disjoint row/column windows.
        for (n, bw) in [(37usize, 2usize), (64, 5), (100, 9), (53, 52)] {
            for wf in bulge_wavefronts(n, bw) {
                let windows: Vec<(usize, usize)> = wf
                    .steps(n)
                    .map(|(i, k)| {
                        let p = i + k * wf.b;
                        (p.saturating_sub(1), (p + wf.b).min(n - 1))
                    })
                    .collect();
                for (a, wa) in windows.iter().enumerate() {
                    for wb in windows.iter().skip(a + 1) {
                        assert!(
                            wa.1 < wb.0 || wb.1 < wa.0,
                            "overlapping wavefront windows {wa:?} / {wb:?} \
                             (n={n} bw={bw} wf={wf:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wavefront_schedule_covers_every_chase_step_once() {
        // Every (pass, sweep, step) triple appears exactly once across the
        // schedule, and conflicting steps are ordered like the sequential
        // sweep-major execution.
        let (n, bw) = (29usize, 6usize);
        let mut seen = std::collections::HashSet::new();
        let mut count = 0usize;
        for wf in bulge_wavefronts(n, bw) {
            for (i, k) in wf.steps(n) {
                assert!(
                    seen.insert((wf.b, i, k)),
                    "duplicate step {:?}",
                    (wf.b, i, k)
                );
                count += 1;
            }
        }
        let mut expect = 0usize;
        for b in 2..=bw {
            for i in 0..n - b {
                expect += (n - 1 - i) / b + 1;
            }
        }
        assert_eq!(count, expect);
    }

    #[test]
    fn already_bidiagonal_is_untouched() {
        let mut b = BandMatrix::zeros(6, 1);
        for i in 0..6 {
            b.set(i, i, (i + 1) as f64);
            if i + 1 < 6 {
                b.set(i, i + 1, 0.5);
            }
        }
        let before = b.to_dense();
        let bd = b.reduce_to_bidiagonal();
        assert_eq!(bd.to_dense(), before);
    }

    #[test]
    fn bandwidth_one_edge_cases() {
        // n = 1.
        let mut b = BandMatrix::zeros(1, 1);
        b.set(0, 0, 3.0);
        let bd = b.reduce_to_bidiagonal();
        assert_eq!(bd.diag, vec![3.0]);
        assert!(bd.superdiag.is_empty());
    }

    #[test]
    fn full_bandwidth_and_tiny_orders() {
        // bw >= n - 1 (requested bandwidth clamps to n - 1): the band is a
        // full upper triangle.
        for (n, bw, seed) in [(6usize, 8usize, 31u64), (5, 4, 32), (3, 2, 33)] {
            let b = random_band(n, bw.min(n - 1), seed);
            let reference = jacobi_singular_values(&b.to_dense());
            let mut work = b.clone();
            let bd = work.reduce_to_bidiagonal();
            let reduced = jacobi_singular_values(&bd.to_dense());
            assert!(
                singular_values_match(&reference, &reduced, 1e-10),
                "full-bandwidth reduction failed for n={n}"
            );
        }
        // n = 2 is already bidiagonal whatever the requested bandwidth.
        let mut b = BandMatrix::zeros(2, 5);
        b.set(0, 0, 2.0);
        b.set(0, 1, -1.0);
        b.set(1, 1, 0.5);
        let bd = b.reduce_to_bidiagonal();
        assert_eq!(bd.diag, vec![2.0, 0.5]);
        assert_eq!(bd.superdiag, vec![-1.0]);
    }

    #[test]
    fn zero_band_and_single_superdiagonal() {
        // All-zero band: reduction is a no-op on zeros.
        let mut z = BandMatrix::zeros(9, 4);
        let bd = z.reduce_to_bidiagonal();
        assert!(bd.diag.iter().all(|&v| v == 0.0));
        assert!(bd.superdiag.iter().all(|&v| v == 0.0));

        // A single non-zero entry on the outermost superdiagonal has
        // singular value |v| (plus zeros) — the chase must preserve that.
        let mut b = BandMatrix::zeros(10, 3);
        b.set(2, 5, 7.5);
        let norm0 = b.norm_fro();
        let bd = b.reduce_to_bidiagonal();
        assert!((bd.norm_fro() - norm0).abs() < 1e-12 * norm0);
        let sv = jacobi_singular_values(&bd.to_dense());
        assert!((sv[0] - 7.5).abs() < 1e-10);
        assert!(sv[1..].iter().all(|&v| v.abs() < 1e-10));
    }

    #[test]
    fn underflow_scaled_band_keeps_its_spectrum() {
        // A band scaled to denormal range: the norm-relative deflation
        // threshold must neither chase forever nor deflate real mass, and
        // the spectrum must scale exactly (sigma(alpha * B) = alpha *
        // sigma(B)).
        let (n, bw, scale) = (24usize, 4usize, 1.0e-300f64);
        let b = random_band(n, bw, 41);
        let reference = jacobi_singular_values(&b.to_dense());

        let mut tiny = BandMatrix::zeros(n, bw);
        for i in 0..n {
            for j in i..=(i + bw).min(n - 1) {
                tiny.set(i, j, b.get(i, j) * scale);
            }
        }
        let bd = tiny.reduce_to_bidiagonal();
        // Rescale the bidiagonal back up before calling the oracle (Jacobi
        // itself is not reliable on denormals).
        let mut up = Matrix::zeros(n, n);
        for i in 0..n {
            up[(i, i)] = bd.diag[i] / scale;
            if i + 1 < n {
                up[(i, i + 1)] = bd.superdiag[i] / scale;
            }
        }
        let reduced = jacobi_singular_values(&up);
        assert!(
            singular_values_match(&reference, &reduced, 1e-10),
            "underflow-scaled reduction corrupted the spectrum"
        );
    }

    #[test]
    fn negligible_superdiagonal_entries_are_deflated_not_chased() {
        // Entries far below eps * ||B|| must be zeroed by the threshold
        // test (the exact-zero test would chase them full length), without
        // touching the spectrum.
        let n = 20usize;
        let mut b = random_band(n, 3, 51);
        let tol = b.deflation_tolerance();
        for i in 0..n - 3 {
            b.set(i, i + 3, tol * 1.0e-4);
        }
        let reference = jacobi_singular_values(&b.to_dense());
        let bd = b.reduce_to_bidiagonal();
        let reduced = jacobi_singular_values(&bd.to_dense());
        assert!(singular_values_match(&reference, &reduced, 1e-10));
    }

    #[test]
    fn randomized_large_band_matches_jacobi_oracle() {
        // The n=200 pin: the pipelined reduction against the dense Jacobi
        // oracle on a realistically sized band.
        let (n, bw) = (200usize, 12usize);
        let b = random_band(n, bw, 61);
        let reference = jacobi_singular_values(&b.to_dense());
        let mut work = b.clone();
        let bd = work.reduce_to_bidiagonal();
        let reduced = jacobi_singular_values(&bd.to_dense());
        assert!(
            singular_values_match(&reference, &reduced, 1e-10),
            "n=200 reduction diverged from the Jacobi oracle"
        );
    }

    #[test]
    fn corrected_flop_count_dominates_old_model() {
        // The harmonic correction only adds flops (narrow passes chase
        // further per row), and vanishes for bw < 2.
        assert_eq!(bnd2bd_flops(100, 1), 0.0);
        let old = 6.0 * 512.0f64 * 512.0 * 64.0;
        let new = bnd2bd_flops(512, 64);
        assert!(new > 0.98 * old && new < 1.25 * old, "new = {new}");
    }
}
