//! The traced run: per-layer metrics, measured by calling each layer's
//! public functions from the benchmark and by reading the `bidiag-obs`
//! registry. The program gains no instrumentation for it.
//!
//! The run first probes the layers on the workload's representative input,
//! then runs interleaved untraced/traced units of the workload itself (the
//! registry counters and the tracing overhead come from those), and, for
//! the per-call workloads, drives the same inputs through an `SvdSession`
//! for the batch-layer metrics.

use crate::check::{spectrum_matches, Tally};
use crate::report::{median, quantile, Metric};
use crate::spans::{self, SPAN_PROBE, SPAN_REQUEST};
use crate::workloads::{per_call_loop, per_call_options, stream_loop, Problem, Samples, Stop, NB};
use bidiag_core::drivers::{ge2bnd_ops, GenConfig};
use bidiag_core::exec::{bd2val_on_runtime, bnd2bd_on_runtime, build_graph, execute_parallel};
use bidiag_core::flops::{reporting_flops, select_by_flops};
use bidiag_core::ops::{KernelScratch, TauTable};
use bidiag_core::pipeline::ge2bnd;
use bidiag_core::{try_ge2val, Ge2Options, SvdSession};
use bidiag_kernels::band::bnd2bd_flops;
use bidiag_kernels::gebd2::gebd2;
use bidiag_matrix::{gemm_nn, BlockCyclic, Matrix, TiledMatrix};
use bidiag_obs as obs;
use bidiag_runtime::{TaskBody, TaskGraph};
use bidiag_svd::singular_values_with_report;
use bidiag_trees::NamedTree;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What the traced run drives.
pub enum Target<'a> {
    /// Per-call `try_ge2val` on `problems` under `opts`.
    PerCall {
        /// The workload's inputs.
        problems: &'a [Problem],
        /// The per-call options.
        opts: Ge2Options,
    },
    /// A request stream through `session`.
    Stream {
        /// The set-up session.
        session: &'a SvdSession,
        /// The distinct inputs.
        pool: &'a [Problem],
        /// Draws the next input index.
        pick: &'a mut dyn FnMut() -> usize,
        /// Requests kept in flight.
        window: usize,
        /// Requests per traced or untraced unit.
        unit: usize,
    },
}

/// The number of Table I kernel kinds (`LASET`, weight 0, is left out).
const KERNEL_KINDS: usize = 12;
/// The kinds reported, as `KernelKind` discriminants: GREEDY eliminates
/// with TT kernels only, so the four TS kinds never run on any workload.
const REPORTED_KINDS: [usize; 8] = [0, 1, 4, 5, 6, 7, 10, 11];

/// Run `f` (which returns the seconds it measured) at least `min` times,
/// and again while fewer than `max` runs took less than `budget`.
fn repeat(budget: Duration, min: usize, max: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && start.elapsed() < budget) {
        out.push(f());
    }
    out
}

fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Time `f` as one probe call, recording a probe span.
fn probe<T>(task: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let start_ns = obs::now_ns();
    let t0 = Instant::now();
    let out = f();
    let dt = secs_since(t0);
    spans::record(SPAN_PROBE, task, start_ns);
    (out, dt)
}

fn per_sec(flops: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        flops / seconds / 1e9
    } else {
        0.0
    }
}

/// Single-thread FMA throughput in GFlop/s on the dispatched SIMD backend:
/// independent multiply-add chains, so only the FMA units' throughput limits them.
fn fma_peak_gflops(budget: Duration) -> (f64, usize) {
    const ITERS: usize = 2_000_000;
    let rates = repeat(budget, 3, 9, || {
        let t0 = Instant::now();
        let flops = fma_chains(black_box(ITERS));
        flops / secs_since(t0) / 1e9
    });
    (median(&rates), rates.len())
}

/// Run `iters` rounds of independent FMA chains; returns the flops done.
fn fma_chains(iters: usize) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if bidiag_matrix::simd::backend() == bidiag_matrix::SimdBackend::Avx2 {
        // SAFETY: the dispatcher selects the AVX2 backend only after
        // detecting AVX2 and FMA on this CPU.
        return unsafe { fma_chains_avx2(iters) };
    }
    const CHAINS: usize = 16;
    let mut acc = [1.0_f64; CHAINS];
    let (m, a) = black_box((0.999_999, 1.0e-7));
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = *x * m + a;
        }
    }
    black_box(acc);
    (iters * CHAINS * 2) as f64
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: usize) -> f64 {
    use std::arch::x86_64::{_mm256_fmadd_pd, _mm256_set1_pd, _mm256_storeu_pd};
    // Twelve chains of four lanes hide the FMA latency on two ports.
    const CHAINS: usize = 12;
    let (m, a) = black_box((0.999_999, 1.0e-7));
    let vm = _mm256_set1_pd(m);
    let va = _mm256_set1_pd(a);
    let mut acc = [_mm256_set1_pd(1.0); CHAINS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm256_fmadd_pd(*x, vm, va);
        }
    }
    let mut out = [0.0_f64; 4];
    for x in acc {
        // SAFETY: `out` holds the four f64 lanes the unaligned store writes.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), x) };
        black_box(out);
    }
    (iters * CHAINS * 4 * 2) as f64
}

/// `bidiag-matrix`: packed GEMM at 256^3 on one thread against the FMA
/// probe.
fn matrix_layer(budget: Duration, seed: u64, out: &mut Vec<Metric>) {
    const N: usize = 256;
    let mut rng = crate::workloads::SplitMix::new(seed);
    let mut rand = |_, _| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    let a = Matrix::from_fn(N, N, &mut rand);
    let b = Matrix::from_fn(N, N, &mut rand);
    let mut c = Matrix::zeros(N, N);
    let times = repeat(budget / 2, 3, 40, || {
        c.data_mut().fill(0.0);
        probe(0, || {
            gemm_nn(&mut c.as_view_mut(), 1.0, a.as_view(), b.as_view())
        })
        .1
    });
    black_box(&c);
    let gemm = per_sec(2.0 * (N * N * N) as f64, median(&times));
    let (peak, peak_reps) = fma_peak_gflops(budget / 2);
    out.push(Metric::new(
        "matrix.gemm_gflops",
        gemm,
        "GFlop/s",
        times.len(),
    ));
    out.push(Metric::new(
        "matrix.fma_peak_gflops",
        peak,
        "GFlop/s",
        peak_reps,
    ));
    out.push(Metric::new(
        "matrix.gemm_pct_peak",
        100.0 * gemm / peak.max(f64::MIN_POSITIVE),
        "%",
        times.len(),
    ));
}

/// `bidiag-kernels`: a one-thread replay of the workload's GE2BND op list,
/// timing `TileOp::execute` per op and recording one span per op under its
/// kernel kind; plus `gebd2` on the direct path's largest size.
fn kernels_layer(rep: &Problem, budget: Duration, out: &mut Vec<Metric>) {
    let (m, n) = (rep.a.rows(), rep.a.cols());
    let algorithm = select_by_flops(m, n);
    let mut ns = [0u64; KERNEL_KINDS];
    let mut calls = [0usize; KERNEL_KINDS];
    let mut flops = [0.0f64; KERNEL_KINDS];
    let replays = repeat(budget.mul_f64(0.8), 1, 5, || {
        let t0 = Instant::now();
        let mut tiled = TiledMatrix::from_dense(&rep.a, NB);
        let ops = ge2bnd_ops(
            tiled.tile_rows(),
            tiled.tile_cols(),
            algorithm,
            &GenConfig::shared(NamedTree::Greedy),
        );
        let taus = TauTable::for_ops(&ops);
        let mut scratch = KernelScratch::for_tile(NB);
        for (id, op) in ops.iter().enumerate() {
            let kind = op.kernel();
            let start_ns = obs::now_ns();
            op.execute(id, &mut tiled, &taus, &mut scratch);
            let end_ns = obs::now_ns();
            spans::record(kind as u32, id, start_ns);
            let k = kind as usize;
            if k < KERNEL_KINDS {
                ns[k] += end_ns - start_ns;
                calls[k] += 1;
                flops[k] += kind.flops(NB);
            }
        }
        black_box(&tiled);
        secs_since(t0)
    });
    let reps = replays.len();
    for k in REPORTED_KINDS {
        let name = obs::KERNEL_KIND_NAMES[k].to_ascii_lowercase();
        let secs = ns[k] as f64 * 1e-9;
        out.push(Metric::new(
            format!("kernels.{name}.ms"),
            secs * 1e3 / reps as f64,
            "ms",
            reps,
        ));
        out.push(Metric::new(
            format!("kernels.{name}.gflops"),
            per_sec(flops[k], secs),
            "GFlop/s",
            calls[k],
        ));
        out.push(Metric::new(
            format!("kernels.{name}.calls"),
            (calls[k] / reps) as f64,
            "count",
            reps,
        ));
    }
    let small = Problem::latms(64, 64, 0x64);
    let mut work = small.a.clone();
    let times = repeat(budget.mul_f64(0.2), 5, 200, || {
        work.copy_from(&small.a);
        probe(1, || black_box(gebd2(&mut work))).1
    });
    out.push(Metric::new(
        "kernels.gebd2_us",
        median(&times) * 1e6,
        "us",
        times.len(),
    ));
}

/// `bidiag-trees` + `core::drivers`: op generation, graph construction and
/// the critical path of the workload's representative shape.
fn drivers_layer(rep: &Problem, budget: Duration, out: &mut Vec<Metric>) {
    let (m, n) = (rep.a.rows(), rep.a.cols());
    let (p, q) = (m.div_ceil(NB), n.div_ceil(NB));
    let algorithm = select_by_flops(m, n);
    let cfg = GenConfig::shared(NamedTree::Greedy);
    let mut ops = Vec::new();
    let op_times = repeat(budget / 2, 3, 200, || {
        let (o, dt) = probe(2, || ge2bnd_ops(p, q, algorithm, &cfg));
        ops = o;
        dt
    });
    let mut graph = TaskGraph::new();
    let graph_times = repeat(budget / 2, 3, 200, || {
        let (g, dt) = probe(3, || build_graph(&ops, q, &BlockCyclic::single_node()));
        graph = g;
        dt
    });
    out.push(Metric::new(
        "drivers.ops_ms",
        median(&op_times) * 1e3,
        "ms",
        op_times.len(),
    ));
    out.push(Metric::new(
        "drivers.graph_ms",
        median(&graph_times) * 1e3,
        "ms",
        graph_times.len(),
    ));
    out.push(Metric::new("drivers.tasks", ops.len() as f64, "count", 1));
    out.push(Metric::new(
        "drivers.cp_tasks",
        graph.longest_chain_tasks() as f64,
        "count",
        1,
    ));
}

/// `core::pipeline` / `exec`, `bidiag-kernels::band` and `bidiag-svd`: the
/// three stages at `threads` and at one thread, interleaved, each result
/// checked; then the pipeline's self time from traced `try_ge2val` calls.
fn pipeline_layer(
    rep: &Problem,
    threads: usize,
    budget: Duration,
    tally: &mut Tally,
    out: &mut Vec<Metric>,
) {
    let (m, n) = (rep.a.rows(), rep.a.cols());
    let opts_n = per_call_options(threads);
    let opts_1 = per_call_options(1);
    let mut t = [(); 6].map(|_| Vec::new());
    let mut bw = 0;
    let stage = |kind: u32, f: &mut dyn FnMut()| {
        let start_ns = obs::now_ns();
        let t0 = Instant::now();
        f();
        let dt = secs_since(t0);
        spans::record(kind, 0, start_ns);
        dt
    };
    let mut check = |mut sv: Vec<f64>| {
        sv.sort_by(|a, b| b.total_cmp(a));
        tally.record(spectrum_matches(&sv, &rep.sigma));
    };
    repeat(budget.mul_f64(0.8), 2, 15, || {
        let t0 = Instant::now();
        for (leg, opts) in [(0, &opts_n), (3, &opts_1)] {
            let mut g = None;
            t[leg].push(stage(obs::KIND_STAGE_GE2BND, &mut || {
                g = Some(ge2bnd(&rep.a, opts))
            }));
            let mut band = g.expect("stage ran").band;
            bw = band.bandwidth();
            let mut bd = None;
            t[leg + 1].push(stage(obs::KIND_STAGE_BND2BD, &mut || {
                bd = Some(if opts.threads > 1 {
                    bnd2bd_on_runtime(&mut band, opts.threads)
                } else {
                    band.reduce_to_bidiagonal()
                })
            }));
            let bd = bd.expect("stage ran");
            let mut sv = Vec::new();
            t[leg + 2].push(stage(obs::KIND_STAGE_BD2VAL, &mut || {
                sv = if opts.threads > 1 {
                    bd2val_on_runtime(&bd.diag, &bd.superdiag, opts.threads, &opts.bd2val)
                } else {
                    singular_values_with_report(&bd.diag, &bd.superdiag, &opts.bd2val).0
                }
            }));
            check(std::mem::take(&mut sv));
        }
        secs_since(t0)
    });
    let med: Vec<f64> = t.iter().map(|v| median(v)).collect();
    let reps = t[0].len();
    for (i, name) in ["ge2bnd", "bnd2bd", "bd2val"].iter().enumerate() {
        out.push(Metric::new(
            format!("pipeline.{name}_ms"),
            med[i] * 1e3,
            "ms",
            reps,
        ));
        out.push(Metric::new(
            format!("pipeline.{name}_1t_ms"),
            med[i + 3] * 1e3,
            "ms",
            reps,
        ));
    }
    let (total_n, total_1): (f64, f64) = (med[..3].iter().sum(), med[3..].iter().sum());
    out.push(Metric::new(
        "pipeline.speedup",
        total_1 / total_n,
        "x",
        reps,
    ));
    out.push(Metric::new(
        "pipeline.gflops",
        per_sec(reporting_flops(m, n), total_n),
        "GFlop/s",
        reps,
    ));
    out.push(Metric::new(
        "band.bnd2bd_gflops",
        per_sec(bnd2bd_flops(n, bw), med[4]),
        "GFlop/s",
        reps,
    ));

    // Self time of `try_ge2val`: its request span minus the stage spans
    // `ge2val` records inside it (validation, transposition, sorting).
    let since = obs::now_ns();
    repeat(budget.mul_f64(0.2), 2, 10, || {
        let start_ns = obs::now_ns();
        let t0 = Instant::now();
        let r = try_ge2val(&rep.a, &opts_n);
        let dt = secs_since(t0);
        spans::record(SPAN_REQUEST, 0, start_ns);
        tally.record(r.is_ok_and(|r| spectrum_matches(&r.singular_values, &rep.sigma)));
        dt
    });
    let caller: Vec<obs::Span> = obs::snapshot_spans()
        .into_iter()
        .filter(|s| s.worker == obs::WORKER_CALLER && s.start_ns >= since)
        .collect();
    let stages: Vec<obs::Span> = caller
        .iter()
        .filter(|s| (obs::KIND_STAGE_GE2BND..=obs::KIND_STAGE_BD2VAL).contains(&s.kind))
        .copied()
        .collect();
    let selfs: Vec<f64> = caller
        .iter()
        .filter(|s| s.kind == SPAN_REQUEST)
        .map(|call| spans::self_ns(call, &stages) as f64 * 1e-6)
        .collect();
    out.push(Metric::new(
        "pipeline.self_ms",
        median(&selfs),
        "ms",
        selfs.len(),
    ));
}

/// `bidiag-runtime`: the cost of one executor spawn, and the overhead of a
/// GE2BND execution beyond its kernels' own time.
fn runtime_layer(rep: &Problem, threads: usize, budget: Duration, out: &mut Vec<Metric>) {
    let mut one = TaskGraph::new();
    one.add_task(1.0, 0, 0, &[]);
    let spawn = repeat(budget / 4, 20, 2000, || {
        let body: TaskBody = Box::new(|| {});
        probe(4, || {
            bidiag_runtime::execute_parallel(&one, vec![body], threads)
        })
        .1
    });
    out.push(Metric::new(
        "runtime.spawn_us",
        median(&spawn) * 1e6,
        "us",
        spawn.len(),
    ));

    let (m, n) = (rep.a.rows(), rep.a.cols());
    let ops = ge2bnd_ops(
        m.div_ceil(NB),
        n.div_ceil(NB),
        select_by_flops(m, n),
        &GenConfig::shared(NamedTree::Greedy),
    );
    let overhead = repeat(budget.mul_f64(0.75), 1, 7, || {
        let mut tiled = TiledMatrix::from_dense(&rep.a, NB);
        let start_ns = obs::now_ns();
        execute_parallel(&ops, &mut tiled, threads);
        let end_ns = obs::now_ns();
        black_box(&tiled);
        let kernel_ns: u64 = obs::snapshot_spans()
            .iter()
            .filter(|s| {
                s.worker != obs::WORKER_CALLER
                    && (s.kind as usize) < KERNEL_KINDS
                    && s.start_ns >= start_ns
                    && s.end_ns <= end_ns
            })
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ((end_ns - start_ns) as f64 - kernel_ns as f64 / threads as f64) * 1e-9
    });
    out.push(Metric::new(
        "runtime.overhead_ms",
        median(&overhead) * 1e3,
        "ms",
        overhead.len(),
    ));
}

/// Runtime and solver counters the registry gathered over the traced units,
/// per completed problem or per singular value.
fn registry_metrics(snap: &obs::MetricsSnapshot, traced: &Samples, out: &mut Vec<Metric>) {
    let n = traced.completed;
    let problems = n.max(1) as f64;
    let values = traced.values.max(1) as f64;
    out.push(Metric::new(
        "runtime.steals",
        snap.steals as f64 / problems,
        "count",
        n,
    ));
    out.push(Metric::new(
        "runtime.parks",
        snap.parks as f64 / problems,
        "count",
        n,
    ));
    out.push(Metric::new(
        "runtime.idle_ms",
        snap.idle_ns as f64 * 1e-6 / problems,
        "ms",
        n,
    ));
    out.push(Metric::new(
        "svd.fallback_share",
        (snap.dqds_fallback_values + snap.dqds_sliced_values) as f64 / values,
        "ratio",
        traced.values,
    ));
    out.push(Metric::new(
        "svd.dqds_passes_per_value",
        snap.dqds_passes as f64 / values,
        "count",
        traced.values,
    ));
}

/// `core::batch` and the pool's queue: a traced session run and the
/// registry snapshot taken over it.
fn batch_metrics(snap: &obs::MetricsSnapshot, run: &Samples, out: &mut Vec<Metric>) {
    let submits = run.submit_us.len();
    let (qw, compute) = (&snap.queue_wait, &snap.compute);
    let us = |ns: f64| ns * 1e-3;
    out.push(Metric::new(
        "runtime.queue_wait_us_p50",
        us(qw.quantile(0.5)),
        "us",
        qw.count as usize,
    ));
    out.push(Metric::new(
        "runtime.queue_wait_us_p99",
        us(qw.quantile(0.99)),
        "us",
        qw.count as usize,
    ));
    out.push(Metric::new(
        "batch.submit_us_p50",
        quantile(&run.submit_us, 0.5),
        "us",
        submits,
    ));
    out.push(Metric::new(
        "batch.submit_us_p99",
        quantile(&run.submit_us, 0.99),
        "us",
        submits,
    ));
    out.push(Metric::new(
        "batch.compute_us_p50",
        us(compute.quantile(0.5)),
        "us",
        compute.count as usize,
    ));
    out.push(Metric::new(
        "batch.in_flight_peak",
        snap.in_flight_peak as f64,
        "count",
        submits,
    ));
    out.push(Metric::new(
        "batch.admission_waits",
        snap.admission_waits as f64,
        "count",
        submits,
    ));
    out.push(Metric::new(
        "batch.direct_share",
        run.direct as f64 / submits.max(1) as f64,
        "ratio",
        submits,
    ));
}

/// One unit of the workload: a pass over the per-call inputs, or `unit`
/// stream requests.
fn run_unit(target: &mut Target<'_>, tally: &mut Tally) -> Samples {
    match target {
        Target::PerCall { problems, opts } => {
            per_call_loop(problems, opts, Stop::requests(1), tally)
        }
        Target::Stream {
            session,
            pool,
            pick,
            window,
            unit,
        } => stream_loop(session, pool, pick, *window, Stop::requests(*unit), tally),
    }
}

fn largest(problems: &[Problem]) -> &Problem {
    problems
        .iter()
        .max_by_key(|p| p.a.rows() * p.a.cols())
        .expect("a workload has inputs")
}

/// The traced run of a workload: every per-layer metric except
/// `host.steal_pct`, which covers the whole process. Takes about `budget`.
pub fn traced_run(
    mut target: Target<'_>,
    threads: usize,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
) -> Vec<Metric> {
    let start = Instant::now();
    obs::set_enabled(true);
    let rep = match &target {
        Target::PerCall { problems, .. } => largest(problems),
        Target::Stream { pool, .. } => largest(pool),
    }
    .clone();
    let mut out = Vec::new();
    let slice = budget.mul_f64(0.08);
    matrix_layer(slice, seed, &mut out);
    kernels_layer(&rep, slice, &mut out);
    drivers_layer(&rep, slice / 2, &mut out);
    pipeline_layer(&rep, threads, slice * 2, tally, &mut out);
    runtime_layer(&rep, threads, slice, &mut out);

    // Interleaved untraced/traced units, alternating which runs first; the
    // registry only counts while tracing is on, so it sees the traced ones.
    obs::registry().reset();
    let mut traced = Samples::default();
    let mut ratios = Vec::new();
    while ratios.len() < 3 || start.elapsed() < budget.mul_f64(0.9) {
        let traced_first = ratios.len() % 2 == 1;
        let mut secs = [0.0; 2];
        for on in [traced_first, !traced_first] {
            obs::set_enabled(on);
            let s = run_unit(&mut target, tally);
            secs[usize::from(on)] = s.elapsed_s;
            if on {
                traced.latencies_ms.extend(s.latencies_ms);
                traced.completed += s.completed;
                traced.submit_us.extend(s.submit_us);
                traced.direct += s.direct;
                traced.values += s.values;
                traced.elapsed_s += s.elapsed_s;
            }
        }
        ratios.push(secs[1] / secs[0]);
    }
    obs::set_enabled(true);
    let snap = obs::registry().snapshot();
    registry_metrics(&snap, &traced, &mut out);
    match target {
        Target::Stream { .. } => batch_metrics(&snap, &traced, &mut out),
        Target::PerCall { problems, .. } => {
            obs::registry().reset();
            let session = SvdSession::new(threads);
            let mut next = 0;
            let mut pick = || {
                next += 1;
                (next - 1) % problems.len()
            };
            let stop = Stop {
                budget: budget.mul_f64(0.1),
                max_requests: 4 * problems.len().max(threads),
            };
            let run = stream_loop(&session, problems, &mut pick, threads, stop, tally);
            batch_metrics(&obs::registry().snapshot(), &run, &mut out);
        }
    }
    out.push(Metric::new(
        "obs.tracing_overhead_pct",
        (median(&ratios) - 1.0) * 100.0,
        "%",
        ratios.len(),
    ));
    out
}
