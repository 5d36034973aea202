//! The four workloads: their seeded inputs, their set-up, and the closed
//! request loops the end-to-end metrics are measured on.

use crate::check::{bitwise_equal, spectrum_matches, Tally};
use crate::report::median;
use crate::spans::{self, SPAN_REQUEST, SPAN_SUBMIT};
use bidiag_core::{try_ge2val, Ge2Options, SvdError, SvdJob, SvdSession};
use bidiag_matrix::gen::{latms, SpectrumKind};
use bidiag_matrix::Matrix;
use bidiag_obs as obs;
use bidiag_trees::NamedTree;
use std::time::{Duration, Instant};

/// Tile size of every workload.
pub const NB: usize = 64;
/// Condition number of the geometric LATMS spectrum of every input.
const COND: f64 = 1.0e3;
/// A per-call solve slower than this counts as a timed-out request.
const CALL_DEADLINE: Duration = Duration::from_secs(30);
/// A session request still in flight after this is cancelled and counts
/// as a timed-out request.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Distinct matrices per `stream` shape.
const STREAM_COPIES: usize = 4;
/// `stream` shapes `(m, n, percent of requests)`: 90 % at or below the
/// session's direct-path crossover (one of them wide), 10 % blocked.
const STREAM_MIX: [(usize, usize, u64); 9] = [
    (16, 16, 10),
    (24, 24, 10),
    (32, 32, 15),
    (40, 40, 10),
    (48, 32, 10),
    (56, 56, 10),
    (64, 64, 15),
    (40, 64, 10),
    (128, 128, 10),
];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Per-call `try_ge2val` on the paper's 768 x 512 reference shape.
    Square,
    /// Per-call `try_ge2val` on 6144 x 384 (m/n = 16, R-BIDIAG).
    Tall,
    /// A stream of small problems through one `SvdSession`.
    Stream,
    /// Per-call `try_ge2val` cycling n in {96, 128, 192, 256}.
    Medium,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Square,
        Workload::Tall,
        Workload::Stream,
        Workload::Medium,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Square => "square",
            Workload::Tall => "tall",
            Workload::Stream => "stream",
            Workload::Medium => "medium",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Shapes `(m, n)` of the distinct inputs of a per-call workload (none
    /// for `stream`, which draws from its own mix). `tiny` shrinks them for
    /// the benchmark's own tests.
    pub fn shapes(self, tiny: bool) -> Vec<(usize, usize)> {
        match (self, tiny) {
            (Workload::Square, false) => vec![(768, 512)],
            (Workload::Square, true) => vec![(192, 128)],
            (Workload::Tall, false) => vec![(6144, 384)],
            (Workload::Tall, true) => vec![(1024, 64)],
            (Workload::Medium, false) => vec![(96, 96), (128, 128), (192, 192), (256, 256)],
            (Workload::Medium, true) => vec![(96, 96), (128, 128)],
            (Workload::Stream, _) => Vec::new(),
        }
    }
}

/// One input and the spectrum LATMS prescribed for it.
#[derive(Clone, Debug)]
pub struct Problem {
    /// The matrix.
    pub a: Matrix,
    /// Its singular values, non-increasing.
    pub sigma: Vec<f64>,
}

impl Problem {
    /// A LATMS matrix with a geometric spectrum, fully determined by `seed`.
    pub fn latms(m: usize, n: usize, seed: u64) -> Self {
        let (a, sigma) = latms(m, n, &SpectrumKind::Geometric { cond: COND }, seed);
        Problem { a, sigma }
    }

    /// Smaller dimension: the number of singular values.
    pub fn values(&self) -> usize {
        self.a.rows().min(self.a.cols())
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The inputs of a per-call workload, one per shape.
pub fn per_call_problems(workload: Workload, tiny: bool, seed: u64) -> Vec<Problem> {
    let mut rng = SplitMix::new(seed);
    workload
        .shapes(tiny)
        .into_iter()
        .map(|(m, n)| Problem::latms(m, n, rng.next_u64()))
        .collect()
}

/// The options of every per-call solve: `nb = 64`, GREEDY, Auto algorithm
/// choice, `threads` workers, no direct-path crossover.
pub fn per_call_options(threads: usize) -> Ge2Options {
    Ge2Options::new(NB)
        .with_tree(NamedTree::Greedy)
        .with_threads(threads)
}

/// The distinct `stream` inputs: [`STREAM_COPIES`] matrices per shape of
/// the mix, indexed `shape * STREAM_COPIES + copy`.
pub fn stream_pool(seed: u64) -> Vec<Problem> {
    let mut rng = SplitMix::new(seed);
    STREAM_MIX
        .iter()
        .flat_map(|&(m, n, _)| (0..STREAM_COPIES).map(move |_| (m, n)))
        .map(|(m, n)| Problem::latms(m, n, rng.next_u64()))
        .collect()
}

/// Draws `stream` requests (indices into [`stream_pool`]) with the mix's
/// weights.
#[derive(Clone, Debug)]
pub struct StreamMix(SplitMix);

impl StreamMix {
    /// A request sequence fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        StreamMix(SplitMix::new(seed))
    }

    /// Index of the next request's input.
    pub fn next_index(&mut self) -> usize {
        let r = self.0.next_u64();
        let mut pct = (r >> 32) % 100;
        let copy = (r as usize) % STREAM_COPIES;
        for (shape, &(_, _, weight)) in STREAM_MIX.iter().enumerate() {
            if pct < weight {
                return shape * STREAM_COPIES + copy;
            }
            pct -= weight;
        }
        unreachable!("the mix's weights sum to 100")
    }
}

/// When a request loop stops sending: after `budget` of wall time or after
/// `max_requests` requests, whichever comes first (at least one request is
/// always sent).
#[derive(Clone, Copy, Debug)]
pub struct Stop {
    /// Wall-time budget.
    pub budget: Duration,
    /// Request cap.
    pub max_requests: usize,
}

impl Stop {
    /// Stop after `budget`.
    pub fn after(budget: Duration) -> Self {
        Stop {
            budget,
            max_requests: usize::MAX,
        }
    }

    /// Stop after `max_requests` requests.
    pub fn requests(max_requests: usize) -> Self {
        Stop {
            budget: Duration::MAX,
            max_requests,
        }
    }

    fn done(&self, start: Instant, sent: usize) -> bool {
        sent >= self.max_requests || (sent > 0 && start.elapsed() >= self.budget)
    }
}

/// What one request loop measured.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Time from sending each request to its result, in ms.
    pub latencies_ms: Vec<f64>,
    /// Problems solved (a per-call request solves every input once).
    pub completed: usize,
    /// Time spent inside `SvdSession::submit` per request, in µs (session
    /// loops only).
    pub submit_us: Vec<f64>,
    /// Requests that took the session's direct path (session loops only).
    pub direct: usize,
    /// Singular values computed by completed requests.
    pub values: usize,
    /// Wall time of the loop, in s.
    pub elapsed_s: f64,
}

impl Samples {
    /// Problems solved per second.
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed_s.max(f64::MIN_POSITIVE)
    }
}

/// Closed loop with one caller: each request solves every input of
/// `problems` once, in order, with per-call `try_ge2val`, checking every
/// result. The latency of a request is the time until its last spectrum.
pub fn per_call_loop(
    problems: &[Problem],
    opts: &Ge2Options,
    stop: Stop,
    tally: &mut Tally,
) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    let mut sent = 0;
    while !stop.done(start, sent) {
        sent += 1;
        let t0 = Instant::now();
        for (idx, p) in problems.iter().enumerate() {
            let start_ns = obs::now_ns();
            let t_call = Instant::now();
            let result = try_ge2val(&p.a, opts);
            let ok = match &result {
                Ok(r) => {
                    t_call.elapsed() <= CALL_DEADLINE
                        && spectrum_matches(&r.singular_values, &p.sigma)
                }
                Err(_) => false,
            };
            spans::record(SPAN_REQUEST, idx, start_ns);
            tally.record(ok);
            s.completed += 1;
            s.values += p.values();
        }
        s.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    s.elapsed_s = start.elapsed().as_secs_f64();
    s
}

/// Closed loop with one generator: keep `window` requests in flight on
/// `session`, drawing input indices into `pool` from `pick`, checking every
/// result.
///
/// The generator sweeps the in-flight requests for finished ones and sleeps
/// briefly when none is, so a request is timed to within about one sleep
/// (tens of µs) of its completion without the generator taking a core.
pub fn stream_loop(
    session: &SvdSession,
    pool: &[Problem],
    pick: &mut impl FnMut() -> usize,
    window: usize,
    stop: Stop,
    tally: &mut Tally,
) -> Samples {
    let mut s = Samples::default();
    let mut in_flight: Vec<(SvdJob, Instant, u64, usize)> = Vec::with_capacity(window);
    let start = Instant::now();
    let mut sent = 0;
    loop {
        while in_flight.len() < window && !stop.done(start, sent) {
            let idx = pick();
            let p = &pool[idx];
            sent += 1;
            if session.options().takes_direct_path(p.a.rows(), p.a.cols()) {
                s.direct += 1;
            }
            let start_ns = obs::now_ns();
            let t0 = Instant::now();
            let submitted = session.submit(&p.a);
            s.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            spans::record(SPAN_SUBMIT, idx, start_ns);
            match submitted {
                Ok(job) => in_flight.push((job, t0, start_ns, idx)),
                Err(_) => tally.record(false),
            }
        }
        if in_flight.is_empty() {
            break;
        }
        let before = in_flight.len();
        let mut i = 0;
        while i < in_flight.len() {
            let (job, t0, _, _) = &in_flight[i];
            if job.is_finished() {
                let (job, t0, start_ns, idx) = in_flight.swap_remove(i);
                let ok = match job.wait() {
                    Ok(sv) => spectrum_matches(&sv, &pool[idx].sigma),
                    Err(_) => false,
                };
                s.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                spans::record(SPAN_REQUEST, idx, start_ns);
                tally.record(ok);
                s.completed += 1;
                s.values += pool[idx].values();
            } else if t0.elapsed() > REQUEST_DEADLINE {
                let (job, _, _, _) = in_flight.swap_remove(i);
                job.cancel();
                tally.record(false);
            } else {
                i += 1;
            }
        }
        if in_flight.len() == before {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
    s.elapsed_s = start.elapsed().as_secs_f64();
    s
}

/// Set up a `stream` session [`SETUP_REPS`] times — construction plus a
/// warm-up pass that solves every distinct input once — and check that each
/// warm-up result equals per-call `try_ge2val` under the session's options
/// bit for bit and matches its prescribed spectrum.
///
/// Returns the last session and the median set-up time in s.
pub fn stream_setup(threads: usize, pool: &[Problem], tally: &mut Tally) -> (SvdSession, f64) {
    let probe = SvdSession::new(threads);
    let reference: Vec<Option<Vec<f64>>> = pool
        .iter()
        .map(|p| {
            try_ge2val(&p.a, probe.options())
                .ok()
                .map(|r| r.singular_values)
        })
        .collect();
    drop(probe);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for _ in 0..SETUP_REPS {
        drop(session.take());
        let t0 = Instant::now();
        let s = SvdSession::new(threads);
        let jobs: Vec<Result<SvdJob, SvdError>> = pool.iter().map(|p| s.submit(&p.a)).collect();
        let results: Vec<Result<Vec<f64>, SvdError>> = jobs
            .into_iter()
            .map(|job| job.and_then(|j| j.wait_timeout(REQUEST_DEADLINE)))
            .collect();
        times.push(t0.elapsed().as_secs_f64());
        for ((result, p), want) in results.iter().zip(pool).zip(&reference) {
            let ok = match (result, want) {
                (Ok(sv), Some(want)) => bitwise_equal(sv, want) && spectrum_matches(sv, &p.sigma),
                _ => false,
            };
            tally.record(ok);
        }
        session = Some(s);
    }
    (session.expect("at least one set-up"), median(&times))
}
