//! The GE2VAL service benchmark: four workloads driven through the public
//! entry points, every output checked, end-to-end metrics from an untraced
//! run and per-layer metrics from a traced run. See `README.md` beside this
//! crate for the workloads, the metrics and how to read a traced run.

pub mod check;
pub mod layers;
pub mod report;
pub mod spans;
pub mod workloads;

use check::Tally;
use report::{
    host_fingerprint, median, nproc, peak_rss_mb, print_result, quantile, CpuTimes, Metric,
};
use std::time::Duration;
use workloads::{
    per_call_loop, per_call_options, per_call_problems, stream_loop, stream_pool, stream_setup,
    Samples, Stop, StreamMix, Workload, SETUP_REPS,
};

/// Requests each `stream` generator keeps in flight, per worker thread.
const STREAM_WINDOW_PER_THREAD: usize = 4;
/// Requests in one traced or untraced `stream` unit of the traced run.
const STREAM_UNIT: usize = 400;

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input and request sequence.
    pub seed: u64,
    /// Measuring time, in s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Shrunken shapes, for the benchmark's own tests.
    pub tiny: bool,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: Option<String>,
}

const USAGE: &str = "usage: ge2val-bench --workload <square|tall|stream|medium> --seed <n> \
                     --seconds <s> --trace <0|1> [--tiny] [--trace-out <path>]";

impl Config {
    /// Parse the command line (without the program name).
    pub fn parse(args: &[String]) -> Result<Config, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut tiny = false;
        let mut trace_out = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
            };
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
                "--seconds" => {
                    let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds must be in (0, 3600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, got {v}")),
                    }
                }
                "--tiny" => tiny = true,
                "--trace-out" => trace_out = Some(value()?.clone()),
                other => return Err(format!("unknown argument {other}\n{USAGE}")),
            }
        }
        Ok(Config {
            workload: workload.ok_or(USAGE)?,
            seed: seed.ok_or(USAGE)?,
            seconds: seconds.ok_or(USAGE)?,
            trace,
            tiny,
            trace_out,
        })
    }
}

/// The end-to-end metrics of an untraced run: the gated ones listed in
/// `BENCHMARK.json`, and the tail latency, reported but not gated because
/// host contention moves it more than any bound allows.
fn end_to_end(s: &Samples, setup_s: f64) -> (Vec<Metric>, Vec<Metric>) {
    let n = s.latencies_ms.len();
    let gated = vec![
        Metric::new("latency_ms_p50", median(&s.latencies_ms), "ms", n),
        Metric::new("throughput_ps", s.throughput(), "1/s", n),
        Metric::new("setup_s", setup_s, "s", SETUP_REPS),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ];
    let info = vec![Metric::new(
        "latency_ms_p99",
        quantile(&s.latencies_ms, 0.99),
        "ms",
        n,
    )];
    (gated, info)
}

/// Run one benchmark invocation and print its result.
pub fn run(cfg: &Config) -> std::io::Result<()> {
    let cpu0 = CpuTimes::now();
    let threads = nproc();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut tally = Tally::default();
    let (mut metrics, info) = match cfg.workload {
        Workload::Stream => {
            let pool = stream_pool(cfg.seed);
            let (session, setup_s) = stream_setup(threads, &pool, &mut tally);
            let mut mix = StreamMix::new(cfg.seed ^ 0x5354_5245_414d);
            let mut pick = || mix.next_index();
            let window = STREAM_WINDOW_PER_THREAD * threads;
            if cfg.trace {
                let target = layers::Target::Stream {
                    session: &session,
                    pool: &pool,
                    pick: &mut pick,
                    window,
                    unit: if cfg.tiny {
                        STREAM_UNIT / 10
                    } else {
                        STREAM_UNIT
                    },
                };
                (
                    layers::traced_run(target, threads, cfg.seed, budget, &mut tally),
                    Vec::new(),
                )
            } else {
                let s = stream_loop(
                    &session,
                    &pool,
                    &mut pick,
                    window,
                    Stop::after(budget),
                    &mut tally,
                );
                end_to_end(&s, setup_s)
            }
        }
        w => {
            let problems = per_call_problems(w, cfg.tiny, cfg.seed);
            let opts = per_call_options(threads);
            let setups: Vec<f64> = (0..SETUP_REPS)
                .map(|_| per_call_loop(&problems, &opts, Stop::requests(1), &mut tally).elapsed_s)
                .collect();
            if cfg.trace {
                let target = layers::Target::PerCall {
                    problems: &problems,
                    opts,
                };
                (
                    layers::traced_run(target, threads, cfg.seed, budget, &mut tally),
                    Vec::new(),
                )
            } else {
                let s = per_call_loop(&problems, &opts, Stop::after(budget), &mut tally);
                end_to_end(&s, median(&setups))
            }
        }
    };
    let steal_pct = CpuTimes::now().steal_pct_since(&cpu0);
    let host = host_fingerprint(steal_pct);
    if cfg.trace {
        metrics.push(Metric::new("host.steal_pct", steal_pct, "%", 1));
        let path = cfg
            .trace_out
            .clone()
            .unwrap_or_else(|| format!("ge2val-bench/traces/{}.json", cfg.workload.name()));
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let reg = bidiag_obs::registry();
        reg.set_meta("workload", cfg.workload.name());
        reg.set_meta("seed", &cfg.seed.to_string());
        reg.set_meta("host", &host);
        bidiag_obs::write_chrome_trace(&path)?;
        eprintln!("ge2val-bench: wrote the Chrome trace to {path}");
    }
    let header = format!(
        "ge2val-bench workload={} seed={} seconds={} trace={} tiny={} threads={threads}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.tiny
    );
    print_result(&header, &host, &metrics, &info, &tally);
    Ok(())
}
