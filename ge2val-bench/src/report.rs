//! Statistics, the host fingerprint and the printed result.

use crate::check::Tally;
use std::fmt::Write as _;

/// Quantile `q` in `[0, 1]` of `values`, interpolating linearly between
/// order statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Number of samples behind the value.
    pub samples: usize,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// CPU time counters of `/proc/stat` (all CPUs), used for the steal share.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Current counters (zeros where `/proc/stat` is unavailable).
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user/nice.
        CpuTimes {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of CPU time stolen by the hypervisor since `earlier`, in %.
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the benchmark drives: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host fingerprint printed with every result, so that runs from
/// different hosts, backends or compilers, or from a host whose CPU time
/// was stolen, are visible instead of silently compared.
pub fn host_fingerprint(steal_pct: f64) -> String {
    format!(
        "{{\"cpu\": {}, \"nproc\": {}, \"simd_backend\": {}, \"rustc\": {}, \"steal_pct\": {}}}",
        json_str(&cpu_model()),
        nproc(),
        json_str(bidiag_matrix::simd::backend().name()),
        json_str(env!("BENCH_RUSTC_VERSION")),
        steal_pct
    )
}

fn report_line(out: &mut String, m: &Metric) {
    assert!(
        m.value.is_finite(),
        "metric {} is not finite: {}",
        m.name,
        m.value
    );
    let _ = writeln!(
        out,
        "{:<28} {:>16.6} {:<8} n={}",
        m.name, m.value, m.unit, m.samples
    );
}

/// Print the human-readable report (one line per metric, with its unit and
/// sample count, then the `info` metrics that are reported but not part of
/// the result), the host fingerprint, and, as the last line of standard
/// output, the JSON result object holding `metrics`.
///
/// # Panics
///
/// Panics on a non-finite metric value: that is a bug of the benchmark,
/// and no result is printed for it.
pub fn print_result(header: &str, host: &str, metrics: &[Metric], info: &[Metric], tally: &Tally) {
    let mut out = String::new();
    let _ = writeln!(out, "# {header}");
    let _ = writeln!(out, "# host {host}");
    let _ = writeln!(
        out,
        "# error_rate {} ({} failed of {} attempted)",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    for m in metrics {
        report_line(&mut out, m);
    }
    for m in info {
        out.push_str("# ");
        report_line(&mut out, m);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    print!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
